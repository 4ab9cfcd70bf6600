#pragma once
// Minimal JSON support for magic_bench: a reader for magicd's replies (verdict
// lines and the `stats` payload) and the number/string encoders its result
// files are written with.

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace magic::e2e {

/// One parsed JSON value (objects keep member order).
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  /// Parses one complete JSON text; throws std::runtime_error on bad input.
  static Json parse(std::string_view text);

  /// Typed accessors; each throws std::runtime_error on a type mismatch.
  double number() const;
  const std::string& string() const;
  const std::vector<Json>& array() const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Member `key`, or nullptr when absent or when this is not an object.
  const Json* find(std::string_view key) const;
  /// Nested member lookup; throws std::runtime_error naming the path.
  const Json& at(std::initializer_list<std::string_view> path) const;

  /// Compact JSON text of this value.
  std::string dump() const;

 private:
  friend class JsonParser;
  Type type_ = Type::Null;
  bool boolean_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Shortest decimal text that reads back as exactly `value`; throws on
/// NaN or infinity, which JSON cannot carry.
std::string json_number(double value);
/// `text` as a quoted, escaped JSON string.
std::string json_string(std::string_view text);

}  // namespace magic::e2e
