#include "json.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "serve/wire.hpp"

namespace magic::e2e {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json document() {
    Json value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  Json parse_value() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end");
    Json value;
    const char c = text_[pos_];
    if (c == '{') {
      value.type_ = Json::Type::Object;
      ++pos_;
      skip_space();
      if (consume("}")) return value;
      for (;;) {
        skip_space();
        std::string key = parse_string();
        skip_space();
        if (!consume(":")) fail("expected ':'");
        value.members_.emplace_back(std::move(key), parse_value());
        skip_space();
        if (consume("}")) return value;
        if (!consume(",")) fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      value.type_ = Json::Type::Array;
      ++pos_;
      skip_space();
      if (consume("]")) return value;
      for (;;) {
        value.array_.push_back(parse_value());
        skip_space();
        if (consume("]")) return value;
        if (!consume(",")) fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      value.type_ = Json::Type::String;
      value.string_ = parse_string();
      return value;
    }
    if (consume("true")) {
      value.type_ = Json::Type::Bool;
      value.boolean_ = true;
      return value;
    }
    if (consume("false")) {
      value.type_ = Json::Type::Bool;
      return value;
    }
    if (consume("null")) return value;
    value.type_ = Json::Type::Number;
    const char* begin = text_.data() + pos_;
    const auto [end, ec] =
        std::from_chars(begin, text_.data() + text_.size(), value.number_);
    if (ec != std::errc()) fail("bad number");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  std::string parse_string() {
    if (!consume("\"")) fail("expected string");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // magicd only escapes control characters this way (\u00XX).
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            const auto [p, ec] = std::from_chars(text_.data() + pos_,
                                                 text_.data() + pos_ + 4, code, 16);
            if (ec != std::errc() || p != text_.data() + pos_ + 4 || code > 0x7F) {
              fail("unsupported \\u escape");
            }
            pos_ += 4;
            c = static_cast<char>(code);
            break;
          }
          default: c = e;  // '"', '\\', '/'
        }
      }
      out.push_back(c);
    }
    if (!consume("\"")) fail("unterminated string");
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Json Json::parse(std::string_view text) { return JsonParser(text).document(); }

double Json::number() const {
  if (type_ != Type::Number) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& Json::string() const {
  if (type_ != Type::String) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<Json>& Json::array() const {
  if (type_ != Type::Array) throw std::runtime_error("json: not an array");
  return array_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::Object) throw std::runtime_error("json: not an object");
  return members_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(std::initializer_list<std::string_view> path) const {
  const Json* node = this;
  std::string walked;
  for (std::string_view key : path) {
    walked += walked.empty() ? "" : ".";
    walked += key;
    node = node->find(key);
    if (node == nullptr) throw std::runtime_error("json: missing " + walked);
  }
  return *node;
}

std::string Json::dump() const {
  switch (type_) {
    case Type::Null: return "null";
    case Type::Bool: return boolean_ ? "true" : "false";
    case Type::Number: return json_number(number_);
    case Type::String: return json_string(string_);
    case Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        out += array_[i].dump();
      }
      return out + "]";
    }
    case Type::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        out += json_string(members_[i].first);
        out += ':';
        out += members_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("json: non-finite number");
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc()) throw std::runtime_error("json: number does not fit");
  return std::string(buffer, end);
}

std::string json_string(std::string_view text) {
  return "\"" + serve::wire::json_escape(text) + "\"";
}

}  // namespace magic::e2e
