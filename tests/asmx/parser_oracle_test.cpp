// Differential tests for the assembly front end. asmx::parse_listing is one
// pass over string_views; reference::parse_listing (reference_parser.cpp)
// is the token-copying parser it replaced. On generated listings and on
// seeded mutants of them, both must return the same ParseResult, or throw
// the same std::runtime_error, and the ACFGs built from the two results
// must be bitwise equal. A golden digest pins the verdict-cache keys of
// generated listings: warm caches and .mgc corpora stay valid only while
// extraction maps every listing to the same ACFG.

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "acfg/extractor.hpp"
#include "asmx/parser.hpp"
#include "asmx/reference_parser.hpp"
#include "asmx/tagging.hpp"
#include "cache/acfg_hash.hpp"
#include "cfg/cfg_builder.hpp"
#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "util/rng.hpp"

namespace magic::asmx {
namespace {

using ::testing::AssertionFailure;
using ::testing::AssertionResult;
using ::testing::AssertionSuccess;

/// `count` listings that cycle through the families of `specs`, one
/// generator per family, all seeded from `seed`.
std::vector<std::string> family_mix(const std::vector<data::FamilySpec>& specs,
                                    std::size_t count, std::uint64_t seed) {
  util::Rng master(seed);
  std::vector<data::ProgramGenerator> generators;
  for (const auto& spec : specs) generators.emplace_back(spec, master.split());
  std::vector<std::string> listings;
  listings.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    listings.push_back(generators[i % generators.size()].generate_listing());
  }
  return listings;
}

AssertionResult same_parse(const ParseResult& got, const ParseResult& want) {
  const auto& gi = got.program.instructions;
  const auto& wi = want.program.instructions;
  if (gi.size() != wi.size()) {
    return AssertionFailure() << gi.size() << " instructions, reference has " << wi.size();
  }
  for (std::size_t i = 0; i < gi.size(); ++i) {
    const Instruction& g = gi[i];
    const Instruction& w = wi[i];
    if (g.addr != w.addr || g.size != w.size || g.mnemonic != w.mnemonic ||
        g.opclass != w.opclass || g.operands.size() != w.operands.size() ||
        g.start != w.start || g.branch_to != w.branch_to ||
        g.fall_through != w.fall_through || g.is_return != w.is_return) {
      return AssertionFailure() << "instruction " << i << " differs: 0x" << std::hex
                                << g.addr << " '" << g.mnemonic << "' vs 0x" << w.addr
                                << " '" << w.mnemonic << "'";
    }
    for (std::size_t j = 0; j < g.operands.size(); ++j) {
      const Operand& go = g.operands[j];
      const Operand& wo = w.operands[j];
      if (go.kind != wo.kind || go.text != wo.text || go.value != wo.value) {
        return AssertionFailure() << "instruction " << i << " operand " << j
                                  << " differs: '" << go.text << "' vs '" << wo.text << "'";
      }
    }
  }
  if (got.diagnostics.size() != want.diagnostics.size()) {
    return AssertionFailure() << got.diagnostics.size() << " diagnostics, reference has "
                              << want.diagnostics.size();
  }
  for (std::size_t i = 0; i < got.diagnostics.size(); ++i) {
    const ParseDiagnostic& g = got.diagnostics[i];
    const ParseDiagnostic& w = want.diagnostics[i];
    if (g.line != w.line || g.message != w.message) {
      return AssertionFailure() << "diagnostic " << i << " differs: " << g.line << " '"
                                << g.message << "' vs " << w.line << " '" << w.message << "'";
    }
  }
  return AssertionSuccess();
}

/// Algorithms 1-2 and the Table I attributes over a parsed program.
acfg::Acfg build_acfg(Program program) {
  TaggingPass tagger;
  tagger.run(program);
  cfg::CfgBuilder builder;
  return acfg::extract_acfg(builder.connect_blocks(std::move(program)));
}

AssertionResult same_acfg(const acfg::Acfg& got, const acfg::Acfg& want) {
  if (got.out_edges != want.out_edges) return AssertionFailure() << "out_edges differ";
  if (got.attributes.shape() != want.attributes.shape()) {
    return AssertionFailure() << "attribute shapes differ";
  }
  for (std::size_t i = 0; i < got.attributes.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got.attributes[i]) !=
        std::bit_cast<std::uint64_t>(want.attributes[i])) {
      return AssertionFailure() << "attribute " << i << " differs";
    }
  }
  if (cache::acfg_content_hash(got) != cache::acfg_content_hash(want)) {
    return AssertionFailure() << "content hashes differ";
  }
  return AssertionSuccess();
}

/// What one parser made of a listing: its result, or the message of the
/// std::runtime_error it threw.
struct Outcome {
  std::optional<ParseResult> result;
  std::string error;
};

Outcome parse_with(ParseResult (*parse)(std::string_view), std::string_view text) {
  try {
    return {parse(text), {}};
  } catch (const std::runtime_error& e) {
    return {std::nullopt, e.what()};
  }
}

/// Both parsers on `text`: the same result or the same error, and for a
/// result, the same ACFG. `parsed` (optional) reports whether it parsed.
AssertionResult same_front_end(std::string_view text, bool* parsed = nullptr) {
  Outcome got = parse_with(&parse_listing, text);
  Outcome want = parse_with(&reference::parse_listing, text);
  if (parsed != nullptr) *parsed = want.result.has_value();
  if (!got.result && !want.result) {
    if (got.error == want.error) return AssertionSuccess();
    return AssertionFailure() << "errors differ: '" << got.error << "' vs '" << want.error << "'";
  }
  if (!got.result) return AssertionFailure() << "only the new parser threw: " << got.error;
  if (!want.result) return AssertionFailure() << "only the reference threw: " << want.error;
  if (AssertionResult same = same_parse(*got.result, *want.result); !same) return same;
  const acfg::Acfg want_graph = build_acfg(want.result->program);
  const acfg::Acfg got_graph = build_acfg(std::move(got.result->program));
  return same_acfg(got_graph, want_graph);
}

TEST(ParserOracle, GeneratedYancfgMixMatchesReference) {
  for (const std::string& listing : family_mix(data::yancfg_family_specs(), 500, 2401)) {
    ASSERT_TRUE(same_front_end(listing)) << listing;
  }
}

TEST(ParserOracle, GeneratedMskcfgMixMatchesReference) {
  for (const std::string& listing : family_mix(data::mskcfg_family_specs(), 500, 2402)) {
    ASSERT_TRUE(same_front_end(listing)) << listing;
  }
}

TEST(ParserOracle, RegisterNamesMatchReference) {
  // Every string of up to four bytes over the characters register names
  // use: each name and every near miss of it.
  constexpr std::string_view kAlphabet = "abcdehilprsx0123456789";
  std::string name;
  std::size_t registers = 0;
  const auto visit = [&](const auto& self, std::size_t depth) -> void {
    const bool is_register = is_register_name(name);
    ASSERT_EQ(is_register, reference::is_register_name(name)) << "'" << name << "'";
    registers += is_register ? 1 : 0;
    if (depth == 4) return;
    for (const char c : kAlphabet) {
      name.push_back(c);
      self(self, depth + 1);
      name.pop_back();
    }
  };
  visit(visit, 0);
  EXPECT_EQ(registers, 48u);
  for (const std::string_view other :
       {std::string_view("EAX"), std::string_view(" eax"), std::string_view("\0ax", 3),
        std::string_view("a\0x", 3), std::string_view("ax\0", 3), std::string_view("\0\0sp", 4),
        std::string_view("r15dd"), std::string_view("eaxeax")}) {
    EXPECT_EQ(is_register_name(other), reference::is_register_name(other));
  }
}

TEST(ParserOracle, OperandsMatchReference) {
  for (const std::string_view text :
       {"", " ", "eax", " EAX\t", "ah", "AH", "0ah", "h", "0x", "0X1F", "10h", "1AH", "4199424",
        "short loc_401000", "SHORT  loc_1", "jmp", "dword ptr [ebx]", "DWORD PTR [EBX+8]",
        "dword  ptr\t[x]", "ptr", "ptr ", "ptr ptr 5", "offset aString", "Offset 0x403000",
        "byte byte 5", "near far short 7", "shortloc_1", "LOCRET_1", "sub_", "locret_", "[",
        "]", "[]", "x\v", "\f12\r", "@@##$$"}) {
    const Operand got = parse_operand(text);
    const Operand want = reference::parse_operand(text);
    EXPECT_EQ(got.kind, want.kind) << "'" << text << "'";
    EXPECT_EQ(got.text, want.text) << "'" << text << "'";
    EXPECT_EQ(got.value, want.value) << "'" << text << "'";
  }
}

// ---- Mutated listings -------------------------------------------------------

constexpr const char* kIdaSeed =
    "; =============== S U B R O U T I N E ===============\n"
    ".text:00401000 sub_401000:\n"
    ".text:00401000 push ebp\n"
    ".text:00401001 mov ebp, esp\n"
    ".text:00401003 mov eax, dword ptr [ebp+8]\n"
    ".text:00401006 cmp eax, 0\n"
    ".text:00401009 jz short loc_401010\n"
    ".text:0040100b add eax, 1\n"
    ".text:0040100e jmp short loc_401012\n"
    "loc_401010:\n"
    ".text:00401010 xor eax, eax\n"
    ".text:00401012 loc_401012:\n"
    ".text:00401012 pop ebp\n"
    ".text:00401013 call sub_401000\n"
    ".text:00401018 push offset 0x403000\n"
    ".text:0040101d retn\n";

std::vector<std::string> lines_of(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (;;) {
    const std::size_t eol = text.find('\n', start);
    if (eol == std::string_view::npos) {
      lines.emplace_back(text.substr(start));
      return lines;
    }
    lines.emplace_back(text.substr(start, eol - start));
    start = eol + 1;
  }
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

/// Applies seeded mutations to small windows of real listings: byte-level
/// damage (flips, truncation, splicing, non-ASCII bytes), case and
/// whitespace noise, and the IDA forms the parser accepts (comments,
/// standalone and inline labels, segment prefixes, 0x/h addresses, size
/// keywords, empty operands, duplicated and shuffled lines).
class Mutator {
 public:
  Mutator(std::vector<std::string> seeds, std::uint64_t seed)
      : seeds_(std::move(seeds)), rng_(seed) {}

  std::string next() {
    std::string text = window(seeds_[pick(seeds_.size())]);
    const std::int64_t steps = rng_.uniform_int(1, 4);
    for (std::int64_t s = 0; s < steps; ++s) mutate(text);
    return text;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Up to 40 consecutive lines of `listing`, keeping mutants small.
  std::string window(const std::string& listing) {
    const std::vector<std::string> lines = lines_of(listing);
    const std::size_t len = std::min<std::size_t>(lines.size(), 1 + pick(40));
    const std::size_t first = pick(lines.size() - len + 1);
    return join_lines({lines.begin() + static_cast<std::ptrdiff_t>(first),
                       lines.begin() + static_cast<std::ptrdiff_t>(first + len)});
  }

  /// Index of the end of the address field of `line` (its first token).
  static std::size_t address_end(const std::string& line) {
    const std::size_t sp = line.find_first_of(" \t");
    return sp == std::string::npos ? line.size() : sp;
  }

  void mutate(std::string& text) {
    switch (pick(15)) {
      case 0:  // bit flip
        if (!text.empty()) text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:  // truncation
        text.resize(pick(text.size() + 1));
        break;
      case 2: {  // splice with another listing
        const std::string other = window(seeds_[pick(seeds_.size())]);
        text = text.substr(0, pick(text.size() + 1)) + other.substr(pick(other.size() + 1));
        break;
      }
      case 3: {  // upper-case a random range
        if (text.empty()) break;
        const std::size_t from = pick(text.size());
        const std::size_t to = std::min(text.size(), from + 1 + pick(64));
        for (std::size_t i = from; i < to; ++i) {
          if (text[i] >= 'a' && text[i] <= 'z') text[i] = static_cast<char>(text[i] - 32);
        }
        break;
      }
      case 4:  // non-ASCII bytes, a NUL or a UTF-8 sequence
        text.insert(pick(text.size() + 1),
                    std::string(1, static_cast<char>(0x80 + pick(128))) +
                        (rng_.bernoulli(0.3) ? std::string("\xc3\xa9") : std::string(1, '\0')));
        break;
      default:
        mutate_lines(text);
    }
  }

  void mutate_lines(std::string& text) {
    std::vector<std::string> lines = lines_of(text);
    std::string& line = lines[pick(lines.size())];
    static const char* const kKeywords[] = {"short ", "near ",      "far ",  "dword ptr ",
                                            "DWORD PTR ", "qword ptr ", "byte ", "word ",
                                            "ptr ",   "offset ",    "Offset ", "dword  ptr\t"};
    static const char* const kSpaces[] = {" ", "\t", "\r", "\v", "\f", "  \t "};
    switch (pick(10)) {
      case 0:  // trailing or mid-line comment
        line.insert(pick(line.size() + 1), rng_.bernoulli(0.5) ? " ; note, a: b" : ";");
        break;
      case 1: {  // whitespace noise: tabs, \r and friends, blank lines
        const std::size_t at = pick(line.size() + 1);
        const char* ws = kSpaces[pick(std::size(kSpaces))];
        if (rng_.bernoulli(0.3)) {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)), ws);
        } else if (const std::size_t sp = line.find(' '); sp != std::string::npos &&
                                                          rng_.bernoulli(0.5)) {
          line.replace(sp, 1, ws);
        } else {
          line.insert(at, ws);
        }
        break;
      }
      case 2: {  // standalone label naming this line's address
        const std::string addr = line.substr(0, address_end(line));
        const char* prefix = rng_.bernoulli(0.5) ? "loc_" : (rng_.bernoulli(0.5) ? "LOC_" : "sub_");
        const std::string label = prefix + addr.substr(addr.rfind(':') + 1) + ":";
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)), label);
        break;
      }
      case 3: {  // inline label after the address, plus targets rewritten to it
        const std::size_t end = address_end(line);
        const std::string addr = line.substr(0, end);
        const std::string hex = addr.substr(addr.rfind(':') + 1);
        line.insert(end, " loc_" + hex + ":");
        std::string joined = join_lines(lines);
        const std::string target = "0x" + hex;
        for (std::size_t at = joined.find(target); at != std::string::npos;
             at = joined.find(target, at + 1)) {
          if (rng_.bernoulli(0.7)) joined.replace(at, 2, "loc_");
        }
        lines = lines_of(joined);
        break;
      }
      case 4: {  // address forms: segment prefix, 0x, h suffix, zero padding
        const std::size_t end = address_end(line);
        switch (pick(4)) {
          case 0: line.insert(0, rng_.bernoulli(0.5) ? ".text:" : "seg000:"); break;
          case 1: line.insert(0, rng_.bernoulli(0.5) ? "0x" : "0X"); break;
          case 2: line.insert(end, rng_.bernoulli(0.5) ? "h" : "H"); break;
          default: line.insert(0, "00"); break;
        }
        break;
      }
      case 5: {  // size keyword in front of an operand
        const std::size_t comma = line.find(", ");
        std::size_t at = line.find(' ', address_end(line) + 1);
        if (comma != std::string::npos && rng_.bernoulli(0.5)) at = comma + 1;
        if (at == std::string::npos) at = line.size();
        line.insert(at, std::string(" ") + kKeywords[pick(std::size(kKeywords))]);
        break;
      }
      case 6:  // empty operands
        line += rng_.bernoulli(0.5) ? "," : " , ,";
        break;
      case 7: {  // duplicated line
        const std::string copy = line;
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size() + 1)), copy);
        break;
      }
      case 8:  // two lines swapped
        std::swap(line, lines[pick(lines.size())]);
        break;
      default:  // every line shuffled
        rng_.shuffle(lines);
        break;
    }
    text = join_lines(lines);
  }

  std::vector<std::string> seeds_;
  util::Rng rng_;
};

TEST(ParserOracle, MutatedListingsMatchReference) {
  std::vector<std::string> seeds = family_mix(data::yancfg_family_specs(), 13, 2405);
  const std::vector<std::string> mskcfg = family_mix(data::mskcfg_family_specs(), 9, 2406);
  seeds.insert(seeds.end(), mskcfg.begin(), mskcfg.end());
  seeds.emplace_back(kIdaSeed);
  Mutator mutator(std::move(seeds), 2407);
  constexpr int kMutants = 4000;
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutator.next();
    bool ok = false;
    ASSERT_TRUE(same_front_end(mutant, &ok)) << "mutant " << i << ":\n" << mutant;
    parsed += ok ? 1 : 0;
  }
  // The mutants must exercise both outcomes.
  EXPECT_GT(parsed, kMutants / 4);
  EXPECT_LT(parsed, kMutants);
}

// ---- Cache-key pin ----------------------------------------------------------

// The digest of the cache keys of 64 YANCFG-mix and 64 MSKCFG-mix listings,
// recorded with the token-copying parser. A change here invalidates every
// warm verdict cache and .mgc corpus.
TEST(ListingKeys, GoldenDigestOfGeneratedMixes) {
  std::string keys;
  for (const std::string& listing : family_mix(data::yancfg_family_specs(), 64, 2403)) {
    keys += cache::acfg_content_hash(acfg::extract_acfg_from_listing(listing)).to_hex();
  }
  for (const std::string& listing : family_mix(data::mskcfg_family_specs(), 64, 2404)) {
    keys += cache::acfg_content_hash(acfg::extract_acfg_from_listing(listing)).to_hex();
  }
  ASSERT_EQ(keys.size(), 128u * 32u);
  EXPECT_EQ(cache::bytes_content_hash(keys.data(), keys.size()).to_hex(),
            "6f6b37966c6242fbac36673807ce54ec");
}

}  // namespace
}  // namespace magic::asmx
