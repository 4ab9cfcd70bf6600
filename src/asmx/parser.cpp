#include "asmx/parser.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <stdexcept>
#include <unordered_map>

#include "asmx/opcode_table.hpp"
#include "obs/trace.hpp"

namespace magic::asmx {
namespace {

// The parser is one pass over string_views into the listing: it folds case
// at compare time and writes each token it keeps (mnemonic, canonical
// operand text, label key) into its std::string once. Case and whitespace
// are ASCII, which is what std::tolower and std::isspace give in the "C"
// locale the program runs in.

constexpr bool is_space(char c) noexcept { return c == ' ' || (c >= '\t' && c <= '\r'); }

constexpr char fold(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

constexpr std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// Length of the leading token of `s`: up to its first space or tab.
constexpr std::size_t token_end(std::string_view s) noexcept {
  std::size_t i = 0;
  while (i < s.size() && s[i] != ' ' && s[i] != '\t') ++i;
  return i;
}

/// Lower-case copy of `s`.
std::string lower(std::string_view s) {
  std::string out(s.size(), '\0');
  std::transform(s.begin(), s.end(), out.begin(), fold);
  return out;
}

/// True if `s` starts with the lower-case `prefix`, ignoring ASCII case.
bool starts_with_folded(std::string_view s, std::string_view prefix) noexcept {
  if (s.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (fold(s[i]) != prefix[i]) return false;
  }
  return true;
}

/// Assembler size/kind keywords that may precede an operand.
constexpr std::string_view kOperandKeywords[] = {
    "short ", "near ", "far ", "dword ", "qword ", "word ", "byte ", "ptr ", "offset "};

/// `s` and its length as one integer; distinct strings of up to seven
/// bytes get distinct keys.
constexpr std::uint64_t pack(std::string_view s) noexcept {
  std::uint64_t key = s.size();
  for (const char c : s) key = key << 8 | static_cast<unsigned char>(c);
  return key;
}

constexpr std::string_view kRegisterNames[] = {
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15",
    "eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp",
    "ax",  "bx",  "cx",  "dx",  "si",  "di",  "bp",  "sp",
    "al",  "bl",  "cl",  "dl",  "ah",  "bh",  "ch",  "dh",
    "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
};

/// pack() of every register name, sorted for binary search: nearly every
/// operand is looked up, and this beats hashing it.
constexpr auto kRegisterKeys = [] {
  std::array<std::uint64_t, std::size(kRegisterNames)> keys{};
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = pack(kRegisterNames[i]);
  std::sort(keys.begin(), keys.end());
  return keys;
}();

bool is_target_label(std::string_view s) noexcept {
  return s.starts_with("loc_") || s.starts_with("sub_") || s.starts_with("locret_");
}

/// A label operand, resolved once every label is known. Its label is the
/// operand's canonical text.
struct PendingTarget {
  std::size_t instruction_index;
  std::size_t operand_index;
  std::size_t line;
};

// Address fields of a listing are hexadecimal by convention (IDA prints
// them without any prefix), so parse them in base 16 regardless of prefix.
bool parse_hex_address(std::string_view text, std::uint64_t& out) noexcept {
  text = trim(text);
  if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
  } else if (!text.empty() && (text.back() == 'h' || text.back() == 'H')) {
    text.remove_suffix(1);
  }
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = value * 16 + static_cast<std::uint64_t>(digit);
  }
  out = value;
  return true;
}

std::string hex(std::uint64_t value) {
  char buf[16];
  return {buf, std::to_chars(buf, buf + sizeof buf, value, 16).ptr};
}

}  // namespace

bool parse_number(std::string_view text, std::uint64_t& out) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  int base = 10;
  if (text.starts_with("0x") || text.starts_with("0X")) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.back() == 'h' || text.back() == 'H') {
    base = 16;
    text.remove_suffix(1);
  }
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = value * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
  }
  out = value;
  return true;
}

bool is_register_name(std::string_view name) noexcept {
  return name.size() <= 4 &&
         std::binary_search(kRegisterKeys.begin(), kRegisterKeys.end(), pack(name));
}

Operand parse_operand(std::string_view text) {
  Operand op;
  std::string_view rest = trim(text);
  // Strip assembler size/kind keywords ("jmp short loc_X", "mov eax,
  // dword ptr [ebx]", "push offset aString"). Repeat until stable so
  // stacked keywords ("dword ptr [x]") fully peel off.
  bool stripped = true;
  while (stripped) {
    stripped = false;
    for (const std::string_view keyword : kOperandKeywords) {
      if (starts_with_folded(rest, keyword)) {
        rest = trim(rest.substr(keyword.size()));
        stripped = true;
      }
    }
  }
  // Canonical (lower-case, keyword-free) text: label resolution and tests
  // key off this form.
  op.text = lower(rest);
  std::uint64_t value = 0;
  if (op.text.empty()) {
    op.kind = OperandKind::Other;
  } else if (op.text.front() == '[' && op.text.back() == ']') {
    op.kind = OperandKind::Memory;
  } else if (is_register_name(op.text)) {
    op.kind = OperandKind::Register;
  } else if (is_target_label(op.text)) {
    op.kind = OperandKind::Target;  // value resolved later from the label map
  } else if (parse_number(op.text, value)) {
    op.kind = OperandKind::Immediate;
    op.value = value;
  } else {
    op.kind = OperandKind::Other;
  }
  return op;
}

ParseResult parse_listing(std::string_view text) {
  MAGIC_OBS_SPAN(parse, "extract.parse");
  ParseResult result;
  auto& insts = result.program.instructions;
  // At most one instruction per line, and an instruction line takes at
  // least four bytes ("0 a" and its newline).
  const auto lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  insts.reserve(std::min(lines, text.size() / 4 + 1));
  std::unordered_map<std::string, std::uint64_t> labels;
  std::vector<PendingTarget> pending;
  std::vector<std::string_view> queued_labels;  // labels awaiting the next address

  std::size_t line_no = 0;
  std::size_t cursor = 0;
  while (cursor <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', cursor), text.size());
    std::string_view line = text.substr(cursor, eol - cursor);
    cursor = eol + 1;
    ++line_no;
    if (eol == text.size() && line.empty()) break;

    // Strip comments and whitespace.
    const std::size_t semi = line.find(';');
    if (semi != std::string_view::npos) line = line.substr(0, semi);
    line = trim(line);
    if (line.empty()) continue;

    // Pure label line: "name:".
    if (line.back() == ':' && line.find(' ') == std::string_view::npos) {
      queued_labels.emplace_back(line.substr(0, line.size() - 1));
      continue;
    }

    // Address + mnemonic [+ operands]. IDA exports prefix the address with
    // a segment name (".text:00401000"); accept both forms.
    const std::size_t sp = token_end(line);
    std::string_view addr_text = line.substr(0, sp);
    const std::size_t seg_colon = addr_text.rfind(':');
    if (seg_colon != std::string_view::npos && seg_colon + 1 < addr_text.size()) {
      addr_text = addr_text.substr(seg_colon + 1);
    }
    std::uint64_t addr = 0;
    if (!parse_hex_address(addr_text, addr)) {
      throw std::runtime_error("parse_listing: line " + std::to_string(line_no) +
                               ": expected hex address, got '" +
                               std::string(addr_text) + "'");
    }
    for (const std::string_view label : queued_labels) {
      labels.insert_or_assign(lower(label), addr);
    }
    queued_labels.clear();

    std::string_view rest = trim(line.substr(sp));
    // IDA puts labels on the code line ("loc_401010:"); register and strip.
    while (!rest.empty()) {
      const std::size_t tok_end = token_end(rest);
      const std::string_view tok = rest.substr(0, tok_end);
      if (tok.size() < 2 || tok.back() != ':') break;
      labels.insert_or_assign(lower(tok.substr(0, tok.size() - 1)), addr);
      rest = trim(rest.substr(tok_end));
    }
    if (rest.empty()) {
      // A bare address or a label-only line marks a location, not code.
      continue;
    }
    Instruction& inst = insts.emplace_back();
    inst.addr = addr;
    const std::size_t msp = token_end(rest);
    inst.mnemonic = lower(rest.substr(0, msp));
    inst.opclass = classify_mnemonic(inst.mnemonic);
    if (msp < rest.size()) {
      // Operands are the comma-separated fields after the mnemonic; empty
      // fields count.
      const std::string_view fields = rest.substr(msp);
      inst.operands.reserve(
          static_cast<std::size_t>(std::count(fields.begin(), fields.end(), ',')) + 1);
      for (std::size_t start = 0;;) {
        const std::size_t comma = fields.find(',', start);
        const Operand& op =
            inst.operands.emplace_back(parse_operand(fields.substr(start, comma - start)));
        if (op.kind == OperandKind::Target) {
          pending.push_back({insts.size() - 1, inst.operands.size() - 1, line_no});
        }
        if (comma == std::string_view::npos) break;
        start = comma + 1;
      }
    }
    // Branch/call targets written as raw addresses classify as Immediate
    // above; promote them to Target for control-transfer instructions and
    // re-read them as hex (address convention) in case they lacked a 0x.
    if (is_control_transfer(inst.opclass)) {
      for (auto& op : inst.operands) {
        if (op.kind == OperandKind::Immediate) {
          op.kind = OperandKind::Target;
          std::uint64_t target = 0;
          if (parse_hex_address(op.text, target)) op.value = target;
        }
      }
    }
  }

  // Resolve label targets now that all labels are known.
  for (const auto& p : pending) {
    Operand& op = insts[p.instruction_index].operands[p.operand_index];
    const auto it = labels.find(op.text);
    if (it == labels.end()) {
      result.diagnostics.push_back({p.line, "unresolved target label '" + op.text + "'"});
      op.kind = OperandKind::Other;
    } else {
      op.value = it->second;
    }
  }

  // Sort by address (listings usually are already), keep the first of each
  // run of equal addresses, and infer sizes from address gaps.
  const auto by_addr = [](const Instruction& a, const Instruction& b) { return a.addr < b.addr; };
  if (!std::is_sorted(insts.begin(), insts.end(), by_addr)) {
    std::stable_sort(insts.begin(), insts.end(), by_addr);
  }
  std::size_t kept = 0;
  for (std::size_t i = 1; i < insts.size(); ++i) {
    if (insts[i].addr == insts[kept].addr) {
      result.diagnostics.push_back(
          {0, "duplicate address 0x" + hex(insts[i].addr) + "; keeping first"});
    } else if (++kept != i) {
      insts[kept] = std::move(insts[i]);
    }
  }
  if (!insts.empty()) insts.resize(kept + 1);
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (i + 1 < insts.size()) {
      const std::uint64_t gap = insts[i + 1].addr - insts[i].addr;
      insts[i].size = gap > 15 ? 1u : static_cast<std::uint32_t>(gap);
      // A >15-byte gap cannot be one x86 instruction; treat as a section
      // break (size 1 so the fall-through address stays inside the gap and
      // resolves to nothing).
    } else {
      insts[i].size = 1;
    }
  }
  return result;
}

}  // namespace magic::asmx
