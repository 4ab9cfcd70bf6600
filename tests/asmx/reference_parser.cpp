#include "asmx/reference_parser.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "asmx/opcode_table.hpp"
#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace magic::asmx::reference {
namespace {

using util::split;
using util::to_lower;
using util::trim;

const std::unordered_set<std::string_view>& register_names() {
  static const std::unordered_set<std::string_view> regs = {
      "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
      "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15",
      "eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp",
      "ax",  "bx",  "cx",  "dx",  "si",  "di",  "bp",  "sp",
      "al",  "bl",  "cl",  "dl",  "ah",  "bh",  "ch",  "dh",
      "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d",
  };
  return regs;
}

bool is_target_label(std::string_view s) noexcept {
  return util::starts_with(s, "loc_") || util::starts_with(s, "sub_") ||
         util::starts_with(s, "locret_");
}

struct PendingTarget {
  std::size_t instruction_index;
  std::size_t operand_index;
  std::string label;
  std::size_t line;
};

// Address fields of a listing are hexadecimal by convention (IDA prints
// them without any prefix), so parse them in base 16 regardless of prefix.
bool parse_hex_address(std::string_view text, std::uint64_t& out) noexcept {
  text = trim(text);
  if (util::starts_with(text, "0x") || util::starts_with(text, "0X")) {
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

}  // namespace

bool parse_number(std::string_view text, std::uint64_t& out) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  int base = 10;
  if (util::starts_with(text, "0x") || util::starts_with(text, "0X")) {
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
  return register_names().count(name) > 0;
}

Operand parse_operand(std::string_view text) {
  Operand op;
  std::string lower = to_lower(trim(text));
  // Strip assembler size/kind keywords ("jmp short loc_X", "mov eax,
  // dword ptr [ebx]", "push offset aString"). Repeat until stable so
  // stacked keywords ("dword ptr [x]") fully peel off.
  bool stripped = true;
  while (stripped) {
    stripped = false;
    for (const char* prefix :
         {"short ", "near ", "far ", "dword ", "qword ", "word ", "byte ",
          "ptr ", "offset "}) {
      if (util::starts_with(lower, prefix)) {
        lower = std::string(trim(std::string_view(lower).substr(
            std::string_view(prefix).size())));
        stripped = true;
      }
    }
  }
  // Canonical (lower-case, keyword-free) text: label resolution and tests
  // key off this form.
  op.text = lower;
  std::uint64_t value = 0;
  if (lower.empty()) {
    op.kind = OperandKind::Other;
  } else if (lower.front() == '[' && lower.back() == ']') {
    op.kind = OperandKind::Memory;
  } else if (is_register_name(lower)) {
    op.kind = OperandKind::Register;
  } else if (is_target_label(lower)) {
    op.kind = OperandKind::Target;  // value resolved later from the label map
  } else if (parse_number(lower, value)) {
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
  std::unordered_map<std::string, std::uint64_t> labels;
  std::vector<PendingTarget> pending;
  std::vector<std::string> queued_labels;  // labels awaiting the next address

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
    const std::size_t sp = line.find_first_of(" \t");
    std::string_view addr_text = sp == std::string_view::npos ? line : line.substr(0, sp);
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
    for (auto& lbl : queued_labels) labels[to_lower(lbl)] = addr;
    queued_labels.clear();

    Instruction inst;
    inst.addr = addr;
    std::string_view rest = sp == std::string_view::npos ? std::string_view{} : trim(line.substr(sp));
    // IDA puts labels on the code line ("loc_401010:"); register and strip.
    while (!rest.empty()) {
      const std::size_t tok_end = std::min(rest.find_first_of(" \t"), rest.size());
      const std::string_view tok = rest.substr(0, tok_end);
      if (tok.size() < 2 || tok.back() != ':') break;
      labels[to_lower(tok.substr(0, tok.size() - 1))] = addr;
      rest = tok_end == rest.size() ? std::string_view{} : trim(rest.substr(tok_end));
    }
    if (rest.empty()) {
      // A bare address or a label-only line marks a location, not code.
      continue;
    }
    const std::size_t msp = rest.find_first_of(" \t");
    inst.mnemonic = to_lower(msp == std::string_view::npos ? rest : rest.substr(0, msp));
    inst.opclass = classify_mnemonic(inst.mnemonic);
    if (msp != std::string_view::npos) {
      for (const auto& piece : split(rest.substr(msp), ',')) {
        Operand op = parse_operand(piece);
        if (op.kind == OperandKind::Target) {
          pending.push_back({result.program.instructions.size(),
                             inst.operands.size(), to_lower(op.text), line_no});
        }
        inst.operands.push_back(std::move(op));
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
    result.program.instructions.push_back(std::move(inst));
  }

  // Resolve label targets now that all labels are known.
  for (const auto& p : pending) {
    auto it = labels.find(p.label);
    auto& op = result.program.instructions[p.instruction_index].operands[p.operand_index];
    if (it == labels.end()) {
      result.diagnostics.push_back({p.line, "unresolved target label '" + p.label + "'"});
      op.kind = OperandKind::Other;
    } else {
      op.value = it->second;
    }
  }

  // Sort by address, flag duplicates, and infer sizes from address gaps.
  auto& insts = result.program.instructions;
  std::stable_sort(insts.begin(), insts.end(),
                   [](const Instruction& a, const Instruction& b) { return a.addr < b.addr; });
  for (std::size_t i = 0; i + 1 < insts.size();) {
    if (insts[i].addr == insts[i + 1].addr) {
      std::ostringstream addr;
      addr << std::hex << insts[i].addr;
      result.diagnostics.push_back(
          {0, "duplicate address 0x" + addr.str() + "; keeping first"});
      insts.erase(insts.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
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

}  // namespace magic::asmx::reference
