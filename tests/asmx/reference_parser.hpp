#pragma once
// Test-only oracle: the listing parser as it was before asmx::parse_listing
// became one pass over string_views. It tokenizes with util::split and
// util::to_lower, one std::string per token. reference_parser.cpp is that
// parser verbatim, moved into this namespace, with one change: its
// duplicate-address diagnostic prints the address in hex, as the production
// parser now does. parser_oracle_test.cpp requires both parsers to return
// the same ParseResult (or throw the same error) on generated and mutated
// listings.

#include <cstdint>
#include <string_view>

#include "asmx/parser.hpp"

namespace magic::asmx::reference {

ParseResult parse_listing(std::string_view text);
Operand parse_operand(std::string_view text);
bool parse_number(std::string_view text, std::uint64_t& out) noexcept;
bool is_register_name(std::string_view name) noexcept;

}  // namespace magic::asmx::reference
