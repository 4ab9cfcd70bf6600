#pragma once
// Second pass of CFG construction (§IV-A, Algorithm 2): creates code blocks
// and connects them on the fly, consuming the tags written by the first
// pass (asmx::TaggingPass).

#include "asmx/instruction.hpp"
#include "cfg/cfg.hpp"

namespace magic::cfg {

/// Builds a ControlFlowGraph from a tagged program.
class CfgBuilder {
 public:
  /// Runs Algorithm 2 over `program`, moving each instruction into its
  /// block. The program must already be tagged (its first instruction
  /// marked `start`). Pass an rvalue to build without copying; an lvalue
  /// argument is copied first. build_from_listing() wraps parse + tag +
  /// build for convenience.
  ControlFlowGraph connect_blocks(asmx::Program program);

  /// One-shot pipeline: parse a textual listing, run the tagging pass and
  /// Algorithm 2. Diagnostics from parsing are dropped; use the staged API
  /// when they matter.
  static ControlFlowGraph build_from_listing(std::string_view listing);

 private:
  /// getBlockAtAddr of Algorithm 2: returns the block starting at addr,
  /// creating it first if needed.
  BlockId get_block_at_addr(ControlFlowGraph& g, std::uint64_t addr);
};

}  // namespace magic::cfg
