#include "cfg/cfg_builder.hpp"

#include <utility>

#include "asmx/parser.hpp"
#include "asmx/tagging.hpp"
#include "obs/trace.hpp"

namespace magic::cfg {

BlockId CfgBuilder::get_block_at_addr(ControlFlowGraph& g, std::uint64_t addr) {
  const BlockId existing = g.block_at(addr);
  if (existing != kInvalidBlock) return existing;
  return g.add_block(addr);
}

// Algorithm 2 (CfgBuilder::connectBlocks) of the paper. For each instruction
// in address order:
//   1. if it was tagged `start`, switch the current block to the block at
//      its address;
//   2. if it falls through and the next instruction starts a block, connect
//      current -> next;
//   3. if it branches, connect current -> block(branchTo) (creating the
//      target block if it does not exist yet);
//   4. append it to the current block and advance.
// The program is this call's own, so step 4 moves each instruction instead
// of copying it.
ControlFlowGraph CfgBuilder::connect_blocks(asmx::Program program) {
  ControlFlowGraph g;
  auto& insts = program.instructions;
  BlockId curr_block = kInvalidBlock;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    asmx::Instruction& inst = insts[i];
    if (inst.start || curr_block == kInvalidBlock) {
      curr_block = get_block_at_addr(g, inst.addr);
    }
    BlockId next_block = curr_block;

    const asmx::Instruction* next_inst = i + 1 < insts.size() ? &insts[i + 1] : nullptr;
    if (next_inst != nullptr && inst.fall_through && next_inst->start) {
      next_block = get_block_at_addr(g, next_inst->addr);
      g.block(curr_block).add_successor(next_block);
    }

    if (inst.branch_to.has_value()) {
      const BlockId target = get_block_at_addr(g, *inst.branch_to);
      g.block(curr_block).add_successor(target);
    }

    g.block(curr_block).instructions.push_back(std::move(inst));
    curr_block = next_block;
  }
  return g;
}

ControlFlowGraph CfgBuilder::build_from_listing(std::string_view listing) {
  asmx::ParseResult parsed = asmx::parse_listing(listing);
  // Tagging (Alg. 1) and block connection (Alg. 2) share the cfg-build
  // span; parse has its own inside parse_listing.
  MAGIC_OBS_SPAN(cfg, "extract.cfg_build");
  asmx::TaggingPass tagger;
  tagger.run(parsed.program);
  CfgBuilder builder;
  return builder.connect_blocks(std::move(parsed.program));
}

}  // namespace magic::cfg
