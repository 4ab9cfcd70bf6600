#include "cfg/cfg_builder.hpp"

#include <set>

#include <gtest/gtest.h>

#include "cfg/graph_algo.hpp"

namespace magic::cfg {
namespace {

ControlFlowGraph build(const std::string& listing) {
  return CfgBuilder::build_from_listing(listing);
}

TEST(CfgBuilder, StraightLineIsOneBlock) {
  ControlFlowGraph g = build(
      "401000 push ebp\n"
      "401001 mov ebp, esp\n"
      "401003 ret\n");
  EXPECT_EQ(g.num_blocks(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.block(0).instructions.size(), 3u);
}

TEST(CfgBuilder, ConditionalBranchMakesDiamondTop) {
  // if/else head: block0 -> {target, fallthrough}.
  ControlFlowGraph g = build(
      "401000 cmp eax, 0\n"
      "401003 jz 0x401008\n"
      "401005 add eax, 1\n"
      "401008 ret\n");
  ASSERT_EQ(g.num_blocks(), 3u);
  const BlockId head = g.block_at(0x401000);
  const BlockId then_block = g.block_at(0x401008);
  const BlockId fall_block = g.block_at(0x401005);
  ASSERT_NE(head, kInvalidBlock);
  ASSERT_NE(then_block, kInvalidBlock);
  ASSERT_NE(fall_block, kInvalidBlock);
  EXPECT_EQ(g.block(head).successors.size(), 2u);
  // Fall-through block flows into the join/ret block.
  ASSERT_EQ(g.block(fall_block).successors.size(), 1u);
  EXPECT_EQ(g.block(fall_block).successors[0], then_block);
}

TEST(CfgBuilder, LoopCreatesBackEdge) {
  ControlFlowGraph g = build(
      "401000 mov ecx, 10\n"
      "401005 dec ecx\n"
      "401007 jnz 0x401005\n"
      "401009 ret\n");
  const BlockId header = g.block_at(0x401005);
  ASSERT_NE(header, kInvalidBlock);
  // The loop body jumps back to itself -> self edge on the header block.
  bool has_back_edge = false;
  for (BlockId s : g.block(header).successors) has_back_edge |= (s == header);
  EXPECT_TRUE(has_back_edge);
  EXPECT_TRUE(has_cycle(g.adjacency()));
}

TEST(CfgBuilder, UnconditionalJumpSkipsDeadCode) {
  ControlFlowGraph g = build(
      "401000 jmp 0x401004\n"
      "401002 nop\n"            // dead
      "401004 ret\n");
  ASSERT_EQ(g.num_blocks(), 3u);
  const BlockId entry = g.block_at(0x401000);
  const BlockId dead = g.block_at(0x401002);
  ASSERT_NE(dead, kInvalidBlock);
  // Entry jumps only to 0x401004; the dead block is disconnected from entry.
  ASSERT_EQ(g.block(entry).successors.size(), 1u);
  EXPECT_EQ(g.block(entry).successors[0], g.block_at(0x401004));
  const auto reach = reachable_from(g.adjacency(), entry);
  EXPECT_FALSE(reach[dead]);
}

TEST(CfgBuilder, CallEdgeConnectsCallee) {
  ControlFlowGraph g = build(
      "401000 call 0x401006\n"
      "401005 ret\n"
      "401006 ret\n");
  const BlockId entry = g.block_at(0x401000);
  const BlockId callee = g.block_at(0x401006);
  ASSERT_NE(callee, kInvalidBlock);
  bool connected = false;
  for (BlockId s : g.block(entry).successors) connected |= (s == callee);
  EXPECT_TRUE(connected);
}

TEST(CfgBuilder, EveryInstructionInExactlyOneBlock) {
  // DESIGN.md invariant.
  ControlFlowGraph g = build(
      "401000 cmp eax, 0\n"
      "401003 jz 0x40100a\n"
      "401005 add eax, 1\n"
      "401008 jmp 0x40100b\n"
      "40100a nop\n"
      "40100b ret\n");
  std::size_t total = 0;
  std::set<std::uint64_t> seen;
  for (const auto& b : g.blocks()) {
    for (const auto& inst : b.instructions) {
      EXPECT_TRUE(seen.insert(inst.addr).second) << "duplicate addr " << inst.addr;
      ++total;
    }
  }
  EXPECT_EQ(total, 6u);
}

TEST(CfgBuilder, BlockBoundariesAtTaggedStarts) {
  ControlFlowGraph g = build(
      "401000 cmp eax, 0\n"
      "401003 jz 0x401008\n"
      "401005 add eax, 1\n"
      "401008 ret\n");
  for (const auto& b : g.blocks()) {
    ASSERT_FALSE(b.instructions.empty());
    EXPECT_EQ(b.instructions.front().addr, b.start_addr);
  }
}

TEST(CfgBuilder, DuplicateEdgesCollapsed) {
  // Two jumps from the same block to the same target yield one edge entry.
  ControlFlowGraph g = build(
      "401000 jz 0x401004\n"
      "401002 jz 0x401004\n"
      "401004 ret\n");
  for (const auto& b : g.blocks()) {
    std::set<BlockId> uniq(b.successors.begin(), b.successors.end());
    EXPECT_EQ(uniq.size(), b.successors.size());
  }
}

TEST(CfgBuilder, EmptyListingGivesEmptyGraph) {
  ControlFlowGraph g = build("");
  EXPECT_EQ(g.num_blocks(), 0u);
  EXPECT_EQ(g.entry(), kInvalidBlock);
}

TEST(CfgBuilder, EntryIsLowestAddress) {
  ControlFlowGraph g = build(
      "401010 ret\n"
      "401000 jmp 0x401010\n");
  EXPECT_EQ(g.block(g.entry()).start_addr, 0x401000u);
}

TEST(CfgBuilder, SwitchFanHasHighOutDegree) {
  ControlFlowGraph g = build(
      "401000 cmp eax, 0\n"
      "401003 jz 0x401014\n"
      "401005 cmp eax, 1\n"
      "401008 jz 0x401015\n"
      "40100a cmp eax, 2\n"
      "40100d jz 0x401016\n"
      "40100f ret\n"
      "401014 nop\n"
      "401015 nop\n"
      "401016 ret\n");
  // First block ends at the first jz; chains of cmp+jz follow.
  const auto stats = degree_stats(g.adjacency());
  EXPECT_GE(stats.max, 2u);
  EXPECT_GE(g.num_blocks(), 5u);
}

TEST(ControlFlowGraph, DotExportMentionsAllBlocks) {
  ControlFlowGraph g = build(
      "401000 jz 0x401004\n"
      "401002 nop\n"
      "401004 ret\n");
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (const auto& b : g.blocks()) {
    std::string node = "b";
    node += std::to_string(b.id);
    EXPECT_NE(dot.find(node), std::string::npos);
  }
}

TEST(ControlFlowGraph, AdjacencyMatchesSuccessors) {
  ControlFlowGraph g = build(
      "401000 jz 0x401004\n"
      "401002 nop\n"
      "401004 ret\n");
  const auto adj = g.adjacency();
  ASSERT_EQ(adj.size(), g.num_blocks());
  for (const auto& b : g.blocks()) {
    EXPECT_EQ(adj[b.id].size(), b.successors.size());
  }
}

}  // namespace
}  // namespace magic::cfg
