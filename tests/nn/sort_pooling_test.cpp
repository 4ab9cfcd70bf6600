#include "nn/sort_pooling.hpp"

#include <algorithm>

#include "test_util.hpp"

namespace magic::testing {
namespace {

/// SortPooling of one (n x C) graph, as (k x C).
Tensor pool_one(const nn::SortPooling& pool, const Tensor& z, nn::Tape* tape = nullptr) {
  return pool.forward(z, {0, z.dim(0)}, tape).reshape({pool.k(), z.dim(1)});
}

/// check_function_gradients over one graph's SortPooling.
void check_pool_gradients(const nn::SortPooling& pool, const Tensor& z, util::Rng& rng) {
  check_function_gradients(
      [&](const Tensor& x, nn::Tape* tape) { return pool_one(pool, x, tape); },
      [&](const Tensor& g, nn::Tape& tape, nn::Gradients) {
        return pool.backward(g.reshape({1, pool.k(), z.dim(1)}), tape);
      },
      {}, z, rng);
}

TEST(SortPooling, SortsByLastChannelDescending) {
  nn::SortPooling pool(3);
  Tensor z = Tensor::from_rows({{1, 0.2}, {2, 0.9}, {3, 0.5}});
  Tensor out = pool_one(pool, z);
  EXPECT_EQ(out.at(0, 1), 0.9);
  EXPECT_EQ(out.at(1, 1), 0.5);
  EXPECT_EQ(out.at(2, 1), 0.2);
  // First channel follows its row.
  EXPECT_EQ(out.at(0, 0), 2.0);
}

TEST(SortPooling, TiesBrokenByEarlierChannels) {
  // Paper §III-A3: "If there are ties on the last layer's output, sorting
  // continues by using the second last layer's output".
  nn::SortPooling pool(3);
  Tensor z = Tensor::from_rows({{1, 5}, {9, 5}, {4, 5}});
  Tensor out = pool_one(pool, z);
  EXPECT_EQ(out.at(0, 0), 9.0);
  EXPECT_EQ(out.at(1, 0), 4.0);
  EXPECT_EQ(out.at(2, 0), 1.0);
}

TEST(SortPooling, TruncatesLargeGraphs) {
  // Fig. 4: k = 3 on a 5-vertex graph discards the two smallest rows.
  nn::SortPooling pool(3);
  Tensor z = Tensor::from_rows({{0, 1}, {0, 5}, {0, 3}, {0, 2}, {0, 4}});
  Tensor out = pool_one(pool, z);
  EXPECT_EQ(out.dim(0), 3u);
  EXPECT_EQ(out.at(0, 1), 5.0);
  EXPECT_EQ(out.at(1, 1), 4.0);
  EXPECT_EQ(out.at(2, 1), 3.0);
}

TEST(SortPooling, PadsSmallGraphsWithZeros) {
  nn::SortPooling pool(4);
  Tensor z = Tensor::from_rows({{1, 2}, {3, 4}});
  Tensor out = pool_one(pool, z);
  EXPECT_EQ(out.dim(0), 4u);
  EXPECT_EQ(out.at(2, 0), 0.0);
  EXPECT_EQ(out.at(3, 1), 0.0);
}

TEST(SortPooling, PermutationInvariance) {
  // Row order of the input must not affect the pooled output (DESIGN.md
  // invariant; this is what makes the representation graph-isomorphic
  // under vertex reordering).
  nn::SortPooling pool(3);
  util::Rng rng(1);
  Tensor z = Tensor::uniform({6, 4}, rng, -1, 1);
  Tensor out1 = pool_one(pool, z);

  std::vector<std::size_t> perm = {3, 0, 5, 1, 4, 2};
  Tensor shuffled({6, 4});
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) shuffled.at(i, j) = z.at(perm[i], j);
  }
  Tensor out2 = pool_one(pool, shuffled);
  EXPECT_TRUE(tensor::allclose(out1, out2, 0.0));
}

TEST(SortPooling, BackwardRoutesToKeptRows) {
  nn::SortPooling pool(2);
  Tensor z = Tensor::from_rows({{0, 1}, {0, 9}, {0, 5}});
  nn::Tape tape;
  pool_one(pool, z, &tape);
  Tensor g = Tensor::from_rows({{1, 2}, {3, 4}});
  Tensor gin = pool.backward(g.reshape({1, 2, 2}), tape);
  // Row 1 (value 9) got the first output row; row 2 (value 5) the second.
  EXPECT_EQ(gin.at(1, 0), 1.0);
  EXPECT_EQ(gin.at(1, 1), 2.0);
  EXPECT_EQ(gin.at(2, 0), 3.0);
  EXPECT_EQ(gin.at(0, 0), 0.0);  // truncated row receives nothing
}

TEST(SortPooling, GradientsMatchNumeric) {
  util::Rng rng(2);
  nn::SortPooling pool(3);
  check_pool_gradients(pool, Tensor::uniform({5, 3}, rng, -1, 1), rng);
}

TEST(SortPooling, GradientsMatchNumericWithPadding) {
  util::Rng rng(3);
  nn::SortPooling pool(6);
  check_pool_gradients(pool, Tensor::uniform({3, 2}, rng, -1, 1), rng);
}

TEST(SortPooling, RejectsZeroK) {
  EXPECT_THROW(nn::SortPooling(0), std::invalid_argument);
}

TEST(SortPooling, OrderExposesChosenPermutation) {
  // The tape records, per graph, the source row of every kept output row.
  nn::SortPooling pool(2);
  Tensor z = Tensor::from_rows({{0, 1}, {0, 3}, {0, 2}});
  nn::Tape tape;
  pool_one(pool, z, &tape);
  const std::vector<std::size_t> order = tape.pop_indices();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
}

TEST(SortPooling, PackedSegmentsPoolIndependently) {
  // Two graphs packed into one matrix pool exactly as each does alone,
  // and the backward of the pack routes each graph's gradient to its rows.
  nn::SortPooling pool(3);
  util::Rng rng(4);
  const Tensor a = Tensor::uniform({5, 2}, rng, -1, 1);
  const Tensor b = Tensor::uniform({2, 2}, rng, -1, 1);
  const Tensor packed = tensor::concat_rows({a, b});
  nn::Tape tape;
  const Tensor out = pool.forward(packed, {0, 5, 7}, &tape);
  ASSERT_EQ(out.shape(), (tensor::Shape{2, 3, 2}));
  const Tensor alone_a = pool_one(pool, a), alone_b = pool_one(pool, b);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i], alone_a[i]);
    EXPECT_EQ(out[6 + i], alone_b[i]);
  }
  const Tensor gin = pool.backward(Tensor::ones({2, 3, 2}), tape);
  ASSERT_EQ(gin.shape(), (tensor::Shape{7, 2}));
  double routed = 0.0;
  for (std::size_t i = 0; i < gin.size(); ++i) routed += gin[i];
  EXPECT_EQ(routed, 2.0 * (3 + 2));  // three kept rows of a, both rows of b
}

}  // namespace
}  // namespace magic::testing
