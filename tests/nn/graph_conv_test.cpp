#include "nn/graph_conv.hpp"

#include "nn/init.hpp"
#include "test_util.hpp"

namespace magic::testing {
namespace {

using tensor::SparseMatrix;

SparseMatrix chain_prop() {
  // 0 -> 1 -> 2 plus a back edge 2 -> 0.
  return SparseMatrix::propagation_operator({{1}, {2}, {0}});
}

/// One operator's output Y (n x out) for input z, recording on `tape`.
Tensor run(const nn::GraphConvOp& op, const SparseMatrix& p, const Tensor& z,
           nn::Tape* tape = nullptr) {
  Tensor y({z.dim(0), op.out_channels()});
  nn::InferenceWorkspace workspace;
  op.forward(p, z, workspace, y.data(), op.out_channels(), nullptr, tape);
  return y;
}

/// The stack's Z^{1:h} for input x, recording on `tape`.
Tensor run(const nn::GraphConvStack& stack, const SparseMatrix& p, const Tensor& x,
           nn::Tape* tape = nullptr) {
  nn::InferenceWorkspace workspace;
  return stack.forward(p, x, workspace, tape);
}

/// check_function_gradients over one operator on graph `p`.
void check_op_gradients(nn::GraphConvOp& op, const SparseMatrix& p, const Tensor& z,
                        util::Rng& rng, double tol = 1e-6) {
  check_function_gradients(
      [&](const Tensor& x, nn::Tape* tape) { return run(op, p, x, tape); },
      [&](const Tensor& g, nn::Tape& tape, nn::Gradients grads) {
        return op.backward(p, g, tape, grads);
      },
      op.parameters(), z, rng, tol);
}

/// check_function_gradients over a stack on graph `p`.
void check_stack_gradients(nn::GraphConvStack& stack, const SparseMatrix& p,
                           const Tensor& x, util::Rng& rng) {
  check_function_gradients(
      [&](const Tensor& in, nn::Tape* tape) { return run(stack, p, in, tape); },
      [&](const Tensor& g, nn::Tape& tape, nn::Gradients grads) {
        return stack.backward(p, g, tape, grads);
      },
      stack.parameters(), x, rng);
}

/// A stack of the paper's Eq. 1 operator (the default GraphConvStackConfig
/// operator) with the given widths and activation.
nn::GraphConvStack paper_stack(std::size_t in, std::vector<std::size_t> channels,
                               nn::Activation activation, util::Rng& rng) {
  nn::GraphConvStackConfig config;
  config.in_channels = in;
  config.channels = std::move(channels);
  config.activation = activation;
  return nn::GraphConvStack(config, rng);
}

TEST(GraphConvLayer, ForwardMatchesDenseFormula) {
  // Z' = f(D^-1 A_hat Z W) with Identity activation equals the dense chain.
  util::Rng rng(1);
  nn::PaperGraphConv layer(2, 3, nn::Activation::Identity, rng);
  SparseMatrix p = chain_prop();
  Tensor z = Tensor::from_rows({{1, 2}, {3, 4}, {5, 6}});
  Tensor expected = tensor::matmul(p.to_dense(), tensor::matmul(z, layer.weight().value));
  EXPECT_TRUE(tensor::allclose(run(layer, p, z), expected, 1e-12));
}

TEST(GraphConvLayer, ReluActivationClamps) {
  util::Rng rng(2);
  nn::PaperGraphConv layer(1, 1, nn::Activation::ReLU, rng);
  layer.weight().value = Tensor::from_rows({{-1.0}});
  SparseMatrix p = SparseMatrix::propagation_operator({{}});
  Tensor z = Tensor::from_rows({{2.0}});
  // preact = 1 * (2 * -1) = -2 -> relu -> 0.
  EXPECT_EQ(run(layer, p, z)[0], 0.0);
}

TEST(GraphConvLayer, PaperEquationOneWorkedExample) {
  // Mirrors the style of the paper's Fig. 3 walk-through: a 5-vertex graph
  // with 2 attribute channels, one conv layer with a fixed W and ReLU.
  // Graph edges: 0->1, 0->2, 1->3, 2->3, 3->4.
  std::vector<std::vector<std::size_t>> adj = {{1, 2}, {3}, {3}, {4}, {}};
  SparseMatrix p = SparseMatrix::propagation_operator(adj);
  util::Rng rng(3);
  nn::PaperGraphConv layer(2, 3, nn::Activation::ReLU, rng);
  layer.weight().value = Tensor::from_rows({{1, 0, 1}, {0, 1, 0}});  // W1 of Fig. 3
  Tensor x = Tensor::from_rows({{2, 1}, {0, 3}, {1, 1}, {4, 0}, {1, 2}});
  Tensor out = run(layer, p, x);
  // Hand-computed: F = X W = [[2,1,2],[0,3,0],[1,1,1],[4,0,4],[1,2,1]];
  // row 0 of P = 1/3 (self + v1 + v2): (2+0+1)/3 = 1, (1+3+1)/3 = 5/3, ...
  EXPECT_NEAR(out.at(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(out.at(0, 1), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(out.at(0, 2), 1.0, 1e-12);
  // row 4 (sink): deg_hat = 1 -> its own features only.
  EXPECT_NEAR(out.at(4, 0), 1.0, 1e-12);
  EXPECT_NEAR(out.at(4, 1), 2.0, 1e-12);
}

TEST(GraphConvLayer, GradientsMatchNumericTanh) {
  util::Rng rng(4);
  nn::PaperGraphConv layer(3, 2, nn::Activation::Tanh, rng);
  check_op_gradients(layer, chain_prop(), Tensor::uniform({3, 3}, rng, -1, 1), rng);
}

TEST(GraphConvLayer, RejectsChannelMismatch) {
  util::Rng rng(5);
  nn::PaperGraphConv layer(2, 2, nn::Activation::ReLU, rng);
  SparseMatrix p = chain_prop();
  EXPECT_THROW(run(layer, p, Tensor::zeros({3, 5})), std::invalid_argument);
}

TEST(GraphConvLayer, BackwardBeforeForwardThrows) {
  util::Rng rng(6);
  nn::PaperGraphConv layer(2, 2, nn::Activation::ReLU, rng);
  std::vector<Tensor> grads = nn::zero_gradients(layer.parameters());
  nn::Tape tape;
  EXPECT_THROW(layer.backward(chain_prop(), Tensor::zeros({3, 2}), tape, grads),
               std::logic_error);
}

TEST(GraphConvStack, ConcatHasAllLayerChannels) {
  util::Rng rng(7);
  nn::GraphConvStack stack = paper_stack(11, {32, 16, 8}, nn::Activation::Tanh, rng);
  EXPECT_EQ(stack.total_channels(), 56u);
  EXPECT_EQ(stack.depth(), 3u);
  SparseMatrix p = chain_prop();
  Tensor x = Tensor::uniform({3, 11}, rng, 0, 1);
  Tensor z = run(stack, p, x);
  EXPECT_EQ(z.dim(0), 3u);
  EXPECT_EQ(z.dim(1), 56u);
}

TEST(GraphConvStack, GradientsMatchNumeric) {
  util::Rng rng(8);
  nn::GraphConvStack stack = paper_stack(2, {3, 2}, nn::Activation::Tanh, rng);
  check_stack_gradients(stack, chain_prop(), Tensor::uniform({3, 2}, rng, -1, 1), rng);
}

TEST(GraphConvStack, RejectsEmptyChannels) {
  util::Rng rng(9);
  EXPECT_THROW(paper_stack(2, {}, nn::Activation::ReLU, rng), std::invalid_argument);
}

TEST(GraphConvOps, FactoryBuildsEveryOperatorWithDistinctWeightNames) {
  util::Rng rng(20);
  nn::GraphConvOpOptions opt;
  auto paper = nn::make_graph_conv_op(opt, 3, 4, nn::Activation::ReLU, rng);
  opt.kind = nn::GraphConvOperator::Sage;
  auto sage = nn::make_graph_conv_op(opt, 3, 4, nn::Activation::ReLU, rng);
  opt.kind = nn::GraphConvOperator::Tag;
  opt.tag_hops = 3;
  auto tag = nn::make_graph_conv_op(opt, 3, 4, nn::Activation::ReLU, rng);

  EXPECT_EQ(paper->kind(), nn::GraphConvOperator::Paper);
  EXPECT_EQ(sage->kind(), nn::GraphConvOperator::Sage);
  EXPECT_EQ(tag->kind(), nn::GraphConvOperator::Tag);
  // Operator-specific weight names are the checkpoint cross-load guard.
  EXPECT_EQ(paper->weight().name, "graph_conv.weight");
  EXPECT_EQ(sage->weight().name, "sage_conv.weight");
  EXPECT_EQ(tag->weight().name, "tag_conv.weight");
  // Wider operators widen the weight, not the output.
  EXPECT_EQ(paper->weight().value.dim(0), 3u);
  EXPECT_EQ(sage->weight().value.dim(0), 6u);
  EXPECT_EQ(tag->weight().value.dim(0), 12u);
  for (const auto* op : {paper.get(), sage.get(), tag.get()}) {
    EXPECT_EQ(op->out_channels(), 4u);
    EXPECT_EQ(op->weight().value.dim(1), 4u);
  }
}

TEST(GraphConvOps, OperatorNamesRoundTrip) {
  for (auto kind : {nn::GraphConvOperator::Paper, nn::GraphConvOperator::Sage,
                    nn::GraphConvOperator::Tag}) {
    EXPECT_EQ(nn::parse_graph_conv_operator(nn::graph_conv_operator_name(kind)),
              kind);
  }
  EXPECT_THROW(nn::parse_graph_conv_operator("gat"), std::runtime_error);
}

TEST(GraphConvOps, TagRejectsZeroHops) {
  util::Rng rng(21);
  EXPECT_THROW(nn::TagConv(2, 2, 0, nn::Activation::ReLU, rng),
               std::invalid_argument);
}

TEST(GraphConvOps, SageForwardMatchesDenseFormula) {
  // Y = [Z | P Z] W with Identity activation, computed densely.
  util::Rng rng(22);
  nn::SageConv layer(2, 3, nn::Activation::Identity, rng);
  SparseMatrix p = chain_prop();
  Tensor z = Tensor::from_rows({{1, 2}, {3, 4}, {5, 6}});
  Tensor pz = tensor::matmul(p.to_dense(), z);
  Tensor h = tensor::concat_cols({z, pz});
  Tensor expected = tensor::matmul(h, layer.weight().value);
  EXPECT_TRUE(tensor::allclose(run(layer, p, z), expected, 1e-12));
}

TEST(GraphConvOps, TagForwardMatchesDenseFormula) {
  // Y = [Z | P Z | P^2 Z] W with Identity activation, computed densely.
  util::Rng rng(23);
  nn::TagConv layer(2, 3, /*hops=*/2, nn::Activation::Identity, rng);
  SparseMatrix p = chain_prop();
  Tensor z = Tensor::from_rows({{1, 2}, {3, 4}, {5, 6}});
  Tensor pd = p.to_dense();
  Tensor pz = tensor::matmul(pd, z);
  Tensor ppz = tensor::matmul(pd, pz);
  Tensor h = tensor::concat_cols({z, pz, ppz});
  Tensor expected = tensor::matmul(h, layer.weight().value);
  EXPECT_TRUE(tensor::allclose(run(layer, p, z), expected, 1e-12));
}

/// Shared numeric gradcheck over any operator (mirrors the GraphConvLayer
/// Tanh gradcheck above).
void gradcheck_operator(nn::GraphConvOp& layer, std::size_t in_channels,
                        std::uint64_t seed) {
  util::Rng rng(seed);
  check_op_gradients(layer, chain_prop(), Tensor::uniform({3, in_channels}, rng, -1, 1),
                     rng);
}

TEST(GraphConvOps, SageGradientsMatchNumericTanh) {
  util::Rng rng(24);
  nn::SageConv layer(3, 2, nn::Activation::Tanh, rng);
  gradcheck_operator(layer, 3, 25);
}

TEST(GraphConvOps, TagGradientsMatchNumericTanh) {
  util::Rng rng(26);
  nn::TagConv layer(3, 2, /*hops=*/3, nn::Activation::Tanh, rng);
  gradcheck_operator(layer, 3, 27);
}

TEST(GraphConvOps, BackwardBeforeForwardThrowsForEveryOperator) {
  util::Rng rng(28);
  nn::GraphConvOpOptions opt;
  for (auto kind : {nn::GraphConvOperator::Paper, nn::GraphConvOperator::Sage,
                    nn::GraphConvOperator::Tag}) {
    opt.kind = kind;
    auto op = nn::make_graph_conv_op(opt, 2, 2, nn::Activation::ReLU, rng);
    std::vector<Tensor> grads = nn::zero_gradients(op->parameters());
    nn::Tape tape;
    EXPECT_THROW(op->backward(chain_prop(), Tensor::zeros({3, 2}), tape, grads),
                 std::logic_error);
  }
}

TEST(GraphConvStack, ConfigCtorCarriesOperator) {
  util::Rng rng(29);
  nn::GraphConvStackConfig config;
  config.in_channels = 4;
  config.channels = {8, 6};
  config.activation = nn::Activation::Tanh;
  config.op.kind = nn::GraphConvOperator::Tag;
  config.op.tag_hops = 3;
  nn::GraphConvStack stack(config, rng);
  EXPECT_EQ(stack.op_kind(), nn::GraphConvOperator::Tag);
  EXPECT_EQ(stack.op_options().tag_hops, 3u);
  EXPECT_EQ(stack.depth(), 2u);
  // Output width is the configured channel sum regardless of operator.
  EXPECT_EQ(stack.total_channels(), 14u);
  SparseMatrix p = chain_prop();
  Tensor z = run(stack, p, Tensor::uniform({3, 4}, rng, -1, 1));
  EXPECT_EQ(z.dim(1), 14u);
}

TEST(GraphConvStack, GradientsMatchNumericForSageAndTag) {
  for (auto kind : {nn::GraphConvOperator::Sage, nn::GraphConvOperator::Tag}) {
    SCOPED_TRACE(nn::graph_conv_operator_name(kind));
    util::Rng rng(31);
    nn::GraphConvStackConfig config;
    config.in_channels = 2;
    config.channels = {3, 2};
    config.activation = nn::Activation::Tanh;
    config.op.kind = kind;
    config.op.tag_hops = 2;
    nn::GraphConvStack stack(config, rng);
    check_stack_gradients(stack, chain_prop(), Tensor::uniform({3, 2}, rng, -1, 1), rng);
  }
}

TEST(GraphConvStack, InferencePathBitIdenticalToTrainingPathPerOperator) {
  // Recording on a tape must not change a bit of the output for any zoo
  // member (the taped forward is the one training runs); one workspace
  // serves every call.
  for (auto kind : {nn::GraphConvOperator::Paper, nn::GraphConvOperator::Sage,
                    nn::GraphConvOperator::Tag}) {
    util::Rng rng(32);
    nn::GraphConvStackConfig config;
    config.in_channels = 5;
    config.channels = {7, 4, 3};
    config.op.kind = kind;
    nn::GraphConvStack stack(config, rng);
    std::vector<std::vector<std::size_t>> adj = {{1, 2}, {3}, {3}, {4}, {0}};
    SparseMatrix p = SparseMatrix::propagation_operator(adj);
    Tensor x = Tensor::uniform({5, 5}, rng, -1, 1);
    nn::InferenceWorkspace workspace;
    nn::Tape tape;
    Tensor trained = stack.forward(p, x, workspace, &tape);
    (void)stack.forward(chain_prop(), Tensor::uniform({3, 5}, rng, -1, 1), workspace,
                        nullptr);  // warm the workspace on another shape
    Tensor inferred = stack.forward(p, x, workspace, nullptr);
    ASSERT_TRUE(trained.same_shape(inferred));
    for (std::size_t i = 0; i < trained.size(); ++i) {
      EXPECT_EQ(trained[i], inferred[i])
          << nn::graph_conv_operator_name(kind) << " at " << i;
    }
  }
}

// ---- Golden pin: PaperGraphConv is bitwise the pre-zoo GraphConvLayer ----
//
// Reference re-implementation of the pre-refactor stack, inline: xavier
// init in the same declaration order, then per layer GEMM(Z W) ->
// SpMM(P F) -> activation, concat at the end; backward is the textbook
// reverse with the same kernel calls. Any reordering or kernel change in
// PaperGraphConv breaks EXPECT_EQ here.

struct GoldenLayer {
  Tensor weight;
  Tensor grad;
  Tensor cached_input;
  Tensor cached_preact;
};

Tensor golden_forward(std::vector<GoldenLayer>& layers, const SparseMatrix& p,
                      const Tensor& x, nn::Activation act,
                      std::vector<Tensor>& outputs) {
  outputs.clear();
  Tensor z = x;
  for (auto& layer : layers) {
    layer.cached_input = z;
    Tensor f = tensor::matmul(z, layer.weight);
    layer.cached_preact = p.multiply(f);
    z = layer.cached_preact;
    nn::apply_activation(act, z.data(), z.size());
    outputs.push_back(z);
  }
  return tensor::concat_cols(outputs);
}

Tensor golden_backward(std::vector<GoldenLayer>& layers, const SparseMatrix& p,
                       const Tensor& grad_concat, nn::Activation act,
                       std::size_t n) {
  std::vector<Tensor> slices;
  std::size_t total = 0;
  for (const auto& layer : layers) total += layer.weight.dim(1);
  std::size_t offset = 0;
  for (const auto& layer : layers) {
    const std::size_t c = layer.weight.dim(1);
    Tensor g({n, c});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        g[i * c + j] = grad_concat[i * total + offset + j];
      }
    }
    slices.push_back(std::move(g));
    offset += c;
  }
  Tensor g = slices.back();
  for (std::size_t t = layers.size(); t-- > 0;) {
    Tensor ds = g;
    nn::apply_activation_grad(act, ds.data(), layers[t].cached_preact.data(),
                              ds.size());
    Tensor df = p.multiply_transposed(ds);
    layers[t].grad = tensor::matmul_tn(layers[t].cached_input, df);
    Tensor gin = tensor::matmul_nt(df, layers[t].weight);
    if (t > 0) {
      g = slices[t - 1];
      g += gin;
    } else {
      g = gin;
    }
  }
  return g;
}

TEST(GraphConvGolden, PaperOperatorBitIdenticalToPreRefactorStack) {
  const nn::Activation act = nn::Activation::ReLU;
  const std::size_t in = 6;
  const std::vector<std::size_t> channels = {8, 5, 4};

  // Both sides consume the same Rng stream in the same order.
  util::Rng stack_rng(97);
  nn::GraphConvStack stack = paper_stack(in, channels, act, stack_rng);
  util::Rng golden_rng(97);
  std::vector<GoldenLayer> golden;
  std::size_t prev = in;
  for (std::size_t c : channels) {
    GoldenLayer layer;
    layer.weight = nn::xavier_uniform({prev, c}, prev, c, golden_rng);
    golden.push_back(std::move(layer));
    prev = c;
  }
  for (std::size_t t = 0; t < channels.size(); ++t) {
    const Tensor& w = stack.parameters()[t]->value;
    ASSERT_TRUE(w.same_shape(golden[t].weight));
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(w[i], golden[t].weight[i]) << "init layer " << t << " at " << i;
    }
  }

  std::vector<std::vector<std::size_t>> adj = {{1, 2}, {3}, {3, 0}, {4}, {1}};
  SparseMatrix p = SparseMatrix::propagation_operator(adj);
  util::Rng data_rng(5);
  Tensor x = Tensor::uniform({5, in}, data_rng, -2, 2);

  std::vector<Tensor> outputs;
  Tensor expected = golden_forward(golden, p, x, act, outputs);
  nn::Tape tape;
  Tensor actual = run(stack, p, x, &tape);
  ASSERT_TRUE(actual.same_shape(expected));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "forward at " << i;
  }

  Tensor grad = Tensor::uniform(expected.shape(), data_rng, -1, 1);
  Tensor expected_dx = golden_backward(golden, p, grad, act, 5);
  std::vector<Tensor> grads = nn::zero_gradients(stack.parameters());
  Tensor actual_dx = stack.backward(p, grad, tape, grads);
  ASSERT_TRUE(actual_dx.same_shape(expected_dx));
  for (std::size_t i = 0; i < actual_dx.size(); ++i) {
    EXPECT_EQ(actual_dx[i], expected_dx[i]) << "dX at " << i;
  }
  for (std::size_t t = 0; t < channels.size(); ++t) {
    const Tensor& dw = grads[t];
    ASSERT_TRUE(dw.same_shape(golden[t].grad));
    for (std::size_t i = 0; i < dw.size(); ++i) {
      EXPECT_EQ(dw[i], golden[t].grad[i]) << "dW layer " << t << " at " << i;
    }
  }
}

TEST(GraphConvStack, IsolatedVerticesKeepOwnFeatures) {
  // With no edges, propagation is identity; one Identity-activation layer
  // reduces to Z W exactly.
  util::Rng rng(10);
  nn::GraphConvStack stack = paper_stack(2, {2}, nn::Activation::Identity, rng);
  SparseMatrix p = SparseMatrix::propagation_operator({{}, {}, {}});
  Tensor x = Tensor::uniform({3, 2}, rng, -1, 1);
  Tensor expected = tensor::matmul(x, stack.parameters()[0]->value);
  EXPECT_TRUE(tensor::allclose(run(stack, p, x), expected, 1e-12));
}

}  // namespace
}  // namespace magic::testing
