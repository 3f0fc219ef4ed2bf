#include <gtest/gtest.h>

#include "core/rng.h"
#include "graph/gated_graph_conv.h"
#include "graph/gather.h"
#include "graph/graph.h"
#include "graph/gru_cell.h"

namespace df::graph {
namespace {

using core::Rng;
using core::Tensor;

TEST(EdgeList, UndirectedAddsBothDirections) {
  EdgeList e;
  e.add_undirected(1, 2);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e.src[0], 1);
  EXPECT_EQ(e.dst[0], 2);
  EXPECT_EQ(e.src[1], 2);
  EXPECT_EQ(e.dst[1], 1);
}

TEST(GRUCell, OutputShapeMatchesState) {
  Rng rng(1);
  GRUCell gru(8, rng);
  Tensor x = Tensor::randn({5, 8}, rng);
  Tensor h = Tensor::randn({5, 8}, rng);
  Tensor h2 = gru.forward(x, h, false);
  EXPECT_EQ(h2.shape(), h.shape());
}

TEST(GRUCell, InterpolatesBetweenStateAndCandidate) {
  // h' = (1-z) h + z c is a convex combination, so each output element lies
  // within [min(h,c)-eps, max(h,c)+eps] where c in (-1,1) from tanh.
  Rng rng(2);
  GRUCell gru(4, rng);
  Tensor x = Tensor::randn({3, 4}, rng);
  Tensor h = Tensor::randn({3, 4}, rng, 0.5f);
  Tensor h2 = gru.forward(x, h, false);
  for (int64_t i = 0; i < h2.numel(); ++i) {
    EXPECT_LE(h2[i], std::max(h[i], 1.0f) + 1e-5f);
    EXPECT_GE(h2[i], std::min(h[i], -1.0f) - 1e-5f);
  }
}

TEST(GRUCell, EvalPathBitwiseEqualsTrainingPath) {
  // Inference runs a register-resident kernel for widths up to 16 and the
  // concatenated-gate GEMMs above; the training path runs one GEMM pair per
  // gate. Every width and row count (odd counts hit the kernel's one-row
  // tail) must agree bit for bit.
  for (int64_t d : {1, 5, 12, 16, 17, 24}) {
    for (int64_t rows : {1, 2, 7, 33}) {
      Rng rng(static_cast<uint64_t>(100 + d * 64 + rows));
      GRUCell gru(d, rng);
      Tensor x = Tensor::randn({rows, d}, rng);
      Tensor h = Tensor::randn({rows, d}, rng);
      const Tensor eval = gru.forward(x, h, false);
      const Tensor train = gru.forward(x, h, true);
      gru.clear_frames();
      ASSERT_EQ(eval.shape(), train.shape());
      for (int64_t i = 0; i < eval.numel(); ++i) {
        ASSERT_EQ(eval[i], train[i]) << "d=" << d << " rows=" << rows << " element " << i;
      }
    }
  }
}

TEST(GRUCell, FrameStackDiscipline) {
  Rng rng(3);
  GRUCell gru(4, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor h = Tensor::randn({2, 4}, rng);
  EXPECT_FALSE(gru.has_frames());
  Tensor h1 = gru.forward(x, h, true);
  Tensor h2 = gru.forward(x, h1, true);
  EXPECT_TRUE(gru.has_frames());
  gru.backward(Tensor::ones({2, 4}));
  gru.backward(Tensor::ones({2, 4}));
  EXPECT_FALSE(gru.has_frames());
  EXPECT_THROW(gru.backward(Tensor::ones({2, 4})), std::runtime_error);
}

TEST(GRUCell, ParameterCount) {
  Rng rng(4);
  GRUCell gru(8, rng);
  std::vector<nn::Parameter*> p;
  gru.collect_parameters(p);
  EXPECT_EQ(p.size(), 9u);  // 3 gates x (W, U, b)
}

TEST(GatedGraphConv, IsolatedNodesKeepZeroMessages) {
  // With no edges, message is zero everywhere; states still evolve through
  // the GRU but identically for identical inputs.
  Rng rng(5);
  GatedGraphConv ggc(6, 3, rng);
  EdgeList empty;
  Tensor h0 = Tensor::randn({4, 6}, rng);
  // duplicate rows 0 and 1
  for (int64_t j = 0; j < 6; ++j) h0.at(1, j) = h0.at(0, j);
  Tensor h = ggc.forward(h0, empty, false);
  for (int64_t j = 0; j < 6; ++j) EXPECT_FLOAT_EQ(h.at(0, j), h.at(1, j));
}

TEST(GatedGraphConv, MessagePassingPropagatesInformation) {
  // A chain 0-1-2: after 2 steps, node 2's state must depend on node 0's
  // input. Verify by perturbing node 0 and observing node 2 change.
  Rng rng(6);
  GatedGraphConv ggc(6, 2, rng);
  EdgeList chain;
  chain.add_undirected(0, 1);
  chain.add_undirected(1, 2);
  Tensor h0 = Tensor::randn({3, 6}, rng);
  Tensor out1 = ggc.forward(h0, chain, false);
  h0.at(0, 0) += 1.0f;
  Tensor out2 = ggc.forward(h0, chain, false);
  float delta = 0.0f;
  for (int64_t j = 0; j < 6; ++j) delta += std::abs(out2.at(2, j) - out1.at(2, j));
  EXPECT_GT(delta, 1e-6f);
}

TEST(GatedGraphConv, OneStepLocality) {
  // With K=1, node 2 (two hops from node 0) cannot see node 0.
  Rng rng(7);
  GatedGraphConv ggc(6, 1, rng);
  EdgeList chain;
  chain.add_undirected(0, 1);
  chain.add_undirected(1, 2);
  Tensor h0 = Tensor::randn({3, 6}, rng);
  Tensor out1 = ggc.forward(h0, chain, false);
  h0.at(0, 0) += 1.0f;
  Tensor out2 = ggc.forward(h0, chain, false);
  for (int64_t j = 0; j < 6; ++j) EXPECT_FLOAT_EQ(out2.at(2, j), out1.at(2, j));
}

TEST(GatedGraphConv, ForwardRowsBitwiseEqualsFullForward) {
  // The row-restricted forward runs its last step over the requested rows
  // only; each returned row must be the full forward's row, bit for bit, in
  // the requested order, at every step count.
  for (int64_t steps : {0, 1, 3}) {
    Rng rng(static_cast<uint64_t>(40 + steps));
    GatedGraphConv ggc(12, steps, rng);
    const int32_t n = 23;
    EdgeList edges;
    for (int e = 0; e < 60; ++e) {
      const int32_t a = static_cast<int32_t>(rng.randint(0, n - 1));
      const int32_t b = static_cast<int32_t>(rng.randint(0, n - 1));
      if (a != b) edges.add_undirected(a, b);
    }
    Tensor h0 = Tensor::randn({n, 12}, rng);
    const Tensor full = ggc.forward(h0, edges, false);
    const std::vector<int32_t> rows = {0, 1, 2, 7, 22, 5, 7};
    const Tensor part = ggc.forward_rows(h0, edges, rows);
    ASSERT_EQ(part.shape(), (std::vector<int64_t>{static_cast<int64_t>(rows.size()), 12}));
    for (size_t r = 0; r < rows.size(); ++r) {
      for (int64_t j = 0; j < 12; ++j) {
        ASSERT_EQ(part.at(static_cast<int64_t>(r), j), full.at(rows[r], j))
            << "steps=" << steps << " row " << rows[r];
      }
    }
    EXPECT_THROW(ggc.forward_rows(h0, edges, {n}), std::out_of_range);
  }
}

TEST(Gather, OutputWidth) {
  Rng rng(8);
  Gather gather(6, 4, 10, rng);
  Tensor h = Tensor::randn({5, 6}, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  Tensor per_node = gather.forward_nodes(h, x, false);
  EXPECT_EQ(per_node.shape(), (std::vector<int64_t>{5, 10}));
  Tensor pooled = gather.forward_sum(h, x, 3, false);
  EXPECT_EQ(pooled.shape(), (std::vector<int64_t>{1, 10}));
}

TEST(Gather, SumOnlyCoversLigandNodes) {
  Rng rng(9);
  Gather gather(4, 2, 6, rng);
  Tensor h = Tensor::randn({4, 4}, rng);
  Tensor x = Tensor::randn({4, 2}, rng);
  Tensor per_node = gather.forward_nodes(h, x, false);
  Tensor pooled = gather.forward_sum(h, x, 2, false);
  for (int64_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(pooled.at(0, j), per_node.at(0, j) + per_node.at(1, j), 1e-5f);
  }
}

TEST(Gather, NodeCountMismatchThrows) {
  Rng rng(10);
  Gather gather(4, 2, 6, rng);
  Tensor h = Tensor::randn({4, 4}, rng);
  Tensor x = Tensor::randn({3, 2}, rng);
  EXPECT_THROW(gather.forward_nodes(h, x, false), std::invalid_argument);
}

}  // namespace
}  // namespace df::graph
