// PotentialNet gather: turns per-node states into a fixed-width vector via a
// learned soft attention gate,
//     out_v = sigmoid(i([h_v, x_v])) * j([h_v, x_v]),
// optionally summed over the ligand nodes to produce the graph embedding.
// The output width is the paper's "gather width" hyper-parameter.
#pragma once

#include "core/rng.h"
#include "graph/graph.h"
#include "nn/dense.h"

namespace df::graph {

class Gather {
 public:
  /// in_h: node-state dim; in_x: original-feature dim; width: output dim.
  Gather(int64_t in_h, int64_t in_x, int64_t width, core::Rng& rng);

  /// Per-node gather: (N, in_h) + (N, in_x) -> (N, width).
  Tensor forward_nodes(const Tensor& h, const Tensor& x, bool training);
  /// Backward of forward_nodes; returns {dL/dh, dL/dx}.
  std::pair<Tensor, Tensor> backward_nodes(const Tensor& grad_out);

  /// Graph-level gather: sum per-node output over nodes [0, n_sum).
  /// Matches PotentialNet summing over ligand atoms only.
  Tensor forward_sum(const Tensor& h, const Tensor& x, int64_t n_sum, bool training);
  std::pair<Tensor, Tensor> backward_sum(const Tensor& grad_graph);

  /// Batched graph-level gather for inference over a packed block-diagonal
  /// batch (graph::PackedGraphBatch layout). `h` (rows.size(), in_h) holds
  /// the states of the summed nodes only: row r is node rows[r] of `x`, and
  /// graph g owns the next sum_counts[g] rows. Row g of the (num_graphs,
  /// width) result is graph g's sum — bitwise identical to forward_sum per
  /// graph, since the gate/value GEMMs are row-stable and every sum runs in
  /// the same node order. Nodes outside `rows` are never gated.
  Tensor forward_segments(const Tensor& h, const Tensor& x, const std::vector<int32_t>& rows,
                          const std::vector<int64_t>& sum_counts);

  void collect_parameters(std::vector<nn::Parameter*>& out);
  int64_t width() const { return width_; }

 private:
  Tensor concat(const Tensor& h, const Tensor& x) const;

  int64_t in_h_, in_x_, width_;
  nn::Dense gate_;   // "i" network -> sigmoid
  nn::Dense value_;  // "j" network
  // caches
  Tensor cat_, gate_out_, value_out_;
  int64_t n_sum_ = 0;
  int64_t n_nodes_ = 0;
};

}  // namespace df::graph
