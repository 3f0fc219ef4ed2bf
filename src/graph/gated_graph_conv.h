// Gated graph convolution: K steps of message passing with a GRU node
// update, over one edge type. The SG-CNN runs one instance over covalent
// edges and another over non-covalent edges, with per-stage K and hidden
// widths chosen by the hyper-parameter search (paper Table 1/2).
#pragma once

#include <vector>

#include "core/rng.h"
#include "graph/graph.h"
#include "graph/gru_cell.h"
#include "nn/module.h"

namespace df::graph {

class GatedGraphConv {
 public:
  GatedGraphConv(int64_t dim, int64_t num_steps, core::Rng& rng);

  /// Propagate node states (N, dim) over `edges` for K steps.
  Tensor forward(const Tensor& h0, const EdgeList& edges, bool training);
  /// Inference forward that keeps only the final states of node ids `rows`
  /// (in that order): (rows.size(), dim). The first K-1 steps run over every
  /// node, the last one over `rows` alone. Aggregation, the message GEMM
  /// and the GRU are all row-wise, so each returned row is bitwise the
  /// matching row of forward(h0, edges, false).
  Tensor forward_rows(const Tensor& h0, const EdgeList& edges, const std::vector<int32_t>& rows);
  /// Backward for the most recent forward; returns dL/dh0.
  Tensor backward(const Tensor& grad_h_final);

  void collect_parameters(std::vector<nn::Parameter*>& out);
  int64_t dim() const { return dim_; }
  int64_t num_steps() const { return steps_; }

 private:
  /// m_v = sum_{(u,v) in E} h_u W_msg  (aggregate-then-transform), reading
  /// sources through csr_ so each destination row is accumulated in
  /// registers and stored once. With `rows`, only the destinations
  /// rows[0..] are produced, in that order.
  Tensor message(const Tensor& h, const std::vector<int32_t>* rows = nullptr) const;
  /// Group edge sources by destination (stable within a destination).
  void build_csr(const EdgeList& edges, int64_t num_nodes);

  int64_t dim_, steps_;
  nn::Parameter w_msg_;  // (dim, dim)
  GRUCell gru_;
  // Edge sources grouped by destination (CSR; edge order preserved within a
  // destination, so accumulation order matches the flat edge list). Built
  // once per forward() and reused by every propagation step — replica
  // state, like the layer caches.
  std::vector<int32_t> csr_start_;  // size num_nodes+1
  std::vector<int32_t> csr_src_;
  // Caches for backward (training only).
  std::vector<Tensor> h_states_;  // h_0 .. h_{K-1} (inputs to each step)
  const EdgeList* edges_ = nullptr;
};

}  // namespace df::graph
