#include "graph/gather.h"

#include <cstring>
#include <stdexcept>

#include "nn/activations.h"

namespace df::graph {

Gather::Gather(int64_t in_h, int64_t in_x, int64_t width, core::Rng& rng)
    : in_h_(in_h), in_x_(in_x), width_(width), gate_(in_h + in_x, width, rng),
      value_(in_h + in_x, width, rng) {}

Tensor Gather::concat(const Tensor& h, const Tensor& x) const {
  if (h.dim(0) != x.dim(0)) throw std::invalid_argument("Gather: node count mismatch");
  const int64_t rows = h.dim(0);
  Tensor cat = Tensor::uninit({rows, in_h_ + in_x_});
  for (int64_t i = 0; i < rows; ++i) {
    float* dst = cat.data() + i * (in_h_ + in_x_);
    std::memcpy(dst, h.data() + i * in_h_, static_cast<size_t>(in_h_) * sizeof(float));
    std::memcpy(dst + in_h_, x.data() + i * in_x_, static_cast<size_t>(in_x_) * sizeof(float));
  }
  return cat;
}

Tensor Gather::forward_nodes(const Tensor& h, const Tensor& x, bool training) {
  gate_.set_training(training);
  value_.set_training(training);
  Tensor cat = concat(h, x);
  // out = sigmoid(a_g) * v; the sigmoid rides the gate GEMM's epilogue.
  Tensor g = gate_.forward_act(cat, core::EpilogueAct::kSigmoid);
  Tensor v = value_.forward(cat);
  if (training) {
    cat_ = cat;
    gate_out_ = g;
    value_out_ = v;
    n_nodes_ = h.dim(0);
  }
  Tensor out = Tensor::uninit(g.shape());
  for (int64_t i = 0; i < g.numel(); ++i) out[i] = g[i] * v[i];
  return out;
}

std::pair<Tensor, Tensor> Gather::backward_nodes(const Tensor& grad_out) {
  if (cat_.empty()) throw std::runtime_error("Gather::backward before forward");
  // out = sigmoid(a_g) * v
  Tensor dv = grad_out * gate_out_;
  Tensor dag = Tensor::uninit(grad_out.shape());
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    dag[i] = grad_out[i] * value_out_[i] * nn::dsigmoid_from_y(gate_out_[i]);
  }
  Tensor dcat = value_.backward(dv);
  dcat += gate_.backward(dag);
  // split the concat gradient with contiguous row copies
  Tensor dh = Tensor::uninit({n_nodes_, in_h_}), dx = Tensor::uninit({n_nodes_, in_x_});
  for (int64_t i = 0; i < n_nodes_; ++i) {
    const float* src = dcat.data() + i * (in_h_ + in_x_);
    std::memcpy(dh.data() + i * in_h_, src, static_cast<size_t>(in_h_) * sizeof(float));
    std::memcpy(dx.data() + i * in_x_, src + in_h_, static_cast<size_t>(in_x_) * sizeof(float));
  }
  cat_ = Tensor();
  return {std::move(dh), std::move(dx)};
}

Tensor Gather::forward_sum(const Tensor& h, const Tensor& x, int64_t n_sum, bool training) {
  Tensor per_node = forward_nodes(h, x, training);
  n_sum_ = std::min<int64_t>(n_sum, per_node.dim(0));
  Tensor out({1, width_});
  float* acc = out.data();
  for (int64_t i = 0; i < n_sum_; ++i) {
    const float* row = per_node.data() + i * width_;
    for (int64_t j = 0; j < width_; ++j) acc[j] += row[j];
  }
  return out;
}

Tensor Gather::forward_segments(const Tensor& h, const Tensor& x, const std::vector<int32_t>& rows,
                                const std::vector<int64_t>& sum_counts) {
  const int64_t n = static_cast<int64_t>(rows.size());
  int64_t counted = 0;
  for (int64_t c : sum_counts) counted += c;
  if (h.ndim() != 2 || h.dim(0) != n || h.dim(1) != in_h_ || counted != n) {
    throw std::invalid_argument("Gather::forward_segments: bad segment layout");
  }
  gate_.set_training(false);
  value_.set_training(false);
  Tensor cat = Tensor::uninit({n, in_h_ + in_x_});
  for (int64_t i = 0; i < n; ++i) {
    const int32_t node = rows[static_cast<size_t>(i)];
    if (node < 0 || node >= x.dim(0)) throw std::out_of_range("Gather::forward_segments: bad row");
    float* dst = cat.data() + i * (in_h_ + in_x_);
    std::memcpy(dst, h.data() + i * in_h_, static_cast<size_t>(in_h_) * sizeof(float));
    std::memcpy(dst + in_h_, x.data() + node * in_x_, static_cast<size_t>(in_x_) * sizeof(float));
  }
  // Same gate/value/product sequence as forward_nodes, on the kept rows.
  Tensor g = gate_.forward_act(cat, core::EpilogueAct::kSigmoid);
  Tensor v = value_.forward(cat);
  Tensor per_node = Tensor::uninit(g.shape());
  for (int64_t i = 0; i < g.numel(); ++i) per_node[i] = g[i] * v[i];
  const int64_t num_graphs = static_cast<int64_t>(sum_counts.size());
  Tensor out({num_graphs, width_});
  int64_t base = 0;
  for (int64_t gi = 0; gi < num_graphs; ++gi) {
    float* acc = out.data() + gi * width_;
    const int64_t count = sum_counts[static_cast<size_t>(gi)];
    for (int64_t i = 0; i < count; ++i) {
      const float* row = per_node.data() + (base + i) * width_;
      for (int64_t j = 0; j < width_; ++j) acc[j] += row[j];
    }
    base += count;
  }
  return out;
}

std::pair<Tensor, Tensor> Gather::backward_sum(const Tensor& grad_graph) {
  // Broadcast the graph-level gradient to the summed nodes; zero elsewhere.
  Tensor gnodes({n_nodes_, width_});
  for (int64_t i = 0; i < n_sum_; ++i) {
    std::memcpy(gnodes.data() + i * width_, grad_graph.data(),
                static_cast<size_t>(width_) * sizeof(float));
  }
  return backward_nodes(gnodes);
}

void Gather::collect_parameters(std::vector<nn::Parameter*>& out) {
  gate_.collect_parameters(out);
  value_.collect_parameters(out);
}

}  // namespace df::graph
