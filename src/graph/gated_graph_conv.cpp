#include "graph/gated_graph_conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/simd_math.h"

#pragma GCC diagnostic ignored "-Wpsabi"  // vector helpers: see core/simd_math.h

namespace df::graph {

namespace {

// to[to_idx[e]] += from[from_idx[e]] per edge, rows of width `dim`. The
// vector path runs whole 16-lane chunks and BLENDS the tail lanes through
// unchanged (never adds 0.0f, which would flip a -0.0f), so it is bitwise
// identical to the scalar loop; the one-lane-past-the-row traffic lands in
// the 16-float slack every Tensor/Workspace allocation reserves.
void scatter_add_rows(const std::vector<int32_t>& from_idx, const std::vector<int32_t>& to_idx,
                      const float* from, float* to, int64_t dim) {
#if defined(DF_SIMD_MATH_VECTOR)
  using core::simd::vf16;
  using core::simd::vi16;
  for (int64_t c0 = 0; c0 < dim; c0 += 16) {
    const int32_t valid = static_cast<int32_t>(std::min<int64_t>(16, dim - c0));
    const vi16 mask = core::simd::iota16i() < (vi16{} + valid);
    for (size_t e = 0; e < from_idx.size(); ++e) {
      const float* src = from + from_idx[e] * dim + c0;
      float* dst = to + to_idx[e] * dim + c0;
      vf16 s, d;
      std::memcpy(&s, src, sizeof(s));
      std::memcpy(&d, dst, sizeof(d));
      const vf16 sum = d + s;
      d = mask ? sum : d;
      std::memcpy(dst, &d, sizeof(d));
    }
  }
#else
  for (size_t e = 0; e < from_idx.size(); ++e) {
    const float* src = from + from_idx[e] * dim;
    float* dst = to + to_idx[e] * dim;
    for (int64_t j = 0; j < dim; ++j) dst[j] += src[j];
  }
#endif
}

}  // namespace

GatedGraphConv::GatedGraphConv(int64_t dim, int64_t num_steps, core::Rng& rng)
    : dim_(dim), steps_(num_steps),
      w_msg_(Tensor::uniform({dim, dim}, rng, -1.0f / std::sqrt(static_cast<float>(dim)),
                             1.0f / std::sqrt(static_cast<float>(dim))),
             "ggc.w_msg"),
      gru_(dim, rng) {}

Tensor GatedGraphConv::message(const Tensor& h, const std::vector<int32_t>* rows) const {
  // Aggregate neighbour states, then apply the edge-type transform. Doing
  // the (N,dim)x(dim,dim) matmul once after aggregation instead of per-edge
  // keeps the step O(E*dim + N*dim^2). Sources are read through the
  // per-destination CSR so each destination row accumulates in registers
  // and is stored once — same per-destination edge order as the flat list,
  // so the sums are bitwise identical to the scatter formulation.
  const int64_t out_rows = rows != nullptr ? static_cast<int64_t>(rows->size()) : h.dim(0);
  auto dest = [&](int64_t r) -> size_t {
    return static_cast<size_t>(rows != nullptr ? (*rows)[static_cast<size_t>(r)] : r);
  };
  Tensor agg({out_rows, dim_});
#if defined(DF_SIMD_MATH_VECTOR)
  if (dim_ <= 16) {
    using core::simd::vf16;
    using core::simd::vi16;
    const vi16 mask = core::simd::iota16i() < (vi16{} + static_cast<int32_t>(dim_));
    for (int64_t r = 0; r < out_rows; ++r) {
      const int32_t e0 = csr_start_[dest(r)];
      const int32_t e1 = csr_start_[dest(r) + 1];
      if (e0 == e1) continue;
      vf16 acc = {};
      for (int32_t e = e0; e < e1; ++e) {
        vf16 s;
        std::memcpy(&s, h.data() + csr_src_[static_cast<size_t>(e)] * dim_, sizeof(s));
        acc += s;
      }
      float* dst = agg.data() + r * dim_;
      vf16 d;
      std::memcpy(&d, dst, sizeof(d));
      d = mask ? acc : d;
      std::memcpy(dst, &d, sizeof(d));
    }
    return agg.matmul(w_msg_.value);
  }
#endif
  for (int64_t r = 0; r < out_rows; ++r) {
    const int32_t e0 = csr_start_[dest(r)];
    const int32_t e1 = csr_start_[dest(r) + 1];
    float* dst = agg.data() + r * dim_;
    for (int32_t e = e0; e < e1; ++e) {
      const float* src = h.data() + csr_src_[static_cast<size_t>(e)] * dim_;
      for (int64_t j = 0; j < dim_; ++j) dst[j] += src[j];
    }
  }
  return agg.matmul(w_msg_.value);
}

void GatedGraphConv::build_csr(const EdgeList& edges, int64_t num_nodes) {
  csr_start_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (size_t e = 0; e < edges.size(); ++e) ++csr_start_[static_cast<size_t>(edges.dst[e]) + 1];
  for (int64_t v = 0; v < num_nodes; ++v)
    csr_start_[static_cast<size_t>(v) + 1] += csr_start_[static_cast<size_t>(v)];
  csr_src_.resize(edges.size());
  static thread_local std::vector<int32_t> cursor;
  cursor.assign(csr_start_.begin(), csr_start_.end() - 1);
  for (size_t e = 0; e < edges.size(); ++e) {
    csr_src_[static_cast<size_t>(cursor[static_cast<size_t>(edges.dst[e])]++)] = edges.src[e];
  }
}

Tensor GatedGraphConv::forward(const Tensor& h0, const EdgeList& edges, bool training) {
  if (h0.ndim() != 2 || h0.dim(1) != dim_) {
    throw std::invalid_argument("GatedGraphConv: bad state shape " + h0.shape_str());
  }
  if (training) {
    h_states_.clear();
    edges_ = &edges;
    gru_.clear_frames();
  }
  build_csr(edges, h0.dim(0));
  Tensor h = h0;
  for (int64_t k = 0; k < steps_; ++k) {
    if (training) h_states_.push_back(h);
    Tensor m = message(h);
    h = gru_.forward(m, h, training);
  }
  return h;
}

Tensor GatedGraphConv::forward_rows(const Tensor& h0, const EdgeList& edges,
                                    const std::vector<int32_t>& rows) {
  if (h0.ndim() != 2 || h0.dim(1) != dim_) {
    throw std::invalid_argument("GatedGraphConv: bad state shape " + h0.shape_str());
  }
  for (int32_t r : rows) {
    if (r < 0 || r >= h0.dim(0)) throw std::out_of_range("GatedGraphConv::forward_rows: bad row");
  }
  build_csr(edges, h0.dim(0));
  Tensor h = h0;
  for (int64_t k = 0; k + 1 < steps_; ++k) h = gru_.forward(message(h), h, false);
  Tensor h_rows = Tensor::uninit({static_cast<int64_t>(rows.size()), dim_});
  for (size_t r = 0; r < rows.size(); ++r) {
    std::memcpy(h_rows.data() + static_cast<int64_t>(r) * dim_, h.data() + rows[r] * dim_,
                static_cast<size_t>(dim_) * sizeof(float));
  }
  if (steps_ == 0) return h_rows;
  return gru_.forward(message(h, &rows), h_rows, false);
}

Tensor GatedGraphConv::backward(const Tensor& grad_h_final) {
  if (!edges_) throw std::runtime_error("GatedGraphConv::backward before forward");
  Tensor gh = grad_h_final;
  for (int64_t k = steps_ - 1; k >= 0; --k) {
    auto [gm, gh_prev] = gru_.backward(gh);
    // message backward: m = (scatter-sum h) W; dW += agg^T gm, d(agg) = gm W^T,
    // then un-scatter: dh_src += d(agg)_dst for every edge.
    const Tensor& h = h_states_[static_cast<size_t>(k)];
    // agg rebuilt via the same CSR the forward used (edges unchanged).
    Tensor agg({h.dim(0), dim_});
    scatter_add_rows(edges_->src, edges_->dst, h.data(), agg.data(), dim_);
    w_msg_.grad += agg.matmul_tn(gm);
    Tensor dagg = gm.matmul_nt(w_msg_.value);
    scatter_add_rows(edges_->dst, edges_->src, dagg.data(), gh_prev.data(), dim_);
    gh = std::move(gh_prev);
  }
  edges_ = nullptr;
  return gh;
}

void GatedGraphConv::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&w_msg_);
  gru_.collect_parameters(out);
}

}  // namespace df::graph
