#include "graph/gru_cell.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/gemm.h"
#include "core/simd_math.h"
#include "nn/activations.h"

#pragma GCC diagnostic ignored "-Wpsabi"  // vector helpers: see core/simd_math.h

namespace df::graph {

namespace {
// Gate pre-activation + nonlinearity in two GEMMs: out = act(x W + h U + b).
// The second GEMM accumulates into the first and carries the bias broadcast
// and activation as a fused epilogue, so the gate never takes a separate
// elementwise pass over (N, dim).
Tensor gate(const Tensor& x, const Tensor& w, const Tensor& h, const Tensor& u, const Tensor& b,
            core::EpilogueAct act) {
  const int64_t rows = x.dim(0), dim = x.dim(1);
  Tensor out = Tensor::uninit({rows, dim});
  core::sgemm(false, false, rows, dim, dim, x.data(), dim, w.data(), dim, out.data(), dim);
  core::Epilogue ep;
  ep.act = act;
  ep.bias_col = b.data();
  core::sgemm(false, false, rows, dim, dim, h.data(), dim, u.data(), dim, out.data(), dim,
              /*accumulate=*/true, &ep);
  return out;
}

#if defined(DF_SIMD_MATH_VECTOR)
using core::simd::vf16;

// One step for hidden widths of at most 16, R rows at a time with every
// gate in registers: the (rows, dim)-wide GEMM formulation spends most of
// its time finalizing 12-wide rows, not multiplying. Per element it is the
// skinny sgemm path's arithmetic in the same order: each product is an FMA
// chain over p = 0..d-1 from zero, with the p-th input broadcast as
// `vf16{} + a[p]`; the h-side chain then adds the x-side value, the bias
// and the activation; r*h and h' are the unfused loops' expressions. So
// every value is bitwise the GEMM formulation's. `w` holds the padded
// 16-lane rows of Wz, Wr, Wc, Uz, Ur, Uc (d rows each), then bz, br, bc.
// Lanes past d carry whatever the 16-lane load of h picked up (the next row,
// or the allocation's slack) and are never stored.
template <int R>
inline void gru_narrow_rows(int64_t d, const float* x, const float* h, const float* w,
                            float* out) {
  const float* wz = w;
  const float* wr = wz + d * 16;
  const float* wc = wr + d * 16;
  const float* uz = wc + d * 16;
  const float* ur = uz + d * 16;
  const float* uc = ur + d * 16;
  const float* bias = uc + d * 16;
  vf16 az[R] = {}, ar[R] = {}, ac[R] = {}, hz[R] = {}, hr[R] = {};
  for (int64_t p = 0; p < d; ++p) {
    const vf16 bwz = core::simd::load16(wz + p * 16), bwr = core::simd::load16(wr + p * 16),
               bwc = core::simd::load16(wc + p * 16), buz = core::simd::load16(uz + p * 16),
               bur = core::simd::load16(ur + p * 16);
    for (int q = 0; q < R; ++q) {
      const vf16 xv = vf16{} + x[q * d + p];
      az[q] += xv * bwz;
      ar[q] += xv * bwr;
      ac[q] += xv * bwc;
      const vf16 hv = vf16{} + h[q * d + p];
      hz[q] += hv * buz;
      hr[q] += hv * bur;
    }
  }
  const vf16 bz = core::simd::load16(bias), br = core::simd::load16(bias + 16),
             bc = core::simd::load16(bias + 32);
  vf16 z[R], hvec[R];
  alignas(64) float rh[R][16];
  for (int q = 0; q < R; ++q) {
    vf16 tz = hz[q] + az[q];
    tz += bz;
    vf16 tr = hr[q] + ar[q];
    tr += br;
    z[q] = core::simd::vsigmoid16(tz);
    const vf16 r = core::simd::vsigmoid16(tr);
    hvec[q] = core::simd::load16(h + q * d);
    const vf16 rhq = r * hvec[q];
    std::memcpy(rh[q], &rhq, sizeof(rhq));
  }
  vf16 hc[R] = {};
  for (int64_t p = 0; p < d; ++p) {
    const vf16 buc = core::simd::load16(uc + p * 16);
    for (int q = 0; q < R; ++q) hc[q] += (vf16{} + rh[q][p]) * buc;
  }
  for (int q = 0; q < R; ++q) {
    vf16 tc = hc[q] + ac[q];
    tc += bc;
    const vf16 c = core::simd::vtanh16(tc);
    const vf16 hn = (core::simd::splat(1.0f) - z[q]) * hvec[q] + z[q] * c;
    alignas(64) float buf[16];
    std::memcpy(buf, &hn, sizeof(hn));
    std::memcpy(out + q * d, buf, static_cast<size_t>(d) * sizeof(float));
  }
}

void gru_eval_narrow(int64_t rows, int64_t d, const float* x, const float* h, const float* w,
                     float* out) {
  int64_t i = 0;
  for (; i + 2 <= rows; i += 2) gru_narrow_rows<2>(d, x + i * d, h + i * d, w, out + i * d);
  if (i < rows) gru_narrow_rows<1>(d, x + i * d, h + i * d, w, out + i * d);
}
#endif

// db[j] += colsum(g) with contiguous row pointers.
void add_colsum(const Tensor& g, Tensor& db) {
  const int64_t rows = g.dim(0), cols = g.dim(1);
  float* acc = db.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = g.data() + i * cols;
    for (int64_t j = 0; j < cols; ++j) acc[j] += row[j];
  }
}
}  // namespace

GRUCell::GRUCell(int64_t dim, core::Rng& rng) : dim_(dim) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(dim));
  auto mk = [&](const char* n) {
    return Parameter(Tensor::uniform({dim_, dim_}, rng, -bound, bound), n);
  };
  auto mkb = [&](const char* n) {
    return Parameter(Tensor::uniform({dim_}, rng, -bound, bound), n);
  };
  wz_ = mk("gru.wz"); uz_ = mk("gru.uz"); bz_ = mkb("gru.bz");
  wr_ = mk("gru.wr"); ur_ = mk("gru.ur"); br_ = mkb("gru.br");
  wc_ = mk("gru.wc"); uc_ = mk("gru.uc"); bc_ = mkb("gru.bc");
}

Tensor GRUCell::forward(const Tensor& x, const Tensor& h, bool training) {
  core::check_same_shape(x, h, "GRUCell");
  if (!training) return forward_eval(x, h);
  Tensor z = gate(x, wz_.value, h, uz_.value, bz_.value, core::EpilogueAct::kSigmoid);
  Tensor r = gate(x, wr_.value, h, ur_.value, br_.value, core::EpilogueAct::kSigmoid);
  Tensor rh = Tensor::uninit(h.shape());
  for (int64_t i = 0; i < h.numel(); ++i) rh[i] = r[i] * h[i];
  Tensor c = gate(x, wc_.value, rh, uc_.value, bc_.value, core::EpilogueAct::kTanh);
  Tensor h_new = Tensor::uninit(h.shape());
  for (int64_t i = 0; i < h.numel(); ++i) h_new[i] = (1.0f - z[i]) * h[i] + z[i] * c[i];
  frames_.push_back(Frame{x, h, std::move(z), std::move(r), std::move(c)});
  return h_new;
}

Tensor GRUCell::forward_eval(const Tensor& x, const Tensor& h) {
  // Inference: the three gates share their inputs, so fold the x-side into
  // ONE (rows, 3*dim) GEMM over column-concatenated weights [Wz|Wr|Wc] and
  // the z/r h-side into one (rows, 2*dim) accumulate with the bias+sigmoid
  // epilogue — x is read once instead of three times, h once instead of
  // twice, and z/r/c live side by side in one activation block. Column
  // concatenation does not touch any per-element accumulation order, so
  // the gate values are bitwise identical to the training-path gate().
  const int64_t rows = x.dim(0), d = dim_;
#if defined(DF_SIMD_MATH_VECTOR)
  if (d <= 16) {
    Tensor w({6 * d * 16 + 48});
    const Tensor* mats[6] = {&wz_.value, &wr_.value, &wc_.value, &uz_.value, &ur_.value, &uc_.value};
    for (int m = 0; m < 6; ++m) {
      for (int64_t p = 0; p < d; ++p) {
        std::memcpy(w.data() + (m * d + p) * 16, mats[m]->data() + p * d,
                    static_cast<size_t>(d) * sizeof(float));
      }
    }
    const Tensor* biases[3] = {&bz_.value, &br_.value, &bc_.value};
    for (int b = 0; b < 3; ++b) {
      std::memcpy(w.data() + 6 * d * 16 + b * 16, biases[b]->data(),
                  static_cast<size_t>(d) * sizeof(float));
    }
    Tensor h_new = Tensor::uninit(h.shape());
    gru_eval_narrow(rows, d, x.data(), h.data(), w.data(), h_new.data());
    return h_new;
  }
#endif
  Tensor wcat = Tensor::uninit({d, 3 * d});
  Tensor ucat = Tensor::uninit({d, 2 * d});
  Tensor bcat = Tensor::uninit({2 * d});
  for (int64_t p = 0; p < d; ++p) {
    float* wrow = wcat.data() + p * 3 * d;
    std::memcpy(wrow, wz_.value.data() + p * d, static_cast<size_t>(d) * sizeof(float));
    std::memcpy(wrow + d, wr_.value.data() + p * d, static_cast<size_t>(d) * sizeof(float));
    std::memcpy(wrow + 2 * d, wc_.value.data() + p * d, static_cast<size_t>(d) * sizeof(float));
    float* urow = ucat.data() + p * 2 * d;
    std::memcpy(urow, uz_.value.data() + p * d, static_cast<size_t>(d) * sizeof(float));
    std::memcpy(urow + d, ur_.value.data() + p * d, static_cast<size_t>(d) * sizeof(float));
  }
  std::memcpy(bcat.data(), bz_.value.data(), static_cast<size_t>(d) * sizeof(float));
  std::memcpy(bcat.data() + d, br_.value.data(), static_cast<size_t>(d) * sizeof(float));

  // a = [z|r|c] pre-activations, finalized block by block in place.
  Tensor a = Tensor::uninit({rows, 3 * d});
  core::sgemm(false, false, rows, 3 * d, d, x.data(), d, wcat.data(), 3 * d, a.data(), 3 * d);
  core::Epilogue ep_zr;
  ep_zr.act = core::EpilogueAct::kSigmoid;
  ep_zr.bias_col = bcat.data();
  core::sgemm(false, false, rows, 2 * d, d, h.data(), d, ucat.data(), 2 * d, a.data(), 3 * d,
              /*accumulate=*/true, &ep_zr);
  Tensor rh = Tensor::uninit(h.shape());
  for (int64_t i = 0; i < rows; ++i) {
    const float* arow = a.data() + i * 3 * d + d;  // r block
    const float* hrow = h.data() + i * d;
    float* out = rh.data() + i * d;
    for (int64_t j = 0; j < d; ++j) out[j] = arow[j] * hrow[j];
  }
  core::Epilogue ep_c;
  ep_c.act = core::EpilogueAct::kTanh;
  ep_c.bias_col = bc_.value.data();
  core::sgemm(false, false, rows, d, d, rh.data(), d, uc_.value.data(), d, a.data() + 2 * d,
              3 * d, /*accumulate=*/true, &ep_c);

  Tensor h_new = Tensor::uninit(h.shape());
  for (int64_t i = 0; i < rows; ++i) {
    const float* arow = a.data() + i * 3 * d;
    const float* hrow = h.data() + i * d;
    float* out = h_new.data() + i * d;
    for (int64_t j = 0; j < d; ++j) {
      out[j] = (1.0f - arow[j]) * hrow[j] + arow[j] * arow[2 * d + j];
    }
  }
  return h_new;
}

std::pair<Tensor, Tensor> GRUCell::backward(const Tensor& grad_h_new) {
  if (frames_.empty()) throw std::runtime_error("GRUCell::backward with no cached frame");
  Frame f = std::move(frames_.back());
  frames_.pop_back();

  const int64_t n = grad_h_new.numel();
  Tensor dz = Tensor::uninit(f.z.shape()), dc = Tensor::uninit(f.c.shape()),
         dh = Tensor::uninit(f.h.shape());
  for (int64_t i = 0; i < n; ++i) {
    dc[i] = grad_h_new[i] * f.z[i];
    dz[i] = grad_h_new[i] * (f.c[i] - f.h[i]);
    dh[i] = grad_h_new[i] * (1.0f - f.z[i]);
  }

  // Candidate: c = tanh(x Wc + (r*h) Uc + bc)
  Tensor dac = Tensor::uninit(dc.shape());
  for (int64_t i = 0; i < n; ++i) dac[i] = dc[i] * nn::dtanh_from_y(f.c[i]);
  Tensor rh = Tensor::uninit(f.h.shape());
  for (int64_t i = 0; i < n; ++i) rh[i] = f.r[i] * f.h[i];
  wc_.grad += f.x.matmul_tn(dac);
  uc_.grad += rh.matmul_tn(dac);
  add_colsum(dac, bc_.grad);
  Tensor dx = dac.matmul_nt(wc_.value);
  Tensor drh = dac.matmul_nt(uc_.value);
  Tensor dr = Tensor::uninit(f.r.shape());
  for (int64_t i = 0; i < n; ++i) {
    dr[i] = drh[i] * f.h[i];
    dh[i] += drh[i] * f.r[i];
  }

  // Update gate: z = sigmoid(x Wz + h Uz + bz)
  Tensor daz = Tensor::uninit(dz.shape());
  for (int64_t i = 0; i < n; ++i) daz[i] = dz[i] * nn::dsigmoid_from_y(f.z[i]);
  wz_.grad += f.x.matmul_tn(daz);
  uz_.grad += f.h.matmul_tn(daz);
  add_colsum(daz, bz_.grad);
  dx += daz.matmul_nt(wz_.value);
  dh += daz.matmul_nt(uz_.value);

  // Reset gate: r = sigmoid(x Wr + h Ur + br)
  Tensor dar = Tensor::uninit(dr.shape());
  for (int64_t i = 0; i < n; ++i) dar[i] = dr[i] * nn::dsigmoid_from_y(f.r[i]);
  wr_.grad += f.x.matmul_tn(dar);
  ur_.grad += f.h.matmul_tn(dar);
  add_colsum(dar, br_.grad);
  dx += dar.matmul_nt(wr_.value);
  dh += dar.matmul_nt(ur_.value);

  return {std::move(dx), std::move(dh)};
}

void GRUCell::collect_parameters(std::vector<Parameter*>& out) {
  for (Parameter* p : {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wc_, &uc_, &bc_}) out.push_back(p);
}

}  // namespace df::graph
