#include "nn/conv3d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/gemm.h"
#include "core/parallel.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace df::nn {

namespace {

// Valid output range [lo, hi) for one spatial axis and one kernel offset:
// the positions `o` with 0 <= o*stride - pad + koff < in_size. Everything
// outside maps into the zero padding.
struct AxisRange {
  int64_t lo, hi;
};

AxisRange valid_range(int64_t in_size, int64_t out_size, int64_t stride, int64_t pad,
                      int64_t koff) {
  // o*stride >= pad - koff  and  o*stride <= in_size - 1 + pad - koff
  const int64_t num = pad - koff;
  int64_t lo = num <= 0 ? 0 : (num + stride - 1) / stride;
  int64_t hi = (in_size - 1 + pad - koff) / stride + 1;
  if (in_size - 1 + pad - koff < 0) hi = 0;
  lo = std::min(lo, out_size);
  hi = std::clamp(hi, lo, out_size);
  return {lo, hi};
}

}  // namespace

// Rows touched by padding are zero-filled up front; the interior is copied
// with contiguous (stride 1) or strided row loops, no per-element bounds
// checks.
void vol2col(const float* x, int64_t cin, int64_t D, int64_t H, int64_t W, int64_t k,
             int64_t stride, int64_t pad, float* cols, int64_t ldcols) {
  const int64_t Do = Conv3d::out_size(D, k, stride, pad);
  const int64_t Ho = Conv3d::out_size(H, k, stride, pad);
  const int64_t Wo = Conv3d::out_size(W, k, stride, pad);
  for (int64_t ci = 0; ci < cin; ++ci) {
    const float* xc = x + ci * D * H * W;
    for (int64_t kz = 0; kz < k; ++kz) {
      const AxisRange rz = valid_range(D, Do, stride, pad, kz);
      for (int64_t ky = 0; ky < k; ++ky) {
        const AxisRange ry = valid_range(H, Ho, stride, pad, ky);
        for (int64_t kx = 0; kx < k; ++kx) {
          const AxisRange rx = valid_range(W, Wo, stride, pad, kx);
          float* row = cols + (((ci * k + kz) * k + ky) * k + kx) * ldcols;
          const int64_t nx = rx.hi - rx.lo;
          if (nx <= 0) {
            // Whole row maps into the padding.
            std::memset(row, 0, static_cast<size_t>(Do * Ho * Wo) * sizeof(float));
            continue;
          }
          // Zero exactly the border gaps instead of pre-clearing the whole
          // row and rewriting the interior — each element is written once.
          for (int64_t zo = 0; zo < Do; ++zo) {
            float* prow = row + zo * Ho * Wo;
            if (zo < rz.lo || zo >= rz.hi) {
              std::memset(prow, 0, static_cast<size_t>(Ho * Wo) * sizeof(float));
              continue;
            }
            const int64_t z = zo * stride - pad + kz;
            for (int64_t yo = 0; yo < Ho; ++yo) {
              float* dst0 = prow + yo * Wo;
              if (yo < ry.lo || yo >= ry.hi) {
                std::memset(dst0, 0, static_cast<size_t>(Wo) * sizeof(float));
                continue;
              }
              const int64_t y = yo * stride - pad + ky;
              if (rx.lo > 0) std::memset(dst0, 0, static_cast<size_t>(rx.lo) * sizeof(float));
              if (rx.hi < Wo)
                std::memset(dst0 + rx.hi, 0, static_cast<size_t>(Wo - rx.hi) * sizeof(float));
              const float* src = xc + (z * H + y) * W + (rx.lo * stride - pad + kx);
              float* dst = dst0 + rx.lo;
              if (stride == 1) {
                std::memcpy(dst, src, static_cast<size_t>(nx) * sizeof(float));
              } else {
                for (int64_t j = 0; j < nx; ++j) dst[j] = src[j * stride];
              }
            }
          }
        }
      }
    }
  }
}

namespace {

// Column budget of one grouped forward GEMM: output volumes of at most half
// this many columns share a GEMM with further samples (see forward_act).
constexpr int64_t kGroupColumns = 64;

// Scatter-add cols-shaped gradients back into one sample's input gradient.
// Mirrors vol2col's interior ranges; border columns map into padding and
// are dropped.
void col2vol(const float* cols, int64_t cin, int64_t D, int64_t H, int64_t W, int64_t k,
             int64_t stride, int64_t pad, int64_t Do, int64_t Ho, int64_t Wo, float* gx) {
  const int64_t N = Do * Ho * Wo;
  for (int64_t ci = 0; ci < cin; ++ci) {
    float* gc = gx + ci * D * H * W;
    for (int64_t kz = 0; kz < k; ++kz) {
      const AxisRange rz = valid_range(D, Do, stride, pad, kz);
      for (int64_t ky = 0; ky < k; ++ky) {
        const AxisRange ry = valid_range(H, Ho, stride, pad, ky);
        for (int64_t kx = 0; kx < k; ++kx) {
          const AxisRange rx = valid_range(W, Wo, stride, pad, kx);
          const float* row = cols + (((ci * k + kz) * k + ky) * k + kx) * N;
          const int64_t nx = rx.hi - rx.lo;
          if (nx <= 0) continue;
          for (int64_t zo = rz.lo; zo < rz.hi; ++zo) {
            const int64_t z = zo * stride - pad + kz;
            for (int64_t yo = ry.lo; yo < ry.hi; ++yo) {
              const int64_t y = yo * stride - pad + ky;
              float* dst = gc + (z * H + y) * W + (rx.lo * stride - pad + kx);
              const float* src = row + (zo * Ho + yo) * Wo + rx.lo;
              if (stride == 1) {
                for (int64_t j = 0; j < nx; ++j) dst[j] += src[j];
              } else {
                for (int64_t j = 0; j < nx; ++j) dst[j * stride] += src[j];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

Conv3d::Conv3d(int64_t in_channels, int64_t out_channels, int64_t kernel, core::Rng& rng,
               int64_t stride, int64_t padding)
    : cin_(in_channels), cout_(out_channels), k_(kernel), stride_(stride), pad_(padding) {
  const float fan_in = static_cast<float>(cin_ * k_ * k_ * k_);
  const float bound = 1.0f / std::sqrt(fan_in);
  w_ = Parameter(Tensor::uniform({cout_, cin_, k_, k_, k_}, rng, -bound, bound), "conv3d.w");
  b_ = Parameter(Tensor::uniform({cout_}, rng, -bound, bound), "conv3d.b");
}

Tensor Conv3d::forward(const Tensor& x) { return forward_act(x, core::EpilogueAct::kNone); }

// Rows [r0, r0 + rows) of the column matrix of the sample at xs, into dst
// (leading dimension ldd): per row, the N columns its tap's chunks describe,
// read from its channel's grid — the values and +0 padding vol2col writes,
// 16 columns at a time.
template <int kParts>
void Conv3d::fill_rows_as(const float* xs, int64_t r0, int64_t rows, float* dst,
                          int64_t ldd) const {
  const int64_t n = gather_.N;
  const int64_t chan_in = gather_.D * gather_.H * gather_.W;
  const int64_t taps = k_ * k_ * k_;
  const GatherChunk* const table = gather_.rows.data();
  const GatherChunk* const table_end = table + taps * gather_.chunks;
  const float* src = xs + (r0 / taps) * chan_in;
  const GatherChunk* c = table + (r0 % taps) * gather_.chunks;
  constexpr int kWidth = 16 / kParts;
#if defined(__AVX512F__)
  const auto lanes_below = [](int64_t v) {
    return static_cast<__mmask16>(v >= 16 ? 0xffff : v <= 0 ? 0 : (1u << v) - 1u);
  };
  const __mmask16 load_lo = lanes_below(chan_in), load_hi = lanes_below(chan_in - 16);
  const auto tail = static_cast<__mmask16>((1u << (n % 16)) - 1u);
#endif
  for (int64_t r = 0; r < rows; ++r, dst += ldd) {
    for (int64_t j = 0; j < n; j += 16, ++c) {
#if defined(__AVX512F__)
      __m512 v;
      if (c->wide >= 0) {
        const __m512i at = _mm512_loadu_si512(gather_.wide.data() + c->wide);
        v = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), c->live, at, src, 4);
      } else {
        // (The maskz form of the widening load sidesteps GCC 12's spurious
        // -Wmaybe-uninitialized on the unmasked intrinsic.)
        const __m512i rel = _mm512_maskz_cvtepu8_epi32(
            0xffff, _mm_loadu_si128(reinterpret_cast<const __m128i*>(c->rel)));
        v = _mm512_setzero_ps();
        for (int p = 0; p < kParts; ++p) {
          const auto take =
              static_cast<__mmask16>(c->live & (((1u << kWidth) - 1u) << (p * kWidth)));
          const __m512 lo = _mm512_maskz_loadu_ps(load_lo, src + c->base[p]);
          const __m512 hi = _mm512_maskz_loadu_ps(load_hi, src + c->base[p] + 16);
          v = _mm512_mask_mov_ps(v, take, _mm512_permutex2var_ps(lo, rel, hi));
        }
      }
      if (n - j >= 16) {
        _mm512_storeu_ps(dst + j, v);
      } else {
        _mm512_mask_storeu_ps(dst + j, tail, v);
      }
#else
      for (int64_t l = 0; l < std::min<int64_t>(16, n - j); ++l) {
        const int64_t at = c->wide >= 0 ? gather_.wide[static_cast<size_t>(c->wide + l)]
                                        : c->base[l / kWidth] + c->rel[l];
        dst[j + l] = (c->live >> l) & 1u ? src[at] : 0.0f;
      }
#endif
    }
    if (c == table_end) {
      c = table;
      src += chan_in;
    }
  }
}

void Conv3d::build_gather(int64_t D, int64_t H, int64_t W) {
  const int64_t chan_in = D * H * W;
  if (chan_in > std::numeric_limits<int32_t>::max()) {
    throw std::invalid_argument("Conv3d: input grid too large for the gather table");
  }
  const int64_t Do = out_size(D, k_, stride_, pad_);
  const int64_t Ho = out_size(H, k_, stride_, pad_);
  const int64_t Wo = out_size(W, k_, stride_, pad_);
  const int64_t N = Do * Ho * Wo;
  gather_.D = D;
  gather_.H = H;
  gather_.W = W;
  gather_.N = N;
  gather_.chunks = (N + 15) / 16;
  // Offset of the voxel every (tap, column) reads, -1 for the padding (and
  // for the columns past N that round the rows up to whole chunks).
  const int64_t taps = k_ * k_ * k_, row_len = gather_.chunks * 16;
  std::vector<int64_t> src(static_cast<size_t>(taps * row_len), -1);
  for (int64_t kz = 0, t = 0; kz < k_; ++kz)
    for (int64_t ky = 0; ky < k_; ++ky)
      for (int64_t kx = 0; kx < k_; ++kx, ++t)
        for (int64_t zo = 0, j = t * row_len; zo < Do; ++zo) {
          const int64_t z = zo * stride_ - pad_ + kz;
          for (int64_t yo = 0; yo < Ho; ++yo) {
            const int64_t y = yo * stride_ - pad_ + ky;
            for (int64_t xo = 0; xo < Wo; ++xo, ++j) {
              const int64_t x = xo * stride_ - pad_ + kx;
              if (z >= 0 && z < D && y >= 0 && y < H && x >= 0 && x < W)
                src[static_cast<size_t>(j)] = (z * H + y) * W + x;
            }
          }
        }
  // The start of a 32-voxel window holding the live voxels of `width`
  // lanes, or -1 when they span more. Windows near the grid's end shift back
  // inside it, so the two loads never leave the channel; grids of at most
  // 32 voxels start every window at 0 (the loads are masked to the grid).
  auto window = [&](const int64_t* s, int64_t width) -> int64_t {
    int64_t lo = chan_in, hi = -1;
    for (int64_t l = 0; l < width; ++l) {
      if (s[l] < 0) continue;
      lo = std::min(lo, s[l]);
      hi = std::max(hi, s[l]);
    }
    const int64_t base = hi < 0 || chan_in <= 32 ? 0 : std::min(lo, chan_in - 32);
    return hi - base < 32 ? base : -1;
  };
  // One part count for the whole table keeps the fill loop's trip count
  // fixed (a per-chunk count mispredicts): the fewest parts every chunk
  // fits, else 4 with a gather for the chunks that still do not.
  const int64_t n_chunks = taps * gather_.chunks;
  auto all_fit = [&](int64_t parts) {
    for (int64_t ci = 0; ci < n_chunks; ++ci)
      for (int64_t p = 0; p < parts; ++p)
        if (window(src.data() + ci * 16 + p * (16 / parts), 16 / parts) < 0) return false;
    return true;
  };
  gather_.parts = all_fit(1) ? 1 : all_fit(2) ? 2 : 4;
  const int64_t width = 16 / gather_.parts;
  gather_.rows.assign(static_cast<size_t>(n_chunks), GatherChunk{});
  gather_.wide.clear();
  for (int64_t ci = 0; ci < n_chunks; ++ci) {
    GatherChunk& c = gather_.rows[static_cast<size_t>(ci)];
    const int64_t* s = src.data() + ci * 16;
    for (int l = 0; l < 16; ++l)
      if (s[l] >= 0) c.live = static_cast<uint16_t>(c.live | (1u << l));
    bool fits = true;
    for (int64_t p = 0; p < gather_.parts; ++p) {
      const int64_t base = window(s + p * width, width);
      fits = fits && base >= 0;
      c.base[p] = static_cast<int32_t>(base);
    }
    if (fits) {
      for (int l = 0; l < 16; ++l)
        c.rel[l] = static_cast<uint8_t>(s[l] < 0 ? 0 : s[l] - c.base[l / width]);
    } else {
      c.wide = static_cast<int32_t>(gather_.wide.size());
      for (int l = 0; l < 16; ++l)
        gather_.wide.push_back(static_cast<int32_t>(std::max<int64_t>(s[l], 0)));
    }
  }
}

void Conv3d::fill_rows(const float* xs, int64_t r0, int64_t rows, float* dst,
                       int64_t ldd) const {
  switch (gather_.parts) {
    case 1: fill_rows_as<1>(xs, r0, rows, dst, ldd); break;
    case 2: fill_rows_as<2>(xs, r0, rows, dst, ldd); break;
    default: fill_rows_as<4>(xs, r0, rows, dst, ldd); break;
  }
}

Tensor Conv3d::forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope) {
  if (x.ndim() != 5 || x.dim(1) != cin_) {
    throw std::invalid_argument("Conv3d: expected (B," + std::to_string(cin_) + ",D,H,W), got " +
                                x.shape_str());
  }
  if (training_) cached_input_ = x;
  if (!training_ && observer_ != nullptr) observer_->observe(x.data(), x.numel());
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t Do = out_size(D, k_, stride_, pad_);
  const int64_t Ho = out_size(H, k_, stride_, pad_);
  const int64_t Wo = out_size(W, k_, stride_, pad_);
  Tensor out = Tensor::uninit({B, cout_, Do, Ho, Wo});

  const int64_t K = cin_ * k_ * k_ * k_;
  const int64_t N = Do * Ho * Wo;
  const float* in = x.data();
  const float* w = w_.value.data();  // (cout, K) row-major as stored
  float* o = out.data();

  // The (cout x N) sample GEMM's row index is the output channel, so the
  // conv bias is a per-row broadcast; it and the optional activation ride
  // the fused epilogue instead of a second sweep over the output volume.
  core::Epilogue ep;
  ep.act = act;
  ep.bias_row = b_.value.data();
  ep.leaky_slope = leaky_slope;

  // Implicit GEMM: each sample's product runs one kPanelK-deep panel of its
  // column matrix at a time, and the panel is gathered straight from the
  // grid into a per-thread buffer that stays cache-resident — the column
  // matrix itself is never written. The panel split, the accumulate flag
  // and the last-panel epilogue are sgemm's own, so the output is bitwise
  // vol2col + sgemm. Samples fan out over the compute pool (sgemm detects it
  // runs on a worker and stays serial inside; workers only read the table).
  if (gather_.D != D || gather_.H != H || gather_.W != W) build_gather(D, H, W);
  const int64_t chan_in = D * H * W;
  if (!training_ && quant_ != nullptr) {
    // Int8 path: quantize each sample's whole column matrix to packed s8
    // panels (the GEMM's B operand) against the prequantized u8 weight
    // image. The compensation vector depends on the quantized columns, so
    // it is produced here per call, unlike Dense's static weight-side comp.
    const QuantizedConv& q = *quant_;
    core::parallel_for_auto(static_cast<size_t>(B), 2, [&](size_t bi) {
      const int64_t b = static_cast<int64_t>(bi);
      static thread_local std::vector<float> cols;
      static thread_local std::vector<int8_t> colsq;
      static thread_local std::vector<int32_t> comp;
      cols.resize(static_cast<size_t>(K * N));
      fill_rows(in + b * cin_ * chan_in, 0, K, cols.data(), N);
      colsq.resize(static_cast<size_t>(core::packed_b_bytes_s8(K, N)));
      comp.resize(static_cast<size_t>(N));
      core::pack_quantize_b_s8(K, N, cols.data(), N, /*inv_scale_col=*/nullptr,
                               1.0f / q.act_scale, colsq.data(), comp.data());
      core::QuantEpilogue qep;
      qep.act = act;
      qep.leaky_slope = leaky_slope;
      qep.scale_row = q.scales;
      qep.bias_row = b_.value.data();
      qep.comp_col = comp.data();
      const int64_t k4 = (K + 3) & ~int64_t{3};
      core::gemm_u8s8f32(cout_, N, K, q.wu8, k4, colsq.data(), o + b * cout_ * N, N, qep);
    });
    return out;
  }

  // Small output volumes put `group` samples side by side in one GEMM
  // (sample s at column offset s*N), so the kernel fills its 16-lane
  // vectors; the product lands in a per-thread buffer and is copied out per
  // sample. Columns never interact, so grouping leaves every bit alone.
  const int64_t group = std::clamp<int64_t>(kGroupColumns / N, 1, B);
  const int64_t groups = (B + group - 1) / group;
  const bool prepacked = !training_ && pa_.panels != nullptr;
  core::parallel_for_auto(static_cast<size_t>(groups), 2, [&](size_t gi) {
    const int64_t b0 = static_cast<int64_t>(gi) * group;
    const int64_t S = std::min(group, B - b0);
    const int64_t n = S * N;
    // The panel starts on a cache line: the skinny kernel streams its rows
    // in place, and rows that straddle lines cost every load twice.
    static thread_local std::vector<float> panel_buf, grouped;
    panel_buf.resize(static_cast<size_t>(std::min(K, core::kPanelK) * n + 16));
    float* const panel = reinterpret_cast<float*>(
        (reinterpret_cast<uintptr_t>(panel_buf.data()) + 63) & ~uintptr_t{63});
    float* c = o + b0 * cout_ * N;
    if (S > 1) {
      grouped.resize(static_cast<size_t>(cout_ * n));
      c = grouped.data();
    }
    for (int64_t pc = 0; pc < K; pc += core::kPanelK) {
      const int64_t kc = std::min(core::kPanelK, K - pc);
      for (int64_t s = 0; s < S; ++s) {
        fill_rows(in + (b0 + s) * cin_ * chan_in, pc, kc, panel + s * N, n);
      }
      const core::Epilogue* pep = pc + kc >= K ? &ep : nullptr;
      if (prepacked) {
        core::sgemm_prepacked(pa_.k_panel(pc, kc), n, panel, n, c, n, pc > 0, pep);
      } else {
        core::sgemm(false, false, cout_, n, kc, w + pc, K, panel, n, c, n, pc > 0, pep);
      }
    }
    if (S > 1) {
      for (int64_t s = 0; s < S; ++s)
        for (int64_t co = 0; co < cout_; ++co)
          std::memcpy(o + ((b0 + s) * cout_ + co) * N, c + co * n + s * N,
                      static_cast<size_t>(N) * sizeof(float));
    }
  });
  return out;
}

void Conv3d::prepack() {
  const int64_t K = cin_ * k_ * k_ * k_;
  packed_own_.resize(static_cast<size_t>(core::packed_a_floats(cout_, K)));
  core::pack_a_full(false, cout_, K, w_.value.data(), K, packed_own_.data());
  pa_ = {cout_, K, packed_own_.data(), w_.value.data()};
}

void Conv3d::attach_prepacked(const float* panels) {
  const int64_t K = cin_ * k_ * k_ * k_;
  packed_own_.clear();
  pa_ = {cout_, K, panels, w_.value.data()};
}

void Conv3d::attach_quantized(QuantizedConv q) {
  auto owned = std::make_unique<QuantizedConv>(std::move(q));
  if (owned->wu8 == nullptr) owned->wu8 = owned->own_wu8.data();
  if (owned->scales == nullptr) owned->scales = owned->own_scales.data();
  quant_ = std::move(owned);
}

void Conv3d::attach_quantized_views(float act_scale, const uint8_t* wu8, const float* scales) {
  auto q = std::make_unique<QuantizedConv>();
  q->act_scale = act_scale;
  q->wu8 = wu8;
  q->scales = scales;
  quant_ = std::move(q);
}

void Conv3d::warm_plan(int64_t D, int64_t H, int64_t W) {
  if (gather_.D != D || gather_.H != H || gather_.W != W) build_gather(D, H, W);
}

Tensor Conv3d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::runtime_error("Conv3d::backward before forward");
  const Tensor& x = cached_input_;
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t Do = grad_out.dim(2), Ho = grad_out.dim(3), Wo = grad_out.dim(4);
  Tensor grad_in(x.shape());

  const int64_t K = cin_ * k_ * k_ * k_;
  const int64_t N = Do * Ho * Wo;
  const float* in = x.data();
  const float* g = grad_out.data();
  const float* w = w_.value.data();
  float* gw = w_.grad.data();
  float* gb = b_.grad.data();
  float* gi = grad_in.data();

  // Serial over samples: grad_w/grad_b accumulate across the batch, and the
  // per-sample gemms already use the pool when one is installed.
  std::vector<float> cols(static_cast<size_t>(K * N));
  std::vector<float> cols_grad(static_cast<size_t>(K * N));
  for (int64_t b = 0; b < B; ++b) {
    const float* gbatch = g + b * cout_ * N;
    for (int64_t co = 0; co < cout_; ++co) {
      const float* row = gbatch + co * N;
      float acc = 0.0f;
      for (int64_t j = 0; j < N; ++j) acc += row[j];
      gb[co] += acc;
    }
    vol2col(in + b * cin_ * D * H * W, cin_, D, H, W, k_, stride_, pad_, cols.data(), N);
    // dW (cout,K) += gOut (cout,N) x cols^T (N,K)
    core::sgemm(false, true, cout_, K, N, gbatch, N, cols.data(), N, gw, K, /*accumulate=*/true);
    // dCols (K,N) = W^T (K,cout) x gOut (cout,N), scattered back to dInput.
    core::sgemm(true, false, K, N, cout_, w, K, gbatch, N, cols_grad.data(), N);
    col2vol(cols_grad.data(), cin_, D, H, W, k_, stride_, pad_, Do, Ho, Wo,
            gi + b * cin_ * D * H * W);
  }
  return grad_in;
}

void Conv3d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

Tensor conv3d_forward_naive(const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
                            int64_t padding) {
  const int64_t B = x.dim(0), cin = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t Do = Conv3d::out_size(D, k, stride, padding);
  const int64_t Ho = Conv3d::out_size(H, k, stride, padding);
  const int64_t Wo = Conv3d::out_size(W, k, stride, padding);
  Tensor out({B, cout, Do, Ho, Wo});

  const float* in = x.data();
  float* o = out.data();
  const float* wd = w.data();
  const int64_t in_chan = D * H * W, out_chan = Do * Ho * Wo, wk = k * k * k;

  for (int64_t bb = 0; bb < B; ++bb) {
    for (int64_t co = 0; co < cout; ++co) {
      float* obase = o + (bb * cout + co) * out_chan;
      const float bias = b[co];
      for (int64_t zo = 0; zo < Do; ++zo) {
        for (int64_t yo = 0; yo < Ho; ++yo) {
          for (int64_t xo = 0; xo < Wo; ++xo) {
            float acc = bias;
            const int64_t z0 = zo * stride - padding;
            const int64_t y0 = yo * stride - padding;
            const int64_t x0 = xo * stride - padding;
            for (int64_t ci = 0; ci < cin; ++ci) {
              const float* ibase = in + (bb * cin + ci) * in_chan;
              const float* wbase = wd + (co * cin + ci) * wk;
              for (int64_t kz = 0; kz < k; ++kz) {
                const int64_t z = z0 + kz;
                if (z < 0 || z >= D) continue;
                for (int64_t ky = 0; ky < k; ++ky) {
                  const int64_t y = y0 + ky;
                  if (y < 0 || y >= H) continue;
                  const float* irow = ibase + (z * H + y) * W;
                  const float* wrow = wbase + (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t xx = x0 + kx;
                    if (xx < 0 || xx >= W) continue;
                    acc += irow[xx] * wrow[kx];
                  }
                }
              }
            }
            obase[(zo * Ho + yo) * Wo + xo] = acc;
          }
        }
      }
    }
  }
  return out;
}

Tensor conv3d_backward_naive(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                             Tensor& grad_w, Tensor& grad_b, int64_t stride, int64_t padding) {
  const int64_t B = x.dim(0), cin = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t Do = grad_out.dim(2), Ho = grad_out.dim(3), Wo = grad_out.dim(4);
  Tensor grad_in(x.shape());

  const float* in = x.data();
  const float* g = grad_out.data();
  const float* wd = w.data();
  float* gw = grad_w.data();
  float* gi = grad_in.data();
  const int64_t in_chan = D * H * W, out_chan = Do * Ho * Wo, wk = k * k * k;

  for (int64_t bb = 0; bb < B; ++bb) {
    for (int64_t co = 0; co < cout; ++co) {
      const float* gbase = g + (bb * cout + co) * out_chan;
      for (int64_t zo = 0; zo < Do; ++zo) {
        for (int64_t yo = 0; yo < Ho; ++yo) {
          for (int64_t xo = 0; xo < Wo; ++xo) {
            const float gv = gbase[(zo * Ho + yo) * Wo + xo];
            grad_b[co] += gv;
            const int64_t z0 = zo * stride - padding;
            const int64_t y0 = yo * stride - padding;
            const int64_t x0 = xo * stride - padding;
            for (int64_t ci = 0; ci < cin; ++ci) {
              const float* ibase = in + (bb * cin + ci) * in_chan;
              float* gibase = gi + (bb * cin + ci) * in_chan;
              const float* wbase = wd + (co * cin + ci) * wk;
              float* gwbase = gw + (co * cin + ci) * wk;
              for (int64_t kz = 0; kz < k; ++kz) {
                const int64_t z = z0 + kz;
                if (z < 0 || z >= D) continue;
                for (int64_t ky = 0; ky < k; ++ky) {
                  const int64_t y = y0 + ky;
                  if (y < 0 || y >= H) continue;
                  const int64_t irow = (z * H + y) * W;
                  const int64_t wrow = (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t xx = x0 + kx;
                    if (xx < 0 || xx >= W) continue;
                    gwbase[wrow + kx] += gv * ibase[irow + xx];
                    gibase[irow + xx] += gv * wbase[wrow + kx];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor MaxPool3d::forward(const Tensor& x) {
  if (x.ndim() != 5) throw std::invalid_argument("MaxPool3d: expected 5-D, got " + x.shape_str());
  const int64_t B = x.dim(0), C = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t Do = (D - k_) / stride_ + 1, Ho = (H - k_) / stride_ + 1, Wo = (W - k_) / stride_ + 1;
  // Every output element is written below. Only a training backward reads
  // the argmax indices, so eval forwards skip them.
  Tensor out = Tensor::uninit({B, C, Do, Ho, Wo});
  int64_t* argmax = nullptr;
  if (training_) {
    in_shape_ = x.shape();
    argmax_.resize(static_cast<size_t>(out.numel()));
    argmax = argmax_.data();
  } else {
    argmax_.clear();
  }

  const float* in = x.data();
  float* o = out.data();
  const int64_t in_chan = D * H * W;
  const int64_t out_chan = Do * Ho * Wo;
  // (batch, channel) planes are independent — fan out over the pool.
  core::parallel_for_auto(static_cast<size_t>(B * C), 4, [&](size_t bci) {
    const int64_t bc = static_cast<int64_t>(bci);
    const float* ibase = in + bc * in_chan;
    int64_t oi = bc * out_chan;
    for (int64_t zo = 0; zo < Do; ++zo)
      for (int64_t yo = 0; yo < Ho; ++yo)
        for (int64_t xo = 0; xo < Wo; ++xo, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t besti = 0;
          for (int64_t kz = 0; kz < k_; ++kz)
            for (int64_t ky = 0; ky < k_; ++ky)
              for (int64_t kx = 0; kx < k_; ++kx) {
                const int64_t idx = ((zo * stride_ + kz) * H + yo * stride_ + ky) * W +
                                    xo * stride_ + kx;
                if (ibase[idx] > best) {
                  best = ibase[idx];
                  besti = bc * in_chan + idx;
                }
              }
          o[oi] = best;
          if (argmax != nullptr) argmax[oi] = besti;
        }
  });
  return out;
}

Tensor MaxPool3d::backward(const Tensor& grad_out) {
  if (argmax_.empty() || static_cast<int64_t>(argmax_.size()) != grad_out.numel()) {
    throw std::runtime_error("MaxPool3d::backward without a matching training forward");
  }
  Tensor grad_in(in_shape_);
  for (int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[static_cast<size_t>(i)]] += grad_out[i];
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) { return grad_out.reshaped(in_shape_); }

}  // namespace df::nn
