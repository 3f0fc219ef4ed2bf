// 16-lane vectorized transcendentals for the inference hot path.
//
// Profiling the serving batch showed the SG-CNN forward is not GEMM-bound
// but *exp-bound*: every GRU step evaluates sigmoid/tanh over the whole
// packed node matrix (~80k libm calls per step), and the voxelizer's
// Gaussian splats are another ~300k exps per batch. This header provides a
// polynomial expf (Cephes-style range reduction, the same scheme PyTorch's
// CPU fallback and avx_mathfun use, ~2 ulp) over the GNU vector extension,
// plus the sigmoid/tanh/SELU forms built on it.
//
// Numerics contract: vexp16 is elementwise-pure — a lane's result depends
// only on that lane's input — so any two code paths that use these helpers
// agree bitwise regardless of how they chunk the data. All model-side
// activation sites (GEMM epilogues, the standalone activation layers, the
// voxel splatter) must use THESE helpers, never raw std::exp, or training-
// vs-eval and fused-vs-unfused comparisons drift by an ulp. Non-GNU builds
// fall back to a scalar evaluation of the same polynomial.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace df::core::simd {

#if defined(__GNUC__) || defined(__clang__)
#define DF_SIMD_MATH_VECTOR 1
// Without -mavx512f, GCC's -Wpsabi warns that passing or returning a 64-byte
// vector by value changes the ABI. These helpers are inline and every
// translation unit is built with the same flags, so no call crosses that
// ABI boundary: the warning is silenced here and in the files that call
// them, not globally.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
typedef float vf16 __attribute__((vector_size(64), aligned(4)));
typedef int32_t vi16 __attribute__((vector_size(64), aligned(4)));

inline vf16 splat(float v) { return vf16{} + v; }

inline vf16 iota16() {
  return vf16{0.0f, 1.0f, 2.0f,  3.0f,  4.0f,  5.0f,  6.0f,  7.0f,
              8.0f, 9.0f, 10.0f, 11.0f, 12.0f, 13.0f, 14.0f, 15.0f};
}

inline vi16 iota16i() { return vi16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}; }

/// 16 consecutive values from `p` (any alignment).
inline vf16 load16(const float* p) {
  vf16 r;
  std::memcpy(&r, p, sizeof(r));
  return r;
}

inline vi16 load16(const int32_t* p) {
  vi16 r;
  std::memcpy(&r, p, sizeof(r));
  return r;
}

/// Cephes single-precision exp: clamp, n = round(x/ln2), polynomial on the
/// reduced argument, scale by 2^n through the exponent bits.
inline vf16 vexp16(vf16 x) {
  const vf16 hi = splat(88.3762626647949f), lo = splat(-88.3762626647949f);
  x = x > hi ? hi : x;
  x = x < lo ? lo : x;

  vf16 fx = x * splat(1.44269504088896341f) + splat(0.5f);
  // floor(fx): truncate toward zero, then fix the negative-fraction case.
  vf16 ft = __builtin_convertvector(__builtin_convertvector(fx, vi16), vf16);
  fx = ft > fx ? ft - splat(1.0f) : ft;

  x -= fx * splat(0.693359375f);
  x -= fx * splat(-2.12194440e-4f);

  const vf16 z = x * x;
  vf16 y = splat(1.9875691500e-4f);
  y = y * x + splat(1.3981999507e-3f);
  y = y * x + splat(8.3334519073e-3f);
  y = y * x + splat(4.1665795894e-2f);
  y = y * x + splat(1.6666665459e-1f);
  y = y * x + splat(5.0000001201e-1f);
  y = y * z + x + splat(1.0f);

  const vi16 pow2n = (__builtin_convertvector(fx, vi16) + 127) << 23;
  vf16 scale;
  std::memcpy(&scale, &pow2n, sizeof(scale));
  return y * scale;
}

/// Lane-wise IEEE sqrt: each lane is bitwise std::sqrt of its input (the
/// instruction is correctly rounded at every width).
inline vf16 vsqrt16(vf16 x) {
#if defined(__AVX512F__)
  __m512 v;
  std::memcpy(&v, &x, sizeof(v));
  // Full-mask form: GCC 12's _mm512_sqrt_ps trips -Wmaybe-uninitialized on
  // its undefined passthrough operand.
  v = _mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xFFFF), v);
  std::memcpy(&x, &v, sizeof(v));
#elif defined(__AVX__)
  __m256 v[2];
  std::memcpy(v, &x, sizeof(v));
  v[0] = _mm256_sqrt_ps(v[0]);
  v[1] = _mm256_sqrt_ps(v[1]);
  std::memcpy(&x, v, sizeof(v));
#elif defined(__SSE__)
  __m128 v[4];
  std::memcpy(v, &x, sizeof(v));
  for (__m128& q : v) q = _mm_sqrt_ps(q);
  std::memcpy(&x, v, sizeof(v));
#else
  for (int k = 0; k < 16; ++k) x[k] = std::sqrt(x[k]);
#endif
  return x;
}

inline vf16 vsigmoid16(vf16 x) { return splat(1.0f) / (splat(1.0f) + vexp16(-x)); }

/// tanh(x) = (1 - e^-2x) / (1 + e^-2x); vexp16's clamp keeps both ends
/// finite, so the ratio saturates cleanly to ±1.
inline vf16 vtanh16(vf16 x) {
  const vf16 t = vexp16(splat(-2.0f) * x);
  return (splat(1.0f) - t) / (splat(1.0f) + t);
}

inline vf16 vselu16(vf16 x, float scale, float alpha) {
  const vf16 neg = splat(scale * alpha) * (vexp16(x) - splat(1.0f));
  return x > splat(0.0f) ? splat(scale) * x : neg;
}
#pragma GCC diagnostic pop
#endif

// Scalar versions of the identical polynomial — the single source of truth
// for lanes processed outside a full 16-wide chunk and for non-GNU builds.
inline float exp_scalar(float x) {
  x = std::min(x, 88.3762626647949f);
  x = std::max(x, -88.3762626647949f);
  float fx = x * 1.44269504088896341f + 0.5f;
  float ft = static_cast<float>(static_cast<int32_t>(fx));
  fx = ft > fx ? ft - 1.0f : ft;
  x -= fx * 0.693359375f;
  x -= fx * -2.12194440e-4f;
  const float z = x * x;
  float y = 1.9875691500e-4f;
  y = y * x + 1.3981999507e-3f;
  y = y * x + 8.3334519073e-3f;
  y = y * x + 4.1665795894e-2f;
  y = y * x + 1.6666665459e-1f;
  y = y * x + 5.0000001201e-1f;
  y = y * z + x + 1.0f;
  const int32_t pow2n = (static_cast<int32_t>(fx) + 127) << 23;
  float scale;
  std::memcpy(&scale, &pow2n, sizeof(scale));
  return y * scale;
}

inline float sigmoid_scalar(float x) { return 1.0f / (1.0f + exp_scalar(-x)); }

inline float tanh_scalar(float x) {
  const float t = exp_scalar(-2.0f * x);
  return (1.0f - t) / (1.0f + t);
}

inline float selu_scalar(float x, float scale, float alpha) {
  return x > 0.0f ? scale * x : scale * alpha * (exp_scalar(x) - 1.0f);
}

}  // namespace df::core::simd
