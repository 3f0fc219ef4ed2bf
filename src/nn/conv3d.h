// 3-D convolution and max-pooling over voxelized protein–ligand complexes.
// Input layout is (batch, channels, depth, height, width), matching the
// voxelizer's output. Conv3d's forward is an implicit GEMM: per sample, the
// (cout x cin*k³) weight multiplies the (cin*k³ x Do*Ho*Wo) column matrix,
// but that matrix is never written whole — each kPanelK-deep panel of it is
// gathered straight from the grid through a per-geometry gather table and
// multiplied while it is cache-hot, with core::sgemm's own panel split, so
// the output is bitwise vol2col + sgemm. Backward lowers through
// vol2col and scatters back through col2vol. The direct 7-loop
// implementation is retained below as the equivalence reference for tests
// and the speedup benchmark.
#pragma once

#include <memory>

#include "core/gemm.h"
#include "core/gemm_s8.h"
#include "core/rng.h"
#include "nn/module.h"
#include "nn/observer.h"

namespace df::nn {

/// Int8 execution state for a Conv3d layer (src/quant/ attaches it). The
/// weight is the u8 A operand of the per-sample int8 GEMM: a row-major
/// (cout, round_up(cin*k^3, 4)) image of offset-128 bytes. Per-output-channel
/// combined dequant scales; the compensation vector is computed per call
/// from the quantized column matrix (it depends on the activations).
struct QuantizedConv {
  float act_scale = 1.0f;        // input quant step: q = round(x / act_scale)
  const uint8_t* wu8 = nullptr;  // (cout, round_up(cin*k^3, 4)) row-major
  const float* scales = nullptr; // length cout
  std::vector<uint8_t> own_wu8;
  std::vector<float> own_scales;
};

class Conv3d : public Module {
 public:
  Conv3d(int64_t in_channels, int64_t out_channels, int64_t kernel, core::Rng& rng,
         int64_t stride = 1, int64_t padding = 0);

  Tensor forward(const Tensor& x) override;
  /// Forward with a fused activation epilogue (bias + act applied on the
  /// per-sample GEMM's hot micro-tiles); bitwise identical to forward()
  /// followed by the elementwise activation. Inference-path only — training
  /// needs the pre-activation output cached by the activation layer.
  Tensor forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope = 0.01f);
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  /// Spatial output size for one dimension.
  static int64_t out_size(int64_t in, int64_t kernel, int64_t stride, int64_t padding) {
    return (in + 2 * padding - kernel) / stride + 1;
  }

  int64_t in_channels() const { return cin_; }
  int64_t out_channels() const { return cout_; }
  int64_t kernel() const { return k_; }
  int64_t stride() const { return stride_; }
  int64_t padding() const { return pad_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

  // -- ahead-of-time weight packing (model compiler) ----------------------
  // The weight is the A operand of every per-sample GEMM; packing it once
  // removes pack_a from the steady-state path. Inference-only, same
  // contract as Dense: re-prepack after any weight mutation.

  /// Pack w into an owned buffer and route eval forwards through it.
  void prepack();
  /// Route eval forwards through an external image of
  /// core::packed_a_floats(cout, cin*k^3) floats. Caller keeps it alive.
  void attach_prepacked(const float* panels);
  void clear_prepacked() { pa_ = {}; packed_own_.clear(); }
  bool prepacked() const { return pa_.panels != nullptr; }

  // -- int8 quantized execution (src/quant/) ------------------------------
  // Eval forwards gather each sample's whole column matrix (the same row
  // builder as the fp32 panels), quantize it to int8 panels and
  // run the int8 GEMM against the prequantized u8 weight image. Takes
  // priority over the fp32 prepacked path; training stays fp32.

  /// Attach owned quantized state (moved in). Null view pointers are
  /// re-pointed at the owned vectors.
  void attach_quantized(QuantizedConv q);
  /// Attach borrowed views (e.g. into an mmap'd artifact). Caller keeps
  /// them alive for the layer's lifetime.
  void attach_quantized_views(float act_scale, const uint8_t* wu8, const float* scales);
  void clear_quantized() { quant_.reset(); }
  bool quantized() const { return quant_ != nullptr; }
  /// Serialization access (model compiler); nullptr when not quantized.
  const QuantizedConv* quantized_state() const { return quant_.get(); }

  /// Calibration hook: when set, eval forwards report their input to the
  /// observer before computing. Not used in training mode.
  void set_observer(ActivationObserver* obs) { observer_ = obs; }

  /// Build the gather table for a (D, H, W) input ahead of the first
  /// forward, so a compiled replica's first score pays no table build.
  void warm_plan(int64_t D, int64_t H, int64_t W);

 private:
  // Gather table of one input geometry. Column j of row r of a sample's
  // column matrix reads channel r / k^3 through tap t = r % k^3: one voxel
  // of that channel's grid, or the zero padding. Each tap row is cut into
  // 16-column chunks; lane l of a chunk is +0 unless its `live` bit is set.
  // A chunk's lanes split into `parts` (1, 2 or 4, one count per table)
  // equal parts whose live voxels each lie in one 32-voxel window from
  // base[p], so part p is two vector loads and one permute by rel (< 32)
  // instead of a 16-lane gather. A chunk whose windows do not fit is
  // gathered: its absolute offsets are the 16 ints of `wide` from index
  // `wide` (-1 for a windowed chunk). Compact on purpose: the fill streams
  // the table once per channel. Replica state: built on the calling thread,
  // only read by pool workers.
  struct GatherChunk {
    uint8_t rel[16];
    int32_t base[4];
    int32_t wide = -1;
    uint16_t live = 0;
  };
  struct GatherTable {
    int64_t D = -1, H = -1, W = -1, N = 0;
    int64_t chunks = 0;             // per tap row: ceil(N / 16)
    int64_t parts = 1;
    std::vector<GatherChunk> rows;  // (k^3, chunks)
    std::vector<int32_t> wide;      // absolute offsets of the gathered chunks
  };
  void build_gather(int64_t D, int64_t H, int64_t W);
  /// Rows [r0, r0 + rows) of sample `xs`'s column matrix into dst (leading
  /// dimension ldd), straight from the grid.
  void fill_rows(const float* xs, int64_t r0, int64_t rows, float* dst, int64_t ldd) const;
  template <int kParts>
  void fill_rows_as(const float* xs, int64_t r0, int64_t rows, float* dst, int64_t ldd) const;

  int64_t cin_, cout_, k_, stride_, pad_;
  Parameter w_;  // (cout, cin, k, k, k)
  Parameter b_;  // (cout)
  Tensor cached_input_;
  GatherTable gather_;
  std::vector<float> packed_own_;
  core::PrepackedA pa_;
  std::unique_ptr<QuantizedConv> quant_;
  ActivationObserver* observer_ = nullptr;
};

class MaxPool3d : public Module {
 public:
  explicit MaxPool3d(int64_t kernel = 2, int64_t stride = 2) : k_(kernel), stride_(stride) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  int64_t k_, stride_;
  std::vector<int64_t> argmax_;  // flat input index per output element (training only)
  std::vector<int64_t> in_shape_;
};

/// Lower one sample (cin, D, H, W) to its (cin*k^3, Do*Ho*Wo) column matrix:
/// row (ci*k + kz)*k^2 + ky*k + kx holds the voxels that tap reads of channel
/// ci for every output position, +0 where it reads the padding. `ldcols`
/// strides between rows. Backward lowers through it; it is also the oracle
/// the forward's implicit GEMM is pinned against (vol2col + core::sgemm).
void vol2col(const float* x, int64_t cin, int64_t D, int64_t H, int64_t W, int64_t k,
             int64_t stride, int64_t pad, float* cols, int64_t ldcols);

/// Direct 7-loop reference convolution (the pre-vol2col implementation).
/// Retained for equivalence tests and the speedup benchmark only — model
/// code must go through Conv3d.
Tensor conv3d_forward_naive(const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
                            int64_t padding);
/// Reference backward: returns grad_in and accumulates into grad_w/grad_b.
Tensor conv3d_backward_naive(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                             Tensor& grad_w, Tensor& grad_b, int64_t stride, int64_t padding);

/// Flatten (B, ...) -> (B, features); the bridge from conv stack to dense head.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  std::vector<int64_t> in_shape_;
};

}  // namespace df::nn
