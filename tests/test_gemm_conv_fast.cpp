// Equivalence pins for the blocked inference engine: sgemm vs the naive
// reference (all transpose variants, odd shapes, 1-8 threads), Conv3d
// forward/backward vs the direct 7-loop reference, the implicit-GEMM
// forward bitwise vs vol2col + sgemm, parallel voxelizer/maxpool vs serial,
// batched predict bitwise vs per-pose predict, and ThreadPool exception
// propagation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "chem/voxelizer.h"
#include "core/gemm.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "core/threadpool.h"
#include "data/target.h"
#include "models/fusion.h"
#include "nn/conv3d.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;

constexpr float kTol = 1e-4f;

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float m = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

std::vector<float> random_buf(int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

void check_gemm_case(bool ta, bool tb, int64_t m, int64_t n, int64_t k, Rng& rng) {
  const int64_t lda = ta ? m : k;
  const int64_t ldb = tb ? k : n;
  const std::vector<float> A = random_buf((ta ? k : m) * lda, rng);
  const std::vector<float> B = random_buf((tb ? n : k) * ldb, rng);
  std::vector<float> C(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> C_ref = random_buf(m * n, rng);  // accumulate seed
  std::vector<float> C_acc = C_ref;

  core::sgemm(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C.data(), n);
  std::vector<float> R(static_cast<size_t>(m * n), 0.0f);
  core::sgemm_naive(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, R.data(), n);
  for (size_t i = 0; i < C.size(); ++i) {
    ASSERT_NEAR(C[i], R[i], kTol) << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                                  << " k=" << k << " i=" << i;
  }

  core::sgemm(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C_acc.data(), n, /*accumulate=*/true);
  core::sgemm_naive(ta, tb, m, n, k, A.data(), lda, B.data(), ldb, C_ref.data(), n, true);
  for (size_t i = 0; i < C_acc.size(); ++i) ASSERT_NEAR(C_acc[i], C_ref[i], kTol);
}

TEST(Gemm, MatchesNaiveAcrossShapesAndTransposes) {
  Rng rng(11);
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {6, 16, 8},   {7, 17, 33},
                               {13, 1, 29}, {1, 31, 13},  {97, 65, 51}, {128, 96, 64},
                               {65, 130, 257}};
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) check_gemm_case(ta, tb, s[0], s[1], s[2], rng);
    }
  }
}

TEST(Gemm, KZeroClearsOrKeepsC) {
  std::vector<float> C = {1, 2, 3, 4};
  core::sgemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, C.data(), 2, /*accumulate=*/true);
  EXPECT_EQ(C[0], 1.0f);
  core::sgemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, C.data(), 2);
  for (float v : C) EXPECT_EQ(v, 0.0f);
}

TEST(Gemm, MatchesNaiveOnEveryPoolSize) {
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    core::ComputePoolGuard guard(&pool);
    Rng rng(23 + threads);
    // Big enough to cross the parallel threshold and span several MC blocks.
    check_gemm_case(false, false, 201, 150, 67, rng);
    check_gemm_case(true, false, 150, 201, 67, rng);
    check_gemm_case(false, true, 97, 203, 129, rng);
  }
}

TEST(Tensor, MatmulVariantsMatchNaive) {
  Rng rng(7);
  Tensor a = Tensor::randn({9, 14}, rng);
  Tensor b = Tensor::randn({14, 11}, rng);
  Tensor c = a.matmul(b);
  Tensor r({9, 11});
  core::sgemm_naive(false, false, 9, 11, 14, a.data(), 14, b.data(), 11, r.data(), 11);
  EXPECT_LE(max_abs_diff(c, r), kTol);

  Tensor at = a.transposed2d();
  EXPECT_LE(max_abs_diff(at.matmul_tn(b), r), kTol);
  Tensor bt = b.transposed2d();
  EXPECT_LE(max_abs_diff(a.matmul_nt(bt), r), kTol);
}

// ---- Conv3d vol2col vs direct reference ----

struct ConvCase {
  int64_t B, cin, cout, D, H, W, k, stride, pad;
};

void check_conv_case(const ConvCase& cc, Rng& rng) {
  nn::Conv3d conv(cc.cin, cc.cout, cc.k, rng, cc.stride, cc.pad);
  auto params = conv.parameters();  // [w, b]
  const Tensor& w = params[0]->value;
  const Tensor& b = params[1]->value;

  Tensor x = Tensor::randn({cc.B, cc.cin, cc.D, cc.H, cc.W}, rng);
  conv.set_training(true);
  Tensor y = conv.forward(x);
  Tensor y_ref = nn::conv3d_forward_naive(x, w, b, cc.stride, cc.pad);
  ASSERT_LE(max_abs_diff(y, y_ref), kTol) << "fwd k=" << cc.k << " s=" << cc.stride
                                          << " p=" << cc.pad;

  Tensor g = Tensor::randn(y.shape(), rng);
  conv.zero_grad();
  Tensor gx = conv.backward(g);
  Tensor gw_ref(w.shape()), gb_ref(b.shape());
  Tensor gx_ref = nn::conv3d_backward_naive(x, w, g, gw_ref, gb_ref, cc.stride, cc.pad);
  EXPECT_LE(max_abs_diff(gx, gx_ref), kTol);
  // Weight/bias grads accumulate over B*Do*Ho*Wo products, so their scale
  // (and the float reorder error) grows with the output volume — compare at
  // kTol relative to the reference magnitude.
  const float gw_scale = std::max(1.0f, std::fabs(gw_ref.max() - gw_ref.min()));
  EXPECT_LE(max_abs_diff(params[0]->grad, gw_ref), kTol * gw_scale);
  const float gb_scale = std::max(1.0f, std::fabs(gb_ref.max() - gb_ref.min()));
  EXPECT_LE(max_abs_diff(params[1]->grad, gb_ref), kTol * gb_scale);
}

TEST(Conv3dFast, MatchesNaiveAcrossShapes) {
  Rng rng(31);
  const ConvCase cases[] = {
      {1, 1, 1, 4, 4, 4, 2, 1, 0},  {2, 3, 5, 7, 6, 5, 3, 1, 1},  {1, 4, 3, 8, 8, 8, 3, 2, 1},
      {2, 2, 4, 9, 7, 8, 5, 2, 2},  {1, 5, 2, 6, 9, 7, 3, 1, 2},  {3, 3, 3, 5, 5, 5, 2, 2, 0},
      {1, 16, 8, 8, 8, 8, 5, 2, 2},
  };
  for (const ConvCase& cc : cases) check_conv_case(cc, rng);
}

TEST(Conv3dFast, MatchesNaiveOnEveryPoolSize) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    core::ThreadPool pool(threads);
    core::ComputePoolGuard guard(&pool);
    Rng rng(41 + threads);
    check_conv_case({4, 3, 6, 7, 7, 7, 3, 1, 1}, rng);
    check_conv_case({2, 4, 4, 8, 6, 9, 5, 2, 2}, rng);
  }
}

// ---- implicit-GEMM Conv3d forward vs vol2col + sgemm, bitwise ----

// The oracle: each sample lowered whole by vol2col, then one sgemm with the
// conv's bias and activation as the fused epilogue.
Tensor conv_via_vol2col(nn::Conv3d& conv, const Tensor& x, core::EpilogueAct act) {
  const int64_t B = x.dim(0), cin = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t k = conv.kernel(), s = conv.stride(), p = conv.padding();
  const int64_t Do = nn::Conv3d::out_size(D, k, s, p);
  const int64_t Ho = nn::Conv3d::out_size(H, k, s, p);
  const int64_t Wo = nn::Conv3d::out_size(W, k, s, p);
  const int64_t cout = conv.out_channels(), K = cin * k * k * k, N = Do * Ho * Wo;
  Tensor out({B, cout, Do, Ho, Wo});
  std::vector<float> cols(static_cast<size_t>(K * N));
  core::Epilogue ep;
  ep.act = act;
  ep.bias_row = conv.bias().value.data();
  for (int64_t b = 0; b < B; ++b) {
    nn::vol2col(x.data() + b * cin * D * H * W, cin, D, H, W, k, s, p, cols.data(), N);
    core::sgemm(false, false, cout, N, K, conv.weight().value.data(), K, cols.data(), N,
                out.data() + b * cout * N, N, false, &ep);
  }
  return out;
}

void expect_bytes_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), static_cast<size_t>(got.numel()) * sizeof(float)),
            0)
      << what;
}

// Eval forward (plain, ReLU-fused, prepacked) and the training forward of
// one conv on one input, each against the oracle.
void check_implicit_gemm(const ConvCase& cc, Rng& rng) {
  nn::Conv3d conv(cc.cin, cc.cout, cc.k, rng, cc.stride, cc.pad);
  const Tensor x = Tensor::randn({cc.B, cc.cin, cc.D, cc.H, cc.W}, rng);
  const std::string shape = "B=" + std::to_string(cc.B) + " cin=" + std::to_string(cc.cin) +
                            " cout=" + std::to_string(cc.cout) + " grid=" + std::to_string(cc.D) +
                            "x" + std::to_string(cc.H) + "x" + std::to_string(cc.W) +
                            " k=" + std::to_string(cc.k) + " s=" + std::to_string(cc.stride) +
                            " p=" + std::to_string(cc.pad);
  const Tensor plain = conv_via_vol2col(conv, x, core::EpilogueAct::kNone);
  const Tensor relu = conv_via_vol2col(conv, x, core::EpilogueAct::kReLU);
  conv.set_training(false);
  expect_bytes_equal(conv.forward(x), plain, "eval " + shape);
  expect_bytes_equal(conv.forward_act(x, core::EpilogueAct::kReLU), relu, "eval relu " + shape);
  conv.prepack();
  expect_bytes_equal(conv.forward(x), plain, "prepacked " + shape);
  expect_bytes_equal(conv.forward_act(x, core::EpilogueAct::kReLU), relu,
                     "prepacked relu " + shape);
  conv.clear_prepacked();
  conv.set_training(true);
  expect_bytes_equal(conv.forward(x), plain, "training " + shape);
}

TEST(Conv3dImplicitGemm, BitwiseEqualsVol2colPlusSgemmAcrossShapes) {
  Rng rng(53);
  // Stride 1/2, pad 0/1/2, k 3/5, odd and cubic grids; N = Do*Ho*Wo below
  // and above the skinny-RHS cutoff (96), K = cin*k^3 below and above one
  // k-panel (192).
  const ConvCase cases[] = {
      {3, 3, 5, 7, 6, 5, 3, 1, 1},     {2, 16, 8, 8, 8, 8, 5, 2, 2},  {2, 8, 8, 4, 4, 4, 3, 1, 1},
      {2, 8, 16, 2, 2, 2, 3, 1, 1},    {2, 16, 16, 2, 2, 2, 3, 1, 1}, {2, 4, 6, 9, 11, 10, 3, 1, 0},
      {1, 16, 32, 12, 12, 12, 5, 2, 2}, {2, 3, 4, 10, 9, 11, 5, 2, 1}, {2, 2, 3, 6, 6, 6, 3, 2, 2},
      {1, 5, 7, 13, 12, 11, 3, 1, 2},  {2, 9, 70, 5, 5, 5, 5, 1, 2},  {1, 1, 1, 3, 3, 3, 3, 2, 0},
  };
  for (const ConvCase& cc : cases) check_implicit_gemm(cc, rng);
}

TEST(Conv3dImplicitGemm, BitwiseAcrossBatchSizesAndPoolSizes) {
  for (size_t threads : {1u, 2u, 4u}) {
    core::ThreadPool pool(threads);
    core::ComputePoolGuard guard(&pool);
    Rng rng(61 + threads);
    for (int64_t B = 1; B <= 33; ++B) {
      check_implicit_gemm({B, 16, 8, 8, 8, 8, 5, 2, 2}, rng);
      check_implicit_gemm({B, 8, 16, 2, 2, 2, 3, 1, 1}, rng);
      check_implicit_gemm({B, 3, 4, 5, 7, 6, 3, 1, 1}, rng);
    }
  }
}

// ---- parallel voxelizer / maxpool vs serial ----

TEST(VoxelizerParallel, BitwiseMatchesSerial) {
  Rng rng(5);
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  chem::VoxelConfig vc;
  vc.grid_dim = 12;
  const chem::Voxelizer vox(vc);
  const Tensor serial = vox.voxelize(lig, pocket, {});
  EXPECT_GT(serial.norm(), 0.0f);
  core::ThreadPool pool(4);
  core::ComputePoolGuard guard(&pool);
  const Tensor parallel = vox.voxelize(lig, pocket, {});
  EXPECT_EQ(max_abs_diff(serial, parallel), 0.0f);
}

TEST(MaxPoolParallel, BitwiseMatchesSerial) {
  Rng rng(6);
  Tensor x = Tensor::randn({3, 5, 8, 8, 8}, rng);
  nn::MaxPool3d pool_layer(2, 2);
  const Tensor serial = pool_layer.forward(x);
  core::ThreadPool pool(4);
  core::ComputePoolGuard guard(&pool);
  nn::MaxPool3d pool_layer2(2, 2);
  const Tensor parallel = pool_layer2.forward(x);
  EXPECT_EQ(max_abs_diff(serial, parallel), 0.0f);
}

// ---- ThreadPool exception propagation ----

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  core::ThreadPool pool(3);
  EXPECT_THROW(core::parallel_for(pool, 64,
                                  [](size_t i) {
                                    if (i == 17) throw std::runtime_error("rank died");
                                  }),
               std::runtime_error);
  // The pool must survive a failed job batch and keep executing work.
  std::atomic<int> count{0};
  core::parallel_for(pool, 32, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, WaitIdleRethrowsSubmittedJobError) {
  core::ThreadPool pool(2);
  pool.submit([] { throw std::invalid_argument("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::invalid_argument);
  // Error is consumed: the next join is clean.
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait_idle());
}

// ---- batched predict vs per-pose predict ----

data::Sample make_sample(Rng& rng) {
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  std::vector<chem::Atom> pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  chem::VoxelConfig vc;
  vc.grid_dim = 8;
  data::Sample s;
  s.voxel = chem::Voxelizer(vc).voxelize(lig, pocket, {});
  s.graph = chem::GraphFeaturizer().featurize(lig, pocket);
  s.label = 7.0f;
  return s;
}

TEST(PredictBatch, MatchesPerPosePredict) {
  Rng rng(17);
  models::Cnn3dConfig ccfg;
  ccfg.grid_dim = 8;
  ccfg.conv_filters1 = 4;
  ccfg.conv_filters2 = 8;
  ccfg.dense_nodes = 16;
  auto cnn = std::make_shared<models::Cnn3d>(ccfg, rng);
  models::SgcnnConfig scfg;
  scfg.covalent_k = 2;
  scfg.noncovalent_k = 2;
  scfg.covalent_gather_width = 8;
  scfg.noncovalent_gather_width = 16;
  auto sg = std::make_shared<models::Sgcnn>(scfg, rng);
  models::FusionConfig fcfg;
  fcfg.kind = models::FusionKind::Mid;
  fcfg.model_specific_layers = true;
  models::FusionModel fusion(fcfg, cnn, sg, rng);
  models::LateFusion late(cnn, sg);

  std::vector<data::Sample> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(make_sample(rng));
  std::vector<const data::Sample*> ptrs;
  for (const auto& s : samples) ptrs.push_back(&s);

  for (models::Regressor* model : std::initializer_list<models::Regressor*>{
           cnn.get(), sg.get(), &fusion, &late}) {
    model->set_training(false);
    const std::vector<float> batched = model->predict_batch(ptrs);
    ASSERT_EQ(batched.size(), samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(batched[i], model->predict(samples[i])) << model->name() << " pose " << i;
    }
  }
}

}  // namespace
}  // namespace df
