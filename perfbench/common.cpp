#include "common.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench_common.h"
#include "chem/conformer.h"
#include "nn/conv3d.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace perfbench {

using namespace df;

models::RegressorFactory fusion_factory() {
  return [] {
    core::Rng mrng(11);
    auto cnn = std::make_shared<models::Cnn3d>(bench::bench_cnn3d_config(), mrng);
    auto sg = std::make_shared<models::Sgcnn>(bench::bench_sgcnn_config(), mrng);
    return std::make_unique<models::FusionModel>(
        bench::bench_fusion_config(models::FusionKind::Mid), std::move(cnn), std::move(sg), mrng);
  };
}

models::RegressorFactory sgcnn_factory() {
  return [] {
    core::Rng mrng(kSgcnnSeed);
    return std::make_unique<models::Sgcnn>(bench::bench_sgcnn_config(), mrng);
  };
}

chem::VoxelConfig bench_voxel_config() {
  chem::VoxelConfig v;
  v.grid_dim = bench::kGridDim;
  return v;
}

std::vector<chem::Atom> make_cloud_pocket(int n, core::Rng& rng) {
  const float radius =
      std::cbrt(3.0f * static_cast<float>(n) / (4.0f * 3.14159265f * 0.055f));
  std::vector<chem::Atom> pocket;
  pocket.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::Vec3 dir{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)};
    const float len = std::max(1e-6f, dir.norm());
    const float r = radius * std::cbrt(rng.uniform());
    chem::Atom a;
    a.pos = core::Vec3{dir.x / len * r, dir.y / len * r, dir.z / len * r};
    const float u = rng.uniform();
    if (u < 0.10f) {
      a.element = rng.bernoulli(0.5) ? chem::Element::N : chem::Element::O;
      a.formal_charge = a.element == chem::Element::N ? 1 : -1;
    } else if (u < 0.60f) {
      a.element = chem::Element::C;
    } else {
      const float v = rng.uniform();
      a.element = v < 0.4f ? chem::Element::O : (v < 0.8f ? chem::Element::N : chem::Element::S);
      a.implicit_h = rng.bernoulli(0.5) ? 1 : 0;
    }
    pocket.push_back(a);
  }
  return pocket;
}

std::vector<std::vector<chem::Molecule>> make_compound_poses(int n_compounds,
                                                             int poses_per_compound,
                                                             core::Rng& rng) {
  std::vector<std::vector<chem::Molecule>> out(static_cast<size_t>(n_compounds));
  const chem::MoleculeGenConfig defaults;
  for (size_t c = 0; c < out.size(); ++c) {
    // Heavy-atom counts spread evenly over the default range, so every seed
    // scores the same mix of molecule sizes.
    chem::MoleculeGenConfig gen = defaults;
    gen.min_heavy_atoms = gen.max_heavy_atoms =
        defaults.min_heavy_atoms +
        static_cast<int>(c * static_cast<size_t>(defaults.max_heavy_atoms -
                                                 defaults.min_heavy_atoms + 1) /
                         out.size());
    std::vector<chem::Molecule>& poses = out[c];
    const chem::Molecule mol = chem::generate_molecule(gen, rng);
    for (int i = 0; i < poses_per_compound; ++i) {
      chem::Molecule pose = mol;
      chem::embed_conformer(pose, rng);
      pose.translate(core::Vec3{} - pose.centroid());
      poses.push_back(std::move(pose));
    }
  }
  return out;
}

namespace {
void add_gemm(const nn::Conv3d& conv, const core::Tensor& x, std::vector<ConvGemm>& out) {
  const int64_t d = nn::Conv3d::out_size(x.dim(2), conv.kernel(), conv.stride(), conv.padding());
  const int64_t h = nn::Conv3d::out_size(x.dim(3), conv.kernel(), conv.stride(), conv.padding());
  const int64_t w = nn::Conv3d::out_size(x.dim(4), conv.kernel(), conv.stride(), conv.padding());
  out.push_back({conv.out_channels(), d * h * w,
                 conv.in_channels() * conv.kernel() * conv.kernel() * conv.kernel()});
}
}  // namespace

std::vector<ConvGemm> conv_gemms(models::Cnn3d& cnn, int grid_dim) {
  std::vector<ConvGemm> out;
  cnn.set_training(false);
  nn::Sequential& trunk = cnn.trunk();
  const int64_t channels = cnn.config().in_channels;
  core::Tensor x({1, channels, grid_dim, grid_dim, grid_dim});
  for (size_t i = 0; i < trunk.size(); ++i) {
    nn::Module& layer = trunk.layer(i);
    if (auto* conv = dynamic_cast<nn::Conv3d*>(&layer)) {
      add_gemm(*conv, x, out);
    } else if (auto* res = dynamic_cast<nn::Residual*>(&layer)) {
      if (auto* inner = dynamic_cast<nn::Sequential*>(&res->inner())) {
        core::Tensor y = x;
        for (size_t j = 0; j < inner->size(); ++j) {
          if (auto* c = dynamic_cast<nn::Conv3d*>(&inner->layer(j))) add_gemm(*c, y, out);
          y = inner->layer(j).forward(y);
        }
      }
    }
    x = layer.forward(x);
  }
  return out;
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"poses_per_s", e.poses_per_s, "poses/s"},
      {"compounds_per_s", e.compounds_per_s, "compounds/s"},
      {"latency_p50_ms", e.latency_p50_ms, "ms"},
      {"latency_p99_ms", e.latency_p99_ms, "ms"},
      {"max_rate_poses_per_s", e.max_rate_poses_per_s, "poses/s"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
  };
}

const std::vector<std::pair<std::string, std::string>>& per_layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"dock.docking_ms", "ms"},
      {"dock.mmgbsa_ms_per_pose", "ms"},
      {"dock.ligand_prep_ms", "ms"},
      {"screen.docking_share", "fraction"},
      {"screen.scoring_share", "fraction"},
      {"screen.shard_bytes_per_pose", "bytes"},
      {"screen.checkpoints", "count"},
      {"serve.batch_fill", "fraction"},
      {"serve.coalesced_share", "fraction"},
      {"serve.peak_queued_poses", "poses"},
      {"serve.submit_block_ms_p99", "ms"},
      {"serve.featurize_ms_per_batch", "ms"},
      {"serve.forward_ms_per_batch", "ms"},
      {"serve.cache_hit_ratio", "fraction"},
      {"serve.cache_evictions", "count"},
      {"serve.cache_lookup_ms_hit", "ms"},
      {"serve.cache_lookup_ms_miss", "ms"},
      {"chem.voxelize_ms_per_pose", "ms"},
      {"chem.graph_ms_per_pose", "ms"},
      {"chem.pocket_build_ms", "ms"},
      {"models.forward_ms_per_batch", "ms"},
      {"models.cnn3d_ms_per_batch", "ms"},
      {"models.sgcnn_ms_per_batch", "ms"},
      {"models.fusion_trunk_ms_per_batch", "ms"},
      {"nn.conv3d_ms_per_batch", "ms"},
      {"nn.conv3d_frac_of_sgemm_floor", "fraction"},
      {"core.sgemm_gflops", "GFLOP/s"},
      {"core.memcpy_gbps", "GB/s"},
      {"wire.pack_us_per_request", "us"},
      {"wire.unpack_us_per_request", "us"},
      {"wire.bytes_per_pose", "bytes"},
      {"client.retries", "count"},
      {"client.transport_failures", "count"},
      {"controller.dispatches_per_unit", "ratio"},
      {"controller.requeues", "count"},
      {"trace.overhead_frac", "fraction"},
  };
  return table;
}

void PerLayer::set(const std::string& name, double value) {
  const auto& table = per_layer_table();
  const bool known = std::any_of(table.begin(), table.end(),
                                 [&](const auto& row) { return row.first == name; });
  if (!known) throw std::logic_error("perfbench: unknown per-layer metric " + name);
  values_[name] = value;
}

std::vector<Metric> PerLayer::metrics() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_table()) {
    const auto it = values_.find(name);
    out.push_back({name, it != values_.end() ? it->second : 0.0, unit});
  }
  return out;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
