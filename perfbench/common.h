// Shared pieces of the three workloads: run options, the served models, the
// receptor generator, and the end-to-end / per-layer metric tables.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chem/molecule.h"
#include "chem/voxelizer.h"
#include "core/rng.h"
#include "harness.h"
#include "models/fusion.h"
#include "models/sgcnn.h"
#include "trace.h"

namespace perfbench {

namespace chem = df::chem;
namespace core = df::core;
namespace models = df::models;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string run_dir;  // scratch space inside the checkout, removed at exit
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Fusion at the bench_common.h shapes: the model behind the hot-path rows
/// of BENCH_service.json (same weight seed).
models::RegressorFactory fusion_factory();

/// SG-CNN at the bench_common.h shapes, built exactly the way
/// score_server_node builds it from the flags NodeProcess passes.
models::RegressorFactory sgcnn_factory();
inline constexpr uint64_t kSgcnnSeed = 31;

/// Voxel featurization at the bench_common.h grid, used by every workload.
chem::VoxelConfig bench_voxel_config();

/// Protein-density cloud of `n` atoms around the origin: the binding-site
/// scale receptor bench_service_throughput builds for its pipelined rows.
std::vector<chem::Atom> make_cloud_pocket(int n, core::Rng& rng);

/// `n_compounds` generated drug-like molecules, their sizes spread evenly
/// over the generator's default heavy-atom range, each with
/// `poses_per_compound` embedded conformers centred on the origin: the
/// docked pose sets the serving workloads send, one compound per request.
std::vector<std::vector<chem::Molecule>> make_compound_poses(int n_compounds,
                                                             int poses_per_compound,
                                                             core::Rng& rng);

/// One GEMM of a Conv3d lowering (per sample: C[m,n] = W[m,k] col[k,n]).
struct ConvGemm {
  int64_t m = 0, n = 0, k = 0;
  double flops() const { return 2.0 * static_cast<double>(m * n * k); }
};

/// The Conv3d GEMM shapes of a 3D-CNN trunk fed a (1, C, G, G, G) grid,
/// in forward order.
std::vector<ConvGemm> conv_gemms(models::Cnn3d& cnn, int grid_dim);

// ---- metrics ----------------------------------------------------------------

/// The end-to-end metrics every workload prints in its untraced run, in
/// BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  double poses_per_s = 0.0;
  double compounds_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double max_rate_poses_per_s = 0.0;
  double peak_rss_mb = 0.0;
};
std::vector<Metric> end_to_end_metrics(const EndToEnd& e);

/// Per-layer metrics of the traced run. Every name of the table is printed
/// by every workload; a layer the workload does not run reads 0.
class PerLayer {
 public:
  void set(const std::string& name, double value);  // throws on unknown names
  std::vector<Metric> metrics() const;

 private:
  std::map<std::string, double> values_;
};

/// (name, unit) of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_table();

/// Mean of a sample (0 when empty).
double mean(const std::vector<double>& v);

}  // namespace perfbench
