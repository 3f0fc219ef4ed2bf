// Layer replay of the traced run: the workload's own generated inputs are
// fed through each layer's public functions, one span per call, and the
// per-layer metrics are read off those spans.
#pragma once

#include <string>
#include <vector>

#include "chem/graph_featurizer.h"
#include "chem/voxelizer.h"
#include "common.h"
#include "host.h"
#include "models/regressor.h"
#include "serve/scorer.h"

namespace perfbench {

struct ReplaySpec {
  std::string scorer;                 // the served scorer's name
  df::models::RegressorFactory factory;
  df::chem::VoxelConfig voxel;
  df::chem::GraphFeaturizerConfig graph;
  /// The workload's requests, in the order the workload sends them.
  const std::vector<std::vector<df::serve::PoseInput>>* requests = nullptr;
  /// Micro-batching of the scorer replay: ordered splits each request into
  /// chunks of poses_per_batch; otherwise consecutive requests coalesce.
  int poses_per_batch = 32;
  bool ordered = false;
  /// Pocket cache of the served path (0 = none) and how many nodes share
  /// the requests round-robin, each with its own replica and cache.
  size_t cache_targets = 0;
  int nodes = 1;
  /// Read serve.cache_hit_ratio / serve.cache_evictions off the replay's
  /// caches (when the served caches are out of reach, in other processes).
  bool cache_stats_from_replay = false;
  /// Time the wire codec on the requests.
  bool wire = false;
  /// Send the first requests through one score_server_node, by ScoreClient
  /// and by ClusterController, and read the client and controller stats
  /// (for a workload that serves in process). Port files go to run_dir.
  bool multi_node = false;
  std::string run_dir;
};

/// Run the replay and fill the serve.scorer, serve.pocket_cache, chem,
/// models, nn, core and (when asked) wire, client and controller rows of
/// `out`.
void replay_layers(const ReplaySpec& spec, const Floors& floors, Tracer& tracer, PerLayer& out);

}  // namespace perfbench
