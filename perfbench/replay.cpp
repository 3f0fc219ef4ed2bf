#include "replay.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "chem/cell_list.h"
#include "models/cnn3d.h"
#include "nn/conv3d.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "node.h"
#include "serve/client.h"
#include "serve/pocket_cache.h"
#include "serve/wire.h"

namespace perfbench {

using namespace df;

namespace {

constexpr int kForwardBatch = 32;  // models.* / nn.* rows are per 32-pose batch
constexpr int kForwardReps = 12;
constexpr size_t kChemPoses = 256;
constexpr int kHitRounds = 8;
constexpr size_t kMultiNodeRequests = 64;

struct Receptor {
  const std::vector<chem::Atom>* pocket = nullptr;
  core::Vec3 center;
  std::shared_ptr<const serve::PocketCache::Entry> entry;
};

bool serves(const Receptor& r, const serve::PoseInput& p) {
  return r.pocket == p.pocket && r.center.x == p.site_center.x &&
         r.center.y == p.site_center.y && r.center.z == p.site_center.z;
}

std::vector<Receptor> distinct_receptors(const std::vector<std::vector<serve::PoseInput>>& reqs) {
  std::vector<Receptor> out;
  for (const auto& req : reqs) {
    for (const serve::PoseInput& p : req) {
      const bool seen =
          std::any_of(out.begin(), out.end(), [&](const Receptor& r) { return serves(r, p); });
      if (!seen) out.push_back({p.pocket, p.site_center, nullptr});
    }
  }
  return out;
}

/// The scorer path: private replicas score the requests in the workload's
/// micro-batch shape; phase_stats() splits featurize from forward.
void replay_scorer(const ReplaySpec& spec, Tracer& tracer, PerLayer& out) {
  Span root(tracer, "replay.scorer");
  const auto& reqs = *spec.requests;
  const size_t ppb = static_cast<size_t>(spec.poses_per_batch);
  double featurize_s = 0.0, forward_s = 0.0;
  uint64_t batches = 0, hits = 0, misses = 0, evictions = 0;
  for (int node = 0; node < spec.nodes; ++node) {
    serve::RegressorScorer scorer(spec.scorer, spec.factory(), spec.voxel, spec.graph);
    std::shared_ptr<serve::PocketCache> cache;
    if (spec.cache_targets > 0) {
      cache = std::make_shared<serve::PocketCache>(spec.cache_targets);
      scorer.set_pocket_cache(cache);
    }
    std::vector<std::vector<const serve::PoseInput*>> plan;
    std::vector<const serve::PoseInput*> pending;
    for (size_t r = static_cast<size_t>(node); r < reqs.size();
         r += static_cast<size_t>(spec.nodes)) {
      for (const serve::PoseInput& p : reqs[r]) {
        pending.push_back(&p);
        if (pending.size() == ppb) plan.push_back(std::move(pending)), pending.clear();
      }
      if (spec.ordered && !pending.empty()) plan.push_back(std::move(pending)), pending.clear();
    }
    if (!pending.empty()) plan.push_back(std::move(pending));
    for (const auto& batch : plan) {
      Span s(tracer, "serve.scorer.score", root.id());
      scorer.score(batch);
    }
    const serve::RegressorScorer::PhaseStats st = scorer.phase_stats();
    featurize_s += st.featurize_seconds;
    forward_s += st.forward_seconds;
    batches += st.batches;
    if (cache) {
      const serve::PocketCache::Stats cs = cache->stats();
      hits += cs.hits;
      misses += cs.misses;
      evictions += cs.evictions;
    }
  }
  if (batches > 0) {
    out.set("serve.featurize_ms_per_batch", featurize_s / static_cast<double>(batches) * 1e3);
    out.set("serve.forward_ms_per_batch", forward_s / static_cast<double>(batches) * 1e3);
  }
  if (spec.cache_stats_from_replay && hits + misses > 0) {
    out.set("serve.cache_hit_ratio", static_cast<double>(hits) / static_cast<double>(hits + misses));
    out.set("serve.cache_evictions", static_cast<double>(evictions));
  }
}

/// Pocket builds, cache misses and hits, then per-pose voxelize and graph
/// featurization against the cached receptor state. Returns the first
/// kForwardBatch featurized samples.
std::vector<data::Sample> replay_chem(const ReplaySpec& spec, Tracer& tracer, PerLayer& out) {
  Span root(tracer, "replay.chem");
  const chem::Voxelizer voxelizer(spec.voxel);
  const chem::GraphFeaturizer featurizer(spec.graph);
  std::vector<Receptor> receptors = distinct_receptors(*spec.requests);

  for (const Receptor& r : receptors) {
    Span s(tracer, "chem.pocket_build", root.id());
    const core::Tensor grid = voxelizer.voxelize_pocket(*r.pocket, r.center);
    std::vector<core::Vec3> pos;
    pos.reserve(r.pocket->size());
    for (const chem::Atom& a : *r.pocket) pos.push_back(a.pos);
    chem::CellList cells;
    cells.build(pos.data(), static_cast<int32_t>(pos.size()), spec.graph.noncovalent_threshold);
  }
  serve::PocketCache cache(receptors.size());
  for (Receptor& r : receptors) {
    Span s(tracer, "serve.pocket_cache.lookup_miss", root.id());
    r.entry = cache.lookup(*r.pocket, r.center, voxelizer, featurizer);
  }
  for (int round = 0; round < kHitRounds; ++round) {
    for (const Receptor& r : receptors) {
      Span s(tracer, "serve.pocket_cache.lookup_hit", root.id());
      cache.lookup(*r.pocket, r.center, voxelizer, featurizer);
    }
  }

  std::vector<data::Sample> samples;
  for (const auto& req : *spec.requests) {
    for (const serve::PoseInput& p : req) {
      if (samples.size() == kChemPoses) break;
      const Receptor& r = *std::find_if(receptors.begin(), receptors.end(),
                                        [&](const Receptor& x) { return serves(x, p); });
      data::Sample s;
      {
        Span v(tracer, "chem.voxelize", root.id());
        s.voxel = voxelizer.voxelize_ligand_onto(p.ligand, *p.pocket, r.entry->grid, p.site_center);
      }
      {
        Span g(tracer, "chem.graph", root.id());
        s.graph = featurizer.featurize(p.ligand, *p.pocket,
                                       r.entry->crop_cells.built() ? &r.entry->crop_cells : nullptr);
      }
      samples.push_back(std::move(s));
    }
  }
  out.set("chem.pocket_build_ms", mean(tracer.durations_ms("chem.pocket_build")));
  out.set("serve.cache_lookup_ms_miss", mean(tracer.durations_ms("serve.pocket_cache.lookup_miss")));
  out.set("serve.cache_lookup_ms_hit", mean(tracer.durations_ms("serve.pocket_cache.lookup_hit")));
  out.set("chem.voxelize_ms_per_pose", mean(tracer.durations_ms("chem.voxelize")));
  out.set("chem.graph_ms_per_pose", mean(tracer.durations_ms("chem.graph")));
  samples.resize(std::min<size_t>(samples.size(), kForwardBatch));
  return samples;
}

/// Time `fn` kForwardReps times (after one warm-up call) under a span name.
template <typename Fn>
void timed_reps(Tracer& tracer, const std::string& name, uint64_t parent, Fn&& fn) {
  fn();
  for (int r = 0; r < kForwardReps; ++r) {
    Span s(tracer, name, parent);
    fn();
  }
}

void replay_conv(models::Cnn3d& cnn, const std::vector<const data::Sample*>& batch,
                 const Floors& floors, Tracer& tracer, uint64_t parent, PerLayer& out) {
  cnn.set_training(false);
  nn::Sequential& trunk = cnn.trunk();
  // Every Conv3d of the trunk with the input it sees in the forward.
  std::vector<std::pair<nn::Conv3d*, core::Tensor>> convs;
  core::Tensor x = models::stack_voxel_batch(batch);
  for (size_t i = 0; i < trunk.size(); ++i) {
    nn::Module& layer = trunk.layer(i);
    if (auto* conv = dynamic_cast<nn::Conv3d*>(&layer)) {
      convs.emplace_back(conv, x);
    } else if (auto* res = dynamic_cast<nn::Residual*>(&layer)) {
      if (auto* inner = dynamic_cast<nn::Sequential*>(&res->inner())) {
        core::Tensor y = x;
        for (size_t j = 0; j < inner->size(); ++j) {
          if (auto* c = dynamic_cast<nn::Conv3d*>(&inner->layer(j))) convs.emplace_back(c, y);
          y = inner->layer(j).forward(y);
        }
      }
    }
    x = layer.forward(x);
  }
  if (convs.empty()) return;
  double flops = 0.0;
  for (const ConvGemm& g : conv_gemms(cnn, static_cast<int>(batch.front()->voxel.dim(2)))) {
    flops += g.flops() * static_cast<double>(batch.size());
  }
  timed_reps(tracer, "nn.conv3d", parent, [&] {
    for (auto& [conv, input] : convs) conv->forward(input);
  });
  const double ms = median(tracer.durations_ms("nn.conv3d"));
  out.set("nn.conv3d_ms_per_batch", ms);
  if (ms > 0.0 && floors.sgemm_gflops > 0.0) {
    out.set("nn.conv3d_frac_of_sgemm_floor", flops / (ms * 1e-3) / 1e9 / floors.sgemm_gflops);
  }
}

void replay_models(const ReplaySpec& spec, const std::vector<data::Sample>& samples,
                   const Floors& floors, Tracer& tracer, PerLayer& out) {
  if (samples.empty()) return;
  Span root(tracer, "replay.models");
  std::vector<const data::Sample*> batch;
  for (const data::Sample& s : samples) batch.push_back(&s);
  std::unique_ptr<models::Regressor> model = spec.factory();
  model->set_training(false);
  timed_reps(tracer, "models.forward", root.id(), [&] { model->predict_batch(batch); });
  out.set("models.forward_ms_per_batch", median(tracer.durations_ms("models.forward")));

  models::Cnn3d* cnn = dynamic_cast<models::Cnn3d*>(model.get());
  models::Sgcnn* sg = dynamic_cast<models::Sgcnn*>(model.get());
  if (auto* fusion = dynamic_cast<models::FusionModel*>(model.get())) {
    cnn = &fusion->cnn_head();
    sg = &fusion->sg_head();
    nn::Sequential& trunk = fusion->fusion_trunk();
    int64_t width = 0;
    for (size_t i = 0; i < trunk.size() && width == 0; ++i) {
      if (auto* dense = dynamic_cast<nn::Dense*>(&trunk.layer(i))) width = dense->in_features();
    }
    core::Tensor cat({static_cast<int64_t>(batch.size()), width});
    core::Rng rng(3);
    for (int64_t i = 0; i < cat.numel(); ++i) cat[i] = rng.uniform(-1.0f, 1.0f);
    trunk.set_training(false);
    timed_reps(tracer, "models.fusion_trunk", root.id(), [&] { trunk.forward(cat); });
    out.set("models.fusion_trunk_ms_per_batch", median(tracer.durations_ms("models.fusion_trunk")));
  }
  if (cnn != nullptr) {
    timed_reps(tracer, "models.cnn3d", root.id(), [&] { cnn->predict_batch(batch); });
    out.set("models.cnn3d_ms_per_batch", median(tracer.durations_ms("models.cnn3d")));
    replay_conv(*cnn, batch, floors, tracer, root.id(), out);
  }
  if (sg != nullptr) {
    timed_reps(tracer, "models.sgcnn", root.id(), [&] { sg->predict_batch(batch); });
    out.set("models.sgcnn_ms_per_batch", median(tracer.durations_ms("models.sgcnn")));
  }
}

void replay_wire(const ReplaySpec& spec, Tracer& tracer, PerLayer& out) {
  Span root(tracer, "replay.wire");
  double frame_bytes = 0.0, poses = 0.0;
  uint64_t id = 1;
  for (const auto& poses_of_req : *spec.requests) {
    serve::ScoreRequest req;
    req.scorer = spec.scorer;
    req.client = "replay";
    req.poses = poses_of_req;
    std::string frame, payload_bytes;
    {
      Span s(tracer, "wire.pack", root.id(), id);
      payload_bytes = serve::wire::pack_request(req, id).encode();
      frame = serve::wire::encode_frame(serve::wire::FrameType::kScoreRequest, payload_bytes);
    }
    {
      Span s(tracer, "wire.unpack", root.id(), id);
      const serve::wire::ScoreRequestPayload payload =
          serve::wire::ScoreRequestPayload::decode(payload_bytes);
      const serve::ScoreRequest back = serve::wire::unpack_request(payload);
      if (back.poses.size() != req.poses.size()) throw std::runtime_error("wire replay: pose count");
    }
    frame_bytes += static_cast<double>(frame.size());
    poses += static_cast<double>(req.poses.size());
    ++id;
  }
  out.set("wire.pack_us_per_request", mean(tracer.durations_ms("wire.pack")) * 1e3);
  out.set("wire.unpack_us_per_request", mean(tracer.durations_ms("wire.unpack")) * 1e3);
  if (poses > 0) out.set("wire.bytes_per_pose", frame_bytes / poses);
}

/// The multi-node path on the workload's own requests: one node (serving
/// the benchmark SG-CNN in the workload's batch and cache shape), a
/// ScoreClient scoring the first requests once, then a ClusterController
/// scoring them again as units, one at a time.
void replay_multi_node(const ReplaySpec& spec, Tracer& tracer, PerLayer& out) {
  Span root(tracer, "replay.multi_node");
  NodeProcess node(spec.run_dir, 0);
  node.start(0, spec.poses_per_batch, static_cast<int>(std::max<size_t>(1, spec.cache_targets)));
  const int port = node.wait_port();
  const size_t n = std::min(kMultiNodeRequests, spec.requests->size());
  const auto request = [&](size_t i) {
    serve::ScoreRequest req;
    req.scorer = kNodeScorer;
    req.client = "replay";
    req.poses = (*spec.requests)[i];
    return req;
  };
  serve::ClientConfig cc;
  cc.port = port;
  cc.connections = 1;
  cc.request_timeout_ms = 20000;
  serve::ScoreClient client(cc);
  for (size_t i = 0; i < n; ++i) {
    const serve::ScoreRequest req = request(i);
    Span s(tracer, "client.score", root.id(), i + 1);
    if (client.score(req).error != serve::ScoreError::kNone) {
      throw std::runtime_error("multi-node replay: ScoreClient::score failed");
    }
  }
  const serve::ClientStats cs = client.stats();
  client.close();

  screen::ClusterController controller(node_controller_config());
  std::string error;
  if (!controller.register_node("127.0.0.1", port, &error)) {
    throw std::runtime_error("multi-node replay: register_node failed: " + error);
  }
  for (size_t i = 0; i < n; ++i) {
    Span s(tracer, "controller.unit", root.id(), i + 1);
    controller.submit_unit(static_cast<uint32_t>(i), request(i).poses);
    if (!controller.wait_unit().ok) throw std::runtime_error("multi-node replay: unit failed");
  }
  const screen::ControllerStats ks = controller.stats();
  controller.stop();
  node.stop();

  out.set("client.retries", static_cast<double>(cs.retries));
  out.set("client.transport_failures", static_cast<double>(cs.transport_failures));
  out.set("controller.dispatches_per_unit",
          static_cast<double>(ks.dispatches) / static_cast<double>(ks.units_finished));
  out.set("controller.requeues", static_cast<double>(ks.requeues));
}

}  // namespace

void replay_layers(const ReplaySpec& spec, const Floors& floors, Tracer& tracer, PerLayer& out) {
  replay_scorer(spec, tracer, out);
  const std::vector<data::Sample> samples = replay_chem(spec, tracer, out);
  replay_models(spec, samples, floors, tracer, out);
  if (spec.wire) replay_wire(spec, tracer, out);
  if (spec.multi_node) replay_multi_node(spec, tracer, out);
  out.set("core.sgemm_gflops", floors.sgemm_gflops);
  out.set("core.memcpy_gbps", floors.memcpy_gbps);
}

}  // namespace perfbench
