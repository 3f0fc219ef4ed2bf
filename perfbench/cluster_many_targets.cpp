// cluster_many_targets: a load generator drives 2 score_server_node
// processes over localhost. Each node serves sgcnn with 2 workers and a
// pocket cache smaller than the target set. Requests carry 6-8 poses of one
// compound and cover 32 receptors of mixed size (48-2048 atoms) with Zipf
// popularity, so the cache both hits and misses, and every request frame
// carries its pocket. Closed-loop saturation goes through ClusterController
// units; the open-loop ladder goes through ScoreClient. The forward is
// cheap here: wire, queue/dispatch, featurize and cache-build changes show,
// forward changes should read about flat.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "node.h"
#include "replay.h"
#include "screen/controller.h"
#include "serve/client.h"
#include "workloads.h"

namespace perfbench {

using namespace df;

namespace {

constexpr int kNodes = 2;
constexpr int kNodePosesPerBatch = 4;  // a 6-8 pose request spans both workers
constexpr int kNodeCacheTargets = 12;  // < kReceptors: the cache must also miss
constexpr int kReceptors = 32;
constexpr int kMinAtoms = 48;
constexpr int kMaxAtoms = 2048;
constexpr double kZipfS = 1.0;
constexpr int kRankStride = 13;  // coprime with kReceptors
constexpr int kCompounds = 64;
constexpr int kMaxPoses = 8;
constexpr int kPlanLength = 4096;
constexpr int kSetupReps = 9;
constexpr size_t kUnitsInFlight = 4;  // controller queue depth (2 on the wire)
constexpr double kSaturationShare = 0.2;
constexpr int kSaturationSegments = 12;
constexpr double kWarmupSeconds = 1.0;  // closed loop before the first segment
constexpr size_t kReplayRequests = 256;
const char* const kScorer = kNodeScorer;

// Open-loop ladder, absolute poses/s, chosen from the seed commit's
// saturation rate on the 4-core reference host (see README.md).
constexpr double kP99LimitMs = 50.0;
const std::vector<Rung> kLadder = {
    {1000.0, 1.0, false},
    {1500.0, 12.0, true},
    {2500.0, 1.0, false},
    {9000.0, 1.0, false},
};

struct Inputs {
  std::vector<std::vector<chem::Atom>> receptors;
  std::vector<std::vector<chem::Molecule>> compounds;  // [compound][pose]
  struct Req {
    int compound, receptor, poses;
  };
  std::vector<Req> plan;

  explicit Inputs(uint64_t seed) {
    core::Rng rng(core::derive_stream(seed, 0x434C5553ULL, 0));  // "CLUS"
    // Sizes log-spaced over 48-2048 atoms, spread over the popularity ranks
    // by a fixed stride, so every seed has the same size mix at the head of
    // the Zipf curve; the seed varies the atoms, compounds and request
    // sequence.
    std::vector<int> receptor_of_rank(kReceptors);
    for (int r = 0; r < kReceptors; ++r) {
      const double t = static_cast<double>(r) / (kReceptors - 1);
      const int atoms = static_cast<int>(
          std::lround(kMinAtoms * std::pow(static_cast<double>(kMaxAtoms) / kMinAtoms, t)));
      receptors.push_back(make_cloud_pocket(atoms, rng));
      receptor_of_rank[static_cast<size_t>((r * kRankStride) % kReceptors)] = r;
    }
    compounds = make_compound_poses(kCompounds, kMaxPoses, rng);
    const ZipfSampler zipf(kReceptors, kZipfS);
    for (int i = 0; i < kPlanLength; ++i) {
      Req q;
      q.compound = static_cast<int>(rng.pick(kCompounds));
      q.receptor = receptor_of_rank[zipf(rng.uniform_d(0.0, 1.0))];
      q.poses = static_cast<int>(rng.randint(6, kMaxPoses));
      plan.push_back(q);
    }
  }

  std::vector<serve::PoseInput> poses(uint64_t idx) const {
    const Req& q = plan[idx % plan.size()];
    std::vector<serve::PoseInput> out;
    for (int i = 0; i < q.poses; ++i) {
      serve::PoseInput p;
      p.ligand = compounds[static_cast<size_t>(q.compound)][static_cast<size_t>(i)];
      p.pocket = &receptors[static_cast<size_t>(q.receptor)];
      out.push_back(std::move(p));
    }
    return out;
  }
};


/// Closed loop through the controller: kUnitsInFlight units outstanding
/// for `segments` x `segment_s` seconds (tracing on in odd segments only
/// when `alternate_tracing`).
Segments saturate(screen::ClusterController& controller, const Inputs& in, int segments,
                  double segment_s, bool alternate_tracing, uint64_t& next_idx, Tracer& tracer,
                  ResponseChecks& checks) {
  struct Sent {
    uint64_t idx;
    size_t poses;
    Clock::time_point t0;
  };
  std::map<uint32_t, Sent> sent;
  Segments s(segments, segment_s);
  const auto t0 = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(kWarmupSeconds));
  size_t seg = 0;
  if (alternate_tracing) tracer.set_enabled(false);
  while (seg < s.size() || !sent.empty()) {
    while (seg < s.size() && sent.size() < kUnitsInFlight) {
      const uint64_t idx = next_idx++;
      std::vector<serve::PoseInput> poses = in.poses(idx);
      const uint32_t unit = static_cast<uint32_t>(idx);
      sent[unit] = {idx, poses.size(), Clock::now()};
      controller.submit_unit(unit, std::move(poses));
    }
    const screen::UnitResult r = controller.wait_unit();
    const auto now = Clock::now();
    const auto it = sent.find(r.unit_id);
    if (it == sent.end()) throw std::runtime_error("cluster: verdict for an unknown unit");
    tracer.record("controller.unit", it->second.t0, now, 0, it->second.idx + 1);
    checks.take(it->second.idx, r.ok, r.scores, it->second.poses);
    const size_t now_seg = s.count(
        std::chrono::duration<double>(now - t0).count(), static_cast<double>(it->second.poses),
        std::chrono::duration<double, std::milli>(now - it->second.t0).count());
    sent.erase(it);
    if (now_seg != seg && alternate_tracing) tracer.set_enabled(now_seg % 2 == 1);
    seg = now_seg;
  }
  if (alternate_tracing) tracer.set_enabled(true);
  return s;
}

/// One open-loop rung over ScoreClient: one sender thread per node, each
/// with one connection, sends every other request of the Poisson schedule
/// when it is due and times it from then.
RungResult run_rung(std::vector<std::unique_ptr<serve::ScoreClient>>& clients, const Inputs& in,
                    const Rung& rung, double duration, uint64_t schedule_seed,
                    uint64_t& next_idx, Tracer& tracer, ResponseChecks& checks) {
  const double mean_poses = 0.5 * (6 + kMaxPoses);
  const std::vector<double> due =
      poisson_schedule(rung.poses_per_s / mean_poses, duration, schedule_seed);
  const size_t n = due.size();
  std::vector<double> sent(n, 0.0), done(n, 0.0);
  std::vector<uint64_t> idx_of(n);
  std::vector<size_t> poses_of(n);
  std::vector<std::vector<float>> scores(n);
  std::vector<char> ok(n, 0);
  for (size_t i = 0; i < n; ++i) idx_of[i] = next_idx++;
  const auto start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  std::vector<std::thread> senders;
  for (size_t t = 0; t < clients.size(); ++t) {
    senders.emplace_back([&, t] {
      for (size_t i = t; i < n; i += clients.size()) {
        serve::ScoreRequest req;
        req.scorer = kScorer;
        req.client = "perfbench";
        req.poses = in.poses(idx_of[i]);
        poses_of[i] = req.poses.size();
        std::this_thread::sleep_until(at(due[i]));
        const auto s0 = Clock::now();
        sent[i] = std::chrono::duration<double>(s0 - start).count();
        const serve::ScoreResponse resp = clients[t]->score(req);
        const auto s1 = Clock::now();
        done[i] = std::chrono::duration<double>(s1 - start).count();
        tracer.record("client.score", s0, s1, 0, idx_of[i] + 1);
        ok[i] = resp.error == serve::ScoreError::kNone;
        scores[i] = resp.scores;
      }
    });
  }
  for (std::thread& t : senders) t.join();
  uint64_t failed = 0;
  double poses = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!checks.take(idx_of[i], ok[i] != 0, scores[i], poses_of[i])) ++failed;
    poses += static_cast<double>(poses_of[i]);
  }
  return fold_rung(rung, duration, due, sent, done, poses, failed);
}

}  // namespace

WorkloadRun run_cluster_many_targets(const Options& opt, Tracer& tracer) {
  WorkloadRun out;
  const Inputs in(opt.seed);
  ResponseChecks checks;
  checks.seed = opt.seed;
  const bool traced = tracer.enabled();

  // Set-up: node spawn through Hello/registration, repeated; the last
  // fleet stays up for the measurement.
  std::vector<std::unique_ptr<NodeProcess>> fleet;
  std::unique_ptr<screen::ClusterController> controller;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (controller) controller->stop();
    controller.reset();
    fleet.clear();
    const auto t0 = Clock::now();
    for (int i = 0; i < kNodes; ++i) {
      fleet.push_back(std::make_unique<NodeProcess>(opt.run_dir, i));
      fleet.back()->start(rep, kNodePosesPerBatch, kNodeCacheTargets);
    }
    controller = std::make_unique<screen::ClusterController>(node_controller_config());
    for (auto& node : fleet) {
      const int port = node->wait_port();
      std::string error;
      if (!controller->register_node("127.0.0.1", port, &error)) {
        throw std::runtime_error("cluster: register_node failed: " + error);
      }
    }
    setup_s.push_back(seconds_since(t0));
  }

  uint64_t next_idx = 0;
  const double sat_seconds = opt.seconds * kSaturationShare;
  const Segments sat = saturate(*controller, in, kSaturationSegments,
                                sat_seconds / kSaturationSegments, traced, next_idx, tracer,
                                checks);
  const double sat_pps = median(sat.rates(sat.poses, 0, traced ? 2 : 1));
  const double sat_rps = median(sat.rates(sat.requests, 0, traced ? 2 : 1));
  const double overhead = traced ? 1.0 - median(sat.rates(sat.poses, 1, 2)) / sat_pps : 0.0;
  const std::vector<double> sat_latency = sat.latencies(0, traced ? 2 : 1);
  const LatencySummary sat_lat = summarize(sat_latency);
  const PooledTail sat_tail = pooled_tail(sat_latency, kTailWindow);
  print_segments("cluster_many_targets", sat);
  const screen::ControllerStats cstats = controller->stats();
  controller->stop();

  std::vector<std::unique_ptr<serve::ScoreClient>> clients;
  for (auto& node : fleet) {
    serve::ClientConfig cc;
    cc.port = node->port();
    cc.connections = 1;
    cc.request_timeout_ms = 20000;
    clients.push_back(std::make_unique<serve::ScoreClient>(cc));
  }
  const LadderResult ladder = run_ladder(
      "cluster_many_targets", kLadder, opt.seconds - sat_seconds, kP99LimitMs, opt.seed,
      [&](const Rung& rung, double duration, uint64_t schedule_seed) {
        return run_rung(clients, in, rung, duration, schedule_seed, next_idx, tracer, checks);
      });
  const RungResult& reference = ladder.reference;
  serve::ClientStats client_stats;
  for (const auto& c : clients) {
    const serve::ClientStats s = c->stats();
    client_stats.requests += s.requests;
    client_stats.retries += s.retries;
    client_stats.transport_failures += s.transport_failures;
  }
  clients.clear();
  double rss_mb = peak_rss_mb_self();
  for (const auto& node : fleet) rss_mb += peak_rss_mb_of(node->pid());
  controller.reset();
  fleet.clear();

  // Sequential replica, chunked the way an ordered-stream node chunks.
  serve::RegressorScorer replica(kScorer, sgcnn_factory()(), bench_voxel_config(), {});
  const uint64_t mismatches = rescore_mismatches(replica, checks, kNodePosesPerBatch,
                                                 [&](uint64_t idx) { return in.poses(idx); });
  std::printf("cluster_many_targets correctness: %llu requests, %llu failed, %zu rescored on a "
              "sequential replica, %llu bitwise mismatches\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), checks.sampled.size(),
              static_cast<unsigned long long>(mismatches));
  out.result.attempted = checks.attempted;
  out.result.failed = checks.failed + mismatches;
  out.result.correct = out.result.failed == 0 && !checks.sampled.empty();

  if (!traced) {
    EndToEnd e;
    e.setup_s = median(setup_s);
    print_setup(setup_s);
    e.poses_per_s = sat_pps;
    e.compounds_per_s = sat_rps;
    e.latency_p50_ms = sat_lat.p50;
    e.latency_p99_ms = sat_tail.kept.tail;
    e.max_rate_poses_per_s = ladder.best.achieved_poses_per_s;
    e.peak_rss_mb = rss_mb;
    std::printf("cluster_many_targets latency at saturation (%zu units in flight): p50 %.3f ms "
                "(n=%zu); p%.1f %.3f ms without the worst %zu of %zu windows (n=%zu)\n",
                kUnitsInFlight, sat_lat.p50, sat_lat.n, sat_tail.kept.tail_q * 100.0,
                sat_tail.kept.tail, sat_tail.left_out, sat_tail.windows, sat_tail.kept.n);
    std::printf("cluster_many_targets latency at %.0f poses/s: p50 %.3f ms; p%.1f %.3f ms "
                "without the worst %zu of %zu windows; whole rung p%.1f %.3f ms (n=%zu)\n",
                reference.offered_poses_per_s, reference.latency.p50,
                reference.window_tail_q * 100.0, reference.window_tail,
                reference.windows_left_out, reference.windows, reference.latency.tail_q * 100.0,
                reference.latency.tail, reference.latency.n);
    out.floors = measure_floors();
    out.result.metrics = end_to_end_metrics(e);
    return out;
  }

  PerLayer layers;
  layers.set("trace.overhead_frac", overhead);
  layers.set("client.retries", static_cast<double>(client_stats.retries));
  layers.set("client.transport_failures", static_cast<double>(client_stats.transport_failures));
  layers.set("controller.dispatches_per_unit",
             static_cast<double>(cstats.dispatches) / static_cast<double>(cstats.units_finished));
  layers.set("controller.requeues", static_cast<double>(cstats.requeues));
  std::printf("cluster_many_targets ControllerStats: units %llu, dispatches %llu, requeues %llu, "
              "deaths %llu, heartbeats %llu; ClientStats: requests %llu, retries %llu, "
              "transport failures %llu\n",
              static_cast<unsigned long long>(cstats.units_finished),
              static_cast<unsigned long long>(cstats.dispatches),
              static_cast<unsigned long long>(cstats.requeues),
              static_cast<unsigned long long>(cstats.node_deaths),
              static_cast<unsigned long long>(cstats.heartbeats),
              static_cast<unsigned long long>(client_stats.requests),
              static_cast<unsigned long long>(client_stats.retries),
              static_cast<unsigned long long>(client_stats.transport_failures));

  // Ordered-stream nodes chunk every request alone: the batch fill follows
  // from the request sizes, and no batch is ever coalesced.
  std::vector<std::vector<serve::PoseInput>> requests;
  double poses = 0.0, batches = 0.0;
  for (uint64_t i = 0; i < kReplayRequests; ++i) {
    requests.push_back(in.poses(i));
    poses += static_cast<double>(requests.back().size());
    batches += std::ceil(static_cast<double>(requests.back().size()) / kNodePosesPerBatch);
  }
  layers.set("serve.batch_fill", poses / (batches * kNodePosesPerBatch));
  layers.set("serve.coalesced_share", 0.0);

  out.floors = measure_floors();
  ReplaySpec spec;
  spec.scorer = kScorer;
  spec.factory = sgcnn_factory();
  spec.voxel = bench_voxel_config();
  spec.requests = &requests;
  spec.poses_per_batch = kNodePosesPerBatch;
  spec.ordered = true;
  spec.cache_targets = kNodeCacheTargets;
  spec.nodes = kNodes;
  spec.cache_stats_from_replay = true;
  spec.wire = true;
  replay_layers(spec, out.floors, tracer, layers);
  out.result.metrics = layers.metrics();
  return out;
}

}  // namespace perfbench
