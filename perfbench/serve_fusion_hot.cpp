// serve_fusion_hot: an in-process ScoringService serving fp32 fusion at the
// bench_common.h shapes in coalescing mode, pipeline depth 2, pocket cache
// on, over 4 binding-site-scale receptors (2048-atom clouds). Each request
// is one compound's 8 poses against one receptor, spread uniformly. A
// closed-loop saturation phase runs first and gives the throughput and the
// latency metrics, then an open-loop Poisson ladder of fixed rates gives the
// highest rate that meets the p99 limit. The forward dominates here and the cache hits on nearly
// every lookup, so forward-kernel, batching and pipeline changes show most.
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "replay.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

using namespace df;

namespace {

constexpr int kReceptors = 4;
constexpr int kReceptorAtoms = 2048;
constexpr int kCompounds = 48;
constexpr int kPosesPerRequest = 8;
constexpr int kPlanLength = 4096;  // request plan, cycled
constexpr int kWorkers = 2;        // x (worker + pipeline stage thread) = 4 threads
constexpr int kPosesPerBatch = 32;
constexpr int kPipelineDepth = 2;
constexpr int kSetupReps = 21;
constexpr size_t kWindow = 32;  // closed loop: requests kept in flight
constexpr double kSaturationShare = 0.4;
constexpr int kSaturationSegments = 20;
constexpr double kWarmupSeconds = 1.0;  // closed loop before the first segment
constexpr size_t kReplayRequests = 256;

// Open-loop ladder, absolute poses/s, chosen from the seed commit's
// saturation rate on the 4-core reference host (see README.md): the lower
// rungs and the reference rung meet the p99 limit, the top rung is beyond
// saturation and must not.
constexpr double kP99LimitMs = 100.0;
const std::vector<Rung> kLadder = {
    {800.0, 1.0, false},
    {1200.0, 3.0, true},
    {2000.0, 3.0, false},
    {6000.0, 1.0, false},
};

const char* const kScorer = "fusion";

struct Inputs {
  std::vector<std::vector<chem::Atom>> receptors;
  std::vector<std::vector<chem::Molecule>> compounds;  // [compound][pose]
  std::vector<std::pair<int, int>> plan;               // (compound, receptor)

  explicit Inputs(uint64_t seed) {
    core::Rng rng(core::derive_stream(seed, 0x5345525645ULL, 0));  // "SERVE"
    for (int r = 0; r < kReceptors; ++r) receptors.push_back(make_cloud_pocket(kReceptorAtoms, rng));
    compounds = make_compound_poses(kCompounds, kPosesPerRequest, rng);
    for (int i = 0; i < kPlanLength; ++i) {
      plan.emplace_back(static_cast<int>(rng.pick(kCompounds)),
                        static_cast<int>(rng.pick(kReceptors)));
    }
  }

  std::vector<serve::PoseInput> poses(uint64_t idx) const {
    const auto [c, r] = plan[idx % plan.size()];
    std::vector<serve::PoseInput> out;
    for (const chem::Molecule& m : compounds[static_cast<size_t>(c)]) {
      serve::PoseInput p;
      p.ligand = m;
      p.pocket = &receptors[static_cast<size_t>(r)];
      out.push_back(std::move(p));
    }
    return out;
  }

  serve::ScoreRequest request(uint64_t idx) const {
    serve::ScoreRequest req;
    req.scorer = kScorer;
    req.client = "perfbench";
    req.poses = poses(idx);
    return req;
  }
};

std::unique_ptr<serve::ScoringService> build_service(const Inputs& in) {
  serve::ModelRegistry reg;
  serve::add_regressor(reg, kScorer, fusion_factory(), bench_voxel_config());
  serve::ServiceConfig sc;
  sc.workers = kWorkers;
  sc.poses_per_batch = kPosesPerBatch;
  sc.ordered_stream = false;
  sc.pipeline_depth = kPipelineDepth;
  sc.pocket_cache_targets = kReceptors;
  auto svc = std::make_unique<serve::ScoringService>(reg, sc);
  svc->warmup(kScorer);
  // Fill the pocket cache: one request per receptor.
  for (int r = 0; r < kReceptors; ++r) {
    serve::ScoreRequest req;
    req.scorer = kScorer;
    req.poses = in.poses(0);
    for (serve::PoseInput& p : req.poses) p.pocket = &in.receptors[static_cast<size_t>(r)];
    const serve::ScoreResponse resp = svc->score(std::move(req));
    if (resp.error != serve::ScoreError::kNone) {
      throw std::runtime_error("serve setup: cache fill failed: " + resp.message);
    }
  }
  return svc;
}

/// Closed loop: one thread keeps kWindow requests in flight for
/// `segments` x `segment_s` seconds. In the traced run, tracing is on in
/// the odd segments only, so the traced and untraced rates come from one
/// continuous loop.
Segments saturate(serve::ScoringService& svc, const Inputs& in, int segments, double segment_s,
                  bool alternate_tracing, uint64_t& next_idx, Tracer& tracer, ResponseChecks& checks) {
  struct Outstanding {
    std::future<serve::ScoreResponse> fut;
    uint64_t idx;
    Clock::time_point t0;
  };
  std::deque<Outstanding> window;
  Segments s(segments, segment_s);
  const auto t0 = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(kWarmupSeconds));
  auto submit = [&] {
    const uint64_t idx = next_idx++;
    serve::ScoreRequest req = in.request(idx);
    const auto s0 = Clock::now();
    auto fut = svc.submit(std::move(req));
    tracer.record("serve.submit", s0, Clock::now(), 0, idx + 1);
    window.push_back({std::move(fut), idx, s0});
  };
  auto complete = [&](Outstanding& o) {
    const serve::ScoreResponse resp = o.fut.get();
    const auto now = Clock::now();
    tracer.record("serve.request", o.t0, now, 0, o.idx + 1);
    checks.take(o.idx, resp.error == serve::ScoreError::kNone, resp.scores, kPosesPerRequest);
    return s.count(std::chrono::duration<double>(now - t0).count(), kPosesPerRequest,
                   std::chrono::duration<double, std::milli>(now - o.t0).count());
  };
  size_t seg = 0;
  if (alternate_tracing) tracer.set_enabled(false);
  while (seg < s.size()) {
    while (window.size() < kWindow) submit();
    Outstanding o = std::move(window.front());
    window.pop_front();
    const size_t now_seg = complete(o);
    if (now_seg != seg && alternate_tracing) tracer.set_enabled(now_seg % 2 == 1);
    seg = now_seg;
  }
  for (Outstanding& o : window) complete(o);
  if (alternate_tracing) tracer.set_enabled(true);
  return s;
}

/// One open-loop rung: this thread sends on the Poisson schedule, a
/// collector thread stamps completions. Completions are observed in
/// submission order; after the oldest resolves, every later request that
/// is already ready is stamped at the same instant, so a stamp trails the
/// true completion by at most the wait on the request ahead of it.
RungResult run_rung(serve::ScoringService& svc, const Inputs& in, const Rung& rung,
                    double duration, uint64_t schedule_seed, uint64_t& next_idx, Tracer& tracer,
                    ResponseChecks& checks) {
  const std::vector<double> due =
      poisson_schedule(rung.poses_per_s / kPosesPerRequest, duration, schedule_seed);
  const size_t n = due.size();
  std::vector<double> sent(n, 0.0), done(n, 0.0);
  std::vector<uint64_t> idx_of(n);
  std::vector<uint64_t> failed_flags(n, 0);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::future<serve::ScoreResponse>>> queue;
  bool sending = true;
  const auto start = Clock::now();
  auto since_start = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };

  std::thread collector([&] {
    std::deque<std::pair<size_t, std::future<serve::ScoreResponse>>> pending;
    std::vector<bool> stamped(n, false);
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || !sending; });
        while (!queue.empty()) {
          pending.push_back(std::move(queue.front()));
          queue.pop_front();
        }
        if (pending.empty() && !sending) return;
      }
      while (!pending.empty()) {
        auto [i, fut] = std::move(pending.front());
        pending.pop_front();
        fut.wait();
        const double now = since_start();
        if (!stamped[i]) done[i] = now;
        for (auto& [j, f] : pending) {
          if (!stamped[j] && f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            done[j] = now;
            stamped[j] = true;
          }
        }
        const serve::ScoreResponse resp = fut.get();
        failed_flags[i] =
            checks.take(idx_of[i], resp.error == serve::ScoreError::kNone, resp.scores,
                        kPosesPerRequest) ? 0 : 1;
        tracer.record("serve.request", start + std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double>(sent[i])),
                      start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(done[i])),
                      0, idx_of[i] + 1);
        // Pick up newly submitted requests before blocking again.
        std::lock_guard<std::mutex> lock(mu);
        while (!queue.empty()) {
          pending.push_back(std::move(queue.front()));
          queue.pop_front();
        }
      }
    }
  });

  for (size_t i = 0; i < n; ++i) {
    idx_of[i] = next_idx++;
    serve::ScoreRequest req = in.request(idx_of[i]);
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(due[i])));
    const auto s0 = Clock::now();
    sent[i] = since_start();
    auto fut = svc.submit(std::move(req));
    tracer.record("serve.submit", s0, Clock::now(), 0, idx_of[i] + 1);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.emplace_back(i, std::move(fut));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sending = false;
  }
  cv.notify_one();
  collector.join();

  uint64_t failed = 0;
  for (uint64_t f : failed_flags) failed += f;
  return fold_rung(rung, duration, due, sent, done,
                   static_cast<double>(n * kPosesPerRequest), failed);
}

}  // namespace

WorkloadRun run_serve_fusion_hot(const Options& opt, Tracer& tracer) {
  WorkloadRun out;
  const Inputs in(opt.seed);
  ResponseChecks checks;
  checks.seed = opt.seed;
  const bool traced = tracer.enabled();

  std::unique_ptr<serve::ScoringService> svc;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = build_service(in);
    setup_s.push_back(seconds_since(t0));
  }

  uint64_t next_idx = 0;
  const double sat_seconds = opt.seconds * kSaturationShare;
  const Segments sat = saturate(*svc, in, kSaturationSegments, sat_seconds / kSaturationSegments,
                                traced, next_idx, tracer, checks);
  // Untraced run: every segment; traced run: even segments untraced, odd traced.
  const double sat_pps = median(sat.rates(sat.poses, 0, traced ? 2 : 1));
  const double sat_rps = median(sat.rates(sat.requests, 0, traced ? 2 : 1));
  const double overhead = traced ? 1.0 - median(sat.rates(sat.poses, 1, 2)) / sat_pps : 0.0;
  const std::vector<double> sat_latency = sat.latencies(0, traced ? 2 : 1);
  const LatencySummary sat_lat = summarize(sat_latency);
  const PooledTail sat_tail = pooled_tail(sat_latency, kTailWindow);
  const serve::ServiceStats sat_stats = svc->stats();
  print_segments("serve_fusion_hot", sat);

  const LadderResult ladder = run_ladder(
      "serve_fusion_hot", kLadder, opt.seconds - sat_seconds, kP99LimitMs, opt.seed,
      [&](const Rung& rung, double duration, uint64_t schedule_seed) {
        return run_rung(*svc, in, rung, duration, schedule_seed, next_idx, tracer, checks);
      });
  const RungResult& reference = ladder.reference;
  const serve::ServiceStats stats = svc->stats();
  const std::shared_ptr<serve::PocketCache> cache = svc->pocket_cache();
  const serve::PocketCache::Stats cache_stats = cache->stats();
  svc.reset();

  // Sequential replica, no pipeline, no cache; a request is one batch.
  serve::RegressorScorer replica(kScorer, fusion_factory()(), bench_voxel_config(), {});
  const uint64_t mismatches = rescore_mismatches(replica, checks, kPosesPerBatch,
                                                 [&](uint64_t idx) { return in.poses(idx); });
  std::printf("serve_fusion_hot correctness: %llu requests, %llu failed, %zu rescored on a "
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
    e.peak_rss_mb = peak_rss_mb_self();
    std::printf("serve_fusion_hot latency at saturation (%zu in flight): p50 %.3f ms (n=%zu); "
                "p%.1f %.3f ms without the worst %zu of %zu windows (n=%zu)\n",
                kWindow, sat_lat.p50, sat_lat.n, sat_tail.kept.tail_q * 100.0,
                sat_tail.kept.tail, sat_tail.left_out, sat_tail.windows, sat_tail.kept.n);
    std::printf("serve_fusion_hot latency at %.0f poses/s: p50 %.3f ms; p%.1f %.3f ms without the "
                "worst %zu of %zu windows; whole rung p%.1f %.3f ms (n=%zu)\n",
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
  const double batches = static_cast<double>(stats.batches);
  layers.set("serve.batch_fill", static_cast<double>(stats.poses) / (batches * kPosesPerBatch));
  layers.set("serve.coalesced_share", static_cast<double>(stats.coalesced_batches) / batches);
  layers.set("serve.peak_queued_poses", static_cast<double>(stats.peak_queued_poses));
  layers.set("serve.submit_block_ms_p99", summarize(tracer.durations_ms("serve.submit")).tail);
  const uint64_t lookups = cache_stats.hits + cache_stats.misses;
  layers.set("serve.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(cache_stats.hits) / static_cast<double>(lookups) : 0.0);
  layers.set("serve.cache_evictions", static_cast<double>(cache_stats.evictions));
  std::printf("serve_fusion_hot ServiceStats (saturation): requests %llu, batches %llu, full %llu, "
              "coalesced %llu, peak queued %zu; whole run: batches %llu, peak queued %zu; "
              "PocketCache hits %llu misses %llu evictions %llu\n",
              static_cast<unsigned long long>(sat_stats.requests),
              static_cast<unsigned long long>(sat_stats.batches),
              static_cast<unsigned long long>(sat_stats.full_batches),
              static_cast<unsigned long long>(sat_stats.coalesced_batches),
              sat_stats.peak_queued_poses, static_cast<unsigned long long>(stats.batches),
              stats.peak_queued_poses, static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.evictions));

  out.floors = measure_floors();
  std::vector<std::vector<serve::PoseInput>> requests;
  for (uint64_t i = 0; i < kReplayRequests; ++i) requests.push_back(in.poses(i));
  ReplaySpec spec;
  spec.scorer = kScorer;
  spec.factory = fusion_factory();
  spec.voxel = bench_voxel_config();
  spec.requests = &requests;
  spec.poses_per_batch = kPosesPerBatch;
  spec.ordered = false;
  spec.cache_targets = kReceptors;
  spec.wire = true;
  spec.multi_node = true;
  spec.run_dir = opt.run_dir;
  replay_layers(spec, out.floors, tracer, layers);
  out.result.metrics = layers.metrics();
  return out;
}

}  // namespace perfbench
