#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "workloads.h"

namespace perfbench {

RungResult fold_rung(const Rung& rung, double duration_s, const std::vector<double>& due,
                     const std::vector<double>& sent, const std::vector<double>& done,
                     double poses, uint64_t failed) {
  RungResult r;
  r.offered_poses_per_s = rung.poses_per_s;
  r.failed = failed;
  std::vector<double> latency_ms;
  latency_ms.reserve(due.size());
  double last_done = duration_s;
  for (size_t i = 0; i < due.size(); ++i) {
    latency_ms.push_back((done[i] - due[i]) * 1e3);
    last_done = std::max(last_done, done[i]);
  }
  r.latency = summarize(latency_ms);
  const PooledTail tail = pooled_tail(latency_ms, kTailWindow);
  r.windows = tail.windows;
  r.windows_left_out = tail.left_out;
  r.window_tail = tail.kept.tail;
  r.window_tail_q = tail.kept.tail_q;
  r.lateness = lateness(due, sent);
  r.backlog_grew = backlog_grows(due, done, duration_s);
  r.achieved_poses_per_s = poses / last_done;
  return r;
}

void print_rung(const char* workload, const RungResult& r, double limit_ms) {
  std::printf(
      "%s rung %8.1f poses/s: achieved %8.1f, latency p50 %.3f ms, p%.1f %.3f ms (n=%zu), "
      "p%.1f %.3f ms without the worst %zu of %zu windows, generator late p50 %.3f ms max %.3f "
      "ms, backlog %s, failed %llu -> %s\n",
      workload, r.offered_poses_per_s, r.achieved_poses_per_s, r.latency.p50,
      r.latency.tail_q * 100.0, r.latency.tail, r.latency.n, r.window_tail_q * 100.0,
      r.window_tail, r.windows_left_out, r.windows, r.lateness.p50_ms,
      r.lateness.max_ms, r.backlog_grew ? "grows" : "steady",
      static_cast<unsigned long long>(r.failed),
      r.meets(limit_ms) ? "meets limit" : "misses limit");
}

void print_segments(const char* workload, const Segments& s) {
  std::printf("%s saturation: %zu segments of %.3f s, poses/s per segment:", workload,
              s.size(), s.segment_s);
  for (double r : s.rates(s.poses, 0, 1)) std::printf(" %.0f", r);
  std::printf("\n");
}

void print_setup(const std::vector<double>& setup_s) {
  std::printf("setup: %zu set-ups, min %.6f s, median %.6f s, max %.6f s\n", setup_s.size(),
              quantile(setup_s, 0.0), median(setup_s), quantile(setup_s, 1.0));
}

bool ResponseChecks::take(uint64_t request, bool ok_verdict, const std::vector<float>& scores,
                          size_t poses) {
  ++attempted;
  bool ok = ok_verdict && scores.size() == poses;
  for (float s : scores) ok = ok && std::isfinite(s);
  if (!ok) {
    ++failed;
  } else if (sampled.size() < kRescoreSamples &&
             df::core::derive_stream(seed, 0x5245534355ULL, request) % 8 == 0) {  // "RESCU"
    sampled.emplace_back(request, scores);
  }
  return ok;
}

uint64_t rescore_mismatches(df::serve::Scorer& replica, const ResponseChecks& checks, size_t chunk,
                            const std::function<std::vector<df::serve::PoseInput>(uint64_t)>& poses_of) {
  uint64_t mismatches = 0;
  for (const auto& [request, scores] : checks.sampled) {
    const std::vector<df::serve::PoseInput> poses = poses_of(request);
    std::vector<float> want;
    for (size_t b = 0; b < poses.size(); b += chunk) {
      std::vector<const df::serve::PoseInput*> part;
      for (size_t i = b; i < std::min(poses.size(), b + chunk); ++i) part.push_back(&poses[i]);
      const std::vector<float> got = replica.score(part);
      want.insert(want.end(), got.begin(), got.end());
    }
    if (want.size() != scores.size() ||
        std::memcmp(want.data(), scores.data(), want.size() * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  return mismatches;
}

LadderResult run_ladder(const char* workload, const std::vector<Rung>& ladder, double seconds,
                        double p99_limit_ms, uint64_t seed, const RungRunner& run) {
  double weights = 0.0;
  for (const Rung& r : ladder) weights += r.weight;
  LadderResult out;
  for (size_t i = 0; i < ladder.size(); ++i) {
    const Rung& rung = ladder[i];
    const RungResult r = run(rung, seconds * rung.weight / weights,
                             df::core::derive_stream(seed, 0x4C4144ULL, i));  // "LAD"
    print_rung(workload, r, p99_limit_ms);
    if (rung.reference) out.reference = r;
    if (r.meets(p99_limit_ms) && r.offered_poses_per_s > out.best.offered_poses_per_s) out.best = r;
  }
  return out;
}

}  // namespace perfbench
