// The benchmark's workloads. Each one builds its inputs from the seed, sets
// up the system under test, measures it for opt.seconds and checks every
// score it produced. The untraced run fills the end-to-end metrics; the
// traced run records spans, replays the layers and fills the per-layer
// metrics instead.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "host.h"
#include "serve/scorer.h"

namespace perfbench {

struct WorkloadRun {
  RunResult result;
  Floors floors;  // measured once per run, after peak RSS was read
};

WorkloadRun run_screen_campaign(const Options& opt, Tracer& tracer);
WorkloadRun run_serve_fusion_hot(const Options& opt, Tracer& tracer);
WorkloadRun run_cluster_many_targets(const Options& opt, Tracer& tracer);

// ---- pieces shared by the two serving workloads ---------------------------

/// Completions of a closed-loop saturation phase, counted per equal time
/// segment. The rate a workload reports is the median segment's, so one
/// stalled second does not move it; the traced run turns tracing on in the
/// odd segments only and compares them with the even ones.
struct Segments {
  double segment_s = 0.0;
  /// Per segment: completions after its first one, their poses, and the
  /// time from its first to its last completion. Rates divide the work
  /// done after the first completion by that span, so they are not rounded
  /// to whole requests per segment.
  std::vector<double> poses, requests, first_s, last_s;
  /// Latency (ms, from submission) of every request completed in a
  /// segment, in completion order, and its segment.
  std::vector<double> latency_ms;
  std::vector<size_t> latency_segment;

  Segments(int n, double seconds_each)
      : segment_s(seconds_each), poses(static_cast<size_t>(n), 0.0),
        requests(static_cast<size_t>(n), 0.0), first_s(static_cast<size_t>(n), -1.0),
        last_s(static_cast<size_t>(n), -1.0) {}
  size_t size() const { return poses.size(); }
  /// Count one completed request `t` seconds into the phase; returns its
  /// segment (>= size() once the phase is over). Completions before 0 fall
  /// in the warm-up and are not counted.
  size_t count(double t, double request_poses, double request_latency_ms) {
    if (t < 0.0) return 0;
    const size_t seg = static_cast<size_t>(t / segment_s);
    if (seg < size()) {
      latency_ms.push_back(request_latency_ms);
      latency_segment.push_back(seg);
      if (first_s[seg] < 0.0) {
        first_s[seg] = t;
      } else {
        poses[seg] += request_poses;
        requests[seg] += 1.0;
      }
      last_s[seg] = t;
    }
    return seg;
  }
  /// Latencies of every `step`-th segment from `first`.
  std::vector<double> latencies(size_t first, size_t step) const {
    std::vector<double> out;
    for (size_t i = 0; i < latency_ms.size(); ++i) {
      if (latency_segment[i] >= first && (latency_segment[i] - first) % step == 0) {
        out.push_back(latency_ms[i]);
      }
    }
    return out;
  }
  /// Per-second rates of every `step`-th segment from `first`.
  std::vector<double> rates(const std::vector<double>& counts, size_t first, size_t step) const {
    std::vector<double> out;
    for (size_t i = first; i < size(); i += step) {
      if (last_s[i] > first_s[i]) out.push_back(counts[i] / (last_s[i] - first_s[i]));
    }
    return out;
  }
};

void print_segments(const char* workload, const Segments& s);

/// The spread of the set-ups whose median is setup_s.
void print_setup(const std::vector<double>& setup_s);

/// One rung of an open-loop ladder: offered poses/s, how long it runs, and
/// whether it is the reference rate, whose latency is printed as the
/// latency at that rate.
struct Rung {
  double poses_per_s = 0.0;
  double weight = 1.0;  // share of the ladder's time
  bool reference = false;
};

/// What one rung measured. Latencies run from each request's due time.
struct RungResult {
  double offered_poses_per_s = 0.0;
  double achieved_poses_per_s = 0.0;
  LatencySummary latency;  // ms, over the whole rung
  /// The rung's tail, ms, as pooled_tail gives it over windows of
  /// kTailWindow requests (by due time); the pass/fail test of the rung.
  double window_tail = 0.0;
  double window_tail_q = 0.0;
  size_t windows = 0;
  size_t windows_left_out = 0;
  Lateness lateness;
  bool backlog_grew = false;
  uint64_t failed = 0;
  bool meets(double p99_limit_ms) const {
    return failed == 0 && !backlog_grew && window_tail <= p99_limit_ms;
  }
};

inline constexpr size_t kTailWindow = 500;

/// Fold per-request (due, sent, done) times of a rung into its result.
RungResult fold_rung(const Rung& rung, double duration_s, const std::vector<double>& due,
                     const std::vector<double>& sent, const std::vector<double>& done,
                     double poses, uint64_t failed);

void print_rung(const char* workload, const RungResult& r, double limit_ms);

/// Response checks of the serving workloads: every response must carry one
/// finite score per pose. A seeded sample of the good ones (the first
/// kRescoreSamples) is kept for the bitwise rescore after the timed phases.
inline constexpr size_t kRescoreSamples = 64;

struct ResponseChecks {
  uint64_t seed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<uint64_t, std::vector<float>>> sampled;  // (request, scores)

  /// Returns whether the response was good.
  bool take(uint64_t request, bool ok_verdict, const std::vector<float>& scores, size_t poses);
};

/// Re-derive the sampled scores on a private sequential replica, scoring
/// each request in chunks of `chunk` poses, and count the responses that
/// differ from it in any bit.
uint64_t rescore_mismatches(df::serve::Scorer& replica, const ResponseChecks& checks, size_t chunk,
                            const std::function<std::vector<df::serve::PoseInput>(uint64_t)>& poses_of);

/// Run every rung of a ladder for its share of `seconds`; the reference
/// rung's result and the best rung meeting the p99 limit come back.
struct LadderResult {
  RungResult reference;
  RungResult best;
};
using RungRunner =
    std::function<RungResult(const Rung& rung, double duration_s, uint64_t schedule_seed)>;
LadderResult run_ladder(const char* workload, const std::vector<Rung>& ladder, double seconds,
                        double p99_limit_ms, uint64_t seed, const RungRunner& run);

}  // namespace perfbench
