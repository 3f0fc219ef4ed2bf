// Measurement helpers of the repository benchmark: exact quantiles over raw
// samples, the open-loop arrival schedule and its lateness, backlog-growth
// detection, metric-name rules and the one-line JSON result. Header-only so
// the unit tests (tests/test_harness.cpp) exercise exactly this code.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"  // json_escape

namespace perfbench {

// ---- exact quantiles --------------------------------------------------------

/// Nearest-rank quantile: the smallest sample x with at least ceil(q * n)
/// samples <= x. Always a real sample, never an interpolation or a bucket
/// edge. Returns 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<size_t>(rank) - 1);
  return v[idx];
}

/// Latency summary the benchmark reports: the median, the highest
/// percentile (capped at p99) that still has at least 10 samples beyond it,
/// and the sample count.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // the percentile `tail` stands for, e.g. 0.99
  double tail = 0.0;
};

inline constexpr size_t kTailBeyond = 10;

/// Highest quantile q <= 0.99 whose nearest-rank sample leaves at least
/// kTailBeyond samples above it; 0.5 when the sample is too small for any.
inline double supported_tail_quantile(size_t n) {
  if (n <= 2 * kTailBeyond) return 0.5;
  const double q = static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  return std::min(0.99, std::floor(q * 1000.0) / 1000.0);
}

inline LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = quantile(samples, 0.5);
  s.tail_q = supported_tail_quantile(samples.size());
  s.tail = quantile(samples, s.tail_q);
  return s;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// `stat` of each of the consecutive windows of `v` (in order) that hold at
/// least `per_window` values each: as many windows as fit, at least one.
template <class Stat>
std::vector<double> window_values(const std::vector<double>& v, size_t per_window, Stat stat) {
  const size_t windows = std::max<size_t>(1, v.size() / std::max<size_t>(1, per_window));
  std::vector<double> out;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = v.size() * w / windows, hi = v.size() * (w + 1) / windows;
    out.push_back(stat(std::vector<double>(v.begin() + static_cast<long>(lo),
                                           v.begin() + static_cast<long>(hi))));
  }
  return out;
}

/// A tail that a few stalls of the host do not set: the latencies (in
/// order of arrival) are cut into consecutive windows of at least
/// `per_window` values, the quarter of the windows (rounded down) with the
/// highest tails is left out, and the tail is taken over the values of the
/// others. The windows a stall lands in go; the rest keep enough samples
/// for a steady p99.
struct PooledTail {
  LatencySummary kept;  // over the values of the windows kept
  size_t windows = 0;
  size_t left_out = 0;
};

inline PooledTail pooled_tail(const std::vector<double>& latency, size_t per_window) {
  std::vector<std::vector<double>> windows;
  const std::vector<double> tails =
      window_values(latency, per_window, [&](const std::vector<double>& w) {
        windows.push_back(w);
        return summarize(w).tail;
      });
  std::vector<size_t> order(tails.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return tails[a] < tails[b]; });
  PooledTail out;
  out.windows = windows.size();
  out.left_out = windows.size() / 4;
  std::vector<double> kept;
  for (size_t i = 0; i + out.left_out < order.size(); ++i) {
    kept.insert(kept.end(), windows[order[i]].begin(), windows[order[i]].end());
  }
  out.kept = summarize(kept);
  return out;
}

// ---- open-loop schedule -----------------------------------------------------

/// Poisson arrivals at `rate_per_s` over [0, duration_s), conditioned on
/// their count: round(rate * duration) arrival times drawn uniformly and
/// sorted, which is exactly a Poisson process given its count. Fixing the
/// count keeps the offered load of a rung identical across seeds. Due
/// times are seconds from the rung start, a pure function of the seed.
inline std::vector<double> poisson_schedule(double rate_per_s, double duration_s, uint64_t seed) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> at(0.0, duration_s);
  const size_t n = static_cast<size_t>(std::llround(rate_per_s * duration_s));
  due.reserve(n);
  for (size_t i = 0; i < n; ++i) due.push_back(at(gen));
  std::sort(due.begin(), due.end());
  return due;
}

/// How late the generator sent each request (sent - due, seconds; clamped
/// at 0). A generator that cannot keep its schedule shows up here, and the
/// latency it adds is still charged to the requests, which are timed from
/// when they were due.
struct Lateness {
  double p50_ms = 0.0;
  double max_ms = 0.0;
};

inline Lateness lateness(const std::vector<double>& due_s, const std::vector<double>& sent_s) {
  Lateness l;
  std::vector<double> late;
  const size_t n = std::min(due_s.size(), sent_s.size());
  late.reserve(n);
  for (size_t i = 0; i < n; ++i) late.push_back(std::max(0.0, sent_s[i] - due_s[i]) * 1e3);
  if (late.empty()) return l;
  l.p50_ms = quantile(late, 0.5);
  l.max_ms = *std::max_element(late.begin(), late.end());
  return l;
}

/// Requests due but not yet completed at time t.
inline double backlog_at(const std::vector<double>& due_s, const std::vector<double>& done_s,
                         double t) {
  double n = 0.0;
  for (size_t i = 0; i < due_s.size(); ++i) {
    if (due_s[i] <= t && done_s[i] > t) n += 1.0;
  }
  return n;
}

/// True when the backlog keeps growing over a rung of `duration_s`: the mean
/// backlog over the last third of the rung exceeds twice the mean over the
/// first third plus two requests. A system below saturation settles into a
/// stationary backlog; above it the backlog climbs linearly, so the last
/// third reads several times the first.
inline bool backlog_grows(const std::vector<double>& due_s, const std::vector<double>& done_s,
                          double duration_s) {
  constexpr int kProbes = 30;
  double first = 0.0, last = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    const double t = duration_s * (static_cast<double>(i) + 0.5) / kProbes;
    const double b = backlog_at(due_s, done_s, t);
    if (i < kProbes / 3) first += b;
    if (i >= kProbes - kProbes / 3) last += b;
  }
  first /= kProbes / 3;
  last /= kProbes / 3;
  return last > 2.0 * first + 2.0;
}

// ---- request popularity -----------------------------------------------------

/// Zipf(s) over n items: item k is drawn with probability ∝ 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  /// `u` uniform in [0, 1).
  size_t operator()(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---- metric names and the result line --------------------------------------

/// BENCHMARK.json name rule: starts with a letter or digit, at most 64 of
/// letters, digits, '_', '.', '-'.
inline bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64 || !std::isalnum(static_cast<unsigned char>(s[0]))) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

/// BENCHMARK.json unit rule: 1..16 of letters, digits, '_', '/', '%', '.', '-'.
inline bool valid_unit(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Every digit of a double, or null for a non-finite value (JSON has no NaN).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The benchmark's last stdout line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}
inline std::string result_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += '"';
    out += df::bench::json_escape(m.name);
    out += "\": {\"value\": ";
    out += json_number(m.value);
    out += ", \"unit\": \"";
    out += df::bench::json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
