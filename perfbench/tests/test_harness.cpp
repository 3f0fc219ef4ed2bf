// Unit tests of the benchmark's measurement helpers (harness.h).
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> random_sample(size_t n, uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::lognormal_distribution<double> d(1.0, 0.8);
  std::vector<double> v(n);
  for (double& x : v) x = d(gen);
  return v;
}

TEST(Quantile, MatchesNearestRankOfAnExactSort) {
  for (size_t n : {1u, 2u, 7u, 100u, 1001u}) {
    const std::vector<double> v = random_sample(n, n);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      // Nearest rank: the smallest sample with at least ceil(q n) samples <= it.
      size_t want = 0;
      while (want + 1 < n && static_cast<double>(want + 1) < q * static_cast<double>(n)) ++want;
      EXPECT_EQ(quantile(v, q), sorted[want]) << "n=" << n << " q=" << q;
      const size_t at_or_below = static_cast<size_t>(
          std::upper_bound(sorted.begin(), sorted.end(), quantile(v, q)) - sorted.begin());
      EXPECT_GE(static_cast<double>(at_or_below), q * static_cast<double>(n) - 1e-9);
    }
  }
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, TailKeepsTenSamplesBeyond) {
  for (size_t n : {21u, 50u, 500u, 999u, 1000u, 5000u}) {
    const std::vector<double> v = random_sample(n, 7 * n);
    const LatencySummary s = summarize(v);
    EXPECT_EQ(s.n, n);
    EXPECT_LE(s.tail_q, 0.99);
    const size_t beyond = static_cast<size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > s.tail; }));
    EXPECT_GE(beyond, kTailBeyond) << "n=" << n;
    EXPECT_EQ(s.p50, quantile(v, 0.5));
  }
  EXPECT_DOUBLE_EQ(supported_tail_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(supported_tail_quantile(500), 0.98);
  EXPECT_DOUBLE_EQ(supported_tail_quantile(10), 0.5);
}

TEST(Quantile, WindowValuesCoverTheSampleInOrder) {
  // 10 values in windows of at least 3: 3 windows of 3, 3 and 4, in order.
  std::vector<double> v(10);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto sizes = window_values(v, 3, [](const std::vector<double>& w) {
    return static_cast<double>(w.size());
  });
  EXPECT_EQ(sizes, (std::vector<double>{3.0, 3.0, 4.0}));
  EXPECT_EQ(window_values(v, 3, median), (std::vector<double>{1.0, 4.0, 7.0}));
  // Fewer values than a window: one window of all of them.
  EXPECT_EQ(window_values(v, 100, median), (std::vector<double>{4.0}));
}

TEST(Quantile, PooledTailLeavesOutTheWorstQuarterOfWindows) {
  // 4000 latencies of 2 ms in 8 windows of 500; two stalls of 40 ms, each
  // hitting 30 requests of one window. The whole-sample p99 sees them; the
  // pooled tail leaves out both windows and keeps 3000 samples.
  std::vector<double> v(4000, 2.0);
  for (size_t i = 600; i < 630; ++i) v[i] = 40.0;
  for (size_t i = 3100; i < 3130; ++i) v[i] = 40.0;
  EXPECT_EQ(summarize(v).tail, 40.0);
  const PooledTail t = pooled_tail(v, 500);
  EXPECT_EQ(t.windows, 8u);
  EXPECT_EQ(t.left_out, 2u);
  EXPECT_EQ(t.kept.n, 3000u);
  EXPECT_DOUBLE_EQ(t.kept.tail_q, 0.99);
  EXPECT_EQ(t.kept.tail, 2.0);
  // Fewer than four windows: nothing is left out.
  const PooledTail small = pooled_tail(std::vector<double>(v.begin(), v.begin() + 1500), 500);
  EXPECT_EQ(small.windows, 3u);
  EXPECT_EQ(small.left_out, 0u);
  EXPECT_EQ(small.kept.n, 1500u);
}

TEST(Schedule, PoissonScheduleIsSeededSortedAndAtRate) {
  const std::vector<double> a = poisson_schedule(500.0, 4.0, 11);
  EXPECT_EQ(a, poisson_schedule(500.0, 4.0, 11));
  EXPECT_NE(a, poisson_schedule(500.0, 4.0, 12));
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 4.0);
  // Gaps of a Poisson process are exponential: mean 1/rate, CoV about 1.
  std::vector<double> gaps;
  for (size_t i = 1; i < a.size(); ++i) gaps.push_back(a[i] - a[i - 1]);
  const double m = mean(gaps);
  double var = 0.0;
  for (double g : gaps) var += (g - m) * (g - m);
  const double cov = std::sqrt(var / static_cast<double>(gaps.size())) / m;
  EXPECT_NEAR(m, 1.0 / 500.0, 0.1 / 500.0);
  EXPECT_NEAR(cov, 1.0, 0.1);
  EXPECT_TRUE(poisson_schedule(0.0, 1.0, 1).empty());
}

TEST(Schedule, LatenessIsSentMinusDueClampedAtZero) {
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.3};
  const std::vector<double> sent = {0.0, 0.102, 0.2005, 0.29};  // last one early
  const Lateness l = lateness(due, sent);
  EXPECT_NEAR(l.max_ms, 2.0, 1e-9);
  EXPECT_NEAR(l.p50_ms, 0.0, 1e-9);  // {0, 0, 0.5, 2} -> nearest-rank median 0
  EXPECT_EQ(lateness({}, {}).max_ms, 0.0);
}

TEST(Backlog, SteadyServiceDoesNotGrow) {
  // 200 requests/s for 3 s, each served 4 ms after it is due.
  const std::vector<double> due = poisson_schedule(200.0, 3.0, 5);
  std::vector<double> done;
  for (double d : due) done.push_back(d + 0.004);
  EXPECT_FALSE(backlog_grows(due, done, 3.0));
}

TEST(Backlog, OverloadGrows) {
  // 200 requests/s offered, 150/s served FIFO: the queue climbs all rung long.
  const std::vector<double> due = poisson_schedule(200.0, 3.0, 5);
  std::vector<double> done;
  double free_at = 0.0;
  for (double d : due) {
    free_at = std::max(free_at, d) + 1.0 / 150.0;
    done.push_back(free_at);
  }
  EXPECT_TRUE(backlog_grows(due, done, 3.0));
  EXPECT_GT(backlog_at(due, done, 2.9), backlog_at(due, done, 0.5));
}

TEST(Rung, WindowTailIgnoresAStallInOneWindow) {
  // 5000 requests, 2 ms each, except a 50 ms stall hitting 60 requests of
  // the third window: the whole-rung p99 sees it, the windowed tail not.
  const std::vector<double> due = poisson_schedule(500.0, 10.0, 3);
  ASSERT_EQ(due.size(), 5000u);
  std::vector<double> sent = due, done;
  for (size_t i = 0; i < due.size(); ++i) {
    done.push_back(due[i] + ((i >= 1100 && i < 1160) ? 0.050 : 0.002));
  }
  const RungResult r = fold_rung({4000.0, 1.0, true}, 10.0, due, sent, done, 40000.0, 0);
  EXPECT_EQ(r.windows, 10u);
  EXPECT_EQ(r.windows_left_out, 2u);
  EXPECT_DOUBLE_EQ(r.window_tail_q, 0.99);
  EXPECT_NEAR(r.window_tail, 2.0, 1e-6);
  EXPECT_NEAR(r.latency.tail, 50.0, 1e-6);
  EXPECT_NEAR(r.latency.p50, 2.0, 1e-6);
  EXPECT_FALSE(r.backlog_grew);
  EXPECT_TRUE(r.meets(10.0));
  EXPECT_NEAR(r.achieved_poses_per_s, 4000.0, 1.0);
}

TEST(Zipf, HeadIsMostPopular) {
  const ZipfSampler zipf(32, 1.0);
  std::vector<int> counts(32, 0);
  std::mt19937_64 gen(3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf(u(gen))];
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[8]);
  EXPECT_GT(counts[31], 0);
  EXPECT_EQ(zipf(0.0), 0u);
  EXPECT_EQ(zipf(0.999999999), 31u);
}

TEST(Names, MetricNameCharacterSet) {
  EXPECT_TRUE(valid_metric_name("latency_p99_ms"));
  EXPECT_TRUE(valid_metric_name("serve.cache_lookup_ms_hit"));
  EXPECT_TRUE(valid_metric_name("0-x.y_z"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/not_allowed"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("poses/s"));
  EXPECT_TRUE(valid_unit("GFLOP/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("much/too_long_unit"));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(Names, EveryMetricTheBenchmarkPrintsIsValid) {
  for (const Metric& m : end_to_end_metrics({})) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.unit;
  }
  for (const auto& [name, unit] : per_layer_table()) {
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_TRUE(valid_unit(unit)) << unit;
  }
  PerLayer layers;
  EXPECT_THROW(layers.set("not.a.metric", 1.0), std::logic_error);
  layers.set("serve.batch_fill", 0.5);
  EXPECT_EQ(layers.metrics().size(), per_layer_table().size());
}

TEST(Names, MetricTablesMatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  size_t last = 0;
  const auto expect_in_order = [&](const std::string& name, const std::string& unit) {
    const size_t at =
        json.find("{\"name\": \"" + name + "\", \"unit\": \"" + unit + "\"", last);
    EXPECT_NE(at, std::string::npos) << name << " [" << unit << "] missing or out of order";
    if (at != std::string::npos) last = at;
  };
  for (const Metric& m : end_to_end_metrics({})) expect_in_order(m.name, m.unit);
  for (const auto& [name, unit] : per_layer_table()) expect_in_order(name, unit);
}

TEST(Json, ResultLineEscapesAndKeepsEveryDigit) {
  RunResult r;
  r.correct = true;
  r.attempted = 12;
  r.failed = 0;
  r.metrics = {{"latency_p50_ms", 1.2345678901234567, "ms"},
               {"we\"ird\\name\n", 2.0, "u\t"},
               {"nan_metric", std::nan(""), "ms"}};
  const std::string line = result_json(r);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"
            "\"latency_p50_ms\": {\"value\": 1.2345678901234567, \"unit\": \"ms\"}, "
            "\"we\\\"ird\\\\name\\n\": {\"value\": 2, \"unit\": \"u\\t\"}, "
            "\"nan_metric\": {\"value\": null, \"unit\": \"ms\"}}}");
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line
}

}  // namespace
}  // namespace perfbench
