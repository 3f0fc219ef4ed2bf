#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <set>

#include "core/rng.h"
#include "core/threadpool.h"

namespace df::core {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.randint(0, 1000), b.randint(0, 1000));
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, RandintInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.randint(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(4));
}

TEST(Rng, BernoulliRate) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ForkDiverges) {
  Rng a(5);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.randint(0, 1 << 20) == b.randint(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, StreamTagRegistryIsDistinct) {
  // Two layers sharing a tag would draw correlated "independent" streams
  // from the same seed.
  const std::set<uint64_t> tags(std::begin(stream_tag::kAll), std::end(stream_tag::kAll));
  EXPECT_EQ(tags.size(), std::size(stream_tag::kAll));
  // The campaign tags keep the values they had before the registry, so
  // job, fault and assay streams replay bitwise.
  EXPECT_EQ(stream_tag::kJob, 0x4a4f4253ULL);
  EXPECT_EQ(stream_tag::kFault, 0x4641554c54ULL);
  EXPECT_EQ(stream_tag::kAssay, 0x4153534159ULL);
  EXPECT_EQ(stream_tag::kDropoutLayer, 0xD70FULL);
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace df::core
