#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
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
  // 1 and 2 indices: fewer than the 4 participants (3 workers + caller).
  ThreadPool pool(3);
  for (size_t n : {size_t{1}, size_t{2}, size_t{257}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(pool, n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
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

// ---- parallel_for: per-call join with the caller participating ---------

TEST(ParallelFor, CallerRunsIndicesUnderSerialScope) {
  // A pool whose only worker is held busy: every index must then run on
  // the caller, inside a SerialComputeScope.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0}, serial{0};
  parallel_for(pool, 8, [&](size_t) {
    if (std::this_thread::get_id() == caller) ++on_caller;
    if (in_pool_worker()) ++serial;
  });
  EXPECT_EQ(on_caller.load(), 8);
  EXPECT_EQ(serial.load(), 8);
  EXPECT_FALSE(in_pool_worker());  // the scope ends with the call
  release = true;
  pool.wait_idle();
}

TEST(ParallelFor, ExceptionFromCallerRunIndexPropagates) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  // The worker is busy, so index 3 throws on the caller.
  EXPECT_THROW(parallel_for(pool, 5,
                            [](size_t i) {
                              if (i == 3) throw std::runtime_error("caller index");
                            }),
               std::runtime_error);
  release = true;
  pool.wait_idle();  // the caller's error never reaches the pool's join
}

TEST(ParallelFor, NestedAutoFromCallerDoesNotDeadlock) {
  ThreadPool pool(2);
  ComputePoolGuard guard(&pool);
  std::atomic<int> inner{0};
  parallel_for(pool, 6, [&](size_t) {
    parallel_for_auto(16, 1, [&](size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 6 * 16);
}

TEST(ParallelFor, ConcurrentCallersGetOnlyTheirOwnException) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::string seen_a, seen_b;
    auto caller = [&pool](const char* tag, std::string& seen) {
      try {
        parallel_for(pool, 64, [tag](size_t i) {
          if (i % 16 == 5) throw std::runtime_error(tag);
        });
      } catch (const std::runtime_error& e) {
        seen = e.what();
      }
    };
    std::thread a(caller, "a", std::ref(seen_a));
    std::thread b(caller, "b", std::ref(seen_b));
    a.join();
    b.join();
    EXPECT_EQ(seen_a, "a");
    EXPECT_EQ(seen_b, "b");
  }
  pool.wait_idle();  // no stray error was left for the pool's own join
}

TEST(ParallelFor, DoesNotWaitForUnrelatedSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> count{0};
  parallel_for(pool, 100, [&](size_t) { ++count; });  // returns while the job spins
  EXPECT_EQ(count.load(), 100);
  release = true;
  pool.wait_idle();
}

}  // namespace
}  // namespace df::core
