// Process-wide compute-pool hook. Numeric kernels (gemm, conv lowering,
// voxel splatting, pooling) are leaf code that cannot know who owns the
// threads, so they pick up an optional shared ThreadPool from here and fall
// back to serial execution when none is installed — or when the caller is
// itself a pool worker (or a parallel_for caller running its own share),
// which keeps nested parallel regions serial instead of oversubscribing.
#pragma once

#include <cstddef>
#include <functional>

namespace df::core {

class ThreadPool;

/// Install (or clear, with nullptr) the shared compute pool. Not owned.
/// Callers are responsible for keeping the pool alive while installed.
void set_compute_thread_pool(ThreadPool* pool);
ThreadPool* compute_thread_pool();

/// True when the calling thread must not fan work out to the shared pool:
/// either it is a ThreadPool worker (any pool), or it is inside a
/// SerialComputeScope.
bool in_pool_worker();

/// Marks the current thread serial-compute for its lifetime: numeric kernels
/// treat it like a pool worker and never submit to the shared compute pool.
/// Threads that are peers of the pool rather than owners of it — e.g. a
/// ScoringService worker scoring batches while campaign ranks block on the
/// pool — install this so their kernels never queue work behind the pool's
/// long-running jobs. parallel_for installs it on its calling thread while
/// that thread runs its share of the indices.
class SerialComputeScope {
 public:
  SerialComputeScope();
  ~SerialComputeScope();
  SerialComputeScope(const SerialComputeScope&) = delete;
  SerialComputeScope& operator=(const SerialComputeScope&) = delete;

 private:
  bool previous_;
};

/// RAII installer for scoped pool sharing (campaign/bench entry points).
class ComputePoolGuard {
 public:
  explicit ComputePoolGuard(ThreadPool* pool);
  ~ComputePoolGuard();
  ComputePoolGuard(const ComputePoolGuard&) = delete;
  ComputePoolGuard& operator=(const ComputePoolGuard&) = delete;

 private:
  ThreadPool* previous_;
};

/// Run fn(i) for i in [0, n) on the compute pool when one is installed, the
/// caller is not already a pool worker, and the work is large enough
/// (n >= min_parallel); otherwise run serially on the calling thread.
/// Exceptions thrown by fn propagate to the caller in either mode.
void parallel_for_auto(size_t n, size_t min_parallel, const std::function<void(size_t)>& fn);

/// Run fn(i) for i in [0, n) on `pool` when one is given (and has workers),
/// serially on the calling thread otherwise. Unlike parallel_for_auto this
/// takes an explicit pool — used by layers that own their parallelism
/// (training engine lanes, PB2 population members) rather than borrowing
/// the process-wide compute pool. Exceptions propagate in either mode.
void parallel_for_on(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace df::core
