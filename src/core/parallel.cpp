#include "core/parallel.h"

#include <atomic>

#include "core/threadpool.h"

namespace df::core {

namespace {
std::atomic<ThreadPool*> g_compute_pool{nullptr};
thread_local bool t_serial_compute = false;
}  // namespace

void set_compute_thread_pool(ThreadPool* pool) { g_compute_pool.store(pool); }

ThreadPool* compute_thread_pool() { return g_compute_pool.load(); }

bool in_pool_worker() { return ThreadPool::this_thread_is_worker() || t_serial_compute; }

SerialComputeScope::SerialComputeScope() : previous_(t_serial_compute) {
  t_serial_compute = true;
}

SerialComputeScope::~SerialComputeScope() { t_serial_compute = previous_; }

ComputePoolGuard::ComputePoolGuard(ThreadPool* pool) : previous_(g_compute_pool.exchange(pool)) {}

ComputePoolGuard::~ComputePoolGuard() { g_compute_pool.store(previous_); }

void parallel_for_on(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  // Same reentrancy guard as parallel_for_auto: a caller that is itself a
  // pool worker runs its fan-out serially — e.g. a PB2 member that fans out
  // training lanes on the population pool, whose other workers are busy
  // with their own members.
  if (pool != nullptr && pool->size() > 0 && n > 1 && !in_pool_worker()) {
    parallel_for(*pool, n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

void parallel_for_auto(size_t n, size_t min_parallel, const std::function<void(size_t)>& fn) {
  ThreadPool* pool = g_compute_pool.load();
  if (pool != nullptr && pool->size() > 1 && n >= min_parallel && !in_pool_worker()) {
    parallel_for(*pool, n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace df::core
