// Fixed-size worker pool. Stands in for the paper's parallel data loaders
// (24 per rank) and for Horovod ranks inside one simulated node: work is
// pushed as std::function jobs and joined with wait_idle(), mirroring the
// fork/allgather structure of a Fusion scoring job (paper Fig. 3).
//
// Jobs that throw do not kill the worker: the first exception of a
// submit()ted job is captured and rethrown from the next wait_idle(), so a
// failing rank surfaces at the barrier instead of calling std::terminate.
// parallel_for() joins its own work only (see below).
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace df::core {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> job);
  /// Block until the queue is empty and all workers are idle. Rethrows the
  /// first exception any job threw since the last join (remaining queued
  /// jobs still run to completion first). The pool assumes one logical
  /// submitter/joiner at a time: concurrent non-worker joiners block on
  /// each other's jobs and may receive each other's exceptions.
  void wait_idle();
  size_t size() const { return workers_.size(); }

  /// True when the calling thread is a worker of any ThreadPool. Leaf
  /// kernels use this to avoid submitting nested work to a pool they are
  /// already running on (which would deadlock wait_idle).
  static bool this_thread_is_worker();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;       // wakes workers
  std::condition_variable idle_cv_;  // wakes wait_idle
  std::exception_ptr first_error_;   // first job exception since last join
  size_t active_ = 0;
  bool stop_ = false;
};

/// Run fn(i) for i in [0, n) across the pool and join. The calling thread
/// claims blocks of indices from a per-call cursor alongside up to
/// pool.size() helper jobs, running its share under a SerialComputeScope
/// (nested kernels stay serial, as on a worker). The block size follows
/// from n and the participant count: 1 index per claim for a few dozen
/// coarse tasks. The call waits only for its own indices — not for
/// unrelated submit() jobs — and rethrows the first exception thrown by
/// one of its own fn(i), after all its indices ran; concurrent callers on
/// one pool never see each other's errors. Since the caller can run every
/// index itself, a call from inside a pool job cannot deadlock.
void parallel_for(ThreadPool& pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace df::core
