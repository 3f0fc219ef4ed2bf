#include "core/threadpool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "core/parallel.h"

namespace df::core {

namespace {
thread_local bool t_is_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // A pending first_error_ nobody joined on dies with the pool; throwing
  // from a destructor is never an option.
}

bool ThreadPool::this_thread_is_worker() { return t_is_pool_worker; }

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lk.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  t_is_pool_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard lk(mu_);
      if (err && !first_error_) first_error_ = err;
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // Per-call completion state, shared with the helper jobs: a helper that
  // starts after the caller has returned still touches `next`, so the state
  // outlives the call; `fn` is only reached through a claimed index, which
  // the caller is still waiting on.
  struct Join {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // indices finished, under mu
    std::exception_ptr error;
  };
  const size_t participants = pool.size() + 1;
  // About 8 claims per participant: 1 index per claim for coarse tasks
  // (24 docking pairs on 3 participants), amortized for fine-grained ones.
  const size_t block = std::max<size_t>(1, n / (8 * participants));
  const size_t blocks = (n + block - 1) / block;
  auto join = std::make_shared<Join>();
  auto drain = [join, n, block, &fn] {
    size_t finished = 0;
    std::exception_ptr err;
    for (size_t lo; (lo = join->next.fetch_add(block)) < n;) {
      const size_t hi = std::min(n, lo + block);
      try {
        for (size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
      finished += hi - lo;
    }
    if (finished == 0) return;
    // The error changes hands under the mutex, so the thread that rethrows
    // it holds the last reference (as wait_idle() does with first_error_).
    std::lock_guard lk(join->mu);
    if (err && !join->error) join->error = std::move(err);
    join->done += finished;
    if (join->done == n) join->cv.notify_all();
  };
  for (size_t h = 0; h + 1 < std::min(blocks, participants); ++h) pool.submit(drain);
  {
    SerialComputeScope serial;
    drain();
  }
  std::unique_lock lk(join->mu);
  join->cv.wait(lk, [&] { return join->done == n; });
  if (join->error) {
    std::exception_ptr err = std::exchange(join->error, nullptr);
    lk.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace df::core
