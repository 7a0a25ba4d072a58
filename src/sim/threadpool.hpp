#pragma once
// Fixed-size worker pool with a fork-join `parallel_for`.
//
// Built for the sharded world's epoch loop: the coordinator thread calls
// `parallel_for(shards, fn)` once per epoch phase and participates in the
// work itself. Indices are claimed from an atomic counter, so which thread
// runs which shard is nondeterministic — the sharded world is designed so
// that this assignment can never affect results (shards touch only their
// own state between barriers).
//
// With `threads <= 1` no worker threads are created and `parallel_for`
// degenerates to an inline loop on the caller: the 1-thread configuration
// of any sharded run is genuinely single-threaded.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aseck::sim {

class ThreadPool {
 public:
  /// `threads` counts the caller: a pool of 4 spawns 3 workers.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0..n-1), each index exactly once, on the caller plus the
  /// workers; returns when all n calls have finished. The first exception
  /// thrown by any fn invocation is rethrown on the caller after the join.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void work();
  void worker_loop();

  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  // job_/job_n_ are written before the release store of next_ and read after
  // an acquire RMW on next_, so claimants always observe the current job; a
  // stray late reader from the previous job sees consistent stale values.
  std::atomic<const std::function<void(std::size_t)>*> job_{nullptr};
  std::atomic<std::size_t> job_n_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::uint64_t gen_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

}  // namespace aseck::sim
