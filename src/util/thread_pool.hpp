// Fixed-size thread pool (the paper's HUs "can run multiple operations in
// parallel to speed up the simulation", §4). The global pool runs the
// training jobs (core::MlService::train_async, one single-threaded task per
// job), the evaluation shards (ml::evaluate) and synthetic-image
// rendering; the campaign engine runs its workers on a pool of its own.
// Results are reduced in deterministic index order, and a job's bits do not
// depend on the thread that runs it, so parallelism never changes
// numerical output.
//
// This is the only place in the tree allowed to construct std::thread
// (enforced by rr-lint's `raw-thread` rule). Shared state is annotated for
// clang's -Wthread-safety and exercised by the ThreadSanitizer CI lane.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace roadrunner::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Tasks queued but not yet picked up by a worker. Together with busy()
  /// this exposes the pool's utilization (idle workers = size() - busy())
  /// for schedulers and telemetry gauges. Snapshot values: both can change
  /// the instant the lock is released.
  [[nodiscard]] std::size_t pending() const RR_EXCLUDES(mutex_);

  /// Workers currently executing a task.
  [[nodiscard]] std::size_t busy() const RR_EXCLUDES(mutex_);

  /// Runs fn(i) for i in [0, count), partitioned over the pool, and blocks
  /// until all complete. Exceptions from fn propagate (first one wins); the
  /// remaining indices still run to completion, so the pool is immediately
  /// reusable after a throw (see tests/thread_pool_stress_test.cpp). Called
  /// from one of this pool's own workers, it runs fn inline on that thread,
  /// so nested use cannot deadlock.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Enqueues one fire-and-forget task (the distributed campaign worker
  /// runs its job this way while the calling thread keeps heartbeating;
  /// MlService::train_async queues a std::packaged_task, whose future is
  /// the join point). The task must not throw — there is no join point to
  /// deliver the exception to; catch inside and hand the error back
  /// through shared state. Tasks still pending at destruction run to
  /// completion first.
  void submit(std::function<void()> task) RR_EXCLUDES(mutex_);

  /// Blocks until `future` is ready, running this pool's queued tasks on
  /// the calling thread meanwhile (help-while-wait), so a waiter never
  /// idles while work it may depend on sits in the queue. Safe on one of
  /// this pool's own workers. `future` (std::future or std::shared_future)
  /// must be fulfilled by a task of this pool: the end of a task is what
  /// wakes a waiter whose queue ran dry.
  template <class Future>
  void wait(const Future& future) {
    help_until([&future] {
      return future.wait_for(std::chrono::seconds{0}) ==
             std::future_status::ready;
    });
  }

  /// Process-wide pool, sized from hardware concurrency, built on first use
  /// (C++ magic static: concurrent first calls are safe).
  static ThreadPool& global();

 private:
  void worker_loop();
  void help_until(const std::function<bool()>& ready) RR_EXCLUDES(mutex_);
  /// Runs a dequeued task on the calling thread, then wakes the waiters:
  /// its end may have fulfilled the future one of them waits on.
  void run_task(const std::function<void()>& task, bool worker)
      RR_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::function<void()>> tasks_ RR_GUARDED_BY(mutex_);
  std::condition_variable_any cv_;       // workers: a task was queued
  std::condition_variable_any done_cv_;  // waiters: a task ended or queued
  std::size_t busy_ RR_GUARDED_BY(mutex_) = 0;
  std::size_t waiters_ RR_GUARDED_BY(mutex_) = 0;
  bool stopping_ RR_GUARDED_BY(mutex_) = false;
};

}  // namespace roadrunner::util
