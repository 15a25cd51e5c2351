#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace roadrunner::util {

namespace {
/// The pool whose worker is running on this thread, if any.
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock{mutex_};
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock{mutex_};
      // Explicit wait loop (not the predicate overload): guarded reads stay
      // in this annotated scope, and condition_variable_any releases and
      // reacquires mutex_ itself.
      while (!stopping_ && tasks_.empty()) cv_.wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++busy_;
    }
    run_task(task, /*worker=*/true);
  }
}

void ThreadPool::run_task(const std::function<void()>& task, bool worker) {
  task();
  bool wake = false;
  {
    MutexLock lock{mutex_};
    if (worker) --busy_;
    wake = waiters_ > 0;
  }
  if (wake) done_cv_.notify_all();
}

void ThreadPool::help_until(const std::function<bool()>& ready) {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock{mutex_};
      // ready() is read under mutex_, and a task's end takes mutex_ before
      // it notifies: a task that finishes after this check finds the
      // waiter counted, so its wake-up cannot be lost.
      while (!ready() && tasks_.empty()) {
        ++waiters_;
        done_cv_.wait(mutex_);
        --waiters_;
      }
      if (ready()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    run_task(task, /*worker=*/false);
  }
}

std::size_t ThreadPool::pending() const {
  MutexLock lock{mutex_};
  return tasks_.size();
}

std::size_t ThreadPool::busy() const {
  MutexLock lock{mutex_};
  return busy_;
}

void ThreadPool::submit(std::function<void()> task) {
  bool wake = false;
  {
    MutexLock lock{mutex_};
    tasks_.push(std::move(task));
    wake = waiters_ > 0;
  }
  cv_.notify_one();
  if (wake) done_cv_.notify_all();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t shards = std::min(count, workers_.size());
  // A task of this pool that fans out again runs its loop inline: queueing
  // shards and waiting would deadlock once every worker waits the same way.
  if (shards <= 1 || current_pool == this) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Completion state shared with the shard tasks. Everything lives on this
  // stack frame, so the last touch a shard makes must happen-before the
  // wait below returns: the done-count increment and its notify both occur
  // under done_mutex, which closes the race where a worker notified a
  // condition variable the waiter had already destroyed.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::size_t done = 0;
  std::condition_variable done_cv;
  std::mutex done_mutex;

  auto shard = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock{error_mutex};
        if (!first_error) first_error = std::current_exception();
      }
    }
    std::lock_guard lock{done_mutex};
    ++done;
    done_cv.notify_one();  // under the lock: the waiter cannot win the race
                           // to destroy done_cv before this call returns
  };

  bool wake = false;
  {
    MutexLock lock{mutex_};
    for (std::size_t s = 0; s < shards; ++s) tasks_.push(shard);
    wake = waiters_ > 0;
  }
  cv_.notify_all();
  if (wake) done_cv_.notify_all();

  {
    std::unique_lock lock{done_mutex};
    done_cv.wait(lock, [&] { return done == shards; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace roadrunner::util
