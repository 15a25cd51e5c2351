// Stress tests for util::ThreadPool's exception path and completion
// handshake. These are the scenarios the ThreadSanitizer CI lane watches:
// a throwing task racing long-running tasks, the first-exception-wins
// contract, and the pool staying deadlock-free and reusable afterwards.
// The 100x repetition is the point — the original completion handshake had
// a narrow window (notify after the waiter could already have destroyed
// the condition variable) that only a tight loop makes observable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/thread_pool.hpp"

namespace roadrunner::util {
namespace {

/// Queues fn on `pool` and returns its future, as MlService::train_async
/// queues a training job.
template <class Fn>
auto queue_job(ThreadPool& pool, Fn fn) {
  using Result = decltype(fn());
  auto task = std::make_shared<std::packaged_task<Result()>>(std::move(fn));
  auto future = task->get_future();
  pool.submit([task] { (*task)(); });
  return future;
}

/// Holds one worker until released (or 30 s pass, so a broken pool fails
/// instead of hanging the suite).
struct Blocker {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> started;

  void occupy(ThreadPool& pool) {
    auto gate = released;
    auto running = std::make_shared<std::promise<void>>(std::move(started));
    pool.submit([gate, running] {
      running->set_value();
      gate.wait_for(std::chrono::seconds{30});
    });
  }
};

TEST(ThreadPoolStress, FirstExceptionWinsNoDeadlockPoolReusable) {
  ThreadPool pool{4};
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> executed{0};
    std::atomic<int> throwers_started{0};
    try {
      pool.parallel_for(32, [&](std::size_t i) {
        executed.fetch_add(1);
        if (i % 7 == 3) {
          // Several tasks throw; exactly one exception may escape.
          const int order = throwers_started.fetch_add(1);
          throw std::runtime_error{"boom " + std::to_string(order)};
        }
        // Long tasks interleave with the throwers: spin a little so the
        // exception is in flight while work is still being claimed.
        volatile std::size_t sink = 0;
        for (std::size_t k = 0; k < 2000; ++k) sink += k;
        (void)sink;
      });
      FAIL() << "parallel_for must rethrow (round " << round << ")";
    } catch (const std::runtime_error& e) {
      // First exception wins: the message is one of the thrown ones.
      EXPECT_EQ(std::string{e.what()}.rfind("boom ", 0), 0U) << e.what();
    }
    // Exceptions do not cancel remaining indices: every task ran.
    EXPECT_EQ(executed.load(), 32) << "round " << round;
    EXPECT_GE(throwers_started.load(), 1) << "round " << round;

    // The pool must be immediately reusable with no residue: a clean
    // follow-up batch completes and touches every index exactly once.
    std::atomic<int> clean{0};
    pool.parallel_for(16, [&](std::size_t) { clean.fetch_add(1); });
    EXPECT_EQ(clean.load(), 16) << "round " << round;
    EXPECT_EQ(pool.pending(), 0U) << "round " << round;
  }
}

TEST(ThreadPoolStress, AllTasksThrow) {
  ThreadPool pool{3};
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.parallel_for(8,
                          [&](std::size_t) {
                            executed.fetch_add(1);
                            throw std::logic_error{"every task throws"};
                          }),
        std::logic_error);
    EXPECT_EQ(executed.load(), 8);
  }
}

TEST(ThreadPoolStress, SingleShardFallbackPropagates) {
  // count <= 1 runs inline on the caller; the contract must not differ.
  ThreadPool pool{2};
  EXPECT_THROW(
      pool.parallel_for(1, [](std::size_t) { throw std::domain_error{"x"}; }),
      std::domain_error);
  std::atomic<int> ran{0};
  pool.parallel_for(1, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolStress, ConcurrentParallelForFromManyClients) {
  // Two client threads sharing one pool: completion signals must never
  // cross wires (each waiter sees only its own batch). Uses a second pool
  // as the client driver so the test itself stays rr-lint clean.
  ThreadPool clients{2};
  ThreadPool shared{4};
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> total{0};
    clients.parallel_for(2, [&](std::size_t client) {
      for (int rep = 0; rep < 10; ++rep) {
        try {
          shared.parallel_for(12, [&](std::size_t i) {
            total.fetch_add(1);
            if (client == 0 && i == 5) throw std::runtime_error{"c0"};
          });
        } catch (const std::runtime_error&) {
          // client 0's throws must never surface in client 1's waits —
          // checked implicitly: client 1 reaching here would FAIL below.
          EXPECT_EQ(client, 0U);
        }
      }
    });
    EXPECT_EQ(total.load(), 2 * 10 * 12);
  }
}

TEST(ThreadPoolStress, NestedParallelForOnOwnWorkersRunsInline) {
  // Every worker fans out again on its own pool. Queued shards would wait
  // on workers that are all waiting themselves; inline loops cannot.
  ThreadPool pool{2};
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> total{0};
    pool.parallel_for(8, [&](std::size_t) {
      pool.parallel_for(16, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 8 * 16);
  }
}

// ---------------------------------------------------------- help-while-wait

TEST(ThreadPoolWait, WaiterRunsTheQueuedJobWhileTheWorkerIsBlocked) {
  ThreadPool pool{1};
  Blocker blocker;
  auto started = blocker.started.get_future();
  blocker.occupy(pool);
  started.wait();  // the only worker is now busy until released
  auto job = queue_job(pool, [] { return std::this_thread::get_id(); });
  pool.wait(job);
  EXPECT_EQ(job.get(), std::this_thread::get_id());
  blocker.release.set_value();
}

TEST(ThreadPoolWait, WaiterOnAPoolWorkerDoesNotDeadlock) {
  // The single worker runs a task that queues a job on its own pool and
  // waits for it: nobody else could run the job, so the waiter must.
  ThreadPool pool{1};
  for (int round = 0; round < 50; ++round) {
    auto outer = queue_job(pool, [&pool] {
      auto inner = queue_job(pool, [] { return 21; });
      pool.wait(inner);
      return 2 * inner.get();
    });
    pool.wait(outer);
    EXPECT_EQ(outer.get(), 42);
  }
}

TEST(ThreadPoolWait, ExceptionReachesTheFuture) {
  ThreadPool pool{1};
  // Run by a worker...
  auto on_worker = queue_job(pool, []() -> int {
    throw std::runtime_error{"job failed"};
  });
  pool.wait(on_worker);
  EXPECT_THROW(on_worker.get(), std::runtime_error);
  // ...and by the waiter, while the worker is blocked.
  Blocker blocker;
  auto started = blocker.started.get_future();
  blocker.occupy(pool);
  started.wait();
  auto on_waiter = queue_job(pool, []() -> int {
    throw std::runtime_error{"job failed"};
  });
  pool.wait(on_waiter);
  EXPECT_THROW(on_waiter.get(), std::runtime_error);
  blocker.release.set_value();
}

TEST(ThreadPoolWait, ManyWaitersOnSharedFuturesAllWake) {
  // Jobs finished by workers must wake waiters whose queue ran dry: four
  // client threads each wait on their own jobs and on a shared one.
  ThreadPool pool{2};
  ThreadPool clients{4};
  for (int round = 0; round < 20; ++round) {
    auto shared =
        queue_job(pool, [] {
          std::this_thread::sleep_for(std::chrono::milliseconds{1});
          return 7;
        }).share();
    std::atomic<int> total{0};
    clients.parallel_for(4, [&](std::size_t c) {
      auto own = queue_job(pool, [c] { return static_cast<int>(c); });
      pool.wait(own);
      pool.wait(shared);
      total.fetch_add(own.get() + shared.get());
    });
    EXPECT_EQ(total.load(), 0 + 1 + 2 + 3 + 4 * 7);
  }
}

}  // namespace
}  // namespace roadrunner::util
