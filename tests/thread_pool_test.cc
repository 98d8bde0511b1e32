#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace visualroad {
namespace {

// Regression: a throwing task used to escape the worker thread, which calls
// std::terminate; an aborted decrement also stranded the in-flight counter so
// Wait() deadlocked. Now the exception becomes the Status Wait() returns.
TEST(ThreadPoolTest, ThrowingTaskSurfacesStatusAndWaitReturns) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  Status status = pool.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("boom"), std::string::npos);

  // The pool is still usable: the worker survived and the error was cleared.
  std::atomic<int> ran{0};
  pool.Submit([&] { ++ran; });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, NonStandardExceptionIsAlsoCaptured) {
  ThreadPool pool(1);
  pool.Submit([] { throw 42; });
  Status status = pool.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, WaitReturnsOnlyTheFirstErrorThenClears) {
  ThreadPool pool(1);
  pool.Submit([] { throw std::runtime_error("first"); });
  pool.Submit([] { throw std::runtime_error("second"); });
  Status status = pool.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("first"), std::string::npos);
  EXPECT_TRUE(pool.Wait().ok());
}

TEST(ThreadPoolTest, ParallelForStatusReturnsTheFailingIndexError) {
  ThreadPool pool(4);
  Status status = pool.ParallelForStatus(
      100,
      [](int i) {
        if (i == 57) return Status::InvalidArgument("index 57 rejected");
        return Status::Ok();
      },
      /*grain=*/1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("index 57"), std::string::npos);
}

TEST(ThreadPoolTest, ParallelForStatusConvertsExceptionsToInternal) {
  ThreadPool pool(4);
  Status status = pool.ParallelForStatus(
      64,
      [](int i) -> Status {
        if (i == 9) throw std::runtime_error("kernel fault");
        return Status::Ok();
      },
      /*grain=*/4);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.ToString().find("kernel fault"), std::string::npos);
}

TEST(ThreadPoolTest, SingleThreadFailureReportsLowestIndex) {
  // With one worker, chunks run in submission order, so the lowest failing
  // index is reported and later chunks are skipped.
  ThreadPool pool(1);
  std::atomic<int> bodies_run{0};
  Status status = pool.ParallelForStatus(
      100,
      [&](int i) {
        ++bodies_run;
        return Status::Internal("fail at " + std::to_string(i));
      },
      /*grain=*/1);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("fail at 0"), std::string::npos);
  // Everything after the first failing chunk was skipped.
  EXPECT_EQ(bodies_run.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversTenThousandIndicesExactlyOnce) {
  ThreadPool pool(8);
  constexpr int kCount = 10000;
  std::atomic<int64_t> checksum{0};
  std::atomic<int> calls{0};
  pool.ParallelFor(kCount, [&](int i) {
    checksum += i;
    ++calls;
  });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(calls.load(), kCount);
  EXPECT_EQ(checksum.load(), static_cast<int64_t>(kCount) * (kCount - 1) / 2);
}

TEST(ThreadPoolTest, ExplicitGrainCoversEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr int kCount = 101;  // Not divisible by the grain.
  std::vector<std::atomic<int>> visits(kCount);
  Status status = pool.ParallelForStatus(
      kCount,
      [&](int i) {
        ++visits[static_cast<size_t>(i)];
        return Status::Ok();
      },
      /*grain=*/7);
  EXPECT_TRUE(status.ok());
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForVoidParksErrorForNextWait) {
  ThreadPool pool(2);
  pool.ParallelFor(10, [](int i) {
    if (i == 3) throw std::runtime_error("void body threw");
  });
  Status status = pool.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("void body threw"), std::string::npos);
}

TEST(ThreadPoolTest, ConcurrentCallersKeepTheirOwnErrors) {
  // Two external threads drive ParallelForStatus on one pool at once; each
  // must get its own result — completion tracking is per call, not global.
  ThreadPool pool(4);
  Status ok_result = Status::Internal("unset");
  Status fail_result;
  std::thread succeeding([&] {
    ok_result = pool.ParallelForStatus(
        500, [](int) { return Status::Ok(); }, /*grain=*/1);
  });
  std::thread failing([&] {
    fail_result = pool.ParallelForStatus(
        500,
        [](int i) {
          if (i % 97 == 13) return Status::DataLoss("alpha");
          return Status::Ok();
        },
        /*grain=*/1);
  });
  succeeding.join();
  failing.join();
  EXPECT_TRUE(ok_result.ok());
  ASSERT_FALSE(fail_result.ok());
  EXPECT_NE(fail_result.ToString().find("alpha"), std::string::npos);
  // The pool-level error slot belongs to Submit()/ParallelFor users; the
  // routed ParallelForStatus failure must not leak into it.
  EXPECT_TRUE(pool.Wait().ok());
}

TEST(ThreadPoolTest, ManySubmittersAndWaitersStress) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 250;
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int t = 0; t < kTasksEach; ++t) {
        pool.Submit([&] { ++executed; });
      }
      // Waiting from several threads concurrently must be safe.
      EXPECT_TRUE(pool.Wait().ok());
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolTest, StatsCountSubmissionsExecutionsAndFailures) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] {});
  }
  pool.Submit([] { throw std::runtime_error("counted"); });
  EXPECT_FALSE(pool.Wait().ok());
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_submitted, 9);
  EXPECT_EQ(stats.tasks_executed, 9);
  EXPECT_EQ(stats.tasks_failed, 1);
  EXPECT_GE(stats.queue_peak, 1);
  EXPECT_GE(stats.busy_seconds, 0.0);
}

TEST(ThreadPoolTest, DefaultGrainBatchesChunks) {
  // grain=0 picks roughly count / (threads * 4), so 10k indices on 2 threads
  // must produce far fewer tasks than indices.
  ThreadPool pool(2);
  EXPECT_TRUE(
      pool.ParallelForStatus(10000, [](int) { return Status::Ok(); }).ok());
  PoolStats stats = pool.stats();
  EXPECT_GT(stats.tasks_submitted, 0);
  EXPECT_LE(stats.tasks_submitted, 64);
}

TEST(ThreadPoolTest, NestedCallOnTheSamePoolRunsInline) {
  // A task on a one-worker pool calls ParallelForStatus on that same pool.
  // Queueing the chunks would wait forever for the only worker, which is
  // the caller; the nested loop runs inline on it instead.
  ThreadPool pool(1);
  constexpr int kCount = 64;
  std::vector<int> visits(kCount, 0);
  std::vector<std::thread::id> threads(kCount);
  Status failure;
  Status outer = pool.ParallelForStatus(1, [&](int) {
    std::thread::id worker = std::this_thread::get_id();
    Status all = pool.ParallelForStatus(
        kCount,
        [&](int i) {
          ++visits[static_cast<size_t>(i)];
          threads[static_cast<size_t>(i)] = std::this_thread::get_id();
          return Status::Ok();
        },
        /*grain=*/1);
    for (std::thread::id id : threads) EXPECT_EQ(id, worker);
    failure = pool.ParallelForStatus(kCount, [](int i) {
      return i == 9 || i == 40 ? Status::InvalidArgument("index " + std::to_string(i))
                               : Status::Ok();
    });
    return all;
  });
  EXPECT_TRUE(outer.ok()) << outer.ToString();
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(visits[static_cast<size_t>(i)], 1) << i;
  ASSERT_FALSE(failure.ok());
  EXPECT_EQ(failure.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failure.ToString().find("index 9"), std::string::npos);
  // Only the outer call queued a task.
  EXPECT_EQ(pool.stats().tasks_submitted, 1);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  EXPECT_TRUE(pool.ParallelForStatus(0, [&](int) {
                    ++calls;
                    return Status::Ok();
                  }).ok());
  EXPECT_TRUE(pool.ParallelForStatus(-5, [&](int) {
                    ++calls;
                    return Status::Ok();
                  }).ok());
  EXPECT_EQ(calls.load(), 0);
}

}  // namespace
}  // namespace visualroad
