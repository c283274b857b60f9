// Error-path behaviour of the worker pool: every task of a batch runs at
// any DOP, the lowest-indexed error wins deterministically, and the pool is
// quiescent again after a failed batch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace xnf {
namespace {

class ThreadPoolFault : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisableAll(); }
};

std::vector<std::function<Status()>> CountingTasks(int n,
                                                   std::atomic<int>* ran,
                                                   std::vector<int> failing) {
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < n; ++i) {
    bool fails =
        std::find(failing.begin(), failing.end(), i) != failing.end();
    tasks.push_back([i, fails, ran]() -> Status {
      ran->fetch_add(1);
      if (fails) {
        return Status::Internal("task " + std::to_string(i) + " failed");
      }
      return Status::Ok();
    });
  }
  return tasks;
}

TEST_F(ThreadPoolFault, AllTasksRunAndLowestIndexErrorWinsAtAnyDop) {
  for (int dop : {1, 4}) {
    ThreadPool pool(dop);
    std::atomic<int> ran{0};
    Status status = pool.RunAll(CountingTasks(8, &ran, {5, 2}));
    // Same side effects and same reported error serial and parallel.
    EXPECT_EQ(ran.load(), 8) << "dop=" << dop;
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "task 2 failed") << "dop=" << dop;
    EXPECT_TRUE(pool.quiescent());
  }
}

TEST_F(ThreadPoolFault, DispatchFailpointSuppressesTaskBody) {
  // `always` fires on every dispatch: no task body runs, serial or
  // parallel, and the injected error is what RunAll reports.
  ASSERT_TRUE(Failpoints::Enable("threadpool.task", "always").ok());
  for (int dop : {1, 4}) {
    ThreadPool pool(dop);
    std::atomic<int> ran{0};
    Status status = pool.RunAll(CountingTasks(6, &ran, {}));
    EXPECT_EQ(ran.load(), 0) << "dop=" << dop;
    EXPECT_EQ(status.code(), StatusCode::kFaultInjected) << "dop=" << dop;
    EXPECT_TRUE(pool.quiescent());
  }
}

TEST_F(ThreadPoolFault, PartialDispatchFailureStillRunsOtherTasks) {
  ASSERT_TRUE(Failpoints::Enable("threadpool.task", "nth(3)").ok());
  ThreadPool pool(1);  // serial: deterministic hit order, task 2 is killed
  std::atomic<int> ran{0};
  Status status = pool.RunAll(CountingTasks(6, &ran, {}));
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(status.code(), StatusCode::kFaultInjected);
  EXPECT_TRUE(pool.quiescent());
}

TEST_F(ThreadPoolFault, QuiescentAfterManyFailedBatches) {
  ASSERT_TRUE(Failpoints::Enable("threadpool.task", "every(2)").ok());
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    (void)pool.RunAll(CountingTasks(7, &ran, {}));
    EXPECT_TRUE(pool.quiescent());
  }
}

TEST_F(ThreadPoolFault, CallerSuppressionCoversWorkerTasks) {
  // Suppression is thread-local; a batch submitted under a Suppressor must
  // not fire on the workers that run its tasks — neither at dispatch nor at
  // a site inside the task body.
  ASSERT_TRUE(Failpoints::Enable("threadpool.task", "always").ok());
  ASSERT_TRUE(Failpoints::Enable("xnf.node.query", "always").ok());
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back([&ran]() -> Status {
      XNF_FAILPOINT("xnf.node.query");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran.fetch_add(1);
      return Status::Ok();
    });
  }
  Status status;
  {
    Failpoints::Suppressor suppress;
    status = pool.RunAll(std::move(tasks));
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(Failpoints::hits("threadpool.task"), 0u);
  EXPECT_EQ(Failpoints::hits("xnf.node.query"), 0u);
  EXPECT_TRUE(pool.quiescent());
}

}  // namespace
}  // namespace xnf
