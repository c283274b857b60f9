#ifndef XNF_COMMON_THREAD_POOL_H_
#define XNF_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace xnf {

class Counter;
class MetricsRegistry;

// Fixed-size worker pool for intra-query parallelism. Its only engine user
// is the morsel driver of filtering scans (exec/parallel.h), which SQL
// scans and XNF candidate scans share. One pool per Database; operators
// reach it through the catalog.
//
// The unit of work is a *batch* of independent tasks submitted with
// RunAll(). The submitting thread participates in its own batch — it claims
// and runs tasks alongside the workers — so every batch makes progress on
// its caller's thread even when all workers are busy or the pool has zero
// workers, and a task may itself call RunAll() without risk of deadlock.
class ThreadPool {
 public:
  // `dop` is the degree of parallelism: 1 caller thread + (dop - 1)
  // workers. dop <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int dop);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total degree of parallelism (always >= 1; 1 means fully serial).
  int dop() const { return dop_; }

  // Runs every task to completion and returns the Status of the
  // lowest-indexed failing task (or OK). Every task runs even when an
  // earlier one fails — in serial mode too, so a batch has the same side
  // effects at any DOP. Task index order — not completion order — decides
  // which error is reported, so error propagation is deterministic across
  // worker counts. With dop() == 1 the tasks run inline on the caller in
  // index order. Each task dispatch passes the `threadpool.task`
  // failpoint; a caller's Failpoints::Suppressor covers the tasks workers
  // run for it too.
  Status RunAll(std::vector<std::function<Status()>> tasks);

  // True iff no RunAll() batch is executing or queued. The engine must be
  // quiescent between statements — the soak harness asserts this after
  // every injected failure.
  bool quiescent() const {
    if (inflight_.load(std::memory_order_acquire) != 0) return false;
    std::lock_guard<std::mutex> lock(queue_mu_);
    return queue_.empty();
  }

  // Task batches currently queued (claimable by workers). Sampled by the
  // threadpool.queue_depth metrics gauge.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(queue_mu_);
    return queue_.size();
  }

  // Resolves the threadpool.* counters (batches, tasks_dispatched,
  // tasks_stolen); null disables them. Call before the pool is shared with
  // running queries.
  void set_metrics(MetricsRegistry* metrics);

 private:
  // One RunAll() invocation: tasks are claimed by atomically bumping
  // `next`; each claimed task writes only its own `statuses` slot.
  struct Batch {
    std::vector<std::function<Status()>> tasks;
    std::vector<Status> statuses;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    // The RunAll caller ran under a Failpoints::Suppressor; workers then
    // dispatch its tasks under one too.
    bool suppressed = false;
    std::mutex mu;
    std::condition_variable cv;  // signalled when done reaches tasks.size()
  };

  // Claims and runs tasks from `batch` until none are left unclaimed.
  // `is_worker` distinguishes pool workers from the participating RunAll
  // caller, so stolen tasks can be counted separately.
  void Work(Batch* batch, bool is_worker);

  void WorkerLoop();

  int dop_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> inflight_{0};  // RunAll() calls currently executing
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool shutdown_ = false;
  // Resolved by set_metrics; null when metrics are off.
  Counter* batches_ = nullptr;
  Counter* dispatched_ = nullptr;  // every task run, any thread
  Counter* stolen_ = nullptr;      // tasks claimed by pool workers
};

}  // namespace xnf

#endif  // XNF_COMMON_THREAD_POOL_H_
