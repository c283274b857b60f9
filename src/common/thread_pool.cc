#include "common/thread_pool.h"

#include "common/failpoint.h"
#include "common/metrics.h"

namespace xnf {

namespace {

// Every dispatch — worker, participating caller, or serial inline — goes
// through here so the `threadpool.task` failpoint fires identically at any
// DOP.
Status Dispatch(const std::function<Status()>& task) {
  XNF_FAILPOINT("threadpool.task");
  return task();
}

// A worker dispatch for a batch submitted under a Failpoints::Suppressor:
// the suppression is thread-local, so the worker re-establishes it.
Status DispatchSuppressed(const std::function<Status()>& task) {
  Failpoints::Suppressor suppress;
  return Dispatch(task);
}

}  // namespace

ThreadPool::ThreadPool(int dop) {
  if (dop <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    dop = hw == 0 ? 1 : static_cast<int>(hw);
  }
  dop_ = dop;
  workers_.reserve(static_cast<size_t>(dop - 1));
  for (int i = 0; i < dop - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    batches_ = dispatched_ = stolen_ = nullptr;
    return;
  }
  batches_ = metrics->counter("threadpool.batches");
  dispatched_ = metrics->counter("threadpool.tasks_dispatched");
  stolen_ = metrics->counter("threadpool.tasks_stolen");
}

void ThreadPool::Work(Batch* batch, bool is_worker) {
  const size_t n = batch->tasks.size();
  while (true) {
    size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    CounterAdd(dispatched_);
    if (is_worker) CounterAdd(stolen_);
    batch->statuses[i] = is_worker && batch->suppressed
                             ? DispatchSuppressed(batch->tasks[i])
                             : Dispatch(batch->tasks[i]);
    // Release so the waiter's acquire on `done` sees the status write.
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(batch->mu);
      batch->cv.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      batch = queue_.front();
      // A batch stays queued while it has unclaimed tasks so several
      // workers can join in; once fully claimed it is retired here (or by
      // its RunAll caller, whichever sees it first).
      if (batch->next.load(std::memory_order_relaxed) >=
          batch->tasks.size()) {
        queue_.pop_front();
        continue;
      }
    }
    Work(batch.get(), /*is_worker=*/true);
  }
}

Status ThreadPool::RunAll(std::vector<std::function<Status()>> tasks) {
  const size_t n = tasks.size();
  if (n == 0) return Status::Ok();
  CounterAdd(batches_);
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  struct InflightGuard {
    std::atomic<size_t>* counter;
    ~InflightGuard() { counter->fetch_sub(1, std::memory_order_acq_rel); }
  } inflight_guard{&inflight_};
  if (workers_.empty() || n == 1) {
    // Same contract as the parallel path: run everything, report the
    // lowest-indexed failure. Early-exit here would make a batch's side
    // effects depend on the DOP.
    Status first_error = Status::Ok();
    for (std::function<Status()>& t : tasks) {
      CounterAdd(dispatched_);
      Status st = Dispatch(t);
      if (!st.ok() && first_error.ok()) first_error = std::move(st);
    }
    return first_error;
  }
  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  batch->statuses.assign(n, Status::Ok());
  batch->suppressed = Failpoints::suppressed();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(batch);
  }
  queue_cv_.notify_all();
  // Caller participation: claim tasks like any worker, then wait for the
  // stragglers other threads claimed.
  Work(batch.get(), /*is_worker=*/false);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == n;
    });
  }
  {
    // The batch may still sit at the queue front if workers never woke up;
    // drop it so they do not spin on an exhausted batch.
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->get() == batch.get()) {
        queue_.erase(it);
        break;
      }
    }
  }
  for (const Status& s : batch->statuses) {
    XNF_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

}  // namespace xnf
