#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>

#include "common/stopwatch.h"

namespace visualroad {

namespace {

/// Converts a caught exception into a Status without letting it escape the
/// worker thread.
Status CurrentExceptionToStatus() {
  try {
    throw;
  } catch (const std::exception& e) {
    return Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("task threw a non-standard exception");
  }
}

/// The pool whose worker loop runs on this thread; null elsewhere. Lets a
/// nested ParallelForStatus on the same pool run inline instead of blocking
/// a worker on chunks that may need that worker to run.
thread_local const ThreadPool* current_pool = nullptr;

/// Runs fn(i) for i in [begin, end) in order, stopping at the first failure.
/// Returns that failure (exceptions become Internal) and its index.
Status RunRange(int begin, int end, const std::function<Status(int)>& fn,
                int* failed_at) {
  int i = begin;
  try {
    for (; i < end; ++i) {
      Status status = fn(i);
      if (!status.ok()) {
        *failed_at = i;
        return status;
      }
    }
  } catch (...) {
    *failed_at = i;
    return CurrentExceptionToStatus();
  }
  return Status::Ok();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads, const char* name) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  std::string labels = std::string("pool=\"") + name + "\"";
  registry_.submitted = &registry.GetCounter(
      "vr_pool_tasks_submitted_total",
      "Tasks handed to ThreadPool::Submit, including ParallelFor chunks",
      labels);
  registry_.executed = &registry.GetCounter(
      "vr_pool_tasks_executed_total", "Tasks a pool worker ran to completion",
      labels);
  registry_.failed = &registry.GetCounter(
      "vr_pool_tasks_failed_total",
      "Tasks that threw plus ParallelForStatus chunks that returned an error",
      labels);
  registry_.busy_seconds = &registry.GetCounter(
      "vr_pool_busy_seconds_total",
      "Wall-clock seconds pool workers spent inside tasks", labels);
  registry_.queue_peak = &registry.GetGauge(
      "vr_pool_queue_peak", "High-water mark of the pending-task queue depth",
      labels);
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
    ++stats_.tasks_submitted;
    stats_.queue_peak =
        std::max(stats_.queue_peak, static_cast<int64_t>(tasks_.size()));
    registry_.submitted->Increment();
    registry_.queue_peak->SetMax(static_cast<double>(stats_.queue_peak));
  }
  task_available_.notify_one();
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  Status first = std::move(first_error_);
  first_error_ = Status::Ok();
  return first;
}

void ThreadPool::ParallelFor(int count, const std::function<void(int)>& fn,
                             int grain) {
  Status status = ParallelForStatus(
      count,
      [&fn](int i) {
        fn(i);
        return Status::Ok();
      },
      grain);
  if (!status.ok()) {
    // Void callers have nowhere to put the error; park it for the next
    // Wait(), mirroring the Submit() path.
    std::unique_lock<std::mutex> lock(mutex_);
    if (first_error_.ok()) first_error_ = std::move(status);
  }
}

Status ThreadPool::ParallelForStatus(int count,
                                     const std::function<Status(int)>& fn,
                                     int grain) {
  if (count <= 0) return Status::Ok();
  if (current_pool == this) {
    // Queueing chunks and blocking on them from a worker could wait forever
    // once every worker does the same; the worker runs the loop itself.
    int failed_at = 0;
    return RunRange(0, count, fn, &failed_at);
  }
  if (grain <= 0) {
    // Several chunks per worker keeps the pool balanced without paying one
    // queue round-trip per index.
    grain = std::max(1, count / (num_threads() * 4));
  }
  int chunks = (count + grain - 1) / grain;

  // Completion is tracked per call so concurrent ParallelForStatus calls on
  // one pool cannot steal each other's errors or wake-ups. The shared_ptr
  // keeps the state alive until the last chunk task has released it, even
  // after the waiter has returned.
  struct CallState {
    std::mutex mutex;
    std::condition_variable done;
    int pending = 0;
    int failed_index = std::numeric_limits<int>::max();
    Status first_error;
    std::atomic<bool> failed{false};
  };
  auto state = std::make_shared<CallState>();
  state->pending = chunks;

  for (int c = 0; c < chunks; ++c) {
    int begin = c * grain;
    int end = std::min(count, begin + grain);
    Submit([this, state, begin, end, &fn] {
      Status status = Status::Ok();
      int failed_at = begin;
      // Once any chunk has failed, later chunks skip their work entirely
      // (the waiter only ever sees the lowest-index failure anyway).
      if (!state->failed.load(std::memory_order_relaxed)) {
        status = RunRange(begin, end, fn, &failed_at);
      }
      if (!status.ok()) {
        state->failed.store(true, std::memory_order_relaxed);
        RecordChunkFailure();
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (!status.ok() && failed_at < state->failed_index) {
        state->failed_index = failed_at;
        state->first_error = std::move(status);
      }
      if (--state->pending == 0) state->done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&state] { return state->pending == 0; });
  return state->first_error;
}

PoolStats ThreadPool::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

void ThreadPool::ResetQueuePeak() {
  std::unique_lock<std::mutex> lock(mutex_);
  stats_.queue_peak = static_cast<int64_t>(tasks_.size());
}

PoolStats PoolStatsDelta(const PoolStats& after, const PoolStats& before) {
  PoolStats delta;
  delta.tasks_submitted = after.tasks_submitted - before.tasks_submitted;
  delta.tasks_executed = after.tasks_executed - before.tasks_executed;
  delta.tasks_failed = after.tasks_failed - before.tasks_failed;
  delta.queue_peak = after.queue_peak;
  delta.busy_seconds = after.busy_seconds - before.busy_seconds;
  return delta;
}

int ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::RecordChunkFailure() {
  registry_.failed->Increment();
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.tasks_failed;
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // Shutting down with no work left.
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    Stopwatch watch;
    Status status = Status::Ok();
    try {
      task();
    } catch (...) {
      status = CurrentExceptionToStatus();
    }
    double elapsed = watch.ElapsedSeconds();
    registry_.executed->Increment();
    registry_.busy_seconds->Increment(elapsed);
    if (!status.ok()) registry_.failed->Increment();
    {
      // The decrement runs whether or not the task threw, so Wait() can
      // never strand on a poisoned counter.
      std::unique_lock<std::mutex> lock(mutex_);
      ++stats_.tasks_executed;
      stats_.busy_seconds += elapsed;
      if (!status.ok()) {
        ++stats_.tasks_failed;
        if (first_error_.ok()) first_error_ = std::move(status);
      }
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace visualroad
