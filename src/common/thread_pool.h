#ifndef VISUALROAD_COMMON_THREAD_POOL_H_
#define VISUALROAD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace visualroad {

/// Lifetime counters for one pool, aggregated across workers. The busy /
/// (threads x wall) ratio is the pool's parallel efficiency, which the
/// benchmark reports print per phase.
struct PoolStats {
  /// Tasks handed to Submit(), including the chunk tasks ParallelFor and
  /// ParallelForStatus create internally.
  int64_t tasks_submitted = 0;
  /// Tasks a worker ran to completion (successfully or not).
  int64_t tasks_executed = 0;
  /// Tasks that threw, plus ParallelForStatus chunks that returned an error.
  int64_t tasks_failed = 0;
  /// High-water mark of the pending-task queue depth.
  int64_t queue_peak = 0;
  /// Total wall-clock seconds workers spent inside tasks.
  double busy_seconds = 0.0;
};

/// Counter movement between two stats() snapshots of one pool (`after` minus
/// `before`), for per-phase attribution on a long-lived pool. queue_peak is
/// carried from `after` unchanged — a high-water mark is not a counter;
/// callers that want the peak of just their window call ResetQueuePeak() at
/// the window start.
PoolStats PoolStatsDelta(const PoolStats& after, const PoolStats& before);

/// A fixed-size worker pool. Used by the VCG (parallel tile generation and
/// distributed mode), the VCD's parallel batch execution, the BatchEngine's
/// stage executor, and the codec pool that runs GOP-parallel coding and the
/// PipelineEngine's operators.
///
/// A ParallelFor or ParallelForStatus call made from one of this pool's own
/// workers runs its loop inline on that worker instead of queueing chunks
/// and blocking on them, so nested calls cannot deadlock. Submit() followed
/// by Wait() from a worker still can: Wait() blocks on every task in flight,
/// including the caller's own.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1). `name` selects the
  /// `pool="<name>"` label under which this pool's counters aggregate in the
  /// process-wide metrics registry (docs/OBSERVABILITY.md lists the label
  /// values in use); pools sharing a name share registry counters, while the
  /// per-instance stats() snapshot below stays exact per pool.
  explicit ThreadPool(int num_threads, const char* name = "adhoc");

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. A task that throws does not take the
  /// worker (or the process) down: the first exception is captured and
  /// surfaced by the next Wait().
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Returns the first
  /// failure captured since the previous Wait() (a thrown exception becomes
  /// an Internal status) and clears it; Ok when every task succeeded.
  Status Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(i)` for i in [0, count) across the pool and waits. Indices are
  /// batched into chunks of `grain` (0 picks a grain that yields several
  /// chunks per worker), so cheap bodies do not pay one queue round-trip per
  /// index. The calling thread does not participate, matching a
  /// dispatch-to-cluster model, unless it is one of this pool's workers: then
  /// the loop runs inline on it. A body that throws is captured as with
  /// Submit() and surfaced by the next Wait().
  void ParallelFor(int count, const std::function<void(int)>& fn, int grain = 0);

  /// As ParallelFor, but the body returns Status and the call returns the
  /// failure with the lowest index (exceptions are converted to Internal).
  /// Once any chunk fails, not-yet-started chunks are skipped. Completion is
  /// tracked per call, so concurrent callers on one pool do not interfere.
  /// Called from this pool's own worker, the loop runs inline in index order
  /// and stops at the first failure.
  Status ParallelForStatus(int count, const std::function<Status(int)>& fn,
                           int grain = 0);

  /// Counters accumulated since construction.
  PoolStats stats() const;

  /// Resets the queue-peak high-water mark to the current queue depth, so the
  /// next stats() reports the peak reached since this call. Pairs with
  /// PoolStatsDelta() when one pool serves many measured phases. The
  /// process-wide vr_pool_queue_peak gauge keeps its lifetime high-water
  /// semantics and is unaffected.
  void ResetQueuePeak();

  /// The hardware concurrency, at least 1.
  static int HardwareThreads();

 private:
  void WorkerLoop();

  /// Records a chunk failure in the pool counters (the error itself is
  /// routed through the call's own state, not the pool).
  void RecordChunkFailure();

  /// Registry instruments behind the `vr_pool_*` metric family, labeled with
  /// this pool's name. The lifetime counters in `stats_` remain the
  /// per-instance source of truth; these aggregate across instances.
  struct RegistryCounters {
    metrics::Counter* submitted = nullptr;
    metrics::Counter* executed = nullptr;
    metrics::Counter* failed = nullptr;
    metrics::Counter* busy_seconds = nullptr;
    metrics::Gauge* queue_peak = nullptr;
  };

  std::vector<std::thread> workers_;
  RegistryCounters registry_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  int in_flight_ = 0;
  bool shutting_down_ = false;
  Status first_error_;
  PoolStats stats_;
};

}  // namespace visualroad

#endif  // VISUALROAD_COMMON_THREAD_POOL_H_
