#ifndef VISUALROAD_SYSTEMS_VDBMS_H_
#define VISUALROAD_SYSTEMS_VDBMS_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "queries/plan.h"
#include "queries/reference.h"
#include "queries/semantic_cache.h"

namespace visualroad::video::codec {
class GopCache;
}  // namespace visualroad::video::codec

namespace visualroad::storage {
class VideoStorageService;
}  // namespace visualroad::storage

namespace visualroad::systems {

/// Benchmark execution modes (Section 3.2). Offline gives the engine random
/// access to whole files; online exposes a throttled forward-only iterator.
enum class ExecutionMode {
  kOffline = 0,
  kOnline = 1,
};

/// Result handling modes (Section 3.2). Write mode persists each result so
/// the VCD can validate it (persist time included in the measured runtime);
/// streaming mode discards results.
enum class OutputMode {
  kWrite = 0,
  kStreaming = 1,
};

/// Engine configuration shared by all three systems.
struct EngineOptions {
  /// Materialisation budget for the batch engine; exceeding it triggers
  /// chunked re-decoding (the "memory thrashing" regime of Section 6.2).
  int64_t memory_budget_bytes = int64_t{192} << 20;
  /// Hard ceiling: a single materialised output larger than this fails with
  /// ResourceExhausted (the batch engine's Q4 behaviour in the paper).
  int64_t memory_fail_bytes = int64_t{768} << 20;
  /// Worker threads for batch-parallel stages.
  int threads = 4;
  /// QP for encoding query outputs (low = near-lossless, so frame validation
  /// has headroom over the 40 dB threshold).
  int output_qp = 12;
  video::codec::Profile output_profile = video::codec::Profile::kH264Like;
  /// Reference detector settings; engines override input_size per their
  /// architecture.
  vision::DetectorOptions detector;
  /// Threads for GOP-parallel output encoding (and validation decodes).
  /// 0 means the codec pool default (hardware concurrency).
  int codec_threads = 0;
  /// Byte budget applied to the decoded-GOP cache at engine construction;
  /// 0 leaves the cache's current capacity untouched.
  int64_t gop_cache_bytes = 0;
  /// Decoded-GOP cache the engine routes decodes through. Null selects the
  /// process-wide GopCache::Global(); tests inject private instances.
  video::codec::GopCache* gop_cache = nullptr;
  double plate_match_threshold = 0.80;
  /// Storage-backed offline mode: when set, engines read input bitstreams
  /// (whole or as GOP-aligned frame ranges) from the storage service
  /// instead of the dataset's in-memory containers. The base tier returns
  /// the ingested bitstream byte-for-byte, so query results are identical
  /// either way. Borrowed; must outlive the engine.
  storage::VideoStorageService* vss = nullptr;
  /// Semantic result store for materialized inference outputs. Null turns
  /// semantic caching off entirely: engines run every query from scratch and
  /// results are byte-identical to the caching path by construction (both
  /// render from the same unfiltered detections). Borrowed; engines under
  /// one server share a single cache, which is what enables cross-tenant
  /// reuse. Tests inject private instances.
  queries::SemanticCache* semantic_cache = nullptr;
  /// Distributed scale-out fan-out (DESIGN.md Section 15): the number of
  /// worker processes the driver's coordinator shards batches across. 0 =
  /// single-process execution. Engines ignore it — it rides here so a
  /// worker's reconstructed EngineOptions mirror the coordinator's exactly.
  int workers = 0;
};

/// The outcome of one query instance.
struct QueryOutput {
  /// True when a result artefact was produced (write mode).
  bool produced = false;
  /// Encoded result video (write mode, video-producing queries).
  video::codec::EncodedVideo video;
  /// Per-frame detections (Q2(c)/Q6(a)/Q7), for semantic validation.
  std::vector<std::vector<vision::Detection>> detections;
  /// Path of the container written in write mode (empty otherwise).
  std::string written_path;
};

/// Execution counters exposed for tests and ablation benches.
struct EngineStats {
  int64_t frames_decoded = 0;
  int64_t frames_encoded = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t chunked_redecodes = 0;
  int64_t cnn_frames_full = 0;
  int64_t cnn_frames_cheap = 0;
  int64_t cnn_frames_skipped = 0;

  /// Field-wise accumulation, for summing per-call windows into a batch
  /// aggregate (the VCD merges in instance-index order so parallel and
  /// serial execution report identically).
  void Add(const EngineStats& other) {
    frames_decoded += other.frames_decoded;
    frames_encoded += other.frames_encoded;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    chunked_redecodes += other.chunked_redecodes;
    cnn_frames_full += other.cnn_frames_full;
    cnn_frames_cheap += other.cnn_frames_cheap;
    cnn_frames_skipped += other.cnn_frames_skipped;
  }
};

/// The outcome of executing one query instance, shared by the VCD, the query
/// server and distributed workers (which ship it over the wire). The kind of
/// outcome is read from `status`: Ok succeeded, kUnimplemented means the
/// engine declined the query, anything else failed.
struct InstanceOutcome {
  Status status = Status::Ok();
  QueryOutput output;
  /// Engine counter movement of exactly this call (per-call window, correct
  /// under concurrent Execute calls).
  EngineStats engine_stats;
  /// Thread-scoped fault accounting over this call (exactly-once).
  int64_t frames_degraded = 0;
  int64_t retries = 0;
  /// Wall-clock seconds inside Execute (excludes queueing and transport).
  double exec_seconds = 0.0;

  bool succeeded() const { return status.ok(); }
  bool unsupported() const { return status.code() == StatusCode::kUnimplemented; }
  bool failed() const { return !succeeded() && !unsupported(); }
  /// A failure from memory exhaustion (the paper's N/A, e.g. Scanner on Q4).
  bool resource_exhausted() const {
    return status.code() == StatusCode::kResourceExhausted;
  }
};

/// The architecture-agnostic interface every benchmarked VDBMS implements
/// (the paper expresses each query in a system-agnostic way; this interface
/// is this repository's equivalent contract).
class Vdbms {
 public:
  virtual ~Vdbms() = default;

  virtual const char* name() const = 0;

  /// Whether this system can express the query at all (NoScope-like engines
  /// support only a narrow slice; see Figure 5).
  virtual bool Supports(queries::QueryId id) const = 0;

  /// Whether Execute() may be called concurrently from multiple threads.
  /// The VCD and the query server only overlap instances on engines that
  /// opt in; stateful engines (caches keyed on shared maps, running
  /// counters without synchronisation) run one instance at a time.
  virtual bool ConcurrentSafe() const { return false; }

  /// Executes one query instance against the dataset. In write mode the
  /// result is encoded and persisted under `output_dir`.
  ///
  /// `call_stats` (optional) receives the engine counter movement of exactly
  /// this call: engines thread a per-call counter set through their stages
  /// and fold it into the cumulative stats() at the end, so the window is
  /// correct even when Execute() calls overlap on one engine — unlike a
  /// stats() before/after snapshot, which conflates whatever else ran in
  /// between. Filled (or left zero) on both success and failure.
  virtual StatusOr<QueryOutput> Execute(const queries::QueryInstance& instance,
                                        const sim::Dataset& dataset, OutputMode mode,
                                        const std::string& output_dir,
                                        EngineStats* call_stats = nullptr) = 0;

  /// Human-readable execution plan for `instance` without executing it
  /// (`vcd --explain`). Reports predicate pushdown windows, semantic-cache
  /// temperature, and the measured-selectivity stage order. Engines that do
  /// not plan return "".
  virtual std::string Explain(const queries::QueryInstance& instance,
                              const sim::Dataset& dataset) {
    (void)instance;
    (void)dataset;
    return "";
  }

  /// Drops caches and transient state; the VCD may call this between
  /// batches ("a VDBMS may optionally quiesce or restart upon completing a
  /// batch", Section 3.2).
  virtual void Quiesce() {}

  /// Cumulative execution counters for this engine instance. Pure virtual:
  /// every engine maintains real counters, so a silent all-zeros default can
  /// never mask a missing implementation.
  virtual EngineStats stats() const = 0;
};

/// Factory functions for the three comparison engines (see DESIGN.md for the
/// architectural correspondence to Scanner, LightDB, and NoScope).
std::unique_ptr<Vdbms> MakeBatchEngine(const EngineOptions& options);
std::unique_ptr<Vdbms> MakePipelineEngine(const EngineOptions& options);
std::unique_ptr<Vdbms> MakeCascadeEngine(const EngineOptions& options);

/// Executes one query instance on `engine`: declines it as unsupported when
/// the engine cannot express the query, else times Execute and attributes
/// the thread-scoped retry and degraded-frame counters to this call. Every
/// execution path (driver, query server, distributed worker) runs instances
/// through here, so the same instance yields the same outcome on each.
InstanceOutcome ExecuteInstance(Vdbms& engine, const queries::QueryInstance& instance,
                                const sim::Dataset& dataset, OutputMode mode,
                                const std::string& output_dir);

/// Shared helpers for engine implementations.
namespace detail {

/// The traffic asset a query instance addresses, or an error.
StatusOr<const sim::VideoAsset*> InputAsset(const queries::QueryInstance& instance,
                                            const sim::Dataset& dataset);

/// The input bitstream for `asset`: read from the storage service at the
/// asset's base tier when `options.vss` is set (storage-backed offline
/// mode), else a non-owning view of the in-memory container. Byte-identical
/// either way.
StatusOr<std::shared_ptr<const video::codec::EncodedVideo>> ResolveInput(
    const sim::VideoAsset& asset, const EngineOptions& options);

/// A resolved frame range: `video->frames[0]` is logical frame
/// `first_frame` of the input stream.
struct ResolvedRange {
  std::shared_ptr<const video::codec::EncodedVideo> video;
  int first_frame = 0;
};

/// The covering bitstream for frames [first, first+count) of `asset`: a
/// GOP-aligned range read through the storage service when `options.vss`
/// is set, else a view of the whole in-memory container.
StatusOr<ResolvedRange> ResolveInputRange(const sim::VideoAsset& asset,
                                          const EngineOptions& options,
                                          int first, int count);

/// Encodes `result` and, in write mode, persists it as a container under
/// `output_dir` with a name derived from `instance`. Fills `output`.
Status FinishVideoResult(const video::Video& result,
                         const queries::QueryInstance& instance,
                         const EngineOptions& options, OutputMode mode,
                         const std::string& output_dir, const char* engine_name,
                         QueryOutput& output, int64_t* frames_encoded);

/// Decoded size of one frame in bytes (YUV420).
int64_t FrameBytes(int width, int height);

/// Input frames a query instance consumes: Q8 scans every traffic stream,
/// Q9/Q10 read their whole panoramic group, everything else reads one
/// traffic stream. Feeds the VCD's throughput metrics and the query
/// server's goodput report.
int64_t InputFrameCount(const queries::QueryInstance& instance,
                        const sim::Dataset& dataset);

/// The GOP cache selected by `options`: the injected instance if any, else
/// the process-wide one; applies `gop_cache_bytes` when positive.
video::codec::GopCache& ResolveGopCache(const EngineOptions& options);

/// Publishes an engine's cumulative EngineStats into the process-wide
/// metrics registry as `vr_engine_*` counters labeled `engine="<name>"`.
/// Engines call Publish(stats()) after each Execute; the mirror tracks the
/// last published snapshot per instance, so concurrent executes publish
/// exact deltas and the per-instance EngineStats stays the source of truth.
class EngineMetricsMirror {
 public:
  explicit EngineMetricsMirror(const char* engine_name);

  /// Records one completed Execute and folds `current - last_published`
  /// into the registry counters.
  void Publish(const EngineStats& current);

 private:
  metrics::Counter& queries_;
  metrics::Counter& frames_decoded_;
  metrics::Counter& frames_encoded_;
  metrics::Counter& cache_hits_;
  metrics::Counter& cache_misses_;
  metrics::Counter& chunked_redecodes_;
  metrics::Counter& cnn_frames_full_;
  metrics::Counter& cnn_frames_cheap_;
  metrics::Counter& cnn_frames_skipped_;
  std::mutex mutex_;
  EngineStats last_;
};

}  // namespace detail

}  // namespace visualroad::systems

#endif  // VISUALROAD_SYSTEMS_VDBMS_H_
