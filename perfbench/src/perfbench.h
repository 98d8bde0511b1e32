#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// The repository benchmark. Three workloads drive the public entry points of
// the driver, server and dist layers over one generated dataset; a traced
// run times the benchmark's own calls into each layer and replays sampled
// instances through the layers' public functions to split the measured
// window into exclusive per-layer time. See perfbench/README.md.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.h"
#include "storage/vss.h"
#include "systems/vdbms.h"

namespace perfbench {

namespace vr = ::visualroad;

// ---------------------------------------------------------------------------
// Timing, statistics and process accounting (harness.cc).

/// Seconds on the steady clock since an arbitrary process epoch.
double NowSeconds();

/// Harrell-Davis estimate of the `p` quantile, p in (0, 1): a Beta-weighted
/// average of all order statistics. From the few values of one run it varies
/// much less between runs than the single order statistic a nearest-rank
/// percentile picks. Every median and percentile the benchmark reports uses
/// it. 0 for an empty sample.
double QuantileHD(std::vector<double> values, double p);

/// Peak resident set of this process plus the current peaks of its live
/// child processes (the cluster's workers), in MiB, read from /proc.
double PeakRssMb();

/// Digest of an encoded video's frame payloads.
uint64_t VideoDigest(const vr::video::codec::EncodedVideo& video);

/// The benchmark's span log. Disabled logs record nothing and cost one
/// branch per call; enabled logs keep spans in memory until the run ends and
/// account the time spent recording them (the tracing overhead).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Records [start, end) (NowSeconds() values) under `name`.
  void Record(const std::string& name, double start, double end);

  /// Seconds spent inside Record().
  double overhead_seconds() const;

  /// Writes the spans as Chrome trace JSON.
  vr::Status WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<vr::trace::Event> events_;
  double overhead_seconds_ = 0.0;
};

/// Named metrics with units, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string Json() const;
  /// One "name = value unit" line per metric.
  std::string Text(const std::string& indent) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// The engine wrapper: times every Execute call the program makes on it.

/// One Execute call as seen from outside the engine.
struct CallRecord {
  vr::queries::QueryInstance instance;
  double start = 0.0;
  double end = 0.0;
  vr::systems::EngineStats stats;
};

/// Forwards every Vdbms call to the wrapped engine and records the wall
/// span and per-call counters of each Execute. The wrapper is installed in
/// untraced and traced runs alike, so both measure the same code path.
class TimedEngine : public vr::systems::Vdbms {
 public:
  TimedEngine(std::unique_ptr<vr::systems::Vdbms> engine, SpanLog* spans)
      : engine_(std::move(engine)), spans_(spans) {}

  const char* name() const override { return engine_->name(); }
  bool Supports(vr::queries::QueryId id) const override {
    return engine_->Supports(id);
  }
  bool ConcurrentSafe() const override { return engine_->ConcurrentSafe(); }
  vr::StatusOr<vr::systems::QueryOutput> Execute(
      const vr::queries::QueryInstance& instance, const vr::sim::Dataset& dataset,
      vr::systems::OutputMode mode, const std::string& output_dir,
      vr::systems::EngineStats* call_stats = nullptr) override;
  void Quiesce() override { engine_->Quiesce(); }
  vr::systems::EngineStats stats() const override { return engine_->stats(); }

  /// Moves out the calls recorded so far.
  std::vector<CallRecord> TakeCalls();

 private:
  std::unique_ptr<vr::systems::Vdbms> engine_;
  SpanLog* spans_;
  std::mutex mutex_;
  std::vector<CallRecord> calls_;
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cc).

struct RunOptions {
  std::string workload;
  /// Workload seed: query parameters, and serve_mix's query order.
  uint64_t seed = 1;
  /// The second seed: the generated city. As in the paper, the dataset is
  /// generated once from a fixed configuration and the driver samples
  /// queries against it; a claim can be re-checked on a city it was not
  /// tuned on by changing this seed.
  uint64_t dataset_seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the store, outputs and traces.
  std::string work_dir;
  /// Set-up repetitions whose median is setup_s (and the per-layer set-up
  /// times).
  int setup_reps = 3;
};

/// Recorded Q2(c) semantic pass counts (see RecordSemanticCounts), relative
/// to the checkout root the benchmark runs from.
inline constexpr char kExpectedSemanticPath[] = "perfbench/expected_semantic.txt";

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Human-readable reasons the correctness gate failed.
  std::vector<std::string> errors;
  /// Notes printed beside the result (gate details, sample counts).
  std::vector<std::string> notes;
  MetricSet end_to_end;
  MetricSet per_layer;

  void Fail(const std::string& reason) {
    correct = false;
    errors.push_back(reason);
  }
};

/// Runs one workload. Returns an error only when the run could not proceed
/// at all; a failed correctness check is reported through Outcome.
vr::StatusOr<Outcome> RunWorkload(const RunOptions& options);

/// Prints, for options.dataset_seed, one line per traffic stream and object
/// class: "<dataset seed> <stream> <class> <passed> <checked>", the semantic
/// validation counts of that Q2(c) instance. These lines are the recorded
/// counts the offline gates compare batches against.
vr::Status RecordSemanticCounts(const RunOptions& options);

// ---------------------------------------------------------------------------
// Layer replay (replay.cc).

/// Per-layer cost of one query instance, replayed through each layer's
/// public functions in the order the engine uses them.
struct LayerSample {
  double storage_read_s = 0.0;
  double decode_s = 0.0;
  double detect_s = 0.0;
  double op_s = 0.0;
  double encode_s = 0.0;
  double mux_s = 0.0;
  /// Work the replay did, for ScaleToCall.
  int64_t frames_decoded = 0;
  int64_t cnn_frames = 0;
  int64_t frames_encoded = 0;

  void Add(const LayerSample& other);
};

struct ReplayContext {
  const vr::sim::Dataset* dataset = nullptr;
  vr::storage::VideoStorageService* vss = nullptr;
  vr::systems::EngineOptions engine_options;
  /// Write mode persists the encoded result here (the engine's mux step).
  std::string mux_path;
  bool write_mode = true;
};

/// Replays `instance` layer by layer: VSS ReadRange, codec DecodeRange, the
/// reference operator and MiniYolo::Detect, codec encode at the output QP,
/// and WriteContainerFile (write mode).
vr::StatusOr<LayerSample> ReplayInstance(const ReplayContext& context,
                                         const vr::queries::QueryInstance& instance);

/// Scales the decode, detect and encode parts of a replay to the work the
/// measured call actually did, as counted by its EngineStats: a GOP-cache
/// hit decodes nothing and a semantic-cache hit runs no CNN.
void ScaleToCall(const vr::systems::EngineStats& call, LayerSample& sample);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
