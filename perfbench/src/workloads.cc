// The three workloads. Each sets up its environment several times (setup_s
// is the median), runs a measured window, checks the program's outputs, and
// fills the end-to-end metrics; a traced run also fills the per-layer ones.

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/random.h"
#include "driver/datasets.h"
#include "driver/validation.h"
#include "driver/vcd.h"
#include "perfbench.h"
#include "queries/params.h"
#include "queries/semantic_cache.h"
#include "server/server.h"
#include "storage/sharded_store.h"
#include "video/codec/gop_cache.h"
#include "video/container/vrmp.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using vr::Status;
using vr::StatusOr;
using vr::queries::QueryId;
using vr::queries::QueryInstance;

// The one dataset every workload uses: L=2, 240x136, 2 s at 15 fps (16
// streams, 480 frames).
constexpr int kScaleFactor = 2;
constexpr int kWidth = 240;
constexpr int kHeight = 136;
constexpr double kDurationSeconds = 2.0;
constexpr double kFps = 15.0;

// Thread budget (the codec pool comes on top): driver 2, server 2, workers 2.
constexpr int kDriverThreads = 2;
constexpr int kServerWorkers = 2;
constexpr int kClusterWorkers = 2;
constexpr int kGeneratorThreads = 2;

// serve_mix: 4 tenants, one instance per request, an 8 MB GOP cache (below
// the ~23.5 MB decoded working set), and one request more in flight than the
// server has workers, so one always queues.
constexpr int kTenants = 4;
constexpr int kOutstanding = kServerWorkers + 1;
constexpr int64_t kServeGopCacheBytes = int64_t{8} << 20;

// Instances the traced run replays: per batch of round 0, and in total on
// serve_mix.
constexpr int kSamplesPerBatch = 2;
constexpr int kServeSamples = 24;

const std::vector<QueryId>& OfflineQueries() {
  static const std::vector<QueryId> ids = {
      QueryId::kQ1,  QueryId::kQ2a, QueryId::kQ2b, QueryId::kQ2c,
      QueryId::kQ2d, QueryId::kQ3,  QueryId::kQ5,  QueryId::kQ6a,
      QueryId::kQ6b, QueryId::kQ7,  QueryId::kQ9};
  return ids;
}

/// The serve_mix query weights. Q2(a) and Q7 appear twice so that the
/// latency median and 95th percentile fall inside a query class, not on the
/// gap between the cheap queries (Q1, Q2(c), Q5) and the expensive ones.
const std::vector<QueryId>& ServeBlock() {
  static const std::vector<QueryId> ids = {QueryId::kQ1,  QueryId::kQ2a, QueryId::kQ2a,
                                           QueryId::kQ2c, QueryId::kQ5,  QueryId::kQ7,
                                           QueryId::kQ7};
  return ids;
}

enum class Kind { kOffline, kServe, kCluster };

std::string Fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, a, b, c);
  return buffer;
}

// ---------------------------------------------------------------------------
// Set-up.

struct Env {
  std::string dir;
  vr::sim::Dataset dataset;
  std::unique_ptr<vr::storage::ShardedStore> store;
  std::unique_ptr<vr::storage::VideoStorageService> vss;
  std::unique_ptr<vr::queries::SemanticCache> semcache;
  vr::systems::EngineOptions engine_options;
  std::unique_ptr<TimedEngine> engine;
  std::unique_ptr<vr::driver::VisualCityDriver> vcd;

  double generate_s = 0.0;
  double stage_s = 0.0;
  double spawn_s = 0.0;
  double total_s = 0.0;
  int64_t frames_rendered = 0;

  ~Env() {
    // The driver owns the cluster; stop it before the store it reads goes.
    vcd.reset();
    engine.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// The driver's sampler seed: independent of the city seed, so either can
/// change alone.
uint64_t QuerySeed(const RunOptions& options) {
  return options.seed * 0x9E3779B97F4A7C15ULL + 0x5EED;
}

StatusOr<std::unique_ptr<Env>> SetUp(Kind kind, const RunOptions& options,
                                     SpanLog& spans, int rep) {
  auto env = std::make_unique<Env>();
  env->dir = options.work_dir + "/env" + std::to_string(rep);
  std::error_code ec;
  fs::remove_all(env->dir, ec);
  fs::create_directories(env->dir + "/out", ec);
  double t0 = NowSeconds();

  vr::sim::CityConfig config;
  config.scale_factor = kScaleFactor;
  config.width = kWidth;
  config.height = kHeight;
  config.duration_seconds = kDurationSeconds;
  config.fps = kFps;
  config.seed = options.dataset_seed;
  vr::sim::GeneratorOptions generator;
  generator.threads = kGeneratorThreads;
  VR_ASSIGN_OR_RETURN(env->dataset, vr::driver::PrepareDataset(config, generator));
  double t1 = NowSeconds();
  env->generate_s = t1 - t0;
  spans.Record("simulation.PrepareDataset", t0, t1);
  for (const vr::sim::VideoAsset& asset : env->dataset.assets) {
    env->frames_rendered += asset.container.video.FrameCount();
  }

  vr::storage::StoreOptions store_options;
  store_options.root = env->dir + "/store";
  VR_ASSIGN_OR_RETURN(vr::storage::ShardedStore store,
                      vr::storage::ShardedStore::Open(store_options));
  env->store = std::make_unique<vr::storage::ShardedStore>(std::move(store));
  vr::storage::VssOptions vss_options;
  vss_options.store = env->store.get();
  VR_ASSIGN_OR_RETURN(env->vss, vr::storage::VideoStorageService::Open(vss_options));

  if (kind == Kind::kServe) {
    env->semcache = std::make_unique<vr::queries::SemanticCache>();
    env->engine_options.gop_cache_bytes = kServeGopCacheBytes;
    // Each worker's encodes and decodes take their share of the CPUs, so two
    // concurrent requests do not oversubscribe the codec pool.
    env->engine_options.codec_threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / kServerWorkers);
  }
  env->engine_options.vss = env->vss.get();
  env->engine_options.semantic_cache = env->semcache.get();
  env->engine = std::make_unique<TimedEngine>(
      vr::systems::MakePipelineEngine(env->engine_options), &spans);

  vr::driver::VcdOptions vcd_options;
  vcd_options.output_mode = kind == Kind::kServe ? vr::systems::OutputMode::kStreaming
                                                 : vr::systems::OutputMode::kWrite;
  vcd_options.validate = true;
  vcd_options.output_dir = env->dir + "/out";
  vcd_options.seed = QuerySeed(options);
  vcd_options.parallel_instances = kDriverThreads;
  vcd_options.storage = env->vss.get();
  if (kind == Kind::kCluster) {
    vcd_options.workers = kClusterWorkers;
    vcd_options.worker_engine_options = env->engine_options;
    vcd_options.worker_engine_options.vss = nullptr;
    vcd_options.worker_engine_options.semantic_cache = nullptr;
  }
  env->vcd = std::make_unique<vr::driver::VisualCityDriver>(env->dataset, vcd_options);

  double t2 = NowSeconds();
  VR_RETURN_IF_ERROR(env->vcd->StageStorage());
  double t3 = NowSeconds();
  env->stage_s = t3 - t2;
  spans.Record("driver.StageStorage", t2, t3);

  if (kind == Kind::kServe) {
    // Warm the semantic cache: one cold Q2(c) per traffic stream
    // materialises that stream's detections, on as many threads as the
    // server has workers.
    const int streams = static_cast<int>(env->dataset.TrafficAssets().size());
    std::vector<Status> warmed(static_cast<size_t>(streams), Status::Ok());
    std::vector<std::thread> warmers;
    for (int t = 0; t < kServerWorkers; ++t) {
      warmers.emplace_back([&, t] {
        for (int v = t; v < streams; v += kServerWorkers) {
          QueryInstance warm;
          warm.id = QueryId::kQ2c;
          warm.video_index = v;
          warmed[static_cast<size_t>(v)] =
              env->engine
                  ->Execute(warm, env->dataset, vr::systems::OutputMode::kStreaming, "")
                  .status();
        }
      });
    }
    for (std::thread& warmer : warmers) warmer.join();
    for (const Status& status : warmed) VR_RETURN_IF_ERROR(status);
    env->engine->TakeCalls();
  }
  if (kind == Kind::kCluster) {
    // Force cluster start (dataset staging, worker spawn and set-up) with a
    // Q1 batch, so no measured window pays for it.
    double s0 = NowSeconds();
    VR_ASSIGN_OR_RETURN(vr::driver::QueryBatchResult warm,
                        env->vcd->RunQueryBatch(*env->engine, QueryId::kQ1));
    double s1 = NowSeconds();
    if (warm.failed > 0) return Status::Internal("cluster warm-up batch failed");
    env->engine->Quiesce();
    env->spawn_s = std::max(0.0, s1 - s0 - warm.total_seconds);
    spans.Record("dist.ClusterStart", s0, s1);
  }
  env->total_s = NowSeconds() - t0;
  return env;
}

/// Sets up `options.setup_reps` times and keeps the last environment; the
/// medians of the per-rep timings become the set-up metrics.
StatusOr<std::unique_ptr<Env>> SetUpRepeated(Kind kind, const RunOptions& options,
                                             SpanLog& spans, Outcome& outcome) {
  std::vector<double> total, generate, stage, spawn;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < std::max(1, options.setup_reps); ++rep) {
    env.reset();
    VR_ASSIGN_OR_RETURN(env, SetUp(kind, options, spans, rep));
    total.push_back(env->total_s);
    generate.push_back(env->generate_s);
    stage.push_back(env->stage_s);
    spawn.push_back(env->spawn_s);
  }
  outcome.end_to_end.Set("setup_s", QuantileHD(total, 0.5), "s");
  outcome.per_layer.Set("simulation.generate_s", QuantileHD(generate, 0.5), "s");
  outcome.per_layer.Set("simulation.frames_rendered",
                        static_cast<double>(env->frames_rendered), "count");
  outcome.per_layer.Set("storage.stage_s", QuantileHD(stage, 0.5), "s");
  outcome.per_layer.Set("dist.spawn_s", QuantileHD(spawn, 0.5), "s");
  return env;
}

// ---------------------------------------------------------------------------
// Counters read around the measured window.

/// A sample of a counter from the Prometheus exposition of the process-wide
/// registry (0 when absent).
double RegistryValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::atof(line.c_str() + name.size() + 1);
  }
  return 0.0;
}

double RpcBytes() {
  std::string text = vr::metrics::MetricsRegistry::Global().PrometheusText();
  return RegistryValue(text, "vr_rpc_bytes_sent_total") +
         RegistryValue(text, "vr_rpc_bytes_received_total");
}

struct CounterSnapshot {
  vr::video::codec::GopCacheStats gop;
  vr::storage::VssStats vss;
  vr::queries::SemanticCacheStats semcache;
  double rpc_bytes = 0.0;

  static CounterSnapshot Take(const Env& env) {
    CounterSnapshot s;
    s.gop = vr::video::codec::GopCache::Global().stats();
    s.vss = env.vss->stats();
    if (env.semcache != nullptr) s.semcache = env.semcache->stats();
    s.rpc_bytes = RpcBytes();
    return s;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Layer counters over the window (after minus before).
void CounterMetrics(const CounterSnapshot& before, const CounterSnapshot& after,
                    MetricSet& out) {
  int64_t hits = after.gop.hits + after.gop.coalesced - before.gop.hits -
                 before.gop.coalesced;
  int64_t misses = after.gop.misses - before.gop.misses;
  out.Set("video.gop_cache.hit_ratio",
          Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio");
  out.Set("video.gop_cache.evictions",
          static_cast<double>(after.gop.evictions - before.gop.evictions), "count");
  out.Set("storage.reads",
          static_cast<double>(after.vss.reads + after.vss.range_reads -
                              before.vss.reads - before.vss.range_reads),
          "count");
  out.Set("storage.bytes_read",
          static_cast<double>(after.vss.bytes_fetched - before.vss.bytes_fetched), "B");
  int64_t sc_hits = after.semcache.hits - before.semcache.hits;
  int64_t sc_misses = after.semcache.misses - before.semcache.misses;
  int64_t sc_coalesced = after.semcache.coalesced - before.semcache.coalesced;
  out.Set("queries.semcache.hit_ratio",
          Ratio(static_cast<double>(sc_hits),
                static_cast<double>(sc_hits + sc_misses + sc_coalesced)),
          "ratio");
  out.Set("queries.semcache.misses", static_cast<double>(sc_misses), "count");
  out.Set("dist.rpc_bytes", after.rpc_bytes - before.rpc_bytes, "B");
}

void EngineCounterMetrics(const vr::systems::EngineStats& stats, MetricSet& out) {
  out.Set("video.frames_decoded", static_cast<double>(stats.frames_decoded), "count");
  out.Set("video.frames_encoded", static_cast<double>(stats.frames_encoded), "count");
  out.Set("vision.cnn_frames", static_cast<double>(stats.cnn_frames_full), "count");
}

// ---------------------------------------------------------------------------
// Attribution: split the measured window into exclusive per-layer time.
//
// `executors` instances run at once (driver threads, server workers or
// cluster workers). Of the window W, X = min(W, exec_total / executors) is
// the time the average executor spent inside Execute; the rest, W - X, is
// the dispatching layer's own time (dispatch, coordination, queueing and
// idle). X is split across layers by the replayed samples' shares of their
// measured Execute time; what the replay does not explain is
// systems.unattributed_s. The parts add up to W by construction.
void Attribute(double window, double exec_total, int executors,
               const LayerSample& replayed, double replayed_exec,
               const std::string& dispatch_layer, MetricSet& out) {
  double busy = std::min(window, exec_total / std::max(1, executors));
  double scale = Ratio(busy, replayed_exec);
  struct Part {
    const char* name;
    double seconds;
  };
  const Part parts[] = {
      {"storage.read_s", replayed.storage_read_s}, {"video.decode_s", replayed.decode_s},
      {"vision.detect_s", replayed.detect_s},      {"queries.op_s", replayed.op_s},
      {"video.encode_s", replayed.encode_s},       {"video.mux_s", replayed.mux_s},
  };
  double attributed = 0.0;
  for (const Part& part : parts) {
    out.Set(part.name, part.seconds * scale, "s");
    attributed += part.seconds * scale;
  }
  out.Set("systems.unattributed_s", busy - attributed, "s");
  for (const char* layer : {"driver.dispatch_s", "server.dispatch_s", "dist.dispatch_s"}) {
    out.Set(layer, dispatch_layer + ".dispatch_s" == layer ? window - busy : 0.0, "s");
  }
  out.Set("bench.window_s", window, "s");
}

/// Per-layer metrics that do not apply to a workload are reported as 0, so
/// every traced run emits the full set.
void ZeroDefaults(MetricSet& out) {
  const std::pair<const char*, const char*> metrics[] = {
      {"server.queue_p95_s", "s"},        {"server.service_p50_s", "s"},
      {"server.queue_depth_peak", "count"}, {"server.shed", "count"},
      {"dist.batch_s", "s"},              {"dist.worker_busy_s", "s"},
      {"dist.rpc_retries", "count"},      {"driver.validate_s", "s"},
      {"driver.pool_busy_ratio", "ratio"}, {"bench.generator_lag_p95_s", "s"}};
  for (const auto& [name, unit] : metrics) {
    if (!out.Has(name)) out.Set(name, 0.0, unit);
  }
}

ReplayContext MakeReplayContext(const Env& env, bool write_mode) {
  ReplayContext context;
  context.dataset = &env.dataset;
  context.vss = env.vss.get();
  context.engine_options = env.engine_options;
  context.mux_path = env.dir + "/replay.vrmp";
  context.write_mode = write_mode;
  return context;
}

// ---------------------------------------------------------------------------
// Closed-loop batch rounds (offline_mix and cluster_mix).

struct BatchRun {
  QueryId id = QueryId::kQ1;
  int round = 0;
  vr::driver::QueryBatchResult result;
  double wall_s = 0.0;  // The RunQueryBatch call, validation included.
  /// Digests of the result files the batch wrote, by file name
  /// (cluster_mix, round 0).
  std::map<std::string, uint64_t> file_digests;
};

/// Checks one validated batch: nothing failed, every frame-validated output
/// met its PSNR threshold, and something was actually validated.
void CheckBatch(const BatchRun& run, Outcome& outcome) {
  const vr::driver::QueryBatchResult& r = run.result;
  const char* name = vr::queries::QueryName(run.id);
  if (r.failed > 0 || r.unsupported > 0 || r.succeeded != r.instances) {
    outcome.Fail(std::string(name) + ": " + std::to_string(r.failed) + " failed, " +
                 std::to_string(r.unsupported) + " unsupported (" + r.first_error + ")");
  }
  vr::queries::ValidationKind kind = vr::queries::ValidationFor(run.id);
  if (kind == vr::queries::ValidationKind::kFrame) {
    if (r.validation.checked == 0) {
      outcome.Fail(std::string(name) + ": no frame was validated");
    } else if (r.validation.passed != r.validation.checked) {
      outcome.Fail(std::string(name) + ": " + std::to_string(r.validation.passed) + "/" +
                   std::to_string(r.validation.checked) +
                   " frames met the PSNR threshold (min " +
                   Fmt("%.2f dB)", r.validation.min_psnr_db));
    }
  }
}

/// Semantic pass counts of round 0; later rounds must repeat them exactly.
void CheckRoundConsistency(const std::vector<BatchRun>& runs, Outcome& outcome) {
  std::map<QueryId, std::pair<int64_t, int64_t>> first;
  for (const BatchRun& run : runs) {
    if (vr::queries::ValidationFor(run.id) != vr::queries::ValidationKind::kSemantic) {
      continue;
    }
    std::pair<int64_t, int64_t> counts{run.result.validation.passed,
                                       run.result.validation.checked};
    auto [it, inserted] = first.emplace(run.id, counts);
    if (!inserted && it->second != counts) {
      outcome.Fail(std::string(vr::queries::QueryName(run.id)) +
                   ": semantic pass counts differ between rounds");
    }
  }
  std::string line = "semantic:";
  for (const auto& [id, counts] : first) {
    line += std::string(" ") + vr::queries::QueryName(id) + "=" +
            std::to_string(counts.first) + "/" + std::to_string(counts.second);
  }
  outcome.notes.push_back(line);
}

/// Recorded Q2(c) counts, keyed by (dataset seed, stream, object class).
using SemanticTable = std::map<std::tuple<uint64_t, int, int>, std::pair<int64_t, int64_t>>;

SemanticTable LoadSemanticTable(const std::string& path) {
  SemanticTable table;
  std::ifstream in(path);
  unsigned long long seed = 0;
  int stream = 0, object_class = 0;
  long long passed = 0, checked = 0;
  while (in >> seed >> stream >> object_class >> passed >> checked) {
    table[{seed, stream, object_class}] = {passed, checked};
  }
  return table;
}

/// Q2(c)'s pass count is a sum over its instances of per-(stream, class)
/// counts; Q2(d) must pass every frame. Counts must repeat across rounds.
void CheckSemanticCounts(const Env& env, const RunOptions& options,
                         const std::vector<BatchRun>& runs, Outcome& outcome) {
  SemanticTable table = LoadSemanticTable(kExpectedSemanticPath);
  std::pair<int64_t, int64_t> expected{0, 0};
  bool recorded = !table.empty();
  StatusOr<std::vector<QueryInstance>> batch = env.vcd->SampleBatch(QueryId::kQ2c);
  if (!batch.ok()) recorded = false;
  for (const QueryInstance& instance : recorded ? *batch : std::vector<QueryInstance>{}) {
    auto it = table.find({options.dataset_seed, instance.video_index,
                          static_cast<int>(instance.object_class)});
    if (it == table.end()) {
      recorded = false;
      break;
    }
    expected.first += it->second.first;
    expected.second += it->second.second;
  }
  for (const BatchRun& run : runs) {
    const vr::driver::ValidationStats& v = run.result.validation;
    if (run.id == QueryId::kQ2c && recorded &&
        std::make_pair(v.passed, v.checked) != expected) {
      outcome.Fail("Q2(c): " + std::to_string(v.passed) + "/" + std::to_string(v.checked) +
                   " detections passed, recorded " + std::to_string(expected.first) + "/" +
                   std::to_string(expected.second));
    }
    if (run.id == QueryId::kQ2d && (v.checked == 0 || v.passed != v.checked)) {
      outcome.Fail("Q2(d): " + std::to_string(v.passed) + "/" + std::to_string(v.checked) +
                   " masked frames agreed with the reference");
    }
  }
  if (!recorded) {
    outcome.notes.push_back("no recorded Q2(c) counts for dataset seed " +
                            std::to_string(options.dataset_seed) +
                            "; checked round-to-round consistency only");
  }
  CheckRoundConsistency(runs, outcome);
}

std::map<std::string, uint64_t> FileDigests(const std::string& dir) {
  std::map<std::string, uint64_t> digests;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    auto container = vr::video::container::ReadContainerFile(entry.path().string());
    if (container.ok()) digests[entry.path().filename().string()] = VideoDigest(container->video);
  }
  return digests;
}

void ClearDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

/// Runs as many whole rounds of the offline query list as fit in `seconds`
/// at round 0's pace, and at least one. Every round repeats the same
/// batches, so the query mix does not depend on host speed.
StatusOr<std::vector<BatchRun>> RunRounds(Env& env, double seconds, SpanLog& spans,
                                          bool keep_files) {
  std::vector<BatchRun> runs;
  double window = 0.0;
  int rounds = 1;
  const std::string out_dir = env.dir + "/out";
  for (int round = 0; round < rounds; ++round) {
    for (QueryId id : OfflineQueries()) {
      if (keep_files) ClearDir(out_dir);
      BatchRun run;
      run.id = id;
      run.round = round;
      double t0 = NowSeconds();
      VR_ASSIGN_OR_RETURN(run.result, env.vcd->RunQueryBatch(*env.engine, id));
      double t1 = NowSeconds();
      run.wall_s = t1 - t0;
      spans.Record(std::string("driver.RunQueryBatch:") + vr::queries::QueryName(id), t0,
                   t1);
      // Engines may quiesce between batches (Section 3.2).
      env.engine->Quiesce();
      if (keep_files && round == 0) run.file_digests = FileDigests(out_dir);
      window += run.result.total_seconds;
      runs.push_back(std::move(run));
    }
    if (round == 0) rounds = std::max(1, static_cast<int>(seconds / window));
  }
  return runs;
}

/// End-to-end metrics common to the closed-loop workloads.
void BatchMetrics(const std::vector<BatchRun>& runs, Outcome& outcome) {
  double window = 0.0, attempted_frames = 0.0, good_frames = 0.0;
  std::vector<double> latencies;
  for (const BatchRun& run : runs) {
    const vr::driver::QueryBatchResult& r = run.result;
    window += r.total_seconds;
    attempted_frames += static_cast<double>(r.attempted_frames);
    good_frames += r.goodput_frames_per_second * r.total_seconds;
    latencies.push_back(r.total_seconds);
    outcome.attempted += r.instances;
    outcome.failed += r.failed + r.unsupported;
  }
  outcome.end_to_end.Set("fps", Ratio(attempted_frames, window), "frames/s");
  outcome.end_to_end.Set("latency_p50_s", QuantileHD(latencies, 0.50), "s");
  outcome.end_to_end.Set("latency_p95_s", QuantileHD(latencies, 0.95), "s");
  outcome.end_to_end.Set("goodput_fps", Ratio(good_frames, window), "frames/s");
  outcome.notes.push_back("batches: " + std::to_string(runs.size()) +
                          " (latency percentiles are over per-batch windows)");
}

/// Cluster gate: every instance of round 0 is re-executed in-process, on
/// the driver's thread count. Each result file the workers wrote must hold
/// the in-process output of an instance that writes that file, and every
/// file an in-process execution names must exist. Result files are named by
/// query and input stream, so instances of a batch that share a stream share
/// a file and the last writer wins: a file one instance writes is compared
/// with that instance exactly, a shared one must equal one of its writers.
Status CheckClusterOutputs(Env& env, const std::vector<BatchRun>& runs,
                           Outcome& outcome) {
  struct Check {
    size_t batch = 0;
    QueryInstance instance;
    std::string file;
    uint64_t digest = 0;
    Status status = Status::Ok();
  };
  std::vector<Check> checks;
  for (size_t b = 0; b < runs.size(); ++b) {
    if (runs[b].round != 0) continue;
    VR_ASSIGN_OR_RETURN(std::vector<QueryInstance> batch, env.vcd->SampleBatch(runs[b].id));
    for (QueryInstance& instance : batch) checks.push_back({b, std::move(instance)});
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kDriverThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string dir = env.dir + "/check" + std::to_string(t);
      for (size_t i = next++; i < checks.size(); i = next++) {
        Check& check = checks[i];
        auto output = env.engine->Execute(check.instance, env.dataset,
                                          vr::systems::OutputMode::kWrite, dir);
        if (!output.ok()) {
          check.status = output.status();
          continue;
        }
        check.file = fs::path(output->written_path).filename().string();
        check.digest = VideoDigest(output->video);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  env.engine->TakeCalls();

  // (batch, file) -> digests of the in-process outputs of its writers.
  std::map<std::pair<size_t, std::string>, std::vector<uint64_t>> writers;
  for (const Check& check : checks) {
    const char* name = vr::queries::QueryName(check.instance.id);
    if (!check.status.ok()) {
      outcome.Fail(std::string("in-process ") + name + " failed: " + check.status.ToString());
      continue;
    }
    writers[{check.batch, check.file}].push_back(check.digest);
  }
  int shared = 0;
  for (const auto& [key, digests] : writers) {
    const auto& [batch, file] = key;
    const std::map<std::string, uint64_t>& written = runs[batch].file_digests;
    auto it = written.find(file);
    if (it == written.end()) {
      outcome.Fail("cluster wrote no readable result file " + file);
    } else if (std::find(digests.begin(), digests.end(), it->second) == digests.end()) {
      outcome.Fail("cluster result file " + file + " differs from the in-process output");
    }
    shared += digests.size() > 1 ? 1 : 0;
  }
  outcome.notes.push_back("cluster outputs compared in-process: " +
                          std::to_string(checks.size()) + " instances, " +
                          std::to_string(writers.size()) + " result files (" +
                          std::to_string(shared) + " written by several instances)");
  return Status::Ok();
}

Status OfflineLike(Kind kind, const RunOptions& options, Outcome& outcome) {
  SpanLog spans(options.trace);
  VR_ASSIGN_OR_RETURN(std::unique_ptr<Env> env,
                      SetUpRepeated(kind, options, spans, outcome));
  const bool cluster = kind == Kind::kCluster;
  CounterSnapshot before = CounterSnapshot::Take(*env);
  env->engine->TakeCalls();
  VR_ASSIGN_OR_RETURN(std::vector<BatchRun> runs,
                      RunRounds(*env, options.seconds, spans, cluster));
  CounterSnapshot after = CounterSnapshot::Take(*env);
  std::vector<CallRecord> calls = env->engine->TakeCalls();
  double rss = PeakRssMb();

  for (const BatchRun& run : runs) CheckBatch(run, outcome);
  CheckSemanticCounts(*env, options, runs, outcome);
  BatchMetrics(runs, outcome);
  outcome.end_to_end.Set("peak_rss_mb", rss, "MB");

  if (cluster) VR_RETURN_IF_ERROR(CheckClusterOutputs(*env, runs, outcome));
  if (!options.trace) return Status::Ok();

  // Traced run: replay sampled instances of round 0 layer by layer, scaled
  // to the work each measured call did. The cluster's calls ran in workers,
  // so its samples are executed once more in-process, alone, to time them.
  MetricSet& layers = outcome.per_layer;
  LayerSample replayed;
  double replayed_exec = 0.0;
  int replay_count = 0;
  ReplayContext replay_context = MakeReplayContext(*env, /*write_mode=*/true);
  double window = 0.0, validate = 0.0, worker_busy = 0.0;
  int64_t retries = 0;
  vr::systems::EngineStats engine_stats;
  for (const BatchRun& run : runs) {
    window += run.result.total_seconds;
    validate += run.wall_s - run.result.total_seconds;
    worker_busy += run.result.worker_busy_seconds;
    retries += run.result.retries;
    engine_stats.Add(run.result.engine_stats);
  }
  double exec_total = 0.0;
  for (const CallRecord& call : calls) exec_total += call.end - call.start;
  if (cluster) {
    exec_total = worker_busy;
    for (const BatchRun& run : runs) {
      if (run.round != 0) continue;
      VR_ASSIGN_OR_RETURN(std::vector<QueryInstance> batch, env->vcd->SampleBatch(run.id));
      for (int i = 0; i < kSamplesPerBatch && i < static_cast<int>(batch.size()); ++i) {
        env->engine->Quiesce();
        double t0 = NowSeconds();
        vr::systems::EngineStats call;
        VR_RETURN_IF_ERROR(env->engine
                               ->Execute(batch[static_cast<size_t>(i)], env->dataset,
                                         vr::systems::OutputMode::kWrite, "", &call)
                               .status());
        calls.push_back({batch[static_cast<size_t>(i)], t0, NowSeconds(), call});
      }
    }
    env->engine->TakeCalls();
  }
  std::map<QueryId, int> taken;
  for (const CallRecord& call : calls) {
    if (taken[call.instance.id]++ >= kSamplesPerBatch) continue;
    VR_ASSIGN_OR_RETURN(LayerSample sample, ReplayInstance(replay_context, call.instance));
    ScaleToCall(call.stats, sample);
    replayed.Add(sample);
    replayed_exec += call.end - call.start;
    ++replay_count;
  }
  int64_t instances = 0;
  for (const BatchRun& run : runs) instances += run.result.instances;
  Attribute(window, exec_total, cluster ? kClusterWorkers : kDriverThreads, replayed,
            replayed_exec, cluster ? "dist" : "driver", layers);
  CounterMetrics(before, after, layers);
  EngineCounterMetrics(engine_stats, layers);
  if (cluster) {
    // Worker engines keep their own GOP caches; their per-call engine cache
    // counters (GOP hits plus inference-memo hits) are the only view of them
    // from here.
    layers.Set("video.gop_cache.hit_ratio",
               Ratio(static_cast<double>(engine_stats.cache_hits),
                     static_cast<double>(engine_stats.cache_hits + engine_stats.cache_misses)),
               "ratio");
    layers.Set("dist.batch_s", window, "s");
    layers.Set("dist.worker_busy_s", worker_busy, "s");
    layers.Set("dist.rpc_retries", static_cast<double>(retries), "count");
  } else {
    layers.Set("driver.pool_busy_ratio", Ratio(exec_total, kDriverThreads * window),
               "ratio");
  }
  layers.Set("systems.execute_s", Ratio(exec_total, static_cast<double>(instances)), "s");
  layers.Set("driver.validate_s", validate, "s");
  layers.Set("bench.replayed_instances", replay_count, "count");
  layers.Set("trace.overhead_ratio", Ratio(spans.overhead_seconds(), window), "ratio");
  ZeroDefaults(layers);
  return spans.WriteChromeTrace(options.work_dir + "/trace.json");
}

// ---------------------------------------------------------------------------
// serve_mix: the benchmark's own single-threaded load generator.

bool SameDetections(const std::vector<std::vector<vr::vision::Detection>>& a,
                    const std::vector<std::vector<vr::vision::Detection>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t f = 0; f < a.size(); ++f) {
    if (a[f].size() != b[f].size()) return false;
    for (size_t i = 0; i < a[f].size(); ++i) {
      const vr::vision::Detection& x = a[f][i];
      const vr::vision::Detection& y = b[f][i];
      if (x.object_class != y.object_class || x.box.x0 != y.box.x0 ||
          x.box.y0 != y.box.y0 || x.box.x1 != y.box.x1 || x.box.y1 != y.box.y1 ||
          x.score != y.score || x.entity_id != y.entity_id) {
        return false;
      }
    }
  }
  return true;
}

Status Serve(const RunOptions& options, Outcome& outcome) {
  SpanLog spans(options.trace);
  VR_ASSIGN_OR_RETURN(std::unique_ptr<Env> env,
                      SetUpRepeated(Kind::kServe, options, spans, outcome));

  // Every block of ServeBlock().size() consecutive requests holds
  // ServeBlock() in a seeded order, so the query proportions do not vary by
  // seed; parameters are sampled per request.
  vr::Pcg32 rng = vr::SubStream(QuerySeed(options), "perfbench-serve");
  std::vector<QueryId> block = ServeBlock();
  size_t issued = 0;
  auto next_instance = [&]() -> StatusOr<QueryInstance> {
    size_t slot = issued++ % block.size();
    if (slot == 0) {
      for (size_t j = block.size() - 1; j > 0; --j) {
        std::swap(block[j], block[rng.NextBounded(static_cast<uint32_t>(j + 1))]);
      }
    }
    return vr::queries::SampleQueryInstance(block[slot], env->dataset, rng);
  };

  vr::server::ServerOptions server_options;
  server_options.worker_threads = kServerWorkers;
  server_options.output_mode = vr::systems::OutputMode::kStreaming;
  CounterSnapshot before = CounterSnapshot::Take(*env);
  env->engine->TakeCalls();
  std::vector<double> latencies, lags, queue, service;
  double window = 0.0;
  int64_t good_frames = 0, attempted_frames = 0, shed = 0;
  vr::server::ServerStats server_stats;
  std::vector<std::pair<QueryInstance, vr::systems::QueryOutput>> served_detections;
  {
    vr::server::QueryServer server(env->dataset, *env->engine, server_options);
    std::vector<vr::server::QueryServer::Session*> sessions;
    for (int t = 0; t < kTenants; ++t) {
      vr::server::TenantOptions tenant;
      tenant.name = "tenant" + std::to_string(t);
      sessions.push_back(&server.OpenSession(tenant));
    }
    struct Pending {
      QueryInstance instance;
      double submitted = 0.0;
      std::future<vr::server::ServedBatch> future;
    };
    std::deque<Pending> pending;
    const double start = NowSeconds();
    double last_done = start;
    while (true) {
      // Keep kOutstanding requests in flight, one more than the server has
      // workers, until the window closes; tenants take turns.
      while (pending.size() < static_cast<size_t>(kOutstanding) &&
             NowSeconds() < start + options.seconds) {
        Pending request;
        VR_ASSIGN_OR_RETURN(request.instance, next_instance());
        request.submitted = NowSeconds();
        lags.push_back(request.submitted - last_done);
        auto future = server.Submit(*sessions[issued % kTenants], {request.instance});
        spans.Record("server.Submit", request.submitted, NowSeconds());
        attempted_frames +=
            vr::systems::detail::InputFrameCount(request.instance, env->dataset);
        ++outcome.attempted;
        if (!future.ok()) {
          ++shed;
          ++outcome.failed;
          continue;
        }
        request.future = std::move(future).value();
        pending.push_back(std::move(request));
      }
      if (pending.empty()) break;
      Pending request = std::move(pending.front());
      pending.pop_front();
      vr::server::ServedBatch batch = request.future.get();
      double done = request.submitted + batch.total_seconds;
      last_done = NowSeconds();
      spans.Record("server.Completion", request.submitted, done);
      latencies.push_back(batch.total_seconds);
      queue.push_back(batch.queue_seconds);
      service.push_back(batch.total_seconds - batch.queue_seconds);
      window = std::max(window, done - start);
      const vr::server::ServedQuery& query = batch.queries.front();
      if (batch.failed > 0 || batch.unsupported > 0 || !query.status.ok()) {
        ++outcome.failed;
        outcome.Fail(std::string("served ") + vr::queries::QueryName(request.instance.id) +
                     " failed: " + query.status.ToString());
        continue;
      }
      good_frames += vr::systems::detail::InputFrameCount(request.instance, env->dataset);
      if (!query.output.detections.empty() && served_detections.size() < 6) {
        served_detections.emplace_back(request.instance, query.output);
      }
    }
    server_stats = server.stats();
  }
  CounterSnapshot after = CounterSnapshot::Take(*env);
  std::vector<CallRecord> calls = env->engine->TakeCalls();
  double rss = PeakRssMb();
  {
    std::map<QueryId, std::vector<double>> by_query;
    for (const CallRecord& call : calls) by_query[call.instance.id].push_back(call.end - call.start);
    std::string line = "service ms by query (p50/p95/max):";
    for (auto& [id, v] : by_query) {
      line += std::string(" ") + vr::queries::QueryName(id) +
              Fmt("=%.1f/%.1f/%.1f", 1e3 * QuantileHD(v, 0.5), 1e3 * QuantileHD(v, 0.95),
                  1e3 * *std::max_element(v.begin(), v.end()));
    }
    outcome.notes.push_back(line);
  }

  if (shed > 0) outcome.Fail(std::to_string(shed) + " requests were shed");
  // Gate: detections served through the warm semantic cache equal a cold
  // execution's, on an engine with the cache off.
  {
    vr::systems::EngineOptions cold_options = env->engine_options;
    cold_options.semantic_cache = nullptr;
    auto cold = vr::systems::MakePipelineEngine(cold_options);
    for (const auto& [instance, served] : served_detections) {
      auto output = cold->Execute(instance, env->dataset,
                                  vr::systems::OutputMode::kStreaming, "");
      if (!output.ok() || !SameDetections(output->detections, served.detections)) {
        outcome.Fail(std::string(vr::queries::QueryName(instance.id)) +
                     ": cached detections differ from a cold execution");
      }
    }
    outcome.notes.push_back("served detections compared with a cold engine: " +
                            std::to_string(served_detections.size()));
  }

  outcome.end_to_end.Set("fps", Ratio(static_cast<double>(attempted_frames), window),
                         "frames/s");
  outcome.end_to_end.Set("latency_p50_s", QuantileHD(latencies, 0.50), "s");
  outcome.end_to_end.Set("latency_p95_s", QuantileHD(latencies, 0.95), "s");
  outcome.end_to_end.Set("goodput_fps", Ratio(static_cast<double>(good_frames), window),
                         "frames/s");
  outcome.end_to_end.Set("peak_rss_mb", rss, "MB");
  outcome.notes.push_back("requests: " + std::to_string(outcome.attempted) + " with " +
                          std::to_string(kOutstanding) + " outstanding");
  if (!options.trace) return Status::Ok();

  MetricSet& layers = outcome.per_layer;
  double exec_total = 0.0;
  vr::systems::EngineStats engine_stats;
  for (const CallRecord& call : calls) {
    exec_total += call.end - call.start;
    engine_stats.Add(call.stats);
  }
  LayerSample replayed;
  double replayed_exec = 0.0;
  int replay_count = 0;
  ReplayContext replay_context = MakeReplayContext(*env, /*write_mode=*/false);
  size_t stride = std::max<size_t>(1, calls.size() / kServeSamples);
  for (size_t i = 0; i < calls.size(); i += stride) {
    VR_ASSIGN_OR_RETURN(LayerSample sample,
                        ReplayInstance(replay_context, calls[i].instance));
    ScaleToCall(calls[i].stats, sample);
    replayed.Add(sample);
    replayed_exec += calls[i].end - calls[i].start;
    ++replay_count;
  }
  Attribute(window, exec_total, kServerWorkers, replayed, replayed_exec, "server", layers);
  CounterMetrics(before, after, layers);
  EngineCounterMetrics(engine_stats, layers);
  layers.Set("systems.execute_s", Ratio(exec_total, static_cast<double>(calls.size())),
             "s");
  layers.Set("server.queue_p95_s", QuantileHD(queue, 0.95), "s");
  layers.Set("server.service_p50_s", QuantileHD(service, 0.5), "s");
  layers.Set("server.queue_depth_peak", server_stats.queue_depth_peak, "count");
  layers.Set("server.shed", static_cast<double>(server_stats.admission.shed()), "count");
  layers.Set("bench.generator_lag_p95_s", QuantileHD(lags, 0.95), "s");
  layers.Set("bench.replayed_instances", replay_count, "count");
  layers.Set("trace.overhead_ratio", Ratio(spans.overhead_seconds(), window), "ratio");
  ZeroDefaults(layers);
  return spans.WriteChromeTrace(options.work_dir + "/trace.json");
}

}  // namespace

StatusOr<Outcome> RunWorkload(const RunOptions& options) {
  Outcome outcome;
  Status status = Status::Ok();
  if (options.workload == "offline_mix") {
    status = OfflineLike(Kind::kOffline, options, outcome);
  } else if (options.workload == "cluster_mix") {
    status = OfflineLike(Kind::kCluster, options, outcome);
  } else if (options.workload == "serve_mix") {
    status = Serve(options, outcome);
  } else {
    return Status::InvalidArgument("unknown workload '" + options.workload + "'");
  }
  VR_RETURN_IF_ERROR(status);
  if (outcome.attempted > 0) {
    outcome.per_layer.Set("bench.failed_ratio",
                          static_cast<double>(outcome.failed) /
                              static_cast<double>(outcome.attempted),
                          "ratio");
  }
  return outcome;
}

Status RecordSemanticCounts(const RunOptions& options) {
  SpanLog spans(false);
  VR_ASSIGN_OR_RETURN(std::unique_ptr<Env> env, SetUp(Kind::kOffline, options, spans, 0));
  std::vector<const vr::sim::VideoAsset*> traffic = env->dataset.TrafficAssets();
  for (int v = 0; v < static_cast<int>(traffic.size()); ++v) {
    for (vr::sim::ObjectClass object_class :
         {vr::sim::ObjectClass::kVehicle, vr::sim::ObjectClass::kPedestrian}) {
      QueryInstance instance;
      instance.id = QueryId::kQ2c;
      instance.video_index = v;
      instance.object_class = object_class;
      VR_ASSIGN_OR_RETURN(vr::systems::QueryOutput output,
                          env->engine->Execute(instance, env->dataset,
                                               vr::systems::OutputMode::kWrite, ""));
      VR_ASSIGN_OR_RETURN(vr::driver::ValidationStats stats,
                          vr::driver::SemanticValidate(output.detections,
                                                       traffic[static_cast<size_t>(v)]->ground_truth,
                                                       object_class, /*epsilon=*/0.5));
      std::printf("%llu %d %d %lld %lld\n",
                  static_cast<unsigned long long>(options.dataset_seed), v,
                  static_cast<int>(object_class), static_cast<long long>(stats.passed),
                  static_cast<long long>(stats.checked));
    }
  }
  return Status::Ok();
}

}  // namespace perfbench
