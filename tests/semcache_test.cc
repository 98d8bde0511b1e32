// Tests for the semantic result store (src/queries/semantic_cache.h) and the
// measured-selectivity planner (src/queries/plan.h), plus the engine-level
// guarantees the pair provides: a warm cache answers a repeated Q2(c) with
// zero decoder invocations and byte-identical output, and cached detections
// are shared across queries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "driver/datasets.h"
#include "queries/plan.h"
#include "queries/semantic_cache.h"
#include "storage/sharded_store.h"
#include "systems/vdbms.h"
#include "video/codec/gop_cache.h"

namespace {

// The largest single allocation made while tracking is on, so a test can show
// that a loader sized nothing from a count its bytes cannot back (a 400 MB
// resize succeeds, so the DataLoss status alone does not show it).
std::atomic<bool> g_track_allocations{false};
std::atomic<size_t> g_largest_allocation{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms are replaced too, so every scalar new and delete pairs
// malloc with free (a sanitizer otherwise reports its own nothrow new freed
// here). The deletes are out of line, so GCC does not pair an inlined free
// with a new-expression and warn (-Wmismatched-new-delete).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace visualroad::queries {
namespace {

namespace fs = std::filesystem;

SemanticKey TestKey(double threshold = 0.0, const std::string& model = "model-a") {
  SemanticKey key;
  key.stream = 0x1234;
  key.model = model;
  key.threshold = threshold;
  return key;
}

// One synthetic detection per frame whose box encodes the absolute frame
// number, so slices are checkable.
SemanticEntry MakeEntry(const SemanticKey& key, int first, int count) {
  SemanticEntry entry;
  entry.key = key;
  entry.range = {first, count};
  entry.width = 64;
  entry.height = 36;
  entry.fps = 15.0;
  for (int f = first; f < first + count; ++f) {
    vision::Detection det;
    det.box = RectI{f, 0, f + 1, 1};
    det.score = 0.9;
    entry.detections.push_back({det});
  }
  entry.RecomputeBytes();
  return entry;
}

// --- Range subsumption ---

TEST(SemanticCacheTest, ContainedRangeIsServedFromCoveringEntry) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(), 0, 60));
  auto hit = cache.Probe(TestKey(), {10, 20});
  ASSERT_NE(hit, nullptr);
  auto slice = SemanticCache::Slice(*hit, {10, 20});
  ASSERT_EQ(slice.size(), 20u);
  // Slice frame i is absolute frame 10 + i.
  EXPECT_EQ(slice[0][0].box.x0, 10);
  EXPECT_EQ(slice[19][0].box.x0, 29);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(SemanticCacheTest, AdjacentButNotOverlappingRangeMisses) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(), 0, 60));
  // [60,120) merely touches [0,60); subsumption must not claim it.
  EXPECT_EQ(cache.Probe(TestKey(), {60, 60}), nullptr);
  // A range straddling the boundary is not fully covered either.
  EXPECT_EQ(cache.Probe(TestKey(), {50, 20}), nullptr);
  // The contained edge case still hits: [59,1) is inside.
  EXPECT_NE(cache.Probe(TestKey(), {59, 1}), nullptr);
}

// --- Key discrimination ---

TEST(SemanticCacheTest, ThresholdMismatchMissesInBothDirections) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(0.25), 0, 60));
  // A stricter probe must not reuse a looser materialization...
  EXPECT_EQ(cache.Probe(TestKey(0.50), {0, 10}), nullptr);
  // ...and a looser probe must not reuse a stricter one.
  cache.Insert(MakeEntry(TestKey(0.50), 0, 60));
  EXPECT_EQ(cache.Probe(TestKey(0.10), {0, 10}), nullptr);
  // Exact threshold still matches.
  EXPECT_NE(cache.Probe(TestKey(0.25), {0, 10}), nullptr);
  EXPECT_NE(cache.Probe(TestKey(0.50), {0, 10}), nullptr);
}

TEST(SemanticCacheTest, ModelVersionBumpInvalidatesOldEntries) {
  vision::DetectorOptions options;
  std::string v1 = ModelFingerprint(options, "miniyolo", /*version=*/1);
  std::string v2 = ModelFingerprint(options, "miniyolo", /*version=*/2);
  ASSERT_NE(v1, v2);

  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(0.0, v1), 0, 60));
  // Redeploying the model (version bump) must never serve v1's outputs.
  EXPECT_EQ(cache.Probe(TestKey(0.0, v2), {0, 10}), nullptr);
  EXPECT_NE(cache.Probe(TestKey(0.0, v1), {0, 10}), nullptr);
}

TEST(SemanticCacheTest, FingerprintCoversDetectorConfiguration) {
  vision::DetectorOptions base;
  vision::DetectorOptions resized = base;
  resized.input_size = 224;
  EXPECT_NE(ModelFingerprint(base, "miniyolo"), ModelFingerprint(resized, "miniyolo"));
  EXPECT_NE(ModelFingerprint(base, "miniyolo"), ModelFingerprint(base, "cascade48+96"));
}

// --- Single-flight population ---

TEST(SemanticCacheTest, SingleFlightRunsComputeOnce) {
  SemanticCache cache;
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<SemanticCache::Outcome> outcomes(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        auto result = cache.GetOrCompute(
            TestKey(), {0, 30},
            [&]() -> StatusOr<SemanticEntry> {
              ++computes;
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              return MakeEntry(TestKey(), 0, 30);
            },
            &outcomes[i]);
        ASSERT_TRUE(result.ok());
        EXPECT_TRUE((*result)->range.Contains(FrameRange{0, 30}));
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(computes.load(), 1);
  int misses = 0;
  for (auto outcome : outcomes) {
    if (outcome == SemanticCache::Outcome::kMiss) ++misses;
  }
  EXPECT_EQ(misses, 1);
}

// --- Incremental maintenance (merge-on-insert) ---

TEST(SemanticCacheTest, AdjacentInsertExtendsExistingEntry) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(), 0, 30));
  cache.Insert(MakeEntry(TestKey(), 30, 30));
  SemanticCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.extensions, 1);
  EXPECT_EQ(stats.entries, 1);
  // The merged entry answers the combined range, with frames in order.
  auto hit = cache.Probe(TestKey(), {0, 60});
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->detections.size(), 60u);
  EXPECT_EQ(hit->detections[45][0].box.x0, 45);
}

TEST(SemanticCacheTest, OverlappingInsertMergesWithoutDuplication) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(), 0, 40));
  cache.Insert(MakeEntry(TestKey(), 20, 40));  // Overlaps [20,40).
  auto hit = cache.Probe(TestKey(), {0, 60});
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->detections.size(), 60u);
  EXPECT_EQ(hit->detections[30][0].box.x0, 30);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(SemanticCacheTest, CoveredInsertIsANoOpBeyondRecency) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(), 0, 60));
  cache.Insert(MakeEntry(TestKey(), 10, 10));
  SemanticCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

// --- Byte budget / LRU ---

TEST(SemanticCacheTest, LeastRecentlyUsedEntryIsEvictedOverBudget) {
  SemanticEntry a = MakeEntry(TestKey(0.0, "model-a"), 0, 50);
  SemanticEntry b = MakeEntry(TestKey(0.0, "model-b"), 0, 50);
  SemanticEntry c = MakeEntry(TestKey(0.0, "model-c"), 0, 50);

  SemanticCacheOptions options;
  options.capacity_bytes = a.bytes + b.bytes + c.bytes / 2;
  SemanticCache cache(options);
  cache.Insert(a);
  cache.Insert(b);
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(cache.Probe(TestKey(0.0, "model-a"), {0, 10}), nullptr);
  cache.Insert(c);
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_NE(cache.Probe(TestKey(0.0, "model-a"), {0, 10}), nullptr);
  EXPECT_EQ(cache.Probe(TestKey(0.0, "model-b"), {0, 10}), nullptr);
  EXPECT_NE(cache.Probe(TestKey(0.0, "model-c"), {0, 10}), nullptr);
}

// --- Persistence ---

TEST(SemanticCacheTest, PersistAndLoadRoundTripThroughShardedStore) {
  std::string root =
      (fs::temp_directory_path() / "vr_semcache_persist_test").string();
  fs::remove_all(root);
  storage::StoreOptions store_options;
  store_options.root = root;
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  SemanticCacheOptions options;
  options.store = &*store;
  {
    SemanticCache cache(options);
    cache.Insert(MakeEntry(TestKey(0.25), 0, 60));
    cache.Insert(MakeEntry(TestKey(0.0, "model-b"), 30, 30));
    ASSERT_TRUE(cache.Persist().ok());
    EXPECT_EQ(cache.stats().persisted, 2);
  }
  SemanticCache recovered(options);
  ASSERT_TRUE(recovered.LoadPersisted().ok());
  EXPECT_EQ(recovered.stats().loaded, 2);
  auto hit = recovered.Probe(TestKey(0.25), {5, 40});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->width, 64);
  EXPECT_EQ(hit->fps, 15.0);
  auto slice = SemanticCache::Slice(*hit, {5, 40});
  ASSERT_EQ(slice.size(), 40u);
  EXPECT_EQ(slice[0][0].box.x0, 5);
  EXPECT_DOUBLE_EQ(slice[0][0].score, 0.9);
  EXPECT_NE(recovered.Probe(TestKey(0.0, "model-b"), {40, 10}), nullptr);
  fs::remove_all(root);
}

TEST(SemanticCacheTest, PersistedCountsBeyondTheirBytesAreDataLoss) {
  // A persisted entry is 60 bytes long yet claims 2^24 frames (the loader's
  // cap): sizing from that count would allocate ~400 MB before reading a
  // frame. A frame claiming 2^20 detections with no bytes left is the same
  // fault one level down. Both must fail without a large allocation.
  std::string root = (fs::temp_directory_path() /
                      ("vr_semcache_bounds_test_" + std::to_string(::getpid())))
                         .string();
  fs::remove_all(root);
  storage::StoreOptions store_options;
  store_options.root = root;
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto entry = [](int32_t frames, uint32_t detections) {
    ByteWriter writer;
    writer.U32(0x43535256);  // "VRSC".
    writer.U32(1);
    writer.U64(0x1234);
    writer.Str("m-a");
    writer.F64(0.0);
    writer.I32(0);
    writer.I32(frames);
    writer.I32(64);
    writer.I32(36);
    writer.F64(15.0);
    writer.U32(detections);
    writer.U8(0);
    return writer.Take();
  };
  SemanticCacheOptions options;
  options.store = &*store;
  for (auto [frames, detections] : {std::pair<int32_t, uint32_t>{1 << 24, 0},
                                    std::pair<int32_t, uint32_t>{1, 1u << 20}}) {
    std::vector<uint8_t> bytes = entry(frames, detections);
    ASSERT_EQ(bytes.size(), 60u);
    ASSERT_TRUE(store->Put("semcache/bounds", bytes).ok());
    SemanticCache cache(options);
    g_largest_allocation = 0;
    g_track_allocations = true;
    Status status = cache.LoadPersisted();
    g_track_allocations = false;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    EXPECT_EQ(cache.stats().loaded, 0);
    EXPECT_LT(g_largest_allocation.load(), size_t{1} << 20);
  }
  fs::remove_all(root);
}

// --- Peek is side-effect free ---

TEST(SemanticCacheTest, PeekMovesNoStatsAndKeepsLruOrder) {
  SemanticCache cache;
  cache.Insert(MakeEntry(TestKey(), 0, 60));
  SemanticCacheStats before = cache.stats();
  EXPECT_NE(cache.Peek(TestKey(), {0, 10}), nullptr);
  EXPECT_EQ(cache.Peek(TestKey(), {60, 10}), nullptr);
  SemanticCacheStats after = cache.stats();
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
}

// --- Planner ---

class PlannerTest : public ::testing::Test {
 protected:
  PlanContext Context() {
    PlanContext context;
    context.meta.identity = 0x1234;
    context.meta.frame_count = 150;
    context.meta.width = 64;
    context.meta.height = 36;
    context.meta.fps = 15.0;
    return context;
  }

  QueryInstance Q2c() {
    QueryInstance instance;
    instance.id = QueryId::kQ2c;
    instance.object_class = sim::ObjectClass::kVehicle;
    return instance;
  }
};

TEST_F(PlannerTest, UnmeasuredStagesKeepStaticOrder) {
  PlanContext context = Context();
  context.stages = {"diff", "cheap", "full"};
  QueryPlan plan = PlanQuery(Q2c(), context);
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_EQ(plan.stages[0].name, "diff");
  EXPECT_EQ(plan.stages[1].name, "cheap");
  EXPECT_EQ(plan.stages[2].name, "full");
  for (const PlanStage& stage : plan.stages) EXPECT_TRUE(stage.enabled);
}

TEST_F(PlannerTest, UselessPrefilterIsDisabledOnlyWhenWellMeasured) {
  SelectivityTracker tracker;
  PlanContext context = Context();
  context.tracker = &tracker;
  context.stages = {"cheap", "full"};

  // Below kMinMeasuredAttempts the zero selectivity is treated as noise.
  tracker.Record("cheap", kMinMeasuredAttempts - 1, 0, 0.01);
  QueryPlan plan = PlanQuery(Q2c(), context);
  EXPECT_TRUE(plan.stages[0].enabled);

  // One more attempt crosses the confidence floor: now it is disabled.
  tracker.Record("cheap", 1, 0, 0.001);
  plan = PlanQuery(Q2c(), context);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_EQ(plan.stages[0].name, "cheap");
  EXPECT_FALSE(plan.stages[0].enabled);
  // The anchor stage always survives.
  EXPECT_TRUE(plan.stages[1].enabled);
}

TEST_F(PlannerTest, PrefiltersAreOrderedByCostPerResolvedFrame) {
  SelectivityTracker tracker;
  // "coarse" resolves 80% at 10us/frame (12.5us per resolved frame);
  // "fine" resolves 90% at 100us/frame (111us per resolved frame).
  tracker.Record("fine", 100, 90, 100e-6 * 100);
  tracker.Record("coarse", 100, 80, 10e-6 * 100);
  PlanContext context = Context();
  context.tracker = &tracker;
  context.stages = {"fine", "coarse", "anchor"};
  QueryPlan plan = PlanQuery(Q2c(), context);
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_EQ(plan.stages[0].name, "coarse");
  EXPECT_EQ(plan.stages[1].name, "fine");
  EXPECT_EQ(plan.stages[2].name, "anchor");
}

TEST_F(PlannerTest, TemporalPushdownTrimsTheDecodeWindow) {
  QueryInstance q1;
  q1.id = QueryId::kQ1;
  q1.q1_t1 = 2.0;
  q1.q1_t2 = 4.0;
  PlanContext context = Context();
  QueryPlan plan = PlanQuery(q1, context);
  EXPECT_EQ(plan.first_frame, 30);
  EXPECT_EQ(plan.first_frame + plan.frame_count, 60);

  // An engine that decodes eagerly must not claim the trimmed window.
  context.temporal_pushdown = false;
  plan = PlanQuery(q1, context);
  EXPECT_EQ(plan.first_frame, 0);
  EXPECT_EQ(plan.frame_count, 150);
}

TEST_F(PlannerTest, WarmCacheCollapsesThePlanToALookup) {
  SemanticCache cache;
  SemanticKey key = TestKey();
  key.stream = 0x1234;
  PlanContext context = Context();
  context.cache = &cache;
  context.key = key;
  context.stages = {"miniyolo96"};

  QueryPlan cold = PlanQuery(Q2c(), context);
  EXPECT_TRUE(cold.semcache_enabled);
  EXPECT_FALSE(cold.semcache_warm);
  std::string cold_text = ExplainPlan(cold);
  EXPECT_NE(cold_text.find("semcache=cold"), std::string::npos);

  cache.Insert(MakeEntry(key, 0, 150));
  QueryPlan warm = PlanQuery(Q2c(), context);
  EXPECT_TRUE(warm.semcache_warm);
  EXPECT_EQ(warm.frame_count, 0);  // No decode needed.
  std::string warm_text = ExplainPlan(warm);
  EXPECT_NE(warm_text.find("semcache=warm"), std::string::npos);
  EXPECT_NE(warm_text.find("decode=skipped"), std::string::npos);
}

// --- Engine-level guarantees ---

class SemCacheEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 47;
    auto dataset = driver::PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static QueryInstance Q2c() {
    QueryInstance instance;
    instance.id = QueryId::kQ2c;
    instance.video_index = 0;
    instance.object_class = sim::ObjectClass::kVehicle;
    return instance;
  }

  static sim::Dataset* dataset_;
};

sim::Dataset* SemCacheEngineTest::dataset_ = nullptr;

TEST_F(SemCacheEngineTest, WarmQ2cDecodesNothingAndMatchesCacheOffByteForByte) {
  video::codec::GopCache off_gops, on_gops;
  SemanticCache semcache;

  systems::EngineOptions off_options;
  off_options.gop_cache = &off_gops;
  auto engine_off = systems::MakePipelineEngine(off_options);

  systems::EngineOptions on_options;
  on_options.gop_cache = &on_gops;
  on_options.semantic_cache = &semcache;
  auto engine_on = systems::MakePipelineEngine(on_options);

  auto baseline = engine_off->Execute(Q2c(), *dataset_,
                                      systems::OutputMode::kWrite, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  systems::EngineStats cold_stats;
  auto cold = engine_on->Execute(Q2c(), *dataset_, systems::OutputMode::kWrite,
                                 "", &cold_stats);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold_stats.frames_decoded, 0);

  // Drop decoded GOPs so a decode on the warm path would be visible in the
  // codec counters rather than absorbed by the GOP cache.
  on_gops.Clear();
  systems::EngineStats warm_stats;
  auto warm = engine_on->Execute(Q2c(), *dataset_, systems::OutputMode::kWrite,
                                 "", &warm_stats);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // Zero decoder invocations on the warm path.
  EXPECT_EQ(warm_stats.frames_decoded, 0);
  EXPECT_EQ(warm_stats.cache_misses, 0);
  EXPECT_EQ(semcache.stats().hits, 1);

  // Byte-identical output bitstream and identical detections vs cache off.
  ASSERT_EQ(warm->video.FrameCount(), baseline->video.FrameCount());
  for (int f = 0; f < warm->video.FrameCount(); ++f) {
    EXPECT_EQ(warm->video.frames[static_cast<size_t>(f)].data,
              baseline->video.frames[static_cast<size_t>(f)].data)
        << "frame " << f;
  }
  ASSERT_EQ(warm->detections.size(), baseline->detections.size());
  for (size_t f = 0; f < warm->detections.size(); ++f) {
    ASSERT_EQ(warm->detections[f].size(), baseline->detections[f].size());
    for (size_t d = 0; d < warm->detections[f].size(); ++d) {
      EXPECT_EQ(warm->detections[f][d].score, baseline->detections[f][d].score);
      EXPECT_EQ(warm->detections[f][d].box.x0, baseline->detections[f][d].box.x0);
    }
  }
}

TEST_F(SemCacheEngineTest, Q7ReusesQ2cDetectionsAcrossQueries) {
  video::codec::GopCache gops;
  SemanticCache semcache;
  systems::EngineOptions options;
  options.gop_cache = &gops;
  options.semantic_cache = &semcache;
  auto engine = systems::MakePipelineEngine(options);

  auto boxes = engine->Execute(Q2c(), *dataset_, systems::OutputMode::kStreaming, "");
  ASSERT_TRUE(boxes.ok()) << boxes.status().ToString();
  ASSERT_EQ(semcache.stats().misses, 1);

  QueryInstance q7;
  q7.id = QueryId::kQ7;
  q7.video_index = 0;
  q7.object_class = sim::ObjectClass::kVehicle;
  // Drop decoded GOPs so Q7's pixel work shows up as real decodes.
  gops.Clear();
  systems::EngineStats q7_stats;
  auto masked = engine->Execute(q7, *dataset_, systems::OutputMode::kStreaming,
                                "", &q7_stats);
  ASSERT_TRUE(masked.ok()) << masked.status().ToString();
  // Q7 still decodes (it masks real pixels) but runs no full-model CNN:
  // the detections come from Q2(c)'s materialization.
  EXPECT_GT(q7_stats.frames_decoded, 0);
  EXPECT_EQ(q7_stats.cnn_frames_full, 0);
  EXPECT_EQ(semcache.stats().hits, 1);
}

TEST_F(SemCacheEngineTest, ExplainReportsCacheTemperature) {
  video::codec::GopCache gops;
  SemanticCache semcache;
  systems::EngineOptions options;
  options.gop_cache = &gops;
  options.semantic_cache = &semcache;
  auto engine = systems::MakePipelineEngine(options);

  std::string cold = engine->Explain(Q2c(), *dataset_);
  EXPECT_NE(cold.find("semcache=cold"), std::string::npos) << cold;

  ASSERT_TRUE(
      engine->Execute(Q2c(), *dataset_, systems::OutputMode::kStreaming, "").ok());
  std::string warm = engine->Explain(Q2c(), *dataset_);
  EXPECT_NE(warm.find("semcache=warm"), std::string::npos) << warm;
  EXPECT_NE(warm.find("decode=skipped"), std::string::npos) << warm;

  // Explain is a Peek: repeating it moved no hit/miss counters beyond the
  // one miss the executed query recorded.
  EXPECT_EQ(semcache.stats().misses, 1);
  EXPECT_EQ(semcache.stats().hits, 0);
}

}  // namespace
}  // namespace visualroad::queries
