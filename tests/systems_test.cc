#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "driver/datasets.h"
#include "driver/validation.h"
#include "storage/vss.h"
#include "systems/vdbms.h"
#include "systems/video_source.h"
#include "video/codec/gop_cache.h"
#include "video/container/vrmp.h"
#include "video/metrics.h"

namespace visualroad::systems {
namespace {

using queries::QueryId;
using queries::QueryInstance;

class SystemsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 31;
    auto dataset = driver::PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  QueryInstance Sample(QueryId id, uint64_t seed = 5) {
    Pcg32 rng = SubStream(seed, "systems-test", static_cast<uint64_t>(id));
    queries::SamplerOptions options;
    options.max_upsample_exponent = 2;
    auto instance = queries::SampleQueryInstance(id, *dataset_, rng, options);
    EXPECT_TRUE(instance.ok());
    return *instance;
  }

  static sim::Dataset* dataset_;
};

sim::Dataset* SystemsTest::dataset_ = nullptr;

// --- VideoSource ---

TEST_F(SystemsTest, OfflineSourceSupportsSeek) {
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  VideoSource source = VideoSource::Offline(&stream);
  EXPECT_TRUE(source.SeekSupported());
  auto first = source.Next();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE((*first)->keyframe);
  ASSERT_TRUE(source.Seek(5).ok());
  EXPECT_EQ(source.position(), 5);
  // Exhaust and verify OutOfRange at the end.
  while (!source.AtEnd()) ASSERT_TRUE(source.Next().ok());
  EXPECT_FALSE(source.Next().ok());
}

TEST_F(SystemsTest, OnlineSourceIsForwardOnlyAndThrottled) {
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  // 100x real time keeps the test fast while still exercising the sleep
  // path: 15 frames at 15 fps = 1 simulated second = ~10ms wall.
  VideoSource source = VideoSource::Online(&stream, 100.0);
  EXPECT_FALSE(source.SeekSupported());
  EXPECT_FALSE(source.Seek(0).ok());
  auto start = std::chrono::steady_clock::now();
  int frames = 0;
  while (!source.AtEnd()) {
    ASSERT_TRUE(source.Next().ok());
    ++frames;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(frames, stream.FrameCount());
  // Last frame available at (frames-1)/fps / 100 seconds.
  EXPECT_GE(elapsed, (frames - 1) / stream.fps / 100.0 * 0.8);
}

TEST_F(SystemsTest, OfflineSeekResetsPositionDependentState) {
  // Regression: Seek must reset every position-dependent member, so any
  // interleaving of seeks and reads yields exactly the frame at position().
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  VideoSource source = VideoSource::Offline(&stream);
  for (int target : {5, 2, 9, 0, 9, 4}) {
    ASSERT_TRUE(source.Seek(target).ok());
    EXPECT_EQ(source.position(), target);
    auto frame = source.Next();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)->data, stream.frames[static_cast<size_t>(target)].data);
    EXPECT_EQ(source.position(), target + 1);
  }
  EXPECT_FALSE(source.Seek(-1).ok());
  EXPECT_FALSE(source.Seek(stream.FrameCount() + 1).ok());
}

TEST_F(SystemsTest, OnlineSourcePacingAnchorsAtFirstRead) {
  // Regression: the pacing clock starts at the first Next(), not at
  // construction — a source built ahead of consumption must not release an
  // instant backlog of "overdue" frames.
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  VideoSource source = VideoSource::Online(&stream, 100.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto start = std::chrono::steady_clock::now();
  int frames = 0;
  while (!source.AtEnd()) {
    ASSERT_TRUE(source.Next().ok());
    ++frames;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(frames, stream.FrameCount());
  EXPECT_GE(elapsed, (frames - 1) / stream.fps / 100.0 * 0.8);
}

TEST_F(SystemsTest, OnlinePacingClampsBurstAfterStall) {
  // Regression: a consumer that stalled for many frame periods used to get
  // the whole backlog released instantly. A live feed cannot replay frames
  // the consumer slept through, so after a long stall delivery must resume
  // paced at the frame rate (small catch-up allowance aside).
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  ASSERT_GE(stream.FrameCount(), 12);
  // fps 15 x multiplier 13.33 => one frame every ~5 ms.
  VideoSource source = VideoSource::Online(&stream, 200.0 / stream.fps);
  ASSERT_TRUE(source.Next().ok());
  ASSERT_TRUE(source.Next().ok());
  // Stall for ~20 frame periods.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto resume = std::chrono::steady_clock::now();
  int frames = 0;
  while (!source.AtEnd()) {
    ASSERT_TRUE(source.Next().ok());
    ++frames;
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - resume).count();
  EXPECT_EQ(frames, stream.FrameCount() - 2);
  // With the clamp, at most ~4 frames arrive instantly; the rest are paced
  // at 5 ms each. Without it, the whole tail would arrive in ~0 s.
  double frame_seconds = 1.0 / 200.0;
  EXPECT_GE(elapsed, (frames - 5) * frame_seconds * 0.8);
}

TEST_F(SystemsTest, OnlineChannelLossFreezesFramesDeterministically) {
  const video::codec::EncodedVideo& stream =
      dataset_->assets[0].container.video;
  auto profile = fault::ProfileByName("lossy");
  ASSERT_TRUE(profile.ok());
  profile->jitter_delay = std::chrono::microseconds(10);

  auto run = [&](uint64_t seed) {
    fault::FaultInjector injector(*profile, seed);
    VideoSource source = VideoSource::Online(&stream, 10000.0, &injector);
    std::vector<const video::codec::EncodedFrame*> delivered;
    while (!source.AtEnd()) {
      auto frame = source.Next();
      EXPECT_TRUE(frame.ok());
      delivered.push_back(*frame);
    }
    EXPECT_EQ(static_cast<int>(delivered.size()), stream.FrameCount());
    // A lost frame is concealed by repeating the previous delivery, so the
    // consumer still sees one decodable frame per capture slot.
    int repeats = 0;
    for (size_t i = 1; i < delivered.size(); ++i) {
      if (delivered[i] == delivered[i - 1]) ++repeats;
    }
    EXPECT_EQ(repeats, source.frames_degraded());
    return source.frames_degraded();
  };
  int first = run(29);
  EXPECT_GT(first, 0);  // The lossy profile dropped something.
  EXPECT_EQ(first, run(29));  // Same seed, same freeze-frame schedule.
}

TEST_F(SystemsTest, StorageBackedSourceMatchesInMemorySource) {
  namespace fs = std::filesystem;
  // Re-encode with short GOPs so the windowed source issues several
  // GOP-aligned range reads instead of one whole-file fetch.
  auto decoded =
      video::codec::ParallelDecode(dataset_->assets[0].container.video);
  ASSERT_TRUE(decoded.ok());
  video::codec::EncoderConfig config;
  config.gop_length = 4;
  auto reencoded = video::codec::ParallelEncode(*decoded, config);
  ASSERT_TRUE(reencoded.ok());
  const video::codec::EncodedVideo& stream = *reencoded;
  std::string root = (fs::temp_directory_path() / "vr_source_vss").string();
  storage::StoreOptions store_options;
  store_options.root = root;
  store_options.metrics_label = "source_test";
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok());
  storage::VssOptions vss_options;
  vss_options.store = &*store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok());
  ASSERT_TRUE((*vss)->Ingest("cam", stream).ok());

  // A small readahead forces several windowed range reads over the file.
  auto source = VideoSource::StorageOffline(vss->get(), "cam", 8);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(source->SeekSupported());
  EXPECT_EQ(source->FrameCount(), stream.FrameCount());
  for (int i = 0; i < stream.FrameCount(); ++i) {
    auto frame = source->Next();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ((*frame)->data, stream.frames[static_cast<size_t>(i)].data);
  }
  EXPECT_TRUE(source->AtEnd());
  EXPECT_FALSE(source->Next().ok());
  EXPECT_GT((*vss)->stats().range_reads, 1);

  // Seeks inside and outside the fetched window both land exactly.
  for (int target : {3, 12, 1, stream.FrameCount() - 1}) {
    ASSERT_TRUE(source->Seek(target).ok());
    auto frame = source->Next();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)->data, stream.frames[static_cast<size_t>(target)].data);
  }
  EXPECT_FALSE(vss->get() == nullptr);
  std::error_code ec;
  fs::remove_all(root, ec);
}

// --- Engine capabilities ---

TEST_F(SystemsTest, EngineSupportMatrix) {
  EngineOptions options;
  auto batch = MakeBatchEngine(options);
  auto pipeline = MakePipelineEngine(options);
  auto cascade = MakeCascadeEngine(options);
  for (QueryId id : queries::AllQueries()) {
    EXPECT_TRUE(batch->Supports(id));
    EXPECT_TRUE(pipeline->Supports(id));
  }
  EXPECT_TRUE(cascade->Supports(QueryId::kQ1));
  EXPECT_TRUE(cascade->Supports(QueryId::kQ2c));
  EXPECT_FALSE(cascade->Supports(QueryId::kQ2a));
  EXPECT_FALSE(cascade->Supports(QueryId::kQ9));
}

TEST_F(SystemsTest, EngineNamesAreDistinct) {
  EngineOptions options;
  EXPECT_STRNE(MakeBatchEngine(options)->name(),
               MakePipelineEngine(options)->name());
  EXPECT_STRNE(MakePipelineEngine(options)->name(),
               MakeCascadeEngine(options)->name());
}

// --- Cross-engine output equivalence (parameterised over engine x query) ---

enum class EngineKind { kBatch, kPipeline, kCascade };

std::unique_ptr<Vdbms> MakeEngine(EngineKind kind, const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kBatch:
      return MakeBatchEngine(options);
    case EngineKind::kPipeline:
      return MakePipelineEngine(options);
    case EngineKind::kCascade:
      return MakeCascadeEngine(options);
  }
  return nullptr;
}

struct EngineQueryCase {
  EngineKind engine;
  QueryId query;
};

// Names each case (and its ctest entry) by engine and query, e.g.
// pipeline_Q2c; without it gtest prints the struct's raw bytes.
void PrintTo(const EngineQueryCase& c, std::ostream* os) {
  const char* engines[] = {"batch", "pipeline", "cascade"};
  std::string query = queries::QueryName(c.query);
  std::erase(query, '(');
  std::erase(query, ')');
  *os << engines[static_cast<int>(c.engine)] << "_" << query;
}

class EngineQueryMatrix : public SystemsTest,
                          public ::testing::WithParamInterface<EngineQueryCase> {};

TEST_P(EngineQueryMatrix, OutputValidatesAgainstReference) {
  const EngineQueryCase& param = GetParam();
  EngineOptions options;
  auto engine = MakeEngine(param.engine, options);
  if (!engine->Supports(param.query)) GTEST_SKIP() << "unsupported";

  QueryInstance instance = Sample(param.query);
  auto output = engine->Execute(instance, *dataset_, OutputMode::kWrite, "");
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ASSERT_TRUE(output->produced || !output->detections.empty() ||
              output->video.FrameCount() == 0);

  queries::ValidationKind kind = queries::ValidationFor(param.query);
  if (kind == queries::ValidationKind::kFrame && output->video.FrameCount() > 0) {
    queries::ReferenceContext context;
    context.dataset = dataset_;
    video::Video input;
    if (param.query != QueryId::kQ9 && param.query != QueryId::kQ10) {
      auto asset = detail::InputAsset(instance, *dataset_);
      ASSERT_TRUE(asset.ok());
      auto decoded = video::codec::Decode((*asset)->container.video);
      ASSERT_TRUE(decoded.ok());
      input = std::move(decoded).value();
    }
    auto reference = queries::RunReference(context, instance, input);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    double threshold = param.query == QueryId::kQ9 ? video::kStitchingPsnrDb
                                                   : video::kValidationPsnrDb;
    auto stats = driver::FrameValidate(output->video, reference->video, threshold);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->passed, stats->checked)
        << "mean " << stats->mean_psnr_db << " dB, min " << stats->min_psnr_db;
  }
  if (kind == queries::ValidationKind::kSemantic && !output->detections.empty()) {
    auto asset = detail::InputAsset(instance, *dataset_);
    ASSERT_TRUE(asset.ok());
    auto stats = driver::SemanticValidate(output->detections, (*asset)->ground_truth,
                                          instance.object_class);
    ASSERT_TRUE(stats.ok());
    // A tiny batch can consist solely of the detector's rare false
    // positives; only assert the pass rate once the sample is meaningful.
    if (stats->checked >= 5) {
      EXPECT_GE(stats->PassRate(), 0.8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineQueryMatrix,
    ::testing::Values(
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ1},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2a},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2b},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2c},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ2d},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ5},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ6a},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ6b},
        EngineQueryCase{EngineKind::kBatch, QueryId::kQ9},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ1},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2a},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2b},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2c},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ2d},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ5},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ6a},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ6b},
        EngineQueryCase{EngineKind::kPipeline, QueryId::kQ9},
        EngineQueryCase{EngineKind::kCascade, QueryId::kQ1},
        EngineQueryCase{EngineKind::kCascade, QueryId::kQ2c}));

// --- Engine-specific behaviours ---

TEST_F(SystemsTest, CascadeRejectsUnsupportedQueries) {
  EngineOptions options;
  auto cascade = MakeCascadeEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  auto output = cascade->Execute(instance, *dataset_, OutputMode::kWrite, "");
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kUnimplemented);
}

TEST_F(SystemsTest, CascadeSkipsRedundantFrames) {
  // A private cache keeps the decode counters independent of whatever other
  // tests have left in the process-wide one.
  video::codec::GopCache cache;
  EngineOptions options;
  options.gop_cache = &cache;
  auto cascade = MakeCascadeEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2c);
  auto output = cascade->Execute(instance, *dataset_, OutputMode::kStreaming, "");
  ASSERT_TRUE(output.ok());
  EngineStats stats = cascade->stats();
  // Every input frame is decoded; not every one runs the full CNN.
  EXPECT_GT(stats.frames_decoded, 0);
  EXPECT_LT(stats.cnn_frames_full, stats.frames_decoded);
}

TEST_F(SystemsTest, PipelineCachesDecodedContent) {
  // A private cache keeps hit/miss expectations deterministic regardless of
  // what other tests have cached process-wide.
  video::codec::GopCache cache;
  EngineOptions options;
  options.gop_cache = &cache;
  auto pipeline = MakePipelineEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  ASSERT_TRUE(
      pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  ASSERT_TRUE(
      pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  EngineStats stats = pipeline->stats();
  EXPECT_GE(stats.cache_hits, 1);
  // Quiesce clears the cache: the next run misses again.
  pipeline->Quiesce();
  ASSERT_TRUE(
      pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  EXPECT_GE(pipeline->stats().cache_misses, 2);
}

TEST_F(SystemsTest, PipelineOutputIsByteIdenticalAtEveryCodecWidth) {
  // The pipeline engine runs its tiles, faces, row bands and frames on the
  // codec pool, EngineOptions::codec_threads wide. Every query must mux the
  // same bytes and report the same detections at width 1 and width 4, and
  // Q3 and Q9 must match the stream digests of the serial implementation
  // that preceded the parallel one.
  const std::map<QueryId, uint64_t> kSerialDigests = {
      {QueryId::kQ3, 0xc6b8f8f2159caeebull},
      {QueryId::kQ9, 0x4c3a8cec2145b0a8ull},
  };
  for (QueryId id : queries::AllQueries()) {
    SCOPED_TRACE(queries::QueryName(id));
    QueryInstance instance = Sample(id);
    std::vector<QueryOutput> outputs;
    for (int width : {1, 4}) {
      video::codec::GopCache cache;
      EngineOptions options;
      options.gop_cache = &cache;
      options.codec_threads = width;
      auto engine = MakePipelineEngine(options);
      auto output = engine->Execute(instance, *dataset_, OutputMode::kWrite, "");
      ASSERT_TRUE(output.ok()) << "width " << width << ": "
                               << output.status().ToString();
      outputs.push_back(std::move(output).value());
    }
    const QueryOutput& serial = outputs[0];
    const QueryOutput& wide = outputs[1];
    video::container::Container serial_container, wide_container;
    serial_container.video = serial.video;
    wide_container.video = wide.video;
    EXPECT_EQ(video::container::Mux(serial_container),
              video::container::Mux(wide_container));
    ASSERT_EQ(serial.detections.size(), wide.detections.size());
    for (size_t f = 0; f < serial.detections.size(); ++f) {
      ASSERT_EQ(serial.detections[f].size(), wide.detections[f].size()) << f;
      for (size_t d = 0; d < serial.detections[f].size(); ++d) {
        const vision::Detection& a = serial.detections[f][d];
        const vision::Detection& b = wide.detections[f][d];
        EXPECT_EQ(a.object_class, b.object_class);
        EXPECT_EQ(a.box.x0, b.box.x0);
        EXPECT_EQ(a.box.y0, b.box.y0);
        EXPECT_EQ(a.box.x1, b.box.x1);
        EXPECT_EQ(a.box.y1, b.box.y1);
        EXPECT_EQ(a.score, b.score);
        EXPECT_EQ(a.entity_id, b.entity_id);
      }
    }
    auto digest = kSerialDigests.find(id);
    if (digest != kSerialDigests.end()) {
      EXPECT_GT(serial.video.FrameCount(), 0);
      EXPECT_EQ(video::codec::StreamIdentity(serial.video), digest->second)
          << std::hex << "0x" << video::codec::StreamIdentity(serial.video);
    }
  }
}

TEST_F(SystemsTest, BatchEngineFailsQ4UnderTightMemory) {
  EngineOptions options;
  options.memory_fail_bytes = 1 << 17;  // 128 KB ceiling: any upsample dies.
  auto batch = MakeBatchEngine(options);
  QueryInstance instance = Sample(QueryId::kQ4);
  auto output = batch->Execute(instance, *dataset_, OutputMode::kStreaming, "");
  ASSERT_FALSE(output.ok());
  EXPECT_EQ(output.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(SystemsTest, BatchEngineSpillsUnderMemoryPressure) {
  EngineOptions options;
  options.memory_budget_bytes = 1 << 16;  // Tiny budget: immediate pressure.
  auto batch = MakeBatchEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  ASSERT_TRUE(batch->Execute(instance, *dataset_, OutputMode::kStreaming, "").ok());
  EXPECT_GT(batch->stats().chunked_redecodes, 0);
}

TEST_F(SystemsTest, WriteModePersistsContainer) {
  EngineOptions options;
  auto pipeline = MakePipelineEngine(options);
  QueryInstance instance = Sample(QueryId::kQ5);
  std::string dir =
      (std::filesystem::temp_directory_path() / "vr_systems_test").string();
  auto output = pipeline->Execute(instance, *dataset_, OutputMode::kWrite, dir);
  ASSERT_TRUE(output.ok());
  ASSERT_FALSE(output->written_path.empty());
  auto container = video::container::ReadContainerFile(output->written_path);
  ASSERT_TRUE(container.ok());
  EXPECT_EQ(container->video.FrameCount(), output->video.FrameCount());
  std::filesystem::remove_all(dir);
}

TEST_F(SystemsTest, StreamingModeDiscardsResults) {
  EngineOptions options;
  auto pipeline = MakePipelineEngine(options);
  QueryInstance instance = Sample(QueryId::kQ5);
  auto output = pipeline->Execute(instance, *dataset_, OutputMode::kStreaming, "");
  ASSERT_TRUE(output.ok());
  EXPECT_FALSE(output->produced);
  EXPECT_EQ(output->video.FrameCount(), 0);
  EXPECT_TRUE(output->written_path.empty());
}

TEST_F(SystemsTest, InvalidVideoIndexRejected) {
  EngineOptions options;
  auto batch = MakeBatchEngine(options);
  QueryInstance instance = Sample(QueryId::kQ2a);
  instance.video_index = 999;
  EXPECT_FALSE(batch->Execute(instance, *dataset_, OutputMode::kWrite, "").ok());
}

TEST_F(SystemsTest, BatchDetectorRunsLargerNetworkThanPipeline) {
  // The architectural difference behind the Q2(c) gap: the batch engine's
  // framework path must burn more arithmetic per frame.
  EngineOptions options;
  vision::MiniYolo reference_net(options.detector);
  vision::DetectorOptions batch_options = options.detector;
  batch_options.input_size = 224;
  vision::MiniYolo batch_net(batch_options);
  EXPECT_GT(batch_net.MacsPerFrame(), 4 * reference_net.MacsPerFrame());
}

}  // namespace
}  // namespace visualroad::systems
