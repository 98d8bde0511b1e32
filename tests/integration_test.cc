// End-to-end integration tests: the full benchmark loop as a user would run
// it — generate, benchmark, validate, report — plus cross-cutting
// determinism guarantees the paper's reproducibility story rests on.

#include <gtest/gtest.h>

#include "driver/conformance.h"
#include "driver/datasets.h"
#include "driver/report.h"
#include "driver/vcd.h"

namespace visualroad {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 1.0;
    config.fps = 15;
    config.seed = 51;
    auto dataset = driver::PrepareDataset(config);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static sim::Dataset* dataset_;
};

sim::Dataset* IntegrationTest::dataset_ = nullptr;

TEST_F(IntegrationTest, FullBenchmarkOnPipelineEngineConforms) {
  driver::VcdOptions options;
  options.batch_size_override = 2;  // Keep the full Q1..Q10 loop fast.
  options.sampler.max_upsample_exponent = 2;
  driver::VisualCityDriver vcd(*dataset_, options);
  auto engine = systems::MakePipelineEngine({});
  auto results = vcd.RunBenchmark(*engine);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), static_cast<size_t>(queries::kQueryCount));

  driver::ConformanceReport report = driver::BuildConformanceReport(
      *dataset_, options, engine->name(), *results);
  EXPECT_TRUE(report.Passed()) << driver::FormatConformanceReport(report);
  EXPECT_EQ(report.SupportedQueryCount(), queries::kQueryCount);

  // The published form round-trips.
  auto parsed =
      driver::ParseConformanceReport(driver::SerializeConformanceReport(report));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Passed());
  EXPECT_EQ(parsed->results.size(), report.results.size());
}

TEST_F(IntegrationTest, CascadeEngineConformsOnItsSubset) {
  driver::VcdOptions options;
  options.batch_size_override = 2;
  driver::VisualCityDriver vcd(*dataset_, options);
  auto engine = systems::MakeCascadeEngine({});
  auto results = vcd.RunBenchmark(*engine);
  ASSERT_TRUE(results.ok());
  driver::ConformanceReport report = driver::BuildConformanceReport(
      *dataset_, options, engine->name(), *results);
  // Partial support is conformant (systems "may select specific applicable
  // queries", Section 1) — unsupported queries don't fail the report.
  EXPECT_TRUE(report.Passed());
  EXPECT_EQ(report.SupportedQueryCount(), 2);
}

/// Returns at once, so an online batch on it measures the ingest gate alone.
class InstantEngine : public systems::Vdbms {
 public:
  const char* name() const override { return "InstantEngine"; }
  bool Supports(queries::QueryId) const override { return true; }
  systems::EngineStats stats() const override { return {}; }
  StatusOr<systems::QueryOutput> Execute(
      const queries::QueryInstance&, const sim::Dataset&, systems::OutputMode,
      const std::string&, systems::EngineStats* call_stats = nullptr) override {
    if (call_stats != nullptr) *call_stats = {};
    return systems::QueryOutput{};
  }
};

TEST_F(IntegrationTest, OnlineModeGatesOnIngestTime) {
  // Online processing (Section 3.2): each instance reads its input through a
  // throttled feed inside the measured window. Frame i becomes available
  // i / (fps x multiplier) after the first read, so however fast the engine
  // is, a batch takes at least instances x (frames - 1) / (fps x multiplier):
  // 2 x 14 / (15 x 50) s = 37.3 ms here.
  driver::VcdOptions options;
  options.batch_size_override = 2;
  options.validate = false;
  options.execution_mode = systems::ExecutionMode::kOnline;
  options.online_rate_multiplier = 50.0;
  int frames = dataset_->TrafficAssets().front()->container.video.FrameCount();
  for (const sim::VideoAsset* asset : dataset_->TrafficAssets()) {
    ASSERT_EQ(asset->container.video.FrameCount(), frames);
  }
  ASSERT_GT(frames, 1);
  const double gate_seconds = 2.0 * (frames - 1) /
                              (dataset_->config.fps * options.online_rate_multiplier);

  auto pipeline = systems::MakePipelineEngine({});
  InstantEngine instant;
  for (systems::Vdbms* engine : {pipeline.get(), static_cast<systems::Vdbms*>(&instant)}) {
    SCOPED_TRACE(engine->name());
    driver::VisualCityDriver vcd(*dataset_, options);
    auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ5);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->succeeded, 2);
    EXPECT_GE(result->total_seconds, gate_seconds);
  }
}

TEST(DeterminismTest, IdenticalConfigurationsProduceIdenticalDatasets) {
  // The paper's reproducibility contract: "By using the same configuration,
  // competing VDBMSs can reproduce the identical dataset" (Section 3.1).
  sim::CityConfig config;
  config.scale_factor = 2;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  config.fps = 16;
  config.seed = 777;
  sim::GeneratorOptions options;
  options.codec.qp = 24;
  sim::VisualCityGenerator a(options), b(options);
  auto da = a.Generate(config);
  auto db = b.Generate(config);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(da->assets.size(), db->assets.size());
  for (size_t i = 0; i < da->assets.size(); ++i) {
    // Bit-exact bitstreams, not just equal sizes.
    ASSERT_EQ(da->assets[i].container.video.frames.size(),
              db->assets[i].container.video.frames.size());
    for (size_t f = 0; f < da->assets[i].container.video.frames.size(); ++f) {
      EXPECT_EQ(da->assets[i].container.video.frames[f].data,
                db->assets[i].container.video.frames[f].data);
    }
    // Ground truth identical too.
    EXPECT_EQ(sim::SerializeGroundTruth(da->assets[i].ground_truth),
              sim::SerializeGroundTruth(db->assets[i].ground_truth));
  }
}

TEST(DeterminismTest, PreparedDatasetMatchesRecordedDigest) {
  // Set-up renders each tile's cameras and builds each traffic stream's box
  // tracks on the codec pool. Every asset's muxed container (video, GTRU,
  // WVTT, BOXV, BOXS) must keep the bytes of the serial implementation that
  // preceded the parallel one, at one tile thread and at four.
  constexpr uint64_t kSerialDigest = 0x06c04e618fc37f3full;
  sim::CityConfig config;
  config.scale_factor = 2;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 1.0;
  config.fps = 15;
  config.seed = 5;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    sim::GeneratorOptions options;
    options.threads = threads;
    auto dataset = driver::PrepareDataset(config, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis.
    for (const sim::VideoAsset& asset : dataset->assets) {
      for (uint8_t byte : video::container::Mux(asset.container)) {
        digest = (digest ^ byte) * 1099511628211ull;
      }
    }
    EXPECT_EQ(digest, kSerialDigest) << std::hex << digest;
  }
}

TEST(DeterminismTest, QueryBatchesIdenticalAcrossEnginesAndRuns) {
  sim::CityConfig config;
  config.scale_factor = 1;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  config.fps = 16;
  config.seed = 778;
  auto dataset = driver::PrepareDataset(config);
  ASSERT_TRUE(dataset.ok());
  driver::VcdOptions options;
  driver::VisualCityDriver vcd_a(*dataset, options), vcd_b(*dataset, options);
  for (queries::QueryId id : queries::AllQueries()) {
    auto batch_a = vcd_a.SampleBatch(id);
    auto batch_b = vcd_b.SampleBatch(id);
    ASSERT_TRUE(batch_a.ok());
    ASSERT_TRUE(batch_b.ok());
    ASSERT_EQ(batch_a->size(), batch_b->size());
    for (size_t i = 0; i < batch_a->size(); ++i) {
      EXPECT_EQ((*batch_a)[i].video_index, (*batch_b)[i].video_index);
      EXPECT_EQ((*batch_a)[i].q1_rect, (*batch_b)[i].q1_rect);
      EXPECT_EQ((*batch_a)[i].q2b_d, (*batch_b)[i].q2b_d);
      EXPECT_EQ((*batch_a)[i].q8_plate, (*batch_b)[i].q8_plate);
    }
  }
}

TEST(DeterminismTest, EnginesAgreeOnFrameValidatedOutputs) {
  // Both general engines must produce results that validate against the
  // same reference — the VDBMS-agnostic query specification in action.
  sim::CityConfig config;
  config.scale_factor = 1;
  config.width = 64;
  config.height = 36;
  config.duration_seconds = 0.5;
  config.fps = 16;
  config.seed = 779;
  auto dataset = driver::PrepareDataset(config);
  ASSERT_TRUE(dataset.ok());
  driver::VcdOptions options;
  options.batch_size_override = 2;
  driver::VisualCityDriver vcd(*dataset, options);
  for (queries::QueryId id : {queries::QueryId::kQ1, queries::QueryId::kQ2a,
                              queries::QueryId::kQ5, queries::QueryId::kQ6a}) {
    for (auto make : {systems::MakeBatchEngine, systems::MakePipelineEngine}) {
      auto engine = make({});
      auto result = vcd.RunQueryBatch(*engine, id);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->failed, 0) << queries::QueryName(id);
      EXPECT_GT(result->validation.checked, 0) << queries::QueryName(id);
      EXPECT_EQ(result->validation.passed, result->validation.checked)
          << queries::QueryName(id) << " on " << engine->name();
    }
  }
}

}  // namespace
}  // namespace visualroad
