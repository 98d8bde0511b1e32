#include "storage/vss.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/serialize.h"
#include "driver/dataset_io.h"
#include "driver/datasets.h"
#include "storage/vss_policy.h"
#include "systems/vdbms.h"
#include "video/codec/codec.h"
#include "video/codec/gop_cache.h"

namespace visualroad::storage {
namespace {

namespace fs = std::filesystem;

using video::codec::EncodedVideo;

bool SameBitstream(const EncodedVideo& a, const EncodedVideo& b) {
  if (a.FrameCount() != b.FrameCount()) return false;
  for (int i = 0; i < a.FrameCount(); ++i) {
    const auto& fa = a.frames[static_cast<size_t>(i)];
    const auto& fb = b.frames[static_cast<size_t>(i)];
    if (fa.keyframe != fb.keyframe || fa.qp != fb.qp || fa.data != fb.data) {
      return false;
    }
  }
  return true;
}

EncodedVideo MakeStream(int frames, int width, int height, int gop_length,
                        uint64_t seed) {
  video::Video video;
  video.fps = 15;
  for (int f = 0; f < frames; ++f) {
    video::Frame frame(width, height);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        double value = 128 + 90 * std::sin((x + f * 2 + seed) * 0.11) *
                                 std::cos((y + f) * 0.07);
        frame.SetPixel(x, y, static_cast<uint8_t>(value), 120, 134);
      }
    }
    video.frames.push_back(std::move(frame));
  }
  video::codec::EncoderConfig config;
  config.qp = 20;
  config.gop_length = gop_length;
  auto encoded = video::codec::ParallelEncode(video, config);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  return *encoded;
}

class VssTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-qualified so parallel ctest shards of this binary (each its own
    // process, each with counter_ == 0) never share a temp tree.
    root_ = (fs::temp_directory_path() /
             ("vr_vss_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++))).string();
    StoreOptions store_options;
    store_options.root = root_;
    store_options.num_nodes = 4;
    store_options.replication = 2;
    store_options.block_size = 512;
    store_options.metrics_label = "vss_test";
    auto store = ShardedStore::Open(store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::make_unique<ShardedStore>(std::move(store).value());
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  VssOptions Options() {
    VssOptions options;
    options.store = store_.get();
    return options;
  }

  std::unique_ptr<VideoStorageService> OpenService(const VssOptions& options) {
    auto service = VideoStorageService::Open(options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return std::move(service).value();
  }

  std::string root_;
  std::unique_ptr<ShardedStore> store_;
  static int counter_;
};

int VssTest::counter_ = 0;

TEST_F(VssTest, IngestReadBackIsByteIdentical) {
  auto vss = OpenService(Options());
  EncodedVideo original = MakeStream(12, 64, 36, 4, 1);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());

  auto tier = vss->BaseTier("cam");
  ASSERT_TRUE(tier.ok());
  EXPECT_EQ(tier->width, 64);
  EXPECT_EQ(tier->qp, 0);
  auto read = vss->ReadVideo("cam", *tier);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(SameBitstream(**read, original));
  EXPECT_EQ(vss->stats().base_hits, 1);

  // A second read is served from the resident stream cache.
  auto again = vss->ReadVideo("cam", *tier);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), read->get());
  EXPECT_EQ(vss->stats().resident_hits, 1);
}

TEST_F(VssTest, RangeReadFetchesOnlyCoveringSegments) {
  VssOptions options = Options();
  options.resident_bytes = 0;  // Force every read to the store.
  auto vss = OpenService(options);
  EncodedVideo original = MakeStream(16, 64, 36, 4, 2);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());
  auto tier = vss->BaseTier("cam");
  ASSERT_TRUE(tier.ok());

  StoreStats store_before = store_->stats();
  // Frames [5, 9) live in GOPs 1 and 2 (of four 4-frame GOPs).
  auto range = vss->ReadRange("cam", *tier, 5, 4);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->first_frame, 4);
  ASSERT_EQ(range->video->FrameCount(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(range->video->frames[static_cast<size_t>(i)].data,
              original.frames[static_cast<size_t>(i + 4)].data);
  }
  VssStats stats = vss->stats();
  EXPECT_EQ(stats.range_reads, 1);
  EXPECT_EQ(stats.segments_fetched, 2);
  EXPECT_LT(stats.bytes_fetched, static_cast<int64_t>(original.TotalBytes()));
  // The store served a strict subset of the variant object's blocks.
  EXPECT_GT(store_->stats().partial_reads, store_before.partial_reads);
}

TEST_F(VssTest, ReadRangeValidatesBounds) {
  auto vss = OpenService(Options());
  ASSERT_TRUE(vss->Ingest("cam", MakeStream(8, 32, 32, 4, 3)).ok());
  auto tier = vss->BaseTier("cam");
  ASSERT_TRUE(tier.ok());
  EXPECT_FALSE(vss->ReadRange("cam", *tier, -1, 2).ok());
  EXPECT_FALSE(vss->ReadRange("cam", *tier, 0, 0).ok());
  EXPECT_FALSE(vss->ReadRange("cam", *tier, 6, 3).ok());
  EXPECT_FALSE(vss->ReadRange("missing", *tier, 0, 1).ok());
  EXPECT_EQ(vss->ReadVideo("missing", *tier).status().code(),
            StatusCode::kNotFound);
}

TEST_F(VssTest, TranscodeOnReadMaterializesAndCachesVariant) {
  auto vss = OpenService(Options());
  ASSERT_TRUE(vss->Ingest("cam", MakeStream(12, 64, 36, 4, 4)).ok());

  VariantKey tier{32, 18, 32};
  auto read = vss->ReadVideo("cam", tier);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ((*read)->width, 32);
  EXPECT_EQ((*read)->height, 18);
  VssStats stats = vss->stats();
  EXPECT_EQ(stats.transcodes, 1);
  EXPECT_EQ(stats.variants_persisted, 1);

  auto entry = vss->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->variants.size(), 2u);
  ASSERT_TRUE(entry->variants.count(tier));
  EXPECT_FALSE(entry->variants.at(tier).base);

  // After dropping the resident cache the persisted variant answers the
  // same tier without another transcode.
  vss->DropResident();
  auto again = vss->ReadVideo("cam", tier);
  ASSERT_TRUE(again.ok());
  stats = vss->stats();
  EXPECT_EQ(stats.transcodes, 1);
  EXPECT_EQ(stats.variant_hits, 1);
}

TEST_F(VssTest, CatalogAndVariantsSurviveReopen) {
  EncodedVideo original = MakeStream(12, 64, 36, 4, 5);
  VariantKey tier{32, 18, 32};
  {
    auto vss = OpenService(Options());
    ASSERT_TRUE(vss->Ingest("cam", original).ok());
    ASSERT_TRUE(vss->ReadVideo("cam", tier).ok());  // Persists the variant.
  }
  auto reopened = OpenService(Options());
  EXPECT_TRUE(reopened->Contains("cam"));
  auto entry = reopened->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->frame_count, 12);
  EXPECT_EQ(entry->variants.size(), 2u);

  auto base = reopened->BaseTier("cam");
  ASSERT_TRUE(base.ok());
  auto read = reopened->ReadVideo("cam", *base);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(SameBitstream(**read, original));
  // The cached variant answers without a new transcode.
  ASSERT_TRUE(reopened->ReadVideo("cam", tier).ok());
  EXPECT_EQ(reopened->stats().transcodes, 0);
  EXPECT_EQ(reopened->stats().variant_hits, 1);
}

TEST_F(VssTest, CatalogCountsBeyondTheirBytesAreDataLoss) {
  // A catalog written by the layout SaveCatalogLocked uses, ending right
  // after one of its counts. Each count must be bounded by the bytes left
  // before its loop runs: a segment count of 0xFFFFFFFF would otherwise push
  // about 4.3G segments (~100 GB) before the truncation check. The last
  // catalog is complete but for a frame count above INT_MAX.
  enum class Cut { kVideos, kVariants, kSegments, kFrameCount };
  auto catalog = [](Cut cut) {
    ByteWriter writer;
    writer.U32(0x53565256);  // "VRVS".
    writer.U64(7);
    writer.U32(cut == Cut::kVideos ? 0xFFFFFFFFu : 1);
    if (cut == Cut::kVideos) return writer.Take();
    writer.Str("cam");
    writer.U8(0);
    writer.F64(15.0);
    writer.U32(cut == Cut::kFrameCount ? 0x80000000u : 12);
    writer.U32(4);
    writer.U32(cut == Cut::kVariants ? 0xFFFFFFFFu : 1);
    if (cut == Cut::kVariants) return writer.Take();
    writer.I32(64);
    writer.I32(36);
    writer.I32(0);
    writer.U8(1);
    writer.U64(100);
    writer.U64(1);
    writer.U64(0);
    writer.U32(cut == Cut::kSegments ? 0xFFFFFFFFu : 0);
    return writer.Take();
  };
  for (Cut cut : {Cut::kSegments, Cut::kVariants, Cut::kVideos, Cut::kFrameCount}) {
    SCOPED_TRACE(static_cast<int>(cut));
    ASSERT_TRUE(store_->Put("vss/catalog.vrvc", catalog(cut)).ok());
    auto vss = VideoStorageService::Open(Options());
    ASSERT_FALSE(vss.ok());
    EXPECT_EQ(vss.status().code(), StatusCode::kDataLoss) << vss.status().ToString();
  }
}

TEST_F(VssTest, SingleFlightCoalescesConcurrentTranscodes) {
  auto vss = OpenService(Options());
  ASSERT_TRUE(vss->Ingest("cam", MakeStream(12, 64, 36, 4, 6)).ok());

  constexpr int kThreads = 8;
  VariantKey tier{32, 18, 30};
  std::vector<std::shared_ptr<const EncodedVideo>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto read = vss->ReadVideo("cam", tier);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      results[static_cast<size_t>(t)] = *read;
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Exactly one materialization ran; every reader got the same bitstream.
  EXPECT_EQ(vss->stats().transcodes, 1);
  EXPECT_EQ(vss->stats().variants_persisted, 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(SameBitstream(*results[0], *results[static_cast<size_t>(t)]));
  }
}

TEST_F(VssTest, ConcurrentReadsSurviveDatanodeFailure) {
  VssOptions options = Options();
  options.resident_bytes = 0;  // Every range read goes to the store.
  auto vss = OpenService(options);
  EncodedVideo original = MakeStream(16, 64, 36, 4, 7);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());
  auto tier = vss->BaseTier("cam");
  ASSERT_TRUE(tier.ok());

  // A datanode goes dark; replication must absorb it as fail-overs, never
  // as query failures — while one missing variant materializes exactly once.
  ASSERT_TRUE(store_->DisableNode(0).ok());
  VariantKey transcode_tier{32, 18, 32};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        int first = (t * 2 + round) % 12;
        auto range = vss->ReadRange("cam", *tier, first, 4);
        ASSERT_TRUE(range.ok()) << range.status().ToString();
        ASSERT_GE(first, range->first_frame);
        const auto& got =
            range->video->frames[static_cast<size_t>(first - range->first_frame)];
        EXPECT_EQ(got.data, original.frames[static_cast<size_t>(first)].data);
      }
      auto whole = vss->ReadVideo("cam", transcode_tier);
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(store_->stats().replica_failovers, 0);
  EXPECT_EQ(vss->stats().transcodes, 1);
}

TEST_F(VssTest, EvictionRespectsVariantByteBudget) {
  VssOptions options = Options();
  options.variant_cache_bytes = 1;  // Nothing fits: persist then evict.
  auto vss = OpenService(options);
  ASSERT_TRUE(vss->Ingest("cam", MakeStream(12, 64, 36, 4, 8)).ok());

  ASSERT_TRUE(vss->ReadVideo("cam", VariantKey{32, 18, 32}).ok());
  VssStats stats = vss->stats();
  EXPECT_EQ(stats.variants_persisted, 1);
  EXPECT_EQ(stats.variants_evicted, 1);
  auto entry = vss->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->variants.size(), 1u);  // Base survives; it is never budgeted.
  auto base = vss->BaseTier("cam");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(vss->ReadVideo("cam", *base).ok());
}

TEST_F(VssTest, CompactionDropsDominatedVariants) {
  VssOptions options = Options();
  options.compaction_byte_slack = 100.0;  // Quality alone decides dominance.
  auto vss = OpenService(options);
  ASSERT_TRUE(vss->Ingest("cam", MakeStream(12, 64, 36, 4, 9)).ok());

  // Materialize two variants at the same resolution, qp 40 and qp 32. The
  // qp 32 variant serves every read the qp 40 one can, so compaction drops
  // the dominated qp 40 object.
  ASSERT_TRUE(vss->ReadVideo("cam", VariantKey{32, 18, 40}).ok());
  ASSERT_TRUE(vss->ReadVideo("cam", VariantKey{32, 18, 32}).ok());
  ASSERT_EQ(vss->Describe("cam")->variants.size(), 3u);

  auto dropped = vss->Compact();
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 1);
  EXPECT_EQ(vss->stats().variants_compacted, 1);
  auto entry = vss->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->variants.size(), 2u);
  EXPECT_FALSE(entry->variants.count(VariantKey{32, 18, 40}));
  ASSERT_TRUE(entry->variants.count(VariantKey{32, 18, 32}));

  // Reads at the dropped tier still succeed, served by the survivor.
  vss->DropResident();
  int64_t transcodes_before = vss->stats().transcodes;
  auto read = vss->ReadVideo("cam", VariantKey{32, 18, 40});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(vss->stats().transcodes, transcodes_before);
}

TEST_F(VssTest, IngestReplacesVideoAndDropsStaleVariants) {
  auto vss = OpenService(Options());
  EncodedVideo first = MakeStream(12, 64, 36, 4, 10);
  ASSERT_TRUE(vss->Ingest("cam", first).ok());
  ASSERT_TRUE(vss->ReadVideo("cam", VariantKey{32, 18, 32}).ok());

  EncodedVideo second = MakeStream(8, 64, 36, 4, 11);
  ASSERT_TRUE(vss->Ingest("cam", second).ok());
  auto entry = vss->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->frame_count, 8);
  EXPECT_EQ(entry->variants.size(), 1u);  // The stale transcode is gone.
  auto base = vss->BaseTier("cam");
  ASSERT_TRUE(base.ok());
  auto read = vss->ReadVideo("cam", *base);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(SameBitstream(**read, second));
}

TEST_F(VssTest, TranscodeDeadlineDegradesToNearestVariant) {
  // Tentpole: when every transcode stalls past the deadline, the read
  // degrades — the already-fetched nearest better variant (here the base)
  // is served directly instead of blocking the query on the transcode.
  auto profile = fault::ProfileByName("degraded");
  ASSERT_TRUE(profile.ok());
  profile->transcode_stall_delay = std::chrono::microseconds(5000);
  fault::FaultInjector injector(*profile, 17);
  VssOptions options = Options();
  options.faults = &injector;
  options.transcode_deadline = std::chrono::milliseconds(1);
  auto vss = OpenService(options);
  EncodedVideo original = MakeStream(12, 64, 36, 4, 13);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());

  VariantKey tier{32, 18, 32};
  auto read = vss->ReadVideo("cam", tier);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  // The degraded read serves the base bitstream (64x36), not the 32x18 tier.
  EXPECT_EQ((*read)->width, 64);
  EXPECT_TRUE(SameBitstream(**read, original));
  VssStats stats = vss->stats();
  EXPECT_EQ(stats.degraded_reads, 1);
  EXPECT_EQ(stats.transcodes, 0);
  // Nothing half-transcoded gets persisted as a variant.
  EXPECT_EQ(stats.variants_persisted, 0);
  auto entry = vss->Describe("cam");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->variants.size(), 1u);
}

TEST_F(VssTest, ZeroDeadlineNeverDegradesEvenWithStalls) {
  // transcode_deadline == 0 disables degradation entirely: with stalls
  // injected the read is slower but still serves the exact requested tier —
  // the byte-identity guarantee for faults-off configurations.
  auto profile = fault::ProfileByName("degraded");
  ASSERT_TRUE(profile.ok());
  profile->transcode_stall_delay = std::chrono::microseconds(100);
  fault::FaultInjector injector(*profile, 19);
  VssOptions options = Options();
  options.faults = &injector;
  auto vss = OpenService(options);
  ASSERT_TRUE(vss->Ingest("cam", MakeStream(12, 64, 36, 4, 14)).ok());

  VariantKey tier{32, 18, 32};
  auto read = vss->ReadVideo("cam", tier);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)->width, 32);
  EXPECT_EQ(vss->stats().degraded_reads, 0);
  EXPECT_EQ(vss->stats().transcodes, 1);
}

TEST_F(VssTest, DegradedSingleFlightWaitersSeeTheDegradedStream) {
  // Waiters coalesced behind a leader that degrades must observe the
  // leader's degraded outcome instead of hanging on a tier that never
  // materializes.
  auto profile = fault::ProfileByName("degraded");
  ASSERT_TRUE(profile.ok());
  profile->transcode_stall_delay = std::chrono::microseconds(5000);
  fault::FaultInjector injector(*profile, 23);
  VssOptions options = Options();
  options.faults = &injector;
  options.transcode_deadline = std::chrono::milliseconds(1);
  auto vss = OpenService(options);
  EncodedVideo original = MakeStream(12, 64, 36, 4, 15);
  ASSERT_TRUE(vss->Ingest("cam", original).ok());

  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const EncodedVideo>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto read = vss->ReadVideo("cam", VariantKey{32, 18, 32});
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      results[static_cast<size_t>(t)] = *read;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(SameBitstream(*results[static_cast<size_t>(t)], original));
  }
  EXPECT_GT(vss->stats().degraded_reads, 0);
  EXPECT_EQ(vss->stats().transcodes, 0);
}

TEST_F(VssTest, RejectsInvalidIngestAndOptions) {
  auto vss = OpenService(Options());
  EXPECT_FALSE(vss->Ingest("", MakeStream(4, 32, 32, 4, 12)).ok());
  EXPECT_FALSE(vss->Ingest("cam", EncodedVideo{}).ok());
  VssOptions bad;
  EXPECT_FALSE(VideoStorageService::Open(bad).ok());  // No store.
  bad.store = store_.get();
  bad.gops_per_segment = 0;
  EXPECT_FALSE(VideoStorageService::Open(bad).ok());
}

}  // namespace
}  // namespace visualroad::storage

namespace visualroad::driver {
namespace {

namespace fs = std::filesystem;

/// Acceptance: a full engine pass through the storage service produces
/// byte-identical results to the in-memory path, for all three engines.
TEST(VssEngineTest, EngineResultsByteIdenticalThroughStorage) {
  sim::CityConfig config;
  config.scale_factor = 1;
  config.width = 96;
  config.height = 54;
  config.duration_seconds = 0.5;
  config.fps = 16;
  config.seed = 99;
  auto dataset = PrepareDataset(config);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  std::string root = (fs::temp_directory_path() / "vr_vss_engines").string();
  storage::StoreOptions store_options;
  store_options.root = root;
  store_options.block_size = 8192;
  store_options.metrics_label = "vss_engines";
  auto store = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(store.ok());
  storage::VssOptions vss_options;
  vss_options.store = &*store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok()) << vss.status().ToString();
  ASSERT_TRUE(IngestDatasetVss(*dataset, **vss).ok());

  queries::QueryInstance q1;
  q1.id = queries::QueryId::kQ1;
  q1.video_index = 0;
  q1.q1_t1 = 0.1;
  q1.q1_t2 = 0.4;
  q1.q1_rect = {8, 8, 72, 40};
  queries::QueryInstance q2a = q1;
  q2a.id = queries::QueryId::kQ2a;

  for (auto make : {systems::MakeBatchEngine, systems::MakePipelineEngine,
                    systems::MakeCascadeEngine}) {
    systems::EngineOptions plain;
    plain.threads = 2;
    video::codec::GopCache plain_cache;
    plain.gop_cache = &plain_cache;
    systems::EngineOptions stored = plain;
    video::codec::GopCache stored_cache;
    stored.gop_cache = &stored_cache;
    stored.vss = vss->get();
    auto engine_plain = make(plain);
    auto engine_stored = make(stored);
    for (const queries::QueryInstance& instance : {q1, q2a}) {
      if (!engine_plain->Supports(instance.id)) continue;
      auto a = engine_plain->Execute(instance, *dataset,
                                     systems::OutputMode::kWrite, "");
      auto b = engine_stored->Execute(instance, *dataset,
                                      systems::OutputMode::kWrite, "");
      ASSERT_TRUE(a.ok()) << engine_plain->name() << ": "
                          << a.status().ToString();
      ASSERT_TRUE(b.ok()) << engine_stored->name() << ": "
                          << b.status().ToString();
      ASSERT_EQ(a->video.FrameCount(), b->video.FrameCount());
      for (int i = 0; i < a->video.FrameCount(); ++i) {
        EXPECT_EQ(a->video.frames[static_cast<size_t>(i)].data,
                  b->video.frames[static_cast<size_t>(i)].data)
            << engine_plain->name() << " frame " << i;
      }
    }
    // The storage-backed engine actually read through the service.
    EXPECT_GT((*vss)->stats().reads + (*vss)->stats().range_reads, 0);
  }
  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace
}  // namespace visualroad::driver
