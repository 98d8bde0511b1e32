#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "common/random.h"
#include "driver/dataset_io.h"
#include "driver/datasets.h"
#include "storage/sharded_store.h"

namespace visualroad::storage {
namespace {

namespace fs = std::filesystem;

class ShardedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs every discovered test in its own process, so counter_
    // restarts at zero in each shard; the pid keeps parallel shards of this
    // binary out of each other's trees.
    root_ = (fs::temp_directory_path() /
             ("vr_store_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++))).string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  StoreOptions Options(int nodes = 4, int replication = 2,
                       int64_t block_size = 256) {
    StoreOptions options;
    options.root = root_;
    options.num_nodes = nodes;
    options.replication = replication;
    options.block_size = block_size;
    return options;
  }

  std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
    Pcg32 rng(seed, 1);
    std::vector<uint8_t> bytes(n);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextBounded(256));
    return bytes;
  }

  std::string root_;
  static int counter_;
};

int ShardedStoreTest::counter_ = 0;

TEST_F(ShardedStoreTest, PutGetRoundTrip) {
  auto store = ShardedStore::Open(Options());
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> payload = RandomBytes(1000, 1);
  ASSERT_TRUE(store->Put("a.vrmp", payload).ok());
  auto loaded = store->Get("a.vrmp");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, payload);
}

TEST_F(ShardedStoreTest, FilesSplitIntoBlocks) {
  auto store = ShardedStore::Open(Options(4, 2, 256));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("big", RandomBytes(1000, 2)).ok());
  auto info = store->Stat("big");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 1000);
  EXPECT_EQ(info->block_count, 4);  // ceil(1000/256).
}

TEST_F(ShardedStoreTest, EmptyFileStoresOneEmptyBlock) {
  auto store = ShardedStore::Open(Options());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("empty", {}).ok());
  auto loaded = store->Get("empty");
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(ShardedStoreTest, GetMissingFileFails) {
  auto store = ShardedStore::Open(Options());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Get("nope").ok());
  EXPECT_FALSE(store->Stat("nope").ok());
}

TEST_F(ShardedStoreTest, OverwriteReplacesContent) {
  auto store = ShardedStore::Open(Options());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("f", RandomBytes(500, 3)).ok());
  std::vector<uint8_t> second = RandomBytes(700, 4);
  ASSERT_TRUE(store->Put("f", second).ok());
  auto loaded = store->Get("f");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, second);
  EXPECT_EQ(store->List().size(), 1u);
}

TEST_F(ShardedStoreTest, DeleteRemovesFileAndBlocks) {
  auto store = ShardedStore::Open(Options());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("f", RandomBytes(600, 5)).ok());
  ASSERT_TRUE(store->Delete("f").ok());
  EXPECT_FALSE(store->Get("f").ok());
  // Every block file should be gone from every datanode.
  size_t remaining = 0;
  for (int n = 0; n < 4; ++n) {
    for (auto& entry : fs::directory_iterator(root_ + "/node" + std::to_string(n))) {
      (void)entry;
      ++remaining;
    }
  }
  EXPECT_EQ(remaining, 0u);
}

TEST_F(ShardedStoreTest, SurvivesSingleNodeFailure) {
  auto store = ShardedStore::Open(Options(4, 2, 128));
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> payload = RandomBytes(1024, 6);
  ASSERT_TRUE(store->Put("resilient", payload).ok());
  // With replication 2, any single node loss must be survivable.
  for (int victim = 0; victim < 4; ++victim) {
    ASSERT_TRUE(store->DisableNode(victim).ok());
    auto loaded = store->Get("resilient");
    ASSERT_TRUE(loaded.ok()) << "node " << victim;
    EXPECT_EQ(*loaded, payload);
    ASSERT_TRUE(store->EnableNode(victim).ok());
  }
}

TEST_F(ShardedStoreTest, DoubleNodeFailureCanLoseData) {
  auto store = ShardedStore::Open(Options(4, 2, 64));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("fragile", RandomBytes(1024, 7)).ok());
  // Disable two nodes: with replication 2 over 4 nodes and many blocks,
  // some block will have both replicas on the disabled pair.
  ASSERT_TRUE(store->DisableNode(0).ok());
  ASSERT_TRUE(store->DisableNode(1).ok());
  auto loaded = store->Get("fragile");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(ShardedStoreTest, ManifestPersistsAcrossReopen) {
  std::vector<uint8_t> payload = RandomBytes(900, 8);
  {
    auto store = ShardedStore::Open(Options());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put("persist", payload).ok());
  }
  auto reopened = ShardedStore::Open(Options());
  ASSERT_TRUE(reopened.ok());
  auto loaded = reopened->Get("persist");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(reopened->List(), std::vector<std::string>{"persist"});
}

TEST_F(ShardedStoreTest, RejectsBadOptions) {
  StoreOptions bad;
  EXPECT_FALSE(ShardedStore::Open(bad).ok());  // Empty root.
  bad.root = root_;
  bad.num_nodes = 0;
  EXPECT_FALSE(ShardedStore::Open(bad).ok());
  bad.num_nodes = 2;
  bad.block_size = 4;
  EXPECT_FALSE(ShardedStore::Open(bad).ok());
}

TEST_F(ShardedStoreTest, PartialReadFetchesOnlyCoveringBlocks) {
  auto store = ShardedStore::Open(Options(4, 2, 256));
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> payload = RandomBytes(1000, 10);
  ASSERT_TRUE(store->Put("f", payload).ok());
  StoreStats before = store->stats();
  auto slice = store->Read("f", 300, 400);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(*slice, std::vector<uint8_t>(payload.begin() + 300,
                                         payload.begin() + 700));
  StoreStats after = store->stats();
  // Bytes [300, 700) live in blocks 1 and 2 of four; the other two blocks
  // are never touched.
  EXPECT_EQ(after.blocks_read - before.blocks_read, 2);
  EXPECT_EQ(after.bytes_read - before.bytes_read, 400);
  EXPECT_EQ(after.partial_reads - before.partial_reads, 1);
}

TEST_F(ShardedStoreTest, PartialReadValidatesBounds) {
  auto store = ShardedStore::Open(Options(4, 2, 256));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("f", RandomBytes(100, 11)).ok());
  EXPECT_FALSE(store->Read("f", -1, 10).ok());
  EXPECT_FALSE(store->Read("f", 0, -1).ok());
  EXPECT_FALSE(store->Read("f", 90, 11).ok());
  EXPECT_FALSE(store->Read("missing", 0, 1).ok());
  auto empty = store->Read("f", 100, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ShardedStoreTest, StreamingWriterRoundTrips) {
  auto store = ShardedStore::Open(Options(4, 2, 256));
  ASSERT_TRUE(store.ok());
  auto writer = store->OpenWriter("streamed");
  ASSERT_TRUE(writer.ok());
  std::vector<uint8_t> expected;
  // Appends straddle block boundaries in both directions (small and large).
  for (size_t chunk : {100u, 1u, 700u, 256u, 3u}) {
    std::vector<uint8_t> bytes = RandomBytes(chunk, 12 + chunk);
    expected.insert(expected.end(), bytes.begin(), bytes.end());
    ASSERT_TRUE(writer->Append(bytes).ok());
  }
  EXPECT_EQ(writer->size(), static_cast<int64_t>(expected.size()));
  // Not visible until Close.
  EXPECT_FALSE(store->Get("streamed").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto loaded = store->Get("streamed");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, expected);
}

TEST_F(ShardedStoreTest, AbandonedWriterLeavesNoTrace) {
  auto store = ShardedStore::Open(Options(4, 2, 128));
  ASSERT_TRUE(store.ok());
  {
    auto writer = store->OpenWriter("ghost");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(RandomBytes(600, 13)).ok());
    // Destroyed without Close: blocks already written must be removed.
  }
  EXPECT_FALSE(store->Get("ghost").ok());
  size_t remaining = 0;
  for (int n = 0; n < 4; ++n) {
    for (auto& entry : fs::directory_iterator(root_ + "/node" + std::to_string(n))) {
      (void)entry;
      ++remaining;
    }
  }
  EXPECT_EQ(remaining, 0u);
}

TEST_F(ShardedStoreTest, AbandonedWriterReconcilesCapacityAccounting) {
  // Regression: blocks removed when a writer was abandoned mid-stream were
  // deleted from disk but never subtracted from the stored-bytes accounting,
  // so the capacity gauge drifted upward forever.
  auto store = ShardedStore::Open(Options(4, 2, 128));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("keep", RandomBytes(200, 20)).ok());
  StoreStats before = store->stats();
  EXPECT_EQ(before.bytes_stored, 400);  // 200 logical x 2 replicas.
  {
    auto writer = store->OpenWriter("ghost");
    ASSERT_TRUE(writer.ok());
    // Three full blocks flush eagerly; a fourth partial block stays pending,
    // so the abandon happens mid-block with real replicas on disk.
    ASSERT_TRUE(writer->Append(RandomBytes(128 * 3 + 50, 21)).ok());
  }
  StoreStats after = store->stats();
  // Every abandoned replica byte is reclaimed; live capacity is unchanged.
  EXPECT_EQ(after.bytes_stored, before.bytes_stored);
  EXPECT_EQ(after.bytes_reclaimed - before.bytes_reclaimed, 128 * 3 * 2);
  // Delete reconciles the same way.
  ASSERT_TRUE(store->Delete("keep").ok());
  EXPECT_EQ(store->stats().bytes_stored, 0);
  EXPECT_EQ(store->stats().bytes_reclaimed, 128 * 3 * 2 + 400);
}

TEST_F(ShardedStoreTest, OverwriteReconcilesCapacityAccounting) {
  auto store = ShardedStore::Open(Options(4, 2, 256));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("f", RandomBytes(500, 22)).ok());
  ASSERT_TRUE(store->Put("f", RandomBytes(300, 23)).ok());
  StoreStats stats = store->stats();
  // Only the live version counts toward capacity; the replaced replicas are
  // fully reclaimed.
  EXPECT_EQ(stats.bytes_stored, 600);
  EXPECT_EQ(stats.bytes_reclaimed, 1000);
  EXPECT_EQ(stats.bytes_written, 1600);  // Monotonic: both versions.
}

TEST_F(ShardedStoreTest, FailDatanodeRecoversWithinRetryDeadline) {
  // A transient flap shorter than the read-retry deadline is invisible to
  // callers: the read fails over, backs off, and succeeds once the node
  // returns — no EnableNode needed.
  StoreOptions options = Options(1, 1, 256);
  auto store = ShardedStore::Open(options);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> payload = RandomBytes(500, 24);
  ASSERT_TRUE(store->Put("f", payload).ok());

  ASSERT_TRUE(store->FailDatanode(0, std::chrono::milliseconds(5)).ok());
  auto loaded = store->Get("f");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, payload);
  StoreStats stats = store->stats();
  EXPECT_GT(stats.read_retries, 0);
  EXPECT_GT(stats.replica_failovers, 0);
}

TEST_F(ShardedStoreTest, FailDatanodeLongerThanDeadlineFailsThenRecovers) {
  auto store = ShardedStore::Open(Options(1, 1, 256));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("f", RandomBytes(300, 25)).ok());

  // A flap far beyond the retry deadline surfaces as data loss...
  ASSERT_TRUE(store->FailDatanode(0, std::chrono::seconds(30)).ok());
  auto loaded = store->Get("f");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  // ...and EnableNode clears the flap early.
  ASSERT_TRUE(store->EnableNode(0).ok());
  EXPECT_TRUE(store->Get("f").ok());
}

TEST_F(ShardedStoreTest, FailDatanodeValidatesArguments) {
  auto store = ShardedStore::Open(Options(2, 1, 256));
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->FailDatanode(-1, std::chrono::milliseconds(5)).ok());
  EXPECT_FALSE(store->FailDatanode(2, std::chrono::milliseconds(5)).ok());
  EXPECT_FALSE(store->FailDatanode(0, std::chrono::milliseconds(0)).ok());
}

TEST_F(ShardedStoreTest, FlappedWritesPlaceOnHealthyNodes) {
  // Writes issued during a flap avoid the down node entirely, and reads of
  // those blocks never need it afterwards.
  auto store = ShardedStore::Open(Options(4, 2, 128));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->FailDatanode(0, std::chrono::seconds(30)).ok());
  std::vector<uint8_t> payload = RandomBytes(1024, 26);
  ASSERT_TRUE(store->Put("f", payload).ok());
  // Still down: the read must not touch node 0 at all.
  auto loaded = store->Get("f");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(store->stats().replica_failovers, 0);
}

TEST_F(ShardedStoreTest, InjectedWriteFailuresReplaceReplicas) {
  auto profile = fault::ProfileByName("none");
  ASSERT_TRUE(profile.ok());
  profile->prob(fault::Site::kStoreWriteFail) = 0.4;
  fault::FaultInjector injector(*profile, 13);
  StoreOptions options = Options(4, 2, 128);
  options.faults = &injector;
  auto store = ShardedStore::Open(options);
  ASSERT_TRUE(store.ok());

  int succeeded = 0;
  for (int i = 0; i < 8; ++i) {
    std::vector<uint8_t> payload = RandomBytes(600, 30 + static_cast<uint64_t>(i));
    std::string name = "f";
    name += std::to_string(i);
    if (!store->Put(name, payload).ok()) continue;
    ++succeeded;
    auto loaded = store->Get(name);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, payload);
  }
  // The deterministic schedule at this seed completes writes by re-placing
  // failed replicas; every installed file reads back intact.
  EXPECT_GT(succeeded, 0);
  EXPECT_GT(store->stats().write_replacements, 0);
}

TEST_F(ShardedStoreTest, ScanStreamsBlockByBlock) {
  auto store = ShardedStore::Open(Options(4, 2, 256));
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> payload = RandomBytes(1000, 14);
  ASSERT_TRUE(store->Put("f", payload).ok());
  std::vector<uint8_t> assembled;
  size_t calls = 0;
  size_t largest = 0;
  ASSERT_TRUE(store
                  ->Scan("f",
                         [&](const uint8_t* data, size_t size) {
                           assembled.insert(assembled.end(), data, data + size);
                           largest = std::max(largest, size);
                           ++calls;
                           return Status::Ok();
                         })
                  .ok());
  EXPECT_EQ(assembled, payload);
  EXPECT_EQ(calls, 4u);       // One sink call per block.
  EXPECT_LE(largest, 256u);   // Never more than one block buffered.
}

TEST_F(ShardedStoreTest, CountersTrackWritesReadsAndFailovers) {
  auto store = ShardedStore::Open(Options(4, 2, 256));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put("f", RandomBytes(1000, 15)).ok());
  StoreStats stats = store->stats();
  EXPECT_EQ(stats.blocks_written, 4);
  EXPECT_EQ(stats.bytes_written, 2000);  // Physical: replication x logical.
  EXPECT_EQ(stats.blocks_read, 0);
  ASSERT_TRUE(store->Get("f").ok());
  stats = store->stats();
  EXPECT_EQ(stats.blocks_read, 4);
  EXPECT_EQ(stats.bytes_read, 1000);
  EXPECT_EQ(stats.replica_failovers, 0);
  // A dark datanode forces at least one fail-over to a replica.
  ASSERT_TRUE(store->DisableNode(0).ok());
  ASSERT_TRUE(store->Get("f").ok());
  EXPECT_GT(store->stats().replica_failovers, 0);
}

TEST_F(ShardedStoreTest, ReplicationClampedToNodeCount) {
  auto store = ShardedStore::Open(Options(2, 5, 256));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->options().replication, 2);
  ASSERT_TRUE(store->Put("f", RandomBytes(100, 9)).ok());
  auto loaded = store->Get("f");
  EXPECT_TRUE(loaded.ok());
}

}  // namespace
}  // namespace visualroad::storage

namespace visualroad::driver {
namespace {

namespace fs = std::filesystem;

class DatasetIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CityConfig config;
    config.scale_factor = 1;
    config.width = 96;
    config.height = 54;
    config.duration_seconds = 0.5;
    config.fps = 16;
    config.seed = 77;
    auto dataset = PrepareDataset(config);
    ASSERT_TRUE(dataset.ok());
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static sim::Dataset* dataset_;
};

sim::Dataset* DatasetIoTest::dataset_ = nullptr;

TEST_F(DatasetIoTest, ManifestRoundTrips) {
  auto parsed = ParseDatasetManifest(SerializeDatasetManifest(*dataset_));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->config.scale_factor, dataset_->config.scale_factor);
  EXPECT_EQ(parsed->config.seed, dataset_->config.seed);
  ASSERT_EQ(parsed->assets.size(), dataset_->assets.size());
  for (size_t i = 0; i < parsed->assets.size(); ++i) {
    EXPECT_EQ(parsed->assets[i].camera.camera_id,
              dataset_->assets[i].camera.camera_id);
    EXPECT_DOUBLE_EQ(parsed->assets[i].camera.pose.yaw,
                     dataset_->assets[i].camera.pose.yaw);
  }
}

TEST_F(DatasetIoTest, SaveLoadDirectoryRoundTrips) {
  std::string dir = (fs::temp_directory_path() / "vr_dataset_io").string();
  ASSERT_TRUE(SaveDataset(*dataset_, dir).ok());
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->assets.size(), dataset_->assets.size());
  for (size_t i = 0; i < loaded->assets.size(); ++i) {
    EXPECT_EQ(loaded->assets[i].container.video.TotalBytes(),
              dataset_->assets[i].container.video.TotalBytes());
    EXPECT_EQ(loaded->assets[i].ground_truth.size(),
              dataset_->assets[i].ground_truth.size());
    EXPECT_EQ(loaded->assets[i].camera.kind, dataset_->assets[i].camera.kind);
  }
  // A loaded dataset still answers structural queries.
  EXPECT_EQ(loaded->TrafficAssets().size(), dataset_->TrafficAssets().size());
  EXPECT_EQ(loaded->PanoramicGroupCount(), dataset_->PanoramicGroupCount());
  fs::remove_all(dir);
}

TEST_F(DatasetIoTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(LoadDataset("/nonexistent/vr_dataset").ok());
}

TEST_F(DatasetIoTest, ShardedStoreRoundTrips) {
  std::string root = (fs::temp_directory_path() / "vr_dataset_sharded").string();
  storage::StoreOptions options;
  options.root = root;
  options.num_nodes = 3;
  options.replication = 2;
  options.block_size = 4096;
  auto store = storage::ShardedStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(SaveDatasetSharded(*dataset_, *store).ok());
  auto loaded = LoadDatasetSharded(*store);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->assets.size(), dataset_->assets.size());
  EXPECT_EQ(loaded->assets[0].container.video.TotalBytes(),
            dataset_->assets[0].container.video.TotalBytes());

  // Resilience: the dataset survives one datanode going dark.
  ASSERT_TRUE(store->DisableNode(0).ok());
  auto degraded = LoadDatasetSharded(*store);
  EXPECT_TRUE(degraded.ok());
  fs::remove_all(root);
}

}  // namespace
}  // namespace visualroad::driver
