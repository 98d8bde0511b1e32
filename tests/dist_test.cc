#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/rpc.h"
#include "dist/worker.h"
#include "driver/dataset_io.h"
#include "driver/datasets.h"
#include "driver/vcd.h"
#include "queries/semantic_cache.h"
#include "storage/sharded_store.h"
#include "storage/vss.h"
#include "video/codec/gop_cache.h"
#include "video/container/vrmp.h"

namespace visualroad::dist {
namespace {

using std::chrono::milliseconds;

// --- RPC framing ---

TEST(RpcFramingTest, Crc32KnownVector) {
  // The standard IEEE 802.3 check value for "123456789".
  const char* data = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(data), 9), 0xCBF43926u);
}

/// A connected socketpair wrapped as two RpcConnections.
struct Pipe {
  RpcConnection a;
  RpcConnection b;
  static Pipe Make() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return Pipe{RpcConnection(fds[0]), RpcConnection(fds[1])};
  }
};

TEST(RpcFramingTest, FrameRoundTrip) {
  Pipe pipe = Pipe::Make();
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.method = MethodId::kExecuteRange;
  frame.correlation_id = 0xDEADBEEFCAFEull;
  frame.deadline_micros = 1234567;
  frame.payload = {1, 2, 3, 250, 251, 252};
  ASSERT_TRUE(pipe.a.SendFrame(frame).ok());
  auto received = pipe.b.RecvFrame(milliseconds(1000));
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->type, frame.type);
  EXPECT_EQ(received->method, frame.method);
  EXPECT_EQ(received->correlation_id, frame.correlation_id);
  EXPECT_EQ(received->deadline_micros, frame.deadline_micros);
  EXPECT_EQ(received->payload, frame.payload);
}

TEST(RpcFramingTest, TruncatedFrameIsDataLoss) {
  Frame frame;
  frame.payload = std::vector<uint8_t>(64, 7);
  std::vector<uint8_t> wire = EncodeFrame(frame);
  ASSERT_GT(wire.size(), 10u);
  // Half a frame, then EOF: SendFrame always writes whole frames, so push
  // the truncated wire image through a raw socketpair fd instead.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size() / 2, 0),
            static_cast<ssize_t>(wire.size() / 2));
  ::close(fds[0]);
  auto received = reader.RecvFrame(milliseconds(1000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
}

TEST(RpcFramingTest, CorruptChecksumIsDataLoss) {
  Frame frame;
  frame.payload = {10, 20, 30, 40};
  std::vector<uint8_t> wire = EncodeFrame(frame);
  wire[wire.size() - 5] ^= 0x40;  // Flip a payload bit; CRC no longer matches.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ::close(fds[0]);
  auto received = reader.RecvFrame(milliseconds(1000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(received.status().message().find("checksum"), std::string::npos);
}

TEST(RpcFramingTest, OversizedFrameRejectedBeforeAllocation) {
  Frame frame;
  frame.payload = {1};
  std::vector<uint8_t> wire = EncodeFrame(frame);
  // Announce a length beyond the payload ceiling in the length field
  // (bytes 4..7, little-endian).
  uint32_t huge = kMaxFramePayload + 1024;
  wire[4] = static_cast<uint8_t>(huge);
  wire[5] = static_cast<uint8_t>(huge >> 8);
  wire[6] = static_cast<uint8_t>(huge >> 16);
  wire[7] = static_cast<uint8_t>(huge >> 24);
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto received = reader.RecvFrame(milliseconds(1000));
  ::close(fds[0]);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kInvalidArgument);
}

TEST(RpcFramingTest, BadMagicIsDataLoss) {
  Frame frame;
  std::vector<uint8_t> wire = EncodeFrame(frame);
  wire[0] ^= 0xFF;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  auto received = reader.RecvFrame(milliseconds(1000));
  ::close(fds[0]);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
}

TEST(RpcFramingTest, PollBudgetNeverBusyLoopsBeforeDeadline) {
  // Past deadline: no budget, the caller's timeout check fires.
  EXPECT_EQ(internal::PollBudgetMs(std::chrono::steady_clock::now() -
                                   milliseconds(5)),
            0);
  // A sub-millisecond remainder must still hand poll() a >= 1ms budget;
  // rounding it down to 0 turns the tail of every wait into a busy loop.
  EXPECT_GE(internal::PollBudgetMs(std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(500)),
            1);
  int far = internal::PollBudgetMs(std::chrono::steady_clock::now() +
                                   milliseconds(50));
  EXPECT_GE(far, 1);
  EXPECT_LE(far, 51);
}

TEST(RpcFramingTest, TimeoutMidFrameIsResumableNotDesync) {
  // A frame delivered in two halves across a receive timeout: the first
  // RecvFrame times out mid-frame, but the stream must stay synchronised so
  // the retry returns the complete frame. The straggler path depends on
  // this — a late oversize response is skipped whole, never torn.
  Frame frame;
  frame.type = FrameType::kResponseOk;
  frame.correlation_id = 77;
  frame.payload = std::vector<uint8_t>(4096, 0x5A);
  std::vector<uint8_t> wire = EncodeFrame(frame);
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  RpcConnection reader(fds[1]);
  size_t half = wire.size() / 2;
  ASSERT_EQ(::send(fds[0], wire.data(), half, 0), static_cast<ssize_t>(half));

  auto timed_out = reader.RecvFrame(milliseconds(50));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kIoError);
  EXPECT_NE(timed_out.status().message().find("timeout"), std::string::npos);

  ASSERT_EQ(::send(fds[0], wire.data() + half, wire.size() - half, 0),
            static_cast<ssize_t>(wire.size() - half));
  ::close(fds[0]);
  auto resumed = reader.RecvFrame(milliseconds(1000));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->correlation_id, frame.correlation_id);
  EXPECT_EQ(resumed->payload, frame.payload);
}

// --- Cache shipping payload ---

TEST(CacheShippingTest, CacheEntriesRoundTrip) {
  queries::SemanticEntry entry;
  entry.key.stream = 0xABCDEF0123ull;
  entry.key.model = "miniyolo/test/v1";
  entry.key.threshold = 0.25;
  entry.range.first = 3;
  entry.range.count = 2;
  entry.width = 96;
  entry.height = 54;
  entry.fps = 15.0;
  entry.detections.resize(2);
  vision::Detection det;
  det.object_class = sim::ObjectClass::kVehicle;
  det.box.x0 = 1;
  det.box.y0 = 2;
  det.box.x1 = 33;
  det.box.y1 = 44;
  det.score = 0.875;
  det.entity_id = 42;
  entry.detections[1].push_back(det);
  entry.RecomputeBytes();

  std::vector<uint8_t> wire =
      EncodeCacheEntries({std::make_shared<const queries::SemanticEntry>(entry)});
  auto decoded = DecodeCacheEntries(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  const queries::SemanticEntry& got = (*decoded)[0];
  EXPECT_EQ(got.key.stream, entry.key.stream);
  EXPECT_EQ(got.key.model, entry.key.model);
  EXPECT_EQ(got.key.threshold, entry.key.threshold);
  EXPECT_EQ(got.range.first, 3);
  EXPECT_EQ(got.range.count, 2);
  EXPECT_EQ(got.width, 96);
  EXPECT_EQ(got.height, 54);
  EXPECT_EQ(got.fps, 15.0);
  ASSERT_EQ(got.detections.size(), 2u);
  EXPECT_TRUE(got.detections[0].empty());
  ASSERT_EQ(got.detections[1].size(), 1u);
  const vision::Detection& d = got.detections[1][0];
  EXPECT_EQ(d.object_class, det.object_class);
  EXPECT_EQ(d.box.x0, det.box.x0);
  EXPECT_EQ(d.box.y0, det.box.y0);
  EXPECT_EQ(d.box.x1, det.box.x1);
  EXPECT_EQ(d.box.y1, det.box.y1);
  EXPECT_EQ(d.score, det.score);
  EXPECT_EQ(d.entity_id, det.entity_id);
  EXPECT_GT(got.bytes, 0);

  // A truncated payload is rejected, not misparsed.
  std::vector<uint8_t> truncated(wire.begin(), wire.end() - 3);
  auto rejected = DecodeCacheEntries(truncated);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);

  // The empty snapshot (a cold donor) round-trips too.
  auto empty = DecodeCacheEntries(EncodeCacheEntries({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// --- ExecuteRange response payload ---

systems::InstanceOutcome MakeOutcome(Status status, uint64_t seed) {
  systems::InstanceOutcome outcome;
  outcome.status = std::move(status);
  outcome.engine_stats.frames_decoded = static_cast<int64_t>(seed) + 1;
  outcome.engine_stats.frames_encoded = static_cast<int64_t>(seed) + 2;
  outcome.engine_stats.cache_hits = static_cast<int64_t>(seed) + 3;
  outcome.engine_stats.cache_misses = static_cast<int64_t>(seed) + 4;
  outcome.engine_stats.chunked_redecodes = static_cast<int64_t>(seed) + 5;
  outcome.engine_stats.cnn_frames_full = static_cast<int64_t>(seed) + 6;
  outcome.engine_stats.cnn_frames_cheap = static_cast<int64_t>(seed) + 7;
  outcome.engine_stats.cnn_frames_skipped = static_cast<int64_t>(seed) + 8;
  outcome.retries = static_cast<int64_t>(seed) + 9;
  outcome.frames_degraded = static_cast<int64_t>(seed) + 10;
  outcome.exec_seconds = 0.125 * static_cast<double>(seed + 1);
  return outcome;
}

void ExpectSameStats(const systems::EngineStats& a, const systems::EngineStats& b) {
  EXPECT_EQ(a.frames_decoded, b.frames_decoded);
  EXPECT_EQ(a.frames_encoded, b.frames_encoded);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.chunked_redecodes, b.chunked_redecodes);
  EXPECT_EQ(a.cnn_frames_full, b.cnn_frames_full);
  EXPECT_EQ(a.cnn_frames_cheap, b.cnn_frames_cheap);
  EXPECT_EQ(a.cnn_frames_skipped, b.cnn_frames_skipped);
}

void ExpectSameDetections(const std::vector<std::vector<vision::Detection>>& a,
                          const std::vector<std::vector<vision::Detection>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t f = 0; f < a.size(); ++f) {
    ASSERT_EQ(a[f].size(), b[f].size()) << "frame " << f;
    for (size_t d = 0; d < a[f].size(); ++d) {
      EXPECT_EQ(a[f][d].object_class, b[f][d].object_class);
      EXPECT_EQ(a[f][d].box.x0, b[f][d].box.x0);
      EXPECT_EQ(a[f][d].box.y0, b[f][d].box.y0);
      EXPECT_EQ(a[f][d].box.x1, b[f][d].box.x1);
      EXPECT_EQ(a[f][d].box.y1, b[f][d].box.y1);
      EXPECT_EQ(a[f][d].score, b[f][d].score);
      EXPECT_EQ(a[f][d].entity_id, b[f][d].entity_id);
    }
  }
}

std::vector<uint8_t> MuxVideo(const video::codec::EncodedVideo& video) {
  video::container::Container container;
  container.video = video;
  return video::container::Mux(container);
}

TEST(ExecuteResponseTest, EveryOutcomeKindRoundTrips) {
  std::vector<RangeOutcome> sent;
  // Ok, with a result video, detections and a written path.
  RangeOutcome ok{7, MakeOutcome(Status::Ok(), 0)};
  ok.outcome.output.produced = true;
  ok.outcome.output.video.width = 96;
  ok.outcome.output.video.height = 54;
  ok.outcome.output.video.fps = 15.0;
  for (int f = 0; f < 3; ++f) {
    video::codec::EncodedFrame frame;
    frame.keyframe = f == 0;
    frame.qp = static_cast<uint8_t>(12 + f);
    frame.data.assign(static_cast<size_t>(20 + f), static_cast<uint8_t>(0xA0 + f));
    ok.outcome.output.video.frames.push_back(std::move(frame));
  }
  vision::Detection det;
  det.object_class = sim::ObjectClass::kPedestrian;
  det.box.x0 = -3;
  det.box.y0 = 4;
  det.box.x1 = 50;
  det.box.y1 = 60;
  det.score = 0.625;
  det.entity_id = 17;
  ok.outcome.output.detections = {{}, {det, det}};
  ok.outcome.output.written_path = "/results/PipelineEngine_Q1_0.vrmp";
  sent.push_back(ok);
  sent.push_back({0, MakeOutcome(Status::Unimplemented(
                                     "CascadeEngine does not support Q3"), 1)});
  sent.push_back({3, MakeOutcome(Status::ResourceExhausted("output over budget"), 2)});
  sent.push_back({12, MakeOutcome(Status::Internal("synthetic failure"), 3)});

  auto decoded = DecodeExecuteResponse(EncodeExecuteResponse(sent));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const RangeOutcome& want = sent[i];
    const RangeOutcome& got = (*decoded)[i];
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.outcome.status.code(), want.outcome.status.code());
    EXPECT_EQ(got.outcome.status.message(), want.outcome.status.message());
    ExpectSameStats(got.outcome.engine_stats, want.outcome.engine_stats);
    EXPECT_EQ(got.outcome.retries, want.outcome.retries);
    EXPECT_EQ(got.outcome.frames_degraded, want.outcome.frames_degraded);
    EXPECT_EQ(got.outcome.exec_seconds, want.outcome.exec_seconds);
    EXPECT_EQ(got.outcome.output.produced, want.outcome.output.produced);
    EXPECT_EQ(MuxVideo(got.outcome.output.video), MuxVideo(want.outcome.output.video));
    ExpectSameDetections(got.outcome.output.detections, want.outcome.output.detections);
    EXPECT_EQ(got.outcome.output.written_path, want.outcome.output.written_path);
  }
  EXPECT_TRUE((*decoded)[0].outcome.succeeded());
  EXPECT_TRUE((*decoded)[1].outcome.unsupported());
  EXPECT_TRUE((*decoded)[2].outcome.failed());
  EXPECT_TRUE((*decoded)[2].outcome.resource_exhausted());
  EXPECT_TRUE((*decoded)[3].outcome.failed());
  EXPECT_FALSE((*decoded)[3].outcome.resource_exhausted());
}

TEST(ExecuteResponseTest, HugeResultCountIsDataLossNotAllocation) {
  // Four bytes claiming 0xFFFFFFFF results and carrying none of them.
  auto decoded = DecodeExecuteResponse({0xFF, 0xFF, 0xFF, 0xFF});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ExecuteResponseTest, HugeDetectionFrameCountIsDataLossNotAllocation) {
  std::vector<uint8_t> wire =
      EncodeExecuteResponse({{0, MakeOutcome(Status::Ok(), 0)}});
  // The entry ends with the detections' frame count (0) and the empty
  // written path's length (0); claim 0xFFFFFFFF frames instead.
  ASSERT_GE(wire.size(), 8u);
  for (size_t i = wire.size() - 8; i < wire.size() - 4; ++i) {
    ASSERT_EQ(wire[i], 0);
    wire[i] = 0xFF;
  }
  auto decoded = DecodeExecuteResponse(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(ExecuteResponseTest, UnknownStatusCodeIsDataLoss) {
  std::vector<uint8_t> wire =
      EncodeExecuteResponse({{0, MakeOutcome(Status::Internal("x"), 0)}});
  // Layout: u32 count, i32 index, then the status code byte.
  wire[8] = 0xEE;
  auto decoded = DecodeExecuteResponse(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// --- Worker server (in-process) ---

/// Knobs for the in-process worker harness beyond the spawn default.
struct InProcessWorkerConfig {
  bool exit_on_disconnect = false;
  /// When set, the harness's dataset factory counts its invocations here —
  /// how the staging tests prove a staged setup never regenerated pixels.
  std::atomic<int>* factory_calls = nullptr;
  /// Wire the sharded-store dataset loader (what worker_main.cc installs),
  /// enabling staged Setup.
  bool staged_loader = false;
};

/// Runs RunWorkerServer on a background thread against a throwaway socket;
/// stops it via a Shutdown RPC on destruction.
class InProcessWorker {
 public:
  explicit InProcessWorker(bool exit_on_disconnect = false)
      : InProcessWorker(InProcessWorkerConfig{exit_on_disconnect}) {}

  explicit InProcessWorker(const InProcessWorkerConfig& harness) {
    static int seq = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("vr-dist-test-" + std::to_string(::getpid()) + "-" +
              std::to_string(seq++) + ".sock"))
                .string();
    WorkerServerOptions options;
    options.socket_path = path_;
    options.exit_on_disconnect = harness.exit_on_disconnect;
    std::atomic<int>* factory_calls = harness.factory_calls;
    options.dataset_factory = [factory_calls](
                                  const sim::CityConfig& config,
                                  const sim::GeneratorOptions& generator) {
      if (factory_calls != nullptr) ++*factory_calls;
      return driver::PrepareDataset(config, generator);
    };
    if (harness.staged_loader) {
      options.dataset_loader = [](const storage::ShardedStore& store) {
        return driver::LoadDatasetSharded(store);
      };
    }
    thread_ = std::thread([options] {
      Status status = RunWorkerServer(options);
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }

  ~InProcessWorker() {
    auto connected = RpcConnection::ConnectUnix(path_, milliseconds(2000));
    if (connected.ok()) {
      RpcClient client(std::move(connected).value());
      (void)client.Call(MethodId::kShutdown, {}, milliseconds(2000));
    }
    if (thread_.joinable()) thread_.join();
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::thread thread_;
};

TEST(WorkerServerTest, HandshakeAndHealth) {
  InProcessWorker worker;
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  EXPECT_EQ(client.worker_pid(), ::getpid());  // In-process server.
  auto health = client.Call(MethodId::kHealth, {}, milliseconds(2000));
  EXPECT_TRUE(health.ok());
}

TEST(WorkerServerTest, ExpiredDeadlineRefusedWithoutExecuting) {
  InProcessWorker worker;
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcConnection connection = std::move(connected).value();
  Frame request;
  request.type = FrameType::kRequest;
  request.method = MethodId::kHealth;
  request.correlation_id = 99;
  request.deadline_micros = NowMicros() - 1000000;  // One second in the past.
  ASSERT_TRUE(connection.SendFrame(request).ok());
  auto response = connection.RecvFrame(milliseconds(2000));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->type, FrameType::kResponseError);
  Status refused = DecodeStatusPayload(response->payload);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("deadline"), std::string::npos);
}

TEST(WorkerServerTest, ExecuteRangeBeforeSetupIsFailedPrecondition) {
  InProcessWorker worker;
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  ExecuteRangeRequest request;
  auto response = client.Call(MethodId::kExecuteRange,
                              EncodeExecuteRequest(request), milliseconds(2000));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WorkerServerTest, SurvivesReconnect) {
  InProcessWorker worker(/*exit_on_disconnect=*/false);
  {
    auto first = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
    ASSERT_TRUE(first.ok());
    RpcClient client(std::move(first).value());
    ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  }  // Connection dropped without Shutdown.
  auto second = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  RpcClient client(std::move(second).value());
  EXPECT_TRUE(client.Handshake(milliseconds(2000)).ok());
}

// --- Worker process lifecycle ---

std::string TestSocketPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("vr-dist-proc-" + std::to_string(::getpid()) + "-" + tag + ".sock"))
      .string();
}

TEST(WorkerProcessTest, SpawnHandshakeKillReapsChild) {
  std::string binary = DefaultWorkerBinary();
  ASSERT_FALSE(binary.empty());
  ASSERT_TRUE(std::filesystem::exists(binary)) << binary;
  // The socket path carries this (supervisor) process's pid, so concurrent
  // test runs cannot collide.
  std::string path = TestSocketPath("reap");
  EXPECT_NE(path.find(std::to_string(::getpid())), std::string::npos);

  auto spawned = WorkerProcess::Spawn(binary, path);
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  WorkerProcess process = std::move(spawned).value();
  int pid = process.pid();
  ASSERT_GT(pid, 0);
  EXPECT_NE(pid, ::getpid());

  auto connected = RpcConnection::ConnectUnix(path, milliseconds(10000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(5000)).ok());
  EXPECT_EQ(client.worker_pid(), pid);

  process.Kill();
  // Reaped: the pid no longer names a process (or at least not our zombie).
  EXPECT_FALSE(process.Alive());
  errno = 0;
  int probe = ::kill(pid, 0);
  EXPECT_TRUE(probe == -1 && errno == ESRCH) << "worker not reaped";
}

TEST(WorkerProcessTest, ReconnectAfterWorkerRestart) {
  std::string binary = DefaultWorkerBinary();
  ASSERT_FALSE(binary.empty());
  std::string path = TestSocketPath("restart");

  auto first = WorkerProcess::Spawn(binary, path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  {
    auto connected = RpcConnection::ConnectUnix(path, milliseconds(10000));
    ASSERT_TRUE(connected.ok());
    RpcClient client(std::move(connected).value());
    ASSERT_TRUE(client.Handshake(milliseconds(5000)).ok());
  }
  first->Kill();

  // A replacement worker re-binds the same path (stale socket unlinked on
  // bind) and a fresh connection handshakes cleanly.
  auto second = WorkerProcess::Spawn(binary, path);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto connected = RpcConnection::ConnectUnix(path, milliseconds(10000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(5000)).ok());
  EXPECT_EQ(client.worker_pid(), second->pid());
}

// --- Locality ---

TEST(ShardedStoreTest, NodeBytesForPrefix) {
  storage::StoreOptions options;
  options.root = (std::filesystem::temp_directory_path() /
                  ("vr-dist-store-" + std::to_string(::getpid())))
                     .string();
  std::filesystem::remove_all(options.root);
  options.num_nodes = 3;
  options.replication = 2;
  options.block_size = 64;
  auto opened = storage::ShardedStore::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  ASSERT_TRUE(store.Put("vss/camera_0/base.var",
                        std::vector<uint8_t>(200, 1)).ok());
  ASSERT_TRUE(store.Put("vss/camera_1/base.var",
                        std::vector<uint8_t>(100, 2)).ok());

  std::vector<int64_t> camera0 = store.NodeBytesForPrefix("vss/camera_0/");
  ASSERT_EQ(camera0.size(), 3u);
  int64_t total0 = camera0[0] + camera0[1] + camera0[2];
  EXPECT_EQ(total0, 200 * 2);  // Replication counted.

  // The prefix filter excludes the other stream.
  std::vector<int64_t> all = store.NodeBytesForPrefix("vss/");
  int64_t total_all = all[0] + all[1] + all[2];
  EXPECT_EQ(total_all, 200 * 2 + 100 * 2);

  EXPECT_EQ(store.NodeBytesForPrefix("vss/camera_9/"),
            std::vector<int64_t>(3, 0));
  std::filesystem::remove_all(options.root);
}

// --- Coordinator ---

class CoordinatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_.scale_factor = 1;
    config_.width = 96;
    config_.height = 54;
    config_.duration_seconds = 0.5;
    config_.fps = 15;
    config_.seed = 41;
    auto dataset = driver::PrepareDataset(config_);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = new sim::Dataset(std::move(dataset).value());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::vector<queries::QueryInstance> SampleBatch(queries::QueryId id,
                                                         int count,
                                                         uint64_t seed = 7) {
    Pcg32 rng(seed, 11);
    queries::SamplerOptions sampler;
    std::vector<queries::QueryInstance> batch;
    for (int i = 0; i < count; ++i) {
      auto instance = queries::SampleQueryInstance(id, *dataset_, rng, sampler);
      EXPECT_TRUE(instance.ok()) << instance.status().ToString();
      batch.push_back(std::move(instance).value());
    }
    return batch;
  }

  // Driver options for comparing engine counters across runs: three
  // instances a batch, and GOP caches too small to keep a decoded GOP.
  static driver::VcdOptions RepeatFreeOptions() {
    driver::VcdOptions options;
    options.batch_size_override = 3;
    options.worker_engine_options.gop_cache_bytes = 1;
    return options;
  }

  // Sets `options.seed` to the first seed whose Q2(c) batch addresses
  // distinct streams (`distinct`) or repeats one (`!distinct`).
  static bool SeedQ2cStreams(driver::VcdOptions& options, bool distinct) {
    for (options.seed = 1; options.seed < 64; ++options.seed) {
      auto sampled = driver::VisualCityDriver(*dataset_, options)
                         .SampleBatch(queries::QueryId::kQ2c);
      if (!sampled.ok()) return false;
      std::set<int> streams;
      for (const queries::QueryInstance& instance : *sampled) {
        streams.insert(instance.video_index);
      }
      if ((streams.size() == sampled->size()) == distinct) return true;
    }
    return false;
  }

  static CoordinatorOptions BaseOptions(int workers) {
    CoordinatorOptions options;
    options.workers = workers;
    options.setup.config = config_;
    options.setup.engine = "PipelineEngine";
    options.dataset = dataset_;
    return options;
  }

  static sim::CityConfig config_;
  static sim::Dataset* dataset_;
};

sim::CityConfig CoordinatorTest::config_;
sim::Dataset* CoordinatorTest::dataset_ = nullptr;

TEST_F(CoordinatorTest, ByteIdenticalToSingleProcess) {
  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 4);
  std::vector<queries::QueryInstance> boxes =
      SampleBatch(queries::QueryId::kQ2c, 2, /*seed=*/9);
  batch.insert(batch.end(), boxes.begin(), boxes.end());

  // Single-process reference: the same engine architecture, run directly.
  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  std::vector<systems::QueryOutput> direct;
  for (const queries::QueryInstance& instance : batch) {
    auto output = engine->Execute(instance, *dataset_,
                                  systems::OutputMode::kWrite, "");
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    direct.push_back(std::move(output).value());
  }

  // Four workers, the acceptance configuration: N workers vs direct Execute.
  Coordinator coordinator(BaseOptions(4));
  ASSERT_TRUE(coordinator.Start().ok());
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());
  EXPECT_GT(stats.chunks_dispatched, 0);
  EXPECT_GT(stats.worker_busy_seconds, 0.0);

  for (size_t i = 0; i < batch.size(); ++i) {
    const systems::InstanceOutcome& outcome = (*outcomes)[i];
    ASSERT_TRUE(outcome.succeeded()) << outcome.status.ToString();
    // Byte identity: the encoded result container must match the
    // single-process run exactly.
    EXPECT_EQ(MuxVideo(outcome.output.video), MuxVideo(direct[i].video))
        << "instance " << i;
    // Semantic identity for the detection query.
    ExpectSameDetections(outcome.output.detections, direct[i].detections);
  }
}

TEST_F(CoordinatorTest, DeadWorkerWorkIsRedispatched) {
  fault::FaultProfile profile;
  profile.name = "crash-test";
  profile.prob(fault::Site::kWorkerCrash) = 1.0;
  fault::FaultInjector faults(profile, 17);

  CoordinatorOptions options = BaseOptions(3);
  options.faults = &faults;
  options.chunk_size = 1;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 6);
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (const systems::InstanceOutcome& outcome : *outcomes) {
    EXPECT_TRUE(outcome.succeeded()) << outcome.status.ToString();
  }
  // With p=1.0 every worker but the guarded survivor dies.
  EXPECT_GE(stats.workers_lost, 1);
  EXPECT_GE(stats.chunks_redispatched, 1);
  EXPECT_EQ(coordinator.live_workers(), 1);
}

TEST_F(CoordinatorTest, RpcSendFaultsAreRetried) {
  fault::FaultProfile profile;
  profile.name = "sendfault-test";
  profile.prob(fault::Site::kRpcSend) = 0.5;
  fault::FaultInjector faults(profile, 23);

  CoordinatorOptions options = BaseOptions(2);
  options.faults = &faults;
  options.chunk_size = 1;
  options.rpc_retry.max_attempts = 12;
  options.rpc_retry.deadline = std::chrono::microseconds(0);  // Attempts-only.
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 8);
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (const systems::InstanceOutcome& outcome : *outcomes) {
    EXPECT_TRUE(outcome.succeeded()) << outcome.status.ToString();
  }
  EXPECT_GT(stats.rpc_retries, 0);
  EXPECT_GT(faults.injected(fault::Site::kRpcSend), 0);
}

TEST_F(CoordinatorTest, StressManySmallChunks) {
  // TSan target: three dispatch threads, per-instance chunks, shared queue
  // and merge path under contention.
  CoordinatorOptions options = BaseOptions(3);
  options.chunk_size = 1;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 12);
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (const systems::InstanceOutcome& outcome : *outcomes) {
    EXPECT_TRUE(outcome.succeeded()) << outcome.status.ToString();
  }
  EXPECT_GE(stats.chunks_dispatched, 12);
}

// --- Dispatch arithmetic ---

TEST(CoordinatorInternalTest, NonNegativeModFoldsNegativeIndices) {
  // C++ % keeps the dividend's sign: -1 % 3 == -1, which previously walked
  // off the front of the per-worker share vector.
  EXPECT_EQ(internal::NonNegativeMod(-1, 3), 2);
  EXPECT_EQ(internal::NonNegativeMod(-3, 3), 0);
  EXPECT_EQ(internal::NonNegativeMod(-4, 3), 2);
  EXPECT_EQ(internal::NonNegativeMod(0, 3), 0);
  EXPECT_EQ(internal::NonNegativeMod(7, 3), 1);
  EXPECT_EQ(internal::NonNegativeMod(5, 0), 0);  // Degenerate fleet.
}

TEST(CoordinatorInternalTest, StragglerChunkAvoidsTheWorkerItFled) {
  // A re-dispatched straggler chunk must not be taken back by the very
  // worker still busy with the old request...
  EXPECT_FALSE(internal::MayTakeChunk(/*avoid=*/1, /*worker=*/1,
                                      /*other_live_workers=*/1));
  // ...any other worker may take it...
  EXPECT_TRUE(internal::MayTakeChunk(1, 0, 1));
  // ...and self-steal is allowed as a last resort, when nobody else lives.
  EXPECT_TRUE(internal::MayTakeChunk(1, 1, 0));
  // Untagged chunks are eligible everywhere.
  EXPECT_TRUE(internal::MayTakeChunk(-1, 0, 1));
  EXPECT_TRUE(internal::MayTakeChunk(-1, 1, 0));
}

TEST(CoordinatorInternalTest, ResponseMustAnswerItsRequestItemByItem) {
  std::vector<RangeItem> items(3);
  items[0].index = 4;
  items[1].index = 0;
  items[2].index = 9;
  std::vector<RangeOutcome> results = {{4, {}}, {0, {}}, {9, {}}};
  EXPECT_TRUE(internal::AnswersRequest(results, items));
  // Reordered, short, long, or answering another chunk's instance.
  EXPECT_FALSE(internal::AnswersRequest({{0, {}}, {4, {}}, {9, {}}}, items));
  EXPECT_FALSE(internal::AnswersRequest({{4, {}}, {0, {}}}, items));
  results.push_back({9, {}});
  EXPECT_FALSE(internal::AnswersRequest(results, items));
  EXPECT_FALSE(internal::AnswersRequest({{4, {}}, {0, {}}, {7, {}}}, items));
  EXPECT_TRUE(internal::AnswersRequest({}, {}));
}

TEST_F(CoordinatorTest, NegativeVideoIndexDispatchesWithoutCorruption) {
  // Regression: a negative (unset) video_index or pano_group used to index
  // the share vector at -1 during partitioning. The batch must dispatch
  // cleanly; the invalid instances fail gracefully on the worker.
  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 3);
  queries::QueryInstance bad = batch[0];
  bad.video_index = -1;
  batch.push_back(bad);
  queries::QueryInstance pano = batch[1];
  pano.id = queries::QueryId::kQ9;
  pano.pano_group = -2;
  batch.push_back(pano);

  Coordinator coordinator(BaseOptions(2));
  ASSERT_TRUE(coordinator.Start().ok());
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*outcomes)[i].succeeded())
        << (*outcomes)[i].status.ToString();
  }
  EXPECT_FALSE((*outcomes)[3].succeeded());
  EXPECT_FALSE((*outcomes)[4].succeeded());
}

TEST_F(CoordinatorTest, StragglerRedispatchCompletesOnAnotherWorker) {
  // A 1ms straggler deadline fires on effectively every chunk. The fled
  // worker must not re-take its own chunk (the avoid tag), so every
  // re-dispatch lands on the other worker — and the batch still completes
  // exactly once per instance because merge keeps the first result.
  CoordinatorOptions options = BaseOptions(2);
  options.chunk_size = 1;
  options.call_timeout = milliseconds(1);
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 3);
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());
  for (const systems::InstanceOutcome& outcome : *outcomes) {
    EXPECT_TRUE(outcome.succeeded()) << outcome.status.ToString();
  }
  EXPECT_GE(stats.straggler_redispatches, 1);
  EXPECT_GE(stats.in_flight_peak, 1);
  EXPECT_EQ(coordinator.live_workers(), 2);
}

// --- Storage staging ---

TEST_F(CoordinatorTest, StagedSetupLoadsFromStoreWithoutRegenerating) {
  storage::StoreOptions store_options;
  store_options.root = (std::filesystem::temp_directory_path() /
                        ("vr-dist-stage-" + std::to_string(::getpid())))
                           .string();
  std::filesystem::remove_all(store_options.root);
  auto opened = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  ASSERT_TRUE(driver::SaveDatasetSharded(*dataset_, store).ok());
  {
    storage::VssOptions vss_options;
    vss_options.store = &store;
    auto vss = storage::VideoStorageService::Open(vss_options);
    ASSERT_TRUE(vss.ok()) << vss.status().ToString();
    ASSERT_TRUE(driver::IngestDatasetVss(*dataset_, **vss).ok());
  }

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  metrics::Counter& stagings =
      registry.GetCounter("vr_dist_dataset_stagings_total", "");
  metrics::Counter& regenerations =
      registry.GetCounter("vr_dist_dataset_regenerations_total", "");
  double stagings_before = stagings.Value();
  double regenerations_before = regenerations.Value();

  std::atomic<int> factory_calls{0};
  InProcessWorkerConfig harness;
  harness.factory_calls = &factory_calls;
  harness.staged_loader = true;
  InProcessWorker worker(harness);
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());

  WorkerSetup setup;
  setup.config = config_;
  setup.engine = "PipelineEngine";
  setup.store_root = store_options.root;
  auto setup_response =
      client.Call(MethodId::kSetup, EncodeWorkerSetup(setup),
                  milliseconds(120000));
  ASSERT_TRUE(setup_response.ok()) << setup_response.status().ToString();

  // The acceptance property: zero worker-side dataset regenerations.
  EXPECT_EQ(factory_calls.load(), 0);
  EXPECT_EQ(stagings.Value() - stagings_before, 1.0);
  EXPECT_EQ(regenerations.Value() - regenerations_before, 0.0);

  // The staged worker's results stay byte-identical to direct execution
  // against the locally generated dataset.
  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 1);
  ExecuteRangeRequest request;
  request.mode = systems::OutputMode::kWrite;
  RangeItem item;
  item.index = 0;
  item.instance = batch[0];
  request.items.push_back(item);
  auto response = client.Call(MethodId::kExecuteRange,
                              EncodeExecuteRequest(request), milliseconds(120000));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto results = DecodeExecuteResponse(*response);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  ASSERT_TRUE((*results)[0].outcome.succeeded())
      << (*results)[0].outcome.status.ToString();

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto direct = engine->Execute(batch[0], *dataset_,
                                systems::OutputMode::kWrite, "");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  video::container::Container got, want;
  got.video = (*results)[0].outcome.output.video;
  want.video = direct->video;
  EXPECT_EQ(video::container::Mux(got), video::container::Mux(want));
  std::filesystem::remove_all(store_options.root);
}

TEST_F(CoordinatorTest, StagedSetupWithoutLoaderIsFailedPrecondition) {
  // A staged Setup against a worker with no dataset loader must refuse
  // loudly, never silently fall back to regeneration.
  InProcessWorker worker;  // Harness default: factory only, no loader.
  auto connected = RpcConnection::ConnectUnix(worker.path(), milliseconds(5000));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  RpcClient client(std::move(connected).value());
  ASSERT_TRUE(client.Handshake(milliseconds(2000)).ok());
  WorkerSetup setup;
  setup.config = config_;
  setup.store_root = "/nonexistent/store/root";
  auto response = client.Call(MethodId::kSetup, EncodeWorkerSetup(setup),
                              milliseconds(10000));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
}

// --- Semantic-cache shipping ---

TEST_F(CoordinatorTest, PreSeedShipsLocalCacheEntriesToWorkers) {
  // Materialize detections locally, with the cache attached.
  queries::SemanticCache cache;
  std::vector<queries::QueryInstance> batch =
      SampleBatch(queries::QueryId::kQ2c, 2, /*seed=*/9);
  systems::EngineOptions engine_options;
  engine_options.semantic_cache = &cache;
  auto engine = systems::MakePipelineEngine(engine_options);
  std::vector<systems::QueryOutput> direct;
  for (const queries::QueryInstance& instance : batch) {
    auto output = engine->Execute(instance, *dataset_,
                                  systems::OutputMode::kWrite, "");
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    direct.push_back(std::move(output).value());
  }
  ASSERT_GT(cache.stats().entries, 0);

  // A coordinator pointed at the same cache ships its entries to every
  // worker before dispatch; results stay byte-identical (the cache holds
  // exactly what the workers would have computed).
  CoordinatorOptions options = BaseOptions(2);
  options.semantic_cache = &cache;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());
  DistBatchStats stats;
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite,
                                           "", &stats);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), batch.size());
  EXPECT_GT(stats.cache_entries_shipped, 0);
  EXPECT_GT(stats.cache_bytes_shipped, 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    const systems::InstanceOutcome& outcome = (*outcomes)[i];
    ASSERT_TRUE(outcome.succeeded()) << outcome.status.ToString();
    video::container::Container got, want;
    got.video = outcome.output.video;
    want.video = direct[i].video;
    EXPECT_EQ(video::container::Mux(got), video::container::Mux(want))
        << "instance " << i;
  }
}

TEST_F(CoordinatorTest, LostWorkersRespawnAndWarmFromSurvivorCache) {
  fault::FaultProfile profile;
  profile.name = "heal-test";
  profile.prob(fault::Site::kWorkerCrash) = 1.0;
  fault::FaultInjector faults(profile, 17);

  CoordinatorOptions options = BaseOptions(3);
  options.faults = &faults;
  options.chunk_size = 1;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());

  // Batch 1 kills every worker but the guarded survivor; its Q2c work
  // populates the survivor's semantic cache.
  std::vector<queries::QueryInstance> first =
      SampleBatch(queries::QueryId::kQ2c, 3, /*seed=*/9);
  DistBatchStats stats1;
  auto outcomes1 = coordinator.ExecuteBatch(first, systems::OutputMode::kWrite,
                                            "", &stats1);
  ASSERT_TRUE(outcomes1.ok()) << outcomes1.status().ToString();
  EXPECT_GE(stats1.workers_lost, 1);
  ASSERT_EQ(coordinator.live_workers(), 1);

  // Batch 2 heals the fleet first: lost slots respawn and each replacement
  // is warmed from the survivor's exported cache before dispatch.
  std::vector<queries::QueryInstance> second =
      SampleBatch(queries::QueryId::kQ1, 3);
  DistBatchStats stats2;
  auto outcomes2 = coordinator.ExecuteBatch(second, systems::OutputMode::kWrite,
                                            "", &stats2);
  ASSERT_TRUE(outcomes2.ok()) << outcomes2.status().ToString();
  for (const systems::InstanceOutcome& outcome : *outcomes2) {
    EXPECT_TRUE(outcome.succeeded()) << outcome.status.ToString();
  }
  EXPECT_GE(stats2.workers_respawned, 1);
  EXPECT_GT(stats2.cache_entries_shipped, 0);
  EXPECT_GT(stats2.cache_bytes_shipped, 0);
}

TEST_F(CoordinatorTest, DeclinedQueryIsUnimplementedLikeLocalExecution) {
  std::vector<queries::QueryInstance> batch = SampleBatch(queries::QueryId::kQ1, 1);
  std::vector<queries::QueryInstance> declined =
      SampleBatch(queries::QueryId::kQ3, 1, /*seed=*/13);
  batch.insert(batch.end(), declined.begin(), declined.end());

  systems::EngineOptions engine_options;
  auto engine = systems::MakeCascadeEngine(engine_options);
  ASSERT_FALSE(engine->Supports(queries::QueryId::kQ3));
  systems::InstanceOutcome local = systems::ExecuteInstance(
      *engine, batch[1], *dataset_, systems::OutputMode::kWrite, "");
  ASSERT_TRUE(local.unsupported()) << local.status.ToString();

  CoordinatorOptions options = BaseOptions(2);
  options.setup.engine = "CascadeEngine";
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());
  auto outcomes = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite, "");
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), 2u);
  EXPECT_TRUE((*outcomes)[0].succeeded()) << (*outcomes)[0].status.ToString();
  EXPECT_EQ((*outcomes)[1].status.code(), StatusCode::kUnimplemented);
  EXPECT_EQ((*outcomes)[1].status.message(), local.status.message());
  EXPECT_FALSE((*outcomes)[1].output.produced);
}

TEST(CoordinatorLimitTest, UpsampleBeyondContainerLimitIsResourceExhaustedEverywhere) {
  // Q4 scales each axis by up to 2^5 = 32, so any input wider than
  // kMaxDimension / 32 = 256 px can ask for a frame no container holds.
  // Local and worker execution refuse it alike, and a worker that refused
  // it is healthy: its response decodes, and no chunk is re-dispatched.
  sim::CityConfig config;
  config.scale_factor = 1;
  config.width = 264;
  config.height = 24;
  config.duration_seconds = 0.2;
  config.fps = 15;
  config.seed = 43;
  auto prepared = driver::PrepareDataset(config);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const sim::Dataset& dataset = *prepared;

  Pcg32 rng(5, 11);
  auto sampled = queries::SampleQueryInstance(queries::QueryId::kQ4, dataset, rng,
                                              queries::SamplerOptions{});
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  queries::QueryInstance oversized = *sampled;
  oversized.q45_alpha = 32;
  oversized.q45_beta = 2;
  queries::QueryInstance fits = *sampled;
  fits.q45_alpha = 2;
  fits.q45_beta = 2;
  ASSERT_GT(config.width * oversized.q45_alpha,
            static_cast<int>(video::container::kMaxDimension));

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  systems::InstanceOutcome local = systems::ExecuteInstance(
      *engine, oversized, dataset, systems::OutputMode::kWrite, "");
  ASSERT_TRUE(local.resource_exhausted()) << local.status.ToString();

  CoordinatorOptions options;
  options.workers = 2;
  options.setup.config = config;
  options.setup.engine = "PipelineEngine";
  options.dataset = &dataset;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.Start().ok());
  const std::vector<queries::QueryInstance> batch = {oversized, fits, oversized, fits};
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    DistBatchStats stats;
    auto outcomes =
        coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite, "", &stats);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    ASSERT_EQ(outcomes->size(), batch.size());
    for (size_t i = 0; i < batch.size(); i += 2) {
      EXPECT_EQ((*outcomes)[i].status.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ((*outcomes)[i].status.message(), local.status.message());
      ASSERT_TRUE((*outcomes)[i + 1].succeeded()) << (*outcomes)[i + 1].status.ToString();
      EXPECT_EQ((*outcomes)[i + 1].output.video.width, config.width * fits.q45_alpha);
    }
    EXPECT_EQ(stats.workers_lost, 0);
    EXPECT_EQ(stats.chunks_redispatched, 0);
  }
}

// --- Driver integration ---

TEST_F(CoordinatorTest, DriverDistributedBatchMatchesAndValidates) {
  driver::VcdOptions vcd_options;
  vcd_options.workers = 2;
  vcd_options.validate = true;
  vcd_options.seed = 0x5EED;
  driver::VisualCityDriver vcd(*dataset_, vcd_options);

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->workers, 2);
  EXPECT_EQ(result->succeeded, result->instances);
  EXPECT_EQ(result->failed, 0);
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);
  EXPECT_GT(result->worker_busy_seconds, 0.0);

  // Distributed online execution is rejected, not silently serialised.
  driver::VcdOptions online = vcd_options;
  online.execution_mode = systems::ExecutionMode::kOnline;
  driver::VisualCityDriver online_vcd(*dataset_, online);
  auto rejected = online_vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, EveryExecutionPathAgreesOnOneMixedBatch) {
  // Q1 (frame-validated) plus Q2(c) (semantically validated), run four ways:
  // the driver's pool one task at a time, the pool four wide, two worker
  // processes, and the query server. Engine counters are comparable with
  // the worker run only when no instance can reuse another's work, since
  // each worker process has its own memos: a one-byte GOP cache keeps no
  // decoded GOP, and the Q2(c) batch addresses distinct streams, since the
  // engine memoises detections per frame. PoolWidthsAgreeWhenStreamsRepeat
  // covers a batch that repeats a stream.
  const queries::QueryId ids[] = {queries::QueryId::kQ1, queries::QueryId::kQ2c};
  driver::VcdOptions base = RepeatFreeOptions();
  ASSERT_TRUE(SeedQ2cStreams(base, /*distinct=*/true));

  struct Run {
    const char* name;
    driver::VcdOptions options;
    std::vector<driver::QueryBatchResult> results;
  };
  std::vector<Run> runs = {{"one task", base, {}},
                           {"four wide", base, {}},
                           {"two workers", base, {}}};
  runs[1].options.parallel_instances = 4;
  runs[2].options.workers = 2;
  for (Run& run : runs) {
    video::codec::GopCache cache;
    systems::EngineOptions engine_options;
    engine_options.gop_cache = &cache;
    engine_options.gop_cache_bytes = 1;
    auto engine = systems::MakePipelineEngine(engine_options);
    driver::VisualCityDriver vcd(*dataset_, run.options);
    for (queries::QueryId id : ids) {
      auto result = vcd.RunQueryBatch(*engine, id);
      ASSERT_TRUE(result.ok()) << run.name << ": " << result.status().ToString();
      run.results.push_back(std::move(result).value());
    }
  }
  EXPECT_EQ(runs[0].results[0].parallel_instances, 1);
  EXPECT_GT(runs[1].results[0].parallel_instances, 1);
  EXPECT_EQ(runs[2].results[0].workers, 2);
  for (size_t q = 0; q < std::size(ids); ++q) {
    const driver::QueryBatchResult& want = runs[0].results[q];
    EXPECT_EQ(want.succeeded, want.instances);
    EXPECT_GT(want.validation.checked, 0);
    for (size_t r = 1; r < runs.size(); ++r) {
      SCOPED_TRACE(std::string(runs[r].name) + " " + queries::QueryName(ids[q]));
      const driver::QueryBatchResult& got = runs[r].results[q];
      EXPECT_EQ(got.succeeded, want.succeeded);
      EXPECT_EQ(got.failed, want.failed);
      EXPECT_EQ(got.unsupported, want.unsupported);
      EXPECT_EQ(got.first_error, want.first_error);
      ExpectSameStats(got.engine_stats, want.engine_stats);
      EXPECT_EQ(got.validation.checked, want.validation.checked);
      EXPECT_EQ(got.validation.passed, want.validation.passed);
      EXPECT_EQ(got.validation.min_psnr_db, want.validation.min_psnr_db);
      EXPECT_EQ(got.validation.mean_psnr_db, want.validation.mean_psnr_db);
      EXPECT_EQ(got.validation.max_psnr_db, want.validation.max_psnr_db);
    }
  }

  // The same instances as one mixed batch: executed directly, through the
  // query server, and across the worker fleet.
  driver::VisualCityDriver sampler(*dataset_, base);
  std::vector<queries::QueryInstance> batch;
  for (queries::QueryId id : ids) {
    auto sampled = sampler.SampleBatch(id);
    ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
    batch.insert(batch.end(), sampled->begin(), sampled->end());
  }
  systems::EngineOptions engine_options;
  auto direct_engine = systems::MakePipelineEngine(engine_options);
  std::vector<systems::InstanceOutcome> direct;
  for (const queries::QueryInstance& instance : batch) {
    direct.push_back(systems::ExecuteInstance(*direct_engine, instance, *dataset_,
                                              systems::OutputMode::kWrite, ""));
    ASSERT_TRUE(direct.back().succeeded()) << direct.back().status.ToString();
  }

  auto server_engine = systems::MakePipelineEngine(engine_options);
  server::ServerOptions server_options;
  server_options.worker_threads = 2;
  server::QueryServer server(*dataset_, *server_engine, server_options);
  server::TenantOptions tenant;
  tenant.name = "paths";
  auto submitted = server.Submit(server.OpenSession(tenant), batch);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  server::ServedBatch served = submitted->get();

  Coordinator coordinator(BaseOptions(2));
  ASSERT_TRUE(coordinator.Start().ok());
  auto clustered = coordinator.ExecuteBatch(batch, systems::OutputMode::kWrite, "");
  ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();

  ASSERT_EQ(served.queries.size(), batch.size());
  ASSERT_EQ(clustered->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    for (const systems::InstanceOutcome* got : {&served.queries[i], &(*clustered)[i]}) {
      ASSERT_TRUE(got->succeeded()) << got->status.ToString();
      EXPECT_EQ(MuxVideo(got->output.video), MuxVideo(direct[i].output.video));
      ExpectSameDetections(got->output.detections, direct[i].output.detections);
    }
  }
}

TEST_F(CoordinatorTest, PoolWidthsAgreeWhenStreamsRepeat) {
  // A Q2(c) batch that repeats a stream, one task at a time and four wide.
  // Outcomes, validation and detector work must agree: the engine's
  // per-frame detection memo is single-flight, so overlapping instances of
  // one stream run the detector once per frame, as one task in index order
  // does.
  driver::VcdOptions base = RepeatFreeOptions();
  ASSERT_TRUE(SeedQ2cStreams(base, /*distinct=*/false));
  driver::VcdOptions wide = base;
  wide.parallel_instances = 4;
  std::vector<driver::QueryBatchResult> results;
  for (const driver::VcdOptions& options : {base, wide}) {
    video::codec::GopCache cache;
    systems::EngineOptions engine_options;
    engine_options.gop_cache = &cache;
    engine_options.gop_cache_bytes = 1;
    auto engine = systems::MakePipelineEngine(engine_options);
    driver::VisualCityDriver vcd(*dataset_, options);
    auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ2c);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }
  const driver::QueryBatchResult& want = results[0];
  const driver::QueryBatchResult& got = results[1];
  EXPECT_EQ(want.parallel_instances, 1);
  EXPECT_GT(got.parallel_instances, 1);
  EXPECT_EQ(want.succeeded, want.instances);
  EXPECT_GT(want.validation.checked, 0);
  EXPECT_EQ(got.succeeded, want.succeeded);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.unsupported, want.unsupported);
  EXPECT_EQ(got.first_error, want.first_error);
  EXPECT_EQ(got.validation.checked, want.validation.checked);
  EXPECT_EQ(got.validation.passed, want.validation.passed);
  EXPECT_EQ(got.engine_stats.frames_decoded, want.engine_stats.frames_decoded);
  EXPECT_EQ(got.engine_stats.frames_encoded, want.engine_stats.frames_encoded);
  EXPECT_EQ(got.engine_stats.cnn_frames_full, want.engine_stats.cnn_frames_full);
}

TEST_F(CoordinatorTest, DriverStagedDistributedBatchValidates) {
  // --workers composed with --storage: the driver stages the dataset into
  // the shared store and the worker processes attach to it instead of
  // regenerating; results still validate against the reference.
  storage::StoreOptions store_options;
  store_options.root = (std::filesystem::temp_directory_path() /
                        ("vr-dist-vcd-stage-" + std::to_string(::getpid())))
                           .string();
  std::filesystem::remove_all(store_options.root);
  auto opened = storage::ShardedStore::Open(store_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  storage::ShardedStore store = std::move(opened).value();
  storage::VssOptions vss_options;
  vss_options.store = &store;
  auto vss = storage::VideoStorageService::Open(vss_options);
  ASSERT_TRUE(vss.ok()) << vss.status().ToString();

  driver::VcdOptions vcd_options;
  vcd_options.workers = 2;
  vcd_options.validate = true;
  vcd_options.storage = vss->get();
  driver::VisualCityDriver vcd(*dataset_, vcd_options);

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->workers, 2);
  EXPECT_EQ(result->succeeded, result->instances);
  EXPECT_EQ(result->failed, 0);
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);
  // The driver staged the dataset manifest into the shared store.
  EXPECT_TRUE(store.Get("dataset.vrds").ok());
  std::filesystem::remove_all(store_options.root);
}

TEST_F(CoordinatorTest, FaultedDriverRunCompletesWithValidResults) {
  // The acceptance scenario: a cluster-profile run that kills workers
  // mid-batch still completes with validated results via re-dispatch.
  auto profile = fault::ProfileByName("cluster");
  ASSERT_TRUE(profile.ok());
  fault::FaultInjector faults(*profile, 0x5EED);

  driver::VcdOptions vcd_options;
  vcd_options.workers = 3;
  vcd_options.validate = true;
  vcd_options.faults = &faults;
  driver::VisualCityDriver vcd(*dataset_, vcd_options);

  systems::EngineOptions engine_options;
  auto engine = systems::MakePipelineEngine(engine_options);
  auto result = vcd.RunQueryBatch(*engine, queries::QueryId::kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->succeeded, result->instances);
  EXPECT_GT(result->validation.checked, 0);
  EXPECT_EQ(result->validation.passed, result->validation.checked);
}

}  // namespace
}  // namespace visualroad::dist
