#ifndef VISUALROAD_VIDEO_CODEC_CODEC_H_
#define VISUALROAD_VIDEO_CODEC_CODEC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "video/frame.h"

namespace visualroad::video::codec {

/// Coding profiles. Visual Road 1.0 supports H264 and HEVC (Section 5); VRC
/// mirrors that with two genuinely different coding toolsets:
///  - kH264Like: 16x16 prediction blocks, 3 intra modes, +/-8 motion search.
///  - kHevcLike: 32x32 prediction blocks, planar intra mode, +/-12 search
///    (better compression, slower encode — the same trade real HEVC makes).
enum class Profile : uint8_t {
  kH264Like = 0,
  kHevcLike = 1,
};

/// Returns "h264" or "hevc".
const char* ProfileName(Profile profile);

/// Prediction (macro)block edge length for `profile`.
int ProfileBlockSize(Profile profile);

/// Default motion search radius for `profile`.
int ProfileSearchRadius(Profile profile);

/// Encoder settings.
struct EncoderConfig {
  Profile profile = Profile::kH264Like;
  /// Frames per GOP; every gop_length-th frame is an I-frame.
  int gop_length = 15;
  /// Constant quantisation parameter [0, 51] used when target_bitrate_bps==0.
  int qp = 28;
  /// When non-zero, a closed-loop rate controller adjusts QP per frame to hit
  /// this many bits per second of video.
  int64_t target_bitrate_bps = 0;
  /// Integer-pel motion search radius; 0 selects the profile default.
  int search_radius = 0;
};

/// One encoded frame: an independently entropy-coded arithmetic payload.
struct EncodedFrame {
  bool keyframe = false;
  uint8_t qp = 28;
  std::vector<uint8_t> data;
};

/// A full encoded video (VRC elementary stream).
struct EncodedVideo {
  Profile profile = Profile::kH264Like;
  int width = 0;
  int height = 0;
  double fps = 30.0;
  std::vector<EncodedFrame> frames;

  int FrameCount() const { return static_cast<int>(frames.size()); }
  /// Total payload bytes across all frames.
  int64_t TotalBytes() const;
  /// Average bits per second given `fps`.
  double BitrateBps() const;
};

/// Streaming encoder: feed frames in display order.
class Encoder {
 public:
  /// Validates the configuration; returns an error for bad dimensions/QP.
  static StatusOr<Encoder> Create(int width, int height, const EncoderConfig& config);

  Encoder(Encoder&&) noexcept;
  Encoder& operator=(Encoder&&) noexcept;
  ~Encoder();

  /// Encodes the next frame. Frames must match the configured dimensions.
  StatusOr<EncodedFrame> EncodeFrame(const Frame& frame);

  const EncoderConfig& config() const { return config_; }

 private:
  struct State;
  explicit Encoder(std::unique_ptr<State> state);

  EncoderConfig config_;
  std::unique_ptr<State> state_;
};

/// Streaming decoder: feed encoded frames in coding order.
class Decoder {
 public:
  Decoder(int width, int height, Profile profile);

  /// Decodes the next frame. The first frame must be a keyframe.
  StatusOr<Frame> DecodeFrame(const EncodedFrame& encoded);

  /// As above, into `out`: a frame that already has the stream's size keeps
  /// its storage, so a caller can allocate outputs on its own thread and
  /// decode into them on another.
  Status DecodeFrame(const EncodedFrame& encoded, Frame& out);

  /// Decodes `encoded` into the reference state without materialising an
  /// output frame — the cheap warm-up path when random access lands mid-GOP.
  Status Advance(const EncodedFrame& encoded);

 private:
  struct State;
  Status DecodeInto(const EncodedFrame& encoded);

  std::shared_ptr<State> state_;
};

/// Encodes an entire video. Equivalent to ParallelEncode(video, config, 1).
StatusOr<EncodedVideo> Encode(const Video& video, const EncoderConfig& config);

/// GOP-parallel encode, byte-identical to Encode() at every thread count: a
/// serial rate-control pre-pass (PlanQpSchedule) fixes the per-frame QP, then
/// keyframe-delimited GOPs — independent coding units in this closed-GOP
/// format — encode concurrently on the shared codec pool. `threads` <= 0
/// selects DefaultCodecThreads().
StatusOr<EncodedVideo> ParallelEncode(const Video& video, const EncoderConfig& config,
                                      int threads = 0);

/// Decodes an entire encoded video.
StatusOr<Video> Decode(const EncodedVideo& encoded);

/// Decodes an entire encoded video into `out`, on the calling thread. Frames
/// of `out` that already have the stream's size keep their storage.
Status DecodeInto(const EncodedVideo& encoded, Video& out);

/// GOP-parallel decode of the whole stream; output is identical to Decode().
/// `threads` <= 0 selects DefaultCodecThreads().
StatusOr<Video> ParallelDecode(const EncodedVideo& encoded, int threads = 0);

/// Decodes only frames [first, first+count) — requires decoding from the
/// preceding keyframe, which is what offline (random access) engines do.
/// Warm-up frames before `first` advance the reference without being
/// materialised. With `threads` > 1, independent GOPs inside the range decode
/// concurrently; `threads` <= 0 selects DefaultCodecThreads().
StatusOr<Video> DecodeRange(const EncodedVideo& encoded, int first, int count,
                            int threads = 1);

/// Worker count used when `threads` <= 0 is passed to the calls above: one per
/// hardware thread.
int DefaultCodecThreads();

/// Cumulative counters of the process-wide codec pool, for the benchmark
/// parallel-efficiency lines.
PoolStats CodecPoolStats();

/// Runs fn(i) for i in [0, count) as at most `width` contiguous chunks on the
/// process-wide codec pool and returns the lowest-index failure. A width (or
/// count) of 1 runs the loop on the calling thread, and so does a call from
/// a codec pool task; `width` <= 0 selects DefaultCodecThreads(). Output is
/// independent of `width` when each fn(i) reads only const inputs and writes
/// only its own pre-sized slot.
Status CodecParallelFor(int width, int count, const std::function<Status(int)>& fn);

}  // namespace visualroad::video::codec

#endif  // VISUALROAD_VIDEO_CODEC_CODEC_H_
