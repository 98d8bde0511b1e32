// GOP-parallel encode/decode. Every gop_length-th frame is an I-frame and the
// GOP is closed (keyframes never read the inter reference), so each GOP is an
// independent coding unit: encoding it with fresh reference state produces
// exactly the bytes the streaming path would. The only cross-GOP coupling is
// rate control, which PlanQpSchedule resolves serially up front — analogous to
// the generator's per-tile RNG substreams.

#include <algorithm>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "video/codec/codec.h"
#include "video/codec/codec_internal.h"
#include "video/codec/rate_control.h"

namespace visualroad::video::codec {

namespace {

/// Process-wide pool shared by every codec call. Intentionally leaked so
/// worker shutdown never races static destruction at process exit.
ThreadPool& CodecPool() {
  static ThreadPool* pool = new ThreadPool(ThreadPool::HardwareThreads(), "codec");
  return *pool;
}

}  // namespace

int DefaultCodecThreads() { return ThreadPool::HardwareThreads(); }

PoolStats CodecPoolStats() { return CodecPool().stats(); }

namespace internal {

metrics::Counter& FramesEncodedCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global().GetCounter(
      "vr_codec_frames_encoded_total",
      "Frames encoded, across the streaming and GOP-parallel paths");
  return counter;
}

metrics::Counter& FramesDecodedCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global().GetCounter(
      "vr_codec_frames_decoded_total",
      "Frames fully decoded and returned to a caller");
  return counter;
}

metrics::Counter& WarmupFramesCounter() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global().GetCounter(
      "vr_codec_warmup_frames_total",
      "Frames decoded only to advance a decoder to a seek target");
  return counter;
}

}  // namespace internal

Status CodecParallelFor(int width, int count, const std::function<Status(int)>& fn) {
  if (count <= 0) return Status::Ok();
  if (width <= 0) width = DefaultCodecThreads();
  width = std::min(width, count);
  if (width == 1) {
    for (int i = 0; i < count; ++i) VR_RETURN_IF_ERROR(fn(i));
    return Status::Ok();
  }
  return CodecPool().ParallelForStatus(count, fn, (count + width - 1) / width);
}

StatusOr<EncodedVideo> ParallelEncode(const Video& video, const EncoderConfig& config,
                                      int threads) {
  if (video.frames.empty()) {
    return Status::InvalidArgument("cannot encode an empty video");
  }
  int width = video.Width(), height = video.Height();
  VR_RETURN_IF_ERROR(internal::ValidateEncoderConfig(width, height, config));

  // Serial pre-pass: fix the QP of every frame before any GOP encodes, so the
  // schedule (and thus the bitstream) is independent of thread count.
  std::vector<int> schedule;
  {
    TRACE_SPAN("plan_qp_schedule");
    schedule = PlanQpSchedule(video, config);
  }
  internal::EncoderSettings settings =
      internal::MakeEncoderSettings(width, height, config);

  int frame_count = static_cast<int>(video.frames.size());
  int gop = config.gop_length;
  int gops = (frame_count + gop - 1) / gop;

  EncodedVideo out;
  out.profile = config.profile;
  out.width = width;
  out.height = height;
  out.fps = video.fps;
  out.frames.resize(video.frames.size());

  auto encode_gop = [&](int index) -> Status {
    TRACE_SPAN("encode_gop");
    int begin = index * gop;
    int end = std::min(begin + gop, frame_count);
    internal::ReconPlanes reference;
    for (int i = begin; i < end; ++i) {
      VR_ASSIGN_OR_RETURN(out.frames[i],
                          internal::EncodeFrameImpl(settings, reference,
                                                    video.frames[i],
                                                    /*keyframe=*/i == begin,
                                                    schedule[i]));
    }
    return Status::Ok();
  };

  VR_RETURN_IF_ERROR(CodecParallelFor(threads, gops, encode_gop));
  return out;
}

StatusOr<EncodedVideo> Encode(const Video& video, const EncoderConfig& config) {
  return ParallelEncode(video, config, /*threads=*/1);
}

StatusOr<Video> ParallelDecode(const EncodedVideo& encoded, int threads) {
  return DecodeRange(encoded, 0, encoded.FrameCount(),
                     threads <= 0 ? DefaultCodecThreads() : threads);
}

}  // namespace visualroad::video::codec
