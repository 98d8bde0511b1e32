#ifndef VISUALROAD_VIDEO_CODEC_CODEC_INTERNAL_H_
#define VISUALROAD_VIDEO_CODEC_CODEC_INTERNAL_H_

// Implementation details shared by encoder.cc and decoder.cc. Not part of the
// public API.

#include <algorithm>
#include <functional>

#include "common/metrics.h"
#include "video/codec/codec.h"
#include "video/codec/entropy.h"
#include "video/codec/motion.h"
#include "video/frame.h"

namespace visualroad::video::codec::internal {

/// Registry counters shared by the streaming and GOP-parallel paths. Both
/// funnel through EncodeFrameImpl / the decoder frame loop, so incrementing
/// there counts every frame exactly once regardless of entry point.
metrics::Counter& FramesEncodedCounter();
metrics::Counter& FramesDecodedCounter();
/// Frames decoded only to warm a decoder up to a seek target (wasted work a
/// GOP-aligned access pattern avoids).
metrics::Counter& WarmupFramesCounter();

/// Per-frame adaptive contexts; reset at every frame so each frame's payload
/// is independently decodable given its reference.
struct FrameContexts {
  BitModel skip;
  BitModel intra_flag;
  BitModel intra_mode[2];
  BitModel mv_mag[2][10];
  ResidualContexts residual[2];  // [0]=luma, [1]=chroma.
};

/// Pads `v` up to a multiple of `multiple`.
inline int PadTo(int v, int multiple) {
  return ((v + multiple - 1) / multiple) * multiple;
}

/// Copies a frame plane into a padded Plane, replicating edges.
inline Plane PadPlane(const std::vector<uint8_t>& src, int w, int h, int multiple) {
  Plane plane(PadTo(w, multiple), PadTo(h, multiple));
  for (int y = 0; y < plane.height; ++y) {
    int sy = std::min(y, h - 1);
    for (int x = 0; x < plane.width; ++x) {
      int sx = std::min(x, w - 1);
      plane.Set(x, y, src[static_cast<size_t>(sy) * w + sx]);
    }
  }
  return plane;
}

/// Copies the top-left w x h window of a padded Plane into a frame plane.
inline void UnpadPlane(const Plane& plane, int w, int h, std::vector<uint8_t>& dst) {
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      dst[static_cast<size_t>(y) * w + x] = plane.At(x, y);
    }
  }
}

/// Reconstruction planes for one frame (padded).
struct ReconPlanes {
  Plane y;
  Plane u;
  Plane v;
};

/// Reconstructs one 8x8 block from its prediction and quantised levels into
/// `recon` at (bx, by): dequantise, inverse-transform, add, clamp. Shared by
/// the encoder's reference loop and the decoder so both stay bit-exact.
void ReconstructBlock(const uint8_t* prediction, const int16_t* levels, int qp,
                      Plane& recon, int bx, int by);

/// Immutable per-stream encoder parameters derived from an EncoderConfig.
struct EncoderSettings {
  int width = 0;
  int height = 0;
  int block_size = 16;
  int search_radius = 8;
  bool allow_planar = false;
};

/// Shared validation for Encoder::Create and ParallelEncode.
Status ValidateEncoderConfig(int width, int height, const EncoderConfig& config);

EncoderSettings MakeEncoderSettings(int width, int height,
                                    const EncoderConfig& config);

/// Encodes one frame with an explicit (keyframe, qp) decision against
/// `reference` — the previous frame's padded reconstruction, unused for
/// keyframes — and replaces `reference` with this frame's reconstruction.
/// Both the streaming Encoder and the GOP-parallel path call this, so a fixed
/// QP schedule yields byte-identical output regardless of threading.
StatusOr<EncodedFrame> EncodeFrameImpl(const EncoderSettings& settings,
                                       ReconPlanes& reference, const Frame& frame,
                                       bool keyframe, int qp);

}  // namespace visualroad::video::codec::internal

#endif  // VISUALROAD_VIDEO_CODEC_CODEC_INTERNAL_H_
