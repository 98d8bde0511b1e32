#include <algorithm>
#include <cstring>
#include <memory>

#include "common/trace.h"
#include "video/codec/codec.h"
#include "video/codec/codec_internal.h"
#include "video/codec/dct.h"
#include "video/codec/intra.h"
#include "video/codec/quant.h"

namespace visualroad::video::codec {

namespace internal {

void ReconstructBlock(const uint8_t* prediction, const int16_t* levels, int qp,
                      Plane& recon, int bx, int by) {
  double coefficients[kTransformArea];
  DequantizeBlock(levels, qp, coefficients);
  int16_t residual[kTransformArea];
  InverseDct8x8(coefficients, residual);
  for (int y = 0; y < kTransformSize; ++y) {
    for (int x = 0; x < kTransformSize; ++x) {
      int value = prediction[y * kTransformSize + x] + residual[y * kTransformSize + x];
      recon.Set(bx + x, by + y, static_cast<uint8_t>(std::clamp(value, 0, 255)));
    }
  }
}

}  // namespace internal

using internal::FrameContexts;
using internal::PadTo;
using internal::ReconPlanes;
using internal::ReconstructBlock;

namespace {

/// Decodes a motion-vector component difference (matches EncodeMvComponent).
int DecodeMvComponent(ArithmeticDecoder& dec, BitModel* models) {
  uint32_t magnitude = DecodeUnaryEg(dec, models, 10);
  if (magnitude == 0) return 0;
  int sign = dec.DecodeBypass();
  return sign ? -static_cast<int>(magnitude) : static_cast<int>(magnitude);
}

/// Decodes one intra-coded 8x8 block and reconstructs it.
void DecodeIntraBlock(ArithmeticDecoder& dec, FrameContexts& ctx, Plane& recon,
                      int bx, int by, int qp, bool is_luma) {
  IntraMode mode = IntraMode::kDc;
  if (is_luma) {
    int bit0 = dec.DecodeBit(ctx.intra_mode[0]);
    int bit1 = dec.DecodeBit(ctx.intra_mode[1]);
    mode = static_cast<IntraMode>(bit0 | (bit1 << 1));
  }
  uint8_t prediction[kTransformArea];
  IntraPredict(recon, bx, by, kTransformSize, mode, prediction);
  int16_t levels[kTransformArea];
  DecodeResidualBlock(dec, ctx.residual[is_luma ? 0 : 1], levels);
  ReconstructBlock(prediction, levels, qp, recon, bx, by);
}

}  // namespace

struct Decoder::State {
  int width = 0;
  int height = 0;
  int block_size = 16;
  bool has_reference = false;
  ReconPlanes reference;
};

Decoder::Decoder(int width, int height, Profile profile)
    : state_(std::make_shared<State>()) {
  state_->width = width;
  state_->height = height;
  state_->block_size = ProfileBlockSize(profile);
}

Status Decoder::DecodeInto(const EncodedFrame& encoded) {
  State& s = *state_;
  if (s.width <= 0 || s.height <= 0) {
    return Status::FailedPrecondition("decoder has invalid dimensions");
  }
  if (!encoded.keyframe && !s.has_reference) {
    return Status::FailedPrecondition("P-frame received before any keyframe");
  }
  int qp = encoded.qp;
  int mb = s.block_size;
  int cmb = mb / 2;
  int cw = (s.width + 1) / 2, ch = (s.height + 1) / 2;

  ReconPlanes recon;
  recon.y = Plane(PadTo(s.width, mb), PadTo(s.height, mb));
  recon.u = Plane(PadTo(cw, cmb), PadTo(ch, cmb));
  recon.v = Plane(PadTo(cw, cmb), PadTo(ch, cmb));

  FrameContexts ctx;
  ArithmeticDecoder dec(encoded.data);

  int mbs_x = recon.y.width / mb;
  int mbs_y = recon.y.height / mb;
  int sub = mb / kTransformSize;
  int csub = cmb / kTransformSize;

  for (int mby = 0; mby < mbs_y; ++mby) {
    MotionVector left_mv;
    for (int mbx = 0; mbx < mbs_x; ++mbx) {
      int bx = mbx * mb, by = mby * mb;
      int cbx = mbx * cmb, cby = mby * cmb;

      bool intra_mb = encoded.keyframe;
      if (!encoded.keyframe) {
        if (dec.DecodeBit(ctx.skip) == 1) {
          for (int y = 0; y < mb; ++y) {
            std::memcpy(recon.y.Row(by + y) + bx, s.reference.y.Row(by + y) + bx, mb);
          }
          for (int y = 0; y < cmb; ++y) {
            std::memcpy(recon.u.Row(cby + y) + cbx, s.reference.u.Row(cby + y) + cbx,
                        cmb);
            std::memcpy(recon.v.Row(cby + y) + cbx, s.reference.v.Row(cby + y) + cbx,
                        cmb);
          }
          left_mv = MotionVector{};
          continue;
        }
        intra_mb = dec.DecodeBit(ctx.intra_flag) == 1;
      }

      if (intra_mb) {
        for (int sy = 0; sy < sub; ++sy) {
          for (int sx = 0; sx < sub; ++sx) {
            DecodeIntraBlock(dec, ctx, recon.y, bx + sx * kTransformSize,
                             by + sy * kTransformSize, qp, /*is_luma=*/true);
          }
        }
        for (int sy = 0; sy < csub; ++sy) {
          for (int sx = 0; sx < csub; ++sx) {
            int tx = cbx + sx * kTransformSize, ty = cby + sy * kTransformSize;
            DecodeIntraBlock(dec, ctx, recon.u, tx, ty, qp, /*is_luma=*/false);
            DecodeIntraBlock(dec, ctx, recon.v, tx, ty, qp, /*is_luma=*/false);
          }
        }
        left_mv = MotionVector{};
        continue;
      }

      // Inter macroblock.
      MotionVector mv;
      mv.dx = left_mv.dx + DecodeMvComponent(dec, ctx.mv_mag[0]);
      mv.dy = left_mv.dy + DecodeMvComponent(dec, ctx.mv_mag[1]);
      for (int sy = 0; sy < sub; ++sy) {
        for (int sx = 0; sx < sub; ++sx) {
          int tx = bx + sx * kTransformSize, ty = by + sy * kTransformSize;
          uint8_t prediction[kTransformArea];
          MotionCompensate(s.reference.y, tx, ty, kTransformSize, mv.dx, mv.dy,
                           prediction);
          int16_t levels[kTransformArea];
          DecodeResidualBlock(dec, ctx.residual[0], levels);
          ReconstructBlock(prediction, levels, qp, recon.y, tx, ty);
        }
      }
      int cdx = mv.dx / 2, cdy = mv.dy / 2;
      for (int plane = 0; plane < 2; ++plane) {
        Plane& crecon = plane == 0 ? recon.u : recon.v;
        const Plane& cref = plane == 0 ? s.reference.u : s.reference.v;
        for (int sy = 0; sy < csub; ++sy) {
          for (int sx = 0; sx < csub; ++sx) {
            int tx = cbx + sx * kTransformSize, ty = cby + sy * kTransformSize;
            uint8_t prediction[kTransformArea];
            MotionCompensate(cref, tx, ty, kTransformSize, cdx, cdy, prediction);
            int16_t levels[kTransformArea];
            DecodeResidualBlock(dec, ctx.residual[1], levels);
            ReconstructBlock(prediction, levels, qp, crecon, tx, ty);
          }
        }
      }
      left_mv = mv;
    }
  }

  s.reference = std::move(recon);
  s.has_reference = true;
  return Status::Ok();
}

Status Decoder::Advance(const EncodedFrame& encoded) {
  VR_RETURN_IF_ERROR(DecodeInto(encoded));
  internal::WarmupFramesCounter().Increment();
  return Status::Ok();
}

StatusOr<Frame> Decoder::DecodeFrame(const EncodedFrame& encoded) {
  Frame frame;
  VR_RETURN_IF_ERROR(DecodeFrame(encoded, frame));
  return frame;
}

Status Decoder::DecodeFrame(const EncodedFrame& encoded, Frame& out) {
  VR_RETURN_IF_ERROR(DecodeInto(encoded));
  internal::FramesDecodedCounter().Increment();
  State& s = *state_;
  int cw = (s.width + 1) / 2, ch = (s.height + 1) / 2;
  if (out.width() != s.width || out.height() != s.height) out = Frame(s.width, s.height);
  internal::UnpadPlane(s.reference.y, s.width, s.height, out.y_plane());
  internal::UnpadPlane(s.reference.u, cw, ch, out.u_plane());
  internal::UnpadPlane(s.reference.v, cw, ch, out.v_plane());
  return Status::Ok();
}

namespace {

/// Decodes frames [begin, end), which must start at a keyframe (or at the
/// warm-up keyframe preceding `first`), writing frames at or after `first`
/// into out[i - first]. Warm-up frames only advance the reference state.
Status DecodeSegment(const EncodedVideo& encoded, int begin, int end, int first,
                     std::vector<Frame>& out) {
  TRACE_SPAN("decode_gop");
  Decoder decoder(encoded.width, encoded.height, encoded.profile);
  for (int i = begin; i < end; ++i) {
    if (i < first) {
      VR_RETURN_IF_ERROR(decoder.Advance(encoded.frames[i]));
      continue;
    }
    VR_RETURN_IF_ERROR(
        decoder.DecodeFrame(encoded.frames[i], out[static_cast<size_t>(i - first)]));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<Video> Decode(const EncodedVideo& encoded) {
  return DecodeRange(encoded, 0, encoded.FrameCount());
}

Status DecodeInto(const EncodedVideo& encoded, Video& out) {
  out.fps = encoded.fps;
  out.frames.resize(encoded.frames.size());
  return DecodeSegment(encoded, 0, encoded.FrameCount(), 0, out.frames);
}

StatusOr<Video> DecodeRange(const EncodedVideo& encoded, int first, int count,
                            int threads) {
  if (first < 0 || count < 0 || first + count > encoded.FrameCount()) {
    return Status::OutOfRange("decode range outside the encoded video");
  }
  // Random access requires starting from the keyframe at or before `first`.
  int start = first;
  while (start > 0 && !encoded.frames[start].keyframe) --start;
  int end = first + count;

  Video out;
  out.fps = encoded.fps;
  out.frames.resize(count);

  // Keyframes after `start` open independently decodable segments.
  std::vector<int> segment_starts{start};
  for (int i = start + 1; i < end; ++i) {
    if (encoded.frames[i].keyframe) segment_starts.push_back(i);
  }
  int segments = static_cast<int>(segment_starts.size());
  VR_RETURN_IF_ERROR(CodecParallelFor(
      threads, segments, [&](int index) -> Status {
        int begin = segment_starts[index];
        int stop = index + 1 < segments ? segment_starts[index + 1] : end;
        return DecodeSegment(encoded, begin, stop, first, out.frames);
      }));
  return out;
}

}  // namespace visualroad::video::codec
