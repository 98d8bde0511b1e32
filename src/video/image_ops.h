#ifndef VISUALROAD_VIDEO_IMAGE_OPS_H_
#define VISUALROAD_VIDEO_IMAGE_OPS_H_

#include <functional>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "video/color.h"
#include "video/frame.h"

namespace visualroad::video {

/// Crops `frame` to `rect` (clamped to the frame bounds). Returns an error if
/// the clamped rectangle is empty.
StatusOr<Frame> Crop(const Frame& frame, const RectI& rect);

/// Bilinearly interpolates `frame` to `new_width` x `new_height`. This is the
/// Interpolate convenience operator from Table 4 (used by Q4 Upsample).
StatusOr<Frame> BilinearResize(const Frame& frame, int new_width, int new_height);

/// Point-samples `frame` down to `new_width` x `new_height`. This is the
/// Sample convenience operator from Table 4 (used by Q5 Downsample).
StatusOr<Frame> Downsample(const Frame& frame, int new_width, int new_height);

/// Converts a frame to grayscale by zeroing chroma (Q2(a)): the luma channel
/// is untouched, U and V are reset to neutral 128.
Frame Grayscale(const Frame& frame);

/// Applies a d x d Gaussian blur to every channel (Q2(b)). `d` must be odd
/// and >= 1; sigma defaults to d/6 as is conventional for a d-tap kernel.
StatusOr<Frame> GaussianBlur(const Frame& frame, int d, double sigma = 0.0);

/// Builds the normalized 1-D Gaussian kernel of width `d` (odd).
std::vector<double> GaussianKernel1d(int d, double sigma);

/// PMap (Table 4): applies `fn` to every pixel of every frame.
Video PMap(const Video& input, const std::function<Yuv(const Yuv&)>& fn);

/// FMap (Table 4): applies `fn` to every frame.
Video FMap(const Video& input, const std::function<Frame(const Frame&)>& fn);

/// JoinP (Table 4): joins two videos by pixel coordinate and applies a binary
/// projection. The shorter video determines the output length; frames must
/// share a resolution.
StatusOr<Video> JoinP(const Video& left, const Video& right,
                      const std::function<Yuv(const Yuv&, const Yuv&)>& projection);

/// The omega-coalesce projection of Equation 1: returns the overlay pixel
/// unless it is the black sentinel, in which case the base pixel wins.
Yuv OmegaCoalesce(const Yuv& base, const Yuv& overlay);

/// Computes the per-pixel mean of `frames` (the Window+Aggregate mean filter
/// backing Q2(d) background masking). Requires a non-empty, same-size list.
StatusOr<Frame> MeanFrame(const std::vector<const Frame*>& frames);

/// Applies Q2(d)'s masking rule: output omega where
/// |(pixel - background) / pixel| < epsilon, else the input pixel. Operates
/// on luma magnitude; chroma follows the luma decision.
StatusOr<Frame> MaskAgainstBackground(const Frame& frame, const Frame& background,
                                      double epsilon);

/// As above, into `out`; a frame that already has the input's size keeps its
/// storage (and every sample is overwritten).
Status MaskAgainstBackground(const Frame& frame, const Frame& background,
                             double epsilon, Frame& out);

}  // namespace visualroad::video

#endif  // VISUALROAD_VIDEO_IMAGE_OPS_H_
