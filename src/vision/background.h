#ifndef VISUALROAD_VISION_BACKGROUND_H_
#define VISUALROAD_VISION_BACKGROUND_H_

#include "common/status.h"
#include "video/frame.h"

namespace visualroad::vision {

/// Q2(d) background masking: for each frame f_j, the background reference is
/// the mean of the m-frame window starting at j (truncated at the end of the
/// video), and pixels whose relative difference from the reference is below
/// epsilon become the black sentinel omega.
///
/// Two implementations produce identical output with different cost
/// profiles; the engines deliberately pick different ones (see
/// systems/*_engine.cc):
///  - Running: maintains per-pixel window sums incrementally, O(pixels) per
///    frame regardless of m.
///  - Naive: recomputes the window mean from scratch per frame, O(m*pixels).
///    Frames are independent, so they run as one task each on the codec pool,
///    `width` wide (video::codec::CodecParallelFor); the output is the same
///    at every width.
StatusOr<video::Video> MaskBackgroundRunning(const video::Video& input, int m,
                                             double epsilon);
StatusOr<video::Video> MaskBackgroundNaive(const video::Video& input, int m,
                                           double epsilon, int width = 1);

}  // namespace visualroad::vision

#endif  // VISUALROAD_VISION_BACKGROUND_H_
