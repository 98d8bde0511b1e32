#ifndef VISUALROAD_VISION_STITCHER_H_
#define VISUALROAD_VISION_STITCHER_H_

#include <array>
#include <vector>

#include "common/status.h"
#include "simulation/camera.h"
#include "video/color.h"
#include "video/frame.h"

namespace visualroad::vision {

/// Stitches the four face frames of a panoramic rig into one
/// equirectangularly projected 360-degree frame (Q9). For every output pixel
/// the longitude/latitude is converted to a world direction, the face camera
/// whose optical axis is closest is selected, and the source is sampled
/// bilinearly. The 120-degree fields of view at 90-degree spacing guarantee
/// full coverage with overlap.
///
/// `faces[i]` must be the frame captured by `cameras[i]`; output longitude 0
/// (the image centre) faces `forward_yaw`.
///
/// Output rows are independent units, run as `width` contiguous row bands on
/// the codec pool (video::codec::CodecParallelFor); the output is the same at
/// every width.
StatusOr<video::Frame> StitchEquirect(const std::array<const video::Frame*, 4>& faces,
                                      const std::array<sim::Camera, 4>& cameras,
                                      int out_width, int out_height,
                                      double forward_yaw, int width = 1);

/// Stitches aligned face videos frame by frame; the rows of every frame form
/// one sequence of units, split into `width` bands as above.
StatusOr<video::Video> StitchEquirectVideo(
    const std::array<const video::Video*, 4>& faces,
    const std::array<sim::Camera, 4>& cameras, int out_width, int out_height,
    double forward_yaw, int width = 1);

}  // namespace visualroad::vision

#endif  // VISUALROAD_VISION_STITCHER_H_
