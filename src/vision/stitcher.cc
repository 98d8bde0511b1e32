#include "vision/stitcher.h"

#include <algorithm>
#include <cmath>

namespace visualroad::vision {

namespace {

/// The four source samples and weights of one bilinear lookup, with edge
/// clamping.
struct BilinearTap {
  int x0, y0, x1, y1;
  double ax, ay;
};

BilinearTap ClampedTap(const video::Frame& frame, double fx, double fy) {
  fx = std::clamp(fx, 0.0, static_cast<double>(frame.width() - 1));
  fy = std::clamp(fy, 0.0, static_cast<double>(frame.height() - 1));
  int x0 = static_cast<int>(fx), y0 = static_cast<int>(fy);
  return {x0, y0, std::min(x0 + 1, frame.width() - 1),
          std::min(y0 + 1, frame.height() - 1), fx - x0, fy - y0};
}

/// Blends one plane at `t`; `get(x, y)` reads that plane at full resolution.
template <typename Get>
uint8_t Blend(const BilinearTap& t, Get get) {
  double v = get(t.x0, t.y0) * (1 - t.ax) * (1 - t.ay) +
             get(t.x1, t.y0) * t.ax * (1 - t.ay) +
             get(t.x0, t.y1) * (1 - t.ax) * t.ay + get(t.x1, t.y1) * t.ax * t.ay;
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

}  // namespace

StatusOr<video::Frame> StitchEquirect(const std::array<const video::Frame*, 4>& faces,
                                      const std::array<sim::Camera, 4>& cameras,
                                      int out_width, int out_height,
                                      double forward_yaw) {
  for (const video::Frame* face : faces) {
    if (face == nullptr || face->Empty()) {
      return Status::InvalidArgument("stitcher requires four non-empty faces");
    }
  }
  if (out_width <= 0 || out_height <= 0) {
    return Status::InvalidArgument("invalid panorama resolution");
  }

  // Longitude trig depends only on the column, latitude trig only on the row
  // and the focal length only on the face: compute each once.
  std::vector<double> cos_lon(out_width), sin_lon(out_width);
  for (int x = 0; x < out_width; ++x) {
    // Longitude from -pi to +pi around the forward yaw.
    double lon = forward_yaw + (x + 0.5) / out_width * 2.0 * kPi - kPi;
    cos_lon[x] = std::cos(lon);
    sin_lon[x] = std::sin(lon);
  }
  std::array<double, 4> focal;
  for (size_t f = 0; f < 4; ++f) focal[f] = cameras[f].intrinsics().Focal();

  video::Frame out(out_width, out_height);
  for (int y = 0; y < out_height; ++y) {
    // Latitude from +pi/2 (top) to -pi/2 (bottom).
    double lat = kPi / 2.0 - (y + 0.5) / out_height * kPi;
    double cos_lat = std::cos(lat), sin_lat = std::sin(lat);
    // A 2x2 chroma cell holds the chroma of the last pixel that wrote it in
    // row-major order: its odd row and column, or the last row or column at
    // odd sizes. Only that pixel blends U and V.
    bool chroma_row = y % 2 == 1 || y == out_height - 1;
    for (int x = 0; x < out_width; ++x) {
      Vec3 dir{cos_lat * cos_lon[x], cos_lat * sin_lon[x], sin_lat};

      // Select the face whose optical axis is most aligned.
      size_t best_face = 0;
      double best_dot = -2.0;
      for (size_t f = 0; f < 4; ++f) {
        double d = dir.Dot(cameras[f].forward());
        if (d > best_dot) {
          best_dot = d;
          best_face = f;
        }
      }
      const sim::Camera& camera = cameras[best_face];
      // Project the direction through the face camera.
      Vec3 cam{dir.Dot(camera.right()), dir.Dot(camera.up()),
               dir.Dot(camera.forward())};
      // Behind the face: keep the frame's initial black (Y=0, U=V=128).
      if (cam.z <= 1e-6) continue;
      double px = camera.intrinsics().width / 2.0 + focal[best_face] * cam.x / cam.z;
      double py = camera.intrinsics().height / 2.0 - focal[best_face] * cam.y / cam.z;
      const video::Frame& face = *faces[best_face];
      BilinearTap tap = ClampedTap(face, px, py);
      out.SetY(x, y, Blend(tap, [&](int sx, int sy) { return face.Y(sx, sy); }));
      if (chroma_row && (x % 2 == 1 || x == out_width - 1)) {
        out.SetChroma(x, y, Blend(tap, [&](int sx, int sy) { return face.U(sx, sy); }),
                      Blend(tap, [&](int sx, int sy) { return face.V(sx, sy); }));
      }
    }
  }
  return out;
}

StatusOr<video::Video> StitchEquirectVideo(
    const std::array<const video::Video*, 4>& faces,
    const std::array<sim::Camera, 4>& cameras, int out_width, int out_height,
    double forward_yaw) {
  size_t frame_count = SIZE_MAX;
  for (const video::Video* face : faces) {
    if (face == nullptr) return Status::InvalidArgument("missing face video");
    frame_count = std::min(frame_count, face->frames.size());
  }
  if (frame_count == 0 || frame_count == SIZE_MAX) {
    return Status::InvalidArgument("empty face videos");
  }
  video::Video out;
  out.fps = faces[0]->fps;
  out.frames.reserve(frame_count);
  for (size_t i = 0; i < frame_count; ++i) {
    std::array<const video::Frame*, 4> frame_faces{
        &faces[0]->frames[i], &faces[1]->frames[i], &faces[2]->frames[i],
        &faces[3]->frames[i]};
    VR_ASSIGN_OR_RETURN(video::Frame stitched,
                        StitchEquirect(frame_faces, cameras, out_width, out_height,
                                       forward_yaw));
    out.frames.push_back(std::move(stitched));
  }
  return out;
}

}  // namespace visualroad::vision
