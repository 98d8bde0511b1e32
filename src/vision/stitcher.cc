#include "vision/stitcher.h"

#include <algorithm>
#include <cmath>

#include "video/codec/codec.h"

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

/// Longitude trig depends only on the column and the focal length only on
/// the face, so both are computed once per output size and rig.
struct StitchGeometry {
  std::vector<double> cos_lon, sin_lon;
  std::array<double, 4> focal;
};

StitchGeometry MakeGeometry(const std::array<sim::Camera, 4>& cameras, int out_width,
                            double forward_yaw) {
  StitchGeometry geometry;
  geometry.cos_lon.resize(out_width);
  geometry.sin_lon.resize(out_width);
  for (int x = 0; x < out_width; ++x) {
    // Longitude from -pi to +pi around the forward yaw.
    double lon = forward_yaw + (x + 0.5) / out_width * 2.0 * kPi - kPi;
    geometry.cos_lon[x] = std::cos(lon);
    geometry.sin_lon[x] = std::sin(lon);
  }
  for (size_t f = 0; f < 4; ++f) geometry.focal[f] = cameras[f].intrinsics().Focal();
  return geometry;
}

Status CheckFaces(const std::array<const video::Frame*, 4>& faces) {
  for (const video::Frame* face : faces) {
    if (face == nullptr || face->Empty()) {
      return Status::InvalidArgument("stitcher requires four non-empty faces");
    }
  }
  return Status::Ok();
}

/// Writes row `y` of `out`. Rows are independent: each writes its own luma
/// row, and each chroma row is written by exactly one luma row (see below),
/// so row bands may run concurrently into one frame.
void StitchRow(const std::array<const video::Frame*, 4>& faces,
               const std::array<sim::Camera, 4>& cameras,
               const StitchGeometry& geometry, int y, video::Frame& out) {
  const int out_width = out.width(), out_height = out.height();
  // Latitude from +pi/2 (top) to -pi/2 (bottom).
  double lat = kPi / 2.0 - (y + 0.5) / out_height * kPi;
  double cos_lat = std::cos(lat), sin_lat = std::sin(lat);
  // A 2x2 chroma cell holds the chroma of the last pixel that wrote it in
  // row-major order: its odd row and column, or the last row or column at
  // odd sizes. Only that pixel blends U and V.
  bool chroma_row = y % 2 == 1 || y == out_height - 1;
  for (int x = 0; x < out_width; ++x) {
    Vec3 dir{cos_lat * geometry.cos_lon[x], cos_lat * geometry.sin_lon[x], sin_lat};

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
    Vec3 cam{dir.Dot(camera.right()), dir.Dot(camera.up()), dir.Dot(camera.forward())};
    // Behind the face: keep the frame's initial black (Y=0, U=V=128).
    if (cam.z <= 1e-6) continue;
    double focal = geometry.focal[best_face];
    double px = camera.intrinsics().width / 2.0 + focal * cam.x / cam.z;
    double py = camera.intrinsics().height / 2.0 - focal * cam.y / cam.z;
    const video::Frame& face = *faces[best_face];
    BilinearTap tap = ClampedTap(face, px, py);
    out.SetY(x, y, Blend(tap, [&](int sx, int sy) { return face.Y(sx, sy); }));
    if (chroma_row && (x % 2 == 1 || x == out_width - 1)) {
      out.SetChroma(x, y, Blend(tap, [&](int sx, int sy) { return face.U(sx, sy); }),
                    Blend(tap, [&](int sx, int sy) { return face.V(sx, sy); }));
    }
  }
}

}  // namespace

StatusOr<video::Frame> StitchEquirect(const std::array<const video::Frame*, 4>& faces,
                                      const std::array<sim::Camera, 4>& cameras,
                                      int out_width, int out_height,
                                      double forward_yaw, int width) {
  VR_RETURN_IF_ERROR(CheckFaces(faces));
  if (out_width <= 0 || out_height <= 0) {
    return Status::InvalidArgument("invalid panorama resolution");
  }
  StitchGeometry geometry = MakeGeometry(cameras, out_width, forward_yaw);
  video::Frame out(out_width, out_height);
  VR_RETURN_IF_ERROR(video::codec::CodecParallelFor(width, out_height, [&](int y) {
    StitchRow(faces, cameras, geometry, y, out);
    return Status::Ok();
  }));
  return out;
}

StatusOr<video::Video> StitchEquirectVideo(
    const std::array<const video::Video*, 4>& faces,
    const std::array<sim::Camera, 4>& cameras, int out_width, int out_height,
    double forward_yaw, int width) {
  size_t frame_count = SIZE_MAX;
  for (const video::Video* face : faces) {
    if (face == nullptr) return Status::InvalidArgument("missing face video");
    frame_count = std::min(frame_count, face->frames.size());
  }
  if (frame_count == 0 || frame_count == SIZE_MAX) {
    return Status::InvalidArgument("empty face videos");
  }
  if (out_width <= 0 || out_height <= 0) {
    return Status::InvalidArgument("invalid panorama resolution");
  }
  auto frame_faces = [&](size_t i) {
    return std::array<const video::Frame*, 4>{&faces[0]->frames[i], &faces[1]->frames[i],
                                              &faces[2]->frames[i], &faces[3]->frames[i]};
  };
  for (size_t i = 0; i < frame_count; ++i) VR_RETURN_IF_ERROR(CheckFaces(frame_faces(i)));

  StitchGeometry geometry = MakeGeometry(cameras, out_width, forward_yaw);
  video::Video out;
  out.fps = faces[0]->fps;
  // Output frames are allocated here, on the calling thread. One unit is one
  // output row; the pool runs contiguous bands of rows.
  out.frames.assign(frame_count, video::Frame(out_width, out_height));
  VR_RETURN_IF_ERROR(video::codec::CodecParallelFor(
      width, static_cast<int>(frame_count) * out_height, [&](int unit) {
        size_t i = static_cast<size_t>(unit / out_height);
        StitchRow(frame_faces(i), cameras, geometry, unit % out_height, out.frames[i]);
        return Status::Ok();
      }));
  return out;
}

}  // namespace visualroad::vision
