#include "video/image_ops.h"

#include <algorithm>
#include <cmath>

#include "video/kernels/kernels.h"

namespace visualroad::video {

namespace {

uint8_t ClampByte(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

/// Samples a plane with edge clamping.
uint8_t PlaneAt(const std::vector<uint8_t>& plane, int w, int h, int x, int y) {
  x = std::clamp(x, 0, w - 1);
  y = std::clamp(y, 0, h - 1);
  return plane[static_cast<size_t>(y) * w + x];
}

double BilinearPlane(const std::vector<uint8_t>& plane, int w, int h, double fx,
                     double fy) {
  int x0 = static_cast<int>(std::floor(fx));
  int y0 = static_cast<int>(std::floor(fy));
  double ax = fx - x0, ay = fy - y0;
  double p00 = PlaneAt(plane, w, h, x0, y0);
  double p10 = PlaneAt(plane, w, h, x0 + 1, y0);
  double p01 = PlaneAt(plane, w, h, x0, y0 + 1);
  double p11 = PlaneAt(plane, w, h, x0 + 1, y0 + 1);
  return (p00 * (1 - ax) + p10 * ax) * (1 - ay) + (p01 * (1 - ax) + p11 * ax) * ay;
}

void Convolve1d(const std::vector<uint8_t>& src, std::vector<uint8_t>& dst, int w,
                int h, const std::vector<double>& kernel, bool horizontal) {
  int radius = static_cast<int>(kernel.size()) / 2;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double sum = 0.0;
      for (int k = -radius; k <= radius; ++k) {
        int sx = horizontal ? x + k : x;
        int sy = horizontal ? y : y + k;
        sum += kernel[k + radius] * PlaneAt(src, w, h, sx, sy);
      }
      dst[static_cast<size_t>(y) * w + x] = ClampByte(sum);
    }
  }
}

void SeparableBlurPlane(std::vector<uint8_t>& plane, int w, int h,
                        const std::vector<double>& kernel) {
  std::vector<uint8_t> tmp(plane.size());
  Convolve1d(plane, tmp, w, h, kernel, /*horizontal=*/true);
  Convolve1d(tmp, plane, w, h, kernel, /*horizontal=*/false);
}

}  // namespace

StatusOr<Frame> Crop(const Frame& frame, const RectI& rect) {
  RectI r = rect.Clamp(frame.width(), frame.height());
  if (r.Empty()) {
    return Status::InvalidArgument("crop rectangle is empty after clamping");
  }
  Frame out(r.Width(), r.Height());
  for (int y = 0; y < r.Height(); ++y) {
    for (int x = 0; x < r.Width(); ++x) {
      out.SetPixel(x, y, frame.Y(r.x0 + x, r.y0 + y), frame.U(r.x0 + x, r.y0 + y),
                   frame.V(r.x0 + x, r.y0 + y));
    }
  }
  return out;
}

StatusOr<Frame> BilinearResize(const Frame& frame, int new_width, int new_height) {
  if (new_width <= 0 || new_height <= 0) {
    return Status::InvalidArgument("resize target must be positive");
  }
  if (frame.Empty()) return Status::InvalidArgument("resize of empty frame");
  Frame out(new_width, new_height);
  double sx = static_cast<double>(frame.width()) / new_width;
  double sy = static_cast<double>(frame.height()) / new_height;
  for (int y = 0; y < new_height; ++y) {
    for (int x = 0; x < new_width; ++x) {
      double fx = (x + 0.5) * sx - 0.5;
      double fy = (y + 0.5) * sy - 0.5;
      out.SetY(x, y, ClampByte(BilinearPlane(frame.y_plane(), frame.width(),
                                             frame.height(), fx, fy)));
    }
  }
  int cw = frame.chroma_width(), ch = frame.chroma_height();
  int ow = out.chroma_width(), oh = out.chroma_height();
  double csx = static_cast<double>(cw) / ow;
  double csy = static_cast<double>(ch) / oh;
  for (int y = 0; y < oh; ++y) {
    for (int x = 0; x < ow; ++x) {
      double fx = (x + 0.5) * csx - 0.5;
      double fy = (y + 0.5) * csy - 0.5;
      size_t idx = static_cast<size_t>(y) * ow + x;
      out.u_plane()[idx] = ClampByte(BilinearPlane(frame.u_plane(), cw, ch, fx, fy));
      out.v_plane()[idx] = ClampByte(BilinearPlane(frame.v_plane(), cw, ch, fx, fy));
    }
  }
  return out;
}

StatusOr<Frame> Downsample(const Frame& frame, int new_width, int new_height) {
  if (new_width <= 0 || new_height <= 0) {
    return Status::InvalidArgument("downsample target must be positive");
  }
  if (new_width > frame.width() || new_height > frame.height()) {
    return Status::InvalidArgument("downsample target exceeds source resolution");
  }
  Frame out(new_width, new_height);
  for (int y = 0; y < new_height; ++y) {
    for (int x = 0; x < new_width; ++x) {
      int sx = static_cast<int>((static_cast<int64_t>(x) * frame.width()) / new_width);
      int sy =
          static_cast<int>((static_cast<int64_t>(y) * frame.height()) / new_height);
      out.SetPixel(x, y, frame.Y(sx, sy), frame.U(sx, sy), frame.V(sx, sy));
    }
  }
  return out;
}

Frame Grayscale(const Frame& frame) {
  Frame out = frame;
  std::fill(out.u_plane().begin(), out.u_plane().end(), 128);
  std::fill(out.v_plane().begin(), out.v_plane().end(), 128);
  return out;
}

std::vector<double> GaussianKernel1d(int d, double sigma) {
  if (sigma <= 0.0) sigma = std::max(0.5, d / 6.0);
  std::vector<double> kernel(d);
  int radius = d / 2;
  double sum = 0.0;
  for (int i = 0; i < d; ++i) {
    double x = i - radius;
    kernel[i] = std::exp(-(x * x) / (2.0 * sigma * sigma));
    sum += kernel[i];
  }
  for (double& k : kernel) k /= sum;
  return kernel;
}

StatusOr<Frame> GaussianBlur(const Frame& frame, int d, double sigma) {
  if (d < 1 || d % 2 == 0) {
    return Status::InvalidArgument("blur kernel size must be odd and positive");
  }
  if (frame.Empty()) return Status::InvalidArgument("blur of empty frame");
  std::vector<double> kernel = GaussianKernel1d(d, sigma);
  Frame out = frame;
  SeparableBlurPlane(out.y_plane(), out.width(), out.height(), kernel);
  SeparableBlurPlane(out.u_plane(), out.chroma_width(), out.chroma_height(), kernel);
  SeparableBlurPlane(out.v_plane(), out.chroma_width(), out.chroma_height(), kernel);
  return out;
}

Video PMap(const Video& input, const std::function<Yuv(const Yuv&)>& fn) {
  Video out;
  out.fps = input.fps;
  out.frames.reserve(input.frames.size());
  for (const Frame& frame : input.frames) {
    Frame result(frame.width(), frame.height());
    for (int y = 0; y < frame.height(); ++y) {
      for (int x = 0; x < frame.width(); ++x) {
        Yuv mapped = fn({frame.Y(x, y), frame.U(x, y), frame.V(x, y)});
        result.SetPixel(x, y, mapped.y, mapped.u, mapped.v);
      }
    }
    out.frames.push_back(std::move(result));
  }
  return out;
}

Video FMap(const Video& input, const std::function<Frame(const Frame&)>& fn) {
  Video out;
  out.fps = input.fps;
  out.frames.reserve(input.frames.size());
  for (const Frame& frame : input.frames) out.frames.push_back(fn(frame));
  return out;
}

StatusOr<Video> JoinP(const Video& left, const Video& right,
                      const std::function<Yuv(const Yuv&, const Yuv&)>& projection) {
  if (left.Width() != right.Width() || left.Height() != right.Height()) {
    return Status::InvalidArgument("JoinP inputs must share a resolution");
  }
  Video out;
  out.fps = left.fps;
  size_t n = std::min(left.frames.size(), right.frames.size());
  out.frames.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Frame& a = left.frames[i];
    const Frame& b = right.frames[i];
    Frame result(a.width(), a.height());
    for (int y = 0; y < a.height(); ++y) {
      for (int x = 0; x < a.width(); ++x) {
        Yuv merged = projection({a.Y(x, y), a.U(x, y), a.V(x, y)},
                                {b.Y(x, y), b.U(x, y), b.V(x, y)});
        result.SetPixel(x, y, merged.y, merged.u, merged.v);
      }
    }
    out.frames.push_back(std::move(result));
  }
  return out;
}

Yuv OmegaCoalesce(const Yuv& base, const Yuv& overlay) {
  return IsOmega(overlay) ? base : overlay;
}

StatusOr<Frame> MeanFrame(const std::vector<const Frame*>& frames) {
  if (frames.empty()) return Status::InvalidArgument("mean of zero frames");
  int w = frames.front()->width(), h = frames.front()->height();
  for (const Frame* f : frames) {
    if (f->width() != w || f->height() != h) {
      return Status::InvalidArgument("mean-filter frames must share a resolution");
    }
  }
  Frame out(w, h);
  const kernels::KernelTable& kt = kernels::Kernels();
  std::vector<uint32_t> acc(out.y_plane().size(), 0);
  for (const Frame* f : frames) {
    const auto& plane = f->y_plane();
    kt.accumulate_row(plane.data(), static_cast<int>(plane.size()), 1, acc.data());
  }
  for (size_t i = 0; i < acc.size(); ++i) {
    out.y_plane()[i] = static_cast<uint8_t>(acc[i] / frames.size());
  }
  std::vector<uint32_t> acc_u(out.u_plane().size(), 0), acc_v(out.v_plane().size(), 0);
  for (const Frame* f : frames) {
    kt.accumulate_row(f->u_plane().data(), static_cast<int>(acc_u.size()), 1,
                      acc_u.data());
    kt.accumulate_row(f->v_plane().data(), static_cast<int>(acc_v.size()), 1,
                      acc_v.data());
  }
  kernels::CountKernelCalls(kernels::Kernel::kAccumulateRow,
                            3 * static_cast<uint64_t>(frames.size()));
  for (size_t i = 0; i < acc_u.size(); ++i) {
    out.u_plane()[i] = static_cast<uint8_t>(acc_u[i] / frames.size());
    out.v_plane()[i] = static_cast<uint8_t>(acc_v[i] / frames.size());
  }
  return out;
}

StatusOr<Frame> MaskAgainstBackground(const Frame& frame, const Frame& background,
                                      double epsilon) {
  Frame out;
  VR_RETURN_IF_ERROR(MaskAgainstBackground(frame, background, epsilon, out));
  return out;
}

Status MaskAgainstBackground(const Frame& frame, const Frame& background,
                             double epsilon, Frame& out) {
  if (frame.width() != background.width() || frame.height() != background.height()) {
    return Status::InvalidArgument("mask inputs must share a resolution");
  }
  const int w = frame.width(), h = frame.height();
  if (out.width() != w || out.height() != h) out = Frame(w, h);
  // |(p_v - p_b) / p_v| < epsilon means "static": emit omega. The zero-pixel
  // guard (static only when the background is also zero) lives in the kernel.
  const kernels::KernelTable& kt = kernels::Kernels();
  std::vector<uint8_t> mask(static_cast<size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    kt.mask_static_row(frame.y_plane().data() + static_cast<size_t>(y) * w,
                       background.y_plane().data() + static_cast<size_t>(y) * w,
                       epsilon, w, mask.data() + static_cast<size_t>(y) * w);
  }
  kernels::CountKernelCalls(kernels::Kernel::kMaskStaticRow,
                            static_cast<uint64_t>(h));
  for (size_t i = 0; i < mask.size(); ++i) {
    out.y_plane()[i] = mask[i] ? kOmega.y : frame.y_plane()[i];
  }
  // The per-pixel SetPixel formulation wrote each subsampled chroma cell once
  // per covered pixel, so the bottom-right pixel of every 2x2 block decided
  // the cell. Reproduce that last-writer-wins result directly.
  const int cw = out.chroma_width(), ch = out.chroma_height();
  for (int cy = 0; cy < ch; ++cy) {
    int ly = std::min(2 * cy + 1, h - 1);
    for (int cx = 0; cx < cw; ++cx) {
      int lx = std::min(2 * cx + 1, w - 1);
      size_t idx = static_cast<size_t>(cy) * cw + cx;
      if (mask[static_cast<size_t>(ly) * w + lx]) {
        out.u_plane()[idx] = kOmega.u;
        out.v_plane()[idx] = kOmega.v;
      } else {
        out.u_plane()[idx] = frame.u_plane()[idx];
        out.v_plane()[idx] = frame.v_plane()[idx];
      }
    }
  }
  return Status::Ok();
}

}  // namespace visualroad::video
