#include "vision/background.h"

#include <algorithm>

#include "video/codec/codec.h"
#include "video/image_ops.h"
#include "video/kernels/kernels.h"

namespace visualroad::vision {

namespace {

Status Validate(const video::Video& input, int m, double epsilon) {
  if (input.frames.empty()) return Status::InvalidArgument("empty input video");
  if (m < 1) return Status::InvalidArgument("window size must be positive");
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must lie in (0, 1)");
  }
  return Status::Ok();
}

/// Builds the mean frame from integer plane accumulators.
video::Frame MeanFromSums(const std::vector<uint32_t>& y_sum,
                          const std::vector<uint32_t>& u_sum,
                          const std::vector<uint32_t>& v_sum, int count, int width,
                          int height) {
  video::Frame mean(width, height);
  for (size_t i = 0; i < y_sum.size(); ++i) {
    mean.y_plane()[i] = static_cast<uint8_t>(y_sum[i] / count);
  }
  for (size_t i = 0; i < u_sum.size(); ++i) {
    mean.u_plane()[i] = static_cast<uint8_t>(u_sum[i] / count);
    mean.v_plane()[i] = static_cast<uint8_t>(v_sum[i] / count);
  }
  return mean;
}

}  // namespace

StatusOr<video::Video> MaskBackgroundRunning(const video::Video& input, int m,
                                             double epsilon) {
  VR_RETURN_IF_ERROR(Validate(input, m, epsilon));
  int n = input.FrameCount();
  int width = input.Width(), height = input.Height();

  std::vector<uint32_t> y_sum(input.frames[0].y_plane().size(), 0);
  std::vector<uint32_t> u_sum(input.frames[0].u_plane().size(), 0);
  std::vector<uint32_t> v_sum(input.frames[0].v_plane().size(), 0);

  // Signed adds on uint32 accumulators wrap exactly like the previous
  // int64-then-truncate formulation, so the vector kernel is bit-exact.
  const video::kernels::KernelTable& kt = video::kernels::Kernels();
  auto add = [&](const video::Frame& f, int sign) {
    kt.accumulate_row(f.y_plane().data(), static_cast<int>(f.y_plane().size()),
                      sign, y_sum.data());
    kt.accumulate_row(f.u_plane().data(), static_cast<int>(f.u_plane().size()),
                      sign, u_sum.data());
    kt.accumulate_row(f.v_plane().data(), static_cast<int>(f.v_plane().size()),
                      sign, v_sum.data());
    video::kernels::CountKernelCalls(video::kernels::Kernel::kAccumulateRow, 3);
  };

  // Prime the first window [0, min(m, n)).
  int window_end = std::min(m, n);
  for (int k = 0; k < window_end; ++k) add(input.frames[k], +1);
  int window_start = 0;

  video::Video out;
  out.fps = input.fps;
  out.frames.reserve(n);
  for (int j = 0; j < n; ++j) {
    // Slide the window so it covers [j, j+m) truncated at n.
    while (window_start < j) {
      add(input.frames[window_start], -1);
      ++window_start;
    }
    while (window_end < std::min(j + m, n)) {
      add(input.frames[window_end], +1);
      ++window_end;
    }
    int count = window_end - window_start;
    video::Frame background =
        MeanFromSums(y_sum, u_sum, v_sum, count, width, height);
    VR_ASSIGN_OR_RETURN(video::Frame masked,
                        video::MaskAgainstBackground(input.frames[j], background,
                                                     epsilon));
    out.frames.push_back(std::move(masked));
  }
  return out;
}

StatusOr<video::Video> MaskBackgroundNaive(const video::Video& input, int m,
                                           double epsilon, int width) {
  VR_RETURN_IF_ERROR(Validate(input, m, epsilon));
  int n = input.FrameCount();
  video::Video out;
  out.fps = input.fps;
  // Output frames are allocated here, on the calling thread; each frame task
  // only fills its own.
  out.frames.assign(n, video::Frame(input.Width(), input.Height()));
  VR_RETURN_IF_ERROR(video::codec::CodecParallelFor(width, n, [&](int j) -> Status {
    std::vector<const video::Frame*> window;
    for (int k = j; k < std::min(j + m, n); ++k) window.push_back(&input.frames[k]);
    VR_ASSIGN_OR_RETURN(video::Frame background, video::MeanFrame(window));
    return video::MaskAgainstBackground(input.frames[j], background, epsilon,
                                        out.frames[j]);
  }));
  return out;
}

}  // namespace visualroad::vision
