#ifndef VISUALROAD_VISION_CONVNET_H_
#define VISUALROAD_VISION_CONVNET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "vision/tensor.h"

namespace visualroad::vision {

/// A 3x3 (or 1x1) convolution layer with bias, optional stride, and
/// zero padding, executed as a direct convolution that accumulates one output
/// row at a time (each output sums its taps in the same order as a per-pixel
/// loop, so results do not depend on the loop structure).
class Conv2d {
 public:
  /// Initialises He-style random weights from `seed` (deterministic).
  Conv2d(int in_channels, int out_channels, int kernel, int stride, uint64_t seed);

  Tensor Forward(const Tensor& input) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  /// Weights in [out][in][ky][kx] order, and one bias per output channel.
  const std::vector<float>& weights() const { return weights_; }
  const std::vector<float>& bias() const { return bias_; }
  /// Output height (width) of a forward pass over an input of this height
  /// (width): (size + 2 * (kernel / 2) - kernel) / stride + 1.
  int OutputSize(int input_size) const;
  /// Multiply-accumulate operations per forward pass of an input of the
  /// given spatial size — used for FLOP accounting in benches.
  int64_t MacsFor(int height, int width) const;

 private:
  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  std::vector<float> weights_;  // [out][in][k][k]
  std::vector<float> bias_;
};

/// 2x2 max pooling with stride 2.
Tensor MaxPool2x2(const Tensor& input);

/// Leaky ReLU (slope 0.1), in place.
void LeakyRelu(Tensor& tensor);

}  // namespace visualroad::vision

#endif  // VISUALROAD_VISION_CONVNET_H_
