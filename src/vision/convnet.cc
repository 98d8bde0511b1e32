#include "vision/convnet.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace visualroad::vision {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               uint64_t seed)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      weights_(static_cast<size_t>(out_channels) * in_channels * kernel * kernel),
      bias_(out_channels) {
  Pcg32 rng = SubStream(seed, "conv-weights");
  double scale = std::sqrt(2.0 / (in_channels * kernel * kernel));
  for (float& w : weights_) w = static_cast<float>(rng.NextGaussian(0.0, scale));
  for (float& b : bias_) b = static_cast<float>(rng.NextGaussian(0.0, 0.01));
}

int Conv2d::OutputSize(int input_size) const {
  return (input_size + 2 * (kernel_ / 2) - kernel_) / stride_ + 1;
}

Tensor Conv2d::Forward(const Tensor& input) const {
  const int pad = kernel_ / 2;
  const int in_h = input.height(), in_w = input.width();
  const int out_h = OutputSize(in_h), out_w = OutputSize(in_w);
  Tensor output(out_channels_, out_h, out_w);

  // Tap column kx reads input column ox * stride + kx - pad, which is inside
  // the input exactly for output columns [first_ox[kx], end_ox[kx]).
  std::vector<int> first_ox(kernel_), end_ox(kernel_);
  for (int kx = 0; kx < kernel_; ++kx) {
    int offset = kx - pad;
    first_ox[kx] = offset >= 0 ? 0 : (stride_ - 1 - offset) / stride_;
    end_ox[kx] = in_w - offset <= 0 ? 0 : std::min(out_w, (in_w - 1 - offset) / stride_ + 1);
  }

  // One output row at a time: every output still sums bias + its in-bounds
  // taps in (ic, ky, kx) order, so the result is bit-identical to a
  // per-pixel loop, but the innermost loop runs along the row.
  for (int oc = 0; oc < out_channels_; ++oc) {
    for (int oy = 0; oy < out_h; ++oy) {
      float* acc = output.Channel(oc) + static_cast<size_t>(oy) * out_w;
      std::fill(acc, acc + out_w, bias_[oc]);
      for (int ic = 0; ic < in_channels_; ++ic) {
        const float* in_channel = input.Channel(ic);
        const float* w = &weights_[((static_cast<size_t>(oc) * in_channels_ + ic) *
                                    kernel_) *
                                   kernel_];
        for (int ky = 0; ky < kernel_; ++ky) {
          int iy = oy * stride_ - pad + ky;
          if (iy < 0 || iy >= in_h) continue;
          const float* row = in_channel + static_cast<size_t>(iy) * in_w;
          for (int kx = 0; kx < kernel_; ++kx) {
            const int first = first_ox[kx], end = end_ox[kx];
            if (first >= end) continue;
            const float tap = w[ky * kernel_ + kx];
            const float* src = row + (first * stride_ + kx - pad);
            if (stride_ == 1) {
              for (int ox = first; ox < end; ++ox) acc[ox] += tap * src[ox - first];
            } else {
              for (int ox = first; ox < end; ++ox) {
                acc[ox] += tap * src[(ox - first) * stride_];
              }
            }
          }
        }
      }
    }
  }
  return output;
}

int64_t Conv2d::MacsFor(int height, int width) const {
  return static_cast<int64_t>(out_channels_) * in_channels_ * kernel_ * kernel_ *
         OutputSize(height) * OutputSize(width);
}

Tensor MaxPool2x2(const Tensor& input) {
  int out_h = input.height() / 2, out_w = input.width() / 2;
  Tensor output(input.channels(), out_h, out_w);
  for (int c = 0; c < input.channels(); ++c) {
    for (int y = 0; y < out_h; ++y) {
      for (int x = 0; x < out_w; ++x) {
        float m = input.At(c, y * 2, x * 2);
        m = std::max(m, input.At(c, y * 2, x * 2 + 1));
        m = std::max(m, input.At(c, y * 2 + 1, x * 2));
        m = std::max(m, input.At(c, y * 2 + 1, x * 2 + 1));
        output.At(c, y, x) = m;
      }
    }
  }
  return output;
}

void LeakyRelu(Tensor& tensor) {
  for (float& v : tensor.data()) {
    if (v < 0) v *= 0.1f;
  }
}

}  // namespace visualroad::vision
