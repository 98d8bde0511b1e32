#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/random.h"
#include "simulation/city.h"
#include "simulation/render/scene_renderer.h"
#include "video/color.h"
#include "video/metrics.h"
#include "vision/alpr.h"
#include "vision/background.h"
#include "vision/convnet.h"
#include "vision/font.h"
#include "vision/miniyolo.h"
#include "vision/overlay.h"
#include "vision/stitcher.h"
#include "vision/tiling.h"

namespace visualroad::vision {
namespace {

using video::Frame;
using video::Video;

Frame GradientFrame(int w, int h, int shift = 0) {
  Frame frame(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      frame.SetPixel(x, y, static_cast<uint8_t>((x * 3 + y * 2 + shift) & 0xFF),
                     static_cast<uint8_t>(100 + (x & 15)),
                     static_cast<uint8_t>(150 - (y & 15)));
    }
  }
  return frame;
}

Video GradientVideo(int w, int h, int frames) {
  Video v;
  v.fps = 15;
  for (int f = 0; f < frames; ++f) v.frames.push_back(GradientFrame(w, h, f * 4));
  return v;
}

// --- Tensor & convnet ---

TEST(TensorTest, IndexingIsChw) {
  Tensor t(2, 3, 4);
  t.At(1, 2, 3) = 7.5f;
  EXPECT_FLOAT_EQ(t.Channel(1)[2 * 4 + 3], 7.5f);
  EXPECT_EQ(t.size(), 24u);
}

TEST(ConvTest, OutputShapeWithPaddingAndStride) {
  Conv2d conv(3, 8, 3, 1, 1);
  Tensor input(3, 16, 20);
  Tensor output = conv.Forward(input);
  EXPECT_EQ(output.channels(), 8);
  EXPECT_EQ(output.height(), 16);
  EXPECT_EQ(output.width(), 20);
}

TEST(ConvTest, StrideTwoHalvesSpatialSize) {
  Conv2d conv(1, 4, 3, 2, 2);
  Tensor input(1, 16, 16);
  Tensor output = conv.Forward(input);
  EXPECT_EQ(output.height(), 8);
  EXPECT_EQ(output.width(), 8);
}

TEST(ConvTest, DeterministicWeights) {
  Conv2d a(3, 4, 3, 1, 55), b(3, 4, 3, 1, 55);
  Tensor input(3, 8, 8);
  for (size_t i = 0; i < input.data().size(); ++i) {
    input.data()[i] = static_cast<float>(i % 13) * 0.1f;
  }
  Tensor out_a = a.Forward(input);
  Tensor out_b = b.Forward(input);
  EXPECT_EQ(out_a.data(), out_b.data());
}

TEST(ConvTest, ZeroInputGivesBiasOutput) {
  Conv2d conv(2, 3, 3, 1, 9);
  Tensor input(2, 6, 6);
  Tensor output = conv.Forward(input);
  // All spatial positions of one channel equal that channel's bias.
  for (int c = 0; c < 3; ++c) {
    float reference = output.At(c, 3, 3);
    EXPECT_FLOAT_EQ(output.At(c, 2, 2), reference);
  }
}

TEST(ConvTest, MacsAccounting) {
  Conv2d conv(3, 8, 3, 1, 1);
  EXPECT_EQ(conv.MacsFor(10, 10), static_cast<int64_t>(8) * 3 * 9 * 100);
}

TEST(ConvTest, MacsAccountingMatchesForwardAtOddSizeStrideTwo) {
  Conv2d conv(3, 4, 3, 2, 1);
  Tensor output = conv.Forward(Tensor(3, 31, 31));
  ASSERT_EQ(output.height(), 16);
  ASSERT_EQ(output.width(), 16);
  EXPECT_EQ(conv.OutputSize(31), 16);
  EXPECT_EQ(conv.MacsFor(31, 31), static_cast<int64_t>(4) * 3 * 9 * 16 * 16);
}

TEST(ConvTest, MacsAccountingMatchesForwardForEvenKernel) {
  Conv2d conv(2, 3, 2, 1, 1);
  Tensor output = conv.Forward(Tensor(2, 10, 9));
  ASSERT_EQ(output.height(), 11);
  ASSERT_EQ(output.width(), 10);
  EXPECT_EQ(conv.MacsFor(10, 9), static_cast<int64_t>(3) * 2 * 4 * 11 * 10);
}

/// FNV-1a over the tensor's float bit patterns.
uint64_t TensorDigest(const Tensor& tensor) {
  uint64_t hash = 1469598103934665603ULL;
  for (float v : tensor.data()) {
    uint32_t bits = std::bit_cast<uint32_t>(v);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void ExpectBitIdentical(const Tensor& actual, const Tensor& expected) {
  ASSERT_EQ(actual.channels(), expected.channels());
  ASSERT_EQ(actual.height(), expected.height());
  ASSERT_EQ(actual.width(), expected.width());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(actual.data()[i]),
              std::bit_cast<uint32_t>(expected.data()[i]))
        << "element " << i << ": " << actual.data()[i] << " vs " << expected.data()[i];
  }
}

/// The per-pixel direct convolution: the oracle for Conv2d::Forward, which
/// must add the same terms in the same (ic, ky, kx) order for every output.
Tensor NaiveConvForward(const Conv2d& conv, const Tensor& input) {
  int kernel = conv.kernel(), stride = conv.stride(), pad = kernel / 2;
  int out_h = (input.height() + 2 * pad - kernel) / stride + 1;
  int out_w = (input.width() + 2 * pad - kernel) / stride + 1;
  Tensor output(conv.out_channels(), out_h, out_w);
  for (int oc = 0; oc < conv.out_channels(); ++oc) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float acc = conv.bias()[static_cast<size_t>(oc)];
        int base_y = oy * stride - pad;
        int base_x = ox * stride - pad;
        for (int ic = 0; ic < conv.in_channels(); ++ic) {
          const float* in_channel = input.Channel(ic);
          const float* w =
              &conv.weights()[((static_cast<size_t>(oc) * conv.in_channels() + ic) *
                               kernel) *
                              kernel];
          for (int ky = 0; ky < kernel; ++ky) {
            int iy = base_y + ky;
            if (iy < 0 || iy >= input.height()) continue;
            const float* row = in_channel + static_cast<size_t>(iy) * input.width();
            for (int kx = 0; kx < kernel; ++kx) {
              int ix = base_x + kx;
              if (ix < 0 || ix >= input.width()) continue;
              acc += w[ky * kernel + kx] * row[ix];
            }
          }
        }
        output.At(oc, oy, ox) = acc;
      }
    }
  }
  return output;
}

struct ConvShape {
  int in_channels, out_channels, kernel, stride, height, width;
};

void PrintTo(const ConvShape& s, std::ostream* os) {
  *os << s.in_channels << "->" << s.out_channels << " k" << s.kernel << " s"
      << s.stride << " " << s.height << "x" << s.width;
}

class ConvEquivalence : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvEquivalence, RowWiseMatchesNaive) {
  const ConvShape& shape = GetParam();
  Conv2d conv(shape.in_channels, shape.out_channels, shape.kernel, shape.stride,
              static_cast<uint64_t>(shape.kernel * 10 + shape.stride));
  Pcg32 rng(static_cast<uint64_t>(shape.height * 131 + shape.width));
  for (int trial = 0; trial < 4; ++trial) {
    Tensor input(shape.in_channels, shape.height, shape.width);
    for (float& v : input.data()) {
      // Trial 0 is all signed zeros; the others mix them into Gaussian noise.
      uint32_t pick = trial == 0 ? rng.NextBounded(2) : rng.NextBounded(8);
      v = pick == 0   ? 0.0f
          : pick == 1 ? -0.0f
                      : static_cast<float>(rng.NextGaussian());
    }
    ExpectBitIdentical(conv.Forward(input), NaiveConvForward(conv, input));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvEquivalence,
    ::testing::Values(
        // MiniYolo's layers at a 96x96 input.
        ConvShape{3, 8, 3, 1, 96, 96}, ConvShape{8, 16, 3, 1, 48, 48},
        ConvShape{16, 24, 3, 1, 24, 24}, ConvShape{24, 32, 3, 1, 12, 12},
        ConvShape{32, 8, 1, 1, 12, 12},
        // Stride 2, kernels 1/3/5, odd heights and widths.
        ConvShape{3, 4, 3, 2, 31, 31}, ConvShape{2, 5, 3, 2, 17, 10},
        ConvShape{3, 2, 1, 2, 15, 9}, ConvShape{2, 3, 5, 2, 9, 11},
        ConvShape{4, 3, 5, 1, 13, 7}, ConvShape{2, 3, 1, 1, 7, 5},
        // Inputs smaller than the kernel, and even kernels.
        ConvShape{1, 2, 5, 1, 1, 3}, ConvShape{2, 2, 3, 1, 1, 1},
        ConvShape{1, 3, 5, 2, 2, 2}, ConvShape{2, 3, 2, 1, 10, 9},
        ConvShape{2, 3, 4, 2, 9, 8}));

TEST(ConvnetTest, MaxPoolTakesMaxima) {
  Tensor input(1, 4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) input.At(0, y, x) = static_cast<float>(y * 4 + x);
  }
  Tensor output = MaxPool2x2(input);
  EXPECT_EQ(output.height(), 2);
  EXPECT_FLOAT_EQ(output.At(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(output.At(0, 1, 1), 15.0f);
}

TEST(ConvnetTest, LeakyReluScalesNegatives) {
  Tensor t(1, 1, 4);
  t.data() = {-10.0f, -1.0f, 0.0f, 5.0f};
  LeakyRelu(t);
  EXPECT_FLOAT_EQ(t.data()[0], -1.0f);
  EXPECT_FLOAT_EQ(t.data()[1], -0.1f);
  EXPECT_FLOAT_EQ(t.data()[2], 0.0f);
  EXPECT_FLOAT_EQ(t.data()[3], 5.0f);
}

// --- MiniYolo ---

sim::FrameGroundTruth MakeTruth(std::initializer_list<sim::GroundTruthBox> boxes) {
  sim::FrameGroundTruth truth;
  truth.boxes = boxes;
  return truth;
}

sim::GroundTruthBox MakeBox(int32_t id, sim::ObjectClass cls, RectI rect,
                            double visibility) {
  sim::GroundTruthBox box;
  box.entity_id = id;
  box.object_class = cls;
  box.box = rect;
  box.visible_fraction = visibility;
  return box;
}

TEST(MiniYoloTest, ForwardProducesGridActivations) {
  MiniYolo detector;
  Tensor grid = detector.Forward(GradientFrame(96, 54));
  EXPECT_EQ(grid.channels(), 8);
  EXPECT_EQ(grid.height(), 12);
  EXPECT_EQ(grid.width(), 12);
  EXPECT_GT(detector.MacsPerFrame(), 1000000);
}

TEST(MiniYoloTest, ForwardGridDigestIsStable) {
  // Digests recorded with the per-pixel convolution loop: the row-wise loop
  // must reproduce every activation bit for bit.
  MiniYolo detector;
  EXPECT_EQ(TensorDigest(detector.Forward(GradientFrame(96, 54))),
            0x4b85670b1b1ff8afULL);
  EXPECT_EQ(TensorDigest(detector.Forward(GradientFrame(96, 54, 40))),
            0x38e29b18162da846ULL);
}

TEST(MiniYoloTest, DetectsClearlyVisibleObjects) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 100, 70}, 1.0)});
  int detected = 0;
  for (int f = 0; f < 40; ++f) {
    for (const Detection& d : detector.Detect(frame, truth, f)) {
      if (d.entity_id == 1001) ++detected;
    }
  }
  EXPECT_GT(detected, 25);  // High recall for large fully-visible objects.
}

TEST(MiniYoloTest, NeverDetectsHeavilyOccludedObjects) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 100, 70}, 0.05)});
  for (int f = 0; f < 20; ++f) {
    for (const Detection& d : detector.Detect(frame, truth, f)) {
      EXPECT_NE(d.entity_id, 1001);
    }
  }
}

TEST(MiniYoloTest, NeverDetectsTinyObjects) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 42, 32}, 1.0)});
  for (int f = 0; f < 20; ++f) {
    EXPECT_TRUE(detector.Detect(frame, truth, f).empty() ||
                detector.Detect(frame, truth, f)[0].entity_id != 1001);
  }
}

TEST(MiniYoloTest, DeterministicPerFrameAndEntity) {
  MiniYolo a, b;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {40, 30, 100, 70}, 0.8),
                          MakeBox(2002, sim::ObjectClass::kPedestrian,
                                  {110, 20, 130, 60}, 0.9)});
  for (int f = 0; f < 10; ++f) {
    auto da = a.Detect(frame, truth, f);
    auto db = b.Detect(frame, truth, f);
    ASSERT_EQ(da.size(), db.size());
    for (size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].box, db[i].box);
      EXPECT_DOUBLE_EQ(da[i].score, db[i].score);
    }
  }
}

TEST(MiniYoloTest, EmptyTruthYieldsAtMostFalsePositives) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  sim::FrameGroundTruth empty;
  int false_positives = 0;
  for (int f = 0; f < 200; ++f) {
    false_positives += static_cast<int>(detector.Detect(frame, empty, f).size());
  }
  // Around options.false_positives_per_frame * 200 = ~8.
  EXPECT_LT(false_positives, 30);
}

TEST(MiniYoloTest, ScoresSortedDescending) {
  MiniYolo detector;
  Frame frame = GradientFrame(160, 90);
  auto truth = MakeTruth({MakeBox(1001, sim::ObjectClass::kVehicle,
                                  {10, 10, 60, 50}, 1.0),
                          MakeBox(1002, sim::ObjectClass::kVehicle,
                                  {80, 30, 140, 80}, 0.5)});
  auto detections = detector.Detect(frame, truth, 3);
  for (size_t i = 1; i < detections.size(); ++i) {
    EXPECT_GE(detections[i - 1].score, detections[i].score);
  }
}

TEST(MiniYoloTest, ClassColorsAreDistinctNonOmega) {
  video::Yuv vehicle = ClassColor(sim::ObjectClass::kVehicle);
  video::Yuv pedestrian = ClassColor(sim::ObjectClass::kPedestrian);
  EXPECT_FALSE(video::IsOmega(vehicle));
  EXPECT_FALSE(video::IsOmega(pedestrian));
  EXPECT_NE(vehicle, pedestrian);
}

// --- Font & overlay ---

TEST(FontTest, TextWidthScalesLinearly) {
  EXPECT_EQ(TextWidth("AB", 1), 11);
  EXPECT_EQ(TextWidth("AB", 2), 22);
  EXPECT_EQ(TextWidth("", 3), 0);
  EXPECT_EQ(TextHeight(2), 14);
}

TEST(FontTest, DrawTextWritesInkInsideBounds) {
  Frame frame(64, 32);
  DrawText(frame, "HI", 4, 4, 2, {235, 128, 128});
  int ink = 0;
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (frame.Y(x, y) == 235) ++ink;
    }
  }
  EXPECT_GT(ink, 20);
}

TEST(FontTest, DrawTextClipsAtEdges) {
  Frame frame(16, 8);
  DrawText(frame, "WWWWWW", -10, -3, 3, {235, 128, 128});  // Mostly off-frame.
  SUCCEED();  // No crash; clipping handled.
}

TEST(OverlayTest, DetectionFrameFillsClassColor) {
  Detection detection;
  detection.object_class = sim::ObjectClass::kVehicle;
  detection.box = {10, 10, 20, 20};
  detection.score = 0.9;
  Frame frame = RenderDetectionFrame(32, 32, {detection});
  video::Yuv expected = ClassColor(sim::ObjectClass::kVehicle);
  EXPECT_EQ(frame.Y(15, 15), expected.y);
  EXPECT_EQ(frame.Y(5, 5), video::kOmega.y);
  EXPECT_EQ(frame.U(5, 5), video::kOmega.u);
}

TEST(OverlayTest, HigherScoreWinsOverlap) {
  Detection low, high;
  low.object_class = sim::ObjectClass::kVehicle;
  low.box = {0, 0, 20, 20};
  low.score = 0.3;
  high.object_class = sim::ObjectClass::kPedestrian;
  high.box = {10, 10, 30, 30};
  high.score = 0.9;
  Frame frame = RenderDetectionFrame(32, 32, {low, high});
  video::Yuv pedestrian = ClassColor(sim::ObjectClass::kPedestrian);
  EXPECT_EQ(frame.Y(15, 15), pedestrian.y);  // Overlap region.
}

TEST(OverlayTest, CaptionFrameRespectsCueSettings) {
  video::WebVttDocument captions;
  video::WebVttCue cue;
  cue.start_seconds = 0;
  cue.end_seconds = 10;
  cue.line_percent = 50;
  cue.position_percent = 50;
  cue.text = "X";
  captions.cues.push_back(cue);
  Frame frame = RenderCaptionFrame(64, 64, captions, 1.0);
  // Ink near the centre, omega at the corner.
  int centre_ink = 0;
  for (int y = 24; y < 40; ++y) {
    for (int x = 24; x < 40; ++x) {
      if (frame.Y(x, y) > 200) ++centre_ink;
    }
  }
  EXPECT_GT(centre_ink, 3);
  EXPECT_EQ(frame.Y(0, 0), video::kOmega.y);
}

TEST(OverlayTest, InactiveCuesRenderNothing) {
  video::WebVttDocument captions;
  video::WebVttCue cue;
  cue.start_seconds = 5;
  cue.end_seconds = 6;
  cue.text = "LATE";
  captions.cues.push_back(cue);
  Frame frame = RenderCaptionFrame(32, 32, captions, 1.0);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(frame.Y(x, y), video::kOmega.y);
    }
  }
}

TEST(OverlayTest, DetectionSerializationRoundTrips) {
  std::vector<std::vector<Detection>> per_frame(2);
  Detection d;
  d.object_class = sim::ObjectClass::kPedestrian;
  d.box = {1, 2, 3, 4};
  d.score = 0.75;
  d.entity_id = 2007;
  per_frame[0].push_back(d);
  auto parsed = ParseDetections(SerializeDetections(per_frame));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  ASSERT_EQ((*parsed)[0].size(), 1u);
  EXPECT_EQ((*parsed)[0][0].box, (RectI{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ((*parsed)[0][0].score, 0.75);
  EXPECT_EQ((*parsed)[0][0].entity_id, 2007);
  EXPECT_TRUE((*parsed)[1].empty());
}

// --- Background masking ---

class BackgroundEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackgroundEquivalence, RunningMatchesNaive) {
  int m = GetParam();
  Video input = GradientVideo(32, 24, 12);
  // Add a moving bright block so some pixels are dynamic.
  for (int f = 0; f < input.FrameCount(); ++f) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) {
        input.frames[static_cast<size_t>(f)].SetY((f * 2 + x) % 32, (y + f) % 24, 250);
      }
    }
  }
  auto running = MaskBackgroundRunning(input, m, 0.15);
  auto naive = MaskBackgroundNaive(input, m, 0.15);
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(running->FrameCount(), naive->FrameCount());
  for (int f = 0; f < running->FrameCount(); ++f) {
    EXPECT_TRUE(running->frames[static_cast<size_t>(f)].SameContentAs(
        naive->frames[static_cast<size_t>(f)]))
        << "frame " << f << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, BackgroundEquivalence,
                         ::testing::Values(1, 2, 3, 5, 12, 40));

TEST(BackgroundTest, StaticVideoFullyMasked) {
  Video input;
  input.fps = 15;
  Frame constant(16, 16);
  constant.Fill(100, 110, 120);
  for (int i = 0; i < 6; ++i) input.frames.push_back(constant);
  auto masked = MaskBackgroundRunning(input, 4, 0.2);
  ASSERT_TRUE(masked.ok());
  for (const Frame& frame : masked->frames) {
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        EXPECT_EQ(frame.Y(x, y), video::kOmega.y);
      }
    }
  }
}

TEST(BackgroundTest, RejectsBadParameters) {
  Video input = GradientVideo(8, 8, 3);
  EXPECT_FALSE(MaskBackgroundRunning(input, 0, 0.2).ok());
  EXPECT_FALSE(MaskBackgroundRunning(input, 3, 0.0).ok());
  EXPECT_FALSE(MaskBackgroundRunning(input, 3, 1.0).ok());
  Video empty;
  EXPECT_FALSE(MaskBackgroundRunning(empty, 3, 0.2).ok());
}

// --- ALPR ---

TEST(AlprTest, TemplateHasPlateStructure) {
  std::vector<float> tmpl = RenderPlateTemplate("ABC123", 38, 9);
  // Border cells are white (1), some interior cells dark (0).
  EXPECT_FLOAT_EQ(tmpl[0], 1.0f);
  int dark = 0;
  for (float v : tmpl) {
    if (v < 0.5f) ++dark;
  }
  EXPECT_GT(dark, 30);
}

/// Paints a plate into a frame at the given rectangle using the canonical
/// layout (mirrors the simulator's plate shader).
void PaintPlate(Frame& frame, const std::string& plate, const RectI& rect) {
  std::vector<float> tmpl = RenderPlateTemplate(plate, rect.Width(), rect.Height());
  for (int y = 0; y < rect.Height(); ++y) {
    for (int x = 0; x < rect.Width(); ++x) {
      bool dark = tmpl[static_cast<size_t>(y) * rect.Width() + x] < 0.5f;
      frame.SetPixel(rect.x0 + x, rect.y0 + y, dark ? 25 : 230, 128, 128);
    }
  }
}

TEST(AlprTest, FindsPaintedPlate) {
  Frame frame = GradientFrame(160, 90);
  PaintPlate(frame, "QW3RT9", {60, 40, 98, 49});
  PlateRecognizer recognizer;
  PlateSearchResult result = recognizer.FindPlate(frame, {40, 25, 120, 70}, "QW3RT9");
  EXPECT_TRUE(result.found);
  EXPECT_GT(result.score, 0.7);
  EXPECT_LT(std::abs(result.box.x0 - 60), 8);
}

TEST(AlprTest, RejectsWrongPlate) {
  Frame frame = GradientFrame(160, 90);
  PaintPlate(frame, "QW3RT9", {60, 40, 98, 49});
  PlateRecognizer recognizer;
  PlateSearchResult wrong = recognizer.FindPlate(frame, {40, 25, 120, 70}, "ZZZZZZ");
  PlateSearchResult right = recognizer.FindPlate(frame, {40, 25, 120, 70}, "QW3RT9");
  EXPECT_GT(right.score, wrong.score + 0.1);
}

TEST(AlprTest, NoPlateNoMatch) {
  Frame frame = GradientFrame(160, 90);
  PlateRecognizer recognizer;
  PlateSearchResult result = recognizer.FindPlate(frame, {10, 10, 150, 80}, "AB12CD");
  EXPECT_FALSE(result.found);
}

TEST(AlprTest, ReadPlateRecoversLargeGlyphs) {
  Frame frame(200, 60);
  frame.Fill(80, 128, 128);
  PaintPlate(frame, "H7K2M4", {10, 10, 162, 46});  // 4 px per glyph column.
  PlateRecognizer recognizer;
  auto read = recognizer.ReadPlate(frame, {10, 10, 162, 46});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "H7K2M4");
}

TEST(AlprTest, ReadPlateRejectsTinyRegions) {
  Frame frame = GradientFrame(32, 32);
  PlateRecognizer recognizer;
  EXPECT_FALSE(recognizer.ReadPlate(frame, {0, 0, 4, 2}).ok());
}

TEST(AlprTest, MalformedQueryPlateNotFound) {
  Frame frame = GradientFrame(64, 64);
  PlateRecognizer recognizer;
  EXPECT_FALSE(recognizer.FindPlate(frame, {0, 0, 64, 64}, "ABC").found);
}

// --- Stitcher ---

TEST(StitcherTest, StitchedPanoramaMatchesDirectRender) {
  // Render four 120-degree faces of a scene and a direct equirect sample of
  // the same scene; the stitch should be close.
  sim::Tile tile(sim::TilePoolEntry(1), 91);
  sim::PanoramicRig rig;
  rig.position = {100, 100, 7};
  rig.base_yaw = 0.4;
  rig.face_intrinsics = {96, 54, 120.0};
  auto cameras = rig.Faces();

  std::array<Frame, 4> faces;
  for (int f = 0; f < 4; ++f) {
    sim::RenderOptions options;
    options.weather_effects = false;  // Pixel-deterministic geometry only.
    sim::Framebuffer fb =
        RenderScene(tile, cameras[static_cast<size_t>(f)], 0, 99, options);
    faces[static_cast<size_t>(f)] = video::RgbToFrame(fb.color);
  }
  auto pano = StitchEquirect({&faces[0], &faces[1], &faces[2], &faces[3]}, cameras,
                             192, 96, rig.base_yaw);
  ASSERT_TRUE(pano.ok());
  EXPECT_EQ(pano->width(), 192);
  EXPECT_EQ(pano->height(), 96);
  // The horizon band should contain plenty of non-black content from all
  // four directions.
  int bright = 0;
  for (int x = 0; x < 192; ++x) {
    if (pano->Y(x, 48) > 30) ++bright;
  }
  EXPECT_GT(bright, 96);
}

TEST(StitcherTest, EveryOutputPixelCoveredByAFace) {
  // With 120-degree faces at 90-degree spacing, no output pixel should be
  // left at the black fallback when faces contain a bright constant.
  sim::PanoramicRig rig;
  rig.face_intrinsics = {64, 64, 120.0};
  auto cameras = rig.Faces();
  Frame bright(64, 64);
  bright.Fill(200, 128, 128);
  auto pano = StitchEquirect({&bright, &bright, &bright, &bright}, cameras, 128, 64,
                             0.0);
  ASSERT_TRUE(pano.ok());
  // The equatorial band is covered by the faces; extreme poles exceed the
  // faces' vertical FOV and may clamp, so check the middle half.
  for (int y = 16; y < 48; ++y) {
    for (int x = 0; x < 128; ++x) {
      EXPECT_GT(pano->Y(x, y), 150) << "(" << x << ", " << y << ")";
    }
  }
}

TEST(StitcherTest, RejectsMissingFaces) {
  sim::PanoramicRig rig;
  auto cameras = rig.Faces();
  Frame frame(8, 8);
  EXPECT_FALSE(
      StitchEquirect({&frame, nullptr, &frame, &frame}, cameras, 16, 8, 0.0).ok());
}

TEST(StitcherTest, VideoStitchProcessesAllFrames) {
  sim::PanoramicRig rig;
  rig.face_intrinsics = {32, 32, 120.0};
  auto cameras = rig.Faces();
  Video face;
  face.fps = 15;
  face.frames.resize(3, Frame(32, 32));
  auto pano = StitchEquirectVideo({&face, &face, &face, &face}, cameras, 64, 32, 0.0);
  ASSERT_TRUE(pano.ok());
  EXPECT_EQ(pano->FrameCount(), 3);
}

/// Bilinear luma/chroma sample with edge clamping (the oracle's sampler).
video::Yuv NaiveSampleBilinear(const Frame& frame, double fx, double fy) {
  fx = std::clamp(fx, 0.0, static_cast<double>(frame.width() - 1));
  fy = std::clamp(fy, 0.0, static_cast<double>(frame.height() - 1));
  int x0 = static_cast<int>(fx), y0 = static_cast<int>(fy);
  int x1 = std::min(x0 + 1, frame.width() - 1);
  int y1 = std::min(y0 + 1, frame.height() - 1);
  double ax = fx - x0, ay = fy - y0;
  auto blend = [&](auto get) -> uint8_t {
    double v = get(x0, y0) * (1 - ax) * (1 - ay) + get(x1, y0) * ax * (1 - ay) +
               get(x0, y1) * (1 - ax) * ay + get(x1, y1) * ax * ay;
    return static_cast<uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
  };
  return {blend([&](int x, int y) { return frame.Y(x, y); }),
          blend([&](int x, int y) { return frame.U(x, y); }),
          blend([&](int x, int y) { return frame.V(x, y); })};
}

/// The per-pixel stitcher: trigonometry and focal length per pixel, and a
/// full YUV sample written through SetPixel at every pixel. The oracle for
/// StitchEquirect.
Frame NaiveStitchEquirect(const std::array<const Frame*, 4>& faces,
                          const std::array<sim::Camera, 4>& cameras, int out_width,
                          int out_height, double forward_yaw) {
  Frame out(out_width, out_height);
  for (int y = 0; y < out_height; ++y) {
    double lat = kPi / 2.0 - (y + 0.5) / out_height * kPi;
    for (int x = 0; x < out_width; ++x) {
      double lon = forward_yaw + (x + 0.5) / out_width * 2.0 * kPi - kPi;
      Vec3 dir{std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
               std::sin(lat)};
      int best_face = 0;
      double best_dot = -2.0;
      for (int f = 0; f < 4; ++f) {
        double d = dir.Dot(cameras[static_cast<size_t>(f)].forward());
        if (d > best_dot) {
          best_dot = d;
          best_face = f;
        }
      }
      const sim::Camera& camera = cameras[static_cast<size_t>(best_face)];
      Vec3 cam{dir.Dot(camera.right()), dir.Dot(camera.up()),
               dir.Dot(camera.forward())};
      video::Yuv sample{0, 128, 128};
      if (cam.z > 1e-6) {
        double focal = camera.intrinsics().Focal();
        double px = camera.intrinsics().width / 2.0 + focal * cam.x / cam.z;
        double py = camera.intrinsics().height / 2.0 - focal * cam.y / cam.z;
        sample = NaiveSampleBilinear(*faces[static_cast<size_t>(best_face)], px, py);
      }
      out.SetPixel(x, y, sample.y, sample.u, sample.v);
    }
  }
  return out;
}

class StitcherEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(StitcherEquivalence, HoistedMatchesNaive) {
  auto [out_width, out_height] = GetParam();
  sim::PanoramicRig rig;
  rig.base_yaw = 0.4;
  rig.face_intrinsics = {33, 27, 120.0};
  auto cameras = rig.Faces();
  std::array<Frame, 4> faces;
  for (int f = 0; f < 4; ++f) faces[static_cast<size_t>(f)] = GradientFrame(33, 27, f * 50);
  std::array<const Frame*, 4> face_ptrs{&faces[0], &faces[1], &faces[2], &faces[3]};
  auto pano = StitchEquirect(face_ptrs, cameras, out_width, out_height, rig.base_yaw);
  ASSERT_TRUE(pano.ok());
  Frame expected =
      NaiveStitchEquirect(face_ptrs, cameras, out_width, out_height, rig.base_yaw);
  EXPECT_EQ(pano->y_plane(), expected.y_plane());
  EXPECT_EQ(pano->u_plane(), expected.u_plane());
  EXPECT_EQ(pano->v_plane(), expected.v_plane());
}

TEST_P(StitcherEquivalence, RowBandsMatchNaive) {
  // Row bands on the codec pool: band seams at odd heights and the chroma
  // rows that only the last luma row writes must come out as the serial
  // oracle's. Widths 3 and 4 put the seams at different rows.
  auto [out_width, out_height] = GetParam();
  sim::PanoramicRig rig;
  rig.base_yaw = 0.4;
  rig.face_intrinsics = {33, 27, 120.0};
  auto cameras = rig.Faces();
  std::array<Frame, 4> faces;
  for (int f = 0; f < 4; ++f) faces[static_cast<size_t>(f)] = GradientFrame(33, 27, f * 50);
  std::array<const Frame*, 4> face_ptrs{&faces[0], &faces[1], &faces[2], &faces[3]};
  Frame expected =
      NaiveStitchEquirect(face_ptrs, cameras, out_width, out_height, rig.base_yaw);
  for (int width : {3, 4}) {
    SCOPED_TRACE(width);
    auto pano =
        StitchEquirect(face_ptrs, cameras, out_width, out_height, rig.base_yaw, width);
    ASSERT_TRUE(pano.ok());
    EXPECT_EQ(pano->y_plane(), expected.y_plane());
    EXPECT_EQ(pano->u_plane(), expected.u_plane());
    EXPECT_EQ(pano->v_plane(), expected.v_plane());
  }
  // The video form splits the rows of all frames into one band sequence.
  std::array<Video, 4> face_videos;
  for (int f = 0; f < 4; ++f) {
    face_videos[static_cast<size_t>(f)].frames = {faces[static_cast<size_t>(f)],
                                                  faces[static_cast<size_t>((f + 1) % 4)],
                                                  faces[static_cast<size_t>((f + 2) % 4)]};
  }
  std::array<const Video*, 4> video_ptrs{&face_videos[0], &face_videos[1],
                                         &face_videos[2], &face_videos[3]};
  auto serial = StitchEquirectVideo(video_ptrs, cameras, out_width, out_height,
                                    rig.base_yaw, 1);
  auto banded = StitchEquirectVideo(video_ptrs, cameras, out_width, out_height,
                                    rig.base_yaw, 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(banded.ok());
  ASSERT_EQ(serial->FrameCount(), 3);
  ASSERT_EQ(banded->FrameCount(), 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(banded->frames[i].SameContentAs(serial->frames[i])) << "frame " << i;
  }
  EXPECT_TRUE(serial->frames[0].SameContentAs(expected));
}

INSTANTIATE_TEST_SUITE_P(
    OutputSizes, StitcherEquivalence,
    ::testing::Values(std::pair{96, 48}, std::pair{95, 47}, std::pair{96, 47},
                      std::pair{95, 48}, std::pair{1, 1}, std::pair{3, 1},
                      std::pair{2, 3}, std::pair{480, 240}));

// --- Tiling ---

TEST(TilingTest, PartitionReassembleRoundTrip) {
  Video input = GradientVideo(48, 36, 3);
  auto tiles = PartitionVideo(input, 16, 12);
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ(tiles->size(), 9u);
  auto reassembled = ReassembleTiles(*tiles, 3, 3);
  ASSERT_TRUE(reassembled.ok());
  ASSERT_EQ(reassembled->FrameCount(), 3);
  for (int f = 0; f < 3; ++f) {
    EXPECT_TRUE(reassembled->frames[static_cast<size_t>(f)].SameContentAs(
        input.frames[static_cast<size_t>(f)]));
  }
}

TEST(TilingTest, UnevenEdgesHandled) {
  Video input = GradientVideo(50, 38, 2);
  auto tiles = PartitionVideo(input, 16, 12);
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ(tiles->size(), 16u);  // ceil(50/16) x ceil(38/12) = 4 x 4.
  auto reassembled = ReassembleTiles(*tiles, 4, 4);
  ASSERT_TRUE(reassembled.ok());
  EXPECT_EQ(reassembled->Width(), 50);
  EXPECT_EQ(reassembled->Height(), 38);
  EXPECT_TRUE(reassembled->frames[0].SameContentAs(input.frames[0]));
}

TEST(TilingTest, ReassembleRejectsWrongShape) {
  Video input = GradientVideo(32, 32, 1);
  auto tiles = PartitionVideo(input, 16, 16);
  ASSERT_TRUE(tiles.ok());
  EXPECT_FALSE(ReassembleTiles(*tiles, 3, 2).ok());
}

TEST(TilingTest, TiledReencodeApproximatesInput) {
  Video input = GradientVideo(48, 36, 4);
  int64_t bytes = 0;
  auto result = TiledReencode(input, 16, 12, {1 << 20},
                              video::codec::Profile::kH264Like, &bytes);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Width(), 48);
  EXPECT_GT(bytes, 0);
  auto psnr = video::MeanPsnr(input, *result);
  ASSERT_TRUE(psnr.ok());
  EXPECT_GT(*psnr, 30.0);
}

TEST(TilingTest, LowerBitrateSmallerPayload) {
  Video input = GradientVideo(48, 36, 6);
  // Make it noisy enough that rate control has something to squeeze.
  Pcg32 rng(3, 3);
  for (Frame& frame : input.frames) {
    for (uint8_t& s : frame.y_plane()) {
      s = static_cast<uint8_t>(std::clamp<int>(s + static_cast<int>(rng.NextBounded(64)) - 32, 0, 255));
    }
  }
  int64_t high_bytes = 0, low_bytes = 0;
  auto high = TiledReencode(input, 24, 18, {1 << 22},
                            video::codec::Profile::kH264Like, &high_bytes);
  auto low = TiledReencode(input, 24, 18, {1 << 15},
                           video::codec::Profile::kH264Like, &low_bytes);
  ASSERT_TRUE(high.ok());
  ASSERT_TRUE(low.ok());
  EXPECT_LT(low_bytes, high_bytes);
}

TEST(TilingTest, TiledReencodeIsIdenticalAtEveryWidth) {
  // Odd tile sizes: chroma cells straddle tile seams, and edge tiles are
  // smaller. One task per tile must give the serial bytes and pixels.
  Video input = GradientVideo(50, 37, 4);
  for (auto [tile_w, tile_h] : {std::pair{15, 11}, std::pair{7, 5}, std::pair{49, 37}}) {
    SCOPED_TRACE(std::to_string(tile_w) + "x" + std::to_string(tile_h));
    const std::vector<int64_t> bitrates = {1 << 16, 1 << 19, 1 << 21};
    int64_t serial_bytes = 0, wide_bytes = 0;
    auto serial = TiledReencode(input, tile_w, tile_h, bitrates,
                                video::codec::Profile::kH264Like, &serial_bytes, 1);
    auto wide = TiledReencode(input, tile_w, tile_h, bitrates,
                              video::codec::Profile::kH264Like, &wide_bytes, 4);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(wide.ok());
    EXPECT_GT(serial_bytes, 0);
    EXPECT_EQ(wide_bytes, serial_bytes);
    EXPECT_EQ(wide->fps, serial->fps);
    ASSERT_EQ(serial->FrameCount(), 4);
    ASSERT_EQ(wide->FrameCount(), 4);
    for (size_t f = 0; f < 4; ++f) {
      EXPECT_EQ(wide->frames[f].width(), 50);
      EXPECT_EQ(wide->frames[f].height(), 37);
      EXPECT_TRUE(wide->frames[f].SameContentAs(serial->frames[f])) << "frame " << f;
    }
  }
}

TEST(TilingTest, RejectsEmptyBitrates) {
  Video input = GradientVideo(32, 32, 1);
  EXPECT_FALSE(
      TiledReencode(input, 16, 16, {}, video::codec::Profile::kH264Like).ok());
}

}  // namespace
}  // namespace visualroad::vision
