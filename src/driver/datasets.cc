#include "driver/datasets.h"

#include <algorithm>

#include "vision/overlay.h"

namespace visualroad::driver {

std::vector<NamedDataset> PregeneratedConfigs() {
  auto make = [](std::string name, int scale, int width, int height,
                 double duration) {
    NamedDataset dataset;
    dataset.name = std::move(name);
    dataset.config.scale_factor = scale;
    dataset.config.width = width;
    dataset.config.height = height;
    dataset.config.duration_seconds = duration;
    dataset.config.fps = 15.0;
    dataset.config.seed = 1;
    return dataset;
  };
  // Table 2, proportionally scaled (see header).
  return {
      make("1k-short", 2, 240, 136, 6.0),  make("1k-long", 4, 240, 136, 24.0),
      make("2k-short", 2, 480, 270, 6.0),  make("2k-long", 4, 480, 270, 24.0),
      make("4k-short", 2, 960, 540, 6.0),  make("4k-long", 4, 960, 540, 24.0),
  };
}

video::WebVttDocument GenerateRandomCaptions(Pcg32& rng, double duration) {
  static const char* kPhrases[] = {
      "NORTH AVE CAM 04",    "SPEED LIMIT 30",     "CITY TRANSIT FEED",
      "INCIDENT REPORTED",   "LANE CLOSED AHEAD",  "WEATHER ADVISORY",
      "SIGNAL MAINTENANCE",  "EVENT TRAFFIC",      "DETOUR IN EFFECT",
      "LIVE TRAFFIC 7",
  };
  video::WebVttDocument document;
  double t = 0.0;
  while (t < duration) {
    video::WebVttCue cue;
    cue.start_seconds = t;
    double length = rng.NextDouble(0.8, 2.5);
    cue.end_seconds = std::min(duration, t + length);
    cue.line_percent = rng.NextDouble(10.0, 90.0);
    cue.position_percent = rng.NextDouble(20.0, 80.0);
    cue.text = kPhrases[rng.NextBounded(10)];
    document.cues.push_back(cue);
    // Non-overlapping durations: the next cue starts after this one ends.
    t = cue.end_seconds + rng.NextDouble(0.2, 1.0);
  }
  return document;
}

void AttachCaptionTracks(sim::Dataset& dataset, uint64_t seed) {
  for (size_t i = 0; i < dataset.assets.size(); ++i) {
    sim::VideoAsset& asset = dataset.assets[i];
    if (asset.container.FindTrack("WVTT") != nullptr) continue;
    Pcg32 rng = SubStream(seed, "captions", i);
    double duration =
        asset.container.video.FrameCount() / std::max(1.0, asset.container.video.fps);
    std::string text = video::SerializeWebVtt(GenerateRandomCaptions(rng, duration));
    asset.container.tracks.push_back(video::container::MetadataTrack{
        "WVTT", std::vector<uint8_t>(text.begin(), text.end())});
  }
}

namespace {

/// Builds one traffic asset's Q6(a) tracks, streaming: each frame is decoded,
/// detected, drawn and encoded before the next is decoded, so memory holds
/// one decoded frame rather than two whole videos.
Status AttachAssetBoxTracks(const vision::MiniYolo& detector, sim::VideoAsset& asset) {
  static const sim::FrameGroundTruth kEmpty;
  const video::codec::EncodedVideo& input = asset.container.video;
  if (input.frames.empty()) {
    return Status::InvalidArgument("cannot encode an empty video");
  }
  // Format 1: an encoded video. Encoded near-losslessly (QP 2): consumers
  // re-encode their joined output, and the two generations of codec noise
  // must together stay clear of the 40 dB validation bar. Flat box regions
  // encode tiny regardless of QP.
  video::codec::EncoderConfig codec;
  codec.profile = input.profile;
  codec.qp = 2;
  VR_ASSIGN_OR_RETURN(video::codec::Encoder encoder,
                      video::codec::Encoder::Create(input.width, input.height, codec));
  video::container::Container box_container;
  box_container.video.profile = codec.profile;
  box_container.video.width = input.width;
  box_container.video.height = input.height;
  box_container.video.fps = input.fps;
  video::codec::Decoder decoder(input.width, input.height, input.profile);
  video::Frame frame;
  std::vector<std::vector<vision::Detection>> per_frame;
  for (int f = 0; f < input.FrameCount(); ++f) {
    size_t i = static_cast<size_t>(f);
    VR_RETURN_IF_ERROR(decoder.DecodeFrame(input.frames[i], frame));
    const sim::FrameGroundTruth& truth =
        i < asset.ground_truth.size() ? asset.ground_truth[i] : kEmpty;
    // The offline box video carries every detected object (both classes,
    // each filled with its constant class colour).
    std::vector<vision::Detection> detections = detector.Detect(frame, truth, f);
    VR_ASSIGN_OR_RETURN(video::codec::EncodedFrame encoded,
                        encoder.EncodeFrame(vision::RenderDetectionFrame(
                            input.width, input.height, detections)));
    box_container.video.frames.push_back(std::move(encoded));
    per_frame.push_back(std::move(detections));
  }
  asset.container.tracks.push_back(video::container::MetadataTrack{
      "BOXV", video::container::Mux(box_container)});
  // Format 2: the serialized class-id + coordinate sequence.
  asset.container.tracks.push_back(video::container::MetadataTrack{
      "BOXS", vision::SerializeDetections(per_frame)});
  return Status::Ok();
}

}  // namespace

Status AttachBoxTracks(sim::Dataset& dataset,
                       const vision::DetectorOptions& detector_options) {
  vision::MiniYolo detector(detector_options);
  std::vector<sim::VideoAsset*> pending;
  for (sim::VideoAsset& asset : dataset.assets) {
    if (asset.camera.kind != sim::CameraKind::kTraffic) continue;
    if (asset.container.FindTrack("BOXV") != nullptr) continue;
    pending.push_back(&asset);
  }
  // One task per asset: each touches only its own asset, and the detector is
  // const, so the tracks do not depend on the pool's width.
  return video::codec::CodecParallelFor(
      /*width=*/0, static_cast<int>(pending.size()), [&](int i) {
        return AttachAssetBoxTracks(detector, *pending[static_cast<size_t>(i)]);
      });
}

StatusOr<sim::Dataset> PrepareDataset(const sim::CityConfig& config,
                                      const sim::GeneratorOptions& options) {
  sim::VisualCityGenerator generator(options);
  VR_ASSIGN_OR_RETURN(sim::Dataset dataset, generator.Generate(config));
  AttachCaptionTracks(dataset, config.seed ^ 0xCAB71015);
  VR_RETURN_IF_ERROR(AttachBoxTracks(dataset));
  return dataset;
}

}  // namespace visualroad::driver
