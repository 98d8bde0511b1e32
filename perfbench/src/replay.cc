// Layer replay: re-runs one query instance through each layer's public
// functions, in the order the pipeline engine uses them, and times each
// layer on its own. The traced run scales these samples to the measured
// window (see workloads.cc, Attribute).

#include <algorithm>
#include <cmath>

#include "perfbench.h"
#include "queries/reference.h"
#include "video/codec/codec.h"
#include "video/container/vrmp.h"
#include "vision/background.h"
#include "vision/miniyolo.h"

namespace perfbench {

using vr::queries::QueryId;
using vr::queries::QueryInstance;
using vr::video::Video;

void LayerSample::Add(const LayerSample& other) {
  storage_read_s += other.storage_read_s;
  decode_s += other.decode_s;
  detect_s += other.detect_s;
  op_s += other.op_s;
  encode_s += other.encode_s;
  mux_s += other.mux_s;
  frames_decoded += other.frames_decoded;
  cnn_frames += other.cnn_frames;
  frames_encoded += other.frames_encoded;
}

namespace {

/// Reads frames [first, first+count) of `asset` through the storage service
/// and decodes them, charging the read and the decode to their layers.
vr::StatusOr<Video> ReadAndDecode(const ReplayContext& context,
                                  const vr::sim::VideoAsset& asset, int first,
                                  int count, LayerSample& sample) {
  const std::string name = vr::storage::CameraStreamName(asset.camera.camera_id);
  double t0 = NowSeconds();
  VR_ASSIGN_OR_RETURN(vr::storage::VariantKey tier, context.vss->BaseTier(name));
  VR_ASSIGN_OR_RETURN(vr::storage::RangeRead read,
                      context.vss->ReadRange(name, tier, first, count));
  double t1 = NowSeconds();
  VR_ASSIGN_OR_RETURN(Video decoded,
                      vr::video::codec::DecodeRange(*read.video, first - read.first_frame,
                                                    count, /*threads=*/0));
  double t2 = NowSeconds();
  sample.storage_read_s += t1 - t0;
  sample.decode_s += t2 - t1;
  sample.frames_decoded += decoded.FrameCount();
  return decoded;
}

/// Per-frame unfiltered detections, as the pipeline engine computes them.
std::vector<std::vector<vr::vision::Detection>> Detect(
    const vr::vision::MiniYolo& detector, const Video& input,
    const vr::sim::VideoAsset& asset, LayerSample& sample) {
  static const vr::sim::FrameGroundTruth kEmpty;
  double t0 = NowSeconds();
  std::vector<std::vector<vr::vision::Detection>> detections;
  detections.reserve(input.frames.size());
  for (int f = 0; f < input.FrameCount(); ++f) {
    const vr::sim::FrameGroundTruth& truth =
        static_cast<size_t>(f) < asset.ground_truth.size()
            ? asset.ground_truth[static_cast<size_t>(f)]
            : kEmpty;
    detections.push_back(detector.Detect(input.frames[static_cast<size_t>(f)], truth, f));
  }
  sample.detect_s += NowSeconds() - t0;
  sample.cnn_frames += input.FrameCount();
  return detections;
}

/// The operator result for `instance` (the work between decode and encode).
vr::StatusOr<Video> RunOperator(const ReplayContext& context,
                                const QueryInstance& instance, LayerSample& sample) {
  vr::queries::ReferenceContext reference;
  reference.dataset = context.dataset;
  reference.detector_options = context.engine_options.detector;
  reference.plate_match_threshold = context.engine_options.plate_match_threshold;

  if (instance.id == QueryId::kQ9) {
    // StitchQuery decodes the rig's faces itself; replay those reads and
    // decodes first and charge the stitch the remainder.
    double decode_before = sample.decode_s;
    for (const vr::sim::VideoAsset* face :
         context.dataset->PanoramicGroup(instance.pano_group)) {
      if (face == nullptr) continue;
      int frames = face->container.video.FrameCount();
      VR_RETURN_IF_ERROR(ReadAndDecode(context, *face, 0, frames, sample).status());
    }
    double t0 = NowSeconds();
    VR_ASSIGN_OR_RETURN(Video stitched,
                        vr::queries::StitchQuery(reference, instance.pano_group));
    sample.op_s += std::max(0.0, NowSeconds() - t0 - (sample.decode_s - decode_before));
    return stitched;
  }

  VR_ASSIGN_OR_RETURN(const vr::sim::VideoAsset* asset,
                      vr::systems::detail::InputAsset(instance, *context.dataset));
  const vr::video::codec::EncodedVideo& meta = asset->container.video;
  int first = 0;
  int count = meta.FrameCount();
  if (instance.id == QueryId::kQ1) {
    // The engine pushes Q1's temporal selection into a range read.
    first = std::clamp(static_cast<int>(instance.q1_t1 * meta.fps), 0,
                       meta.FrameCount() - 1);
    int last = std::clamp(static_cast<int>(std::ceil(instance.q1_t2 * meta.fps)),
                          first + 1, meta.FrameCount());
    count = last - first;
  }
  VR_ASSIGN_OR_RETURN(Video input,
                      ReadAndDecode(context, *asset, first, count, sample));

  if (instance.id == QueryId::kQ2c || instance.id == QueryId::kQ7) {
    vr::vision::DetectorOptions options = context.engine_options.detector;
    options.input_size = 96;  // The pipeline engine's detector input.
    vr::vision::MiniYolo detector(options);
    auto detections = Detect(detector, input, *asset, sample);
    double t0 = NowSeconds();
    vr::queries::ReferenceResult boxes = vr::queries::RenderBoxesFromDetections(
        meta.width, meta.height, meta.fps, detections, instance.object_class);
    Video result = std::move(boxes.video);
    if (instance.id == QueryId::kQ7) {
      VR_ASSIGN_OR_RETURN(Video merged, vr::queries::UnionBoxesQuery(input, result));
      VR_ASSIGN_OR_RETURN(result, vr::vision::MaskBackgroundNaive(
                                      merged, instance.q2d_m, instance.q2d_epsilon));
    }
    sample.op_s += NowSeconds() - t0;
    return result;
  }

  if (instance.id == QueryId::kQ6a) {
    // The box video rides in the input container; demux and decode it.
    const vr::video::container::MetadataTrack* track = asset->container.FindTrack("BOXV");
    if (track == nullptr) return vr::Status::FailedPrecondition("no BOXV track");
    double t0 = NowSeconds();
    VR_ASSIGN_OR_RETURN(vr::video::container::Container boxes,
                        vr::video::container::Demux(track->payload));
    VR_ASSIGN_OR_RETURN(Video box_video,
                        vr::video::codec::DecodeRange(boxes.video, 0,
                                                      boxes.video.FrameCount(), 0));
    double t1 = NowSeconds();
    VR_ASSIGN_OR_RETURN(Video merged, vr::queries::UnionBoxesQuery(input, box_video));
    sample.decode_s += t1 - t0;
    sample.frames_decoded += box_video.FrameCount();
    sample.op_s += NowSeconds() - t1;
    return merged;
  }

  double t0 = NowSeconds();
  Video result;
  if (instance.id == QueryId::kQ2d) {
    // The engine's fused path recomputes the mean-filter window per frame.
    VR_ASSIGN_OR_RETURN(result, vr::vision::MaskBackgroundNaive(
                                    input, instance.q2d_m, instance.q2d_epsilon));
  } else {
    VR_ASSIGN_OR_RETURN(vr::queries::ReferenceResult reference_result,
                        vr::queries::RunReference(reference, instance, input));
    result = std::move(reference_result.video);
  }
  sample.op_s += NowSeconds() - t0;
  return result;
}

}  // namespace

vr::StatusOr<LayerSample> ReplayInstance(const ReplayContext& context,
                                         const QueryInstance& instance) {
  LayerSample sample;
  VR_ASSIGN_OR_RETURN(Video result, RunOperator(context, instance, sample));
  if (result.frames.empty()) return sample;

  vr::video::codec::EncoderConfig config;
  config.profile = context.engine_options.output_profile;
  config.qp = context.engine_options.output_qp;
  double t0 = NowSeconds();
  VR_ASSIGN_OR_RETURN(vr::video::codec::EncodedVideo encoded,
                      vr::video::codec::ParallelEncode(
                          result, config, context.engine_options.codec_threads));
  double t1 = NowSeconds();
  sample.encode_s += t1 - t0;
  sample.frames_encoded += result.FrameCount();
  if (context.write_mode) {
    vr::video::container::Container container;
    container.video = std::move(encoded);
    VR_RETURN_IF_ERROR(vr::video::container::WriteContainerFile(container, context.mux_path));
    sample.mux_s += NowSeconds() - t1;
  }
  return sample;
}

void ScaleToCall(const vr::systems::EngineStats& call, LayerSample& sample) {
  auto scale = [](int64_t actual, int64_t replayed) {
    return replayed > 0 ? static_cast<double>(actual) / static_cast<double>(replayed)
                        : 0.0;
  };
  sample.decode_s *= std::min(1.0, scale(call.frames_decoded, sample.frames_decoded));
  sample.detect_s *= std::min(1.0, scale(call.cnn_frames_full, sample.cnn_frames));
  sample.encode_s *= std::min(1.0, scale(call.frames_encoded, sample.frames_encoded));
}

}  // namespace perfbench
