#include "queries/reference.h"

#include <algorithm>
#include <cmath>

#include "video/image_ops.h"
#include "vision/background.h"
#include "vision/overlay.h"
#include "vision/tiling.h"

namespace visualroad::queries {

using video::Video;

StatusOr<Video> SelectQuery(const Video& input, const RectI& rect, double t1,
                            double t2) {
  if (input.frames.empty()) return Status::InvalidArgument("empty input video");
  if (t2 < t1) return Status::InvalidArgument("temporal range is inverted");
  int first = std::clamp(static_cast<int>(t1 * input.fps), 0, input.FrameCount() - 1);
  int last = std::clamp(static_cast<int>(std::ceil(t2 * input.fps)), first + 1,
                        input.FrameCount());
  Video out;
  out.fps = input.fps;
  out.frames.reserve(static_cast<size_t>(last - first));
  for (int f = first; f < last; ++f) {
    VR_ASSIGN_OR_RETURN(video::Frame cropped, video::Crop(input.frames[f], rect));
    out.frames.push_back(std::move(cropped));
  }
  return out;
}

Video GrayscaleQuery(const Video& input) {
  // PMap with f(y, u, v) = (y, 0, 0) in the paper's notation (neutral chroma).
  Video out;
  out.fps = input.fps;
  out.frames.reserve(input.frames.size());
  for (const video::Frame& frame : input.frames) {
    out.frames.push_back(video::Grayscale(frame));
  }
  return out;
}

StatusOr<Video> BlurQuery(const Video& input, int d) {
  Video out;
  out.fps = input.fps;
  out.frames.reserve(input.frames.size());
  for (const video::Frame& frame : input.frames) {
    VR_ASSIGN_OR_RETURN(video::Frame blurred, video::GaussianBlur(frame, d));
    out.frames.push_back(std::move(blurred));
  }
  return out;
}

StatusOr<ReferenceResult> BoxesQuery(const Video& input,
                                     const std::vector<sim::FrameGroundTruth>& truth,
                                     sim::ObjectClass object_class,
                                     const vision::MiniYolo& detector,
                                     int first_frame_index) {
  ReferenceResult result;
  result.video.fps = input.fps;
  static const sim::FrameGroundTruth kEmpty;
  for (int f = 0; f < input.FrameCount(); ++f) {
    size_t truth_index = static_cast<size_t>(first_frame_index + f);
    const sim::FrameGroundTruth& gt =
        truth_index < truth.size() ? truth[truth_index] : kEmpty;
    std::vector<vision::Detection> detections =
        detector.Detect(input.frames[static_cast<size_t>(f)], gt,
                        first_frame_index + f);
    // Keep only the queried class.
    detections.erase(std::remove_if(detections.begin(), detections.end(),
                                    [object_class](const vision::Detection& d) {
                                      return d.object_class != object_class;
                                    }),
                     detections.end());
    result.video.frames.push_back(vision::RenderDetectionFrame(
        input.Width(), input.Height(), detections));
    result.detections.push_back(std::move(detections));
  }
  return result;
}

ReferenceResult RenderBoxesFromDetections(
    int width, int height, double fps,
    const std::vector<std::vector<vision::Detection>>& unfiltered,
    sim::ObjectClass object_class) {
  ReferenceResult result;
  result.video.fps = fps;
  result.video.frames.reserve(unfiltered.size());
  result.detections.reserve(unfiltered.size());
  for (const std::vector<vision::Detection>& frame : unfiltered) {
    std::vector<vision::Detection> kept;
    kept.reserve(frame.size());
    for (const vision::Detection& d : frame) {
      if (d.object_class == object_class) kept.push_back(d);
    }
    result.video.frames.push_back(
        vision::RenderDetectionFrame(width, height, kept));
    result.detections.push_back(std::move(kept));
  }
  return result;
}

StatusOr<Video> UnionBoxesQuery(const Video& input, const Video& boxes) {
  // The box video may arrive through a codec (the VCD's encoded variant),
  // which perturbs the omega sentinel by a few code levels; the coalesce
  // therefore uses the tolerant sentinel test so the encoded and serialized
  // input formats yield the same join.
  return video::JoinP(input, boxes, [](const video::Yuv& base,
                                       const video::Yuv& overlay) {
    return video::IsNearOmega(overlay) ? base : overlay;
  });
}

StatusOr<Video> UnionCaptionsQuery(const Video& input,
                                   const video::WebVttDocument& captions) {
  Video out;
  out.fps = input.fps;
  out.frames.reserve(input.frames.size());
  for (int f = 0; f < input.FrameCount(); ++f) {
    double seconds = f / input.fps;
    video::Frame overlay = vision::RenderCaptionFrame(input.Width(), input.Height(),
                                                      captions, seconds);
    const video::Frame& base = input.frames[static_cast<size_t>(f)];
    video::Frame merged(base.width(), base.height());
    for (int y = 0; y < base.height(); ++y) {
      for (int x = 0; x < base.width(); ++x) {
        video::Yuv pixel = video::OmegaCoalesce(
            {base.Y(x, y), base.U(x, y), base.V(x, y)},
            {overlay.Y(x, y), overlay.U(x, y), overlay.V(x, y)});
        merged.SetPixel(x, y, pixel.y, pixel.u, pixel.v);
      }
    }
    out.frames.push_back(std::move(merged));
  }
  return out;
}

StatusOr<Video> TrackingQuery(const ReferenceContext& context,
                              const std::string& plate,
                              std::vector<TrackingSegment>* segments_out) {
  if (context.dataset == nullptr) {
    return Status::InvalidArgument("tracking query needs a dataset context");
  }
  vision::MiniYolo detector(context.detector_options);
  vision::PlateRecognizer recognizer(context.plate_match_threshold);

  struct Sighting {
    TrackingSegment segment;
    double entry_seconds;
  };
  std::vector<Sighting> sightings;
  std::vector<const sim::VideoAsset*> traffic = context.dataset->TrafficAssets();
  std::vector<Video> decoded(traffic.size());

  for (size_t a = 0; a < traffic.size(); ++a) {
    VR_ASSIGN_OR_RETURN(decoded[a], video::codec::Decode(traffic[a]->container.video));
    const Video& vid = decoded[a];

    int run_start = -1;
    for (int f = 0; f < vid.FrameCount(); ++f) {
      // Recognition function L: detector proposes vehicle regions; the ALPR
      // matched filter searches each for the queried plate.
      static const sim::FrameGroundTruth kEmptyTruth;
      const sim::FrameGroundTruth& gt =
          static_cast<size_t>(f) < traffic[a]->ground_truth.size()
              ? traffic[a]->ground_truth[static_cast<size_t>(f)]
              : kEmptyTruth;
      std::vector<vision::Detection> detections =
          detector.Detect(vid.frames[static_cast<size_t>(f)], gt, f);
      bool found = false;
      for (const vision::Detection& det : detections) {
        if (det.object_class != sim::ObjectClass::kVehicle) continue;
        vision::PlateSearchResult match = recognizer.FindPlate(
            vid.frames[static_cast<size_t>(f)], det.box, plate);
        if (match.found) {
          found = true;
          break;
        }
      }
      if (found && run_start < 0) run_start = f;
      if (!found && run_start >= 0) {
        sightings.push_back({{static_cast<int>(a), run_start, f - 1},
                             run_start / vid.fps});
        run_start = -1;
      }
    }
    if (run_start >= 0) {
      sightings.push_back({{static_cast<int>(a), run_start, vid.FrameCount() - 1},
                           run_start / vid.fps});
    }
  }

  // Temporally order by entry time and concatenate the VTSs.
  std::sort(sightings.begin(), sightings.end(),
            [](const Sighting& x, const Sighting& y) {
              return x.entry_seconds < y.entry_seconds;
            });

  Video out;
  out.fps = context.dataset->config.fps;
  for (const Sighting& sighting : sightings) {
    const Video& vid = decoded[static_cast<size_t>(sighting.segment.asset_index)];
    for (int f = sighting.segment.first_frame; f <= sighting.segment.last_frame; ++f) {
      out.frames.push_back(vid.frames[static_cast<size_t>(f)]);
    }
    if (segments_out != nullptr) segments_out->push_back(sighting.segment);
  }
  return out;
}

StatusOr<std::array<Video, 4>> DecodePanoFaces(const sim::Dataset& dataset,
                                               int pano_group,
                                               std::array<sim::Camera, 4>* cameras_out,
                                               double* forward_yaw_out, int width) {
  std::vector<const sim::VideoAsset*> faces = dataset.PanoramicGroup(pano_group);
  for (const sim::VideoAsset* face : faces) {
    if (face == nullptr) {
      return Status::NotFound("panoramic group is missing a face video");
    }
  }
  // Face frames are allocated here, on the calling thread; each face task
  // decodes into its own.
  std::array<Video, 4> decoded;
  for (size_t f = 0; f < 4; ++f) {
    const video::codec::EncodedVideo& encoded = faces[f]->container.video;
    decoded[f].frames.assign(encoded.frames.size(),
                             video::Frame(encoded.width, encoded.height));
  }
  VR_RETURN_IF_ERROR(video::codec::CodecParallelFor(width, 4, [&](int f) {
    return video::codec::DecodeInto(faces[static_cast<size_t>(f)]->container.video,
                                    decoded[static_cast<size_t>(f)]);
  }));
  if (cameras_out != nullptr) {
    for (int f = 0; f < 4; ++f) {
      (*cameras_out)[static_cast<size_t>(f)] =
          faces[static_cast<size_t>(f)]->camera.MakeCamera(dataset.config.width,
                                                           dataset.config.height);
    }
  }
  if (forward_yaw_out != nullptr) {
    *forward_yaw_out = faces[0]->camera.pose.yaw;
  }
  return decoded;
}

StatusOr<Video> StitchQuery(const ReferenceContext& context, int pano_group,
                            int width) {
  if (context.dataset == nullptr) {
    return Status::InvalidArgument("stitch query needs a dataset context");
  }
  std::array<sim::Camera, 4> cameras{
      sim::Camera({}, {}), sim::Camera({}, {}), sim::Camera({}, {}),
      sim::Camera({}, {})};
  double forward_yaw = 0.0;
  using FaceArray = std::array<Video, 4>;
  VR_ASSIGN_OR_RETURN(FaceArray faces, DecodePanoFaces(*context.dataset, pano_group,
                                                       &cameras, &forward_yaw, width));
  return vision::StitchEquirectVideo(
      std::array<const Video*, 4>{&faces[0], &faces[1], &faces[2], &faces[3]},
      cameras, PanoramaWidth(context.dataset->config),
      PanoramaHeight(context.dataset->config), forward_yaw, width);
}

StatusOr<Video> TileStreamQuery(const Video& panorama,
                                const std::array<int64_t, 9>& bitrates,
                                int client_width, int client_height,
                                video::codec::Profile profile, int width) {
  if (panorama.frames.empty()) return Status::InvalidArgument("empty panorama");
  int tile_w = (panorama.Width() + 2) / 3;
  int tile_h = (panorama.Height() + 2) / 3;
  std::vector<int64_t> rates(bitrates.begin(), bitrates.end());
  VR_ASSIGN_OR_RETURN(Video tiled, vision::TiledReencode(panorama, tile_w, tile_h,
                                                         rates, profile,
                                                         /*encoded_bytes_out=*/nullptr,
                                                         width));
  Video out;
  out.fps = panorama.fps;
  out.frames.reserve(tiled.frames.size());
  for (const video::Frame& frame : tiled.frames) {
    VR_ASSIGN_OR_RETURN(video::Frame down,
                        video::Downsample(frame, client_width, client_height));
    out.frames.push_back(std::move(down));
  }
  return out;
}

StatusOr<ReferenceResult> RunReference(const ReferenceContext& context,
                                       const QueryInstance& instance,
                                       const Video& input) {
  ReferenceResult result;
  const sim::Dataset* dataset = context.dataset;
  const sim::VideoAsset* asset = nullptr;
  if (dataset != nullptr && instance.id != QueryId::kQ9 &&
      instance.id != QueryId::kQ10 && instance.id != QueryId::kQ8) {
    std::vector<const sim::VideoAsset*> traffic = dataset->TrafficAssets();
    if (instance.video_index >= 0 &&
        static_cast<size_t>(instance.video_index) < traffic.size()) {
      asset = traffic[static_cast<size_t>(instance.video_index)];
    }
  }
  static const std::vector<sim::FrameGroundTruth> kNoTruth;
  const std::vector<sim::FrameGroundTruth>& truth =
      asset != nullptr ? asset->ground_truth : kNoTruth;

  switch (instance.id) {
    case QueryId::kQ1: {
      VR_ASSIGN_OR_RETURN(result.video, SelectQuery(input, instance.q1_rect,
                                                    instance.q1_t1, instance.q1_t2));
      return result;
    }
    case QueryId::kQ2a:
      result.video = GrayscaleQuery(input);
      return result;
    case QueryId::kQ2b: {
      VR_ASSIGN_OR_RETURN(result.video, BlurQuery(input, instance.q2b_d));
      return result;
    }
    case QueryId::kQ2c: {
      vision::MiniYolo detector(context.detector_options);
      return BoxesQuery(input, truth, instance.object_class, detector);
    }
    case QueryId::kQ2d: {
      VR_ASSIGN_OR_RETURN(result.video,
                          vision::MaskBackgroundRunning(input, instance.q2d_m,
                                                        instance.q2d_epsilon));
      return result;
    }
    case QueryId::kQ3: {
      VR_ASSIGN_OR_RETURN(
          result.video,
          vision::TiledReencode(input, instance.q3_dx, instance.q3_dy,
                                instance.q3_bitrates,
                                video::codec::Profile::kH264Like));
      return result;
    }
    case QueryId::kQ4: {
      result.video.fps = input.fps;
      for (const video::Frame& frame : input.frames) {
        VR_ASSIGN_OR_RETURN(
            video::Frame up,
            video::BilinearResize(frame, frame.width() * instance.q45_alpha,
                                  frame.height() * instance.q45_beta));
        result.video.frames.push_back(std::move(up));
      }
      return result;
    }
    case QueryId::kQ5: {
      result.video.fps = input.fps;
      for (const video::Frame& frame : input.frames) {
        VR_ASSIGN_OR_RETURN(
            video::Frame down,
            video::Downsample(frame, std::max(1, frame.width() / instance.q45_alpha),
                              std::max(1, frame.height() / instance.q45_beta)));
        result.video.frames.push_back(std::move(down));
      }
      return result;
    }
    case QueryId::kQ6a: {
      // B = Q2c(V_i) is generated OFFLINE by the VCD (Section 4.1.1) and
      // exposed as a container track; Q6(a) itself is only the join. Use
      // the prepared encoded box video when present, otherwise fall back to
      // computing B inline (unprepared datasets).
      const video::container::MetadataTrack* box_track =
          asset != nullptr ? asset->container.FindTrack("BOXV") : nullptr;
      video::Video boxes;
      if (box_track != nullptr) {
        VR_ASSIGN_OR_RETURN(video::container::Container box_container,
                            video::container::Demux(box_track->payload));
        VR_ASSIGN_OR_RETURN(boxes, video::codec::Decode(box_container.video));
      } else {
        vision::MiniYolo detector(context.detector_options);
        ReferenceResult computed;
        VR_ASSIGN_OR_RETURN(computed,
                            BoxesQuery(input, truth, instance.object_class, detector));
        boxes = std::move(computed.video);
        result.detections = std::move(computed.detections);
      }
      VR_ASSIGN_OR_RETURN(result.video, UnionBoxesQuery(input, boxes));
      return result;
    }
    case QueryId::kQ6b: {
      const video::container::MetadataTrack* track =
          asset != nullptr ? asset->container.FindTrack("WVTT") : nullptr;
      if (track == nullptr) {
        return Status::FailedPrecondition("input video has no caption track");
      }
      std::string text(track->payload.begin(), track->payload.end());
      VR_ASSIGN_OR_RETURN(video::WebVttDocument captions, video::ParseWebVtt(text));
      VR_ASSIGN_OR_RETURN(result.video, UnionCaptionsQuery(input, captions));
      return result;
    }
    case QueryId::kQ7: {
      // V^o = Q2d(Q6a(V, Q2c(V, A, {o}))) — Table 6.
      vision::MiniYolo detector(context.detector_options);
      ReferenceResult boxes;
      VR_ASSIGN_OR_RETURN(boxes,
                          BoxesQuery(input, truth, instance.object_class, detector));
      VR_ASSIGN_OR_RETURN(Video merged, UnionBoxesQuery(input, boxes.video));
      VR_ASSIGN_OR_RETURN(result.video,
                          vision::MaskBackgroundRunning(merged, instance.q2d_m,
                                                        instance.q2d_epsilon));
      result.detections = std::move(boxes.detections);
      return result;
    }
    case QueryId::kQ8: {
      VR_ASSIGN_OR_RETURN(result.video,
                          TrackingQuery(context, instance.q8_plate, nullptr));
      return result;
    }
    case QueryId::kQ9: {
      VR_ASSIGN_OR_RETURN(result.video, StitchQuery(context, instance.pano_group));
      return result;
    }
    case QueryId::kQ10: {
      VR_ASSIGN_OR_RETURN(Video panorama, StitchQuery(context, instance.pano_group));
      VR_ASSIGN_OR_RETURN(
          result.video,
          TileStreamQuery(panorama, instance.q10_bitrates, instance.q10_client_width,
                          instance.q10_client_height,
                          video::codec::Profile::kH264Like));
      return result;
    }
  }
  return Status::Unimplemented("unknown query id");
}

}  // namespace visualroad::queries
