#ifndef VISUALROAD_QUERIES_REFERENCE_H_
#define VISUALROAD_QUERIES_REFERENCE_H_

#include <vector>

#include "queries/params.h"
#include "video/webvtt.h"
#include "vision/alpr.h"
#include "vision/miniyolo.h"
#include "vision/stitcher.h"

namespace visualroad::queries {

/// Output panorama dimensions for a dataset (Q9 stitches into a 2:1
/// equirectangular frame twice the face width).
inline int PanoramaWidth(const sim::CityConfig& config) { return config.width * 2; }
inline int PanoramaHeight(const sim::CityConfig& config) { return config.width; }

/// Shared context for the reference implementations: the dataset (for ground
/// truth and panoramic groups) and the specified vision algorithms.
struct ReferenceContext {
  const sim::Dataset* dataset = nullptr;
  vision::DetectorOptions detector_options;
  double plate_match_threshold = 0.80;
};

/// Result of a reference query execution. Video-producing queries fill
/// `video`; Q2(c) also fills per-frame `detections`.
struct ReferenceResult {
  video::Video video;
  std::vector<std::vector<vision::Detection>> detections;
};

/// The Visual Road reference implementation (Section 5): executes query
/// `instance` over decoded input `input` (already decoded by the caller so
/// engines and the validator share identical pixels). For Q8/Q9/Q10 the
/// input argument is ignored and inputs are drawn from the context dataset.
StatusOr<ReferenceResult> RunReference(const ReferenceContext& context,
                                       const QueryInstance& instance,
                                       const video::Video& input);

// --- Individual query kernels (used by the engines with their own
// --- execution strategies, and composed by RunReference) ---

/// Q1: crop frames to the rectangle and trim to [t1, t2).
StatusOr<video::Video> SelectQuery(const video::Video& input, const RectI& rect,
                                   double t1, double t2);

/// Q2(a): grayscale via chroma drop.
video::Video GrayscaleQuery(const video::Video& input);

/// Q2(b): d x d Gaussian blur per frame.
StatusOr<video::Video> BlurQuery(const video::Video& input, int d);

/// Q2(c): per-frame object detection + class-colour box video.
StatusOr<ReferenceResult> BoxesQuery(const video::Video& input,
                                     const std::vector<sim::FrameGroundTruth>& truth,
                                     sim::ObjectClass object_class,
                                     const vision::MiniYolo& detector,
                                     int first_frame_index = 0);

/// Builds a Q2(c)-style box result (class-filtered detections plus rendered
/// box frames) from per-frame detections that are still unfiltered by object
/// class. Touches no input pixels: only stream geometry is needed, which is
/// what lets a warm semantic cache answer Q2(c) with zero decoder
/// invocations. Engines use this for their cold path too, so cached and
/// uncached results are byte-identical by construction.
ReferenceResult RenderBoxesFromDetections(
    int width, int height, double fps,
    const std::vector<std::vector<vision::Detection>>& unfiltered,
    sim::ObjectClass object_class);

/// Q6(a): omega-coalesce overlay of a box video onto the input.
StatusOr<video::Video> UnionBoxesQuery(const video::Video& input,
                                       const video::Video& boxes);

/// Q6(b): render and overlay the caption track.
StatusOr<video::Video> UnionCaptionsQuery(const video::Video& input,
                                          const video::WebVttDocument& captions);

/// Q8 support: one vehicle tracking segment.
struct TrackingSegment {
  int asset_index = 0;   // Which traffic video.
  int first_frame = 0;   // Inclusive.
  int last_frame = 0;    // Inclusive.
};

/// Q8: scans every traffic video for the plate with the recognition function
/// (ALPR matched filter over detector-proposed vehicle regions), forms
/// tracking segments, and concatenates them ordered by entry time. The
/// segments found are returned through `segments_out` when non-null.
StatusOr<video::Video> TrackingQuery(const ReferenceContext& context,
                                     const std::string& plate,
                                     std::vector<TrackingSegment>* segments_out);

// The `width` arguments below run independent units (face decodes, stitched
// rows, re-encoded tiles) on the codec pool that wide; the output is the same
// at every width. The reference implementation runs them at width 1.

/// Q9: stitch one panoramic rig's four faces into an equirectangular video.
StatusOr<video::Video> StitchQuery(const ReferenceContext& context, int pano_group,
                                   int width = 1);

/// Q10: tile a 360-degree video at mixed bitrates and downsample to the
/// client resolution.
StatusOr<video::Video> TileStreamQuery(const video::Video& panorama,
                                       const std::array<int64_t, 9>& bitrates,
                                       int client_width, int client_height,
                                       video::codec::Profile profile, int width = 1);

/// Decodes the four face videos of a panoramic group (one task per face) and
/// returns the face cameras (shared by Q9 implementations across engines).
StatusOr<std::array<video::Video, 4>> DecodePanoFaces(
    const sim::Dataset& dataset, int pano_group,
    std::array<sim::Camera, 4>* cameras_out, double* forward_yaw_out, int width = 1);

}  // namespace visualroad::queries

#endif  // VISUALROAD_QUERIES_REFERENCE_H_
