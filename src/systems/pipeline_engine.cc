// PipelineEngine: the LightDB-like comparison system.
//
// Architecture (see DESIGN.md): queries execute as fused per-frame pipelines
// — decode a frame, run every operator on it, feed it straight to the output
// encoder — so nothing is materialised beyond the operator state that a
// window genuinely requires. Decoded content flows through the shared GOP
// cache (keyed by bitstream identity and GOP start), which is the mechanism
// behind the duplicate-corpus speedups of Table 9: repeated inputs skip the
// decoder entirely. Temporal selection (Q1) is pushed into the decoder via
// keyframe-aligned range decoding that fetches only the covering GOPs. Two deliberate weak spots
// mirror the paper's findings: the mean filter recomputes its window per
// frame (no materialised running sums), and the captioning path is a scalar
// per-pixel renderer ("a CPU-only implementation of the captioning query").
//
// Decoded content flows through the process-wide GOP cache shared with the
// other engines; the per-engine counters behind stats() are atomic and the
// inference memo is mutex-guarded and single-flight, so Execute() is safe to
// call concurrently (ConcurrentSafe) and the VCD may fan instances out to
// this engine.
//
// Within one instance, the heavy operators run their independent units on
// the codec pool, EngineOptions::codec_threads wide: Q3's tiles, Q9's face
// decodes and stitched rows, and the frames of the mean-filter mask (Q2(d),
// Q7) and of detection (Q2(c), Q7). The calling thread allocates every
// buffer a unit fills, and output is byte-identical at every width. The
// cheap per-frame maps of FusedPipeline stay serial.
//
// Lines between "vr:<query>:begin/end" markers are counted by the Figure 7
// lines-of-code bench.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "common/trace.h"
#include "systems/vdbms.h"
#include "video/codec/gop_cache.h"
#include "video/image_ops.h"
#include "vision/background.h"
#include "vision/overlay.h"
#include "vision/tiling.h"

namespace visualroad::systems {

namespace {

using queries::QueryId;
using queries::QueryInstance;
using video::Frame;
using video::Video;

class PipelineEngine : public Vdbms {
 public:
  explicit PipelineEngine(const EngineOptions& options)
      : options_(options), gop_cache_(&detail::ResolveGopCache(options)) {
    detector_options_ = options.detector;
    detector_options_.input_size = 96;  // The fused fast path.
    detector_ = std::make_unique<vision::MiniYolo>(detector_options_);
    model_fingerprint_ = queries::ModelFingerprint(detector_options_, "miniyolo");
  }

  const char* name() const override { return "PipelineEngine"; }

  bool Supports(QueryId id) const override {
    (void)id;
    return true;
  }

  bool ConcurrentSafe() const override { return true; }

  void Quiesce() override {
    gop_cache_->Clear();
    std::lock_guard<std::mutex> lock(inference_mutex_);
    // In-flight entries stay: their leaders fill them and wake the waiters.
    std::erase_if(inference_cache_, [](const auto& entry) { return !entry.second.pending; });
  }

  EngineStats stats() const override {
    EngineStats stats;
    stats.frames_decoded = decode_counters_.frames_decoded.load() +
                           frames_decoded_extra_.load();
    stats.frames_encoded = frames_encoded_.load();
    stats.cache_hits = decode_counters_.hits.load() + inference_hits_.load();
    stats.cache_misses = decode_counters_.misses.load();
    stats.cnn_frames_full = cnn_frames_full_.load();
    return stats;
  }

  std::string Explain(const QueryInstance& instance,
                      const sim::Dataset& dataset) override {
    StatusOr<const sim::VideoAsset*> asset = detail::InputAsset(instance, dataset);
    if (!asset.ok()) return "";
    const video::codec::EncodedVideo& meta = (*asset)->container.video;
    queries::PlanContext context;
    context.meta.identity = video::codec::StreamIdentity(meta);
    context.meta.frame_count = meta.FrameCount();
    context.meta.width = meta.width;
    context.meta.height = meta.height;
    context.meta.fps = meta.fps;
    context.cache = options_.semantic_cache;
    context.key = SemanticKeyFor(meta);
    if (instance.id == QueryId::kQ2c || instance.id == QueryId::kQ7) {
      context.stages = {"miniyolo96"};
    }
    return std::string(name()) + ": " +
           queries::ExplainPlan(queries::PlanQuery(instance, context));
  }

  StatusOr<QueryOutput> Execute(const QueryInstance& instance,
                                const sim::Dataset& dataset, OutputMode mode,
                                const std::string& output_dir,
                                EngineStats* call_stats = nullptr) override {
    trace::Span span(std::string("pipeline:") + queries::QueryName(instance.id));
    CallCounters call;
    StatusOr<QueryOutput> result =
        ExecuteImpl(instance, dataset, mode, output_dir, call);
    Fold(call);
    mirror_.Publish(stats());
    if (call_stats != nullptr) *call_stats = AsStats(call);
    return result;
  }

 private:
  /// Counters for exactly one Execute() call, threaded through every stage
  /// and folded into the cumulative atomics afterwards. The decode counters
  /// are the atomic GopCacheCounters because the codec may update them from
  /// its own pool threads.
  struct CallCounters {
    video::codec::GopCacheCounters decode;
    int64_t frames_decoded_extra = 0;
    int64_t frames_encoded = 0;
    int64_t inference_hits = 0;
    int64_t cnn_frames_full = 0;
  };

  void Fold(const CallCounters& call) {
    decode_counters_.hits += call.decode.hits.load();
    decode_counters_.misses += call.decode.misses.load();
    decode_counters_.frames_decoded += call.decode.frames_decoded.load();
    frames_decoded_extra_ += call.frames_decoded_extra;
    frames_encoded_ += call.frames_encoded;
    inference_hits_ += call.inference_hits;
    cnn_frames_full_ += call.cnn_frames_full;
  }

  /// The per-call window mapped the same way stats() maps the cumulative
  /// counters.
  static EngineStats AsStats(const CallCounters& call) {
    EngineStats stats;
    stats.frames_decoded =
        call.decode.frames_decoded.load() + call.frames_decoded_extra;
    stats.frames_encoded = call.frames_encoded;
    stats.cache_hits = call.decode.hits.load() + call.inference_hits;
    stats.cache_misses = call.decode.misses.load();
    stats.cnn_frames_full = call.cnn_frames_full;
    return stats;
  }

  StatusOr<QueryOutput> ExecuteImpl(const QueryInstance& instance,
                                    const sim::Dataset& dataset, OutputMode mode,
                                    const std::string& output_dir,
                                    CallCounters& call);

  /// Whole-stream decode through the shared GOP cache.
  StatusOr<Video> DecodeCached(const video::codec::EncodedVideo& encoded,
                               CallCounters& call) {
    TRACE_SPAN("decode_cached");
    return video::codec::CachedDecode(encoded, *gop_cache_, &call.decode);
  }

  /// Whole-stream decode of a query input; the bitstream comes from the
  /// storage service when one is configured.
  StatusOr<Video> DecodeInput(const sim::VideoAsset& asset, CallCounters& call) {
    VR_ASSIGN_OR_RETURN(std::shared_ptr<const video::codec::EncodedVideo> encoded,
                        detail::ResolveInput(asset, options_));
    return DecodeCached(*encoded, call);
  }

  /// Inference memoisation: detection results keyed by frame content (and
  /// frame index, which seeds the detector's noise model). With few
  /// distinct inputs — the paper's duplicated-corpus scenario — repeated
  /// frames skip the CNN entirely, which is exactly the "aggressive
  /// caching" advantage Section 2 argues such corpora hand to systems.
  /// Returns per-frame detections unfiltered by object class; that is the
  /// representation the semantic cache stores, so Q2(c) and Q7 over
  /// different classes share one materialization. Frames run as one task
  /// each on the codec pool.
  StatusOr<std::vector<std::vector<vision::Detection>>> DetectUnfiltered(
      const Video& input, const std::vector<sim::FrameGroundTruth>& truth,
      CallCounters& call) {
    TRACE_SPAN("cached_boxes");
    std::vector<std::vector<vision::Detection>> result(input.frames.size());
    std::atomic<int64_t> hits{0}, runs{0};
    static const sim::FrameGroundTruth kEmpty;
    VR_RETURN_IF_ERROR(video::codec::CodecParallelFor(
        options_.codec_threads, input.FrameCount(), [&](int f) {
          size_t i = static_cast<size_t>(f);
          const sim::FrameGroundTruth& gt = i < truth.size() ? truth[i] : kEmpty;
          result[i] = MemoizedDetect(input.frames[i], gt, f, hits, runs);
          return Status::Ok();
        }));
    call.inference_hits += hits.load();
    call.cnn_frames_full += runs.load();
    return result;
  }

  /// One frame's detections through the memo. The first caller for a key
  /// publishes an in-flight entry and runs the detector; later callers wait
  /// for it (single-flight, as in the GOP cache), so MiniYolo runs once per
  /// key however instances and frame tasks overlap.
  std::vector<vision::Detection> MemoizedDetect(const Frame& frame,
                                                const sim::FrameGroundTruth& gt,
                                                int f, std::atomic<int64_t>& hits,
                                                std::atomic<int64_t>& runs) {
    uint64_t key = frame.ContentHash() ^
                   (static_cast<uint64_t>(f) * 0x9E3779B97F4A7C15ULL);
    bool lead = false;
    {
      std::unique_lock<std::mutex> lock(inference_mutex_);
      for (;;) {
        auto it = inference_cache_.find(key);
        if (it == inference_cache_.end()) break;
        if (!it->second.pending) {
          ++hits;
          return it->second.detections;
        }
        inference_ready_.wait(lock);
      }
      // Past the memo's capacity, frames run uncached and unshared.
      if (inference_cache_.size() < 4096) {
        inference_cache_[key].pending = true;
        lead = true;
      }
    }
    std::vector<vision::Detection> detections;
    try {
      detections = detector_->Detect(frame, gt, f);
    } catch (...) {
      if (lead) Publish(key, nullptr);
      throw;
    }
    ++runs;
    if (lead) Publish(key, &detections);
    return detections;
  }

  /// Completes an in-flight memo entry (or drops it when `detections` is
  /// null) and wakes its waiters.
  void Publish(uint64_t key, const std::vector<vision::Detection>* detections) {
    std::lock_guard<std::mutex> lock(inference_mutex_);
    auto it = inference_cache_.find(key);
    if (detections == nullptr) {
      inference_cache_.erase(it);
    } else {
      it->second.pending = false;
      it->second.detections = *detections;
    }
    inference_ready_.notify_all();
  }

  queries::SemanticKey SemanticKeyFor(
      const video::codec::EncodedVideo& encoded) const {
    queries::SemanticKey key;
    key.stream = video::codec::StreamIdentity(encoded);
    key.model = model_fingerprint_;
    key.threshold = 0.0;  // Raw detector output is what gets materialized.
    return key;
  }

  /// Whole-stream unfiltered detections plus the geometry needed to render
  /// them, resolved through the semantic cache when one is configured. A
  /// warm cache answers without decoding anything; `decoded` (optional) is
  /// a frame source the caller already holds, used on the compute path so a
  /// query that decodes anyway (Q7) never decodes twice.
  struct DetectionSet {
    int width = 0;
    int height = 0;
    double fps = 0.0;
    std::vector<std::vector<vision::Detection>> detections;
  };
  StatusOr<DetectionSet> StreamDetections(const sim::VideoAsset& asset,
                                          const Video* decoded,
                                          CallCounters& call) {
    VR_ASSIGN_OR_RETURN(std::shared_ptr<const video::codec::EncodedVideo> encoded,
                        detail::ResolveInput(asset, options_));
    DetectionSet set;
    set.width = encoded->width;
    set.height = encoded->height;
    set.fps = encoded->fps;
    auto compute_direct = [&]() -> StatusOr<std::vector<std::vector<vision::Detection>>> {
      if (decoded != nullptr) {
        return DetectUnfiltered(*decoded, asset.ground_truth, call);
      }
      VR_ASSIGN_OR_RETURN(Video input, DecodeCached(*encoded, call));
      return DetectUnfiltered(input, asset.ground_truth, call);
    };
    if (options_.semantic_cache == nullptr) {
      VR_ASSIGN_OR_RETURN(set.detections, compute_direct());
      return set;
    }
    queries::SemanticKey key = SemanticKeyFor(*encoded);
    queries::FrameRange range{0, encoded->FrameCount()};
    queries::SemanticCache::Outcome outcome;
    VR_ASSIGN_OR_RETURN(
        std::shared_ptr<const queries::SemanticEntry> entry,
        options_.semantic_cache->GetOrCompute(
            key, range,
            [&]() -> StatusOr<queries::SemanticEntry> {
              queries::SemanticEntry fresh;
              fresh.key = key;
              fresh.range = range;
              fresh.width = encoded->width;
              fresh.height = encoded->height;
              fresh.fps = encoded->fps;
              VR_ASSIGN_OR_RETURN(fresh.detections, compute_direct());
              fresh.RecomputeBytes();
              return fresh;
            },
            &outcome));
    if (outcome == queries::SemanticCache::Outcome::kHit) ++call.inference_hits;
    set.detections = queries::SemanticCache::Slice(*entry, range);
    return set;
  }

  /// FinishVideoResult with the encoded-frame count folded into the atomic
  /// counter (the shared helper writes through a plain pointer).
  Status Finish(const Video& result, const QueryInstance& instance,
                OutputMode mode, const std::string& output_dir,
                QueryOutput& output, CallCounters& call) {
    int64_t encoded = 0;
    Status status = detail::FinishVideoResult(result, instance, options_, mode,
                                              output_dir, name(), output, &encoded);
    call.frames_encoded += encoded;
    return status;
  }

  /// Fused per-frame pipeline: pulls decoded frames (through the cache),
  /// applies `fn`, and streams results into the output encoder frame by
  /// frame. Only in write mode is an output bitstream kept.
  template <typename Fn>
  StatusOr<Video> FusedPipeline(const Video& input, Fn&& fn) {
    TRACE_SPAN("fused_pipeline");
    Video output;
    output.fps = input.fps;
    output.frames.reserve(input.frames.size());
    for (int i = 0; i < input.FrameCount(); ++i) {
      VR_ASSIGN_OR_RETURN(Frame frame, fn(input.frames[static_cast<size_t>(i)], i));
      output.frames.push_back(std::move(frame));
    }
    return output;
  }

  EngineOptions options_;
  vision::DetectorOptions detector_options_;
  std::string model_fingerprint_;
  std::unique_ptr<vision::MiniYolo> detector_;
  video::codec::GopCache* gop_cache_;
  video::codec::GopCacheCounters decode_counters_;
  struct InferenceEntry {
    bool pending = false;  // The leader is still running the detector.
    std::vector<vision::Detection> detections;
  };
  std::mutex inference_mutex_;
  std::condition_variable inference_ready_;
  std::unordered_map<uint64_t, InferenceEntry> inference_cache_;
  std::atomic<int64_t> frames_decoded_extra_{0};  // Stitch inputs (Q9/Q10).
  std::atomic<int64_t> frames_encoded_{0};
  std::atomic<int64_t> inference_hits_{0};
  std::atomic<int64_t> cnn_frames_full_{0};
  detail::EngineMetricsMirror mirror_{"pipeline"};
};

StatusOr<QueryOutput> PipelineEngine::ExecuteImpl(const QueryInstance& instance,
                                                  const sim::Dataset& dataset,
                                                  OutputMode mode,
                                                  const std::string& output_dir,
                                                  CallCounters& call) {
  QueryOutput output;
  queries::ReferenceContext context;
  context.dataset = &dataset;
  context.detector_options = detector_options_;
  context.plate_match_threshold = options_.plate_match_threshold;

  switch (instance.id) {
    case QueryId::kQ1: {
      // vr:Q1:begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      const video::codec::EncodedVideo& meta = asset->container.video;
      // Lazy temporal selection: only the keyframe-aligned range that covers
      // [t1, t2) is ever decoded — and with a storage service configured,
      // only its covering GOP-aligned segments are ever fetched.
      int first = std::clamp(static_cast<int>(instance.q1_t1 * meta.fps), 0,
                             meta.FrameCount() - 1);
      int last = std::clamp(static_cast<int>(std::ceil(instance.q1_t2 * meta.fps)),
                            first + 1, meta.FrameCount());
      VR_ASSIGN_OR_RETURN(
          detail::ResolvedRange input,
          detail::ResolveInputRange(*asset, options_, first, last - first));
      VR_ASSIGN_OR_RETURN(Video range,
                          video::codec::CachedDecodeRange(
                              *input.video, first - input.first_frame,
                              last - first, *gop_cache_, &call.decode));
      VR_ASSIGN_OR_RETURN(Video cropped, FusedPipeline(range, [&](const Frame& f, int) {
                            return video::Crop(f, instance.q1_rect);
                          }));
      VR_RETURN_IF_ERROR(Finish(cropped, instance, mode, output_dir, output, call));
      // vr:Q1:end
      return output;
    }
    case QueryId::kQ2a: {
      // vr:Q2(a):begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      VR_ASSIGN_OR_RETURN(Video gray, FusedPipeline(input, [](const Frame& f, int) {
                            return StatusOr<Frame>(video::Grayscale(f));
                          }));
      VR_RETURN_IF_ERROR(Finish(gray, instance, mode, output_dir, output, call));
      // vr:Q2(a):end
      return output;
    }
    case QueryId::kQ2b: {
      // vr:Q2(b):begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      VR_ASSIGN_OR_RETURN(Video blurred,
                          FusedPipeline(input, [&](const Frame& f, int) {
                            return video::GaussianBlur(f, instance.q2b_d);
                          }));
      VR_RETURN_IF_ERROR(Finish(blurred, instance, mode, output_dir, output, call));
      // vr:Q2(b):end
      return output;
    }
    case QueryId::kQ2c: {
      // vr:Q2(c):begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      // The box video is a pure function of the detections, so with a warm
      // semantic cache this query never invokes the decoder at all.
      VR_ASSIGN_OR_RETURN(DetectionSet set,
                          StreamDetections(*asset, /*decoded=*/nullptr, call));
      queries::ReferenceResult result = queries::RenderBoxesFromDetections(
          set.width, set.height, set.fps, set.detections, instance.object_class);
      output.detections = std::move(result.detections);
      VR_RETURN_IF_ERROR(Finish(result.video, instance, mode, output_dir, output, call));
      // vr:Q2(c):end
      return output;
    }
    case QueryId::kQ2d: {
      // vr:Q2(d):begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      // The fused pipeline holds no materialised window sums, so the mean
      // filter recomputes its window per frame (the paper's slow path).
      VR_ASSIGN_OR_RETURN(Video masked,
                          vision::MaskBackgroundNaive(input, instance.q2d_m,
                                                      instance.q2d_epsilon,
                                                      options_.codec_threads));
      VR_RETURN_IF_ERROR(Finish(masked, instance, mode, output_dir, output, call));
      // vr:Q2(d):end
      return output;
    }
    case QueryId::kQ3: {
      // vr:Q3:begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      VR_ASSIGN_OR_RETURN(Video tiled,
                          vision::TiledReencode(input, instance.q3_dx,
                                                instance.q3_dy, instance.q3_bitrates,
                                                options_.output_profile,
                                                /*encoded_bytes_out=*/nullptr,
                                                options_.codec_threads));
      VR_RETURN_IF_ERROR(Finish(tiled, instance, mode, output_dir, output, call));
      // vr:Q3:end
      return output;
    }
    case QueryId::kQ4: {
      // vr:Q4:begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      // Refuse before upsampling: the result could not be contained anyway.
      VR_RETURN_IF_ERROR(video::container::CheckFrameSize(
          int64_t{asset->container.video.width} * instance.q45_alpha,
          int64_t{asset->container.video.height} * instance.q45_beta));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      VR_ASSIGN_OR_RETURN(Video up, FusedPipeline(input, [&](const Frame& f, int) {
                            return video::BilinearResize(
                                f, f.width() * instance.q45_alpha,
                                f.height() * instance.q45_beta);
                          }));
      VR_RETURN_IF_ERROR(Finish(up, instance, mode, output_dir, output, call));
      // vr:Q4:end
      return output;
    }
    case QueryId::kQ5: {
      // vr:Q5:begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      VR_ASSIGN_OR_RETURN(Video down, FusedPipeline(input, [&](const Frame& f, int) {
                            return video::Downsample(
                                f, std::max(1, f.width() / instance.q45_alpha),
                                std::max(1, f.height() / instance.q45_beta));
                          }));
      VR_RETURN_IF_ERROR(Finish(down, instance, mode, output_dir, output, call));
      // vr:Q5:end
      return output;
    }
    case QueryId::kQ6a: {
      // vr:Q6(a):begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      // Consume the VCD's encoded box-video input (it flows through the
      // shared GOP cache like any other stream) and fuse the join.
      const video::container::MetadataTrack* box_track =
          asset->container.FindTrack("BOXV");
      if (box_track == nullptr) {
        return Status::FailedPrecondition("input has no offline box video");
      }
      VR_ASSIGN_OR_RETURN(video::container::Container box_container,
                          video::container::Demux(box_track->payload));
      VR_ASSIGN_OR_RETURN(Video boxes, DecodeCached(box_container.video, call));
      VR_ASSIGN_OR_RETURN(Video merged, queries::UnionBoxesQuery(input, boxes));
      VR_RETURN_IF_ERROR(Finish(merged, instance, mode, output_dir, output, call));
      // vr:Q6(a):end
      return output;
    }
    case QueryId::kQ6b: {
      // vr:Q6(b):begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      const video::container::MetadataTrack* track =
          asset->container.FindTrack("WVTT");
      if (track == nullptr) {
        return Status::FailedPrecondition("input has no caption track");
      }
      VR_ASSIGN_OR_RETURN(video::WebVttDocument captions,
                          video::ParseWebVtt(std::string(track->payload.begin(),
                                                         track->payload.end())));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      // Scalar CPU captioning: each frame re-renders its overlay from the
      // cue list and coalesces through a float RGB round-trip per pixel.
      VR_ASSIGN_OR_RETURN(Video merged, FusedPipeline(input, [&](const Frame& f,
                                                                 int i) {
        Frame overlay = vision::RenderCaptionFrame(f.width(), f.height(), captions,
                                                   i / input.fps);
        Frame merged_frame(f.width(), f.height());
        for (int y = 0; y < f.height(); ++y) {
          for (int x = 0; x < f.width(); ++x) {
            video::Yuv base{f.Y(x, y), f.U(x, y), f.V(x, y)};
            video::Yuv over{overlay.Y(x, y), overlay.U(x, y), overlay.V(x, y)};
            // Linear-light blend path: convert through RGB floats even for
            // the pass-through case.
            video::Rgb base_rgb = video::YuvToRgb(base);
            video::Rgb over_rgb = video::YuvToRgb(over);
            bool use_overlay = !video::IsOmega(over);
            video::Rgb blended = use_overlay ? over_rgb : base_rgb;
            video::Yuv out_pixel = video::RgbToYuv(blended);
            merged_frame.SetPixel(x, y, out_pixel.y, out_pixel.u, out_pixel.v);
          }
        }
        return StatusOr<Frame>(std::move(merged_frame));
      }));
      VR_RETURN_IF_ERROR(Finish(merged, instance, mode, output_dir, output, call));
      // vr:Q6(b):end
      return output;
    }
    case QueryId::kQ7: {
      // vr:Q7:begin
      VR_ASSIGN_OR_RETURN(const sim::VideoAsset* asset,
                          detail::InputAsset(instance, dataset));
      VR_ASSIGN_OR_RETURN(Video input, DecodeInput(*asset, call));
      // The union/mask stages are pixel-level, so Q7 always decodes; a warm
      // semantic cache still skips the CNN (the dominant cost).
      VR_ASSIGN_OR_RETURN(DetectionSet set,
                          StreamDetections(*asset, &input, call));
      queries::ReferenceResult boxes = queries::RenderBoxesFromDetections(
          set.width, set.height, set.fps, set.detections, instance.object_class);
      VR_ASSIGN_OR_RETURN(Video merged,
                          queries::UnionBoxesQuery(input, boxes.video));
      VR_ASSIGN_OR_RETURN(Video masked,
                          vision::MaskBackgroundNaive(merged, instance.q2d_m,
                                                      instance.q2d_epsilon,
                                                      options_.codec_threads));
      output.detections = std::move(boxes.detections);
      VR_RETURN_IF_ERROR(Finish(masked, instance, mode, output_dir, output, call));
      // vr:Q7:end
      return output;
    }
    case QueryId::kQ8: {
      // vr:Q8:begin
      VR_ASSIGN_OR_RETURN(Video tracking,
                          queries::TrackingQuery(context, instance.q8_plate,
                                                 nullptr));
      VR_RETURN_IF_ERROR(Finish(tracking, instance, mode, output_dir, output, call));
      // vr:Q8:end
      return output;
    }
    case QueryId::kQ9: {
      // vr:Q9:begin
      VR_ASSIGN_OR_RETURN(Video stitched,
                          queries::StitchQuery(context, instance.pano_group,
                                               options_.codec_threads));
      call.frames_decoded_extra += 4 * stitched.FrameCount();
      VR_RETURN_IF_ERROR(Finish(stitched, instance, mode, output_dir, output, call));
      // vr:Q9:end
      return output;
    }
    case QueryId::kQ10: {
      // vr:Q10:begin
      VR_ASSIGN_OR_RETURN(Video stitched,
                          queries::StitchQuery(context, instance.pano_group,
                                               options_.codec_threads));
      call.frames_decoded_extra += 4 * stitched.FrameCount();
      VR_ASSIGN_OR_RETURN(
          Video result,
          queries::TileStreamQuery(stitched, instance.q10_bitrates,
                                   instance.q10_client_width,
                                   instance.q10_client_height,
                                   options_.output_profile, options_.codec_threads));
      VR_RETURN_IF_ERROR(Finish(result, instance, mode, output_dir, output, call));
      // vr:Q10:end
      return output;
    }
  }
  return Status::Unimplemented("unknown query");
}

}  // namespace

std::unique_ptr<Vdbms> MakePipelineEngine(const EngineOptions& options) {
  return std::make_unique<PipelineEngine>(options);
}

}  // namespace visualroad::systems
