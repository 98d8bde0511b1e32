#include "systems/vdbms.h"

#include <algorithm>
#include <filesystem>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "storage/vss.h"
#include "video/codec/gop_cache.h"

namespace visualroad::systems {

InstanceOutcome ExecuteInstance(Vdbms& engine, const queries::QueryInstance& instance,
                                const sim::Dataset& dataset, OutputMode mode,
                                const std::string& output_dir) {
  InstanceOutcome outcome;
  if (!engine.Supports(instance.id)) {
    outcome.status = Status::Unimplemented(std::string(engine.name()) +
                                           " does not support " +
                                           queries::QueryName(instance.id));
    return outcome;
  }
  // Robustness accounting is thread-scoped: every degrade/retry site runs on
  // the thread that performs the read, and Execute runs on this thread, so
  // the bracket counts each event exactly once for exactly this instance,
  // even with other instances live on the same services.
  const int64_t retries_before = fault::ThreadRetries();
  const int64_t degraded_before = fault::ThreadDegraded();
  Stopwatch stopwatch;
  StatusOr<QueryOutput> output =
      engine.Execute(instance, dataset, mode, output_dir, &outcome.engine_stats);
  outcome.exec_seconds = stopwatch.ElapsedSeconds();
  outcome.retries = fault::ThreadRetries() - retries_before;
  outcome.frames_degraded = fault::ThreadDegraded() - degraded_before;
  outcome.status = output.status();
  if (output.ok()) outcome.output = std::move(output).value();
  return outcome;
}

}  // namespace visualroad::systems

namespace visualroad::systems::detail {

namespace {

/// Non-owning view of a container-held bitstream. The dataset outlives the
/// engine call, so an empty deleter is sound.
std::shared_ptr<const video::codec::EncodedVideo> BorrowStream(
    const video::codec::EncodedVideo& video) {
  return {&video, [](const video::codec::EncodedVideo*) {}};
}

}  // namespace

StatusOr<std::shared_ptr<const video::codec::EncodedVideo>> ResolveInput(
    const sim::VideoAsset& asset, const EngineOptions& options) {
  if (options.vss == nullptr) return BorrowStream(asset.container.video);
  const std::string name = storage::CameraStreamName(asset.camera.camera_id);
  VR_ASSIGN_OR_RETURN(storage::VariantKey tier, options.vss->BaseTier(name));
  return options.vss->ReadVideo(name, tier);
}

StatusOr<ResolvedRange> ResolveInputRange(const sim::VideoAsset& asset,
                                          const EngineOptions& options,
                                          int first, int count) {
  if (options.vss == nullptr) {
    return ResolvedRange{BorrowStream(asset.container.video), 0};
  }
  const std::string name = storage::CameraStreamName(asset.camera.camera_id);
  VR_ASSIGN_OR_RETURN(storage::VariantKey tier, options.vss->BaseTier(name));
  VR_ASSIGN_OR_RETURN(storage::RangeRead range,
                      options.vss->ReadRange(name, tier, first, count));
  return ResolvedRange{std::move(range.video), range.first_frame};
}

StatusOr<const sim::VideoAsset*> InputAsset(const queries::QueryInstance& instance,
                                            const sim::Dataset& dataset) {
  std::vector<const sim::VideoAsset*> traffic = dataset.TrafficAssets();
  if (instance.video_index < 0 ||
      static_cast<size_t>(instance.video_index) >= traffic.size()) {
    return Status::OutOfRange("query instance addresses a missing input video");
  }
  return traffic[static_cast<size_t>(instance.video_index)];
}

Status FinishVideoResult(const video::Video& result,
                         const queries::QueryInstance& instance,
                         const EngineOptions& options, OutputMode mode,
                         const std::string& output_dir, const char* engine_name,
                         QueryOutput& output, int64_t* frames_encoded) {
  // One limit for every mode: no engine produces a frame that a container
  // (written to disk or shipped from a worker) could not hold.
  VR_RETURN_IF_ERROR(video::container::CheckFrameSize(result.Width(), result.Height()));
  if (mode == OutputMode::kStreaming) {
    // Streaming mode sends results "to the null device" (Section 6.4): the
    // output is still encoded — that work is part of the query — but the
    // bitstream is discarded instead of persisted.
    if (!result.frames.empty()) {
      TRACE_SPAN("encode_output");
      video::codec::EncoderConfig config;
      config.profile = options.output_profile;
      config.qp = options.output_qp;
      VR_ASSIGN_OR_RETURN(
          video::codec::EncodedVideo discarded,
          video::codec::ParallelEncode(result, config, options.codec_threads));
      if (frames_encoded != nullptr) *frames_encoded += result.FrameCount();
      (void)discarded;
    }
    output.produced = false;
    return Status::Ok();
  }
  if (result.frames.empty()) {
    // An empty result (e.g. a Q8 query for an unseen plate) still counts as
    // produced; there is simply nothing to persist.
    output.produced = true;
    return Status::Ok();
  }
  {
    TRACE_SPAN("encode_output");
    video::codec::EncoderConfig config;
    config.profile = options.output_profile;
    config.qp = options.output_qp;
    VR_ASSIGN_OR_RETURN(output.video, video::codec::ParallelEncode(
                                          result, config, options.codec_threads));
  }
  if (frames_encoded != nullptr) *frames_encoded += result.FrameCount();
  output.produced = true;

  if (!output_dir.empty()) {
    TRACE_SPAN("persist_output");
    std::error_code ec;
    std::filesystem::create_directories(output_dir, ec);
    std::string path = output_dir + "/" + engine_name + "_" +
                       queries::QueryName(instance.id) + "_" +
                       std::to_string(instance.video_index) + ".vrmp";
    // Sanitise the parenthesised query names for the filesystem.
    for (char& c : path) {
      if (c == '(' || c == ')') c = '_';
    }
    video::container::Container container;
    container.video = output.video;
    VR_RETURN_IF_ERROR(video::container::WriteContainerFile(container, path));
    output.written_path = path;
  }
  return Status::Ok();
}

int64_t FrameBytes(int width, int height) {
  return static_cast<int64_t>(width) * height * 3 / 2;
}

int64_t InputFrameCount(const queries::QueryInstance& instance,
                        const sim::Dataset& dataset) {
  std::vector<const sim::VideoAsset*> traffic = dataset.TrafficAssets();
  if (instance.id == queries::QueryId::kQ8) {
    // Q8 scans every traffic stream for the plate.
    int64_t frames = 0;
    for (const sim::VideoAsset* asset : traffic) {
      frames += asset->container.video.FrameCount();
    }
    return frames;
  }
  if (instance.id == queries::QueryId::kQ9 || instance.id == queries::QueryId::kQ10) {
    int64_t frames = 0;
    for (const sim::VideoAsset* face : dataset.PanoramicGroup(instance.pano_group)) {
      if (face != nullptr) frames += face->container.video.FrameCount();
    }
    return frames;
  }
  if (instance.video_index < 0 ||
      static_cast<size_t>(instance.video_index) >= traffic.size()) {
    return 0;
  }
  return traffic[static_cast<size_t>(instance.video_index)]->container.video.FrameCount();
}

namespace {

metrics::Counter& EngineCounter(const std::string& name, const std::string& help,
                                const char* engine_name) {
  return metrics::MetricsRegistry::Global().GetCounter(
      name, help, std::string("engine=\"") + engine_name + "\"");
}

}  // namespace

EngineMetricsMirror::EngineMetricsMirror(const char* engine_name)
    : queries_(EngineCounter("vr_engine_queries_total",
                             "Query instances an engine finished executing",
                             engine_name)),
      frames_decoded_(EngineCounter("vr_engine_frames_decoded_total",
                                    "Frames an engine decoded (or pulled decoded "
                                    "from the GOP cache as a miss leader)",
                                    engine_name)),
      frames_encoded_(EngineCounter("vr_engine_frames_encoded_total",
                                    "Result frames an engine encoded",
                                    engine_name)),
      cache_hits_(EngineCounter("vr_engine_cache_hits_total",
                                "Engine-level cache hits (GOP or operator cache)",
                                engine_name)),
      cache_misses_(EngineCounter("vr_engine_cache_misses_total",
                                  "Engine-level cache misses", engine_name)),
      chunked_redecodes_(EngineCounter(
          "vr_engine_chunked_redecodes_total",
          "Chunked re-decode passes forced by the materialisation budget",
          engine_name)),
      cnn_frames_full_(EngineCounter("vr_engine_cnn_frames_full_total",
                                     "Frames sent through the full detector",
                                     engine_name)),
      cnn_frames_cheap_(EngineCounter(
          "vr_engine_cnn_frames_cheap_total",
          "Frames handled by a cheap filter (cascade engines)", engine_name)),
      cnn_frames_skipped_(EngineCounter("vr_engine_cnn_frames_skipped_total",
                                        "Frames skipped entirely by a cascade",
                                        engine_name)) {}

void EngineMetricsMirror::Publish(const EngineStats& current) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Clamp at zero: counters only move forward even if an engine ever resets
  // its snapshot (e.g. in Quiesce).
  auto delta = [](int64_t now, int64_t then) {
    return static_cast<double>(std::max<int64_t>(now - then, 0));
  };
  queries_.Increment();
  frames_decoded_.Increment(delta(current.frames_decoded, last_.frames_decoded));
  frames_encoded_.Increment(delta(current.frames_encoded, last_.frames_encoded));
  cache_hits_.Increment(delta(current.cache_hits, last_.cache_hits));
  cache_misses_.Increment(delta(current.cache_misses, last_.cache_misses));
  chunked_redecodes_.Increment(
      delta(current.chunked_redecodes, last_.chunked_redecodes));
  cnn_frames_full_.Increment(delta(current.cnn_frames_full, last_.cnn_frames_full));
  cnn_frames_cheap_.Increment(
      delta(current.cnn_frames_cheap, last_.cnn_frames_cheap));
  cnn_frames_skipped_.Increment(
      delta(current.cnn_frames_skipped, last_.cnn_frames_skipped));
  last_ = current;
}

video::codec::GopCache& ResolveGopCache(const EngineOptions& options) {
  video::codec::GopCache& cache = options.gop_cache != nullptr
                                      ? *options.gop_cache
                                      : video::codec::GopCache::Global();
  if (options.gop_cache_bytes > 0) cache.set_capacity_bytes(options.gop_cache_bytes);
  return cache;
}

}  // namespace visualroad::systems::detail
