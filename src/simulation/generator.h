#ifndef VISUALROAD_SIMULATION_GENERATOR_H_
#define VISUALROAD_SIMULATION_GENERATOR_H_

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "simulation/city.h"
#include "simulation/ground_truth.h"
#include "video/codec/codec.h"
#include "video/container/vrmp.h"

namespace visualroad::sim {

/// One generated input video: the camera that produced it, its encoded
/// container (with an embedded "GTRU" ground-truth track), and the parsed
/// per-frame ground truth.
struct VideoAsset {
  CameraPlacement camera;
  video::container::Container container;
  std::vector<FrameGroundTruth> ground_truth;
};

/// A complete generated dataset: the benchmark's input corpus.
struct Dataset {
  CityConfig config;
  std::vector<VideoAsset> assets;

  /// Traffic-camera assets only (the inputs to Q7/Q8).
  std::vector<const VideoAsset*> TrafficAssets() const;
  /// The four face assets of panoramic rig `group`, ordered by face.
  std::vector<const VideoAsset*> PanoramicGroup(int group) const;
  /// Number of panoramic rigs in the dataset.
  int PanoramicGroupCount() const;
};

/// VCG tuning knobs.
struct GeneratorOptions {
  /// Codec settings used to encode every camera's output.
  video::codec::EncoderConfig codec;
  /// Number of simulated nodes for distributed generation; tiles are
  /// partitioned across nodes, which render in parallel (Section 5). 1 =
  /// single-node mode. Nodes share the codec pool for intra-tile work.
  int num_nodes = 1;
  /// Tiles in flight for single-node generation, one task per tile. Within a
  /// tile, each frame's cameras always render and encode on the codec pool
  /// at full width, so threads = 1 already uses every core and larger values
  /// add only tile concurrency. Output is byte-identical at every value
  /// because every tile derives its own RNG substream, its simulation steps
  /// serially, and results are merged in tile order. Ignored when
  /// num_nodes > 1 (each simulated node is already one worker).
  int threads = 1;
};

/// Timing breakdown for the most recent generation (drives Figures 8 and 9).
struct GeneratorStats {
  double total_seconds = 0.0;
  int64_t frames_rendered = 0;
  int64_t bytes_encoded = 0;
  /// Tile workers (1 = one tile at a time).
  int workers = 1;
  /// Executor counters for the tile pool (zeroed when tiles run one at a
  /// time).
  PoolStats pool;
};

/// The Visual City Generator (Section 3.1): builds a Visual City from the
/// hyperparameters, executes the simulation, captures every camera, encodes
/// the videos, and attaches automatically computed ground truth.
class VisualCityGenerator {
 public:
  explicit VisualCityGenerator(const GeneratorOptions& options) : options_(options) {}

  /// Generates the full dataset for `config`.
  StatusOr<Dataset> Generate(const CityConfig& config);

  const GeneratorStats& last_stats() const { return stats_; }

 private:
  GeneratorOptions options_;
  GeneratorStats stats_;
};

}  // namespace visualroad::sim

#endif  // VISUALROAD_SIMULATION_GENERATOR_H_
