#ifndef VISUALROAD_DRIVER_DATASETS_H_
#define VISUALROAD_DRIVER_DATASETS_H_

#include <string>
#include <vector>

#include "simulation/generator.h"
#include "video/webvtt.h"
#include "vision/miniyolo.h"

namespace visualroad::driver {

/// A named dataset configuration (Table 2).
struct NamedDataset {
  std::string name;
  sim::CityConfig config;
};

/// The six pregenerated dataset configurations of Table 2, proportionally
/// scaled for a single-machine reproduction: resolutions are 1/4 linear
/// (1k: 960x540 -> 240x136) and durations map 15 min -> 6 s and
/// 60 min -> 24 s. The L (scale factor) values match the paper exactly.
/// The mapping is recorded in EXPERIMENTS.md.
std::vector<NamedDataset> PregeneratedConfigs();

/// Generates a random caption document for a video of `duration` seconds:
/// randomly positioned, non-overlapping cues (Section 4.1.1, Q6(b)).
video::WebVttDocument GenerateRandomCaptions(Pcg32& rng, double duration);

/// Attaches a randomly generated "WVTT" caption track to every asset of the
/// dataset (the VCD's Q6(b) preparation step). Deterministic in `seed`.
void AttachCaptionTracks(sim::Dataset& dataset, uint64_t seed);

/// Attaches the Q6(a) inputs to every traffic asset: the bounding-box video
/// B = Q2c(V_i), "generated offline by the VCD by applying the reference
/// implementation of Q2(c)" (Section 4.1.1), in both formats the VCD
/// exposes — an encoded video ("BOXV" track, containing both object
/// classes) and a serialized detection sequence ("BOXS" track). Engines may
/// consume either when executing Q6(a). Assets that already carry "BOXV"
/// are skipped. Each remaining traffic asset is one task on the codec pool
/// that streams its video frame by frame (decode, detect, draw, encode), so
/// memory holds one decoded frame per task; the tracks are byte-identical at
/// every pool width.
Status AttachBoxTracks(sim::Dataset& dataset,
                       const vision::DetectorOptions& detector_options = {});

/// Convenience: generates the dataset for `config` and attaches caption
/// tracks, returning a corpus ready for the driver.
StatusOr<sim::Dataset> PrepareDataset(const sim::CityConfig& config,
                                      const sim::GeneratorOptions& options = {});

}  // namespace visualroad::driver

#endif  // VISUALROAD_DRIVER_DATASETS_H_
