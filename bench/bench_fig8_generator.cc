// Reproduces Figure 8: single-node VCG generation time by scale factor and
// resolution.
//
// The paper shows approximately linear growth in L at each resolution (the
// number of cameras, and so the number of rendered pixels, is linear in L),
// with the highest resolution growing fastest. Resolutions here are the
// proportionally scaled 1k/2k/4k equivalents.

#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace visualroad::bench {
namespace {

int Run() {
  PrintBanner("Figure 8 - Generator time by scale and resolution",
              "Single-node VCG runs; expect ~linear growth in L per resolution.");

  double duration = QuickMode() ? 0.5 : 1.0;
  int l_max = EnvInt("VR_FIG8_LMAX", QuickMode() ? 2 : 4);

  struct Resolution {
    const char* label;
    int width, height;
    int l_cap;  // 4k-proportional renders ~16x the pixels of 1k; cap its L.
  };
  const Resolution resolutions[] = {
      {"1k", 240, 136, l_max},
      {"2k", 480, 270, l_max},
      {"4k", 960, 540, QuickMode() ? 1 : 2},
  };

  driver::TextTable table;
  std::vector<std::string> header{"Resolution"};
  for (int l = 1; l <= l_max; l *= 2) header.push_back("L=" + std::to_string(l));
  header.push_back("growth L1->Lmax");
  table.SetHeader(header);

  for (const Resolution& resolution : resolutions) {
    std::vector<std::string> row{resolution.label};
    double first = 0.0, last = 0.0;
    int last_l = 1;
    for (int l = 1; l <= l_max; l *= 2) {
      if (l > resolution.l_cap) {
        row.push_back("(skipped)");
        continue;
      }
      sim::CityConfig config;
      config.scale_factor = l;
      config.width = resolution.width;
      config.height = resolution.height;
      config.duration_seconds = duration;
      config.fps = kBaseFps;
      config.seed = 800 + static_cast<uint64_t>(l);
      sim::GeneratorOptions options;
      options.codec.qp = 26;
      sim::VisualCityGenerator generator(options);
      auto dataset = generator.Generate(config);
      if (!dataset.ok()) {
        std::fprintf(stderr, "generation failed: %s\n",
                     dataset.status().ToString().c_str());
        return 1;
      }
      double seconds = generator.last_stats().total_seconds;
      if (l == 1) first = seconds;
      last = seconds;
      last_l = l;
      row.push_back(driver::FormatSeconds(seconds));
    }
    char growth[48];
    std::snprintf(growth, sizeof(growth), "%.1fx over %dx tiles",
                  first > 0 ? last / first : 0.0, last_l);
    row.push_back(growth);
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  // --- Parallel tile generation ---
  // The VCG renders and encodes tiles concurrently when
  // GeneratorOptions::threads > 1; output stays byte-identical because each
  // tile derives its own RNG substream and results merge in tile order.
  // Within a tile, each frame's cameras already run on the codec pool at
  // full width, so at 1 thread the cameras fill the cores and the Threads
  // column measures only tile concurrency on top of that. Efficiency is the
  // tile pool's busy share, which includes time its tasks wait on the codec
  // pool. The speedup column only reflects real cores: on a single-core host
  // every thread count collapses to serial wall-clock time.
  std::printf("Parallel tile generation (hardware threads: %d)\n",
              ThreadPool::HardwareThreads());
  sim::CityConfig config;
  config.scale_factor = QuickMode() ? 2 : 4;
  config.width = 480;
  config.height = 270;
  config.duration_seconds = duration;
  config.fps = kBaseFps;
  config.seed = 808;

  driver::TextTable scaling;
  scaling.SetHeader({"Threads", "Runtime", "Speedup", "Efficiency", "Output"});
  double baseline_seconds = 0.0;
  sim::Dataset baseline;
  for (int threads : {1, 2, 4, 8}) {
    sim::GeneratorOptions options;
    options.codec.qp = 26;
    options.threads = threads;
    sim::VisualCityGenerator generator(options);
    auto dataset = generator.Generate(config);
    if (!dataset.ok()) {
      std::fprintf(stderr, "parallel generation failed: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    const sim::GeneratorStats& stats = generator.last_stats();
    double seconds = stats.total_seconds;

    std::string output = "baseline";
    if (threads == 1) {
      baseline_seconds = seconds;
      baseline = std::move(dataset).value();
    } else {
      // Determinism check: byte-identical to the serial run, asset by asset.
      bool identical = dataset->assets.size() == baseline.assets.size();
      for (size_t i = 0; identical && i < baseline.assets.size(); ++i) {
        const auto& a = baseline.assets[i].container.video.frames;
        const auto& b = dataset->assets[i].container.video.frames;
        identical = a.size() == b.size();
        for (size_t f = 0; identical && f < a.size(); ++f) {
          identical = a[f].data == b[f].data;
        }
      }
      output = identical ? "identical" : "DIVERGED";
    }

    double efficiency =
        threads > 1 && seconds > 0.0
            ? stats.pool.busy_seconds / (threads * seconds)
            : 1.0;
    char eff[32];
    std::snprintf(eff, sizeof(eff), "%.0f%%", 100.0 * efficiency);
    scaling.AddRow({std::to_string(threads), driver::FormatSeconds(seconds),
                    driver::FormatRatio(seconds > 0 ? baseline_seconds / seconds
                                                    : 0.0),
                    eff, output});
  }
  std::printf("%s\n", scaling.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace visualroad::bench

int main() { return visualroad::bench::Run(); }
