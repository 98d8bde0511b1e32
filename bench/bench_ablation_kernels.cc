// Ablation bench: the SIMD kernel layer (DESIGN.md §13).
//
// Times every dispatched pixel kernel at each SIMD level (scalar / AVX2,
// clamped to what the host CPU reports) through the same KernelTable the
// engines use, and cross-checks that the AVX2 level reproduces the scalar
// output byte for byte on the bench inputs. Every (kernel, level) pair runs
// one untimed warm-up rep; then the levels take turns rep by rep, so host
// drift lands on both levels alike, and each pair reports the median and
// interquartile range of its timed reps. Two aggregates sum the kernels of
// each codec direction rep by rep: decode (IDCT + dequantise, what Decode()
// bottoms out in) and encode (SAD + forward DCT + quantise). A table entry
// keeps its AVX2 variant only if it beats scalar by at least 1.2x at the
// median.
//
// Prints per-kernel tables and writes machine-readable results, with the
// host's nproc and the build type, to bench/BENCH_kernels.json (override with
// VR_KERNELS_OUT).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "driver/report.h"
#include "video/kernels/kernels.h"

namespace visualroad::video::kernels {
namespace {

constexpr int kWarmupReps = 1;
constexpr int kTimedReps = 31;
constexpr int kRowWidth = 1920;
constexpr int kPlaneW = 256, kPlaneH = 144;

struct Workload {
  // Pixel planes and blocks shared by every kernel's timing loop.
  std::vector<uint8_t> cur, ref, rgb, row_a, row_b;
  std::vector<uint32_t> acc;
  int16_t block[64];
  double coefficients[64];
  int16_t levels[64];
  SpanSetup span;

  Workload() {
    Pcg32 rng(42, 7);
    cur.resize(static_cast<size_t>(kPlaneW) * kPlaneH);
    ref.resize(cur.size());
    for (size_t i = 0; i < cur.size(); ++i) {
      cur[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
      ref[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    rgb.resize(static_cast<size_t>(kRowWidth) * 3);
    for (uint8_t& b : rgb) b = static_cast<uint8_t>(rng.NextInt(0, 255));
    row_a.resize(kRowWidth);
    row_b.resize(kRowWidth);
    for (int i = 0; i < kRowWidth; ++i) {
      row_a[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
      row_b[i] = static_cast<uint8_t>(rng.NextInt(0, 255));
    }
    acc.assign(kRowWidth, 0);
    for (int i = 0; i < 64; ++i) {
      block[i] = static_cast<int16_t>(rng.NextInt(-255, 255));
      coefficients[i] = rng.NextGaussian(0.0, 160.0);
      levels[i] = static_cast<int16_t>(rng.NextInt(-90, 90));
    }
    // A triangle whose spans cover most of a 64-pixel chunk.
    span = SpanSetup{4.0,  2.0,  60.0, 8.0,  30.0, 60.0, 0.0,  0.02,
                     0.03, 0.05, 0.1,  0.9,  0.4,  0.2,  0.1,  0.8};
    double area = (span.s1x - span.s0x) * (span.s2y - span.s0y) -
                  (span.s2x - span.s0x) * (span.s1y - span.s0y);
    span.inv_area = 1.0 / area;
  }
};

/// One kernel's timing harness: `calls` is how many kernel invocations one
/// rep performs (the reported unit is ns per invocation), and `run` performs
/// one rep against the given table.
struct KernelCase {
  Kernel kernel;
  int calls;
  void (*run)(const KernelTable&, Workload&);
};

void RunSad(const KernelTable& kt, Workload& w) {
  int64_t total = 0;
  for (int by = 0; by + 16 <= kPlaneH; by += 16) {
    for (int bx = 0; bx + 16 <= kPlaneW; bx += 16) {
      total += kt.sad_bounded(w.cur.data() + by * kPlaneW + bx, kPlaneW,
                              w.ref.data() + by * kPlaneW + bx, kPlaneW, 16,
                              INT64_MAX);
    }
  }
  if (total < 0) std::abort();  // Keeps the loop observable.
}

void RunForwardDct(const KernelTable& kt, Workload& w) {
  double out[64];
  for (int i = 0; i < 64; ++i) {
    kt.forward_dct(w.block, out);
  }
  if (out[0] == 1e300) std::abort();
}

void RunInverseDct(const KernelTable& kt, Workload& w) {
  int16_t out[64];
  for (int i = 0; i < 64; ++i) {
    kt.inverse_dct(w.coefficients, out);
  }
  if (out[0] == 12345) std::abort();
}

void RunQuantize(const KernelTable& kt, Workload& w) {
  int16_t out[64];
  for (int i = 0; i < 64; ++i) {
    kt.quantize(w.coefficients, 5.0, out);
  }
  if (out[0] == 12345) std::abort();
}

void RunDequantize(const KernelTable& kt, Workload& w) {
  double out[64];
  for (int i = 0; i < 64; ++i) {
    kt.dequantize(w.levels, 5.0, out);
  }
  if (out[0] == 1e300) std::abort();
}

void RunRgbToYuv(const KernelTable& kt, Workload& w) {
  uint8_t y[kRowWidth], u[kRowWidth], v[kRowWidth];
  for (int i = 0; i < 16; ++i) {
    kt.rgb_to_yuv_row(w.rgb.data(), kRowWidth, y, u, v);
  }
  if (y[0] == 254 && u[0] == 254 && v[0] == 254) std::abort();
}

void RunYuvToRgb(const KernelTable& kt, Workload& w) {
  uint8_t rgb[kRowWidth * 3];
  for (int i = 0; i < 16; ++i) {
    kt.yuv_to_rgb_row(w.row_a.data(), w.row_b.data(), w.row_b.data(), kRowWidth,
                      rgb);
  }
  if (rgb[0] == 254 && rgb[1] == 254) std::abort();
}

void RunMask(const KernelTable& kt, Workload& w) {
  uint8_t mask[kRowWidth];
  for (int i = 0; i < 16; ++i) {
    kt.mask_static_row(w.row_a.data(), w.row_b.data(), 0.1, kRowWidth, mask);
  }
  if (mask[0] == 77) std::abort();
}

void RunAccumulate(const KernelTable& kt, Workload& w) {
  for (int i = 0; i < 16; ++i) {
    kt.accumulate_row(w.row_a.data(), kRowWidth, i % 2 == 0 ? 1 : -1,
                      w.acc.data());
  }
}

void RunRasterSpan(const KernelTable& kt, Workload& w) {
  uint8_t valid[64];
  float depth[64];
  double u[64], v[64];
  for (int i = 0; i < 64; ++i) {
    kt.raster_span(w.span, 16.5, 0, 64, valid, depth, u, v);
  }
  if (valid[0] == 77) std::abort();
}

const KernelCase kCases[] = {
    {Kernel::kSad, (kPlaneH / 16) * (kPlaneW / 16), RunSad},
    {Kernel::kForwardDct, 64, RunForwardDct},
    {Kernel::kInverseDct, 64, RunInverseDct},
    {Kernel::kQuantize, 64, RunQuantize},
    {Kernel::kDequantize, 64, RunDequantize},
    {Kernel::kRgbToYuvRow, 16, RunRgbToYuv},
    {Kernel::kYuvToRgbRow, 16, RunYuvToRgb},
    {Kernel::kMaskStaticRow, 16, RunMask},
    {Kernel::kAccumulateRow, 16, RunAccumulate},
    {Kernel::kRasterSpan, 64, RunRasterSpan},
};

constexpr int kLevelCount = static_cast<int>(SimdLevel::kAvx2) + 1;

/// The kernels each codec direction bottoms out in.
struct CodecPath {
  const char* name;
  std::vector<Kernel> kernels;
};

const CodecPath kPaths[] = {
    {"decode", {Kernel::kInverseDct, Kernel::kDequantize}},
    {"encode", {Kernel::kSad, Kernel::kForwardDct, Kernel::kQuantize}},
};

/// "decode" or "encode" for a kernel on one of the paths, else "other".
const char* PathOf(Kernel kernel) {
  for (const CodecPath& path : kPaths) {
    if (std::find(path.kernels.begin(), path.kernels.end(), kernel) !=
        path.kernels.end()) {
      return path.name;
    }
  }
  return "other";
}

/// Median and interquartile range of one (kernel, level) pair's timed reps.
struct Summary {
  double median = 0.0;
  double iqr = 0.0;
};

Summary Summarize(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return {samples[n / 2], samples[(3 * n) / 4] - samples[n / 4]};
}

/// Nanoseconds per kernel invocation, kTimedReps samples per level in
/// `tier`, indexed [level][rep]. After one warm-up rep per level, the levels
/// alternate within every rep, and the first level alternates between reps.
std::vector<std::vector<double>> InterleavedNsPerCall(
    const KernelCase& c, const std::vector<SimdLevel>& tier) {
  std::vector<Workload> workloads(tier.size());
  for (size_t t = 0; t < tier.size(); ++t) {
    for (int rep = 0; rep < kWarmupReps; ++rep) c.run(KernelsFor(tier[t]), workloads[t]);
  }
  std::vector<std::vector<double>> ns(kLevelCount);
  for (int rep = 0; rep < kTimedReps; ++rep) {
    for (size_t i = 0; i < tier.size(); ++i) {
      size_t t = (i + static_cast<size_t>(rep)) % tier.size();
      Stopwatch watch;
      c.run(KernelsFor(tier[t]), workloads[t]);
      ns[static_cast<size_t>(tier[t])].push_back(
          watch.ElapsedSeconds() * 1e9 / static_cast<double>(c.calls));
    }
  }
  return ns;
}

/// Byte-compares `level`'s output against scalar on the bench inputs;
/// returns false (and reports) on any mismatch.
bool VerifyIdentity(SimdLevel level) {
  const KernelTable& kt = KernelsFor(level);
  const KernelTable& ref = KernelsFor(SimdLevel::kScalar);
  Workload w;
  bool ok = true;
  auto check = [&](bool same, const char* what) {
    if (!same) {
      std::fprintf(stderr, "IDENTITY FAILURE: %s diverges at %s\n", what,
                   SimdLevelName(level));
      ok = false;
    }
  };

  int64_t sad_a = kt.sad_bounded(w.cur.data(), kPlaneW, w.ref.data(), kPlaneW,
                                 16, INT64_MAX);
  int64_t sad_b = ref.sad_bounded(w.cur.data(), kPlaneW, w.ref.data(), kPlaneW,
                                  16, INT64_MAX);
  check(sad_a == sad_b, "sad");

  double fa[64], fb[64];
  kt.forward_dct(w.block, fa);
  ref.forward_dct(w.block, fb);
  check(std::memcmp(fa, fb, sizeof(fa)) == 0, "fdct");

  int16_t ia[64], ib[64];
  kt.inverse_dct(w.coefficients, ia);
  ref.inverse_dct(w.coefficients, ib);
  check(std::memcmp(ia, ib, sizeof(ia)) == 0, "idct");

  kt.quantize(w.coefficients, 5.0, ia);
  ref.quantize(w.coefficients, 5.0, ib);
  check(std::memcmp(ia, ib, sizeof(ia)) == 0, "quant");

  kt.dequantize(w.levels, 5.0, fa);
  ref.dequantize(w.levels, 5.0, fb);
  check(std::memcmp(fa, fb, sizeof(fa)) == 0, "dequant");

  uint8_t ya[kRowWidth], ua[kRowWidth], va[kRowWidth];
  uint8_t yb[kRowWidth], ub[kRowWidth], vb[kRowWidth];
  kt.rgb_to_yuv_row(w.rgb.data(), kRowWidth, ya, ua, va);
  ref.rgb_to_yuv_row(w.rgb.data(), kRowWidth, yb, ub, vb);
  check(std::memcmp(ya, yb, sizeof(ya)) == 0 &&
            std::memcmp(ua, ub, sizeof(ua)) == 0 &&
            std::memcmp(va, vb, sizeof(va)) == 0,
        "rgb2yuv");

  uint8_t ra[kRowWidth * 3], rb[kRowWidth * 3];
  kt.yuv_to_rgb_row(w.row_a.data(), w.row_b.data(), w.row_b.data(), kRowWidth,
                    ra);
  ref.yuv_to_rgb_row(w.row_a.data(), w.row_b.data(), w.row_b.data(), kRowWidth,
                     rb);
  check(std::memcmp(ra, rb, sizeof(ra)) == 0, "yuv2rgb");

  kt.mask_static_row(w.row_a.data(), w.row_b.data(), 0.1, kRowWidth, ya);
  ref.mask_static_row(w.row_a.data(), w.row_b.data(), 0.1, kRowWidth, yb);
  check(std::memcmp(ya, yb, kRowWidth) == 0, "mask");

  std::vector<uint32_t> acc_a(kRowWidth, 7), acc_b(kRowWidth, 7);
  kt.accumulate_row(w.row_a.data(), kRowWidth, 1, acc_a.data());
  ref.accumulate_row(w.row_a.data(), kRowWidth, 1, acc_b.data());
  kt.accumulate_row(w.row_b.data(), kRowWidth, -1, acc_a.data());
  ref.accumulate_row(w.row_b.data(), kRowWidth, -1, acc_b.data());
  check(acc_a == acc_b, "accum");

  uint8_t valid_a[64], valid_b[64];
  float depth_a[64], depth_b[64];
  double ua2[64], va2[64], ub2[64], vb2[64];
  kt.raster_span(w.span, 16.5, 0, 64, valid_a, depth_a, ua2, va2);
  ref.raster_span(w.span, 16.5, 0, 64, valid_b, depth_b, ub2, vb2);
  bool span_same = std::memcmp(valid_a, valid_b, sizeof(valid_a)) == 0;
  for (int i = 0; span_same && i < 64; ++i) {
    if (valid_a[i]) {
      span_same = std::memcmp(&depth_a[i], &depth_b[i], sizeof(float)) == 0 &&
                  std::memcmp(&ua2[i], &ub2[i], sizeof(double)) == 0 &&
                  std::memcmp(&va2[i], &vb2[i], sizeof(double)) == 0;
    }
  }
  check(span_same, "raster_span");
  return ok;
}

int Run() {
  SimdLevel detected = DetectedSimdLevel();
  std::vector<SimdLevel> tier;
  for (int l = 0; l <= static_cast<int>(detected); ++l) {
    tier.push_back(static_cast<SimdLevel>(l));
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("SIMD kernel ablation (detected level: %s; nproc %u; %s build; "
              "median and IQR of %d interleaved reps)\n\n",
              SimdLevelName(detected), nproc, VISUALROAD_BUILD_TYPE,
              kTimedReps);

  bool identity_ok = VerifyIdentity(detected);

  // ns-per-call samples and their summaries, indexed [kernel][level].
  std::vector<std::vector<double>> samples[kKernelCount];
  Summary ns[kKernelCount][kLevelCount] = {};
  for (const KernelCase& c : kCases) {
    int k = static_cast<int>(c.kernel);
    samples[k] = InterleavedNsPerCall(c, tier);
    for (SimdLevel level : tier) {
      int l = static_cast<int>(level);
      ns[k][l] = Summarize(samples[k][static_cast<size_t>(l)]);
    }
  }

  driver::TextTable table;
  table.SetHeader({"Kernel", "Path", "scalar ns", "IQR", "avx2 ns", "IQR", "avx2 x"});
  char buffer[64];
  auto fmt = [&buffer](double v) -> std::string {
    if (v <= 0.0) return "-";
    std::snprintf(buffer, sizeof(buffer), "%.1f", v);
    return buffer;
  };
  for (const KernelCase& c : kCases) {
    const Summary* level = ns[static_cast<int>(c.kernel)];
    table.AddRow({KernelName(c.kernel), PathOf(c.kernel), fmt(level[0].median),
                  fmt(level[0].iqr), fmt(level[1].median), fmt(level[1].iqr),
                  level[1].median > 0.0
                      ? fmt(level[0].median / level[1].median) + "x"
                      : "-"});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Per-path aggregates, summed rep by rep, indexed [path][level].
  Summary path_ns[std::size(kPaths)][kLevelCount] = {};
  for (size_t p = 0; p < std::size(kPaths); ++p) {
    std::string names;
    for (SimdLevel level : tier) {
      size_t l = static_cast<size_t>(level);
      std::vector<double> sum(kTimedReps, 0.0);
      for (Kernel kernel : kPaths[p].kernels) {
        const std::vector<double>& kernel_ns = samples[static_cast<int>(kernel)][l];
        for (size_t rep = 0; rep < sum.size(); ++rep) sum[rep] += kernel_ns[rep];
      }
      path_ns[p][l] = Summarize(std::move(sum));
    }
    for (Kernel kernel : kPaths[p].kernels) {
      if (!names.empty()) names += "+";
      names += KernelName(kernel);
    }
    std::printf("%s-path aggregate (%s): scalar %.0fns (IQR %.0f)", kPaths[p].name,
                names.c_str(), path_ns[p][0].median, path_ns[p][0].iqr);
    if (path_ns[p][1].median > 0.0) {
      std::printf(", avx2 %.0fns (IQR %.0f, %.2fx)", path_ns[p][1].median,
                  path_ns[p][1].iqr, path_ns[p][0].median / path_ns[p][1].median);
    }
    std::printf("\n");
  }
  std::printf("Identity: %s\n\n",
              identity_ok ? "every level byte-identical to scalar"
                          : "FAILURES (see stderr)");

  const char* env_out = std::getenv("VR_KERNELS_OUT");
  std::string out_path = env_out != nullptr && env_out[0] != '\0'
                             ? env_out
                             : "bench/BENCH_kernels.json";
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  // One {"level", <value key>, <value key>_iqr, "speedup_vs_scalar"} row per
  // level; the speedup is the ratio of the medians.
  auto write_levels = [&](const Summary* level_ns, const char* key,
                          const char* indent) {
    for (size_t t = 0; t < tier.size(); ++t) {
      int l = static_cast<int>(tier[t]);
      out << indent << "{\"level\": \"" << SimdLevelName(tier[t]) << "\", \""
          << key << "\": " << level_ns[l].median << ", \"" << key
          << "_iqr\": " << level_ns[l].iqr << ", \"speedup_vs_scalar\": "
          << (level_ns[l].median > 0.0 ? level_ns[0].median / level_ns[l].median
                                       : 0.0)
          << "}" << (t + 1 < tier.size() ? "," : "") << "\n";
    }
  };
  out << "{\n  \"detected_level\": \"" << SimdLevelName(detected)
      << "\",\n  \"nproc\": " << nproc << ",\n  \"build_type\": \""
      << VISUALROAD_BUILD_TYPE << "\",\n  \"identity_ok\": "
      << (identity_ok ? "true" : "false")
      << ",\n  \"warm_reps\": " << kWarmupReps
      << ",\n  \"timed_reps\": " << kTimedReps << ",\n  \"kernels\": [\n";
  for (size_t i = 0; i < std::size(kCases); ++i) {
    Kernel kernel = kCases[i].kernel;
    out << "    {\n      \"name\": \"" << KernelName(kernel)
        << "\",\n      \"path\": \"" << PathOf(kernel)
        << "\",\n      \"levels\": [\n";
    write_levels(ns[static_cast<int>(kernel)], "ns_per_call", "        ");
    out << "      ]\n    }" << (i + 1 < std::size(kCases) ? "," : "") << "\n";
  }
  out << "  ]";
  for (size_t p = 0; p < std::size(kPaths); ++p) {
    out << ",\n  \"" << kPaths[p].name << "_path_aggregate\": [\n";
    write_levels(path_ns[p], "ns", "    ");
    out << "  ]";
  }
  out << "\n}\n";
  std::printf("Wrote %s\n", out_path.c_str());
  return identity_ok ? 0 : 1;
}

}  // namespace
}  // namespace visualroad::video::kernels

int main() { return visualroad::video::kernels::Run(); }
