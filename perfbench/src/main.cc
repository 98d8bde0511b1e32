// perfbench: the repository benchmark binary. Usually started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload offline_mix --seed 1 --seconds 10 --trace 0
//
// Prints host context, gate notes and every metric by name and unit, then,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. A failed correctness check exits
// non-zero without printing a result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/cpu.h"
#include "common/trace.h"
#include "perfbench.h"
#include "video/kernels/kernels.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--dataset-seed N]\n"
               "       perfbench --record-semantic 1 [--dataset-seed N]\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParsePositive(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0.0)) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, record = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage();
    ++i;
    uint64_t number = 0;
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(arg, "--seed") == 0 && ParseUint(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (std::strcmp(arg, "--dataset-seed") == 0 && ParseUint(value, &number)) {
      options.dataset_seed = number;
    } else if (std::strcmp(arg, "--seconds") == 0 && ParsePositive(value, &options.seconds)) {
    } else if (std::strcmp(arg, "--trace") == 0 && ParseUint(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else if (std::strcmp(arg, "--record-semantic") == 0 && ParseUint(value, &number)) {
      record = number == 1;
      have_workload = have_seed = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed) return Usage();
  // setup_s is an end-to-end metric; a traced run reports only the per-layer
  // set-up times of a single set-up.
  if (options.trace) options.setup_reps = 1;
  options.work_dir = ".bench_build/run/" + (record ? std::string("record") : options.workload);

  // Workers are always spawned from the binary built beside this one, and
  // neither this process nor the workers record the program's own spans:
  // both runs measure the same code, whatever the caller's environment.
  setenv("VR_WORKER_BINARY", PERFBENCH_WORKER_BINARY, /*overwrite=*/1);
  unsetenv("VR_TRACE");
  visualroad::trace::SetEnabled(false);
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (record) {
    visualroad::Status status = perfbench::RecordSemanticCounts(options);
    if (!status.ok()) std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return status.ok() ? 0 : 1;
  }

  std::printf("context: {\"workload\": \"%s\", \"seed\": %llu, \"dataset_seed\": %llu, "
              "\"nproc\": %u, \"build_type\": \"%s\", \"simd\": \"%s\", "
              "\"compiler\": \"%s\", \"trace\": %d, \"seconds\": %g}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.dataset_seed),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              visualroad::SimdLevelName(visualroad::video::kernels::ActiveSimdLevel()),
              __VERSION__, options.trace ? 1 : 0, options.seconds);

  visualroad::StatusOr<perfbench::Outcome> outcome = perfbench::RunWorkload(options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : outcome->notes) std::printf("note: %s\n", note.c_str());
  const perfbench::MetricSet& metrics =
      options.trace ? outcome->per_layer : outcome->end_to_end;
  std::printf("metrics (%s):\n%s", options.trace ? "per layer" : "end to end",
              metrics.Text("  ").c_str());
  if (!outcome->correct) {
    for (const std::string& error : outcome->errors) {
      std::fprintf(stderr, "correctness check failed: %s\n", error.c_str());
    }
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              static_cast<long long>(outcome->attempted),
              static_cast<long long>(outcome->failed), metrics.Json().c_str());
  return 0;
}
