#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "perfbench.h"

namespace perfbench {

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

/// Continued fraction for the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    for (int step = 0; step < 2; ++step) {
      double num = step == 0 ? m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
                             : -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
      d = 1.0 + num * d;
      d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1.0 + num / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      h *= d * c;
    }
    if (std::fabs(d * c - 1.0) < 1e-12) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double RegularizedBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                          a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * BetaContinuedFraction(a, b, x) / a;
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

/// FNV-1a over a byte range, chained through `seed`.
uint64_t Fnv1a(const void* data, size_t size, uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// VmHWM of /proc/<pid>/status in KiB, or 0 when unreadable.
double PeakRssKb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

/// Parent pid from /proc/<pid>/stat (the field after the parenthesised name).
long ParentPid(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  char state = 0;
  long ppid = -1;
  if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) != 2) return -1;
  return ppid;
}

}  // namespace

double QuantileHD(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    double upto = RegularizedBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

double PeakRssMb() {
  double kb = PeakRssKb("self");
  const long self = static_cast<long>(::getpid());
  if (DIR* proc = ::opendir("/proc")) {
    while (dirent* entry = ::readdir(proc)) {
      std::string name = entry->d_name;
      if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      if (ParentPid(name) == self) kb += PeakRssKb(name);
    }
    ::closedir(proc);
  }
  return kb / 1024.0;
}

uint64_t VideoDigest(const vr::video::codec::EncodedVideo& video) {
  uint64_t hash = Fnv1a(&video.width, sizeof(video.width));
  hash = Fnv1a(&video.height, sizeof(video.height), hash);
  for (const vr::video::codec::EncodedFrame& frame : video.frames) {
    hash = Fnv1a(frame.data.data(), frame.data.size(), hash);
  }
  return hash;
}

void SpanLog::Record(const std::string& name, double start, double end) {
  if (!enabled_) return;
  double begin = NowSeconds();
  // A small dense id per recording thread, so concurrent spans land on
  // separate tracks.
  static std::atomic<int> next_tid{1};
  thread_local const int tid = next_tid.fetch_add(1);
  vr::trace::Event event;
  event.name = name;
  event.start_us = start * 1e6;
  event.dur_us = (end - start) * 1e6;
  event.tid = tid;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
  overhead_seconds_ += NowSeconds() - begin;
}

double SpanLog::overhead_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overhead_seconds_;
}

vr::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return vr::trace::WriteChromeTrace(path, events_);
}

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool MetricSet::Has(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

std::string MetricSet::Json() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // %.17g keeps every digit the double carries.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entries_[i].value) ? entries_[i].value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string MetricSet::Text(const std::string& indent) const {
  std::ostringstream out;
  for (const Entry& entry : entries_) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s%-34s %14.6g %s\n", indent.c_str(),
                  entry.name.c_str(), entry.value, entry.unit.c_str());
    out << line;
  }
  return out.str();
}

vr::StatusOr<vr::systems::QueryOutput> TimedEngine::Execute(
    const vr::queries::QueryInstance& instance, const vr::sim::Dataset& dataset,
    vr::systems::OutputMode mode, const std::string& output_dir,
    vr::systems::EngineStats* call_stats) {
  CallRecord record;
  record.instance = instance;
  record.start = NowSeconds();
  vr::StatusOr<vr::systems::QueryOutput> output =
      engine_->Execute(instance, dataset, mode, output_dir, &record.stats);
  record.end = NowSeconds();
  if (call_stats != nullptr) *call_stats = record.stats;
  spans_->Record(std::string("systems.Execute:") + vr::queries::QueryName(instance.id),
                 record.start, record.end);
  std::lock_guard<std::mutex> lock(mutex_);
  calls_.push_back(std::move(record));
  return output;
}

std::vector<CallRecord> TimedEngine::TakeCalls() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CallRecord> calls = std::move(calls_);
  calls_.clear();
  return calls;
}

}  // namespace perfbench
