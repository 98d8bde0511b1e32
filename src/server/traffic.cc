#include "server/traffic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/random.h"
#include "common/stopwatch.h"

namespace visualroad::server {

std::vector<Arrival> GenerateOpenLoopSchedule(const TrafficOptions& options) {
  std::vector<Arrival> schedule;
  if (options.tenants <= 0 || options.duration_seconds <= 0.0 ||
      options.arrivals_per_second <= 0.0) {
    return schedule;
  }
  const double amplitude =
      std::clamp(options.diurnal_amplitude, 0.0, 0.999);
  const double period = options.diurnal_period_seconds > 0.0
                            ? options.diurnal_period_seconds
                            : options.duration_seconds;
  // Thinning (Lewis & Shedler): draw a homogeneous process at the peak rate
  // and keep each point with probability rate(t) / peak. Exact for any
  // bounded rate function, and each tenant's stream stays independent.
  const double peak = options.arrivals_per_second * (1.0 + amplitude);
  for (int tenant = 0; tenant < options.tenants; ++tenant) {
    Pcg32 rng = SubStream(options.seed, "traffic-tenant",
                          static_cast<uint64_t>(tenant));
    double t = 0.0;
    for (;;) {
      // Exponential inter-arrival at the peak rate; 1 - U keeps the argument
      // of log strictly positive.
      t += -std::log(1.0 - rng.NextDouble()) / peak;
      if (t >= options.duration_seconds) break;
      const double rate =
          options.arrivals_per_second *
          (1.0 + amplitude * std::sin(2.0 * M_PI * t / period));
      if (rng.NextDouble() * peak <= rate) {
        schedule.push_back(Arrival{t, tenant});
      }
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.time_seconds != b.time_seconds) {
                       return a.time_seconds < b.time_seconds;
                     }
                     return a.tenant < b.tenant;
                   });
  return schedule;
}

LatencySummary Summarize(std::vector<double> latencies_seconds) {
  LatencySummary summary;
  if (latencies_seconds.empty()) return summary;
  std::sort(latencies_seconds.begin(), latencies_seconds.end());
  summary.count = static_cast<int64_t>(latencies_seconds.size());
  double sum = 0.0;
  for (double v : latencies_seconds) sum += v;
  summary.mean_seconds = sum / static_cast<double>(summary.count);
  // Nearest-rank: the smallest value with at least p of the sample at or
  // below it. Deterministic and defined for any sample size.
  auto rank = [&](double p) {
    size_t index = static_cast<size_t>(
        std::ceil(p * static_cast<double>(latencies_seconds.size())));
    index = std::min(std::max<size_t>(index, 1), latencies_seconds.size());
    return latencies_seconds[index - 1];
  };
  summary.p50_seconds = rank(0.50);
  summary.p95_seconds = rank(0.95);
  summary.p99_seconds = rank(0.99);
  summary.max_seconds = latencies_seconds.back();
  return summary;
}

StatusOr<ServingReport> RunOpenLoop(QueryServer& server, const sim::Dataset& dataset,
                                    const std::vector<Arrival>& schedule,
                                    const ReplayOptions& options) {
  ServingReport report;
  int max_tenant = -1;
  for (const Arrival& arrival : schedule) {
    max_tenant = std::max(max_tenant, arrival.tenant);
  }
  report.tenants = max_tenant + 1;

  std::vector<QueryServer::Session*> sessions;
  sessions.reserve(static_cast<size_t>(report.tenants));
  for (int tenant = 0; tenant < report.tenants; ++tenant) {
    TenantOptions policy = options.tenant;
    policy.name = "tenant-" + std::to_string(tenant);
    sessions.push_back(&server.OpenSession(policy));
  }

  std::vector<queries::QueryId> mix = options.query_mix;
  if (mix.empty()) mix.push_back(queries::QueryId::kQ1);
  const int batch_size = std::max(1, options.batch_size);

  struct Pending {
    std::future<ServedBatch> future;
    /// Input frames per instance, indexed like ServedBatch::queries.
    std::vector<int64_t> input_frames;
  };
  std::vector<Pending> pending;
  pending.reserve(schedule.size());

  Stopwatch wall;
  for (size_t k = 0; k < schedule.size(); ++k) {
    const Arrival& arrival = schedule[k];
    if (options.time_scale > 0.0) {
      const double target = arrival.time_seconds * options.time_scale;
      const double now = wall.ElapsedSeconds();
      if (target > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(target - now));
      }
    }
    // Sampling is keyed on the schedule index alone, so the offered instance
    // sequence is identical across replays regardless of shedding.
    Pcg32 rng = SubStream(options.seed, "serve-batch", static_cast<uint64_t>(k));
    std::vector<queries::QueryInstance> instances;
    std::vector<int64_t> input_frames;
    instances.reserve(static_cast<size_t>(batch_size));
    input_frames.reserve(static_cast<size_t>(batch_size));
    for (int i = 0; i < batch_size; ++i) {
      const queries::QueryId id = mix[rng.NextBounded(static_cast<uint32_t>(mix.size()))];
      VR_ASSIGN_OR_RETURN(queries::QueryInstance instance,
                          queries::SampleQueryInstance(id, dataset, rng,
                                                       options.sampler));
      input_frames.push_back(systems::detail::InputFrameCount(instance, dataset));
      instances.push_back(std::move(instance));
    }
    ++report.offered_batches;
    StatusOr<std::future<ServedBatch>> submitted =
        server.Submit(*sessions[static_cast<size_t>(arrival.tenant)],
                      std::move(instances));
    if (!submitted.ok()) {
      if (submitted.status().code() != StatusCode::kResourceExhausted) {
        return submitted.status();
      }
      ++report.shed_batches;
      continue;
    }
    ++report.admitted_batches;
    pending.push_back(Pending{std::move(submitted).value(), std::move(input_frames)});
  }
  server.Drain();
  report.wall_seconds = wall.ElapsedSeconds();

  std::vector<double> latencies;
  std::vector<double> queue_latencies;
  latencies.reserve(pending.size());
  queue_latencies.reserve(pending.size());
  for (Pending& entry : pending) {
    ServedBatch batch = entry.future.get();
    latencies.push_back(batch.total_seconds);
    queue_latencies.push_back(batch.queue_seconds);
    report.succeeded_queries += batch.succeeded;
    report.failed_queries += batch.failed;
    report.unsupported_queries += batch.unsupported;
    for (size_t i = 0; i < batch.queries.size(); ++i) {
      const ServedQuery& query = batch.queries[i];
      if (query.succeeded()) {
        report.attempted_frames += entry.input_frames[i];
        report.succeeded_frames += entry.input_frames[i];
      } else if (query.failed()) {
        report.attempted_frames += entry.input_frames[i];
      }
    }
  }
  report.latency = Summarize(std::move(latencies));
  report.queue_latency = Summarize(std::move(queue_latencies));
  if (report.wall_seconds > 0.0) {
    report.offered_per_second =
        static_cast<double>(report.offered_batches) / report.wall_seconds;
    report.attempted_frames_per_second =
        static_cast<double>(report.attempted_frames) / report.wall_seconds;
    report.goodput_frames_per_second =
        static_cast<double>(report.succeeded_frames) / report.wall_seconds;
  }
  report.server = server.stats();
  return report;
}

}  // namespace visualroad::server
