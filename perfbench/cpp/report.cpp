#include "report.h"

#include <algorithm>

#include "workloads.h"

namespace perfbench {

using propsim::ExperimentResult;

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<Metric> layer_times(const SpanRecorder& rec,
                                const TracedRun& run) {
  const double loop_self_s = rec.self_ms(Layer::kSimLoop) / 1e3;
  const double sweep_ms = rec.total_ms(Layer::kMeasureSweep);
  const double floods = static_cast<double>(run.result.measure_exact_floods +
                                            run.result.measure_fast_floods);
  const std::vector<double> ticks_ms = [&] {
    std::vector<double> v = rec.durations_us(Layer::kMetricsTick);
    for (double& x : v) x /= 1e3;
    return v;
  }();
  const std::vector<double> live_us =
      rec.durations_us(Layer::kOverlayLiveFlood);
  return {
      {"measure.capture_ms", rec.total_ms(Layer::kMeasureCapture), "ms"},
      {"measure.sweep_ms", sweep_ms, "ms"},
      {"measure.us_per_flood", ratio(sweep_ms * 1e3, floods), "us"},
      {"metrics.tick_ms_p50", median(ticks_ms), "ms"},
      {"metrics.tick_ms_max", quantile(ticks_ms, 1.0), "ms"},
      {"overlay.live_flood_ms", rec.total_ms(Layer::kOverlayLiveFlood), "ms"},
      {"overlay.live_flood_us_p50", median(live_us), "us"},
      {"overlay.live_flood_us_p99", quantile(live_us, 0.99), "us"},
      {"workload.query_gen_ms", rec.total_ms(Layer::kWorkloadQueryGen), "ms"},
      {"sim.loop_self_ms", loop_self_s * 1e3, "ms"},
      {"sim.events_per_s",
       ratio(static_cast<double>(run.result.sim_events_executed), loop_self_s),
       "1/s"},
      {"topology.generate_ms", rec.total_ms(Layer::kTopologyGenerate), "ms"},
      {"topology.oracle_build_ms", rec.total_ms(Layer::kTopologyOracle), "ms"},
      {"overlay.build_ms", rec.total_ms(Layer::kOverlayBuild), "ms"},
      {"app.config_ms", rec.total_ms(Layer::kAppConfig), "ms"},
      {"app.output_ms", rec.total_ms(Layer::kAppOutput), "ms"},
  };
}

std::vector<Metric> layer_counts(const TracedRun& run) {
  const ExperimentResult& r = run.result;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double captures = n(r.measure_snapshot_captures);
  const double reuses = n(r.measure_snapshot_reuses);
  return {
      {"measure.captures", captures, "count"},
      {"measure.reuses", reuses, "count"},
      {"measure.reuse_ratio", ratio(reuses, captures + reuses), "ratio"},
      {"measure.floods", n(r.measure_exact_floods + r.measure_fast_floods),
       "count"},
      {"metrics.ticks", n(r.series.size()), "count"},
      {"workload.lookups", n(r.lookups_issued), "count"},
      {"workload.unreachable_ratio",
       ratio(n(r.lookups_unreachable), n(r.lookups_issued)), "ratio"},
      {"sim.events", n(r.sim_events_executed), "count"},
      {"core.attempts", n(r.attempts), "count"},
      {"core.exchanges", n(r.exchanges), "count"},
      {"core.commit_ratio", ratio(n(r.exchanges), n(r.attempts)), "ratio"},
      {"core.control_messages", n(r.control_messages), "count"},
      {"core.messages_per_attempt",
       ratio(n(r.control_messages), n(r.attempts)), "msg/attempt"},
      {"faults.messages", n(r.fault_messages), "count"},
      {"faults.losses", n(r.fault_losses), "count"},
      {"faults.retries", n(r.retries), "count"},
      {"faults.timeouts", n(r.timeouts), "count"},
      {"faults.crashes", n(r.fault_crashes), "count"},
      {"topology.nodes", n(run.topology_nodes), "count"},
      {"overlay.edges", n(run.overlay_edges), "count"},
      {"app.output_bytes", n(canonical_output(run.spec, r).size()), "bytes"},
  };
}

}  // namespace perfbench
