#include "traced_run.h"

#include "analysis/invariant_checker.h"
#include "app/result_json.h"
#include "core/prop_engine.h"
#include "faults/fault_plan.h"
#include "gnutella/gnutella.h"
#include "measure/measure_engine.h"
#include "measure/snapshot_cache.h"
#include "metrics/convergence.h"
#include "sim/serial_scheduler.h"
#include "workload/churn.h"
#include "workload/lookup_traffic.h"
#include "workload/lookups.h"

namespace perfbench {

using namespace propsim;

std::string traced_unsupported(const ExperimentSpec& spec) {
  using S = ExperimentSpec;
  if (spec.topology == S::Topology::kWaxman) return "topology = waxman";
  if (spec.oracle_mode == S::OracleMode::kDijkstra) return "oracle = dijkstra";
  if (spec.overlay != S::Overlay::kGnutella) {
    return std::string("overlay = ") + to_string(spec.overlay);
  }
  if (spec.protocol == S::Protocol::kLtm) return "protocol = ltm";
  if (spec.heterogeneity != S::Heterogeneity::kNone) return "heterogeneity";
  if (spec.fraction_fast_dest >= 0.0) return "fraction_fast_dest";
  if (spec.adversary.active()) return "adversary_*";
  if (!spec.faults.partitions.empty()) return "fault_partition_*";
  if (!spec.faults.storms.empty()) return "fault_storm_*";
  if (!spec.trace_path.empty()) return "trace";
  return {};
}

std::unique_ptr<Substrate> build_substrate(const ExperimentSpec& spec,
                                           SpanRecorder* recorder) {
  auto sub = std::make_unique<Substrate>(spec.seed);
  {
    SpanRecorder::Scope span(recorder, Layer::kTopologyGenerate);
    const auto cfg = spec.topology == ExperimentSpec::Topology::kTsLarge
                         ? TransitStubConfig::ts_large()
                         : TransitStubConfig::ts_small();
    sub->ts = std::make_unique<TransitStubTopology>(
        make_transit_stub(cfg, sub->rng));
  }
  PROPSIM_CHECK(spec.nodes + spec.nodes / 4 <= sub->ts->stub_nodes.size());
  {
    SpanRecorder::Scope span(recorder, Layer::kTopologyOracle);
    LatencyOracleOptions options;
    options.max_cached_rows = spec.oracle_cache_rows;
    sub->oracle = std::make_unique<LatencyOracle>(*sub->ts, options);
  }

  // The one place the benchmark constructs a scheduler.
  sub->sim = std::make_unique<SerialScheduler>();
  sub->bus.set_clock([sim = sub->sim.get()] { return sim->now(); });
  if (spec.protocol == ExperimentSpec::Protocol::kPropG ||
      spec.protocol == ExperimentSpec::Protocol::kPropO) {
    sub->bus.set_phase_boundary(spec.prop.init_timer_s *
                                static_cast<double>(spec.prop.max_init_trial));
  }

  std::vector<NodeId> pool = sub->ts->stub_nodes;
  sub->rng.shuffle(pool);
  const auto nodes = static_cast<std::ptrdiff_t>(spec.nodes);
  const std::vector<NodeId> hosts(pool.begin(), pool.begin() + nodes);
  sub->spares.assign(pool.begin() + nodes,
                     pool.begin() + nodes + nodes / 4);
  {
    SpanRecorder::Scope span(recorder, Layer::kOverlayBuild);
    sub->net = std::make_unique<OverlayNetwork>(build_gnutella_overlay(
        GnutellaConfig{}, hosts, *sub->oracle, sub->rng, &sub->bus));
  }
  return sub;
}

std::string run_traced(const Config& config, SpanRecorder& recorder,
                       TracedRun& out) {
  SpanRecorder::Scope run_span(&recorder, Layer::kAppRun);
  {
    SpanRecorder::Scope span(&recorder, Layer::kAppConfig);
    const SpecResult parsed = ExperimentSpec::from_config(config);
    if (!parsed.ok()) return parsed.error_report();
    out.spec = parsed.spec();
  }
  const ExperimentSpec& spec = out.spec;
  if (std::string why = traced_unsupported(spec); !why.empty()) {
    return "traced run does not cover " + why;
  }

  const std::unique_ptr<Substrate> sub = build_substrate(spec, &recorder);
  Scheduler& sim = *sub->sim;
  OverlayNetwork& net = *sub->net;
  obs::EventBus& bus = sub->bus;
  out.topology_nodes = sub->ts->graph.node_count();
  out.overlay_edges = net.graph().edge_count();

  std::unique_ptr<FaultInjector> faults;
  if (spec.faults.active()) {
    faults = std::make_unique<FaultInjector>(sim, spec.faults, spec.seed + 131);
    faults->set_trace(&bus);
    const TransitStubTopology& ts = *sub->ts;
    std::vector<std::uint32_t> host_domain(ts.graph.node_count(),
                                           FaultInjector::kNoDomain);
    for (NodeId h = 0; h < ts.graph.node_count(); ++h) {
      if (ts.kind[h] == NodeKind::kStub) host_domain[h] = ts.domain[h];
    }
    faults->set_host_domains(std::move(host_domain));
  }

  Rng qrng(spec.seed ^ 0x2545f4914f6cdd1dULL);
  const bool has_churn = spec.churn.join_rate_per_s > 0.0 ||
                         spec.churn.leave_rate_per_s > 0.0 ||
                         spec.churn.fail_rate_per_s > 0.0;
  const bool fault_crashes_on =
      faults != nullptr && spec.faults.crash_per_negotiation > 0.0;
  const bool membership_changes = has_churn || fault_crashes_on;
  auto make_queries = [&] {
    SpanRecorder::Scope span(&recorder, Layer::kWorkloadQueryGen);
    return uniform_queries(net.graph(), spec.queries, qrng);
  };
  std::vector<QueryPair> queries;
  if (!membership_changes) queries = make_queries();

  OverlayNetwork::LinkFilter flood_filter;
  if (faults) {
    flood_filter = [n = &net, f = faults.get()](SlotId a, SlotId b) {
      return !f->partitioned(n->placement().host_of(a),
                             n->placement().host_of(b));
    };
  }
  const OverlayNetwork::LinkFilter* filter =
      flood_filter ? &flood_filter : nullptr;

  MeasureEngine measure(spec.measure_threads,
                        spec.resolved_measure_mode() ==
                                ExperimentSpec::MeasureMode::kFast
                            ? MeasureMode::kFast
                            : MeasureMode::kExact);
  SnapshotCache snap_cache([&] {
    SpanRecorder::Scope span(&recorder, Layer::kMeasureCapture);
    return OverlaySnapshot::capture(net, filter);
  });
  std::uint64_t untracked_version = 0;
  auto topology_version = [&]() -> std::uint64_t {
    if (!obs::trace_compiled_in()) return ++untracked_version;
    using K = obs::TraceEventKind;
    return bus.count(K::kExchangeCommit) + bus.count(K::kJoin) +
           bus.count(K::kLeave) + bus.count(K::kFail) +
           bus.count(K::kLtmRound) + bus.count(K::kFaultCrash) +
           bus.count(K::kPartitionStart) + bus.count(K::kPartitionEnd);
  };

  // A sampler tick is prepare() followed by the metric closure; the tick
  // span opens in the first and closes in the second.
  ExperimentResult& result = out.result;
  result.metric_name = "lookup_ms";
  const OverlaySnapshot* snap = nullptr;
  std::size_t tick_span = 0;
  auto prepare = [&] {
    tick_span = recorder.open(Layer::kMetricsTick);
    if (membership_changes) queries = make_queries();
    snap = &snap_cache.at(topology_version());
  };
  auto metric = [&]() -> double {
    double value = 0.0;
    {
      SpanRecorder::Scope span(&recorder, Layer::kMeasureSweep);
      value = measure.average_lookup_latency(*snap, queries, nullptr);
    }
    recorder.close(tick_span);
    return value;
  };

  std::unique_ptr<PropEngine> prop;
  if (spec.protocol != ExperimentSpec::Protocol::kNone) {
    prop = std::make_unique<PropEngine>(net, sim, spec.prop, spec.seed + 101);
    if (faults) prop->set_faults(faults.get());
  }

  std::unique_ptr<ChurnProcess> churn;
  if (membership_changes) {
    churn = std::make_unique<ChurnProcess>(net, sim, prop.get(),
                                           GnutellaConfig{}, spec.churn,
                                           sub->spares, spec.seed + 107);
    if (faults) churn->set_faults(faults.get());
    if (fault_crashes_on) faults->set_failure_executor(churn.get());
  }

  std::unique_ptr<LookupTrafficProcess> traffic;
  if (spec.lookup_rate_per_s > 0.0) {
    LookupTrafficParams tparams;
    tparams.rate_per_s = spec.lookup_rate_per_s;
    tparams.start_s = 0.0;
    tparams.end_s = spec.horizon_s;
    tparams.window_s = spec.sample_interval_s;
    auto scratch = std::make_shared<OverlayNetwork::FloodScratch>();
    auto resolve = [&, scratch](const QueryPair& q) -> double {
      SpanRecorder::Scope span(&recorder, Layer::kOverlayLiveFlood);
      return net.flood_latencies_into(*scratch, q.src, nullptr,
                                      filter)[q.dst];
    };
    traffic = std::make_unique<LookupTrafficProcess>(net, sim, tparams,
                                                     resolve, spec.seed + 109);
  }

  if (paranoid_checks_enabled()) {
    install_paranoid_audit(sim, net, /*every_n_events=*/4096,
                           /*churn_expected=*/membership_changes,
                           ParanoidAuditHooks{faults.get(), prop.get()});
  }

  ConvergenceSampler sampler(
      sim, 0.0, spec.horizon_s, spec.sample_interval_s, prepare,
      {ConvergenceSampler::NamedMetric{result.metric_name, metric}});
  if (faults) faults->start();
  if (traffic) traffic->start();
  if (prop) prop->start();
  if (churn) churn->start();
  {
    SpanRecorder::Scope span(&recorder, Layer::kSimLoop);
    sim.run_until(spec.horizon_s);
  }

  result.series = sampler.take_series();
  result.initial_value = result.series.first_value();
  result.final_value = result.series.last_value();
  if (prop) {
    result.exchanges = prop->stats().exchanges;
    result.attempts = prop->stats().attempts;
    result.commit_conflicts = prop->stats().commit_conflicts;
    result.timeouts = prop->stats().timeouts;
    result.retries = prop->stats().retries;
    result.aborted_mid_commit = prop->stats().aborted_mid_commit;
  }
  if (faults) {
    result.fault_messages = faults->stats().messages;
    result.fault_losses = faults->stats().losses;
    result.fault_partition_drops = faults->stats().partition_drops;
    result.fault_crashes = faults->stats().crashes_executed;
    result.fault_storm_failures = faults->stats().storm_failures;
    result.fault_burst_losses = faults->stats().burst_losses;
  }
  if (traffic) {
    result.observed = traffic->observed();
    result.lookups_issued = traffic->issued();
    result.lookups_unreachable = traffic->unreachable();
    if (!traffic->latencies().empty()) {
      result.observed_p50_ms = traffic->latencies().median();
      result.observed_p95_ms = traffic->latencies().quantile(0.95);
    }
  }
  result.sim_events_executed = sim.executed_events();
  result.sim_events_scheduled = sim.scheduled_events();
  result.sim_events_cancelled = sim.cancelled_events();
  result.measure_exact_floods = measure.stats().exact_floods;
  result.measure_fast_floods = measure.stats().fast_floods;
  result.measure_snapshot_captures = snap_cache.captures();
  result.measure_snapshot_reuses = snap_cache.reuses();
  result.control_messages = net.traffic().control_total();
  if (churn) {
    result.churn_joins = churn->joins();
    result.churn_leaves = churn->leaves();
    result.churn_failures = churn->failures();
  }
  result.connected = net.graph().active_subgraph_connected();
  result.final_population = net.size();
  result.trace = bus.summary();

  SpanRecorder::Scope span(&recorder, Layer::kAppOutput);
  out.output = experiment_result_json(spec, result).dump(2);
  return {};
}

}  // namespace perfbench
