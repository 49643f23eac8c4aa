// The traced composition: run_experiment rebuilt from the same public
// layer functions, with a span around each call into a layer.
//
// The benchmark times the product path (from_config -> run_experiment ->
// experiment_result_json) untraced, and takes its per-layer split from
// this composition. The split describes the real program only while the
// composition reproduces run_experiment exactly, so the benchmark's
// tests compare the two result JSONs (series and every counter) on every
// workload. It covers the subset the workloads use — a transit-stub
// topology, the gnutella overlay, PROP-G / PROP-O or no protocol, fault
// injection without partition or storm windows, churn and live lookup
// traffic — and reports anything else as unsupported rather than
// guessing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "common/config.h"
#include "common/rng.h"
#include "obs/event_bus.h"
#include "overlay/overlay_network.h"
#include "sim/scheduler.h"
#include "spans.h"
#include "topology/latency_oracle.h"
#include "topology/transit_stub.h"

namespace perfbench {

/// Why the traced composition cannot reproduce run_experiment for
/// `spec`; empty when it can.
std::string traced_unsupported(const propsim::ExperimentSpec& spec);

/// run_experiment's set-up layers, in its order and RNG sequence:
/// physical topology, latency oracle, simulated clock + event bus, host
/// draw (overlay hosts, then churn spares) and overlay build. Pinned in
/// memory because the bus clock points at the scheduler and the overlay
/// at the bus.
struct Substrate {
  explicit Substrate(std::uint64_t seed) : rng(seed) {}
  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  propsim::Rng rng;
  std::unique_ptr<propsim::TransitStubTopology> ts;
  std::unique_ptr<propsim::LatencyOracle> oracle;
  std::unique_ptr<propsim::Scheduler> sim;
  propsim::obs::EventBus bus;
  std::vector<propsim::NodeId> spares;
  std::unique_ptr<propsim::OverlayNetwork> net;
};

/// Builds the substrate of a supported spec (the work setup_s times);
/// spans go to `recorder` when it is non-null.
std::unique_ptr<Substrate> build_substrate(
    const propsim::ExperimentSpec& spec, SpanRecorder* recorder);

struct TracedRun {
  propsim::ExperimentSpec spec;
  propsim::ExperimentResult result;
  std::string output;  // experiment_result_json(spec, result).dump(2)
  std::size_t topology_nodes = 0;
  std::size_t overlay_edges = 0;  // right after the overlay build
};

/// from_config -> set-up -> event loop -> result JSON, with spans. Returns
/// an error message when the config is invalid or outside the traced
/// subset; `out` is then incomplete.
std::string run_traced(const propsim::Config& config, SpanRecorder& recorder,
                       TracedRun& out);

}  // namespace perfbench
