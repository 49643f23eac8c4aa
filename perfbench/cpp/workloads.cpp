#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "app/result_json.h"
#include "common/json.h"

namespace perfbench {

using namespace propsim;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fig5_gnutella", "configs/fig5_like.conf", {}},
      {"propo_events",
       "configs/fig5_like.conf",
       {{"protocol", "prop-o"},
        {"model_message_delays", "true"},
        {"horizon", "108000"},
        {"sample_interval", "108000"}}},
      // Without retransmissions: a retried PREPARE whose walk path lost a
      // slot to a crash during the timeout aborts the program at some
      // seeds (perfbench/README.md, "Known defect"). Loss, jitter, crashes
      // and live lookups are as shipped.
      {"lossy_lookups",
       "configs/faults_loss5.conf",
       {{"fault_max_retries", "0"}}},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Config workload_config(const Workload& workload, const std::string& root,
                       std::uint64_t seed) {
  Config config = Config::load_file(root + "/" + workload.config_file);
  for (const auto& [key, value] : workload.overrides) config.set(key, value);
  config.set("seed", std::to_string(seed));
  return config;
}

std::string canonical_output(const ExperimentSpec& spec,
                             const ExperimentResult& result) {
  ExperimentResult copy = result;
  copy.trace.warmup_wall_ms = 0.0;
  copy.trace.maintenance_wall_ms = 0.0;
  return experiment_result_json(spec, copy).dump(2);
}

namespace {

/// Sampler ticks a run of `spec` records; the same stepping as
/// ConvergenceSampler::schedule.
std::size_t expected_ticks(const ExperimentSpec& spec) {
  std::size_t ticks = 0;
  for (double t = 0.0; t <= spec.horizon_s + 1e-9;
       t += spec.sample_interval_s) {
    ++ticks;
  }
  return ticks;
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

// Counters whose split legitimately differs between the exact and fast
// kernels (their sum does not) and the mode echoes themselves.
const std::set<std::string> kKernelKeys = {
    "measure_exact_floods", "measure_fast_floods", "exact_floods",
    "fast_floods", "measure_mode", "mode"};

/// Structural equality with numbers within `rel` relative error.
std::string near(const Json& a, const Json& b, double rel,
                 const std::string& path) {
  if (a.is_number() && b.is_number()) {
    const double x = a.as_double();
    const double y = b.as_double();
    if (x == y ||
        std::fabs(x - y) <= rel * std::max(std::fabs(x), std::fabs(y))) {
      return {};
    }
    return path + ": " + std::to_string(x) + " vs reference " +
           std::to_string(y);
  }
  if (a.is_object() && b.is_object()) {
    if (a.size() != b.size()) return path + ": key count differs";
    for (const auto& [key, value] : b.object_items()) {
      const Json* mine = a.find(key);
      if (mine == nullptr) return path + "." + key + ": missing";
      if (kKernelKeys.count(key) != 0) continue;
      if (std::string why = near(*mine, value, rel, path + "." + key);
          !why.empty()) {
        return why;
      }
    }
    return {};
  }
  if (a.is_array() && b.is_array()) {
    if (a.size() != b.size()) return path + ": length differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::string why = near(a.array_items()[i], b.array_items()[i], rel,
                                 path + "[" + std::to_string(i) + "]");
          !why.empty()) {
        return why;
      }
    }
    return {};
  }
  return a.dump() == b.dump() ? std::string() : path + ": value differs";
}

std::string check_reference(const ExperimentSpec& spec,
                            const ExperimentResult& result,
                            const std::string& canonical,
                            const std::string& reference) {
  if (reference.empty()) return "no recorded reference for the default seed";
  if (spec.resolved_measure_mode() == ExperimentSpec::MeasureMode::kExact) {
    return canonical == reference
               ? std::string()
               : "output differs from the recorded reference";
  }
  // The fast kernel carries bounded quantization error (docs/PERF.md).
  const std::optional<Json> mine = Json::parse(canonical);
  const std::optional<Json> ref = Json::parse(reference);
  if (!mine || !ref) return "reference or output is not JSON";
  if (std::string why = near(*mine, *ref, 1e-6, "result"); !why.empty()) {
    return why;
  }
  const Json* ref_floods = ref->find("counters")->find("measure_exact_floods");
  if (result.measure_exact_floods + result.measure_fast_floods !=
      static_cast<std::uint64_t>(ref_floods->as_double())) {
    return "flood count differs from the recorded reference";
  }
  return {};
}

}  // namespace

std::string check_output(const ExperimentSpec& spec,
                         const ExperimentResult& result,
                         const std::string& canonical,
                         const std::string& reference) {
  const std::size_t ticks = expected_ticks(spec);
  if (result.series.size() != ticks) {
    return "series has " + std::to_string(result.series.size()) +
           " points, expected " + std::to_string(ticks);
  }
  for (const auto& p : result.series.points()) {
    if (!finite_positive(p.value)) {
      return "series value is not finite positive";
    }
  }
  if (result.measure_snapshot_captures + result.measure_snapshot_reuses !=
      ticks) {
    return "snapshot captures + reuses != ticks";
  }
  if ((result.measure_exact_floods > 0) == (result.measure_fast_floods > 0)) {
    return "expected exactly one non-zero flood counter";
  }
  if (result.sim_events_executed == 0) return "no events executed";
  if (spec.protocol != ExperimentSpec::Protocol::kNone &&
      result.attempts == 0) {
    return "protocol made no attempts";
  }
  if (spec.lookup_rate_per_s > 0.0) {
    if (result.lookups_issued == 0) return "no live lookups issued";
    if (result.lookups_unreachable > result.lookups_issued) {
      return "more unreachable lookups than issued";
    }
    if (!finite_positive(result.observed_p50_ms)) {
      return "observed lookup p50 is not finite positive";
    }
  }
  if (spec.seed == kDefaultSeed) {
    return check_reference(spec, result, canonical, reference);
  }
  return {};
}

}  // namespace perfbench
