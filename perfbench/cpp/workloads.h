// The benchmark's workloads and the check every run's output must pass.
//
// A workload is a repository config plus overrides; the seed comes from
// the command line. Workloads set no execution knob (measure_threads,
// measure_mode, scheduler keys), so a change of default is measured the
// way users meet it. perfbench/README.md records why each one exists.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "common/config.h"

namespace perfbench {

/// The seed every workload's config ships with; outputs at this seed are
/// compared with the recorded references.
inline constexpr std::uint64_t kDefaultSeed = 20070901;

struct Workload {
  std::string name;
  std::string config_file;  // relative to the repository root
  std::vector<std::pair<std::string, std::string>> overrides;
};

const std::vector<Workload>& workloads();
/// Null when no workload has that name.
const Workload* find_workload(std::string_view name);

/// The workload's config read from `root`, with its overrides and `seed`
/// applied.
propsim::Config workload_config(const Workload& workload,
                                const std::string& root, std::uint64_t seed);

/// The result JSON with its wall-clock fields zeroed: what two runs of
/// one spec must agree on byte for byte.
std::string canonical_output(const propsim::ExperimentSpec& spec,
                             const propsim::ExperimentResult& result);

/// Checks one run's output. Invariants hold at every seed: the tick
/// count, finite positive series values, captures + reuses = ticks,
/// exactly one non-zero flood counter and, with live lookups, positive
/// traffic. At kDefaultSeed the output must also match `reference`
/// (canonical_output text): byte for byte when the resolved measure mode
/// is exact, within the fast kernel's 1e-6 relative bound otherwise.
/// Returns the first failure, or an empty string.
std::string check_output(const propsim::ExperimentSpec& spec,
                         const propsim::ExperimentResult& result,
                         const std::string& canonical,
                         const std::string& reference);

}  // namespace perfbench
