// Per-layer metrics derived from one traced run, and the small statistics
// the benchmark reports with.
#pragma once

#include <string>
#include <vector>

#include "spans.h"
#include "traced_run.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// num / den, or 0 when den is 0.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Per-layer times of one traced run, from its spans.
std::vector<Metric> layer_times(const SpanRecorder& rec, const TracedRun& run);

/// Per-layer work counts of one traced run; identical on every run of one
/// spec, traced or not.
std::vector<Metric> layer_counts(const TracedRun& run);

}  // namespace perfbench
