// perfbench — times propsim's product path on one workload and prints
// its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//             [--root <dir>] [--reference <file>] [--spans <file>]
//   perfbench --print-reference <name> [--root <dir>]
//
// --trace 0 repeats ExperimentSpec::from_config -> run_experiment ->
// experiment_result_json for --seconds seconds and reports the smallest
// wall and CPU time of the repetitions (wall_s, cpu_s), the median of
// topology + oracle + overlay builds made after each repetition (setup_s)
// and peak RSS.
// Repetitions do identical work (their outputs are byte-identical), so
// the spread between them is interference from the machine, and the
// fastest is the least disturbed measurement of the program.
// --trace 1 alternates that product run with the traced composition
// (traced_run.h) and reports the per-layer metrics of the fastest traced
// run; its spans go to --spans. Every run's
// output is checked (workloads.h); a run that fails counts as a failed
// operation and the command exits 1. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --print-reference prints the canonical output at the default seed, the
// text the recorded references under perfbench/reference/ hold.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/experiment.h"
#include "app/result_json.h"
#include "report.h"
#include "spans.h"
#include "traced_run.h"
#include "workloads.h"

namespace {

using namespace propsim;
using perfbench::Layer;
using perfbench::Metric;
using perfbench::ratio;
using perfbench::SpanRecorder;

// Set-up takes 13-20 ms. This many builds follow every product run, so
// the samples span the whole invocation; setup_s is their median.
constexpr int kSetupsPerRun = 5;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One product-path run: the timed span is exactly what propsim_cli does
/// between reading its arguments and printing.
struct ProductRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ExperimentSpec spec;
  ExperimentResult result;
};

std::string run_product(const Config& config, ProductRun& out) {
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = cpu_seconds();
  const SpecResult parsed = ExperimentSpec::from_config(config);
  if (!parsed.ok()) return parsed.error_report();
  ExperimentResult result = run_experiment(parsed.spec());
  const std::string output =
      experiment_result_json(parsed.spec(), result).dump(2);
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  if (output.empty()) return "empty result JSON";
  out.spec = parsed.spec();
  out.result = std::move(result);
  return {};
}

/// Calls `rep` until one more call, as long as the longest so far, would
/// end after `seconds`; always calls it at least once. Returns the first
/// error `rep` reports.
template <typename Rep>
std::string repeat_for(double seconds, Rep rep) {
  const auto start = std::chrono::steady_clock::now();
  double longest = 0.0;
  do {
    const auto t0 = std::chrono::steady_clock::now();
    if (std::string err = rep(); !err.empty()) return err;
    longest = std::max(longest, seconds_since(t0));
  } while (seconds_since(start) + longest <= seconds);
  return {};
}

double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  return (v[mid] + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed operations: %zu of %zu\n", failed, attempted);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string reference;
  std::string spans;
  bool print_reference = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace 0|1 [--root <dir>] [--reference <file>] "
               "[--spans <file>]\n"
               "       perfbench --print-reference <name> [--root <dir>]\n"
               "workloads:");
  for (const auto& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--print-reference") {
      args.workload = value;
      args.print_reference = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  const perfbench::Workload* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr) return usage();
  if (args.print_reference) args.seed = perfbench::kDefaultSeed;
  const Config config =
      perfbench::workload_config(*workload, args.root, args.seed);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s", parsed.error_report().c_str());
    return 2;
  }
  const ExperimentSpec& spec = parsed.spec();

  if (args.print_reference) {
    ProductRun run;
    run_product(config, run);
    std::printf("%s",
                perfbench::canonical_output(run.spec, run.result).c_str());
    return 0;
  }
  if (const std::string why = perfbench::traced_unsupported(spec);
      !why.empty()) {
    std::fprintf(stderr, "perfbench: workload needs %s\n", why.c_str());
    return 2;
  }
  const std::string reference =
      args.reference.empty() ? std::string() : read_file(args.reference);

  // The first run's output goes through check_output; every later run
  // must reproduce it byte for byte, and shares its verdict.
  std::string first_canonical;
  std::string first_why;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  auto check = [&](const ExperimentSpec& s, const ExperimentResult& r) {
    ++attempted;
    const std::string canonical = perfbench::canonical_output(s, r);
    std::string why;
    if (first_canonical.empty()) {
      first_why = perfbench::check_output(s, r, canonical, reference);
      first_canonical = canonical;
      why = first_why;
    } else if (canonical != first_canonical) {
      why = "output differs from the first run's";
    } else {
      why = first_why;
    }
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: wrong output: %s\n", why.c_str());
    }
  };

  std::vector<Metric> metrics;
  std::string error;
  if (!args.trace) {
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    error = repeat_for(args.seconds, [&]() -> std::string {
      ProductRun run;
      if (std::string err = run_product(config, run); !err.empty()) return err;
      wall_s.push_back(run.wall_s);
      cpu_s.push_back(run.cpu_s);
      check(run.spec, run.result);
      for (int i = 0; i < kSetupsPerRun; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto sub = perfbench::build_substrate(spec, nullptr);
        setup_s.push_back(seconds_since(t0));
      }
      return {};
    });
    metrics = {
        {"wall_s", fastest(wall_s), "s"},
        {"cpu_s", fastest(cpu_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::fprintf(stderr, "perfbench: wall_s of each of %zu runs:",
                 wall_s.size());
    for (const double w : wall_s) std::fprintf(stderr, " %.4f", w);
    std::fprintf(stderr, "\n");
  } else {
    std::vector<double> untraced_s;
    double fastest_traced_s = 0.0;
    std::vector<Metric> fastest_times;
    SpanRecorder fastest_spans;
    perfbench::TracedRun last_run;
    error = repeat_for(args.seconds, [&]() -> std::string {
      ProductRun product;
      if (std::string err = run_product(config, product); !err.empty()) {
        return err;
      }
      untraced_s.push_back(product.wall_s);
      check(product.spec, product.result);

      SpanRecorder recorder;
      perfbench::TracedRun traced;
      if (std::string err = perfbench::run_traced(config, recorder, traced);
          !err.empty()) {
        return err;
      }
      check(traced.spec, traced.result);
      const double traced_s = recorder.total_ms(Layer::kAppRun) / 1e3;
      if (fastest_times.empty() || traced_s < fastest_traced_s) {
        fastest_traced_s = traced_s;
        fastest_times = perfbench::layer_times(recorder, traced);
        fastest_spans = std::move(recorder);
      }
      last_run = std::move(traced);
      return {};
    });
    if (error.empty()) {
      metrics = std::move(fastest_times);
      // Counts repeat exactly, so any run's will do.
      for (Metric& m : perfbench::layer_counts(last_run)) {
        metrics.push_back(std::move(m));
      }
      metrics.push_back({"bench.trace_overhead_ratio",
                         ratio(fastest_traced_s, fastest(untraced_s)),
                         "ratio"});
      if (!args.spans.empty()) {
        std::ofstream out(args.spans, std::ios::binary);
        out << fastest_spans.to_jsonl();
        if (!out) error = "cannot write " + args.spans;
      }
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
