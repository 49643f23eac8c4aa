// The benchmark's own tests. They run from the repository root (the
// ctest working directory), where the workload configs and the recorded
// references live.
//
//  - The traced composition reproduces run_experiment: the canonical
//    result JSON (series and every counter) is byte-identical.
//  - Every count metric repeats exactly across runs, and is identical
//    between traced and untraced runs.
//  - The output check accepts the recorded reference at the default
//    seed, accepts other seeds on invariants, and rejects a tampered
//    output.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "app/result_json.h"
#include "report.h"
#include "traced_run.h"
#include "workloads.h"

namespace perfbench {
namespace {

using propsim::Config;
using propsim::ExperimentResult;
using propsim::ExperimentSpec;

std::string reference_text(const std::string& workload) {
  std::ifstream in("perfbench/reference/" + workload + ".json");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ExperimentSpec parse(const Config& config) {
  const propsim::SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return parsed.spec();
}

void expect_same_counts(const std::vector<Metric>& a,
                        const std::vector<Metric>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
  }
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, TracedRunReproducesRunExperimentAndCountsRepeat) {
  const Workload* w = find_workload(GetParam());
  ASSERT_NE(w, nullptr);
  const Config config = workload_config(*w, ".", kDefaultSeed);
  const ExperimentSpec spec = parse(config);
  ASSERT_EQ(traced_unsupported(spec), "");

  const ExperimentResult product = propsim::run_experiment(spec);
  const std::string product_canonical = canonical_output(spec, product);
  EXPECT_EQ(check_output(spec, product, product_canonical,
                         reference_text(w->name)),
            "");

  std::vector<std::vector<Metric>> traced_counts;
  for (int rep = 0; rep < 2; ++rep) {
    SpanRecorder recorder;
    TracedRun traced;
    ASSERT_EQ(run_traced(config, recorder, traced), "");
    EXPECT_TRUE(recorder.all_closed());
    EXPECT_EQ(canonical_output(traced.spec, traced.result), product_canonical);
    traced_counts.push_back(layer_counts(traced));

    // Every layer the workload exercises left spans.
    EXPECT_GT(recorder.total_ms(Layer::kTopologyOracle), 0.0);
    EXPECT_GT(recorder.total_ms(Layer::kMeasureSweep), 0.0);
    EXPECT_EQ(recorder.durations_us(Layer::kMetricsTick).size(),
              traced.result.series.size());
    EXPECT_EQ(recorder.durations_us(Layer::kMeasureCapture).size(),
              traced.result.measure_snapshot_captures);
    EXPECT_EQ(recorder.durations_us(Layer::kOverlayLiveFlood).size(),
              traced.result.lookups_issued);
  }
  expect_same_counts(traced_counts[0], traced_counts[1]);

  // The same counts derived from the untraced product run.
  const std::unique_ptr<Substrate> sub = build_substrate(spec, nullptr);
  TracedRun untraced;
  untraced.spec = spec;
  untraced.result = product;
  untraced.topology_nodes = sub->ts->graph.node_count();
  untraced.overlay_edges = sub->net->graph().edge_count();
  expect_same_counts(traced_counts[0], layer_counts(untraced));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("fig5_gnutella", "propo_events",
                                           "lossy_lookups"));

TEST(OutputCheck, OtherSeedsPassOnInvariants) {
  const Workload* w = find_workload("propo_events");
  const ExperimentSpec spec = parse(workload_config(*w, ".", 7));
  const ExperimentResult r = propsim::run_experiment(spec);
  EXPECT_EQ(check_output(spec, r, canonical_output(spec, r), ""), "");
}

TEST(OutputCheck, RejectsTamperedOutput) {
  const Workload* w = find_workload("propo_events");
  const ExperimentSpec spec = parse(workload_config(*w, ".", kDefaultSeed));
  const std::string reference = reference_text(w->name);
  ExperimentResult r = propsim::run_experiment(spec);
  ASSERT_EQ(check_output(spec, r, canonical_output(spec, r), reference), "");

  ExperimentResult off_by_one = r;
  ++off_by_one.control_messages;
  EXPECT_NE(check_output(spec, off_by_one,
                         canonical_output(spec, off_by_one), reference),
            "");
  EXPECT_NE(check_output(spec, r, canonical_output(spec, r), ""), "");

  ExperimentResult no_floods = r;
  no_floods.measure_exact_floods = 0;
  EXPECT_NE(check_output(spec, no_floods, canonical_output(spec, no_floods),
                         reference),
            "");

  ExperimentSpec fast = spec;
  fast.measure_mode = ExperimentSpec::MeasureMode::kFast;
  ExperimentResult nudged = r;
  nudged.measure_fast_floods = nudged.measure_exact_floods;
  nudged.measure_exact_floods = 0;
  EXPECT_EQ(check_output(fast, nudged, canonical_output(fast, nudged),
                         reference),
            "");
  nudged.final_value *= 1.0 + 1e-4;
  EXPECT_NE(check_output(fast, nudged, canonical_output(fast, nudged),
                         reference),
            "");
}

TEST(Spans, SelfTimeExcludesDirectChildren) {
  SpanRecorder rec;
  {
    SpanRecorder::Scope outer(&rec, Layer::kSimLoop);
    SpanRecorder::Scope inner(&rec, Layer::kMeasureSweep);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_NEAR(rec.self_ms(Layer::kSimLoop) + rec.total_ms(Layer::kMeasureSweep),
              rec.total_ms(Layer::kSimLoop), 1e-9);
  EXPECT_NE(rec.to_jsonl().find("\"layer\":\"measure.sweep\""),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
