#include "spans.h"

#include <cstdio>

#include "common/check.h"

namespace perfbench {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kAppConfig: return "app.config";
    case Layer::kAppRun: return "app.run";
    case Layer::kTopologyGenerate: return "topology.generate";
    case Layer::kTopologyOracle: return "topology.oracle_build";
    case Layer::kOverlayBuild: return "overlay.build";
    case Layer::kSimLoop: return "sim.loop";
    case Layer::kMetricsTick: return "metrics.tick";
    case Layer::kWorkloadQueryGen: return "workload.query_gen";
    case Layer::kMeasureCapture: return "measure.capture";
    case Layer::kMeasureSweep: return "measure.sweep";
    case Layer::kOverlayLiveFlood: return "overlay.live_flood";
    case Layer::kAppOutput: return "app.output";
  }
  return "?";
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t SpanRecorder::open(Layer layer) {
  const std::int32_t parent = stack_.empty() ? kNoParent : stack_.back();
  spans_.push_back(Span{layer, now_ns(), 0, parent});
  stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  PROPSIM_CHECK(!stack_.empty() &&
                static_cast<std::size_t>(stack_.back()) == index);
  stack_.pop_back();
  spans_[index].end_ns = now_ns();
}

double SpanRecorder::total_ms(Layer layer) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.layer == layer) ns += s.end_ns - s.begin_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

std::vector<double> SpanRecorder::durations_us(Layer layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer) {
      out.push_back(static_cast<double>(s.end_ns - s.begin_ns) / 1e3);
    }
  }
  return out;
}

std::vector<std::int64_t> SpanRecorder::child_ns() const {
  std::vector<std::int64_t> children(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  return children;
}

double SpanRecorder::self_ms(Layer layer) const {
  const std::vector<std::int64_t> children = child_ns();
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == layer) {
      ns += spans_[i].end_ns - spans_[i].begin_ns - children[i];
    }
  }
  return static_cast<double>(ns) / 1e6;
}

std::string SpanRecorder::to_jsonl() const {
  const std::vector<std::int64_t> children = child_ns();
  std::string out;
  char line[192];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"layer\":\"%s\",\"begin_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"self_us\":%.3f}\n",
                  i, to_string(s.layer), static_cast<double>(s.begin_ns) / 1e3,
                  static_cast<double>(s.end_ns) / 1e3, s.parent,
                  static_cast<double>(s.end_ns - s.begin_ns - children[i]) /
                      1e3);
    out += line;
  }
  return out;
}

}  // namespace perfbench
