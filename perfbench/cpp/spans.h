// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call into a propsim layer, made from the benchmark's
// own code: its layer, its begin and end on the steady clock, and the
// span that was open when it began (its parent). Spans are held in
// memory and written out once, when the run ends, so recording costs two
// clock reads and one vector append per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers are named after the src/ modules whose functions the span
/// wraps.
enum class Layer : std::uint8_t {
  kAppConfig,          // ExperimentSpec::from_config
  kAppRun,             // the whole experiment, config to serialized result
  kTopologyGenerate,   // make_transit_stub
  kTopologyOracle,     // LatencyOracle construction
  kOverlayBuild,       // build_gnutella_overlay
  kSimLoop,            // Scheduler::run_until
  kMetricsTick,        // one sampler tick: prepare + metric closure
  kWorkloadQueryGen,   // uniform_queries
  kMeasureCapture,     // OverlaySnapshot::capture (via SnapshotCache)
  kMeasureSweep,       // MeasureEngine::average_lookup_latency
  kOverlayLiveFlood,   // OverlayNetwork::flood_latencies_into (live lookup)
  kAppOutput,          // experiment_result_json + dump
};

const char* to_string(Layer layer);

class SpanRecorder {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    Layer layer;
    std::int64_t begin_ns;  // since the recorder's origin
    std::int64_t end_ns;
    std::int32_t parent;    // index into spans(), or kNoParent
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span whose parent is the innermost open span; returns its
  /// index for close().
  std::size_t open(Layer layer);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index);

  /// Opens on construction, closes on destruction. A null recorder makes
  /// the scope a no-op, so shared code can run traced or untraced.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, Layer layer)
        : recorder_(recorder),
          index_(recorder != nullptr ? recorder->open(layer) : 0) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  bool all_closed() const { return stack_.empty(); }

  /// Summed duration of every span of `layer`, in ms.
  double total_ms(Layer layer) const;
  /// Durations of every span of `layer`, in µs, in recording order.
  std::vector<double> durations_us(Layer layer) const;
  /// Summed self time of every span of `layer` (its duration minus the
  /// durations of its direct children), in ms.
  double self_ms(Layer layer) const;

  /// One JSON object per line: layer, begin_us, end_us, parent, self_us.
  std::string to_jsonl() const;

 private:
  std::int64_t now_ns() const;
  /// Per-span summed duration of direct children, in ns.
  std::vector<std::int64_t> child_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

}  // namespace perfbench
