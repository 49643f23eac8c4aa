// Immutable CSR snapshot of an overlay for measurement sweeps.
//
// Metric evaluation runs one full Dijkstra per sampled query source and
// repeats the whole sweep at every convergence-snapshot interval.
// Walking the mutable LogicalGraph from worker threads would race with
// nothing today (the sim is paused during a sample) but couples the
// sweep to live state and recomputes slot_latency for every edge
// relaxation. OverlaySnapshot freezes everything a sweep needs —
// adjacency in compressed-sparse-row form (the CsrGraph pattern the
// latency oracle already uses), the active-slot mask and the physical
// latency of every directed logical edge — in one O(V + E) capture.
//
// Each edge latency is stored twice: as the exact double the live flood
// would compute (the bit-identity path) and as a 32-bit fixed-point
// weight (kFxPerMs units per millisecond) for the opt-in fast kernel.
// The smallest edge of each kind is recorded too: it sizes the flood
// kernel's buckets (measure_engine.h).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "overlay/overlay_network.h"

namespace propsim {

class OverlaySnapshot {
 public:
  /// Fixed-point edge weights carry 20 fractional bits: 1 fx unit is
  /// 2^-20 ms (~0.95 ns), so a 32-bit weight spans [0, 4096) ms — far
  /// above any physical edge latency plus processing delay this
  /// simulator produces. Quantization error is at most 2^-21 ms per
  /// edge, which bounds the fast kernel's path error (docs/PERF.md).
  static constexpr int kFxFracBits = 20;
  static constexpr double kFxPerMs =
      static_cast<double>(1u << kFxFracBits);

  /// Quantizes a millisecond latency to fx units (round to nearest).
  /// Returns a 64-bit value so callers can range-check against
  /// kFxMaxEdge before narrowing; non-finite or negative input maps to
  /// a value above kFxMaxEdge.
  static std::uint64_t quantize_ms(double ms);
  static constexpr std::uint64_t kFxMaxEdge = 0xffffffffull;

  OverlaySnapshot() = default;

  /// Captures the overlay's current state. Neighbor order is preserved
  /// exactly as the live graph iterates it, and each edge carries the
  /// identical slot_latency double, so a flood over the snapshot
  /// produces the live flood's distances bit for bit. `link_ok` (e.g. the
  /// fault plan's partition filter) prunes directed logical edges at
  /// capture time: a pruned edge simply does not exist in the snapshot,
  /// matching a flood that skips it at relax time.
  static OverlaySnapshot capture(
      const OverlayNetwork& net,
      const OverlayNetwork::LinkFilter* link_ok = nullptr);

  std::size_t slot_count() const { return active_.size(); }
  /// Directed (half-)edge count after filtering.
  std::size_t edge_count() const { return targets_.size(); }

  bool is_active(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return active_[s] != 0;
  }

  std::span<const SlotId> targets(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return {targets_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// Physical latency of each edge in targets(s), same order (ms).
  std::span<const double> latencies(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return {latency_ms_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// Fixed-point latency of each edge in targets(s), same order (fx
  /// units). Meaningful only when fixed_point_ok().
  std::span<const std::uint32_t> latencies_fx(SlotId s) const {
    PROPSIM_DCHECK(s < active_.size());
    return {latency_fx_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// True when every edge latency quantized into 32 bits (i.e. every
  /// edge is finite, non-negative and under ~4096 ms). The fast kernel
  /// requires this; the engine falls back to the exact kernel —
  /// deterministically — when it does not hold.
  bool fixed_point_ok() const { return fx_ok_; }

  /// Smallest fixed-point edge weight in the snapshot (kFxMaxEdge when
  /// there are no edges). The fast kernel sizes its buckets from this.
  std::uint32_t min_edge_fx() const { return min_edge_fx_; }

  /// Smallest edge latency in ms (+infinity when there are no edges).
  /// The exact kernel sizes its buckets from this.
  double min_edge_ms() const { return min_edge_ms_; }

 private:
  std::vector<std::size_t> offsets_;  // slot_count + 1 row starts
  std::vector<SlotId> targets_;
  std::vector<double> latency_ms_;
  std::vector<std::uint32_t> latency_fx_;
  std::vector<std::uint8_t> active_;
  std::uint32_t min_edge_fx_ = 0xffffffffu;
  double min_edge_ms_ = std::numeric_limits<double>::infinity();
  bool fx_ok_ = true;
};

}  // namespace propsim
