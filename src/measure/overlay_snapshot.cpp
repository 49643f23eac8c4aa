#include "measure/overlay_snapshot.h"

#include <algorithm>
#include <cmath>

namespace propsim {

std::uint64_t OverlaySnapshot::quantize_ms(double ms) {
  if (!std::isfinite(ms) || ms < 0.0) return kFxMaxEdge + 1;
  const double scaled = ms * kFxPerMs;
  if (scaled > static_cast<double>(kFxMaxEdge)) return kFxMaxEdge + 1;
  return static_cast<std::uint64_t>(std::llround(scaled));
}

OverlaySnapshot OverlaySnapshot::capture(
    const OverlayNetwork& net, const OverlayNetwork::LinkFilter* link_ok) {
  const LogicalGraph& graph = net.graph();
  const std::size_t n = graph.slot_count();
  OverlaySnapshot snap;
  snap.offsets_.resize(n + 1);
  snap.active_.resize(n);
  // 2 * edge_count is exact without a filter and an upper bound with one.
  snap.targets_.reserve(2 * graph.edge_count());
  snap.latency_ms_.reserve(2 * graph.edge_count());
  snap.latency_fx_.reserve(2 * graph.edge_count());
  for (SlotId s = 0; s < n; ++s) {
    snap.offsets_[s] = snap.targets_.size();
    snap.active_[s] = graph.is_active(s) ? 1 : 0;
    for (const SlotId v : graph.neighbors(s)) {
      if (link_ok != nullptr && !(*link_ok)(s, v)) continue;
      const double ms = net.slot_latency(s, v);
      snap.targets_.push_back(v);
      snap.latency_ms_.push_back(ms);
      snap.min_edge_ms_ = std::min(snap.min_edge_ms_, ms);
      const std::uint64_t fx = quantize_ms(ms);
      if (fx > kFxMaxEdge) {
        snap.fx_ok_ = false;
        snap.latency_fx_.push_back(0xffffffffu);  // unused when !fx_ok_
      } else {
        snap.latency_fx_.push_back(static_cast<std::uint32_t>(fx));
        snap.min_edge_fx_ = std::min(snap.min_edge_fx_,
                                     static_cast<std::uint32_t>(fx));
      }
    }
  }
  snap.offsets_[n] = snap.targets_.size();
  return snap;
}

}  // namespace propsim
