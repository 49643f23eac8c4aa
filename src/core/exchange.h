// Peer-exchange planning and execution — the PROP primitive.
//
// Planning is a pure function of the overlay state, so Var computation,
// candidate filtering and the connectivity/degree invariants are unit-
// testable without running the protocol engine.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/params.h"
#include "overlay/overlay_network.h"

namespace propsim {

struct ExchangePlan {
  PropMode mode = PropMode::kPropG;
  SlotId u = kInvalidSlot;
  SlotId v = kInvalidSlot;
  /// PROP-O transfer sets: u hands from_u to v, v hands from_v to u.
  /// Equal sizes by construction; empty for PROP-G.
  std::vector<SlotId> from_u;
  std::vector<SlotId> from_v;
  /// Predicted accumulated-latency gain (the paper's Var, eq. 2);
  /// positive means the exchange reduces the summed neighbor latencies.
  double var = 0.0;
};

/// Reusable buffers for plan_prop_o, owned by the caller (PropEngine
/// keeps one): the scored candidates of a greedy selection and an
/// epoch-stamped mark per slot for the transferability test. A
/// default-constructed instance works for any overlay; the marks size
/// themselves to the graph on first use. Sim-thread only.
struct PlanScratch {
  struct Scored {
    SlotId slot;
    double gain;  // d(self, slot) - d(other, slot)
  };
  std::vector<Scored> scored;
  std::vector<std::uint32_t> mark;  // mark[s] == epoch <=> s excluded
  std::uint32_t epoch = 0;
};

/// Var for a PROP-G position swap of slots u and v (handles adjacent u,v
/// and shared neighbors exactly).
double prop_g_var(const OverlayNetwork& net, SlotId u, SlotId v);

/// Plans a PROP-G swap; always yields a plan (the caller gates on var).
ExchangePlan plan_prop_g(const OverlayNetwork& net, SlotId u, SlotId v);

/// Plans a PROP-O exchange of up to `m` neighbors per side. `path` is the
/// probe walk u ... v; per Theorem 1 no neighbor on the path may move
/// (that keeps u—v connected afterwards). Transferable neighbors also
/// exclude the counterpart and anything already adjacent to it. Returns
/// nullopt when either side has no transferable neighbor. Costs
/// O(deg(u) + deg(v) + |path|) mark operations plus, under kGreedy, two
/// slot latencies per candidate and a partial sort of the candidates.
std::optional<ExchangePlan> plan_prop_o(const OverlayNetwork& net, SlotId u,
                                        SlotId v, std::span<const SlotId> path,
                                        std::size_t m,
                                        SelectionPolicy selection, Rng& rng,
                                        PlanScratch& scratch);

/// Applies a plan: PROP-G swaps the placement, PROP-O rewires edges.
/// Degrees are preserved for PROP-O; the logical graph is untouched for
/// PROP-G.
void apply_exchange(OverlayNetwork& net, const ExchangePlan& plan);

/// Actual change in summed neighbor latencies caused by applying `plan`
/// (for tests: must equal plan.var).
double measured_gain(const OverlayNetwork& net, const ExchangePlan& plan);

}  // namespace propsim
