#include "core/exchange.h"

#include <algorithm>

namespace propsim {
namespace {

/// Neighbors of `self` that may legally move to `other` in a PROP-O
/// exchange: not on the probe path, not the counterpart itself, and not
/// already adjacent to the counterpart (no duplicate edges). The excluded
/// set {other} + path + N(other) is stamped once, so each candidate costs
/// one mark lookup; `out` keeps N(self)'s iteration order.
void transferable_neighbors(const OverlayNetwork& net, SlotId self,
                            SlotId other, std::span<const SlotId> path,
                            PlanScratch& scratch, std::vector<SlotId>& out) {
  auto& mark = scratch.mark;
  if (mark.size() != net.graph().slot_count()) {
    mark.assign(net.graph().slot_count(), 0);
    scratch.epoch = 0;
  }
  if (++scratch.epoch == 0) {  // wrapped: every stale mark would look set
    std::fill(mark.begin(), mark.end(), 0u);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  mark[other] = epoch;
  for (const SlotId p : path) mark[p] = epoch;
  for (const SlotId x : net.graph().neighbors(other)) mark[x] = epoch;
  out.clear();
  for (const SlotId x : net.graph().neighbors(self)) {
    if (mark[x] != epoch) out.push_back(x);
  }
}

/// Keeps the k candidates with the largest latency improvement
/// d(self, x) - d(other, x), i.e. those much closer to the counterpart,
/// ordered by (gain desc, slot asc). Each gain is evaluated once; the
/// order is a strict total order, so the kept prefix and its order are
/// unique. Returns `var` plus the kept gains, added in kept order — the
/// same doubles, in the same order, as summing Var over the kept slots.
double select_greedy(const OverlayNetwork& net, SlotId self, SlotId other,
                     std::vector<SlotId>& candidates, std::size_t k,
                     PlanScratch& scratch, double var) {
  auto& scored = scratch.scored;
  scored.clear();
  for (const SlotId x : candidates) {
    scored.push_back(
        {x, net.slot_latency(self, x) - net.slot_latency(other, x)});
  }
  const auto kept = scored.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(scored.begin(), kept, scored.end(),
                    [](const PlanScratch::Scored& a,
                       const PlanScratch::Scored& b) {
                      if (a.gain != b.gain) return a.gain > b.gain;
                      return a.slot < b.slot;  // deterministic tie-break
                    });
  candidates.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    candidates[i] = scored[i].slot;
    var += scored[i].gain;
  }
  return var;
}

void select_random(std::vector<SlotId>& candidates, std::size_t k, Rng& rng) {
  rng.shuffle(candidates);
  candidates.resize(k);
  std::sort(candidates.begin(), candidates.end());
}

}  // namespace

double prop_g_var(const OverlayNetwork& net, SlotId u, SlotId v) {
  PROPSIM_CHECK(u != v);
  const LatencyOracle& oracle = net.oracle();
  const NodeId host_u = net.placement().host_of(u);
  const NodeId host_v = net.placement().host_of(v);

  // Before: each host sums latency to the hosts of its slot's neighbors.
  const double before = net.neighbor_latency_sum(u) +
                        net.neighbor_latency_sum(v);

  // After the swap host_u serves slot v and vice versa. A neighbor slot
  // that is the counterpart's slot then hosts the *other* peer, so the
  // u—v edge latency (if the slots are adjacent) is unchanged.
  double after = 0.0;
  for (const SlotId i : net.graph().neighbors(v)) {
    const NodeId hi = (i == u) ? host_v : net.placement().host_of(i);
    after += oracle.latency(host_u, hi);
  }
  for (const SlotId i : net.graph().neighbors(u)) {
    const NodeId hi = (i == v) ? host_u : net.placement().host_of(i);
    after += oracle.latency(host_v, hi);
  }
  return before - after;
}

ExchangePlan plan_prop_g(const OverlayNetwork& net, SlotId u, SlotId v) {
  ExchangePlan plan;
  plan.mode = PropMode::kPropG;
  plan.u = u;
  plan.v = v;
  plan.var = prop_g_var(net, u, v);
  return plan;
}

std::optional<ExchangePlan> plan_prop_o(const OverlayNetwork& net, SlotId u,
                                        SlotId v, std::span<const SlotId> path,
                                        std::size_t m,
                                        SelectionPolicy selection, Rng& rng,
                                        PlanScratch& scratch) {
  PROPSIM_CHECK(u != v);
  PROPSIM_CHECK(m >= 1);
  ExchangePlan plan;
  plan.mode = PropMode::kPropO;
  plan.u = u;
  plan.v = v;
  transferable_neighbors(net, u, v, path, scratch, plan.from_u);
  transferable_neighbors(net, v, u, path, scratch, plan.from_v);
  // Equal-sized sets keep every degree unchanged (Section 3.1: "exchange
  // equal number of connections ... so the topology can maintain its
  // essential features").
  const std::size_t k =
      std::min({m, plan.from_u.size(), plan.from_v.size()});
  if (k == 0) return std::nullopt;

  // Var (eq. 2): latency mass dropped minus latency mass picked up.
  switch (selection) {
    case SelectionPolicy::kGreedy:
      plan.var = select_greedy(net, u, v, plan.from_u, k, scratch, 0.0);
      plan.var = select_greedy(net, v, u, plan.from_v, k, scratch, plan.var);
      break;
    case SelectionPolicy::kRandom: {
      select_random(plan.from_u, k, rng);
      select_random(plan.from_v, k, rng);
      double var = 0.0;
      for (const SlotId a : plan.from_u) {
        var += net.slot_latency(u, a) - net.slot_latency(v, a);
      }
      for (const SlotId b : plan.from_v) {
        var += net.slot_latency(v, b) - net.slot_latency(u, b);
      }
      plan.var = var;
      break;
    }
  }
  return plan;
}

void apply_exchange(OverlayNetwork& net, const ExchangePlan& plan) {
  switch (plan.mode) {
    case PropMode::kPropG:
      net.placement().swap_slots(plan.u, plan.v);
      return;
    case PropMode::kPropO: {
      PROPSIM_CHECK(plan.from_u.size() == plan.from_v.size());
      LogicalGraph& g = net.graph();
      for (const SlotId a : plan.from_u) {
        g.remove_edge(plan.u, a);
        g.add_edge(plan.v, a);
      }
      for (const SlotId b : plan.from_v) {
        g.remove_edge(plan.v, b);
        g.add_edge(plan.u, b);
      }
      return;
    }
  }
  PROPSIM_CHECK(false && "unknown exchange mode");
}

double measured_gain(const OverlayNetwork& net, const ExchangePlan& plan) {
  const double before =
      net.neighbor_latency_sum(plan.u) + net.neighbor_latency_sum(plan.v);
  OverlayNetwork scratch = net;
  apply_exchange(scratch, plan);
  const double after = scratch.neighbor_latency_sum(plan.u) +
                       scratch.neighbor_latency_sum(plan.v);
  return before - after;
}

}  // namespace propsim
