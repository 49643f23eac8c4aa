#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/exchange.h"
#include "fixtures.h"
#include "overlay/isomorphism.h"
#include "topology/random_graphs.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

// Draws a random (u, v, path) probe outcome like the engine would.
struct Probe {
  SlotId u;
  SlotId v;
  std::vector<SlotId> path;
};

std::optional<Probe> random_probe(const OverlayNetwork& net, std::size_t nhops,
                                  Rng& rng) {
  const auto slots = net.graph().active_slots();
  const SlotId u = slots[static_cast<std::size_t>(rng.uniform(slots.size()))];
  const auto neigh = net.graph().neighbors(u);
  if (neigh.empty()) return std::nullopt;
  const SlotId first =
      neigh[static_cast<std::size_t>(rng.uniform(neigh.size()))];
  auto walk = net.random_walk(u, first, nhops, rng);
  if (!walk.has_value()) return std::nullopt;
  return Probe{u, walk->back(), std::move(*walk)};
}

// ----------------------------------------------------------- PROP-G ----

TEST(PropG, VarMatchesMeasuredGain) {
  auto fx = UnstructuredFixture::make(40, 2001);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto plan = plan_prop_g(fx.net, probe->u, probe->v);
    EXPECT_NEAR(plan.var, measured_gain(fx.net, plan), 1e-9);
  }
}

TEST(PropG, VarIsSymmetric) {
  auto fx = UnstructuredFixture::make(30, 2002);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    EXPECT_NEAR(prop_g_var(fx.net, probe->u, probe->v),
                prop_g_var(fx.net, probe->v, probe->u), 1e-9);
  }
}

TEST(PropG, SwapOfAdjacentSlotsHandled) {
  auto fx = UnstructuredFixture::make(30, 2003);
  // Find an adjacent pair.
  SlotId u = kInvalidSlot, v = kInvalidSlot;
  for (const SlotId s : fx.net.graph().active_slots()) {
    if (fx.net.graph().degree(s) > 0) {
      u = s;
      v = fx.net.graph().neighbors(s)[0];
      break;
    }
  }
  ASSERT_NE(u, kInvalidSlot);
  const auto plan = plan_prop_g(fx.net, u, v);
  EXPECT_NEAR(plan.var, measured_gain(fx.net, plan), 1e-9);
}

TEST(PropG, ApplyLeavesLogicalGraphUntouched) {
  auto fx = UnstructuredFixture::make(40, 2004);
  const auto degrees_before = fx.net.graph().degree_multiset();
  const std::size_t edges_before = fx.net.graph().edge_count();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    apply_exchange(fx.net, plan_prop_g(fx.net, probe->u, probe->v));
  }
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees_before);
  EXPECT_EQ(fx.net.graph().edge_count(), edges_before);
  EXPECT_TRUE(fx.net.placement().validate());
}

// Theorem 2: the host-labelled overlay stays isomorphic to the original
// under any sequence of PROP-G exchanges.
TEST(PropG, Theorem2IsomorphismUnderExchangeSequences) {
  auto fx = UnstructuredFixture::make(50, 2005);
  const auto edges_before = host_edges(fx.net.graph(), fx.net.placement());
  const Placement placement_before = fx.net.placement();
  Rng rng(4);
  int applied = 0;
  for (int i = 0; i < 200 && applied < 60; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    apply_exchange(fx.net, plan_prop_g(fx.net, probe->u, probe->v));
    ++applied;
  }
  ASSERT_GT(applied, 10);
  const auto edges_after = host_edges(fx.net.graph(), fx.net.placement());
  const auto [hosts, phi] =
      placement_bijection(placement_before, fx.net.placement());
  EXPECT_TRUE(isomorphic_via(edges_before, edges_after, hosts, phi));
}

// Theorem 1 for PROP-G (trivially: graph untouched, but assert anyway).
TEST(PropG, Theorem1ConnectivityPersistence) {
  auto fx = UnstructuredFixture::make(40, 2006);
  Rng rng(5);
  for (int i = 0; i < 80; ++i) {
    const auto probe = random_probe(fx.net, 3, rng);
    if (!probe) continue;
    apply_exchange(fx.net, plan_prop_g(fx.net, probe->u, probe->v));
    ASSERT_TRUE(fx.net.graph().active_subgraph_connected());
  }
}

// ----------------------------------------------------------- PROP-O ----

class PropOSelection : public ::testing::TestWithParam<SelectionPolicy> {};

TEST_P(PropOSelection, VarMatchesMeasuredGain) {
  auto fx = UnstructuredFixture::make(40, 2007);
  Rng rng(6);
  PlanScratch scratch;
  for (int i = 0; i < 150; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto plan = plan_prop_o(fx.net, probe->u, probe->v, probe->path, 2,
                                  GetParam(), rng, scratch);
    if (!plan) continue;
    EXPECT_NEAR(plan->var, measured_gain(fx.net, *plan), 1e-9);
  }
}

TEST_P(PropOSelection, TransferSetsRespectConstraints) {
  auto fx = UnstructuredFixture::make(40, 2008);
  Rng rng(7);
  PlanScratch scratch;
  int checked = 0;
  for (int i = 0; i < 200 && checked < 80; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto plan = plan_prop_o(fx.net, probe->u, probe->v, probe->path, 3,
                                  GetParam(), rng, scratch);
    if (!plan) continue;
    ++checked;
    EXPECT_EQ(plan->from_u.size(), plan->from_v.size());
    EXPECT_GE(plan->from_u.size(), 1u);
    EXPECT_LE(plan->from_u.size(), 3u);
    for (const SlotId a : plan->from_u) {
      EXPECT_TRUE(fx.net.graph().has_edge(probe->u, a));
      EXPECT_FALSE(fx.net.graph().has_edge(probe->v, a));
      EXPECT_EQ(std::find(probe->path.begin(), probe->path.end(), a),
                probe->path.end());
    }
    for (const SlotId b : plan->from_v) {
      EXPECT_TRUE(fx.net.graph().has_edge(probe->v, b));
      EXPECT_FALSE(fx.net.graph().has_edge(probe->u, b));
      EXPECT_EQ(std::find(probe->path.begin(), probe->path.end(), b),
                probe->path.end());
    }
  }
  EXPECT_GT(checked, 0);
}

// Degree preservation: PROP-O's defining invariant.
TEST_P(PropOSelection, DegreeMultisetInvariant) {
  auto fx = UnstructuredFixture::make(50, 2009);
  const auto degrees_before = fx.net.graph().degree_multiset();
  // Per-slot degrees must also be unchanged (stronger than the multiset).
  std::vector<std::size_t> per_slot;
  for (const SlotId s : fx.net.graph().active_slots()) {
    per_slot.push_back(fx.net.graph().degree(s));
  }
  Rng rng(8);
  PlanScratch scratch;
  int applied = 0;
  for (int i = 0; i < 300 && applied < 80; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto plan = plan_prop_o(fx.net, probe->u, probe->v, probe->path, 2,
                                  GetParam(), rng, scratch);
    if (!plan) continue;
    apply_exchange(fx.net, *plan);
    ++applied;
  }
  ASSERT_GT(applied, 10);
  EXPECT_EQ(fx.net.graph().degree_multiset(), degrees_before);
  std::size_t idx = 0;
  for (const SlotId s : fx.net.graph().active_slots()) {
    EXPECT_EQ(fx.net.graph().degree(s), per_slot[idx++]);
  }
}

// Theorem 1: connectivity persists through arbitrary PROP-O sequences.
TEST_P(PropOSelection, Theorem1ConnectivityPersistence) {
  auto fx = UnstructuredFixture::make(50, 2010);
  Rng rng(9);
  PlanScratch scratch;
  int applied = 0;
  for (int i = 0; i < 400 && applied < 120; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto plan = plan_prop_o(fx.net, probe->u, probe->v, probe->path, 4,
                                  GetParam(), rng, scratch);
    if (!plan) continue;
    apply_exchange(fx.net, *plan);
    ASSERT_TRUE(fx.net.graph().active_subgraph_connected())
        << "partition after exchange " << applied;
    ++applied;
  }
  ASSERT_GT(applied, 20);
}

INSTANTIATE_TEST_SUITE_P(Policies, PropOSelection,
                         ::testing::Values(SelectionPolicy::kGreedy,
                                           SelectionPolicy::kRandom),
                         [](const auto& info) {
                           return info.param == SelectionPolicy::kGreedy
                                      ? "Greedy"
                                      : "Random";
                         });

TEST(PropO, GreedySelectionMaximizesVarVersusRandom) {
  auto fx = UnstructuredFixture::make(50, 2011);
  Rng rng(10);
  PlanScratch scratch;
  double greedy_sum = 0.0;
  double random_sum = 0.0;
  int count = 0;
  for (int i = 0; i < 200; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto g = plan_prop_o(fx.net, probe->u, probe->v, probe->path, 2,
                               SelectionPolicy::kGreedy, rng, scratch);
    const auto r = plan_prop_o(fx.net, probe->u, probe->v, probe->path, 2,
                               SelectionPolicy::kRandom, rng, scratch);
    if (!g || !r) continue;
    greedy_sum += g->var;
    random_sum += r->var;
    // Greedy picks the max-gain subsets, so per-probe it dominates.
    EXPECT_GE(g->var, r->var - 1e-9);
    ++count;
  }
  ASSERT_GT(count, 50);
  EXPECT_GT(greedy_sum, random_sum);
}

TEST(PropO, NoTransferableNeighborsYieldsNullopt) {
  // Overlay: path graph 0-1-2; probing u=0 -> v=2 via path {0,1,2}:
  // u's only neighbor (1) is on the path, so no plan exists.
  Graph phys(3);
  phys.add_edge(0, 1, 1.0);
  phys.add_edge(1, 2, 1.0);
  LatencyOracle oracle(phys);
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Placement p(3, 3);
  for (SlotId s = 0; s < 3; ++s) p.bind(s, s);
  OverlayNetwork net(std::move(g), std::move(p), oracle);
  Rng rng(11);
  PlanScratch scratch;
  const std::vector<SlotId> path{0, 1, 2};
  EXPECT_FALSE(
      plan_prop_o(net, 0, 2, path, 2, SelectionPolicy::kGreedy, rng, scratch)
          .has_value());
}

TEST(PropO, PositiveVarExchangeReducesGlobalLinkLatency) {
  auto fx = UnstructuredFixture::make(60, 2012);
  Rng rng(12);
  PlanScratch scratch;
  for (int i = 0; i < 200; ++i) {
    const auto probe = random_probe(fx.net, 2, rng);
    if (!probe) continue;
    const auto plan = plan_prop_o(fx.net, probe->u, probe->v, probe->path, 2,
                                  SelectionPolicy::kGreedy, rng, scratch);
    if (!plan || plan->var <= 0.0) continue;
    const double before = fx.net.average_logical_link_latency();
    apply_exchange(fx.net, *plan);
    const double after = fx.net.average_logical_link_latency();
    // Each moved edge (u,a)->(v,a) changes the edge-latency sum by
    // d(v,a)-d(u,a); summed over both disjoint transfer sets that is
    // exactly -var, so positive Var strictly lowers the global mean.
    EXPECT_LT(after, before);
  }
}


// ----------------------------------------------- PROP-O differential ----

// The planner as first written: transferability by has_edge and a path
// scan, greedy selection by a comparator that re-evaluates both gains on
// every comparison, and Var summed in a separate loop. plan_prop_o scores
// each candidate once and filters by marks; it must agree to the bit.
std::optional<ExchangePlan> reference_plan_prop_o(
    const OverlayNetwork& net, SlotId u, SlotId v,
    std::span<const SlotId> path, std::size_t m, SelectionPolicy selection,
    Rng& rng) {
  auto transferable = [&](SlotId self, SlotId other) {
    std::vector<SlotId> out;
    for (const SlotId x : net.graph().neighbors(self)) {
      if (x == other) continue;
      if (std::find(path.begin(), path.end(), x) != path.end()) continue;
      if (net.graph().has_edge(other, x)) continue;
      out.push_back(x);
    }
    return out;
  };
  auto greedy = [&](SlotId self, SlotId other, std::vector<SlotId>& c,
                    std::size_t k) {
    std::sort(c.begin(), c.end(), [&](SlotId a, SlotId b) {
      const double gain_a =
          net.slot_latency(self, a) - net.slot_latency(other, a);
      const double gain_b =
          net.slot_latency(self, b) - net.slot_latency(other, b);
      if (gain_a != gain_b) return gain_a > gain_b;
      return a < b;
    });
    c.resize(k);
  };
  auto random = [&](std::vector<SlotId>& c, std::size_t k) {
    rng.shuffle(c);
    c.resize(k);
    std::sort(c.begin(), c.end());
  };
  std::vector<SlotId> from_u = transferable(u, v);
  std::vector<SlotId> from_v = transferable(v, u);
  const std::size_t k = std::min({m, from_u.size(), from_v.size()});
  if (k == 0) return std::nullopt;
  if (selection == SelectionPolicy::kGreedy) {
    greedy(u, v, from_u, k);
    greedy(v, u, from_v, k);
  } else {
    random(from_u, k);
    random(from_v, k);
  }
  ExchangePlan plan;
  plan.mode = PropMode::kPropO;
  plan.u = u;
  plan.v = v;
  plan.from_u = std::move(from_u);
  plan.from_v = std::move(from_v);
  double var = 0.0;
  for (const SlotId a : plan.from_u) {
    var += net.slot_latency(u, a) - net.slot_latency(v, a);
  }
  for (const SlotId b : plan.from_v) {
    var += net.slot_latency(v, b) - net.slot_latency(u, b);
  }
  plan.var = var;
  return plan;
}

// Probes a Gnutella overlay over `hosts` and compares plan_prop_o with
// the reference for every m up to the maximum degree under both
// policies; positive greedy plans are applied so the overlay keeps
// moving. One scratch serves every plan, and its epoch is pushed to the
// wrap point early on, so mark reuse and the wrap are both exercised.
// `ties` counts the probes where two of u's neighbors share a gain, so
// the tie-break decides the order.
void expect_planner_matches_reference(const LatencyOracle& oracle,
                                      const std::vector<NodeId>& hosts,
                                      std::uint64_t seed, std::size_t& ties) {
  Rng rng(seed);
  GnutellaConfig cfg;
  cfg.attach_links = 3;
  OverlayNetwork net = build_gnutella_overlay(cfg, hosts, oracle, rng);
  PlanScratch scratch;
  std::size_t compared = 0;
  for (int i = 0; i < 150; ++i) {
    const auto probe = random_probe(net, 2 + i % 3, rng);
    if (!probe) continue;
    std::size_t max_degree = 0;
    for (const SlotId s : net.graph().active_slots()) {
      max_degree = std::max(max_degree, net.graph().degree(s));
    }
    for (std::size_t m = 1; m <= max_degree; ++m) {
      for (const SelectionPolicy policy :
           {SelectionPolicy::kGreedy, SelectionPolicy::kRandom}) {
        Rng fast_rng(seed * 1000 + m);
        Rng ref_rng(seed * 1000 + m);
        const auto fast = plan_prop_o(net, probe->u, probe->v, probe->path,
                                      m, policy, fast_rng, scratch);
        const auto ref = reference_plan_prop_o(
            net, probe->u, probe->v, probe->path, m, policy, ref_rng);
        ASSERT_EQ(fast.has_value(), ref.has_value()) << "m=" << m;
        if (i == 0 && m == 1) {
          scratch.epoch = std::numeric_limits<std::uint32_t>::max() - 1;
        }
        if (!fast) continue;
        ++compared;
        ASSERT_EQ(fast->from_u, ref->from_u) << "m=" << m;
        ASSERT_EQ(fast->from_v, ref->from_v) << "m=" << m;
        ASSERT_EQ(std::memcmp(&fast->var, &ref->var, sizeof(double)), 0)
            << fast->var << " vs " << ref->var << " m=" << m;
        EXPECT_EQ(fast_rng.next(), ref_rng.next());
      }
    }
    std::vector<double> gains;
    for (const SlotId x : net.graph().neighbors(probe->u)) {
      gains.push_back(net.slot_latency(probe->u, x) -
                      net.slot_latency(probe->v, x));
    }
    std::sort(gains.begin(), gains.end());
    if (std::adjacent_find(gains.begin(), gains.end()) != gains.end()) ++ties;
    const auto step = plan_prop_o(net, probe->u, probe->v, probe->path, 2,
                                  SelectionPolicy::kGreedy, rng, scratch);
    if (step && step->var > 0.0) apply_exchange(net, *step);
  }
  EXPECT_GT(compared, 500u);
}

TEST(PropODifferential, MatchesReferenceOnTsLarge) {
  // 5/20/100 ms links: many candidates share a gain exactly.
  Rng rng(2101);
  const TransitStubTopology topo =
      make_transit_stub(TransitStubConfig::ts_large(), rng);
  const LatencyOracle oracle(topo);
  std::size_t ties = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng pick(seed);
    std::vector<NodeId> hosts;
    for (const std::size_t i : pick.sample_indices(topo.stub_nodes.size(),
                                                   200)) {
      hosts.push_back(topo.stub_nodes[i]);
    }
    expect_planner_matches_reference(oracle, hosts, seed, ties);
  }
  EXPECT_GT(ties, 50u);
}

TEST(PropODifferential, MatchesReferenceOnRealValuedLatencies) {
  Rng rng(2102);
  const Graph phys = make_waxman_graph(160, 0.4, 0.2, 100.0, 0.5, rng);
  const LatencyOracle oracle(phys);
  std::vector<NodeId> hosts;
  for (const std::size_t i : rng.sample_indices(phys.node_count(), 120)) {
    hosts.push_back(static_cast<NodeId>(i));
  }
  std::size_t ties = 0;
  expect_planner_matches_reference(oracle, hosts, 4, ties);
}

}  // namespace
}  // namespace propsim
