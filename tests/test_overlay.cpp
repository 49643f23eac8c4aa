#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fixtures.h"
#include "overlay/graph_io.h"
#include "overlay/isomorphism.h"
#include "overlay/logical_graph.h"
#include "overlay/overlay_network.h"
#include "overlay/placement.h"
#include "topology/random_graphs.h"

namespace propsim {
namespace {

// ------------------------------------------------------- LogicalGraph ----

TEST(LogicalGraph, EdgesAndDegrees) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.degree(1), 2u);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(LogicalGraph, DeactivateRemovesIncidentEdges) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.deactivate_slot(0);
  EXPECT_FALSE(g.is_active(0));
  EXPECT_EQ(g.active_count(), 3u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(LogicalGraph, ReactivateStartsIsolated) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.deactivate_slot(1);
  g.reactivate_slot(1);
  EXPECT_TRUE(g.is_active(1));
  EXPECT_EQ(g.degree(1), 0u);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(LogicalGraph, ActiveConnectivityIgnoresInactive) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.active_subgraph_connected());
  g.deactivate_slot(3);
  EXPECT_TRUE(g.active_subgraph_connected());
  g.deactivate_slot(1);
  EXPECT_FALSE(g.active_subgraph_connected());  // 0 | 2 split
}

TEST(LogicalGraph, DegreeMultisetSorted) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  const auto d = g.degree_multiset();
  EXPECT_EQ(d, (std::vector<std::size_t>{1, 1, 1, 3}));
}

TEST(LogicalGraph, MinAndAverageActiveDegree) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.min_active_degree(), 1u);
  EXPECT_NEAR(g.average_active_degree(), 4.0 / 3.0, 1e-12);
}

TEST(LogicalGraph, AddSlotGrows) {
  LogicalGraph g(2);
  const SlotId s = g.add_slot();
  EXPECT_EQ(s, 2u);
  EXPECT_EQ(g.active_count(), 3u);
  g.add_edge(0, s);
  EXPECT_TRUE(g.has_edge(s, 0));
}

// Snapshot caches key on this count: every edit must move it, and
// queries must not.
TEST(LogicalGraph, MutationCountMovesOnEveryEdit) {
  LogicalGraph g(3);
  std::uint64_t last = g.mutation_count();
  auto moved = [&] {
    const bool grew = g.mutation_count() > last;
    last = g.mutation_count();
    return grew;
  };
  g.add_edge(0, 1);
  EXPECT_TRUE(moved());
  g.add_edge(1, 2);
  EXPECT_TRUE(moved());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.active_subgraph_connected());
  EXPECT_FALSE(moved());
  g.remove_edge(0, 1);
  EXPECT_TRUE(moved());
  g.deactivate_slot(2);
  EXPECT_TRUE(moved());
  g.reactivate_slot(2);
  EXPECT_TRUE(moved());
  g.add_slot();
  EXPECT_TRUE(moved());
}

// ---------------------------------------------------------- Placement ----

TEST(Placement, MutationCountMovesOnEveryEdit) {
  Placement p(3, 10);
  std::uint64_t last = p.mutation_count();
  auto moved = [&] {
    const bool grew = p.mutation_count() > last;
    last = p.mutation_count();
    return grew;
  };
  p.bind(0, 5);
  EXPECT_TRUE(moved());
  p.bind(1, 6);
  EXPECT_TRUE(moved());
  p.swap_slots(0, 1);
  EXPECT_TRUE(moved());
  p.ensure_slot_capacity(5);
  EXPECT_TRUE(p.validate());
  EXPECT_FALSE(moved());
  p.unbind(0);
  EXPECT_TRUE(moved());
}

TEST(Placement, BindUnbindRoundTrip) {
  Placement p(3, 10);
  p.bind(0, 7);
  p.bind(2, 4);
  EXPECT_TRUE(p.slot_bound(0));
  EXPECT_FALSE(p.slot_bound(1));
  EXPECT_EQ(p.host_of(0), 7u);
  EXPECT_EQ(p.slot_of(7), 0u);
  EXPECT_EQ(p.bound_count(), 2u);
  EXPECT_TRUE(p.validate());
  p.unbind(0);
  EXPECT_FALSE(p.slot_bound(0));
  EXPECT_FALSE(p.host_bound(7));
  EXPECT_TRUE(p.validate());
}

TEST(Placement, SwapSlotsExchangesHosts) {
  Placement p(3, 10);
  p.bind(0, 5);
  p.bind(1, 6);
  p.swap_slots(0, 1);
  EXPECT_EQ(p.host_of(0), 6u);
  EXPECT_EQ(p.host_of(1), 5u);
  EXPECT_EQ(p.slot_of(5), 1u);
  EXPECT_EQ(p.slot_of(6), 0u);
  EXPECT_TRUE(p.validate());
}

TEST(Placement, BoundHostsOrderedBySlot) {
  Placement p(4, 10);
  p.bind(3, 2);
  p.bind(1, 9);
  EXPECT_EQ(p.bound_hosts(), (std::vector<NodeId>{9, 2}));
}

TEST(Placement, EnsureSlotCapacityGrows) {
  Placement p(1, 5);
  p.ensure_slot_capacity(3);
  p.bind(2, 0);
  EXPECT_EQ(p.host_of(2), 0u);
  EXPECT_TRUE(p.validate());
}

// ----------------------------------------------------- OverlayNetwork ----

class OverlayNetworkTest : public ::testing::Test {
 protected:
  OverlayNetworkTest() : physical_(make_ring()), oracle_(physical_) {}

  static Graph make_ring() {
    // 6-host physical ring with unit latency.
    Graph g(6);
    for (NodeId u = 0; u < 6; ++u) g.add_edge(u, (u + 1) % 6, 1.0);
    return g;
  }

  OverlayNetwork make_net() {
    LogicalGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 0);
    Placement p(4, 6);
    // Slot i -> host i (hosts 4, 5 unused).
    for (SlotId s = 0; s < 4; ++s) p.bind(s, s);
    return OverlayNetwork(std::move(g), std::move(p), oracle_);
  }

  Graph physical_;
  LatencyOracle oracle_;
};

TEST_F(OverlayNetworkTest, SlotLatencyUsesPhysicalShortestPath) {
  auto net = make_net();
  EXPECT_DOUBLE_EQ(net.slot_latency(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(net.slot_latency(0, 3), 3.0);  // ring distance
  EXPECT_DOUBLE_EQ(net.slot_latency(2, 2), 0.0);
}

TEST_F(OverlayNetworkTest, NeighborLatencySum) {
  auto net = make_net();
  // Slot 1 neighbors slots 0 and 2 -> hosts 0, 2 at distances 1 and 1.
  EXPECT_DOUBLE_EQ(net.neighbor_latency_sum(1), 2.0);
  // Slot 0 neighbors slots 1 and 3 -> distances 1 and 3.
  EXPECT_DOUBLE_EQ(net.neighbor_latency_sum(0), 4.0);
}

TEST_F(OverlayNetworkTest, AverageLogicalLinkLatency) {
  auto net = make_net();
  // Logical edges: (0,1)=1, (1,2)=1, (2,3)=1, (3,0)=3 -> mean 1.5.
  EXPECT_DOUBLE_EQ(net.average_logical_link_latency(), 1.5);
}

TEST_F(OverlayNetworkTest, RandomWalkRespectsTtlAndNoRevisit) {
  auto net = make_net();
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto walk = net.random_walk(0, 1, 2, rng);
    ASSERT_TRUE(walk.has_value());
    EXPECT_EQ(walk->size(), 3u);
    EXPECT_EQ((*walk)[0], 0u);
    EXPECT_EQ((*walk)[1], 1u);
    std::set<SlotId> uniq(walk->begin(), walk->end());
    EXPECT_EQ(uniq.size(), walk->size());
  }
}

TEST_F(OverlayNetworkTest, RandomWalkDeadEndReturnsNullopt) {
  LogicalGraph g(3);
  g.add_edge(0, 1);  // 1 is a dead end beyond 0
  g.add_edge(0, 2);
  Placement p(3, 6);
  for (SlotId s = 0; s < 3; ++s) p.bind(s, s);
  OverlayNetwork net(std::move(g), std::move(p), oracle_);
  Rng rng(4);
  // Walk 0 -> 1 needs a second hop but 1's only neighbor is visited.
  EXPECT_FALSE(net.random_walk(0, 1, 2, rng).has_value());
}

TEST_F(OverlayNetworkTest, FloodLatenciesAreOverlayShortestPaths) {
  auto net = make_net();
  const auto d = net.flood_latencies(0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);  // via slot 1, latency 1+1
  EXPECT_DOUBLE_EQ(d[3], 3.0);  // via slots 1,2 (3 hops of 1) or direct 3
}

TEST_F(OverlayNetworkTest, FloodLatenciesWithProcessingDelay) {
  auto net = make_net();
  const std::vector<double> proc{0.0, 10.0, 0.0, 0.0};
  const auto d = net.flood_latencies(0, &proc);
  // 0->1 pays 1 + proc(1)=10; 0->2 via 1 pays 12, via 3: 3+0+1+0=4.
  EXPECT_DOUBLE_EQ(d[1], 11.0);
  EXPECT_DOUBLE_EQ(d[2], 4.0);
}

// The walk algorithm random_walk replaced: visited membership via
// std::find over the path, O(degree * ttl) per step. Kept verbatim as
// the behavioral reference — the epoch-stamped version must draw the
// exact same candidates in the exact same order.
std::optional<std::vector<SlotId>> reference_walk(const OverlayNetwork& net,
                                                  SlotId from,
                                                  SlotId first_hop,
                                                  std::size_t ttl, Rng& rng) {
  std::vector<SlotId> path{from, first_hop};
  path.reserve(ttl + 1);
  std::vector<SlotId> candidates;
  while (path.size() < ttl + 1) {
    const SlotId here = path.back();
    candidates.clear();
    for (const SlotId v : net.graph().neighbors(here)) {
      if (std::find(path.begin(), path.end(), v) == path.end()) {
        candidates.push_back(v);
      }
    }
    if (candidates.empty()) return std::nullopt;
    const SlotId chosen = rng.pick(candidates);
    path.push_back(chosen);
  }
  return path;
}

TEST(RandomWalkRegression, LongTtlMatchesFindBasedReference) {
  auto fx = testing::UnstructuredFixture::make(60, 6001, 4);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const SlotId from = static_cast<SlotId>(seed % 60);
    const auto nbrs = fx.net.graph().neighbors(from);
    ASSERT_FALSE(nbrs.empty());
    const SlotId first_hop = nbrs.front();
    for (const std::size_t ttl : {2, 8, 40}) {
      // Separate generators with the same seed: identical candidate
      // sequences must consume identical draws.
      Rng walk_rng(seed);
      Rng ref_rng(seed);
      const auto got = fx.net.random_walk(from, first_hop, ttl, walk_rng);
      const auto want = reference_walk(fx.net, from, first_hop, ttl, ref_rng);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed " << seed << " ttl " << ttl;
      if (got.has_value()) {
        EXPECT_EQ(*got, *want) << "seed " << seed << " ttl " << ttl;
      }
    }
  }
}

TEST(FloodScratch, ReuseMatchesAllocatingAcrossSources) {
  auto fx = testing::UnstructuredFixture::make(50, 6002);
  OverlayNetwork::FloodScratch scratch;  // one buffer for every call
  std::vector<double> proc(fx.net.graph().slot_count(), 0.0);
  for (std::size_t s = 0; s < proc.size(); s += 4) proc[s] = 5.0;
  const OverlayNetwork::LinkFilter drop = [](SlotId a, SlotId b) {
    return a % 7 != 0 && b % 7 != 0;
  };
  for (const SlotId src : {SlotId{1}, SlotId{7}, SlotId{23}, SlotId{44}}) {
    EXPECT_EQ(fx.net.flood_latencies(src, &proc),
              fx.net.flood_latencies_into(scratch, src, &proc));
    EXPECT_EQ(fx.net.flood_latencies(src, nullptr, &drop),
              fx.net.flood_latencies_into(scratch, src, nullptr, &drop));
    EXPECT_EQ(fx.net.hop_distances(src, 4),
              fx.net.hop_distances_into(scratch, src, 4));
  }
}

TEST_F(OverlayNetworkTest, HopDistancesBfs) {
  auto net = make_net();
  const auto h = net.hop_distances(0, 10);
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[3], 1u);
  EXPECT_EQ(h[2], 2u);
  const auto capped = net.hop_distances(0, 1);
  EXPECT_EQ(capped[2], std::numeric_limits<std::uint32_t>::max());
}

// ------------------------------------------------------------ GraphIo ----

TEST(GraphIo, EdgeListRoundTrip) {
  Rng rng(21);
  const Graph g = make_connected_random_graph(30, 70, 2.5, rng);
  const Graph back = graph_from_edge_list(graph_to_edge_list(g));
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Graph::Edge& e : g.neighbors(u)) {
      ASSERT_TRUE(back.has_edge(u, e.to));
      EXPECT_DOUBLE_EQ(back.edge_weight(u, e.to), e.weight);
    }
  }
}

TEST(GraphIo, EdgeListParsesCommentsAndBlankLines) {
  const Graph g = graph_from_edge_list(
      "# header\n\nnodes 3\n0 1 2.5  # inline\n\n1 2 7\n");
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.5);
}

TEST(GraphIo, SaveLoadFile) {
  Rng rng(22);
  const Graph g = make_connected_random_graph(12, 25, 1.0, rng);
  const std::string path = ::testing::TempDir() + "propsim_graph_io.txt";
  save_graph(g, path);
  const Graph back = load_graph(path);
  EXPECT_EQ(back.edge_count(), g.edge_count());
  EXPECT_TRUE(back.is_connected());
}

TEST(GraphIo, DotExportContainsEdges) {
  Graph g(3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 7.0);
  const std::string dot = graph_to_dot(g, /*label_weights=*/true);
  EXPECT_NE(dot.find("graph physical {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"7\""), std::string::npos);
}

TEST(GraphIo, OverlayDotColorsByLatency) {
  Graph phys(4);
  phys.add_edge(0, 1, 1.0);
  phys.add_edge(1, 2, 1.0);
  phys.add_edge(2, 3, 1.0);
  LatencyOracle oracle(phys);
  LogicalGraph g(3);
  g.add_edge(0, 1);  // short link (1 ms)
  g.add_edge(0, 2);  // long link (3 ms via hosts 0 and 3)
  Placement p(3, 4);
  p.bind(0, 0);
  p.bind(1, 1);
  p.bind(2, 3);
  OverlayNetwork net(std::move(g), std::move(p), oracle);
  const std::string dot = overlay_to_dot(net);
  EXPECT_NE(dot.find("s0 -- s1 [color=\"0.330"), std::string::npos);  // green
  EXPECT_NE(dot.find("s0 -- s2 [color=\"0.000"), std::string::npos);  // red
  EXPECT_NE(dot.find("\"0/0\""), std::string::npos);  // slot/host label
}

// -------------------------------------------------------- Isomorphism ----

TEST(Isomorphism, HostEdgesCanonical) {
  LogicalGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Placement p(3, 5);
  p.bind(0, 4);
  p.bind(1, 0);
  p.bind(2, 2);
  const auto edges = host_edges(g, p);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (HostEdge{0, 2}));
  EXPECT_EQ(edges[1], (HostEdge{0, 4}));
}

TEST(Isomorphism, SwapYieldsIsomorphicHostGraph) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Placement before(4, 8);
  for (SlotId s = 0; s < 4; ++s) before.bind(s, s);
  Placement after = before;
  after.swap_slots(1, 3);
  const auto [hosts, phi] = placement_bijection(before, after);
  EXPECT_TRUE(isomorphic_via(host_edges(g, before), host_edges(g, after),
                             hosts, phi));
}

TEST(Isomorphism, DetectsNonIsomorphicEdit) {
  LogicalGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LogicalGraph h = g;
  h.remove_edge(1, 2);
  h.add_edge(0, 2);  // degree sequence changes at slot 1
  Placement p(4, 8);
  for (SlotId s = 0; s < 4; ++s) p.bind(s, s);
  const auto [hosts, phi] = placement_bijection(p, p);
  EXPECT_FALSE(isomorphic_via(host_edges(g, p), host_edges(h, p), hosts, phi));
}

TEST(Isomorphism, IdentityMappingOnUnchangedGraph) {
  Rng rng(5);
  LogicalGraph g(10);
  for (int i = 0; i < 15; ++i) {
    const SlotId a = static_cast<SlotId>(rng.uniform(10));
    SlotId b = static_cast<SlotId>(rng.uniform(9));
    if (b >= a) ++b;
    if (!g.has_edge(a, b)) g.add_edge(a, b);
  }
  Placement p(10, 20);
  for (SlotId s = 0; s < 10; ++s) p.bind(s, s + 5);
  const auto [hosts, phi] = placement_bijection(p, p);
  EXPECT_TRUE(isomorphic_via(host_edges(g, p), host_edges(g, p), hosts, phi));
}

}  // namespace
}  // namespace propsim
