// Measurement engine: snapshot fidelity, parallel determinism (results
// bit-identical to the serial path for any thread count), scratch
// reuse, the Dial kernel against a reference heap Dijkstra (bit for
// bit), the fixed-point kernel's bounded-error equivalence,
// snapshot caching, the measure_threads / measure_mode config keys,
// and golden whole-experiment JSON across thread counts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/experiment.h"
#include "app/result_json.h"
#include "chord/chord_ring.h"
#include "common/config.h"
#include "common/indexed_priority_queue.h"
#include "fixtures.h"
#include "measure/measure_engine.h"
#include "measure/snapshot_cache.h"
#include "metrics/metrics.h"

namespace propsim {
namespace {

using testing::UnstructuredFixture;

// ----------------------------------------------------- OverlaySnapshot ----

TEST(OverlaySnapshot, MirrorsLiveAdjacencyAndLatencies) {
  auto fx = UnstructuredFixture::make(40, 7001);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  const LogicalGraph& g = fx.net.graph();
  ASSERT_EQ(snap.slot_count(), g.slot_count());
  EXPECT_EQ(snap.edge_count(), 2 * g.edge_count());
  for (SlotId s = 0; s < g.slot_count(); ++s) {
    EXPECT_EQ(snap.is_active(s), g.is_active(s));
    const auto targets = snap.targets(s);
    const auto lats = snap.latencies(s);
    const auto nbrs = g.neighbors(s);
    ASSERT_EQ(targets.size(), nbrs.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(targets[i], nbrs[i]);
      // Precomputed edge latency is the identical double slot_latency
      // returns — the determinism contract depends on exact equality.
      EXPECT_EQ(lats[i], fx.net.slot_latency(s, nbrs[i]));
    }
  }
}

TEST(OverlaySnapshot, LinkFilterPrunesAtCapture) {
  auto fx = UnstructuredFixture::make(40, 7002);
  const OverlayNetwork::LinkFilter drop = [](SlotId a, SlotId b) {
    return (a + b) % 3 != 0;
  };
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net, &drop);
  for (SlotId s = 0; s < snap.slot_count(); ++s) {
    for (const SlotId t : snap.targets(s)) EXPECT_TRUE(drop(s, t));
  }
  // Pruned-at-capture == skipped-at-relax: floods over the snapshot must
  // equal live floods under the same filter, unreachable slots included.
  MeasureScratch scratch;
  for (const SlotId src : {SlotId{0}, SlotId{5}, SlotId{17}}) {
    flood_snapshot(snap, src, nullptr, scratch);
    const auto live = fx.net.flood_latencies(src, nullptr, &drop);
    for (SlotId v = 0; v < live.size(); ++v) {
      EXPECT_EQ(scratch.distance(v), live[v]) << "src " << src << " v " << v;
    }
  }
}

TEST(FloodSnapshot, MatchesLiveFloodWithProcessingDelays) {
  auto fx = UnstructuredFixture::make(50, 7003);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  std::vector<double> proc(fx.net.graph().slot_count(), 0.0);
  for (std::size_t s = 0; s < proc.size(); s += 3) proc[s] = 7.5;
  MeasureScratch scratch;  // reused across every source
  for (SlotId src = 0; src < 50; ++src) {
    flood_snapshot(snap, src, &proc, scratch);
    const auto live = fx.net.flood_latencies(src, &proc);
    for (SlotId v = 0; v < live.size(); ++v) {
      EXPECT_EQ(scratch.distance(v), live[v]) << "src " << src << " v " << v;
    }
  }
}

// ----------------------------------------------- fixed-point encoding ----

TEST(FixedPoint, GridAndOffGridQuantization) {
  // Transit-stub edge latencies are small integers of milliseconds;
  // integers sit exactly on the 2^-20 fixed-point grid.
  EXPECT_EQ(OverlaySnapshot::quantize_ms(5.0),
            5ull << OverlaySnapshot::kFxFracBits);
  EXPECT_EQ(OverlaySnapshot::quantize_ms(0.0), 0ull);
  // Off-grid values round to the nearest grid point: half-ULP error.
  const double ms = 7.3;
  const std::uint64_t fx = OverlaySnapshot::quantize_ms(ms);
  ASSERT_LE(fx, OverlaySnapshot::kFxMaxEdge);
  EXPECT_LE(std::fabs(static_cast<double>(fx) / OverlaySnapshot::kFxPerMs -
                      ms),
            0.5 / OverlaySnapshot::kFxPerMs);
  // Unencodable values come back as sentinels above kFxMaxEdge so
  // capture can mark the snapshot !fixed_point_ok() instead of
  // silently wrapping.
  EXPECT_GT(OverlaySnapshot::quantize_ms(-1.0), OverlaySnapshot::kFxMaxEdge);
  EXPECT_GT(OverlaySnapshot::quantize_ms(1e12), OverlaySnapshot::kFxMaxEdge);
  EXPECT_GT(
      OverlaySnapshot::quantize_ms(std::numeric_limits<double>::infinity()),
      OverlaySnapshot::kFxMaxEdge);
}

TEST(FixedPoint, SnapshotCarriesQuantizedEdges) {
  auto fx = UnstructuredFixture::make(40, 7020);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  ASSERT_TRUE(snap.fixed_point_ok());
  for (SlotId s = 0; s < snap.slot_count(); ++s) {
    const auto ms = snap.latencies(s);
    const auto fxs = snap.latencies_fx(s);
    ASSERT_EQ(ms.size(), fxs.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
      EXPECT_EQ(fxs[i], OverlaySnapshot::quantize_ms(ms[i]));
      EXPECT_GE(fxs[i], snap.min_edge_fx());
    }
  }
}

// ----------------------------------------------- delta-stepping flood ----

TEST(FloodSnapshotFast, MatchesExactWithinQuantizationBound) {
  auto fx = UnstructuredFixture::make(50, 7021);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  ASSERT_TRUE(snap.fixed_point_ok());
  // Off-grid processing delays force nonzero quantization error (the
  // topology's own edge latencies are integral, hence exact).
  const std::size_t n = snap.slot_count();
  std::vector<double> proc(n, 0.0);
  std::vector<std::uint32_t> proc_fx(n, 0);
  for (std::size_t s = 0; s < n; ++s) {
    proc[s] = 0.1 * static_cast<double>(s % 7);
    proc_fx[s] =
        static_cast<std::uint32_t>(OverlaySnapshot::quantize_ms(proc[s]));
  }
  MeasureScratch exact;
  MeasureScratch fast;
  for (SlotId src = 0; src < n; ++src) {
    flood_snapshot(snap, src, &proc, exact);
    flood_snapshot_fast(snap, src, &proc_fx, fast);
    for (SlotId v = 0; v < n; ++v) {
      const double e = exact.distance(v);
      const double f = fast.distance(v);
      if (std::isinf(e)) {
        EXPECT_TRUE(std::isinf(f)) << "src " << src << " v " << v;
        continue;
      }
      EXPECT_NEAR(f, e, 1e-6 * std::max(e, 1.0))
          << "src " << src << " v " << v;
    }
  }
}

TEST(FloodSnapshotFast, ExactOnIntegralLatenciesWithoutDelays) {
  // With every edge weight on the fixed-point grid the bucket queue is
  // not an approximation at all: distances must match bit-for-bit.
  auto fx = UnstructuredFixture::make(40, 7022);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  MeasureScratch exact;
  MeasureScratch fast;
  for (const SlotId src : {SlotId{0}, SlotId{13}, SlotId{29}}) {
    flood_snapshot(snap, src, nullptr, exact);
    flood_snapshot_fast(snap, src, nullptr, fast);
    for (SlotId v = 0; v < snap.slot_count(); ++v) {
      EXPECT_EQ(fast.distance(v), exact.distance(v))
          << "src " << src << " v " << v;
    }
  }
}

// ------------------------------------------- differential: Dial kernel ----
//
// The bucket kernel against the textbook binary-heap Dijkstra it
// replaced, kept here as the reference: same arithmetic (cost = lat
// (+ proc), candidate = du + cost), strict-improvement relaxation.
// Equality is bit-for-bit. Worlds are hand-built so edge costs can be
// off-grid, zero, below the bucket-width clamp, infinite or spread past
// the bucket window.

template <typename Dist, typename Weight>
std::vector<Dist> heap_dijkstra(
    const OverlaySnapshot& snap, SlotId src,
    std::span<const Weight> (OverlaySnapshot::*weights)(SlotId) const,
    const std::vector<Weight>* proc, Dist unreached) {
  std::vector<Dist> dist(snap.slot_count(), unreached);
  IndexedPriorityQueue<Dist> queue(snap.slot_count());
  dist[src] = 0;
  queue.push_or_update(src, 0);
  while (!queue.empty()) {
    const auto u = static_cast<SlotId>(queue.pop());
    const auto targets = snap.targets(u);
    const auto w = (snap.*weights)(u);
    for (std::size_t e = 0; e < targets.size(); ++e) {
      const SlotId v = targets[e];
      Dist cost = w[e];
      if (proc != nullptr) cost += (*proc)[v];
      const Dist candidate = dist[u] + cost;
      if (candidate < dist[v]) {
        dist[v] = candidate;
        queue.push_or_update(v, candidate);
      }
    }
  }
  return dist;
}

/// Index of the first element whose bytes differ, or -1.
long first_bit_difference(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

/// One slot per physical host (slot s on host s) over a hand-built
/// physical graph; unreachable hosts give infinite slot latencies.
struct ToyWorld {
  Graph physical;
  LatencyOracle oracle;
  OverlayNetwork net;

  ToyWorld(Graph g, const std::vector<std::pair<SlotId, SlotId>>& links)
      : physical(std::move(g)), oracle(physical), net(make_net(links)) {}

 private:
  OverlayNetwork make_net(
      const std::vector<std::pair<SlotId, SlotId>>& links) const {
    const std::size_t n = physical.node_count();
    LogicalGraph graph(n);
    for (const auto& [a, b] : links) {
      if (a != b && !graph.has_edge(a, b)) graph.add_edge(a, b);
    }
    Placement placement(n, n);
    for (SlotId s = 0; s < n; ++s) placement.bind(s, s);
    return OverlayNetwork(std::move(graph), std::move(placement), oracle);
  }
};

struct WorldShape {
  std::function<double(Rng&)> weight;  // physical edge weight
  bool split = false;     // two physical components: infinite latencies
  bool isolate = false;   // some slots without overlay links: unreachable
};

std::unique_ptr<ToyWorld> make_world(const WorldShape& shape,
                                     std::uint64_t seed, std::size_t n = 48) {
  Rng rng(seed);
  Graph g(n);
  // A random spanning tree per component plus chords.
  const std::size_t half = shape.split ? n / 2 : n;
  for (NodeId v = 1; v < n; ++v) {
    if (v == half) continue;  // first node of the second component
    const NodeId lo = v < half ? 0 : static_cast<NodeId>(half);
    const auto u = static_cast<NodeId>(lo + rng.uniform(v - lo));
    g.add_edge(u, v, shape.weight(rng));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform(n));
    const auto v = static_cast<NodeId>(rng.uniform(n));
    const bool same_side = (u < half) == (v < half);
    if (u != v && same_side && !g.has_edge(u, v)) {
      g.add_edge(u, v, shape.weight(rng));
    }
  }
  std::vector<std::pair<SlotId, SlotId>> links;
  const std::size_t linked = shape.isolate ? n - 5 : n;
  for (SlotId s = 1; s < linked; ++s) {
    links.emplace_back(static_cast<SlotId>(rng.uniform(s)), s);
  }
  for (std::size_t i = 0; i < 2 * linked; ++i) {
    links.emplace_back(static_cast<SlotId>(rng.uniform(linked)),
                       static_cast<SlotId>(rng.uniform(linked)));
  }
  auto world = std::make_unique<ToyWorld>(std::move(g), links);
  // Departed peers: inactive slots are neither sources nor reachable.
  for (const SlotId s : {SlotId{3}, SlotId{17}}) {
    world->net.graph().deactivate_slot(s);
  }
  return world;
}

/// Every active source, with and without processing delays (uniform up
/// to `max_proc_ms`), exact kernel against the double heap and (when
/// encodable) the fixed-point kernel against the integer heap.
void expect_kernels_match_heap(const OverlaySnapshot& snap, Rng& rng,
                               double max_proc_ms = 12.0) {
  const std::size_t n = snap.slot_count();
  std::vector<double> proc(n);
  std::vector<std::uint32_t> proc_fx(n);
  for (std::size_t s = 0; s < n; ++s) {
    proc[s] = s % 4 == 0 ? 0.0 : rng.uniform_double(0.0, max_proc_ms);
    proc_fx[s] =
        static_cast<std::uint32_t>(OverlaySnapshot::quantize_ms(proc[s]));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr auto kUnreachedFx = std::numeric_limits<std::uint64_t>::max();
  MeasureScratch scratch;  // reused across sources, kernels and delays
  std::vector<double> got(n);
  for (SlotId src = 0; src < n; ++src) {
    if (!snap.is_active(src)) continue;
    for (const bool with_proc : {false, true}) {
      const auto want = heap_dijkstra<double, double>(
          snap, src, &OverlaySnapshot::latencies, with_proc ? &proc : nullptr,
          kInf);
      flood_snapshot(snap, src, with_proc ? &proc : nullptr, scratch);
      for (SlotId v = 0; v < n; ++v) got[v] = scratch.distance(v);
      EXPECT_EQ(first_bit_difference(got, want), -1)
          << "exact kernel, src " << src << " proc " << with_proc;

      if (!snap.fixed_point_ok()) continue;
      // The integer heap is what the fast kernel always computed: exact
      // shortest paths over the quantized weights.
      const auto want_fx = heap_dijkstra<std::uint64_t, std::uint32_t>(
          snap, src, &OverlaySnapshot::latencies_fx,
          with_proc ? &proc_fx : nullptr, kUnreachedFx);
      std::vector<double> want_fx_ms(n);
      for (SlotId v = 0; v < n; ++v) {
        want_fx_ms[v] = want_fx[v] == kUnreachedFx
                            ? kInf
                            : static_cast<double>(want_fx[v]) /
                                  OverlaySnapshot::kFxPerMs;
      }
      flood_snapshot_fast(snap, src, with_proc ? &proc_fx : nullptr, scratch);
      for (SlotId v = 0; v < n; ++v) got[v] = scratch.distance(v);
      EXPECT_EQ(first_bit_difference(got, want_fx_ms), -1)
          << "fixed-point kernel, src " << src << " proc " << with_proc;
    }
  }
}

/// flood_snapshot_to for every (active source, destination) pair, with
/// and without processing delays, against the live overlay's full flood
/// under the same link filter, bit for bit. One scratch serves every
/// call, and each early stop must leave it drained: the buckets and the
/// overflow list empty, so the full snapshot flood that follows on the
/// same scratch still matches. `source_stride` > 1 checks every
/// destination from every stride-th source only.
void expect_point_to_point_matches_live(
    const ToyWorld& world, const OverlayNetwork::LinkFilter* filter,
    Rng& rng, double max_proc_ms = 12.0, SlotId source_stride = 1) {
  const OverlaySnapshot snap = OverlaySnapshot::capture(world.net, filter);
  const std::size_t n = snap.slot_count();
  std::vector<double> proc(n);
  for (std::size_t s = 0; s < n; ++s) {
    proc[s] = s % 4 == 0 ? 0.0 : rng.uniform_double(0.0, max_proc_ms);
  }
  MeasureScratch scratch;
  std::vector<double> got(n);
  for (SlotId src = 0; src < n; src += source_stride) {
    if (!snap.is_active(src)) continue;
    for (const bool with_proc : {false, true}) {
      const std::vector<double>* p = with_proc ? &proc : nullptr;
      const auto want = world.net.flood_latencies(src, p, filter);
      for (SlotId dst = 0; dst < n; ++dst) {
        got[dst] = flood_snapshot_to(snap, src, dst, p, scratch);
        EXPECT_TRUE(std::all_of(scratch.buckets.begin(),
                                scratch.buckets.end(),
                                [](const auto& b) { return b.empty(); }) &&
                    scratch.overflow.empty())
            << "src " << src << " dst " << dst << " left entries queued";
      }
      EXPECT_EQ(first_bit_difference(got, want), -1)
          << "point to point, src " << src << " proc " << with_proc;
      flood_snapshot(snap, src, p, scratch);
      for (SlotId v = 0; v < n; ++v) got[v] = scratch.distance(v);
      EXPECT_EQ(first_bit_difference(got, want), -1)
          << "full flood after early stops, src " << src;
    }
  }
}

double max_finite_distance(const OverlaySnapshot& snap) {
  double worst = 0.0;
  MeasureScratch scratch;
  for (SlotId src = 0; src < snap.slot_count(); ++src) {
    if (!snap.is_active(src)) continue;
    flood_snapshot(snap, src, nullptr, scratch);
    for (SlotId v = 0; v < snap.slot_count(); ++v) {
      if (std::isfinite(scratch.distance(v))) {
        worst = std::max(worst, scratch.distance(v));
      }
    }
  }
  return worst;
}

TEST(DialKernelDifferential, OffGridDoublesAndUnreachableSlots) {
  const WorldShape shape{[](Rng& r) { return r.uniform_double(0.3, 25.0); },
                         false, true};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto world = make_world(shape, 8100 + seed);
    const auto snap = OverlaySnapshot::capture(world->net);
    ASSERT_TRUE(snap.fixed_point_ok());
    Rng rng(seed);
    expect_kernels_match_heap(snap, rng);
    expect_point_to_point_matches_live(*world, nullptr, rng);
  }
}

TEST(DialKernelDifferential, ZeroCostEdgesTakeTheFixpointDrain) {
  // Physical weights are positive, so zero costs arise from rounding:
  // picosecond edges quantize to 0 fx, and in doubles fl(du + c) == du
  // once du is a few ulps past c — both relax without moving distance.
  const WorldShape shape{[](Rng& r) {
    return r.bernoulli(0.4) ? r.uniform_double(1e-12, 1e-9)
                            : r.uniform_double(0.2, 9.0);
  }};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto world = make_world(shape, 8200 + seed);
    const auto snap = OverlaySnapshot::capture(world->net);
    ASSERT_LT(snap.min_edge_ms(), 1e-8);
    ASSERT_EQ(snap.min_edge_fx(), 0u);
    Rng rng(seed);
    expect_kernels_match_heap(snap, rng);
    expect_point_to_point_matches_live(*world, nullptr, rng);
  }
}

TEST(DialKernelDifferential, EdgesBelowTheWidthClampTakeTheFixpointDrain) {
  // Bucket width never drops below 2^-4 ms, so these edges are narrower
  // than their bucket and relaxations land back in the open one.
  const WorldShape shape{[](Rng& r) { return r.uniform_double(0.001, 0.05); }};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto world = make_world(shape, 8300 + seed);
    const auto snap = OverlaySnapshot::capture(world->net);
    ASSERT_GT(snap.min_edge_ms(), 0.0);
    ASSERT_LT(snap.min_edge_ms(), 0.0625);
    Rng rng(seed);
    expect_kernels_match_heap(snap, rng);
    expect_point_to_point_matches_live(*world, nullptr, rng);
  }
}

TEST(DialKernelDifferential, InfiniteLatenciesAcrossPhysicalComponents) {
  const WorldShape shape{[](Rng& r) { return r.uniform_double(0.5, 30.0); },
                         true, false};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto world = make_world(shape, 8400 + seed);
    const auto snap = OverlaySnapshot::capture(world->net);
    ASSERT_FALSE(snap.fixed_point_ok());  // infinite edges do not encode
    bool infinite_edge = false;
    for (SlotId s = 0; s < snap.slot_count(); ++s) {
      for (const double ms : snap.latencies(s)) {
        infinite_edge = infinite_edge || std::isinf(ms);
      }
    }
    ASSERT_TRUE(infinite_edge);
    Rng rng(seed);
    expect_kernels_match_heap(snap, rng);
    expect_point_to_point_matches_live(*world, nullptr, rng);
  }
}

TEST(DialKernelDifferential, LinkFilteredCaptures) {
  const WorldShape shape{[](Rng& r) { return r.uniform_double(0.3, 25.0); }};
  const OverlayNetwork::LinkFilter drop = [](SlotId a, SlotId b) {
    return (7 * a + b) % 5 != 0;  // asymmetric: prunes directed edges
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto world = make_world(shape, 8500 + seed);
    const auto snap = OverlaySnapshot::capture(world->net, &drop);
    Rng rng(seed);
    expect_kernels_match_heap(snap, rng);
    expect_point_to_point_matches_live(*world, &drop, rng);
  }
}

TEST(DialKernelDifferential, DistancesPastTheBucketWindowOverflow) {
  // 0.1 ms edges pin the width at 2^-4 ms, so the 2^16-bucket window
  // covers 4096 ms. Second-scale processing delays (still fixed-point
  // encodable) or second-scale edges (not encodable) push paths several
  // windows past it.
  const WorldShape encodable{[](Rng& r) {
    return r.bernoulli(0.3) ? 0.1 : r.uniform_double(5.0, 50.0);
  }};
  const WorldShape wide{[](Rng& r) {
    return r.bernoulli(0.3) ? 0.1 : r.uniform_double(2000.0, 6000.0);
  }};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto world = make_world(encodable, 8600 + seed);
    const auto snap = OverlaySnapshot::capture(world->net);
    ASSERT_LT(snap.min_edge_ms(), 0.125);
    ASSERT_TRUE(snap.fixed_point_ok());
    Rng rng(seed);
    expect_kernels_match_heap(snap, rng, /*max_proc_ms=*/3000.0);
    // Each flood here sweeps several 2^16-bucket windows, so the pair
    // check samples sources to stay fast; every destination is checked.
    expect_point_to_point_matches_live(*world, nullptr, rng,
                                       /*max_proc_ms=*/3000.0,
                                       /*source_stride=*/7);
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto world = make_world(wide, 8700 + seed);
    const auto snap = OverlaySnapshot::capture(world->net);
    ASSERT_LT(snap.min_edge_ms(), 0.125);
    ASSERT_FALSE(snap.fixed_point_ok());
    ASSERT_GT(max_finite_distance(snap), 2 * 4096.0);
    Rng rng(seed);
    expect_kernels_match_heap(snap, rng);
    expect_point_to_point_matches_live(*world, nullptr, rng, 12.0,
                                       /*source_stride=*/7);
  }
}

TEST(FloodSnapshotTo, PointToPointMatchesLiveFullFloodBitForBit) {
  // The early stop returns a final value, so it must equal the live full
  // flood's entry byte for byte — with delays, a link filter applied at
  // capture, an inactive destination and full floods interleaved on the
  // same scratch (an early stop must leave the buckets drained).
  auto fx = UnstructuredFixture::make(50, 6003);
  fx.net.graph().deactivate_slot(11);
  std::vector<double> proc(fx.net.graph().slot_count(), 0.0);
  for (std::size_t s = 0; s < proc.size(); s += 3) proc[s] = 0.1 * s;
  const OverlayNetwork::LinkFilter drop = [](SlotId a, SlotId b) {
    return (a + 2 * b) % 5 != 0;
  };
  MeasureScratch scratch;
  for (const bool filtered : {false, true}) {
    const OverlayNetwork::LinkFilter* filter = filtered ? &drop : nullptr;
    const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net, filter);
    for (const SlotId src : {SlotId{0}, SlotId{9}, SlotId{30}}) {
      const auto full = fx.net.flood_latencies(src, &proc, filter);
      for (SlotId dst = 0; dst < full.size(); ++dst) {
        const double got = flood_snapshot_to(snap, src, dst, &proc, scratch);
        EXPECT_EQ(std::memcmp(&got, &full[dst], sizeof(double)), 0)
            << "src " << src << " dst " << dst << " filtered " << filtered;
      }
      flood_snapshot(snap, src, &proc, scratch);
      for (SlotId v = 0; v < full.size(); ++v) {
        EXPECT_EQ(scratch.distance(v), full[v]) << "src " << src;
      }
    }
    EXPECT_TRUE(std::isinf(flood_snapshot_to(snap, 0, 11, nullptr, scratch)));
  }
}

// ------------------------------------------------------- MeasureEngine ----

TEST(MeasureEngine, LookupLatenciesBitIdenticalAcrossThreadCounts) {
  auto fx = UnstructuredFixture::make(60, 7004);
  Rng rng(9);
  const auto queries = sample_query_pairs(fx.net.graph(), 400, rng);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  MeasureEngine serial(1);
  const auto want = serial.lookup_latencies(snap, queries);
  const double want_avg = serial.average_lookup_latency(snap, queries);
  for (const std::size_t t : {2, 4, 8}) {
    MeasureEngine engine(t);
    EXPECT_EQ(engine.thread_count(), t);
    EXPECT_EQ(engine.lookup_latencies(snap, queries), want);
    EXPECT_EQ(engine.average_lookup_latency(snap, queries), want_avg);
  }
}

TEST(MeasureEngine, MatchesHistoricalSerialHelpers) {
  auto fx = UnstructuredFixture::make(50, 7005);
  Rng rng(10);
  const auto queries = sample_query_pairs(fx.net.graph(), 250, rng);
  MeasureEngine engine(4);
  EXPECT_EQ(engine.lookup_latencies(OverlaySnapshot::capture(fx.net), queries),
            unstructured_lookup_latencies(fx.net, queries));
  EXPECT_EQ(engine.average_direct_latency(fx.net, queries),
            average_direct_latency(fx.net, queries));
}

TEST(MeasureEngine, StretchBitIdenticalOnChordRouter) {
  Rng rng(11);
  auto fx = UnstructuredFixture::make(40, 7006);
  const auto ring = ChordRing::build_random(40, ChordConfig{}, rng);
  const auto router = chord_router(fx.net, ring);
  const auto queries = sample_query_pairs(fx.net.graph(), 300, rng);
  MeasureEngine serial(1);
  MeasureEngine parallel(4);
  EXPECT_EQ(serial.route_latencies(queries, router),
            parallel.route_latencies(queries, router));
  EXPECT_EQ(serial.direct_latencies(fx.net, queries),
            parallel.direct_latencies(fx.net, queries));
  const StretchResult a = serial.stretch(fx.net, queries, router);
  const StretchResult b = parallel.stretch(fx.net, queries, router);
  EXPECT_EQ(a.logical_al, b.logical_al);
  EXPECT_EQ(a.physical_al, b.physical_al);
  EXPECT_EQ(a.stretch, b.stretch);
}

TEST(MeasureEngine, ScratchReusedAcrossChangingSnapshots) {
  auto fx = UnstructuredFixture::make(40, 7007);
  Rng rng(12);
  const auto queries = sample_query_pairs(fx.net.graph(), 200, rng);
  MeasureEngine reused(4);
  const OverlaySnapshot before = OverlaySnapshot::capture(fx.net);
  const auto r_before = reused.lookup_latencies(before, queries);

  // Rewire the overlay; the old snapshot must stay valid and the reused
  // engine must agree with a fresh one on both snapshots.
  LogicalGraph& g = fx.net.graph();
  const SlotId drop = g.neighbors(0).front();
  g.remove_edge(0, drop);
  SlotId add = 1;
  while (add == drop || g.has_edge(0, add)) ++add;
  g.add_edge(0, add);
  const OverlaySnapshot after = OverlaySnapshot::capture(fx.net);
  const auto r_after = reused.lookup_latencies(after, queries);

  MeasureEngine fresh(4);
  EXPECT_EQ(fresh.lookup_latencies(after, queries), r_after);
  EXPECT_EQ(fresh.lookup_latencies(before, queries), r_before);
}

TEST(MeasureEngine, FastModeBitIdenticalAcrossThreadCounts) {
  auto fx = UnstructuredFixture::make(60, 7023);
  Rng rng(14);
  const auto queries = sample_query_pairs(fx.net.graph(), 400, rng);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  MeasureEngine serial(1, MeasureMode::kFast);
  EXPECT_EQ(serial.mode(), MeasureMode::kFast);
  const auto want = serial.lookup_latencies(snap, queries);
  const double want_avg = serial.average_lookup_latency(snap, queries);
  for (const std::size_t t : {2, 4, 8}) {
    MeasureEngine engine(t, MeasureMode::kFast);
    EXPECT_EQ(engine.lookup_latencies(snap, queries), want);
    EXPECT_EQ(engine.average_lookup_latency(snap, queries), want_avg);
  }
  // The work counters track the kernel actually dispatched.
  EXPECT_GT(serial.stats().fast_floods, 0u);
  EXPECT_EQ(serial.stats().exact_floods, 0u);
  MeasureEngine exact(1);
  (void)exact.average_lookup_latency(snap, queries);
  EXPECT_GT(exact.stats().exact_floods, 0u);
  EXPECT_EQ(exact.stats().fast_floods, 0u);
}

TEST(MeasureEngine, FastAverageWithinBoundOfExact) {
  auto fx = UnstructuredFixture::make(60, 7024);
  Rng rng(15);
  const auto queries = sample_query_pairs(fx.net.graph(), 400, rng);
  const OverlaySnapshot snap = OverlaySnapshot::capture(fx.net);
  std::vector<double> proc(snap.slot_count(), 0.0);
  for (std::size_t s = 0; s < proc.size(); ++s) {
    proc[s] = 0.25 * static_cast<double>(s % 5) + 0.3;
  }
  MeasureEngine exact(1, MeasureMode::kExact);
  MeasureEngine fast(1, MeasureMode::kFast);
  const double e = exact.average_lookup_latency(snap, queries, &proc);
  const double f = fast.average_lookup_latency(snap, queries, &proc);
  ASSERT_TRUE(std::isfinite(e));
  EXPECT_NEAR(f, e, 1e-6 * e);
}

// ------------------------------------------------------ SnapshotCache ----

TEST(SnapshotCache, ReusesUntilVersionAdvances) {
  auto fx = UnstructuredFixture::make(30, 7025);
  std::size_t calls = 0;
  SnapshotCache cache([&] {
    ++calls;
    return OverlaySnapshot::capture(fx.net);
  });
  const OverlaySnapshot& a = cache.at(1);
  const OverlaySnapshot& b = cache.at(1);
  EXPECT_EQ(&a, &b);  // reuse is by reference, not a copy
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(cache.captures(), 1u);
  EXPECT_EQ(cache.reuses(), 1u);

  (void)cache.at(2);  // version moved: recapture
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(cache.captures(), 2u);
  EXPECT_EQ(cache.reuses(), 1u);

  cache.invalidate();  // same version no longer trusted
  (void)cache.at(2);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(cache.captures(), 3u);
  EXPECT_EQ(cache.reuses(), 1u);
}

// ------------------------------------------------ measure_threads key ----

ExperimentSpec must_parse(const std::string& text) {
  const SpecResult parsed = ExperimentSpec::from_config(Config::parse(text));
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return parsed.ok() ? parsed.spec() : ExperimentSpec{};
}

TEST(MeasureThreadsKey, DefaultsToSerial) {
  EXPECT_EQ(must_parse("").measure_threads, 1u);
}

TEST(MeasureThreadsKey, ParsesAutoAndCounts) {
  EXPECT_EQ(must_parse("measure_threads = auto\n").measure_threads,
            ExperimentSpec::kMeasureThreadsAuto);
  EXPECT_EQ(must_parse("measure_threads = 0\n").measure_threads, 0u);
  EXPECT_EQ(must_parse("measure_threads = 6\n").measure_threads, 6u);
}

TEST(MeasureThreadsKey, RejectsNegativeAndGarbage) {
  for (const char* bad : {"measure_threads = -2\n", "measure_threads = up\n"}) {
    const SpecResult parsed =
        ExperimentSpec::from_config(Config::parse(bad));
    EXPECT_FALSE(parsed.ok()) << bad;
  }
}

// ----------------------------------------------- measure_mode key ----

TEST(MeasureModeKey, DefaultsToAutoWhichResolvesToExact) {
  const ExperimentSpec spec = must_parse("");
  EXPECT_EQ(spec.measure_mode, ExperimentSpec::MeasureMode::kAuto);
  EXPECT_EQ(spec.resolved_measure_mode(),
            ExperimentSpec::MeasureMode::kExact);
}

TEST(MeasureModeKey, ParsesAutoExactAndFast) {
  EXPECT_EQ(must_parse("measure_mode = auto\n").measure_mode,
            ExperimentSpec::MeasureMode::kAuto);
  EXPECT_EQ(must_parse("measure_mode = exact\n").measure_mode,
            ExperimentSpec::MeasureMode::kExact);
  // Default overlay is gnutella, so fast is admissible without more.
  const ExperimentSpec fast = must_parse("measure_mode = fast\n");
  EXPECT_EQ(fast.measure_mode, ExperimentSpec::MeasureMode::kFast);
  EXPECT_EQ(fast.resolved_measure_mode(),
            ExperimentSpec::MeasureMode::kFast);
}

TEST(MeasureModeKey, UnknownValueListsTheValidOnes) {
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse("measure_mode = quick\n"));
  ASSERT_FALSE(parsed.ok());
  const std::string report = parsed.error_report();
  for (const char* valid : {"auto", "exact", "fast"}) {
    EXPECT_NE(report.find(valid), std::string::npos) << report;
  }
}

TEST(MeasureModeKey, MisspelledKeyGetsDidYouMeanHint) {
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse("measure_mod = fast\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_report().find("measure_mode"), std::string::npos)
      << parsed.error_report();
}

TEST(MeasureModeKey, FastRejectsStructuredOverlays) {
  const SpecResult parsed = ExperimentSpec::from_config(
      Config::parse("overlay = chord\nmeasure_mode = fast\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_report().find("requires overlay = gnutella"),
            std::string::npos)
      << parsed.error_report();
}

TEST(MeasureModeKey, ComposesWithEveryMeasureThreadsSetting) {
  for (const char* threads : {"0", "1", "4", "auto"}) {
    const std::string text =
        std::string("measure_mode = fast\nmeasure_threads = ") + threads +
        "\n";
    EXPECT_TRUE(ExperimentSpec::from_config(Config::parse(text)).ok())
        << text;
  }
}

// --------------------------------------------------- sim_shards key ----

TEST(SimShardsKey, DefaultsToSerial) {
  EXPECT_EQ(must_parse("").sim_shards, 1u);
  EXPECT_DOUBLE_EQ(must_parse("").shard_window_s, 0.25);
}

TEST(SimShardsKey, ParsesAutoCountsAndWindow) {
  EXPECT_EQ(must_parse("sim_shards = auto\n").sim_shards,
            ExperimentSpec::kSimShardsAuto);
  EXPECT_EQ(must_parse("sim_shards = 0\n").sim_shards, 0u);
  EXPECT_EQ(must_parse("sim_shards = 8\n").sim_shards, 8u);
  EXPECT_DOUBLE_EQ(
      must_parse("sim_shards = 4\nshard_window = 0.5\n").shard_window_s,
      0.5);
}

TEST(SimShardsKey, RejectsBadValuesAndCombinations) {
  for (const char* bad : {
           "sim_shards = -2\n",                    // negative
           "sim_shards = up\n",                    // garbage
           "sim_shards = 65\n",                    // above kMaxShards
           "sim_shards = 4\nshard_window = 0\n",   // non-positive window
           "shard_window = 0.5\n",                 // window without shards
           "sim_shards = 1\nshard_window = 0.5\n",  // window on serial core
           "sim_shards = 4\ntopology = waxman\n",  // needs stub domains
           "sim_shards = auto\nmeasure_threads = auto\n",  // both auto
       }) {
    EXPECT_FALSE(ExperimentSpec::from_config(Config::parse(bad)).ok()) << bad;
  }
}

TEST(SimShardsKey, MisspelledKeyGetsDidYouMeanHint) {
  const SpecResult parsed =
      ExperimentSpec::from_config(Config::parse("sim_shard = 4\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_report().find("sim_shards"), std::string::npos)
      << parsed.error_report();
}

// ---------------------------------------------- sim_speculative key ----

TEST(SimSpeculativeKey, ParsesAndDefaultsToOff) {
  EXPECT_EQ(must_parse("").sim_speculative, ExperimentSpec::Speculative::kOff);
  EXPECT_EQ(must_parse("sim_speculative = off\n").sim_speculative,
            ExperimentSpec::Speculative::kOff);
  EXPECT_EQ(must_parse("sim_speculative = on\n").sim_speculative,
            ExperimentSpec::Speculative::kOn);
  EXPECT_EQ(must_parse("sim_speculative = auto\n").sim_speculative,
            ExperimentSpec::Speculative::kAuto);
  // `on` with the serial core is legal: it resolves to plain serial
  // execution, so sweeping shard counts never needs config surgery.
  EXPECT_TRUE(ExperimentSpec::from_config(
                  Config::parse("sim_speculative = on\n"))
                  .ok());
}

TEST(SimSpeculativeKey, RejectsBadValues) {
  for (const char* bad : {"sim_speculative = yes\n", "sim_speculative = 2\n",
                          "sim_speculative = fast\n"}) {
    EXPECT_FALSE(ExperimentSpec::from_config(Config::parse(bad)).ok()) << bad;
  }
}

// ----------------------------------------------- sim_local_ticks key ----

TEST(SimLocalTicksKey, ParsesValidatesAndNeedsStubDomains) {
  EXPECT_DOUBLE_EQ(must_parse("").local_tick_period_s, 0.0);
  EXPECT_DOUBLE_EQ(must_parse("sim_local_ticks = 2.5\n").local_tick_period_s,
                   2.5);
  EXPECT_FALSE(ExperimentSpec::from_config(
                   Config::parse("sim_local_ticks = -1\n"))
                   .ok());
  // Ticks run per stub domain, so a domain-free topology cannot host
  // them.
  EXPECT_FALSE(ExperimentSpec::from_config(Config::parse(
                                               "topology = waxman\n"
                                               "sim_local_ticks = 2\n"))
                   .ok());
}

// ------------------------------------------------- golden result JSON ----

std::string golden_json(const std::string& base, const std::string& threads) {
  Config config = Config::parse(base);
  config.set("measure_threads", threads);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  const ExperimentSpec& spec = parsed.spec();
  ExperimentResult result = run_experiment(spec);
  // Phase wall-clock timers are the schema's only nondeterministic
  // fields; everything else must match byte-for-byte.
  result.trace.warmup_wall_ms = 0.0;
  result.trace.maintenance_wall_ms = 0.0;
  return experiment_result_json(spec, result).dump(2);
}

TEST(MeasureGolden, Fig5LikeResultJsonIdenticalAcrossThreadCounts) {
  // configs/fig5_like.conf downscaled to test time.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nnhops = 2\n";
  const std::string serial = golden_json(base, "1");
  EXPECT_EQ(serial, golden_json(base, "4"));
  EXPECT_EQ(serial, golden_json(base, "8"));
}

TEST(MeasureGolden, FaultedResultJsonIdenticalAcrossThreadCounts) {
  // Faults exercise the capture-time LinkFilter path: during the
  // partition window the sampled metric may even be +infinity (dumped
  // as null), and it must be the same null at every thread count.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-o\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nmodel_message_delays = true\n"
      "fault_loss = 0.05\nfault_jitter = 0.2\nfault_crash = 0.02\n"
      "fault_partition_domain = auto\n"
      "fault_partition_start = 300\nfault_partition_end = 600\n";
  const std::string serial = golden_json(base, "1");
  EXPECT_EQ(serial, golden_json(base, "4"));
  EXPECT_EQ(serial, golden_json(base, "8"));
}

// --------------------------------- golden result JSON, sharded core ----

std::string golden_json_shards(const std::string& base,
                               const std::string& shards,
                               const std::string& window = "") {
  Config config = Config::parse(base);
  config.set("sim_shards", shards);
  if (!window.empty()) config.set("shard_window", window);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  const ExperimentSpec& spec = parsed.spec();
  ExperimentResult result = run_experiment(spec);
  result.trace.warmup_wall_ms = 0.0;
  result.trace.maintenance_wall_ms = 0.0;
  return experiment_result_json(spec, result).dump(2);
}

TEST(SchedulerGolden, Fig5LikeResultJsonIdenticalAcrossShardCounts) {
  // configs/fig5_like.conf downscaled to test time; the acceptance bar
  // for the sharded event core is byte-identity at 1/2/4/8 shards.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nnhops = 2\n";
  const std::string serial = golden_json_shards(base, "1");
  EXPECT_EQ(serial, golden_json_shards(base, "2"));
  EXPECT_EQ(serial, golden_json_shards(base, "4"));
  EXPECT_EQ(serial, golden_json_shards(base, "8"));
  // The lock-step window width is equally invisible in the result.
  EXPECT_EQ(serial, golden_json_shards(base, "4", "0.05"));
  EXPECT_EQ(serial, golden_json_shards(base, "4", "30"));
}

TEST(SchedulerGolden, FaultedResultJsonIdenticalAcrossShardCounts) {
  // Crashes, partitions, retries and churn repair all cross shard
  // boundaries; the faulted golden is the hard case for handoff.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-o\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nmodel_message_delays = true\n"
      "fault_loss = 0.05\nfault_jitter = 0.2\nfault_crash = 0.02\n"
      "fault_partition_domain = auto\n"
      "fault_partition_start = 300\nfault_partition_end = 600\n";
  const std::string serial = golden_json_shards(base, "1");
  EXPECT_EQ(serial, golden_json_shards(base, "2"));
  EXPECT_EQ(serial, golden_json_shards(base, "4"));
  EXPECT_EQ(serial, golden_json_shards(base, "8"));
}

// --------------------------- golden result JSON, speculative core ----

struct SpeculativeRun {
  ExperimentResult result;
  std::string json;
};

SpeculativeRun run_speculative(const std::string& base,
                               const std::string& shards,
                               const std::string& speculative) {
  Config config = Config::parse(base);
  config.set("sim_shards", shards);
  config.set("sim_speculative", speculative);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  const ExperimentSpec& spec = parsed.spec();
  SpeculativeRun run{run_experiment(spec), ""};
  ExperimentResult stripped = run.result;
  stripped.trace.warmup_wall_ms = 0.0;
  stripped.trace.maintenance_wall_ms = 0.0;
  // sim.speculation is the one deliberately shard-count-dependent
  // stanza in the schema — it reports scheduler internals — so the
  // byte-identity bar applies to everything else.
  stripped.speculation_active = false;
  run.json = experiment_result_json(spec, stripped).dump(2);
  return run;
}

TEST(SpeculationGolden, PureGlobalWorkloadIdenticalAndNeverConflicts) {
  // configs/fig5_like.conf downscaled: every event is global, so an
  // armed speculative core must stand aside — zero speculated events,
  // zero conflicts — while staying byte-identical to serial.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nnhops = 2\n";
  const SpeculativeRun off = run_speculative(base, "1", "off");
  for (const char* shards : {"2", "4", "8"}) {
    const SpeculativeRun on = run_speculative(base, shards, "auto");
    EXPECT_EQ(off.json, on.json) << shards;
    EXPECT_TRUE(on.result.speculation_active) << shards;
    EXPECT_EQ(on.result.speculation_speculated, 0u) << shards;
    EXPECT_EQ(on.result.speculation_conflicts, 0u) << shards;
    EXPECT_DOUBLE_EQ(on.result.speculation_conflict_rate, 0.0) << shards;
  }
}

TEST(SpeculationGolden, LocalTickWorkloadIdenticalAndExercisesReplay) {
  // Mixing shard-local maintenance ticks with global prop traffic
  // forces both speculation (tick prefixes below the cutoff) and
  // conflict replay (ticks above it), all under the byte-identity bar.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nnhops = 2\nsim_local_ticks = 2\n";
  const SpeculativeRun off = run_speculative(base, "1", "off");
  EXPECT_GT(off.result.local_ticks, 0u);
  std::uint64_t total_speculated = 0;
  std::uint64_t total_replayed = 0;
  for (const char* shards : {"2", "4", "8"}) {
    const SpeculativeRun on = run_speculative(base, shards, "on");
    EXPECT_EQ(off.json, on.json) << shards;
    EXPECT_TRUE(on.result.speculation_active) << shards;
    EXPECT_EQ(on.result.local_ticks, off.result.local_ticks) << shards;
    EXPECT_EQ(on.result.local_tick_digest, off.result.local_tick_digest)
        << shards;
    total_speculated += on.result.speculation_speculated;
    total_replayed += on.result.speculation_replayed;
  }
  EXPECT_GT(total_speculated, 0u);
  EXPECT_GT(total_replayed, 0u);
  // `on` at one shard is legal and resolves to plain serial execution:
  // no stanza, no divergence.
  const SpeculativeRun on1 = run_speculative(base, "1", "on");
  EXPECT_EQ(off.json, on1.json);
  EXPECT_FALSE(on1.result.speculation_active);
}

TEST(SpeculationGolden, FaultedWorkloadIdenticalWithSpeculationOn) {
  // Crashes, partitions and retries all cross shard boundaries; the
  // faulted golden is the hard case for the commit-order replay.
  const std::string base =
      "topology = ts-large\noverlay = gnutella\nprotocol = prop-o\n"
      "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
      "queries = 2500\nmodel_message_delays = true\n"
      "fault_loss = 0.05\nfault_jitter = 0.2\nfault_crash = 0.02\n"
      "fault_partition_domain = auto\n"
      "fault_partition_start = 300\nfault_partition_end = 600\n"
      "sim_local_ticks = 2\n";
  const SpeculativeRun off = run_speculative(base, "1", "off");
  const SpeculativeRun on = run_speculative(base, "4", "on");
  EXPECT_EQ(off.json, on.json);
  EXPECT_TRUE(on.result.speculation_active);
}

// ------------------------------------ fast-mode experiment equivalence ----

const char kFastFig5Base[] =
    "topology = ts-large\noverlay = gnutella\nprotocol = prop-g\n"
    "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
    "queries = 2500\nnhops = 2\n";

const char kFastFaultedBase[] =
    "topology = ts-large\noverlay = gnutella\nprotocol = prop-o\n"
    "nodes = 300\nhorizon = 900\nsample_interval = 100\n"
    "queries = 2500\nmodel_message_delays = true\n"
    "fault_loss = 0.05\nfault_jitter = 0.2\nfault_crash = 0.02\n"
    "fault_partition_domain = auto\n"
    "fault_partition_start = 300\nfault_partition_end = 600\n";

ExperimentResult run_with_mode(const std::string& base, const char* mode,
                               const char* threads = "1") {
  Config config = Config::parse(base);
  config.set("measure_mode", mode);
  config.set("measure_threads", threads);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  EXPECT_TRUE(parsed.ok()) << parsed.error_report();
  return run_experiment(parsed.spec());
}

/// Asserts `fast` tracks `exact` within the documented 1e-6 relative
/// bound at every sample (infinities must agree exactly).
void expect_series_within_bound(const TimeSeries& exact,
                                const TimeSeries& fast) {
  ASSERT_EQ(exact.points().size(), fast.points().size());
  for (std::size_t i = 0; i < exact.points().size(); ++i) {
    const double e = exact.points()[i].value;
    const double f = fast.points()[i].value;
    EXPECT_EQ(exact.points()[i].time, fast.points()[i].time);
    if (std::isinf(e) || std::isinf(f)) {
      EXPECT_EQ(e, f) << "sample " << i;
      continue;
    }
    EXPECT_NEAR(f, e, 1e-6 * std::max(std::fabs(e), 1.0)) << "sample " << i;
  }
}

TEST(MeasureFastGolden, Fig5LikeSeriesWithinBoundOfExact) {
  const ExperimentResult exact = run_with_mode(kFastFig5Base, "exact");
  const ExperimentResult fast = run_with_mode(kFastFig5Base, "fast");
  expect_series_within_bound(exact.series, fast.series);
  EXPECT_GT(exact.measure_exact_floods, 0u);
  EXPECT_EQ(exact.measure_fast_floods, 0u);
  EXPECT_GT(fast.measure_fast_floods, 0u);
  EXPECT_EQ(fast.measure_exact_floods, 0u);
  // Same tick schedule on both sides => same flood demand.
  EXPECT_EQ(exact.measure_exact_floods, fast.measure_fast_floods);
}

TEST(MeasureFastGolden, FaultedSeriesWithinBoundOfExact) {
  const ExperimentResult exact = run_with_mode(kFastFaultedBase, "exact");
  const ExperimentResult fast = run_with_mode(kFastFaultedBase, "fast");
  expect_series_within_bound(exact.series, fast.series);
}

TEST(MeasureFastGolden, ResultJsonIdenticalAcrossThreadCounts) {
  // The fast kernel's distances are exact over the quantized weights,
  // so fast mode inherits the full thread-count byte-identity contract
  // on both the fig5-like and the faulted configs.
  for (const char* base : {kFastFig5Base, kFastFaultedBase}) {
    const std::string with_mode =
        std::string(base) + "measure_mode = fast\n";
    const std::string serial = golden_json(with_mode, "1");
    EXPECT_EQ(serial, golden_json(with_mode, "2"));
    EXPECT_EQ(serial, golden_json(with_mode, "4"));
    EXPECT_EQ(serial, golden_json(with_mode, "8"));
  }
}

// -------------------------------------- counters v5 / measure stanza ----

TEST(MeasureCounters, V5ExposesKernelAndSnapshotCounters) {
  EXPECT_EQ(ExperimentResult::kCountersVersion, 7);
  const ExperimentResult result = run_with_mode(kFastFig5Base, "exact");
  // Every sampler tick asked the cache for a snapshot: the capture /
  // reuse split depends on the trace build mode, but the total is the
  // tick count either way.
  EXPECT_EQ(result.measure_snapshot_captures + result.measure_snapshot_reuses,
            result.series.points().size());
  EXPECT_GT(result.measure_snapshot_captures, 0u);

  Config config = Config::parse(kFastFig5Base);
  const SpecResult parsed = ExperimentSpec::from_config(config);
  ASSERT_TRUE(parsed.ok());
  const Json json = experiment_result_json(parsed.spec(), result);
  const Json* counters = json.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"measure_exact_floods", "measure_fast_floods",
        "measure_snapshot_captures", "measure_snapshot_reuses"}) {
    EXPECT_NE(counters->find(name), nullptr) << name;
  }
  const Json* measure = json.find("measure");
  ASSERT_NE(measure, nullptr);
  ASSERT_NE(measure->find("mode"), nullptr);
  EXPECT_EQ(measure->find("mode")->as_string(), "exact");
  const Json* spec_json = json.find("spec");
  ASSERT_NE(spec_json, nullptr);
  ASSERT_NE(spec_json->find("measure_mode"), nullptr);
  EXPECT_EQ(spec_json->find("measure_mode")->as_string(), "exact");
}

}  // namespace
}  // namespace propsim
