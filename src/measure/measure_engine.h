// Parallel, deterministic measurement engine.
//
// Fans the per-source shortest-latency floods (and per-query routed
// lookups) of a metric sweep out over a ThreadPool. Determinism
// contract: results are bit-identical to the serial path regardless of
// thread count, because
//   - each worker writes only its own disjoint, preallocated slots of
//     the output array (no shared accumulators, no result reordering),
//   - every flood distance is a pure function of the snapshot (see the
//     kernel argument below), and
//   - averages are reduced serially in query-index order after the
//     parallel map completes.
// Worker scratch (distance array, buckets) is allocated once per worker
// and reused across sources and across snapshots. Each flood refills the
// distance array with +infinity, O(V): a sweep flood touches every
// reachable slot anyway, so per-slot validity stamps would only add a
// load and a branch to every relaxation. Every flood drains its buckets
// empty.
//
// One flood kernel, a Dial bucket queue templated on the edge weight,
// serves both measure modes:
//   - kExact: the snapshot's double latencies, producing the same
//     doubles as a binary-heap Dijkstra over the live overlay
//     (OverlayNetwork::flood_latencies);
//   - kFast: the snapshot's 32-bit fixed-point latencies
//     (OverlaySnapshot::kFxFracBits fractional bits), exact shortest
//     paths over the quantized weights; they differ from kExact only by
//     quantization (relative error <= 1e-6 on paper-scale latencies;
//     see docs/PERF.md).
//
// Why the bucket queue returns exactly the heap's doubles. A node's
// distance is `du + cost` with `cost = lat[e] (+ proc[v])`, the same
// operations in the same order as the live flood. Extending a path is
// monotone in the prefix (fl(x + c) is non-decreasing in x) and never
// shortens it (c >= 0, so fl(x + c) >= x). For such a path algebra every
// label-correcting method that stops at a fixpoint — Dijkstra in any tie
// order included — ends at the same value for every node: the minimum,
// over paths, of the left-folded fl sum. The kernel is such a method:
// bucket index floor(d * 2^-k) is exact scaling plus truncation, hence
// monotone, so a relaxation from bucket b never lands below b; each
// bucket is drained until no entry in it is current, and an entry is
// current only while its distance equals the node's (improved nodes
// are re-pushed, their old entries skipped). Fixed-point weights are
// carried as integer-valued doubles below 2^53, where every sum is
// exact, so that instantiation computes the integer shortest paths.
//
// Why it is also fast. The bucket width W = 2^k is the largest power
// of two <= the snapshot's minimum edge cost (OverlaySnapshot::
// min_edge_ms / min_edge_fx), clamped to [2^-4 ms, 2^40 ms]. For u in
// bucket b and c >= W, du + c >= (b + 1)W and (b + 1)W is
// representable, so round-to-nearest keeps fl(du + c) >= (b + 1)W:
// nothing lands back in the open bucket, and every node settles on its
// first current pop (classic Dial). When no such W exists — zero-cost
// edges, or edges under the clamp — relaxations do land in the open
// bucket and the drain above simply reaches its fixpoint later. Entries
// more than 2^16 buckets past the current base wait in an overflow
// list, so memory stays bounded whatever the spread of distances.
// Non-finite candidates are never pushed; unreached slots read
// +infinity.
//
// Point-to-point queries (flood_snapshot_to) run the same kernel and stop
// early, once the bucket holding the destination's current entry has
// fully drained. By the monotonicity above no relaxation from that bucket
// or a later one lands at or below its index, so the destination's
// distance can no longer move: the early answer is the full flood's
// entry bit for bit. The rule waits for the whole bucket, not for the
// destination's pop, because in the fixpoint drain (zero-cost or
// sub-clamp edges) a later entry of the same bucket may still lower it.
// The remaining buckets and the overflow list are cleared before
// returning, so the scratch is left drained like after a full flood.
//
// Why a snapshot flood equals a flood of the live overlay. capture()
// copies each slot's neighbor list in live iteration order with the
// identical slot_latency double per edge, and drops exactly the edges
// the link filter rejects; the relaxation then computes du + lat (+ proc)
// as the live flood does. The live heap flood is itself a label-
// correcting method over the same path algebra, so by the argument above
// both reach the same fixpoint. A snapshot is therefore interchangeable
// with the live overlay for as long as nothing the capture read has
// changed: the graph, the slot->host binding and the filter's state.
// The experiment keys its caches on a topology version that every such
// change bumps (snapshot_cache.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "measure/overlay_snapshot.h"
#include "measure/query.h"

namespace propsim {

/// Flood-kernel selection for MeasureEngine (the `measure_mode` spec
/// key, with `auto` already resolved).
enum class MeasureMode { kExact, kFast };

const char* to_string(MeasureMode mode);

/// Reusable per-worker flood state, shared by both kernels. begin()
/// resets every distance to +infinity; the bucket vectors are drained
/// empty by every flood, so their capacity is what persists across
/// sweeps.
struct MeasureScratch {
  /// A queued slot and the distance it was queued with; the entry is
  /// stale once the slot's distance has improved past it.
  struct Entry {
    SlotId slot;
    double dist;
  };

  std::vector<double> dist;  // in units of unit_ms, +inf if unreached
  double unit_ms = 1.0;  // 1 after flood_snapshot, 2^-20 after _fast
  std::vector<std::vector<Entry>> buckets;
  std::vector<Entry> overflow;  // entries past the bucket window

  /// Sizes for a snapshot of `n` slots, sets every distance to
  /// +infinity and records the distance unit.
  void begin(std::size_t n, double unit);

  /// Distance from the last flood's source to v in ms (+inf if
  /// unreached). Exact conversion: the unit is a power of two.
  double distance(SlotId v) const;
};

/// Single-source shortest latency over a snapshot, bit-identical to
/// OverlayNetwork::flood_latencies over the live overlay (with the same
/// link filter applied at capture). Processing delays, when given, must
/// be non-negative. Results land in `scratch`; read them through
/// scratch.distance().
void flood_snapshot(const OverlaySnapshot& snap, SlotId source,
                    const std::vector<double>* processing_delay_ms,
                    MeasureScratch& scratch);

/// Shortest latency from `source` to `dst` alone, over the same kernel
/// as flood_snapshot (+infinity when `dst` is unreachable or inactive;
/// 0 when dst == source). Bit-identical to flood_snapshot's distance of
/// `dst` and to OverlayNetwork::flood_latencies(source, ...)[dst] on the
/// captured overlay; the flood stops early (see the header comment).
/// Afterwards scratch.distance() of other slots is partial, but the
/// scratch is drained and ready for any next flood.
double flood_snapshot_to(const OverlaySnapshot& snap, SlotId source,
                         SlotId dst,
                         const std::vector<double>* processing_delay_ms,
                         MeasureScratch& scratch);

/// Fast fixed-point flood. Requires snap.fixed_point_ok();
/// `processing_delay_fx`, when given, holds per-slot delays already
/// quantized with OverlaySnapshot::quantize_ms. Distances are exact
/// shortest paths over the quantized weights, so the result is a pure
/// function of the snapshot — independent of thread count and of any
/// state left by previous runs.
void flood_snapshot_fast(const OverlaySnapshot& snap, SlotId source,
                         const std::vector<std::uint32_t>* processing_delay_fx,
                         MeasureScratch& scratch);

/// Deterministic work counters for one engine's lifetime: floods are
/// counted per distinct source per sweep (before the parallel fan-out),
/// so values are invariant across thread counts.
struct MeasureStats {
  std::uint64_t exact_floods = 0;
  std::uint64_t fast_floods = 0;
};

class MeasureEngine {
 public:
  /// Sentinel for "one worker per hardware thread".
  static constexpr std::size_t kAutoThreads = static_cast<std::size_t>(-1);

  /// 0 and 1 both mean serial (no pool, no worker threads); kAutoThreads
  /// resolves to std::thread::hardware_concurrency(). `mode` selects the
  /// flood kernel; kFast silently falls back to the exact kernel for a
  /// snapshot whose edges do not fit the fixed-point range (the fallback
  /// is a property of the snapshot, so it is deterministic too).
  explicit MeasureEngine(std::size_t threads = 1,
                         MeasureMode mode = MeasureMode::kExact);

  /// Resolved worker count (>= 1).
  std::size_t thread_count() const { return threads_; }

  MeasureMode mode() const { return mode_; }

  /// Flood counts since construction.
  const MeasureStats& stats() const { return stats_; }

  /// Flood first-response latency of each query (queries grouped by
  /// source, one flood per distinct source, sources chunked over the
  /// workers). Mirrors metrics' unstructured_lookup_latencies.
  std::vector<double> lookup_latencies(
      const OverlaySnapshot& snap, std::span<const QueryPair> queries,
      const std::vector<double>* processing_delay_ms = nullptr);

  /// Mean of lookup_latencies, reduced in query-index order. Unlike
  /// lookup_latencies this reuses a member result buffer, so a
  /// steady-state sweep allocates nothing.
  double average_lookup_latency(
      const OverlaySnapshot& snap, std::span<const QueryPair> queries,
      const std::vector<double>* processing_delay_ms = nullptr);

  /// fn(query) for each query, chunked over the workers. `fn` must be
  /// safe to call concurrently (see RouteLatencyFn).
  std::vector<double> route_latencies(std::span<const QueryPair> queries,
                                      const RouteLatencyFn& fn);

  /// Mean of route_latencies, reduced in query-index order.
  double average_route_latency(std::span<const QueryPair> queries,
                               const RouteLatencyFn& fn);

  /// Direct (physical shortest-path) latency of each query under the
  /// overlay's current placement.
  std::vector<double> direct_latencies(const OverlayNetwork& net,
                                       std::span<const QueryPair> queries);

  /// Mean of direct_latencies, reduced in query-index order.
  double average_direct_latency(const OverlayNetwork& net,
                                std::span<const QueryPair> queries);

  /// Routed vs direct latency with the given router (paper stretch).
  StretchResult stretch(const OverlayNetwork& net,
                        std::span<const QueryPair> queries,
                        const RouteLatencyFn& fn);

 private:
  struct Run {
    std::size_t begin;
    std::size_t end;  // half-open range into order_
  };

  /// Runs body(chunk, begin, end) over `count` items split into at most
  /// thread_count() contiguous chunks; serial engines run inline.
  void for_chunks(std::size_t count,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& body);

  /// Shared implementation of the lookup sweeps: groups queries by
  /// source into the reusable order_/runs_ buffers, picks the kernel,
  /// and writes per-query latencies into `out` (resized to fit).
  void run_lookup(const OverlaySnapshot& snap,
                  std::span<const QueryPair> queries,
                  const std::vector<double>* processing_delay_ms,
                  std::vector<double>& out);

  std::size_t threads_;
  MeasureMode mode_;
  MeasureStats stats_;
  std::unique_ptr<ThreadPool> pool_;  // null when serial
  std::vector<std::unique_ptr<MeasureScratch>> scratch_;  // one per chunk
  // Sweep-shaped buffers reused across calls (the engine is not
  // re-entrant; callers already serialize sweeps).
  std::vector<std::size_t> order_;
  std::vector<Run> runs_;
  std::vector<double> avg_out_;
  std::vector<std::uint32_t> proc_fx_;
};

}  // namespace propsim
