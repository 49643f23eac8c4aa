#include "measure/measure_engine.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <numeric>
#include <thread>
#include <type_traits>

namespace propsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Bucket width bounds, as power-of-two exponents of a millisecond. The
// floor keeps the bucket count sane when edges are tiny or zero (those
// snapshots take the fixpoint drain); the ceiling only keeps the width
// finite for edgeless snapshots.
constexpr int kMinWidthExpMs = -4;  // 62.5 us
constexpr int kMaxWidthExpMs = 40;
// Buckets held at once past the current base; later entries wait in the
// overflow list (at 1 ms buckets the window spans 65 s of latency).
constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 16;
// Caps the scaled distance below 2^63 so the integer conversion is
// defined; capping is monotone, so it cannot reorder buckets.
constexpr double kMaxScaled = 0x1p62;

/// One Dial flood over the snapshot's `Cost` edge weights (double ms or
/// uint32 fx), distances in units of `unit_ms`; the argument for its
/// exactness is in measure_engine.h. With `stop` set, returns once the
/// bucket holding stop's current entry has drained (its distance is then
/// final), after emptying the buckets still filled.
template <typename Cost>
void dial_flood(const OverlaySnapshot& snap, SlotId source,
                const std::vector<Cost>* proc, double min_edge,
                double unit_ms, MeasureScratch& scratch,
                SlotId stop = kInvalidSlot) {
  PROPSIM_CHECK(snap.is_active(source));
  if (proc != nullptr) PROPSIM_CHECK(proc->size() == snap.slot_count());
  scratch.begin(snap.slot_count(), unit_ms);
  auto& dist = scratch.dist;
  auto& buckets = scratch.buckets;  // all empty: previous run drained them
  auto& overflow = scratch.overflow;

  // Width 2^k <= min_edge (see the header), clamped in ms then expressed
  // in distance units. ilogb maps 0 below and +inf above the clamp.
  const int unit_exp = std::ilogb(unit_ms);
  const int k = std::clamp(std::ilogb(min_edge), kMinWidthExpMs - unit_exp,
                           kMaxWidthExpMs - unit_exp);
  const double inv_width = std::ldexp(1.0, -k);
  auto index_of = [&](double d) {
    return static_cast<std::uint64_t>(std::min(d * inv_width, kMaxScaled));
  };
  std::uint64_t base = 0;  // bucket index held by buckets[0]
  std::size_t top = 0;     // highest bucket filled since the last rebase
  // Files (v, d) into the bucket window; false when it lies past it.
  auto file = [&](SlotId v, double d) {
    const std::uint64_t rel = index_of(d) - base;
    if (rel >= kMaxBuckets) return false;
    const auto b = static_cast<std::size_t>(rel);
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back({v, d});
    top = std::max(top, b);
    return true;
  };
  auto push = [&](SlotId v, double d) {
    if (!file(v, d)) overflow.push_back({v, d});
  };

  dist[source] = 0.0;
  push(source, 0.0);
  for (std::size_t b = 0;; ++b) {
    if (b > top) {
      // Window drained: move it to the nearest current overflow entry,
      // dropping stale ones, or stop when none is left.
      std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
      for (const auto& e : overflow) {
        if (e.dist == dist[e.slot]) next = std::min(next, index_of(e.dist));
      }
      if (next == std::numeric_limits<std::uint64_t>::max()) {
        overflow.clear();
        break;
      }
      base = next;
      top = 0;
      b = 0;
      std::size_t kept = 0;
      for (const auto& e : overflow) {
        if (e.dist == dist[e.slot] && !file(e.slot, e.dist)) {
          overflow[kept++] = e;
        }
      }
      overflow.resize(kept);
    }
    // Index loop, re-reading buckets[b] each access: relaxations may
    // append to this bucket mid-drain, and push() can reallocate the
    // outer bucket array, so no reference survives an expansion.
    for (std::size_t i = 0; i < buckets[b].size(); ++i) {
      const auto [u, du] = buckets[b][i];
      if (du != dist[u]) continue;  // stale: improved since queued
      const auto targets = snap.targets(u);
      const auto costs = [&] {
        if constexpr (std::is_same_v<Cost, double>) {
          return snap.latencies(u);
        } else {
          return snap.latencies_fx(u);
        }
      }();
      for (std::size_t e = 0; e < targets.size(); ++e) {
        const SlotId v = targets[e];
        // Same arithmetic, same order as the live flood: costs[e] is the
        // identical slot_latency(u, v) double, precomputed at capture
        // (or its fixed-point weight, exact as a double).
        double cost = static_cast<double>(costs[e]);
        if (proc != nullptr) cost += static_cast<double>((*proc)[v]);
        const double candidate = du + cost;
        if (!(candidate < kInf)) continue;  // unreachable stays +inf
        if (candidate < dist[v]) {
          dist[v] = candidate;
          push(v, candidate);
        }
      }
    }
    buckets[b].clear();
    if (stop != kInvalidSlot && dist[stop] < kInf &&
        index_of(dist[stop]) <= base + b) {
      // Every bucket up to b has drained and no relaxation lands below
      // the open bucket, so dist[stop] is final.
      for (std::size_t r = b + 1; r <= top; ++r) buckets[r].clear();
      overflow.clear();
      return;
    }
  }
}
}  // namespace

const char* to_string(MeasureMode mode) {
  switch (mode) {
    case MeasureMode::kExact: return "exact";
    case MeasureMode::kFast: return "fast";
  }
  return "?";
}

void MeasureScratch::begin(std::size_t n, double unit) {
  // Bucket capacity is shaped by path lengths, not slot count; keep it.
  dist.assign(n, kInf);
  unit_ms = unit;
}

double MeasureScratch::distance(SlotId v) const {
  PROPSIM_DCHECK(v < dist.size());
  return dist[v] * unit_ms;
}

void flood_snapshot(const OverlaySnapshot& snap, SlotId source,
                    const std::vector<double>* processing_delay_ms,
                    MeasureScratch& scratch) {
  dial_flood(snap, source, processing_delay_ms, snap.min_edge_ms(), 1.0,
             scratch);
}

double flood_snapshot_to(const OverlaySnapshot& snap, SlotId source,
                         SlotId dst,
                         const std::vector<double>* processing_delay_ms,
                         MeasureScratch& scratch) {
  PROPSIM_CHECK(dst < snap.slot_count());
  dial_flood(snap, source, processing_delay_ms, snap.min_edge_ms(), 1.0,
             scratch, dst);
  return scratch.distance(dst);
}

void flood_snapshot_fast(
    const OverlaySnapshot& snap, SlotId source,
    const std::vector<std::uint32_t>* processing_delay_fx,
    MeasureScratch& scratch) {
  PROPSIM_CHECK(snap.fixed_point_ok());
  dial_flood(snap, source, processing_delay_fx,
             static_cast<double>(snap.min_edge_fx()),
             1.0 / OverlaySnapshot::kFxPerMs, scratch);
}

MeasureEngine::MeasureEngine(std::size_t threads, MeasureMode mode)
    : mode_(mode) {
  if (threads == kAutoThreads) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  threads_ = std::max<std::size_t>(threads, 1);
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  scratch_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    scratch_.push_back(std::make_unique<MeasureScratch>());
  }
}

void MeasureEngine::for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t chunks = std::min(threads_, count);
  auto bounds = [&](std::size_t c) {
    return std::pair{c * count / chunks, (c + 1) * count / chunks};
  };
  if (pool_ == nullptr || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = bounds(c);
      body(c, begin, end);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [begin, end] = bounds(c);
    futures.push_back(pool_->submit([&body, c, begin, end] {
      body(c, begin, end);
    }));
  }
  for (auto& f : futures) f.get();  // rethrows the first worker failure
}

void MeasureEngine::run_lookup(const OverlaySnapshot& snap,
                               std::span<const QueryPair> queries,
                               const std::vector<double>* processing_delay_ms,
                               std::vector<double>& out) {
  // One flood per distinct source: order query indices by source,
  // then chunk the contiguous same-source runs across the workers. Each
  // worker writes only out[idx] for its own runs' indices. order_ and
  // runs_ are member buffers so a steady-state sweep reallocates
  // nothing.
  order_.resize(queries.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (queries[a].src != queries[b].src) {
                return queries[a].src < queries[b].src;
              }
              return a < b;
            });
  runs_.clear();
  for (std::size_t i = 0; i < order_.size();) {
    std::size_t j = i + 1;
    while (j < order_.size() &&
           queries[order_[j]].src == queries[order_[i]].src) {
      ++j;
    }
    runs_.push_back(Run{i, j});
    i = j;
  }

  // Kernel choice is a pure function of mode and snapshot: the fast
  // kernel needs every edge (and processing delay) inside the 32-bit
  // fixed-point range, and falls back to exact otherwise.
  bool use_fast = mode_ == MeasureMode::kFast && snap.fixed_point_ok();
  const std::vector<std::uint32_t>* proc_fx = nullptr;
  if (use_fast && processing_delay_ms != nullptr) {
    proc_fx_.resize(processing_delay_ms->size());
    for (std::size_t i = 0; i < processing_delay_ms->size(); ++i) {
      const std::uint64_t fx =
          OverlaySnapshot::quantize_ms((*processing_delay_ms)[i]);
      if (fx > OverlaySnapshot::kFxMaxEdge) {
        use_fast = false;
        break;
      }
      proc_fx_[i] = static_cast<std::uint32_t>(fx);
    }
    if (use_fast) proc_fx = &proc_fx_;
  }
  if (use_fast) {
    stats_.fast_floods += runs_.size();
  } else {
    stats_.exact_floods += runs_.size();
  }

  out.assign(queries.size(), 0.0);
  for_chunks(runs_.size(), [&](std::size_t chunk, std::size_t begin,
                               std::size_t end) {
    MeasureScratch& scratch = *scratch_[chunk];
    for (std::size_t r = begin; r < end; ++r) {
      const Run& run = runs_[r];
      const SlotId src = queries[order_[run.begin]].src;
      if (use_fast) {
        flood_snapshot_fast(snap, src, proc_fx, scratch);
      } else {
        flood_snapshot(snap, src, processing_delay_ms, scratch);
      }
      for (std::size_t k = run.begin; k < run.end; ++k) {
        out[order_[k]] = scratch.distance(queries[order_[k]].dst);
      }
    }
  });
}

std::vector<double> MeasureEngine::lookup_latencies(
    const OverlaySnapshot& snap, std::span<const QueryPair> queries,
    const std::vector<double>* processing_delay_ms) {
  std::vector<double> out;
  run_lookup(snap, queries, processing_delay_ms, out);
  return out;
}

double MeasureEngine::average_lookup_latency(
    const OverlaySnapshot& snap, std::span<const QueryPair> queries,
    const std::vector<double>* processing_delay_ms) {
  PROPSIM_CHECK(!queries.empty());
  run_lookup(snap, queries, processing_delay_ms, avg_out_);
  double sum = 0.0;
  for (const double v : avg_out_) sum += v;
  return sum / static_cast<double>(avg_out_.size());
}

std::vector<double> MeasureEngine::route_latencies(
    std::span<const QueryPair> queries, const RouteLatencyFn& fn) {
  std::vector<double> out(queries.size(), 0.0);
  for_chunks(queries.size(), [&](std::size_t /*chunk*/, std::size_t begin,
                                 std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(queries[i]);
  });
  return out;
}

double MeasureEngine::average_route_latency(
    std::span<const QueryPair> queries, const RouteLatencyFn& fn) {
  PROPSIM_CHECK(!queries.empty());
  const auto lat = route_latencies(queries, fn);
  double sum = 0.0;
  for (const double v : lat) sum += v;
  return sum / static_cast<double>(lat.size());
}

std::vector<double> MeasureEngine::direct_latencies(
    const OverlayNetwork& net, std::span<const QueryPair> queries) {
  std::vector<double> out(queries.size(), 0.0);
  for_chunks(queries.size(), [&](std::size_t /*chunk*/, std::size_t begin,
                                 std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = net.slot_latency(queries[i].src, queries[i].dst);
    }
  });
  return out;
}

double MeasureEngine::average_direct_latency(
    const OverlayNetwork& net, std::span<const QueryPair> queries) {
  PROPSIM_CHECK(!queries.empty());
  const auto lat = direct_latencies(net, queries);
  double sum = 0.0;
  for (const double v : lat) sum += v;
  return sum / static_cast<double>(lat.size());
}

StretchResult MeasureEngine::stretch(const OverlayNetwork& net,
                                     std::span<const QueryPair> queries,
                                     const RouteLatencyFn& fn) {
  StretchResult r;
  r.logical_al = average_route_latency(queries, fn);
  r.physical_al = average_direct_latency(net, queries);
  PROPSIM_CHECK(r.physical_al > 0.0);
  r.stretch = r.logical_al / r.physical_al;
  return r;
}

}  // namespace propsim
