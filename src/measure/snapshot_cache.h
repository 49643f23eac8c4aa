// Version-keyed OverlaySnapshot reuse across convergence ticks.
//
// Capturing a snapshot is O(V + E) per sample; when the overlay did not
// change between two ticks the capture would produce a byte-identical
// snapshot, so the sweep can reuse the previous one. "Did not change"
// is decided by the caller-supplied version number — the experiment
// derives it from the mutation counters of everything a capture reads
// (LogicalGraph edge and activation changes, Placement binds, unbinds
// and swaps, partition windows opened or healed), which every build
// keeps and which only ever grow, so an unchanged version proves the
// overlay unchanged since the last capture. Reuse is therefore pure
// caching: it can never change a result, only skip redundant work.
//
// The experiment keeps two caches on that version: one for the metric
// sweeps at sample ticks and one for the event-driven Gnutella lookups,
// which reuse a snapshot for every lookup between two topology changes.
#pragma once

#include <cstdint>
#include <functional>

#include "measure/overlay_snapshot.h"

namespace propsim {

class SnapshotCache {
 public:
  using CaptureFn = std::function<OverlaySnapshot()>;

  explicit SnapshotCache(CaptureFn capture);

  /// The snapshot for `version`: recaptured when the version differs
  /// from the previous call's (or on first use), reused otherwise. The
  /// reference stays valid until the next at() or invalidate().
  const OverlaySnapshot& at(std::uint64_t version);

  /// Drops the cached snapshot; the next at() recaptures regardless of
  /// version.
  void invalidate() { have_ = false; }

  std::uint64_t captures() const { return captures_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  CaptureFn capture_;
  OverlaySnapshot snap_;
  std::uint64_t version_ = 0;
  bool have_ = false;
  std::uint64_t captures_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace propsim
