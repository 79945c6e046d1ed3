// McNaughton wrap-around layout used by DP-WRAP (Levin et al., DP-FAIR).
//
// Given per-item allocations within a global slice of length L and m
// processors, the allocations are laid end-to-end on a line of length m*L and
// cut every L: chunk k becomes processor k's schedule. An item straddling a
// cut is split across two processors; because each allocation is at most L,
// its two pieces never overlap in wall-clock time, and at most m-1 items are
// split — DP-WRAP's bound on migrations per global slice.

#ifndef SRC_RTVIRT_WRAP_LAYOUT_H_
#define SRC_RTVIRT_WRAP_LAYOUT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/time.h"

namespace rtvirt {

struct WrapItem {
  int id = 0;          // Caller-defined identity (e.g., VCPU index).
  TimeNs alloc = 0;    // Allocation within the slice; 0 <= alloc <= slice_len.
};

struct WrapSegment {
  int item_id = 0;
  int pcpu = 0;
  TimeNs start = 0;  // Offset within the slice, [0, slice_len).
  TimeNs end = 0;    // Offset within the slice, (start, slice_len].

  bool operator==(const WrapSegment&) const = default;
};

// Caller-owned storage for WrapAround. The caller sizes `fill` to one entry
// per chunk and writes each chunk's occupied prefix there; the call lays out
// from it and overwrites all three vectors, so one instance reused across
// calls keeps its capacity and a steady-state layout allocates nothing.
struct WrapBuffers {
  std::vector<WrapSegment> segments;  // The result.
  std::vector<TimeNs> fill;           // Per-chunk fill level: occupied prefix in, end state out.
  std::vector<WrapItem> leftovers;    // Deferred remainders (working state).
};

// Lays `items` out over one chunk of `slice_len` per entry of `speed_ppb`,
// chunk k starting after its occupied prefix `buf.fill[k]` (e.g., pinned
// allocations), into `buf.segments`. Allocations are in *effective*
// (full-speed-equivalent) ns; chunk k runs at speed_ppb[k] (Bandwidth::kUnit
// = full speed, <= 0 = offline). Segments are wall-clock offsets within the
// slice: E effective ns on a chunk at speed s occupy ceil(E/s) wall ns there.
// Items with zero allocation produce no segments. Precondition: each
// allocation <= slice_len, and their sum <= the chunks' effective free space.
//
// With every chunk at kUnit and nothing pre-occupied this is McNaughton's
// layout, and the property tests enforce its guarantees:
//   * per item, the segment lengths sum to its allocation;
//   * per processor, segments are disjoint and within [0, slice_len];
//   * a split item's two segments do not overlap in wall-clock time;
//   * at most pcpus - 1 items are split.
// Occupied prefixes keep the sums exact and the segments disjoint within
// [fill[k], slice_len]; straddles that would self-overlap move on.
//
// With throttled or offline chunks, per-chunk floor rounding may strand < 1
// effective ns per chunk visit, which the caller's epsilon slack absorbs.
// The straddle-safety and at-most-m-1-splits properties degrade to
// best-effort here: an item wider than any surviving chunk's effective
// capacity must overlap itself in wall-clock time, and the dispatcher
// serializes such pieces at runtime (bounded lag, nothing dropped).
void WrapAround(std::span<const WrapItem> items, TimeNs slice_len,
                std::span<const int64_t> speed_ppb, WrapBuffers& buf);

}  // namespace rtvirt

#endif  // SRC_RTVIRT_WRAP_LAYOUT_H_
