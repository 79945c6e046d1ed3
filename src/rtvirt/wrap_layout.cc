#include "src/rtvirt/wrap_layout.h"

#include <algorithm>
#include <cassert>

#include "src/common/bandwidth.h"

namespace rtvirt {

void WrapAround(std::span<const WrapItem> items, TimeNs slice_len,
                std::span<const int64_t> speed_ppb, WrapBuffers& buf) {
  assert(slice_len > 0);
  assert(buf.fill.size() == speed_ppb.size());
  int pcpus = static_cast<int>(speed_ppb.size());
  std::vector<TimeNs>& fill = buf.fill;
  std::vector<WrapSegment>& segments = buf.segments;
  std::vector<WrapItem>& leftovers = buf.leftovers;  // Allocations in effective ns.
  segments.clear();
  leftovers.clear();

  // Effective capacity left on chunk k, floored: flooring under-counts by
  // < 1 effective ns, so a piece sized from it always fits back in wall time
  // (ceil(E * kUnit / s) <= free wall whenever E <= floor(free wall * s / kUnit)).
  auto eff_free = [&](int k) -> TimeNs {
    if (speed_ppb[k] <= 0 || fill[k] >= slice_len) {
      return 0;
    }
    return SpeedWallToWork(slice_len - fill[k], speed_ppb[k]);
  };

  // First pass: wrap greedily, walking in effective ns and emitting in wall
  // ns, and refuse straddles whose two pieces would overlap in wall-clock
  // time (the item would run on two PCPUs at once).
  int chunk = 0;
  for (const WrapItem& item : items) {
    TimeNs remaining = item.alloc;
    while (remaining > 0) {
      if (chunk >= pcpus) {
        // Fragmentation from skipped straddles: defer to the second pass.
        leftovers.push_back(WrapItem{item.id, remaining});
        break;
      }
      TimeNs free_here = eff_free(chunk);
      if (free_here <= 0) {
        ++chunk;
        continue;
      }
      TimeNs piece = std::min(remaining, free_here);
      TimeNs wall_piece = SpeedWorkToWall(piece, speed_ppb[chunk]);
      if (piece < remaining && chunk + 1 < pcpus) {
        // Straddling: the continuation on the next chunk must end before this
        // piece starts. If unsafe, start the whole item on the next chunk
        // instead (trading a little fragmentation for the no-parallel-self
        // guarantee). Best-effort under mixed speeds: the rest is measured
        // against only the next chunk.
        TimeNs rest_eff = std::min(remaining - piece, eff_free(chunk + 1));
        TimeNs rest_wall = speed_ppb[chunk + 1] > 0
                               ? SpeedWorkToWall(rest_eff, speed_ppb[chunk + 1])
                               : 0;
        if (fill[chunk + 1] + rest_wall > fill[chunk]) {
          ++chunk;
          continue;
        }
      }
      segments.push_back(WrapSegment{item.id, chunk, fill[chunk], fill[chunk] + wall_piece});
      fill[chunk] += wall_piece;
      remaining -= piece;
      if (eff_free(chunk) == 0) {
        ++chunk;
      }
    }
  }
  // Second pass (rare: heavy affinity pinning at near-full utilization, or
  // lost cores): place what is left into any remaining gaps, even if a piece
  // overlaps a sibling piece in time — the dispatcher serializes such pieces
  // at runtime, so this degrades (bounded) rather than drops the allocation.
  for (const WrapItem& left : leftovers) {
    TimeNs remaining = left.alloc;
    for (int k = 0; k < pcpus && remaining > 0; ++k) {
      TimeNs free_here = eff_free(k);
      if (free_here <= 0) {
        continue;
      }
      TimeNs piece = std::min(remaining, free_here);
      TimeNs wall_piece = SpeedWorkToWall(piece, speed_ppb[k]);
      segments.push_back(WrapSegment{left.id, k, fill[k], fill[k] + wall_piece});
      fill[k] += wall_piece;
      remaining -= piece;
    }
    // At full speed nothing rounds, so nothing may be stranded. Otherwise
    // per-chunk floor rounding can strand < 1 effective ns per visit, which
    // the planner's admission epsilon covers.
    assert((remaining == 0 || !std::all_of(speed_ppb.begin(), speed_ppb.end(),
                                           [](int64_t s) { return s == Bandwidth::kUnit; })) &&
           "allocations exceed the free space");
    assert(remaining <= 2 * static_cast<TimeNs>(pcpus) + 2 &&
           "stranded allocation beyond rounding slack");
  }
}

}  // namespace rtvirt
