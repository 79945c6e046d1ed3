#include "src/rtvirt/wrap_layout.h"

#include <algorithm>
#include <cassert>

#include "src/common/bandwidth.h"

namespace rtvirt {

std::vector<WrapSegment> WrapAround(std::span<const WrapItem> items, TimeNs slice_len,
                                    int pcpus) {
  assert(slice_len > 0 && pcpus > 0);
  std::vector<WrapSegment> segments;
  segments.reserve(items.size() + pcpus);

  TimeNs cursor = 0;  // Position on the unrolled line of length pcpus * slice_len.
  for (const WrapItem& item : items) {
    assert(item.alloc >= 0 && item.alloc <= slice_len);
    TimeNs remaining = item.alloc;
    while (remaining > 0) {
      int chunk = static_cast<int>(cursor / slice_len);
      assert(chunk < pcpus && "allocations exceed pcpus * slice_len");
      TimeNs offset = cursor % slice_len;
      TimeNs piece = std::min(remaining, slice_len - offset);
      segments.push_back(WrapSegment{item.id, chunk, offset, offset + piece});
      cursor += piece;
      remaining -= piece;
    }
  }
  return segments;
}

void WrapAroundFrom(std::span<const WrapItem> items, TimeNs slice_len,
                    std::span<const TimeNs> occupied, WrapBuffers& buf) {
  assert(slice_len > 0);
  int pcpus = static_cast<int>(occupied.size());
  std::vector<TimeNs>& fill = buf.fill;
  std::vector<WrapSegment>& segments = buf.segments;
  std::vector<WrapItem>& leftovers = buf.leftovers;
  fill.assign(occupied.begin(), occupied.end());
  segments.clear();
  leftovers.clear();

  // First pass: wrap greedily, refusing straddles whose two pieces would
  // overlap in wall-clock time (the item would run on two PCPUs at once).
  int chunk = 0;
  for (const WrapItem& item : items) {
    TimeNs remaining = item.alloc;
    while (remaining > 0) {
      if (chunk >= pcpus) {
        // Fragmentation from skipped straddles: defer to the second pass.
        leftovers.push_back(WrapItem{item.id, remaining});
        break;
      }
      TimeNs free_here = slice_len - fill[chunk];
      if (free_here <= 0) {
        ++chunk;
        continue;
      }
      TimeNs piece = std::min(remaining, free_here);
      if (piece < remaining && chunk + 1 < pcpus) {
        // Straddling: the second piece [occupied, occupied+rest) on the next
        // chunk must end before this piece starts, or the item would overlap
        // itself in wall-clock time. If unsafe, start the whole item on the
        // next chunk instead (trading a little fragmentation for the
        // no-parallel-self guarantee).
        TimeNs rest = remaining - piece;
        if (fill[chunk + 1] + rest > fill[chunk]) {
          ++chunk;
          continue;
        }
      }
      segments.push_back(WrapSegment{item.id, chunk, fill[chunk], fill[chunk] + piece});
      fill[chunk] += piece;
      remaining -= piece;
      if (fill[chunk] == slice_len) {
        ++chunk;
      }
    }
  }
  // Second pass (rare: heavy affinity pinning at near-full utilization):
  // place what is left into any remaining gaps, even if a piece overlaps a
  // sibling piece in time — the dispatcher serializes such pieces at
  // runtime, so this degrades (bounded) rather than drops the allocation.
  for (const WrapItem& left : leftovers) {
    TimeNs remaining = left.alloc;
    for (int k = 0; k < pcpus && remaining > 0; ++k) {
      TimeNs free_here = slice_len - fill[k];
      if (free_here <= 0) {
        continue;
      }
      TimeNs piece = std::min(remaining, free_here);
      segments.push_back(WrapSegment{left.id, k, fill[k], fill[k] + piece});
      fill[k] += piece;
      remaining -= piece;
    }
    assert(remaining == 0 && "allocations exceed the free space");
  }
}

void WrapAroundDegraded(std::span<const WrapItem> items, TimeNs slice_len,
                        std::span<const TimeNs> occupied, std::span<const int64_t> speed_ppb,
                        WrapBuffers& buf) {
  assert(slice_len > 0);
  assert(occupied.size() == speed_ppb.size());
  int pcpus = static_cast<int>(occupied.size());
  std::vector<TimeNs>& fill = buf.fill;
  std::vector<WrapSegment>& segments = buf.segments;
  std::vector<WrapItem>& leftovers = buf.leftovers;  // Allocations in effective ns.
  fill.assign(occupied.begin(), occupied.end());
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

  // First pass mirrors WrapAroundFrom, walking in effective ns and emitting
  // in wall ns; straddles whose wall-clock pieces would overlap are deferred.
  int chunk = 0;
  for (const WrapItem& item : items) {
    TimeNs remaining = item.alloc;
    while (remaining > 0) {
      if (chunk >= pcpus) {
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
        // Straddle safety in wall-clock terms: the continuation on the next
        // chunk must end before this piece starts. Best-effort — the rest is
        // measured against only the next chunk, as in WrapAroundFrom.
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
  // Second pass: place leftovers into any remaining gaps, tolerating
  // wall-clock self-overlap (the dispatcher serializes). Unlike the
  // homogeneous variant nothing is asserted away to zero: per-chunk floor
  // rounding can strand < 1 effective ns per visit, which the planner's
  // admission epsilon covers.
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
    assert(remaining <= 2 * static_cast<TimeNs>(pcpus) + 2 &&
           "stranded allocation beyond rounding slack");
  }
}

}  // namespace rtvirt
