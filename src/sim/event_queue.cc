#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/common/check.h"

namespace rtvirt {

namespace {

// Calendar sizing. The ring targets roughly one live entry per bucket:
// sorted in-bucket lists keep pops O(1) from the head even when entries
// cluster, and scanning an empty bucket costs one 16-byte header load from
// an array that is small enough to stay cache-warm. The ring doubles when
// occupancy exceeds 2 and halves (with wide hysteresis, so it cannot
// oscillate) when it drops below 1/8. Bucket width is retuned at each
// resize from the spacing of the earliest events, Brown-style, but rounded
// to a power of two so the time-to-bucket mapping stays a shift.
constexpr size_t kMinBuckets = 64;       // Power of two.
constexpr size_t kMaxBuckets = size_t{1} << 18;  // 256k buckets ~ 4 MB headers.
constexpr int kInitialWidthShift = 17;   // 2^17 ns ~ 131 us buckets.
constexpr int kMinWidthShift = 6;        // 2^6 ns: no point going finer.
constexpr int kMaxWidthShift = 30;       // 2^30 ns ~ 1.07 s buckets.
constexpr size_t kChunkNodes = 256;      // Arena nodes carved per growth.
constexpr size_t kWidthSample = 64;      // Earliest events sampled on retune.

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

bool NodeBefore(TimeNs at, uint64_t as, TimeNs bt, uint64_t bs) {
  if (at != bt) {
    return at < bt;
  }
  return as < bs;
}

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets), width_shift_(kInitialWidthShift) {}

EventQueue::~EventQueue() = default;

EventNode* EventQueue::AllocNode() {
  if (free_head_ == nullptr) {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    ++stats_.node_allocs;
    EventNode* chunk = chunks_.back().get();
    for (size_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = free_head_;
      free_head_ = &chunk[i];
    }
    free_count_ += kChunkNodes;
  }
  EventNode* n = free_head_;
  free_head_ = n->next;
  --free_count_;
  n->prev = nullptr;
  n->next = nullptr;
  return n;
}

void EventQueue::FreeNode(EventNode* n) {
  ++n->gen;  // Invalidate every EventId still pointing here.
  n->prev = nullptr;
  n->next = free_head_;
  free_head_ = n;
  ++free_count_;
}

size_t EventQueue::BucketIndex(TimeNs time) const {
  return static_cast<size_t>(static_cast<uint64_t>(time) >> width_shift_) &
         (buckets_.size() - 1);
}

void EventQueue::BucketInsert(EventNode* n) {
  Bucket& b = buckets_[BucketIndex(n->time)];
  // Walk backwards from the tail: timers overwhelmingly land at or near the
  // end of their bucket's sorted list.
  EventNode* at = b.tail;
  while (at != nullptr && NodeBefore(n->time, n->seq, at->time, at->seq)) {
    at = at->prev;
  }
  n->prev = at;
  if (at == nullptr) {
    n->next = b.head;
    if (b.head != nullptr) {
      b.head->prev = n;
    } else {
      b.tail = n;
    }
    b.head = n;
  } else {
    n->next = at->next;
    if (at->next != nullptr) {
      at->next->prev = n;
    } else {
      b.tail = n;
    }
    at->next = n;
  }
}

void EventQueue::BucketUnlink(EventNode* n) {
  Bucket& b = buckets_[BucketIndex(n->time)];
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    b.head = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    b.tail = n->prev;
  }
  n->prev = nullptr;
  n->next = nullptr;
}

EventNode* EventQueue::FindMin() const {
  if (cached_min_ != nullptr) {
    return cached_min_;
  }
  const size_t nb = buckets_.size();
  const size_t mask = nb - 1;
  int64_t abs = pos_abs_;
  for (size_t scanned = 0; scanned < nb; ++scanned, ++abs) {
    EventNode* head = buckets_[static_cast<size_t>(abs) & mask].head;
    if (head != nullptr &&
        static_cast<int64_t>(static_cast<uint64_t>(head->time) >>
                             width_shift_) == abs) {
      // Sorted bucket: the head is its minimum, and every other pending
      // event maps to a strictly later absolute bucket, so this is the
      // global minimum.
      pos_abs_ = abs;
      cached_min_ = head;
      return head;
    }
  }
  // A full fruitless lap: everything pending is more than one ring
  // revolution ahead. Direct-scan the bucket heads for the global minimum
  // instead of walking the gap bucket by bucket.
  EventNode* best = nullptr;
  for (const Bucket& b : buckets_) {
    EventNode* head = b.head;
    if (head != nullptr &&
        (best == nullptr ||
         NodeBefore(head->time, head->seq, best->time, best->seq))) {
      best = head;
    }
  }
  RTVIRT_CHECK(best != nullptr,
               "calendar scan found no live entry (live count %llu)",
               static_cast<unsigned long long>(live_count_));
  pos_abs_ = static_cast<int64_t>(static_cast<uint64_t>(best->time) >>
                                  width_shift_);
  cached_min_ = best;
  return best;
}

int EventQueue::TuneWidthShift(std::vector<EventNode*>& nodes) const {
  if (nodes.size() < 2) {
    return width_shift_;
  }
  // The spacing of the earliest events decides the width; they are the ones
  // the search front is about to walk through.
  size_t sample = std::min(nodes.size(), kWidthSample);
  std::partial_sort(nodes.begin(), nodes.begin() + sample, nodes.end(),
                    [](const EventNode* a, const EventNode* b) {
                      return NodeBefore(a->time, a->seq, b->time, b->seq);
                    });
  uint64_t span = static_cast<uint64_t>(nodes[sample - 1]->time) -
                  static_cast<uint64_t>(nodes[0]->time);
  uint64_t gap = span / (sample - 1);
  // Bucket width ~ 4x the mean gap keeps in-bucket lists a handful of
  // entries long while the front rarely crosses an empty bucket.
  uint64_t width = gap * 4;
  int shift = kMinWidthShift;
  while (shift < kMaxWidthShift && (uint64_t{1} << shift) < width) {
    ++shift;
  }
  return shift;
}

void EventQueue::ResizeCalendar(size_t new_buckets) {
  std::vector<EventNode*> nodes;
  nodes.reserve(live_count_);
  for (Bucket& b : buckets_) {
    for (EventNode* n = b.head; n != nullptr; n = n->next) {
      nodes.push_back(n);
    }
    b.head = nullptr;
    b.tail = nullptr;
  }
  width_shift_ = TuneWidthShift(nodes);
  buckets_.assign(new_buckets, Bucket{});
  // Reinsert in (time, seq) order: every insert appends at its bucket tail,
  // so the rebuild is linear after the sort.
  std::sort(nodes.begin(), nodes.end(),
            [](const EventNode* a, const EventNode* b) {
              return NodeBefore(a->time, a->seq, b->time, b->seq);
            });
  for (EventNode* n : nodes) {
    n->prev = nullptr;
    n->next = nullptr;
    BucketInsert(n);
  }
  cached_min_ = nodes.empty() ? nullptr : nodes.front();
  pos_abs_ = nodes.empty() ? 0
                           : static_cast<int64_t>(
                                 static_cast<uint64_t>(nodes.front()->time) >>
                                 width_shift_);
  ++stats_.calendar_resizes;
}

void EventQueue::MaybeResize() {
  const size_t nb = buckets_.size();
  if (live_count_ > nb && nb < kMaxBuckets) {
    ResizeCalendar(
        std::min(kMaxBuckets, std::max(RoundUpPow2(live_count_), 2 * nb)));
  } else if (nb > kMinBuckets && live_count_ * 8 < nb) {
    ResizeCalendar(std::max(kMinBuckets, nb / 2));
  }
}

EventQueue::EventId EventQueue::Schedule(TimeNs when, const EventTag& tag) {
  ++stats_.schedules;
  EventNode* n = AllocNode();
  n->time = when;
  n->seq = next_seq_++;
  n->tag = tag;
  BucketInsert(n);
  ++live_count_;
  int64_t abs = static_cast<int64_t>(static_cast<uint64_t>(when) >> width_shift_);
  if (abs < pos_abs_) {
    pos_abs_ = abs;  // Landed behind the front: pull the scan back.
  }
  if (cached_min_ != nullptr &&
      NodeBefore(n->time, n->seq, cached_min_->time, cached_min_->seq)) {
    cached_min_ = n;
  }
  EventId id;
  id.node_ = n;
  id.gen_ = n->gen;
  MaybeResize();
  return id;
}

void EventQueue::Cancel(EventId& id) {
  EventNode* n = id.node_;
  if (n == nullptr || n->gen != id.gen_) {
    id = EventId{};
    return;  // Already fired, cancelled, or the node was recycled.
  }
  RTVIRT_CHECK(live_count_ > 0,
               "event-queue live count underflow on cancel (seq counter at %llu)",
               static_cast<unsigned long long>(next_seq_));
  if (n == cached_min_) {
    cached_min_ = nullptr;
  }
  BucketUnlink(n);
  FreeNode(n);
  --live_count_;
  ++stats_.cancels;
  id = EventId{};
  MaybeResize();
}

TimeNs EventQueue::NextTime() const {
  return live_count_ == 0 ? kTimeNever : FindMin()->time;
}

EventQueue::Fired EventQueue::PopNext() {
  RTVIRT_CHECK(live_count_ > 0, "PopNext on an empty event queue (live count %llu)",
               static_cast<unsigned long long>(live_count_));
  ++stats_.pops;
  EventNode* n = FindMin();
  // Successor cache: the next node in this sorted bucket is the global
  // minimum whenever it still maps to the same absolute bucket (every other
  // pending event maps to a strictly later one). Prefetch it — the next pop
  // touches it first.
  EventNode* succ = n->next;
  if (succ != nullptr && (static_cast<uint64_t>(succ->time) >> width_shift_) ==
                             (static_cast<uint64_t>(n->time) >> width_shift_)) {
    __builtin_prefetch(succ);
    cached_min_ = succ;
  } else {
    cached_min_ = nullptr;
  }
  Fired fired{n->time, n->tag};
  BucketUnlink(n);
  FreeNode(n);
  --live_count_;
  MaybeResize();
  return fired;
}

void EventQueue::CollectLive(std::vector<LiveEvent>* out) const {
  size_t base = out->size();
  for (const Bucket& b : buckets_) {
    for (EventNode* n = b.head; n != nullptr; n = n->next) {
      out->push_back(LiveEvent{n->time, n->seq, n->tag});
    }
  }
  std::sort(out->begin() + base, out->end(),
            [](const LiveEvent& a, const LiveEvent& b) { return a.seq < b.seq; });
}

void EventQueue::Clear() {
  for (Bucket& b : buckets_) {
    EventNode* n = b.head;
    while (n != nullptr) {
      EventNode* next = n->next;
      FreeNode(n);  // Bumps gen: stale EventIds cancel as no-ops.
      n = next;
    }
    b.head = nullptr;
    b.tail = nullptr;
  }
  cached_min_ = nullptr;
  pos_abs_ = 0;
  live_count_ = 0;
}

const EventQueueStats& EventQueue::stats() const {
  stats_.free_nodes = free_count_;
  return stats_;
}

}  // namespace rtvirt
