// Cancellable discrete-event queue.
//
// An event is a tag — (owner, kind, payload) — due at a time. Events are
// ordered by (time, insertion sequence), and firing one calls
// owner->OnEvent(kind, payload): each component's OnEvent switch is its
// only dispatch code, and the same tag is what a checkpoint saves.
//
// The queue is a calendar queue: a ring of power-of-two-width time buckets
// (the time-to-bucket mapping is a shift, never a 64-bit division), each
// bucket a doubly-linked list kept (time, seq)-sorted, with 64-byte nodes
// recycled through a chunked freelist arena. Insert and pop are O(1)
// amortized, cancellation really unlinks the entry in O(1), and the steady
// state after warm-up performs no allocations at all (the perf suite
// asserts this, bench/perf_suite). tests/determinism_test.cc checks the
// order against a std::multiset oracle keyed on (time, seq).

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/time.h"

namespace rtvirt {

struct EventNode;

// A component that schedules events. The queue never owns an owner: every
// owner outlives the events it has pending.
class EventOwner {
 public:
  virtual void OnEvent(uint32_t kind, uint64_t payload) = 0;

 protected:
  ~EventOwner() = default;
};

// The event itself: whose it is, and a component-private (kind, payload)
// pair saying what to do. A checkpointable owner's tag is also the event's
// checkpoint identity (src/checkpoint).
struct EventTag {
  EventOwner* owner = nullptr;
  uint32_t kind = 0;
  uint64_t payload = 0;
};

// Operation and allocation counters, cheap enough to maintain always. The
// perf recorder reads these to assert the zero-alloc steady state.
struct EventQueueStats {
  uint64_t schedules = 0;
  uint64_t cancels = 0;
  uint64_t pops = 0;
  // Arena chunk growths; zero growth after warm-up.
  uint64_t node_allocs = 0;
  uint64_t calendar_resizes = 0;
  uint64_t free_nodes = 0;

  static constexpr std::array kFields = {
      &EventQueueStats::schedules, &EventQueueStats::cancels, &EventQueueStats::pops,
      &EventQueueStats::node_allocs, &EventQueueStats::calendar_resizes,
      &EventQueueStats::free_nodes
  };
};

class EventQueue {
 public:
  // Identifies a scheduled event for cancellation. Default-constructed ids
  // are inert, and ids of events that already fired (or were cancelled, or
  // whose node was since recycled) cancel as a no-op: an id carries a
  // generation stamp checked against the node.
  class EventId {
   public:
    EventId() = default;
    bool valid() const { return node_ != nullptr; }

   private:
    friend class EventQueue;
    EventNode* node_ = nullptr;
    uint64_t gen_ = 0;  // The node's generation at schedule time.
  };

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventId Schedule(TimeNs when, const EventTag& tag);

  // Cancels the event if it has not fired yet; resets `id` to inert.
  void Cancel(EventId& id);

  // Checkpoint support: snapshot of one pending event.
  struct LiveEvent {
    TimeNs time;
    uint64_t seq;
    EventTag tag;
  };
  // Appends every pending event (in seq order, which also fixes same-time
  // firing order) to `out`.
  void CollectLive(std::vector<LiveEvent>* out) const;
  // Drops every pending event. Nodes return to the arena with their
  // generation bumped, so EventIds held by components cancel as no-ops.
  void Clear();

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Time of the earliest pending event; kTimeNever when empty.
  TimeNs NextTime() const;

  // Removes the earliest pending event and returns it; its node is already
  // free. Precondition: !empty().
  struct Fired {
    TimeNs time;
    EventTag tag;
  };
  Fired PopNext();

  const EventQueueStats& stats() const;

 private:
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  // Arena: nodes come from chunked blocks and recycle through a freelist,
  // so a warmed-up queue never touches the allocator again.
  EventNode* AllocNode();
  void FreeNode(EventNode* n);

  size_t BucketIndex(TimeNs time) const;
  void BucketInsert(EventNode* n);
  void BucketUnlink(EventNode* n);
  // Locates (and caches) the earliest node, advancing the search front.
  EventNode* FindMin() const;
  void ResizeCalendar(size_t new_buckets);
  void MaybeResize();
  int TuneWidthShift(std::vector<EventNode*>& nodes) const;

  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  mutable EventQueueStats stats_;

  // Bucket widths are powers of two so the hot-path time-to-bucket mapping
  // is a shift, never a 64-bit division. `pos_abs_` is the absolute bucket
  // number (time >> width_shift_) the search front sits at; it advances on
  // pops and is pulled back by an insert that lands behind it, so the scan
  // never misses an event.
  std::vector<Bucket> buckets_;
  int width_shift_ = 0;
  mutable int64_t pos_abs_ = 0;
  mutable EventNode* cached_min_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  EventNode* free_head_ = nullptr;
  size_t free_count_ = 0;
};

struct EventNode {
  TimeNs time = 0;
  uint64_t seq = 0;
  // Bumped whenever the node fires, is cancelled, or is recycled — a stale
  // EventId's generation no longer matches, making its Cancel() a no-op.
  uint64_t gen = 0;
  EventTag tag;
  EventNode* prev = nullptr;
  EventNode* next = nullptr;  // Bucket list link, doubles as freelist link.
};
static_assert(sizeof(EventNode) == 64, "an event node is one cache line");

}  // namespace rtvirt

#endif  // SRC_SIM_EVENT_QUEUE_H_
