// Discrete-event simulator clock and run loop.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim_config.h"

namespace rtvirt {

class Simulator {
 public:
  using EventId = EventQueue::EventId;

  // SimConfig is empty; see src/sim/sim_config.h.
  explicit Simulator(SimConfig = {}) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules `tag` to fire at absolute time `when` (must be >= Now()):
  // tag.owner->OnEvent(tag.kind, tag.payload) runs then.
  EventId At(TimeNs when, const EventTag& tag);

  // Schedules `tag` to fire `delay` ns from now.
  EventId After(TimeNs delay, const EventTag& tag) { return At(now_ + delay, tag); }

  void Cancel(EventId& id) { queue_.Cancel(id); }

  // Runs events until the queue is empty or the clock would pass `end`;
  // leaves the clock at min(end, time of last event).
  void RunUntil(TimeNs end);

  // Runs until the queue is empty.
  void RunAll();

  uint64_t events_processed() const { return events_processed_; }
  bool idle() const { return queue_.empty(); }
  // Operation/allocation counters of the underlying event queue.
  const EventQueueStats& queue_stats() const { return queue_.stats(); }

  // Checkpoint support (src/checkpoint). CollectLiveEvents snapshots every
  // pending event's (time, seq, tag); ClearEventsForRestore drops them all
  // so a restored image can re-insert its saved events; RestoreClock moves
  // the clock without running anything.
  void CollectLiveEvents(std::vector<EventQueue::LiveEvent>* out) const {
    queue_.CollectLive(out);
  }
  void ClearEventsForRestore() { queue_.Clear(); }
  void RestoreClock(TimeNs now, uint64_t events_processed) {
    now_ = now;
    events_processed_ = events_processed;
  }

 private:
  // Pops the earliest pending event and dispatches it to its owner.
  void FireNext();

  TimeNs now_ = 0;
  EventQueue queue_;
  uint64_t events_processed_ = 0;
};

}  // namespace rtvirt

#endif  // SRC_SIM_SIMULATOR_H_
