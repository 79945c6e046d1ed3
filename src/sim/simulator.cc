#include "src/sim/simulator.h"

#include "src/common/check.h"

namespace rtvirt {

Simulator::EventId Simulator::At(TimeNs when, const EventTag& tag) {
  RTVIRT_CHECK(when >= now_, "event scheduled in the past: when=%lld ns < now=%lld ns",
               static_cast<long long>(when), static_cast<long long>(now_));
  RTVIRT_CHECK(tag.owner != nullptr, "event of kind %u scheduled without an owner",
               static_cast<unsigned>(tag.kind));
  return queue_.Schedule(when, tag);
}

void Simulator::FireNext() {
  // The tag is copied out and the node freed before dispatch, so OnEvent may
  // schedule or cancel freely.
  EventQueue::Fired fired = queue_.PopNext();
  RTVIRT_CHECK(fired.time >= now_, "event fired in the past: time=%lld ns < now=%lld ns",
               static_cast<long long>(fired.time), static_cast<long long>(now_));
  now_ = fired.time;
  ++events_processed_;
  fired.tag.owner->OnEvent(fired.tag.kind, fired.tag.payload);
}

void Simulator::RunUntil(TimeNs end) {
  while (!queue_.empty() && queue_.NextTime() <= end) {
    FireNext();
  }
  if (now_ < end) {
    now_ = end;
  }
}

void Simulator::RunAll() {
  while (!queue_.empty()) {
    FireNext();
  }
}

}  // namespace rtvirt
