#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace rtvirt {
namespace {

// Pops every pending event and returns the payloads in firing order.
std::vector<uint64_t> DrainPayloads(EventQueue& q) {
  std::vector<uint64_t> fired;
  while (!q.empty()) {
    fired.push_back(q.PopNext().tag.payload);
  }
  return fired;
}

EventTag Payload(uint64_t payload) { return EventTag{nullptr, 0, payload}; }

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.Schedule(30, Payload(3));
  q.Schedule(10, Payload(1));
  q.Schedule(20, Payload(2));
  EXPECT_EQ(DrainPayloads(q), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  for (uint64_t i = 0; i < 5; ++i) {
    q.Schedule(7, Payload(i));
  }
  EXPECT_EQ(DrainPayloads(q), (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  auto id = q.Schedule(5, Payload(5));
  q.Schedule(6, Payload(6));
  q.Cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(DrainPayloads(q), (std::vector<uint64_t>{6}));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto id = q.Schedule(1, Payload(1));
  q.PopNext();
  q.Cancel(id);  // Must not corrupt the live count.
  EXPECT_TRUE(q.empty());
  q.Schedule(2, Payload(2));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  auto id = q.Schedule(1, Payload(1));
  auto id2 = id;
  q.Cancel(id);
  q.Cancel(id2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto id = q.Schedule(5, Payload(5));
  q.Schedule(9, Payload(9));
  q.Cancel(id);
  EXPECT_EQ(q.NextTime(), 9);
}

// Firing hands back the whole tag: owner, kind and payload.
TEST(EventQueue, PopReturnsTheScheduledTag) {
  struct Owner : EventOwner {
    void OnEvent(uint32_t, uint64_t) override {}
  } owner;
  EventQueue q;
  q.Schedule(4, EventTag{&owner, 7, 42});
  EventQueue::Fired fired = q.PopNext();
  EXPECT_EQ(fired.time, 4);
  EXPECT_EQ(fired.tag.owner, &owner);
  EXPECT_EQ(fired.tag.kind, 7u);
  EXPECT_EQ(fired.tag.payload, 42u);
}

// Calendar arena nodes are recycled: an EventId held across its node's reuse
// by a later Schedule() must become inert, not cancel the new tenant. The
// generation stamp in the id is what makes this safe.
TEST(EventQueueCalendar, StaleCancelAfterNodeReuseIsNoop) {
  EventQueue q;
  auto stale = q.Schedule(1, Payload(1));
  q.PopNext();  // Frees the node back to the arena.
  EXPECT_TRUE(q.empty());
  q.Schedule(2, Payload(2));  // Reuses the freed node.
  q.Cancel(stale);            // Generation mismatch: must be a no-op.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(DrainPayloads(q), (std::vector<uint64_t>{2}));
}

// Growing through several calendar resizes (bucket-ring rebuilds with width
// retunes) must not perturb the (time, seq) total order.
TEST(EventQueueCalendar, OrderSurvivesResizes) {
  EventQueue q;
  // Deterministic scatter of timestamps with duplicates, far more entries
  // than the initial 64 buckets so the ring grows and retunes repeatedly.
  std::vector<int64_t> times;
  uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    times.push_back(static_cast<int64_t>(x >> 24) % 1000000);
  }
  for (size_t i = 0; i < times.size(); ++i) {
    q.Schedule(times[i], Payload(i));
  }
  EXPECT_GT(q.stats().calendar_resizes, 0u);
  std::vector<uint64_t> fired = DrainPayloads(q);
  ASSERT_EQ(fired.size(), times.size());
  for (size_t k = 1; k < fired.size(); ++k) {
    int64_t prev = times[fired[k - 1]];
    int64_t t = times[fired[k]];
    if (t == prev) {
      EXPECT_GT(fired[k], fired[k - 1]);  // FIFO among equal timestamps.
    } else {
      EXPECT_GT(t, prev);
    }
  }
}

// After warm-up, the calendar recycles everything: popping and rescheduling
// at the same population must not carve new arena chunks.
TEST(EventQueueCalendar, SteadyStateReusesArenaNodes) {
  EventQueue q;
  for (int i = 0; i < 2000; ++i) {
    q.Schedule(10 + i, Payload(0));
  }
  uint64_t warm_allocs = q.stats().node_allocs;
  int64_t t = 10;
  for (int i = 0; i < 50000; ++i) {
    t = q.NextTime();
    q.PopNext();
    q.Schedule(t + 2000, Payload(0));
  }
  EXPECT_EQ(q.stats().node_allocs, warm_allocs);
  EXPECT_EQ(q.size(), 2000u);
}

// Records every event it receives, with the clock at firing time. An event
// of kind kChain re-schedules itself `payload` more times, 10 ns apart; one
// of kind kNested schedules a kind-kLeaf event at the same instant.
class Recorder : public EventOwner {
 public:
  enum Kind : uint32_t { kLeaf = 0, kChain = 1, kNested = 2 };
  struct Fired {
    TimeNs time;
    uint32_t kind;
    uint64_t payload;
    bool operator==(const Fired&) const = default;
  };

  explicit Recorder(Simulator* sim) : sim_(sim) {}

  void OnEvent(uint32_t kind, uint64_t payload) override {
    fired.push_back({sim_->Now(), kind, payload});
    if (kind == kChain && payload > 0) {
      sim_->After(10, {this, kChain, payload - 1});
    } else if (kind == kNested) {
      sim_->After(0, {this, kLeaf, payload + 1});
      fired.push_back({sim_->Now(), kind, payload + 2});
    }
  }

  std::vector<Fired> fired;

 private:
  Simulator* sim_;
};

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Recorder rec(&sim);
  sim.At(100, {&rec});
  sim.RunUntil(1000);
  EXPECT_EQ(rec.fired, (std::vector<Recorder::Fired>{{100, 0, 0}}));
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(Simulator, RunUntilStopsBeforeLaterEvents) {
  Simulator sim;
  Recorder rec(&sim);
  sim.At(100, {&rec});
  sim.At(200, {&rec});
  sim.RunUntil(150);
  EXPECT_EQ(rec.fired.size(), 1u);
  EXPECT_EQ(sim.Now(), 150);
  sim.RunUntil(300);
  EXPECT_EQ(rec.fired.size(), 2u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  Recorder rec(&sim);
  sim.After(10, {&rec, Recorder::kChain, 9});
  sim.RunAll();
  EXPECT_EQ(rec.fired.size(), 10u);
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(sim.events_processed(), 10u);
}

// The event-ordering invariants are RTVIRT_CHECKs: active in every build
// type (not compiled out under NDEBUG), fatal on violation.
TEST(SimulatorDeathTest, SchedulingAnEventInThePastIsFatal) {
  Simulator sim;
  Recorder rec(&sim);
  sim.At(100, {&rec});
  sim.RunAll();
  ASSERT_EQ(sim.Now(), 100);
  EXPECT_DEATH(sim.At(50, {&rec}), "event scheduled in the past");
}

TEST(SimulatorDeathTest, SchedulingAnEventWithoutAnOwnerIsFatal) {
  Simulator sim;
  EXPECT_DEATH(sim.At(50, {}), "without an owner");
}

TEST(SimulatorDeathTest, PoppingAnEmptyQueueIsFatal) {
  EventQueue q;
  EXPECT_DEATH(q.PopNext(), "empty event queue");
}

// An event scheduled from a handler for the same instant runs after the
// handler finishes, in scheduling order.
TEST(Simulator, AfterZeroRunsAtSameTimeInOrder) {
  Simulator sim;
  Recorder rec(&sim);
  sim.At(50, {&rec, Recorder::kNested, 1});
  sim.RunAll();
  EXPECT_EQ(rec.fired, (std::vector<Recorder::Fired>{
                           {50, Recorder::kNested, 1},
                           {50, Recorder::kNested, 3},
                           {50, Recorder::kLeaf, 2}}));
  EXPECT_EQ(sim.Now(), 50);
}

}  // namespace
}  // namespace rtvirt
