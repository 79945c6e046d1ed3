// Determinism regression (robustness PR satellite): the same seed and the
// same fault plan must reproduce the exact same run — byte-identical metrics
// report and equal resilience counters across two fresh executions. Guards
// the whole recovery path (evacuation, capacity re-plans, pressure ladder,
// audit) against hidden nondeterminism: any wall-clock read, pointer-keyed
// iteration order, or uninitialized state in the new code shows up here as a
// report diff long before it corrupts an experiment sweep.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/sim/event_queue.h"
#include "src/workloads/churn.h"
#include "src/workloads/periodic.h"

namespace rtvirt {
namespace {

constexpr TimeNs kRun = Sec(4);

// A recover-mode run with every new knob on and an eventful fault timeline:
// a mid-grant core loss, an overlapping throttle, and both heals.
ExperimentConfig FaultyConfig() {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 4;
  cfg.dpwrap.pcpu_recovery.enabled = true;
  cfg.dpwrap.overload.enabled = true;
  cfg.audit.enabled = true;
  cfg.machine.evacuation_penalty = Us(150);

  FaultPlan::PcpuFault outage;
  outage.kind = FaultPlan::PcpuFault::Kind::kTransientOffline;
  outage.pcpu = 3;
  outage.at = Sec(1) + Us(700);  // Off the period grid: mid-grant.
  outage.until = Sec(3);
  cfg.faults.pcpu_faults.push_back(outage);
  FaultPlan::PcpuFault throttle;
  throttle.kind = FaultPlan::PcpuFault::Kind::kDegrade;
  throttle.pcpu = 2;
  throttle.at = Sec(2);
  throttle.until = Sec(3) + Ms(500);
  throttle.speed = 0.6;
  cfg.faults.pcpu_faults.push_back(throttle);
  return cfg;
}

struct RunResult {
  std::string report;
  ResilienceCounters rc;
  uint64_t events = 0;
};

RunResult RunOnce() {
  ExperimentConfig cfg = FaultyConfig();
  Experiment exp(cfg);
  GuestConfig gcfg;
  gcfg.overload.enabled = true;
  GuestOs* hi = exp.AddGuest("hi", 6, gcfg);
  GuestOs* lo = exp.AddGuest("lo", 4, gcfg);

  // Churned (seeded-random) demand in both tiers so the run exercises
  // admission, compression, shedding and resume — not just a static plan.
  ChurnConfig hi_cfg;
  hi_cfg.experiment_len = kRun;
  hi_cfg.criticality = Criticality::kHigh;
  hi_cfg.profile = RtaParams{Us(2250), Ms(10)};
  hi_cfg.admission_retry = Ms(50);
  ChurnConfig lo_cfg = hi_cfg;
  lo_cfg.criticality = Criticality::kLow;
  lo_cfg.profile = RtaParams{Us(4500), Ms(10)};
  lo_cfg.elastic_min_fraction = 0.5;
  DeadlineMonitor hi_mon, lo_mon;
  ChurnDriver hi_churn(hi, hi_cfg, Rng(977), &hi_mon);
  ChurnDriver lo_churn(lo, lo_cfg, Rng(978), &lo_mon);
  hi_churn.Start();
  lo_churn.Start();
  exp.Run(kRun);

  RunResult r;
  std::ostringstream out;
  exp.PrintReport(out, "determinism");
  out << "hi completed=" << hi_mon.total_completed() << " misses=" << hi_mon.total_misses()
      << "\nlo completed=" << lo_mon.total_completed() << " misses=" << lo_mon.total_misses()
      << "\n";
  r.report = out.str();
  r.rc = exp.resilience();
  r.events = exp.sim().events_processed();
  return r;
}

TEST(Determinism, SameSeedAndFaultPlanReproduceByteIdenticalReports) {
  RunResult a = RunOnce();
  RunResult b = RunOnce();
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.events, b.events);

  // The fault path itself fired (the test is vacuous otherwise)...
  EXPECT_EQ(a.rc.faults.pcpu_offline_events, 1u);
  EXPECT_EQ(a.rc.faults.pcpu_degrade_events, 1u);
  EXPECT_GT(a.rc.host.capacity_replans, 0u);
  EXPECT_GT(a.rc.audit.checks_run, 0u);
  EXPECT_EQ(a.rc.audit.total_violations, 0u);

  // ...and every counter in the recovery pipeline matches exactly.
  EXPECT_EQ(a.rc.pcpu_evacuations, b.rc.pcpu_evacuations);
  EXPECT_EQ(a.rc.host.capacity_replans, b.rc.host.capacity_replans);
  EXPECT_EQ(a.rc.guest.sheds, b.rc.guest.sheds);
  EXPECT_EQ(a.rc.guest.resumes, b.rc.guest.resumes);
  EXPECT_EQ(a.rc.guest.compressions, b.rc.guest.compressions);
  EXPECT_EQ(a.rc.guest.expansions, b.rc.guest.expansions);
  EXPECT_EQ(a.rc.audit.checks_run, b.rc.audit.checks_run);
}

// Trust-boundary PR: the adversarial-guest events draw no RNG and the trust
// state machine iterates VMs in machine index order, so the same seed and
// the same adversarial plan must reproduce byte-identical reports — lies,
// storms, thrash, quarantines, rehabilitations and all.
RunResult RunAdversarialOnce() {
  ExperimentConfig cfg = FaultyConfig();
  cfg.dpwrap.guest_trust.enabled = true;
  for (auto kind : {FaultPlan::AdversarialGuest::Kind::kDeadlineLies,
                    FaultPlan::AdversarialGuest::Kind::kHypercallStorm,
                    FaultPlan::AdversarialGuest::Kind::kBandwidthThrash}) {
    FaultPlan::AdversarialGuest a;
    a.kind = kind;
    a.vm_index = 2;
    a.start = Ms(500);
    a.end = Sec(3);
    a.period = kind == FaultPlan::AdversarialGuest::Kind::kHypercallStorm ? Us(100)
               : kind == FaultPlan::AdversarialGuest::Kind::kDeadlineLies ? Us(200)
                                                                          : Us(500);
    a.thrash_high = Bandwidth::FromDouble(0.15);
    cfg.faults.adversarial_guests.push_back(a);
  }

  Experiment exp(cfg);
  GuestConfig gcfg;
  gcfg.overload.enabled = true;
  GuestOs* hi = exp.AddGuest("hi", 6, gcfg);
  exp.AddGuest("lo", 4, gcfg);  // Fills VM index 1; the plan targets index 2.
  GuestOs* byz = exp.AddGuest("byz", 2);
  PeriodicRta cover(byz, "cover", RtaParams{Ms(1), Ms(10)});
  cover.Start(0, kRun);

  ChurnConfig hi_cfg;
  hi_cfg.experiment_len = kRun;
  hi_cfg.criticality = Criticality::kHigh;
  hi_cfg.profile = RtaParams{Us(2250), Ms(10)};
  hi_cfg.admission_retry = Ms(50);
  DeadlineMonitor hi_mon;
  ChurnDriver hi_churn(hi, hi_cfg, Rng(977), &hi_mon);
  hi_churn.Start();
  exp.Run(kRun);

  RunResult r;
  std::ostringstream out;
  exp.PrintReport(out, "determinism-adversarial");
  out << "hi completed=" << hi_mon.total_completed() << " misses=" << hi_mon.total_misses()
      << "\n";
  r.report = out.str();
  r.rc = exp.resilience();
  r.events = exp.sim().events_processed();
  return r;
}

TEST(Determinism, SameSeedAndAdversarialPlanReproduceByteIdenticalReports) {
  RunResult a = RunAdversarialOnce();
  RunResult b = RunAdversarialOnce();
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.events, b.events);

  // The attack and every defense actually fired (vacuity guard)...
  EXPECT_GT(a.rc.faults.deadline_lies, 0u);
  EXPECT_GT(a.rc.faults.storm_calls, 0u);
  EXPECT_GT(a.rc.faults.thrash_calls, 0u);
  EXPECT_GT(a.rc.host.deadline_lie_rejections, 0u);
  EXPECT_GT(a.rc.host.hypercall_rate_rejections, 0u);
  EXPECT_GE(a.rc.host.quarantines, 1u);

  // ...and the trust pipeline's counters match exactly across runs.
  EXPECT_EQ(a.rc.host.deadline_lie_rejections, b.rc.host.deadline_lie_rejections);
  EXPECT_EQ(a.rc.host.hypercall_rate_rejections, b.rc.host.hypercall_rate_rejections);
  EXPECT_EQ(a.rc.host.bw_thrash_trips, b.rc.host.bw_thrash_trips);
  EXPECT_EQ(a.rc.host.quarantines, b.rc.host.quarantines);
  EXPECT_EQ(a.rc.host.quarantine_releases, b.rc.host.quarantine_releases);
  EXPECT_EQ(a.rc.host.quarantine_holds, b.rc.host.quarantine_holds);
}

TEST(Determinism, DifferentWorkloadSeedStillRunsCleanUnderFaults) {
  // Not a reproducibility check — a robustness sweep in miniature: a second
  // seed through the same fault plan must also finish with a clean audit.
  ExperimentConfig cfg = FaultyConfig();
  Experiment exp(cfg);
  GuestConfig gcfg;
  gcfg.overload.enabled = true;
  GuestOs* g = exp.AddGuest("g", 6, gcfg);
  ChurnConfig ccfg;
  ccfg.experiment_len = kRun;
  ccfg.profile = RtaParams{Us(2500), Ms(10)};
  ccfg.elastic_min_fraction = 0.5;
  DeadlineMonitor mon;
  ChurnDriver churn(g, ccfg, Rng(31337), &mon);
  churn.Start();
  exp.Run(kRun);
  EXPECT_GT(exp.auditor()->stats().checks_run, 0u);
  EXPECT_EQ(exp.auditor()->stats().total_violations, 0u);
}

// Differential check of the event queue against an ordering oracle: 100k
// randomized schedule/cancel/pop operations driven through the calendar
// queue and a std::multiset keyed on (time, insertion seq) in lockstep. At
// every step their sizes and next event times must agree, and every pop must
// hand back the oracle's minimum. Any divergence under resizes, width
// retunes or node recycling shows up here as a first-divergence step index.
TEST(Determinism, EventQueueMatchesOrderedOracleOverRandomizedOps) {
  EventQueue q;
  std::multiset<std::pair<TimeNs, uint64_t>> oracle;
  Rng rng(0xEC0FFEEull);

  struct Pending {
    EventQueue::EventId id;
    TimeNs when;
    uint64_t seq;
  };
  std::vector<Pending> pending;

  TimeNs now = 0;
  uint64_t next_seq = 0;
  constexpr int kOps = 100000;
  for (int op = 0; op < kOps; ++op) {
    int roll = static_cast<int>(rng.UniformInt(0, 99));
    if (roll < 45 || pending.empty()) {
      // Mix of near and far times, with occasional exact duplicates to
      // exercise FIFO tie-breaking. The payload is the insertion seq.
      TimeNs when = now + rng.UniformTime(0, roll % 5 == 0 ? 50 : 5000000);
      uint64_t seq = next_seq++;
      pending.push_back({q.Schedule(when, EventTag{nullptr, 0, seq}), when, seq});
      oracle.insert({when, seq});
    } else if (roll < 70) {
      // Cancel a random outstanding id. Ids of already-fired events are
      // still in `pending`; cancelling those must be a no-op.
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pending.size()) - 1));
      q.Cancel(pending[pick].id);
      auto it = oracle.find({pending[pick].when, pending[pick].seq});
      if (it != oracle.end()) {
        oracle.erase(it);
      }
      pending[pick] = pending.back();
      pending.pop_back();
    } else if (!q.empty()) {
      ASSERT_EQ(q.NextTime(), oracle.begin()->first) << "step " << op;
      EventQueue::Fired fired = q.PopNext();
      now = fired.time;
      ASSERT_EQ(fired.tag.payload, oracle.begin()->second) << "step " << op;
      oracle.erase(oracle.begin());
    }
    ASSERT_EQ(q.size(), oracle.size()) << "step " << op;
  }
  // Drain completely: the queue must yield exactly the oracle's order.
  while (!q.empty()) {
    ASSERT_FALSE(oracle.empty());
    EventQueue::Fired fired = q.PopNext();
    ASSERT_EQ(fired.time, oracle.begin()->first);
    ASSERT_EQ(fired.tag.payload, oracle.begin()->second);
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(oracle.empty());
  EXPECT_GT(q.stats().calendar_resizes, 0u);
}

}  // namespace
}  // namespace rtvirt
