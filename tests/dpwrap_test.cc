// DP-WRAP host scheduler tests: hypercall admission control, global-slice
// planning, migration bounds, best-effort backfill, and the DP-WRAP
// optimality property (no deadline misses whenever total bandwidth fits).

#include "src/rtvirt/dpwrap.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/rng.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig PureConfig(int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.channel.budget_slack = 0;  // Pure DP-WRAP: exact reservations.
  cfg.dpwrap.pick_cost = 0;      // ...and a zero-cost scheduler model.
  cfg.dpwrap.replan_cost_base = 0;
  cfg.dpwrap.replan_cost_per_log = 0;
  return cfg;
}

TEST(DpWrapAdmission, AcceptsUpToCapacityThenRejects) {
  Experiment exp(PureConfig(2));
  GuestOs* g = exp.AddGuest("vm", 3);
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = g->vm()->vcpu(0);
  args.bw_a = Bandwidth::One();
  args.period_a = Ms(10);
  EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
  args.vcpu_a = g->vm()->vcpu(1);
  EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
  args.vcpu_a = g->vm()->vcpu(2);
  args.bw_a = Bandwidth::FromDouble(0.01);
  EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallNoBandwidth);
  EXPECT_EQ(exp.dpwrap()->total_reserved(), Bandwidth::Cpus(2));
}

TEST(DpWrapAdmission, RejectsVcpuBandwidthAboveOneCpu) {
  Experiment exp(PureConfig(2));
  GuestOs* g = exp.AddGuest("vm", 1);
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = g->vm()->vcpu(0);
  args.bw_a = Bandwidth::FromDouble(1.01);
  args.period_a = Ms(10);
  EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallInvalid);
}

TEST(DpWrapAdmission, DecBwFreesCapacity) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2);
  HypercallArgs args;
  args.op = SchedOp::kIncBw;
  args.vcpu_a = g->vm()->vcpu(0);
  args.bw_a = Bandwidth::FromDouble(0.9);
  args.period_a = Ms(10);
  ASSERT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
  HypercallArgs dec = args;
  dec.op = SchedOp::kDecBw;
  dec.bw_a = Bandwidth::FromDouble(0.2);
  ASSERT_EQ(exp.machine().Hypercall(dec.vcpu_a, dec), kHypercallOk);
  HypercallArgs inc = args;
  inc.vcpu_a = g->vm()->vcpu(1);
  inc.bw_a = Bandwidth::FromDouble(0.7);
  EXPECT_EQ(exp.machine().Hypercall(inc.vcpu_a, inc), kHypercallOk);
}

TEST(DpWrapAdmission, IncDecMovesAtomically) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 2);
  Vcpu* a = g->vm()->vcpu(0);
  Vcpu* b = g->vm()->vcpu(1);
  HypercallArgs inc;
  inc.op = SchedOp::kIncBw;
  inc.vcpu_a = a;
  inc.bw_a = Bandwidth::FromDouble(0.8);
  inc.period_a = Ms(10);
  ASSERT_EQ(exp.machine().Hypercall(a, inc), kHypercallOk);
  // Move 0.5 from a to b.
  HypercallArgs move;
  move.op = SchedOp::kIncDecBw;
  move.vcpu_a = b;
  move.bw_a = Bandwidth::FromDouble(0.5);
  move.period_a = Ms(10);
  move.vcpu_b = a;
  move.bw_b = Bandwidth::FromDouble(0.3);
  move.period_b = Ms(10);
  EXPECT_EQ(exp.machine().Hypercall(b, move), kHypercallOk);
  EXPECT_EQ(exp.dpwrap()->ReservedBw(a), Bandwidth::FromDouble(0.3));
  EXPECT_EQ(exp.dpwrap()->ReservedBw(b), Bandwidth::FromDouble(0.5));
  // A move that would overflow is rolled back entirely.
  HypercallArgs bad = move;
  bad.bw_a = Bandwidth::One();
  bad.bw_b = Bandwidth::FromDouble(0.29);
  EXPECT_EQ(exp.machine().Hypercall(b, bad), kHypercallNoBandwidth);
  EXPECT_EQ(exp.dpwrap()->ReservedBw(a), Bandwidth::FromDouble(0.3));
  EXPECT_EQ(exp.dpwrap()->ReservedBw(b), Bandwidth::FromDouble(0.5));
}

TEST(DpWrap, ReservedVcpuGetsItsBandwidth) {
  Experiment exp(PureConfig(1));
  GuestOs* g = exp.AddGuest("vm", 1);
  // One RTA at 40% plus a background hog in the same guest: hog absorbs the
  // rest, but the RTA must still meet every deadline.
  g->CreateBackgroundTask("hog");
  DeadlineMonitor mon;
  PeriodicRta rta(g, "rta", RtaParams{Ms(4), Ms(10), false});
  rta.task()->set_observer(&mon);
  rta.Start(0, Sec(2));
  exp.Run(Sec(2) + Ms(20));
  ASSERT_EQ(rta.admission_result(), kGuestOk);
  EXPECT_GE(mon.total_completed(), 199u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

TEST(DpWrap, BestEffortSharesResidualBandwidth) {
  Experiment exp(PureConfig(2));
  GuestOs* rt = exp.AddGuest("rt", 1);
  GuestOs* be1 = exp.AddGuest("be1", 1);
  GuestOs* be2 = exp.AddGuest("be2", 1);
  be1->CreateBackgroundTask("hog1");
  be2->CreateBackgroundTask("hog2");
  DeadlineMonitor mon;
  PeriodicRta rta(rt, "rta", RtaParams{Ms(5), Ms(10), false});
  rta.task()->set_observer(&mon);
  rta.Start(0, Sec(1));
  exp.Run(Sec(1));
  EXPECT_EQ(mon.total_misses(), 0u);
  // Residual ~1.5 CPUs split between the two hogs.
  TimeNs t1 = be1->vm()->TotalRuntime();
  TimeNs t2 = be2->vm()->TotalRuntime();
  EXPECT_NEAR(static_cast<double>(t1 + t2), static_cast<double>(Ms(1500)),
              static_cast<double>(Ms(100)));
  EXPECT_NEAR(static_cast<double>(t1), static_cast<double>(t2), static_cast<double>(Ms(150)));
}

TEST(DpWrap, MigrationsBoundedByMMinusOnePerSlice) {
  ExperimentConfig cfg = PureConfig(3);
  Experiment exp(cfg);
  // 5 RTAs of 0.55 each on 5 single-VCPU VMs: total 2.75 on 3 PCPUs, forces
  // wrapped (split) VCPUs every slice.
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  DeadlineMonitor mon;
  for (int i = 0; i < 5; ++i) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    auto rta = std::make_unique<PeriodicRta>(g, "rta" + std::to_string(i),
                                             RtaParams{Ms(11), Ms(20), false});
    rta->task()->set_observer(&mon);
    rta->Start(0, Sec(1));
    rtas.push_back(std::move(rta));
  }
  exp.Run(Sec(1));
  EXPECT_EQ(mon.total_misses(), 0u);
  uint64_t replans = exp.dpwrap()->replans();
  uint64_t migrations = exp.machine().overhead().migrations;
  ASSERT_GT(replans, 0u);
  // DP-WRAP bound: at most m-1 = 2 VCPUs split per slice, each of which
  // migrates to its second piece and back at the next slice start.
  EXPECT_LE(migrations, replans * 2 * 2);
}

TEST(DpWrap, SporadicWakeReplansPromptly) {
  ExperimentConfig cfg = PureConfig(1);
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  Task* s = g->CreateTask("sporadic");
  DeadlineMonitor mon;
  mon.Watch(s);
  ASSERT_EQ(g->SchedSetAttr(s, RtaParams{Ms(2), Ms(10), true}), kGuestOk);
  exp.Run(Ms(50));
  // Request arrives mid-slice, long after the VCPU's segments passed.
  g->ReleaseJob(s, Ms(2), exp.sim().Now() + Ms(10));
  exp.Run(Ms(100));
  ASSERT_EQ(mon.total_completed(), 1u);
  EXPECT_EQ(mon.total_misses(), 0u);
  // With replan-on-wake the response is far below the period.
  EXPECT_LT(mon.response_times_us().Max(), 5000.0);
}

// A bare machine under DP-WRAP with best-effort VCPUs only, driven without
// running the simulator: wakes, blocks and picks are issued directly.
struct BestEffortRig {
  explicit BestEffortRig(int vcpus) : machine(&sim, ZeroCostMachine(3)) {
    auto sched = std::make_unique<DpWrapScheduler>();
    dpwrap = sched.get();
    machine.SetScheduler(std::move(sched));
    vm = machine.AddVm("be");
    for (int i = 0; i < vcpus; ++i) {
      vm->AddVcpu();
    }
  }
  Vcpu* Pick(int pcpu) { return dpwrap->PickNext(machine.pcpu(pcpu)).next; }

  Simulator sim;
  Machine machine;
  DpWrapScheduler* dpwrap = nullptr;
  Vm* vm = nullptr;
};

// Test-local oracle: a cyclic scan of every VCPU in insertion order from the
// cursor, returning the first runnable one (nothing is running here, and
// without reservations no VCPU owns a segment).
int OraclePick(const Vm* vm, size_t& cursor) {
  size_t n = static_cast<size_t>(vm->num_vcpus());
  for (size_t i = 0; i < n; ++i) {
    size_t pos = (cursor + i) % n;
    if (vm->vcpu(static_cast<int>(pos))->runnable()) {
      cursor = (pos + 1) % n;
      return static_cast<int>(pos);
    }
  }
  return -1;
}

// One random operation: 40% wake, 20% block, 40% pick on a random PCPU.
struct Step {
  int op = 0;
  int vcpu = 0;
  int pcpu = 0;
  bool pick() const { return op >= 6; }
};

Step DrawStep(Rng& rng, int vcpus) {
  Step st;
  st.op = static_cast<int>(rng.UniformInt(0, 9));
  st.vcpu = static_cast<int>(rng.UniformInt(0, vcpus - 1));
  st.pcpu = static_cast<int>(rng.UniformInt(0, 2));
  return st;
}

// Applies `st` to `rig`; a pick returns the chosen VCPU's index (-1: none).
int Apply(BestEffortRig& rig, const Step& st) {
  Vcpu* v = rig.vm->vcpu(st.vcpu);
  if (st.op < 4) {
    v->Wake();
  } else if (!st.pick()) {
    v->Block();
  } else {
    Vcpu* picked = rig.Pick(st.pcpu);
    return picked == nullptr ? -1 : picked->index();
  }
  return -2;
}

TEST(DpWrap, BestEffortPickIsRoundRobinOverAwakeVcpus) {
  // 70 VCPUs: the awake mask spans two 64-bit words.
  BestEffortRig rig(70);
  Rng rng(20180423);
  size_t cursor = 0;
  int picks = 0;
  int found = 0;
  auto run = [&](int steps, BestEffortRig* twin) {
    for (int i = 0; i < steps; ++i) {
      Step st = DrawStep(rng, rig.vm->num_vcpus());
      int expected = st.pick() ? OraclePick(rig.vm, cursor) : -2;
      ASSERT_EQ(Apply(rig, st), expected) << "step " << i;
      if (twin != nullptr) {
        ASSERT_EQ(Apply(*twin, st), expected) << "twin, step " << i;
      }
      picks += st.pick() ? 1 : 0;
      found += expected >= 0 ? 1 : 0;
    }
  };
  run(2000, nullptr);
  // Hotplug: a VCPU added mid-run (blocked) joins the round-robin at the end.
  rig.vm->AddVcpu();
  run(2000, nullptr);

  // Save both layers and restore them into a fresh twin, whose VCPU states
  // are set by the machine restore without passing through VcpuWake; the
  // twin must continue exactly like the original.
  ckpt::Writer machine_image;
  ckpt::Writer dpwrap_image;
  rig.machine.SaveState(machine_image);
  rig.dpwrap->SaveState(dpwrap_image);
  BestEffortRig twin(71);
  ckpt::Reader machine_reader(machine_image.data());
  ckpt::Reader dpwrap_reader(dpwrap_image.data());
  ASSERT_EQ(twin.machine.RestoreState(machine_reader), "");
  ASSERT_EQ(twin.dpwrap->RestoreState(dpwrap_reader), "");
  run(2000, &twin);

  // The scan both found VCPUs and came up empty along the way.
  EXPECT_GT(found, 0);
  EXPECT_LT(found, picks);
}

// DP-WRAP optimality: random task sets with total utilization <= m always
// meet all deadlines under zero-cost scheduling.
class DpWrapOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DpWrapOptimalityTest, NoMissesAtFullUtilization) {
  Rng rng(GetParam());
  int pcpus = static_cast<int>(rng.UniformInt(2, 4));
  ExperimentConfig cfg = PureConfig(pcpus);
  // Discrete time needs an epsilon over the fluid schedule: 1 us of slack
  // per VCPU period (the paper's prototype uses 500 us for real overheads).
  cfg.channel.budget_slack = Us(1);
  cfg.seed = GetParam();
  Experiment exp(cfg);

  DeadlineMonitor mon;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  double budget = pcpus;  // Target utilization: fill to ~99%.
  int i = 0;
  while (budget > 0.05 && i < 40) {
    double u = std::min(budget, rng.Uniform(0.1, 0.9));
    TimeNs period = Ms(rng.UniformInt(4, 50));
    auto slice = static_cast<TimeNs>(static_cast<double>(period) * u);
    if (slice <= 0) {
      break;
    }
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    auto rta = std::make_unique<PeriodicRta>(g, "rta" + std::to_string(i),
                                             RtaParams{slice, period, false});
    rta->task()->set_observer(&mon);
    rta->Start(0, Sec(1));
    rtas.push_back(std::move(rta));
    budget -= RtaParams{slice, period, false}.bandwidth().ToDouble();
    ++i;
  }
  exp.Run(Sec(1) + Ms(100));
  int admitted = 0;
  for (const auto& rta : rtas) {
    if (rta->admission_result() == kGuestOk) {
      ++admitted;
    }
  }
  ASSERT_GT(admitted, 0);
  EXPECT_GT(mon.total_completed(), 100u);
  EXPECT_EQ(mon.total_misses(), 0u)
      << "DP-WRAP must meet every deadline when utilization fits";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpWrapOptimalityTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 111));

// Admission boundary around the rounding epsilon: the check rejects only
// when the admitted total exceeds capacity + epsilon strictly, so a total
// landing exactly on the limit (or epsilon - 1 ppb above capacity) is
// admitted, and one more ppb is not.
class DpWrapEpsilonBoundary : public ::testing::Test {
 protected:
  // Fills capacity exactly, then requests `extra_ppb` more on a second VCPU.
  int64_t AdmitBeyondCapacity(int64_t extra_ppb) {
    Experiment exp(PureConfig(1));
    GuestOs* g = exp.AddGuest("vm", 2);
    HypercallArgs args;
    args.op = SchedOp::kIncBw;
    args.vcpu_a = g->vm()->vcpu(0);
    args.bw_a = Bandwidth::One();
    args.period_a = Ms(10);
    EXPECT_EQ(exp.machine().Hypercall(args.vcpu_a, args), kHypercallOk);
    args.vcpu_a = g->vm()->vcpu(1);
    args.bw_a = Bandwidth::FromPpb(extra_ppb);
    return exp.machine().Hypercall(args.vcpu_a, args);
  }

  static inline const int64_t kEpsilon = DpWrapConfig{}.admission_epsilon_ppb;
};

TEST_F(DpWrapEpsilonBoundary, ExactlyAtCapacityPlusEpsilonAdmits) {
  EXPECT_EQ(AdmitBeyondCapacity(kEpsilon), kHypercallOk);
}

TEST_F(DpWrapEpsilonBoundary, OnePpbBelowTheLimitAdmits) {
  EXPECT_EQ(AdmitBeyondCapacity(kEpsilon - 1), kHypercallOk);
}

TEST_F(DpWrapEpsilonBoundary, OnePpbAboveTheLimitRejects) {
  EXPECT_EQ(AdmitBeyondCapacity(kEpsilon + 1), kHypercallNoBandwidth);
}

}  // namespace
}  // namespace rtvirt
