// Baseline host schedulers: deferrable-server gEDF (RT-Xen / vanilla EDF)
// and Credit (proportional share with boost).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/credit.h"
#include "src/baselines/server_edf.h"
#include "src/common/rng.h"
#include "src/hv/machine.h"
#include "src/hv/pcpu.h"
#include "src/hv/vm.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"
#include "tests/test_util.h"

namespace rtvirt {
namespace {

ExperimentConfig BaseConfig(Framework fw, int pcpus) {
  ExperimentConfig cfg;
  cfg.framework = fw;
  cfg.machine = ZeroCostMachine(pcpus);
  cfg.credit.tick_cost = 0;
  cfg.credit.dispatch_cost = 0;
  cfg.credit.pick_cost = 0;
  cfg.server_edf.pick_cost = 0;
  return cfg;
}

TEST(ServerEdf, ServerGetsConfiguredBandwidth) {
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* rt = exp.AddGuest("rt", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  rt->CreateBackgroundTask("rt-bg");  // Keep the server always runnable.
  exp.SetVcpuServer(rt->vm()->vcpu(0), ServerParams{Ms(3), Ms(10)});
  exp.Run(Sec(1));
  EXPECT_NEAR(static_cast<double>(rt->vm()->TotalRuntime()), static_cast<double>(Ms(300)),
              static_cast<double>(Ms(15)));
  EXPECT_NEAR(static_cast<double>(hog->vm()->TotalRuntime()), static_cast<double>(Ms(700)),
              static_cast<double>(Ms(15)));
}

TEST(ServerEdf, EdfOrderAmongServers) {
  // Two always-busy servers on one PCPU: the shorter-period server's jobs
  // must meet deadlines because EDF favors it each period.
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* a = exp.AddGuest("a", 1);
  GuestOs* b = exp.AddGuest("b", 1);
  exp.SetVcpuServer(a->vm()->vcpu(0), ServerParams{Ms(2), Ms(5)});
  exp.SetVcpuServer(b->vm()->vcpu(0), ServerParams{Ms(12), Ms(20)});
  DeadlineMonitor mon;
  PeriodicRta ra(a, "ra", RtaParams{Ms(2), Ms(5), false});
  PeriodicRta rb(b, "rb", RtaParams{Ms(12), Ms(20), false});
  ra.task()->set_observer(&mon);
  rb.task()->set_observer(&mon);
  ra.Start(0, Sec(1));
  rb.Start(0, Sec(1));
  exp.Run(Sec(1) + Ms(30));
  EXPECT_GE(mon.total_completed(), 245u);
  EXPECT_EQ(mon.total_misses(), 0u);
}

TEST(ServerEdf, DepletedServerWaitsForReplenishment) {
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* rt = exp.AddGuest("rt", 1);
  rt->CreateBackgroundTask("bg");
  exp.SetVcpuServer(rt->vm()->vcpu(0), ServerParams{Ms(1), Ms(100)});
  exp.Run(Ms(500));
  // Non-work-conserving: ~1ms per 100ms even with an idle machine.
  EXPECT_NEAR(static_cast<double>(rt->vm()->TotalRuntime()), static_cast<double>(Ms(5)),
              static_cast<double>(Ms(2)));
}

TEST(ServerEdf, DeferrableServerPreservesBudgetWhenIdle) {
  Experiment exp(BaseConfig(Framework::kRtXen, 1));
  GuestOs* rt = exp.AddGuest("rt", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  exp.SetVcpuServer(rt->vm()->vcpu(0), ServerParams{Ms(4), Ms(10)});
  Task* s = rt->CreateTask("late");
  ASSERT_EQ(rt->SchedSetAttr(s, RtaParams{Ms(3), Ms(10), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(s);
  exp.Run(Ms(100));
  // Job arrives mid-period: the idle server kept its budget and serves it
  // immediately (deferrable behaviour).
  rt->ReleaseJob(s, Ms(3), exp.sim().Now() + Ms(10));
  exp.Run(Ms(200));
  ASSERT_EQ(mon.total_completed(), 1u);
  EXPECT_EQ(mon.total_misses(), 0u);
  EXPECT_LE(mon.response_times_us().Max(), 4000.0);
}

// Forwards every hook to a ServerEdfScheduler and checks each PickNext, the
// machine's own and the test's, against a test-local reference: the
// all-VCPU linear scan in insertion order, with its own best-effort cursor.
class OracleCheckedServerEdf : public HostScheduler {
 public:
  explicit OracleCheckedServerEdf(ServerEdfConfig config)
      : config_(config), inner_(std::make_unique<ServerEdfScheduler>(config)) {}

  std::string_view name() const override { return "server-gedf-oracle"; }
  void Attach(Machine* machine) override {
    HostScheduler::Attach(machine);
    inner_->Attach(machine);
  }
  void VcpuInserted(Vcpu* vcpu) override {
    vcpus_.push_back(vcpu);
    inner_->VcpuInserted(vcpu);
  }
  void VcpuRemoved(Vcpu* vcpu) override {
    vcpus_.erase(std::find(vcpus_.begin(), vcpus_.end(), vcpu));
    inner_->VcpuRemoved(vcpu);
  }
  void VcpuWake(Vcpu* vcpu) override { inner_->VcpuWake(vcpu); }
  void VcpuBlock(Vcpu* vcpu) override { inner_->VcpuBlock(vcpu); }
  void AccountRun(Vcpu* vcpu, TimeNs ran) override { inner_->AccountRun(vcpu, ran); }
  ScheduleDecision PickNext(Pcpu* pcpu) override {
    ScheduleDecision want = ReferencePick(pcpu);
    ScheduleDecision got = inner_->PickNext(pcpu);
    ++picks;
    server_picks += got.next != nullptr && inner_->ServerOf(got.next) != nullptr ? 1 : 0;
    best_effort_picks += got.next != nullptr && inner_->ServerOf(got.next) == nullptr ? 1 : 0;
    if ((got.next != want.next || got.run_until != want.run_until) && mismatches++ == 0) {
      first_mismatch = "t=" + std::to_string(machine_->sim()->Now()) + " pcpu " +
                       std::to_string(pcpu->id()) + ": picked " + Name(got.next) + " until " +
                       std::to_string(got.run_until) + ", reference " + Name(want.next) +
                       " until " + std::to_string(want.run_until);
    }
    return got;
  }

  ServerEdfScheduler* inner() { return inner_.get(); }

  uint64_t picks = 0;
  uint64_t server_picks = 0;
  uint64_t best_effort_picks = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;

 private:
  static std::string Name(const Vcpu* v) { return v == nullptr ? "idle" : v->name(); }

  ScheduleDecision ReferencePick(Pcpu* pcpu) {
    TimeNs now = machine_->sim()->Now();
    const ServerEdfScheduler::Server* best = nullptr;
    for (Vcpu* v : vcpus_) {
      const ServerEdfScheduler::Server* s = inner_->ServerOf(v);
      if (s == nullptr || s->budget <= 0) {
        continue;
      }
      if (!v->runnable() && !(v->running() && v->pcpu() == pcpu)) {
        continue;
      }
      if (best == nullptr || s->deadline <= best->deadline) {
        best = s;
      }
    }
    if (best != nullptr) {
      TimeNs horizon = best->budget;
      if (config_.quantum > 0) {
        horizon = (horizon + config_.quantum - 1) / config_.quantum * config_.quantum;
      }
      return {best->vcpu, now + horizon};
    }
    size_t n = vcpus_.size();
    for (size_t i = 0; i < n; ++i) {
      Vcpu* v = vcpus_[(cursor_ + i) % n];
      if (inner_->ServerOf(v) != nullptr) {
        continue;
      }
      if (!v->runnable() && !(v->running() && v->pcpu() == pcpu)) {
        continue;
      }
      cursor_ = (cursor_ + i + 1) % n;
      return {v, now + config_.best_effort_quantum};
    }
    return {nullptr, kTimeNever};
  }

  ServerEdfConfig config_;
  std::unique_ptr<ServerEdfScheduler> inner_;
  std::vector<Vcpu*> vcpus_;
  size_t cursor_ = 0;
};

class NullClient : public VcpuClient {
 public:
  void OnVcpuGranted(Vcpu* vcpu) override { (void)vcpu; }
  void OnVcpuRevoked(Vcpu* vcpu) override { (void)vcpu; }
};

ServerParams RandomServer(Rng& rng) {
  // Few distinct periods, all configured at t=0: deadlines tie often.
  TimeNs period = Ms(rng.UniformInt(2, 4));
  return ServerParams{Us(rng.UniformInt(50, 400)), period};
}

// Drives 70 VCPUs (the ready mask spans two words) on 3 PCPUs through
// seeded wakes, blocks, simulated runs (dispatches, budget depletion,
// replenishments, quantum ticks), direct AccountRun depletion, server
// reconfiguration and one removal, with one best-effort VCPU. After every
// step each PCPU's pick is compared with the reference.
void RunPickOracle(TimeNs quantum) {
  constexpr int kVcpus = 70;
  constexpr int kBestEffort = 33;
  ServerEdfConfig cfg;
  cfg.pick_cost = 0;
  cfg.quantum = quantum;
  Simulator sim;
  Machine machine(&sim, ZeroCostMachine(3));
  auto checked = std::make_unique<OracleCheckedServerEdf>(cfg);
  OracleCheckedServerEdf* sched = checked.get();
  machine.SetScheduler(std::move(checked));
  NullClient client;
  Vm* vm = machine.AddVm("rig");
  Rng rng(quantum + 20180423);
  for (int i = 0; i < kVcpus; ++i) {
    Vcpu* v = vm->AddVcpu();
    v->set_client(&client);
    if (i != kBestEffort) {
      sched->inner()->SetServer(v, RandomServer(rng));
    }
  }
  machine.Start();
  int removed = -1;
  for (int step = 0; step < 6000; ++step) {
    int idx = static_cast<int>(rng.UniformInt(0, kVcpus - 1));
    if (idx == removed) {
      idx = (idx + 1) % kVcpus;
    }
    Vcpu* v = vm->vcpu(idx);
    int op = static_cast<int>(rng.UniformInt(0, 19));
    if (step == 3000) {
      removed = 64;  // A server in the mask's second word.
      vm->vcpu(removed)->Block();
      sched->VcpuRemoved(vm->vcpu(removed));
    } else if (op < 5) {
      v->Wake();
    } else if (op < 10) {
      v->Block();
    } else if (op < 15) {
      sim.RunUntil(sim.Now() + Us(rng.UniformInt(0, 400)));
    } else if (op < 18) {
      sched->AccountRun(v, Us(rng.UniformInt(0, 600)));
    } else if (op < 19) {
      if (idx != kBestEffort) {
        sched->inner()->SetServer(v, RandomServer(rng));
      }
    } else {
      vm->vcpu(kBestEffort)->Wake();
    }
    for (int p = 0; p < machine.num_pcpus(); ++p) {
      sched->PickNext(machine.pcpu(p));
    }
    ASSERT_EQ(sched->mismatches, 0u) << "step " << step << ": " << sched->first_mismatch;
  }
  // The run both chose servers and fell through to the best-effort VCPU.
  EXPECT_GT(sched->server_picks, 1000u);
  EXPECT_GT(sched->best_effort_picks, 0u);
  EXPECT_LT(sched->server_picks + sched->best_effort_picks, sched->picks);
}

TEST(ServerEdf, PickMatchesLinearScanOracle) {
  for (TimeNs quantum : {TimeNs{0}, Ms(1)}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum));
    RunPickOracle(quantum);
  }
}

TEST(Credit, WeightsShareProportionally) {
  Experiment exp(BaseConfig(Framework::kCredit, 1));
  exp.config();
  GuestOs* a = exp.AddGuest("a", 1);
  GuestOs* b = exp.AddGuest("b", 1);
  a->vm()->set_weight(256);
  b->vm()->set_weight(768);
  a->CreateBackgroundTask("bga");
  b->CreateBackgroundTask("bgb");
  exp.Run(Sec(2));
  double ra = static_cast<double>(a->vm()->TotalRuntime());
  double rb = static_cast<double>(b->vm()->TotalRuntime());
  EXPECT_NEAR(rb / (ra + rb), 0.75, 0.05);
}

TEST(Credit, BoostServesWakingVmQuickly) {
  ExperimentConfig cfg = BaseConfig(Framework::kCredit, 1);
  cfg.credit.timeslice = Ms(30);
  Experiment exp(cfg);
  GuestOs* lat = exp.AddGuest("lat", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  Task* s = lat->CreateTask("svc");
  ASSERT_EQ(lat->SchedSetAttr(s, RtaParams{Us(100), Ms(5), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(s);
  exp.Run(Ms(100));
  lat->ReleaseJob(s, Us(100), exp.sim().Now() + Ms(5));
  exp.Run(Ms(200));
  ASSERT_EQ(mon.total_completed(), 1u);
  // Without boost it would wait for the hog's 30ms quantum; with boost only
  // the ratelimit (500us) can delay it.
  EXPECT_LE(mon.response_times_us().Max(), 700.0);
}

TEST(Credit, RatelimitDelaysPreemption) {
  ExperimentConfig cfg = BaseConfig(Framework::kCredit, 1);
  cfg.credit.ratelimit = Us(500);
  Experiment exp(cfg);
  GuestOs* lat = exp.AddGuest("lat", 1);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  Task* s = lat->CreateTask("svc");
  ASSERT_EQ(lat->SchedSetAttr(s, RtaParams{Us(10), Ms(5), true}), kGuestOk);
  DeadlineMonitor mon;
  mon.Watch(s);
  // First request: the hog ran a long quantum, so its ratelimit window has
  // expired and the boosted wake preempts immediately. After it completes,
  // the hog is re-dispatched; a second request 50us later falls inside the
  // hog's fresh ratelimit window and waits for the remainder of it.
  exp.Run(Ms(100));
  lat->ReleaseJob(s, Us(10), exp.sim().Now() + Ms(5));
  exp.Run(Ms(100) + Us(50));
  ASSERT_EQ(mon.total_completed(), 1u);
  EXPECT_LE(mon.response_times_us().Max(), 50.0);
  lat->ReleaseJob(s, Us(10), exp.sim().Now() + Ms(5));
  exp.Run(Ms(102));
  ASSERT_EQ(mon.total_completed(), 2u);
  EXPECT_GE(mon.response_times_us().Max(), 250.0);
  EXPECT_LE(mon.response_times_us().Max(), 600.0);
}

TEST(Credit, TickInterferenceChargesOverhead) {
  ExperimentConfig cfg = BaseConfig(Framework::kCredit, 1);
  cfg.credit.tick_cost = Us(40);
  cfg.credit.tick_period = Ms(10);
  Experiment exp(cfg);
  GuestOs* hog = exp.AddGuest("hog", 1);
  hog->CreateBackgroundTask("bg");
  exp.Run(Sec(1));
  // ~100 ticks of 40us each.
  EXPECT_NEAR(static_cast<double>(exp.machine().overhead().schedule_time),
              static_cast<double>(Ms(4)),
              static_cast<double>(Ms(1)));
  EXPECT_LT(hog->vm()->TotalRuntime(), Sec(1) - Ms(3));
}

TEST(VanillaEdf, SameSchedulerDifferentFrameworkLabel) {
  Experiment exp(BaseConfig(Framework::kVanillaEdf, 1));
  EXPECT_NE(exp.server_edf(), nullptr);
  EXPECT_EQ(exp.dpwrap(), nullptr);
  EXPECT_STREQ(FrameworkName(Framework::kVanillaEdf), "Vanilla-EDF");
}

}  // namespace
}  // namespace rtvirt
