// Perf harness for the discrete-event core: runs micro_sched_ops- and
// tab6_scalability-shaped workloads through the PerfRecorder and emits the
// schema-versioned BENCH_perf_suite.json that perf_gate diffs against the
// committed baseline (see DESIGN.md §5 for the schema and re-baselining).
//
// Phases (the event queue is a calendar queue, hence the "calendar" names):
//   * tab6_shape.calendar — the Table 6 event pattern (periodic RTAs with
//     Table 5 periods, a budget timer per release that the next release
//     cancels) driven through the raw EventQueue, swept over the Table 6
//     scales (100 / 1000 / 10000 / 100000 timers, equal pops each). This is
//     the pure event-core measurement; it must allocate nothing after
//     warm-up (hard assert).
//   * cancel_churn.calendar — schedule+cancel pairs over a live set.
//   * sched_op.calendar — bare schedule+pop round trips.
//   * replan — the BM_DpWrapGlobalSlice shape (100 reserved VCPUs, 1 ms
//     global slices) measuring wall-clock ns per DP-WRAP replan. The whole
//     window (replans, picks, guest pEDF, job releases) must allocate
//     nothing (hard assert).
//   * server_edf — the Table 6 Single-RTA shape under RT-Xen (the 92
//     CARTS/DMPR-admitted single-RTA VMs as deferrable servers, 1 ms
//     quantum-driven gEDF on 15 PCPUs), measuring wall-clock ns per host
//     pick. The whole window (picks, quantum ticks, replenishments, guest
//     pEDF, job releases) must allocate nothing (hard assert).
//   * tab6_sim.calendar — the full single-RTA-VMs experiment at reduced
//     duration, measuring end-to-end simulated events/sec + peak RSS.
//
// Flags: --out=PATH (default BENCH_perf_suite.json), --scale=F (work
// multiplier for quick local runs; the committed baseline uses 1.0).
// Exits nonzero if any zero-alloc steady-state assertion fails.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/perf/alloc_hooks.h"
#include "src/perf/perf_recorder.h"
#include "src/perf/perf_report.h"
#include "src/runner/experiment.h"
#include "src/sim/event_queue.h"
#include "src/workloads/groups.h"
#include "src/workloads/periodic.h"

namespace rtvirt {
namespace {

using perf::PerfRecorder;
using perf::PerfReport;
using perf::PhaseResult;

// The Table 6 scale sweep: timer counts matching the paper's small / mid /
// large VM populations. The calendar's pop and insert stay O(1) down this
// list, which is exactly the scalability argument.
constexpr int kShapeSweep[] = {100, 1000, 10000, 100000};

// The Table 6 event pattern on a raw queue: every release pop reschedules
// itself one period out, schedules a budget-enforcement timer just past the
// next release, and cancels the previous budget timer (which therefore never
// fires — the dominant cancel pattern of the VCPU budget machinery).
// Events are tags (this, kind, timer index), so nothing allocates per event.
class ShapeSim : public EventOwner {
 public:
  explicit ShapeSim(int timers) {
    timers_.resize(static_cast<size_t>(timers));
    for (int i = 0; i < timers; ++i) {
      timers_[static_cast<size_t>(i)].period =
          kTable5Groups[static_cast<size_t>(i) % kTable5Groups.size()].period;
      q_.Schedule(timers_[static_cast<size_t>(i)].period * (i + 1) / timers,
                  {this, kRelease, static_cast<uint64_t>(i)});
    }
  }

  // Pops (and handles) `pops` release events; returns total queue ops.
  uint64_t Pump(uint64_t pops) {
    uint64_t ops = 0;
    for (uint64_t k = 0; k < pops; ++k) {
      EventQueue::Fired fired = q_.PopNext();
      now_ = fired.time;
      fired.tag.owner->OnEvent(fired.tag.kind, fired.tag.payload);
      ops += 4;  // The pop, the cancel, and the two schedules it triggered.
    }
    return ops;
  }

  const EventQueue& queue() const { return q_; }

 private:
  enum Kind : uint32_t { kRelease, kBudget };
  struct Timer {
    TimeNs period = 0;
    EventQueue::EventId budget;
  };

  // Only releases fire: every budget timer is cancelled by the next release.
  void OnEvent(uint32_t, uint64_t i) override {
    Timer& t = timers_[i];
    q_.Cancel(t.budget);
    t.budget = q_.Schedule(now_ + t.period + kNsPerUs, {this, kBudget, i});
    q_.Schedule(now_ + t.period, {this, kRelease, i});
  }

  EventQueue q_;
  TimeNs now_ = 0;
  std::vector<Timer> timers_;
};

PhaseResult RunTab6Shape(PerfRecorder& rec, uint64_t pops_per_scale) {
  // Build and warm every scale before the measured window opens: each sim
  // must have fired all timers at least once (budget ids populated, arena
  // chunks carved, calendar resizes settled) so the window is steady state.
  std::vector<std::unique_ptr<ShapeSim>> sims;
  for (int timers : kShapeSweep) {
    sims.push_back(std::make_unique<ShapeSim>(timers));
    sims.back()->Pump(std::max<uint64_t>(4 * static_cast<uint64_t>(timers),
                                         pops_per_scale / 10));
  }
  std::vector<std::string> scale_keys;  // Built outside the measured window.
  for (int timers : kShapeSweep) {
    scale_keys.push_back("ns_per_pop.n" + std::to_string(timers));
  }
  rec.Begin("tab6_shape.calendar");
  uint64_t ops = 0;
  for (size_t s = 0; s < sims.size(); ++s) {
    uint64_t t0 = perf::MonotonicNowNs();
    ops += sims[s]->Pump(pops_per_scale);
    rec.Count(scale_keys[s], static_cast<double>(perf::MonotonicNowNs() - t0) /
                                 static_cast<double>(pops_per_scale));
  }
  rec.Count("pops", static_cast<double>(pops_per_scale * sims.size()));
  return rec.End(ops);
}

PhaseResult RunCancelChurn(PerfRecorder& rec, uint64_t iters) {
  EventQueue q;
  TimeNs t = 0;
  for (int i = 0; i < 128; ++i) {
    q.Schedule(++t + Ms(1), EventTag{});  // A live set the churn runs against.
  }
  for (uint64_t k = 0; k < iters / 8; ++k) {  // Warm the arena/freelist.
    EventQueue::EventId id = q.Schedule(++t, EventTag{});
    q.Cancel(id);
  }
  rec.Begin("cancel_churn.calendar");
  for (uint64_t k = 0; k < iters; ++k) {
    EventQueue::EventId id = q.Schedule(++t, EventTag{});
    q.Cancel(id);
  }
  return rec.End(iters * 2);
}

PhaseResult RunSchedOp(PerfRecorder& rec, uint64_t iters) {
  EventQueue q;
  TimeNs t = 0;
  for (int i = 0; i < 128; ++i) {
    q.Schedule(++t + Us(100), EventTag{});
  }
  for (uint64_t k = 0; k < iters / 8; ++k) {  // Warm-up.
    q.Schedule(++t + Us(100), EventTag{});
    q.PopNext();
  }
  rec.Begin("sched_op.calendar");
  for (uint64_t k = 0; k < iters; ++k) {
    q.Schedule(++t + Us(100), EventTag{});
    q.PopNext();
  }
  return rec.End(iters * 2);
}

// One DP-WRAP global slice per ms with 100 reserved VCPUs: the recurring
// replan + dispatch cost the 250 us minimum global slice bounds.
PhaseResult RunReplan(PerfRecorder& rec, int iters) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  Experiment exp(cfg);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  for (int i = 0; i < 100; ++i) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    rtas.push_back(std::make_unique<PeriodicRta>(
        g, "rta", RtaParams{Ms(1), Ms(2 + (i % 7)), false}));
    rtas.back()->Start(0, Sec(100000));
  }
  exp.Run(Ms(10));
  uint64_t replans_before = exp.dpwrap()->replans();
  TimeNs t = Ms(10);
  rec.Begin("replan");
  for (int k = 0; k < iters; ++k) {
    t += Ms(1);
    exp.Run(t);
  }
  uint64_t replans = exp.dpwrap()->replans() - replans_before;
  rec.Count("replans", static_cast<double>(replans));
  return rec.End(replans);
}

// Table 6 Single-RTA VMs under RT-Xen, admitted as tab6_scalability does:
// a VM joins while DMPR still packs every CARTS interface onto 15 PCPUs.
PhaseResult RunServerEdf(PerfRecorder& rec, int iters) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtXen;
  cfg.machine.num_pcpus = 15;
  cfg.server_edf.quantum = Ms(1);
  Experiment exp(cfg);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  std::vector<PeriodicResource> interfaces;
  for (int copy = 0; copy < 10; ++copy) {
    for (const RtaParams& params : kTable5Groups) {
      PeriodicResource iface = bench::CartsInterface({params});
      interfaces.push_back(iface);
      if (DmprPack(interfaces).claimed_cpus > 15) {
        interfaces.pop_back();
        continue;
      }
      GuestOs* g = exp.AddGuest("vm" + std::to_string(rtas.size()), 1);
      exp.SetVcpuServer(g->vm()->vcpu(0), ServerParams{iface.budget, iface.period});
      g->SetVcpuCapacity(0, iface.bandwidth());
      rtas.push_back(std::make_unique<PeriodicRta>(g, "rta", params));
      rtas.back()->Start(0, Sec(100000));
    }
  }
  exp.Run(Ms(100));
  uint64_t picks_before = exp.machine().overhead().schedule_calls;
  TimeNs t = Ms(100);
  rec.Begin("server_edf");
  for (int k = 0; k < iters; ++k) {
    t += Ms(1);
    exp.Run(t);
  }
  uint64_t picks = exp.machine().overhead().schedule_calls - picks_before;
  rec.Count("servers", static_cast<double>(rtas.size()));
  rec.Count("picks", static_cast<double>(picks));
  return rec.End(picks);
}

// The Table 6 single-RTA-VMs scenario end to end (100 VMs, RTVirt), at a
// CI-friendly duration. Ops = simulator events processed.
PhaseResult RunTab6Sim(PerfRecorder& rec, TimeNs duration) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  Experiment exp(cfg);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  int vm = 0;
  for (int copy = 0; copy < 10; ++copy) {
    for (const RtaParams& params : kTable5Groups) {
      GuestOs* g = exp.AddGuest("vm" + std::to_string(vm++), 1);
      rtas.push_back(std::make_unique<PeriodicRta>(g, "rta", params));
      rtas.back()->Start(0, duration);
    }
  }
  rec.Begin("tab6_sim.calendar");
  exp.Run(duration + Ms(500));
  uint64_t events = exp.sim().events_processed();
  rec.Count("sim_events", static_cast<double>(events));
  return rec.End(events);
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_perf_suite.json";
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      scale = std::atof(arg + 8);
    } else {
      std::fprintf(stderr, "usage: perf_suite [--out=PATH] [--scale=F]\n");
      return 2;
    }
  }
  if (scale <= 0) {
    std::fprintf(stderr, "perf_suite: --scale must be positive\n");
    return 2;
  }
  if (!perf::AllocHooksActive()) {
    std::fprintf(stderr,
                 "perf_suite: allocation hooks are not linked in — the zero-alloc "
                 "gate cannot run\n");
    return 1;
  }

  auto scaled = [scale](uint64_t n) { return static_cast<uint64_t>(static_cast<double>(n) * scale); };
  PerfRecorder rec;
  std::printf("perf_suite: event-core + host-scheduler measurement (scale %.2f)\n", scale);

  PhaseResult shape = RunTab6Shape(rec, scaled(400000));
  PhaseResult churn = RunCancelChurn(rec, scaled(2000000));
  PhaseResult sched = RunSchedOp(rec, scaled(2000000));
  PhaseResult replan = RunReplan(rec, static_cast<int>(scaled(300)));
  PhaseResult server_edf = RunServerEdf(rec, static_cast<int>(scaled(1000)));
  PhaseResult sim = RunTab6Sim(rec, Sec(2));
  uint64_t peak_rss = perf::PeakRssKb();

  for (const PhaseResult& p : rec.phases()) {
    std::printf("  %-22s %10llu ops  %8.1f ns/op  %12.0f ops/s  %llu allocs\n",
                p.name.c_str(), static_cast<unsigned long long>(p.ops), p.NsPerOp(),
                p.OpsPerSec(), static_cast<unsigned long long>(p.allocs));
  }

  // Event throughput: popped events per wall second on the tab6 shape.
  double eps = shape.counters.at("pops") * 1e9 / static_cast<double>(shape.wall_ns);
  double replan_ns = replan.NsPerOp();
  std::printf("  tab6_shape events/sec: %.0f\n", eps);
  for (int timers : kShapeSweep) {
    std::string key = "ns_per_pop.n" + std::to_string(timers);
    std::printf("    n=%-6d %7.1f ns/pop\n", timers, shape.counters.at(key));
  }
  std::printf("  replan: %.0f ns/replan; server_edf: %.0f ns/pick over %.0f servers; "
              "tab6_sim: %.0f ev/s; peak RSS %llu KiB\n",
              replan_ns, server_edf.NsPerOp(), server_edf.counters.at("servers"),
              sim.OpsPerSec(), static_cast<unsigned long long>(peak_rss));

  PerfReport report;
  report.suite = "perf_suite";
#ifdef NDEBUG
  report.meta["build"] = "Release";
#else
  report.meta["build"] = "asserts-on";
#endif
  report.Add("tab6_shape.calendar.events_per_sec", eps, "events/s", true, 0.40);
  report.Add("tab6_shape.calendar.ns_per_op", shape.NsPerOp(), "ns", false, 0.40);
  report.Add("tab6_shape.calendar.steady_allocs_per_op", shape.AllocsPerOp(), "allocs/op",
             false, 0.0);
  report.Add("cancel_churn.calendar.ns_per_op", churn.NsPerOp(), "ns", false, 0.40);
  report.Add("sched_op.calendar.ns_per_op", sched.NsPerOp(), "ns", false, 0.40);
  report.Add("replan.ns_per_replan", replan_ns, "ns", false, 0.50);
  report.Add("replan.steady_allocs_per_replan", replan.AllocsPerOp(), "allocs/op", false, 0.0);
  report.Add("server_edf.steady_allocs_per_pick", server_edf.AllocsPerOp(), "allocs/op", false,
             0.0);
  report.Add("tab6_sim.events_per_sec", sim.OpsPerSec(), "events/s", true, 0.50);
  report.Add("peak_rss_kb", static_cast<double>(peak_rss), "KiB", false, 0.75);
  if (!report.WriteFile(out_path)) {
    return 1;
  }
  std::printf("perf_suite: wrote %s (%zu metrics, schema v%d)\n", out_path.c_str(),
              report.metrics.size(), report.schema_version);

  // The zero-alloc steady states are invariants, not perf numbers: fail the
  // run outright if a measured window allocated at all.
  int rc = 0;
  for (const PhaseResult* p : {&shape, &replan, &server_edf}) {
    if (p->allocs != 0) {
      std::fprintf(stderr,
                   "perf_suite: FAIL — %s steady state performed %llu allocations "
                   "(%llu bytes) over %llu ops; expected zero\n",
                   p->name.c_str(), static_cast<unsigned long long>(p->allocs),
                   static_cast<unsigned long long>(p->alloc_bytes),
                   static_cast<unsigned long long>(p->ops));
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace rtvirt

int main(int argc, char** argv) { return rtvirt::Run(argc, argv); }
