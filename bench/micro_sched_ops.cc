// Micro-benchmarks for the scheduler operations discussed in section 4.5:
// event-queue ops, McNaughton wrap layout, the DP-WRAP replan (O(log n)
// global-deadline computation + O(n) slicing), the sched_rtvirt() hypercall
// round trip, CARTS interface search, and guest-level EDF dispatch.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/carts.h"
#include "src/common/bandwidth.h"
#include "src/perf/perf_recorder.h"
#include "src/perf/perf_report.h"
#include "src/rtvirt/wrap_layout.h"
#include "src/runner/experiment.h"
#include "src/sim/event_queue.h"
#include "src/workloads/periodic.h"

namespace rtvirt {
namespace {

void BM_EventQueueSchedulePop(benchmark::State& state) {
  EventQueue q;
  int64_t t = 0;
  for (auto _ : state) {
    q.Schedule(t++, EventTag{});
    q.Schedule(t + 100, EventTag{});
    benchmark::DoNotOptimize(q.PopNext());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventQueueSchedulePop);

void BM_EventQueueCancel(benchmark::State& state) {
  EventQueue q;
  int64_t t = 0;
  for (auto _ : state) {
    auto id = q.Schedule(t++, EventTag{});
    q.Cancel(id);
    if (q.size() > 4096) {
      state.PauseTiming();
      while (!q.empty()) {
        q.PopNext();
      }
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_WrapLayout(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<WrapItem> items;
  TimeNs slice = Us(250);
  for (int i = 0; i < n; ++i) {
    // ~50% total utilization spread over the items, capped at one PCPU each.
    items.push_back(WrapItem{i, std::min(slice, slice * 15 / (2 * n))});
  }
  // One reused buffer set, as DP-WRAP's replan keeps: steady state allocates
  // nothing.
  std::vector<int64_t> speeds(15, Bandwidth::kUnit);
  WrapBuffers buf;
  for (auto _ : state) {
    buf.fill.assign(speeds.size(), 0);
    WrapAround(items, slice, speeds, buf);
    benchmark::DoNotOptimize(buf.segments.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WrapLayout)->Arg(4)->Arg(20)->Arg(100);

// One DP-WRAP global slice: replan + per-PCPU dispatch, with n reserved
// VCPUs. This is the recurring cost the 250 us minimum global slice bounds.
void BM_DpWrapGlobalSlice(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  Experiment exp(cfg);
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  for (int i = 0; i < n; ++i) {
    GuestOs* g = exp.AddGuest("vm" + std::to_string(i), 1);
    rtas.push_back(std::make_unique<PeriodicRta>(
        g, "rta", RtaParams{Ms(1), Ms(2 + (i % 7)), false}));
    rtas.back()->Start(0, Sec(100000));
  }
  exp.Run(Ms(10));
  uint64_t replans_before = exp.dpwrap()->replans();
  TimeNs t = Ms(10);
  for (auto _ : state) {
    t += Ms(1);
    exp.Run(t);
  }
  state.counters["replans/iter"] = static_cast<double>(
      exp.dpwrap()->replans() - replans_before) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DpWrapGlobalSlice)->Arg(5)->Arg(20)->Arg(100);

// sched_rtvirt() round trip: INC_BW admission + deferred replan execution.
void BM_HypercallRoundTrip(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  Vcpu* v = g->vm()->vcpu(0);
  exp.Run(1);
  TimeNs t = 1;
  for (auto _ : state) {
    HypercallArgs inc;
    inc.op = SchedOp::kIncBw;
    inc.vcpu_a = v;
    inc.bw_a = Bandwidth::FromDouble(0.5);
    inc.period_a = Ms(10);
    benchmark::DoNotOptimize(exp.machine().Hypercall(v, inc));
    HypercallArgs dec = inc;
    dec.op = SchedOp::kDecBw;
    dec.bw_a = Bandwidth::Zero();
    benchmark::DoNotOptimize(exp.machine().Hypercall(v, dec));
    t += 1000;
    exp.Run(t);  // Drain the deferred replan.
  }
}
BENCHMARK(BM_HypercallRoundTrip);

void BM_CartsInterfaceSearch(benchmark::State& state) {
  std::vector<RtaParams> tasks{{Ms(23), Ms(30), false}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimalInterface(tasks, CartsOptions{Ms(1), 0, 0}));
  }
}
BENCHMARK(BM_CartsInterfaceSearch);

// Guest pEDF dispatch: release -> EDF pick -> completion, with l tasks per
// VCPU (the O(log l) guest-level cost of section 4.5).
void BM_GuestEdfJobCycle(benchmark::State& state) {
  int l = static_cast<int>(state.range(0));
  ExperimentConfig cfg;
  cfg.framework = Framework::kRtvirt;
  cfg.machine.num_pcpus = 2;
  Experiment exp(cfg);
  GuestOs* g = exp.AddGuest("vm", 1);
  std::vector<Task*> tasks;
  for (int i = 0; i < l; ++i) {
    Task* t = g->CreateTask("t" + std::to_string(i));
    g->SchedSetAttr(t, RtaParams{Us(10), Ms(10 + i), false});
    tasks.push_back(t);
  }
  exp.Run(1);
  TimeNs t = 1;
  size_t i = 0;
  for (auto _ : state) {
    Task* task = tasks[i++ % tasks.size()];
    g->ReleaseJob(task, Us(10), t + Ms(10));
    t += Us(50);
    exp.Run(t);
  }
}
BENCHMARK(BM_GuestEdfJobCycle)->Arg(1)->Arg(10);

// Forwards everything to the normal console output while capturing each
// run's per-iteration real time, so --perf_json can serialize the results
// into the shared BENCH_*.json schema after the run.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double ns_per_iter;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      double iters = run.iterations == 0 ? 1 : static_cast<double>(run.iterations);
      captured_.push_back(Captured{run.benchmark_name(),
                                   run.real_accumulated_time * 1e9 / iters});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

}  // namespace
}  // namespace rtvirt

int main(int argc, char** argv) {
  // --perf_json=PATH is ours; everything else passes through to the
  // google-benchmark flag parser (--benchmark_filter etc.).
  std::string perf_json;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--perf_json=", 0) == 0) {
      perf_json = arg.substr(12);
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  rtvirt::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!perf_json.empty()) {
    rtvirt::perf::PerfReport report;
    report.suite = "micro_sched_ops";
    for (const auto& c : reporter.captured()) {
      std::string name = c.name;
      for (char& ch : name) {
        if (ch == '/') {
          ch = '.';  // BM_WrapLayout/20 -> BM_WrapLayout.20
        }
      }
      report.Add(name + ".ns_per_iter", c.ns_per_iter, "ns", false, 0.5);
    }
    report.Add("peak_rss_kb", static_cast<double>(rtvirt::perf::PeakRssKb()),
               "KiB", false, 0.5);
    if (!report.WriteFile(perf_json)) {
      return 1;
    }
  }
  return 0;
}
