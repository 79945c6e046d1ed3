// rtbench: the repository benchmark's measuring program.
//
//   rtbench --workload mc_video|rtxen_scale|video_churn --seed N --seconds S --trace 0|1
//
// Repeats one fixed-size simulation of the workload for S host seconds (at
// least a few times), checks every simulation, and prints a report followed
// by one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured on the Experiment
// assembly; with --trace 1 the time is split between Experiment simulations
// and traced-assembly simulations, and the metrics are the per-layer ones.
// Simulated-time results are exact for a seed; host-time results are
// medians over the simulations of the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "rtbench/src/harness.h"
#include "src/perf/perf_recorder.h"

namespace rtbench {
namespace {

// No new simulation starts after kMaxRunSeconds, so a run always ends well
// inside 180 s.
constexpr double kMaxRunSeconds = 120;

struct Args {
  WorkloadId workload = WorkloadId::kMcVideo;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

std::optional<Args> Parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      std::optional<WorkloadId> id = ParseWorkload(value);
      if (!id.has_value()) {
        return std::nullopt;
      }
      a.workload = *id;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && a.seconds > 0 && a.seconds <= 60;
    } else if (flag == "--trace") {
      a.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    return std::nullopt;
  }
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

template <class Fn>
double MedianOver(const std::vector<Simulation>& sims, Fn fn) {
  std::vector<double> v;
  v.reserve(sims.size());
  for (const Simulation& s : sims) {
    v.push_back(fn(s));
  }
  return Median(std::move(v));
}

double SimSpeed(const Simulation& s) { return Ratio(s.sim.sim_s, s.host.run_s); }

std::vector<Metric> EndToEnd(const Runner& r) {
  const SimOutcome& o = *r.reference();
  const auto& sims = r.plain();
  return {
      {"sim_speed", "sim_s/s", MedianOver(sims, SimSpeed)},
      {"setup_s", "s", MedianOver(sims, [](const Simulation& s) { return s.host.setup_s; })},
      {"peak_rss_mb", "MB", static_cast<double>(perf::PeakRssKb()) / 1024.0},
      {"allocs_per_sim_s", "1/s",
       MedianOver(sims, [](const Simulation& s) { return s.host.allocs / s.sim.sim_s; })},
      {"sched_overhead_pct", "%", o.overhead_pct},
      {"reserved_cpus", "cpus", o.reserved_cpus},
      {"rt_met_pct", "%", 100 * Ratio(o.rt_jobs - o.rt_misses, o.rt_jobs)},
      {"admit_ok_pct", "%", 100 * Ratio(o.admit_attempts - o.admit_refused, o.admit_attempts)},
      {"latency_p50_us", "sim_us", o.latency_p50_us},
      {"latency_p999_us", "sim_us", o.latency_p999_us},
  };
}

double SelfNsPerCall(const Simulation& s, Layer layer) {
  const LayerStats& st = s.trace->layers[static_cast<int>(layer)];
  return Ratio(st.self_ticks * s.trace->ns_per_tick, st.calls);
}

double HostSelfShare(const Simulation& s) {
  uint64_t ticks = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    if (static_cast<Layer>(l) != Layer::kChannel) {
      ticks += s.trace->layers[l].self_ticks;
    }
  }
  return Ratio(ticks, s.trace->run_ticks);
}

std::vector<Metric> PerLayer(const Runner& r) {
  const SimOutcome& o = *r.reference();
  const auto& tr = r.traced();
  const double per_s = 1.0 / o.sim_s;
  auto calls = [&tr](Layer layer) {
    return static_cast<double>(tr.front().trace->layers[static_cast<int>(layer)].calls);
  };
  auto self_ns = [&tr](Layer layer) {
    return MedianOver(tr, [layer](const Simulation& s) { return SelfNsPerCall(s, layer); });
  };
  const TraceReading& t0 = *tr.front().trace;
  const LayerStats& ch = t0.layers[static_cast<int>(Layer::kChannel)];
  return {
      {"sim.events_per_sim_s", "1/s", o.events * per_s},
      {"sim.schedules_per_sim_s", "1/s", o.schedules * per_s},
      {"sim.cancels_per_sim_s", "1/s", o.cancels * per_s},
      {"sim.fire_ratio", "ratio", Ratio(o.pops, o.schedules)},
      {"sim.residual_ns_per_event", "ns",
       MedianOver(tr,
                  [](const Simulation& s) {
                    return Ratio((s.trace->run_ticks - s.trace->top_ticks) * s.trace->ns_per_tick,
                                 s.sim.events);
                  })},
      {"hv.dispatches_per_sim_s", "1/s", o.context_switches * per_s},
      {"hv.picks_per_dispatch", "ratio", Ratio(o.schedule_calls, o.context_switches)},
      {"hv.migrations_per_sim_s", "1/s", o.migrations * per_s},
      {"host.picks_per_sim_s", "1/s", calls(Layer::kHostPick) * per_s},
      {"host.pick_ns", "ns", self_ns(Layer::kHostPick)},
      {"host.wake_ns", "ns", self_ns(Layer::kHostWake)},
      {"host.account_ns", "ns", self_ns(Layer::kHostAccount)},
      {"host.self_share", "ratio", MedianOver(tr, HostSelfShare)},
      {"rtvirt.dpwrap.replans_per_sim_s", "1/s", o.replans * per_s},
      {"rtvirt.dpwrap.timer_replan_share", "ratio",
       Ratio(o.replans - t0.replans_in_spans, o.replans)},
      {"rtvirt.dpwrap.allocs_per_replan", "ratio",
       Ratio(o.steady_allocs - t0.steady_allocs_in_spans, t0.steady_replans)},
      {"channel.calls_per_sim_s", "1/s", ch.calls * per_s},
      {"channel.call_ns", "ns", self_ns(Layer::kChannel)},
      {"channel.span_ns", "ns",
       MedianOver(tr,
                  [](const Simulation& s) {
                    const LayerStats& c = s.trace->layers[static_cast<int>(Layer::kChannel)];
                    return Ratio(c.ticks * s.trace->ns_per_tick, c.calls);
                  })},
      {"channel.reject_ratio", "ratio", Ratio(t0.bw_refusals, t0.bw_requests)},
      {"guest.jobs_per_sim_s", "1/s", (o.rt_jobs + o.mc_requests) * per_s},
      {"guest.deadline_publishes_per_sim_s", "1/s", t0.deadline_publishes * per_s},
      {"workloads.mc_requests_per_sim_s", "1/s", o.mc_requests * per_s},
      {"analysis.setup_share", "ratio",
       MedianOver(r.plain(),
                  [](const Simulation& s) { return Ratio(s.host.analysis_s, s.host.setup_s); })},
      {"steady_allocs_per_sim_s", "1/s", o.steady_allocs / (o.sim_s - 1.0)},
      {"trace.overhead_pct", "%",
       100 * (Ratio(MedianOver(r.plain(), SimSpeed), MedianOver(tr, SimSpeed)) - 1)},
  };
}

void PrintOutcome(const Runner& r) {
  const SimOutcome& o = *r.reference();
  std::printf("simulated outcome (%.1f simulated s; identical in every simulation):\n", o.sim_s);
  std::printf("  RTA jobs %llu, deadline misses %llu\n",
              static_cast<unsigned long long>(o.rt_jobs),
              static_cast<unsigned long long>(o.rt_misses));
  std::printf("  memcached requests %llu, over the 500 us SLO %llu\n",
              static_cast<unsigned long long>(o.mc_requests),
              static_cast<unsigned long long>(o.mc_over_slo));
  std::printf("  latency p50 %.2f us, p99.9 %.2f us over %llu samples (%s)\n", o.latency_p50_us,
              o.latency_p999_us, static_cast<unsigned long long>(o.latency_samples),
              o.mc_requests > 0 ? "memcached requests" : "RTA jobs");
  std::printf("  admissions %llu, refused %llu; reserved %.4f CPUs; overhead %.4f%%\n",
              static_cast<unsigned long long>(o.admit_attempts),
              static_cast<unsigned long long>(o.admit_refused), o.reserved_cpus,
              o.overhead_pct);
  std::printf("  events %llu (schedules %llu, cancels %llu, pops %llu); picks %llu, "
              "dispatches %llu, migrations %llu, hypercalls %llu, replans %llu; "
              "steady allocs %llu\n",
              static_cast<unsigned long long>(o.events),
              static_cast<unsigned long long>(o.schedules),
              static_cast<unsigned long long>(o.cancels),
              static_cast<unsigned long long>(o.pops),
              static_cast<unsigned long long>(o.schedule_calls),
              static_cast<unsigned long long>(o.context_switches),
              static_cast<unsigned long long>(o.migrations),
              static_cast<unsigned long long>(o.hypercalls),
              static_cast<unsigned long long>(o.replans),
              static_cast<unsigned long long>(o.steady_allocs));
}

void PrintLayerTable(const Runner& r) {
  const auto& tr = r.traced();
  const double sim_s = r.reference()->sim_s;
  std::printf("per-layer spans (medians over %zu traced simulations; self = span minus "
              "nested spans):\n",
              tr.size());
  std::printf("  %-16s %12s %12s %12s %12s %12s %10s\n", "span", "calls", "calls/sim_s",
              "self_ns", "span_ns", "allocs/call", "self_share");
  for (int l = 0; l < kNumLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    const LayerStats& st = tr.front().trace->layers[l];
    double span_ns = MedianOver(tr, [l](const Simulation& s) {
      return Ratio(s.trace->layers[l].ticks * s.trace->ns_per_tick, s.trace->layers[l].calls);
    });
    double share = MedianOver(tr, [l](const Simulation& s) {
      return Ratio(s.trace->layers[l].self_ticks, s.trace->run_ticks);
    });
    std::printf("  %-16s %12llu %12.1f %12.1f %12.1f %12.4f %10.4f\n", LayerName(layer),
                static_cast<unsigned long long>(st.calls), st.calls / sim_s,
                MedianOver(tr, [layer](const Simulation& s) { return SelfNsPerCall(s, layer); }),
                span_ns, Ratio(st.self_allocs, st.calls), share);
  }
  double residual = MedianOver(tr, [](const Simulation& s) {
    return Ratio(s.trace->run_ticks - s.trace->top_ticks, s.trace->run_ticks);
  });
  std::printf("  %-16s %12s %12s %12s %12s %12s %10.4f\n", "residual", "-", "-", "-", "-", "-",
              residual);
  std::printf("tracing overhead: untraced %.2f vs traced %.2f simulated s per host s\n",
              MedianOver(r.plain(), SimSpeed), MedianOver(tr, SimSpeed));
}

void PrintJson(bool correct, const RunAccount& account, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(account.attempted()),
              static_cast<unsigned long long>(account.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;  // Valid JSON.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::optional<Args> args = Parse(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: rtbench --workload mc_video|rtxen_scale|video_churn --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  Runner runner(args->workload, args->seed, DefaultShape(args->workload));
  const double start = perf::MonotonicNowNs() * 1e-9;
  const double hard_stop = start + kMaxRunSeconds;
  if (args->trace) {
    runner.RunUntil(false, start + args->seconds / 2, hard_stop);
    runner.RunUntil(true, start + args->seconds, hard_stop);
  } else {
    runner.RunUntil(false, start + args->seconds, hard_stop);
  }

  std::printf("rtbench workload=%s seed=%llu trace=%d: %zu Experiment + %zu traced simulations "
              "in %.1f host s\n",
              WorkloadName(args->workload), static_cast<unsigned long long>(args->seed),
              args->trace ? 1 : 0, runner.plain().size(), runner.traced().size(),
              perf::MonotonicNowNs() * 1e-9 - start);
  const RunAccount& account = runner.account();
  bool measured = !runner.plain().empty() && (!args->trace || !runner.traced().empty());
  std::vector<Metric> metrics;
  if (measured) {
    PrintOutcome(runner);
    if (args->trace) {
      PrintLayerTable(runner);
      metrics = PerLayer(runner);
    } else {
      metrics = EndToEnd(runner);
    }
    std::printf("%s metrics:\n", args->trace ? "per-layer" : "end-to-end");
    for (const Metric& m : metrics) {
      std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  // A metric that is not a finite number fails the run (it prints as 0).
  bool finite = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("  FAIL metric %s is not finite\n", m.name.c_str());
      finite = false;
    }
  }
  const bool correct = account.correct() && finite;
  std::printf("operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(account.attempted()),
              static_cast<unsigned long long>(account.failed()));
  std::printf("checks: %s\n", correct ? "PASS" : "FAIL");
  const size_t kShown = 10;
  for (size_t i = 0; i < account.failures().size() && i < kShown; ++i) {
    std::printf("  FAIL %s\n", account.failures()[i].c_str());
  }
  if (account.failures().size() > kShown) {
    std::printf("  ... %zu more\n", account.failures().size() - kShown);
  }
  if (!measured) {
    std::fflush(stdout);
    return 1;
  }
  PrintJson(correct, account, metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace rtbench

int main(int argc, char** argv) { return rtbench::Main(argc, argv); }
