#include "rtbench/src/harness.h"

#include <cmath>
#include <sstream>

#include "src/common/check.h"
#include "src/perf/alloc_hooks.h"
#include "src/perf/perf_recorder.h"
#include "src/sweep/check_capture.h"

namespace rtbench {
namespace {

constexpr TimeNs kSampleStep = Ms(1);
constexpr TimeNs kWarmup = Sec(1);

uint64_t AllocsNow() { return perf::AllocNow().allocs; }

template <class Host>
double ReservedCpus(const Host& host, const Fixture& fx) {
  return host.dpwrap() != nullptr ? host.dpwrap()->total_reserved().ToDouble()
                                  : fx.server_bandwidth;
}

uint64_t Replans(const DpWrapScheduler* dpwrap) {
  return dpwrap != nullptr ? dpwrap->replans() : 0;
}

// Builds the workload on `host`, runs it and fills `out`. The host is built
// by the caller so its construction counts as set-up.
template <class Host>
void Drive(WorkloadId id, const Shape& shape, bool stepped, Host& host, Tracer* tracer,
           double t_begin, uint64_t allocs_begin, Simulation& out) {
  Fixture fx;
  BuildWorkload(id, host, fx, shape);
  RTVIRT_CHECK(fx.run_until > 2 * kWarmup, "rtbench: simulations must exceed %lld ns",
               static_cast<long long>(2 * kWarmup));
  double t_run = perf::MonotonicNowNs() * 1e-9;
  uint64_t tick_run = perf::CycleCount();

  double reserved_sum = 0;
  uint64_t reserved_samples = 0;
  uint64_t warm_allocs = 0;
  uint64_t warm_top_allocs = 0;
  uint64_t warm_replans = 0;
  auto end_warmup = [&] {
    warm_allocs = AllocsNow();
    warm_replans = Replans(host.dpwrap());
    if (tracer != nullptr) {
      warm_top_allocs = tracer->top_allocs();
    }
  };
  if (stepped) {
    for (TimeNs t = kSampleStep; t < fx.run_until; t += kSampleStep) {
      host.Run(t);
      if (t == kWarmup) {
        end_warmup();
      }
      if (t <= fx.load_end) {
        reserved_sum += ReservedCpus(host, fx);
        ++reserved_samples;
      }
    }
  } else {
    host.Run(kWarmup);
    end_warmup();
  }
  host.Run(fx.run_until);
  uint64_t allocs_end = AllocsNow();
  uint64_t tick_end = perf::CycleCount();
  double t_end = perf::MonotonicNowNs() * 1e-9;

  out.host.setup_s = t_run - t_begin;
  out.host.run_s = t_end - t_run;
  out.host.analysis_s = fx.analysis_s;
  out.host.allocs = allocs_end - allocs_begin;

  SimOutcome& o = out.sim;
  o.sim_s = ToSec(fx.run_until);
  o.rt_jobs = fx.rt.total_completed();
  o.rt_misses = fx.rt.total_misses();
  o.mc_requests = fx.mc.total_completed();
  const Samples& mc = fx.mc.response_times_us();
  o.mc_over_slo = mc.empty() ? 0
                             : mc.count() - static_cast<uint64_t>(std::llround(
                                                mc.FractionAtMost(ToUs(kMcSlo)) *
                                                static_cast<double>(mc.count())));
  const Samples& latency = fx.Latency();
  o.latency_samples = latency.count();
  o.latency_p50_us = latency.empty() ? 0 : latency.Percentile(50);
  o.latency_p999_us = latency.empty() ? 0 : latency.Percentile(99.9);
  o.admit_attempts = fx.AdmitAttempts();
  o.admit_refused = fx.AdmitRefused();
  o.reserved_cpus =
      reserved_samples == 0 ? 0 : reserved_sum / static_cast<double>(reserved_samples);
  const OverheadStats& ov = host.machine().overhead();
  o.overhead_pct = 100 * ov.Fraction(fx.run_until, host.machine().num_pcpus());
  o.events = host.sim().events_processed();
  const EventQueueStats& q = host.sim().queue_stats();
  o.schedules = q.schedules;
  o.cancels = q.cancels;
  o.pops = q.pops;
  o.schedule_calls = ov.schedule_calls;
  o.context_switches = ov.context_switches;
  o.migrations = ov.migrations;
  o.hypercalls = ov.hypercalls;
  o.replans = Replans(host.dpwrap());
  o.steady_allocs = allocs_end - warm_allocs;

  if (tracer != nullptr) {
    auto tr = std::make_unique<TraceReading>();
    for (int l = 0; l < kNumLayers; ++l) {
      tr->layers[l] = tracer->stats(static_cast<Layer>(l));
    }
    tr->run_ticks = tick_end - tick_run;
    tr->top_ticks = tracer->top_ticks();
    tr->replans_in_spans = tracer->top_replans();
    tr->steady_allocs_in_spans = tracer->top_allocs() - warm_top_allocs;
    tr->steady_replans = o.replans - warm_replans;
    tr->bw_requests = tracer->bw_requests;
    tr->bw_refusals = tracer->bw_refusals;
    tr->deadline_publishes = tracer->deadline_publishes;
    tr->ns_per_tick =
        tr->run_ticks == 0 ? 0 : out.host.run_s * 1e9 / static_cast<double>(tr->run_ticks);
    out.trace = std::move(tr);
  }
}

}  // namespace

Simulation Simulate(WorkloadId id, uint64_t seed, const Shape& shape, bool traced,
                    bool stepped) {
  Simulation out;
  ExperimentConfig cfg = WorkloadConfig(id, seed);
  double t_begin = perf::MonotonicNowNs() * 1e-9;
  uint64_t allocs_begin = AllocsNow();
  if (traced) {
    Tracer tracer;
    TracedHost host(cfg, &tracer);
    Drive(id, shape, stepped, host, &tracer, t_begin, allocs_begin, out);
  } else {
    Experiment exp(cfg);
    Drive(id, shape, stepped, exp, nullptr, t_begin, allocs_begin, out);
  }
  return out;
}

std::vector<std::string> SanityFailures(WorkloadId id, const SimOutcome& o) {
  std::vector<std::string> f;
  auto expect = [&f](bool ok, const std::string& what) {
    if (!ok) {
      f.push_back(what);
    }
  };
  expect(o.rt_jobs > 0, "no RTA job completed");
  switch (id) {
    case WorkloadId::kMcVideo: {
      std::ostringstream p999;
      p999 << o.latency_p999_us;
      expect(o.mc_requests >= 10000 && o.latency_samples == o.mc_requests,
             "fewer than 10000 memcached requests (" + std::to_string(o.mc_requests) + ")");
      expect(o.latency_p999_us <= ToUs(kMcSlo),
             "memcached p99.9 " + p999.str() + " us exceeds the 500 us SLO");
      expect(o.rt_misses == 0, std::to_string(o.rt_misses) + " video deadline misses");
      expect(o.admit_refused == 0, std::to_string(o.admit_refused) + " refused admissions");
      break;
    }
    case WorkloadId::kRtxenScale:
      expect(o.admit_attempts == 100 && o.admit_refused == 8,
             "admitted " + std::to_string(o.admit_attempts - o.admit_refused) + " of " +
                 std::to_string(o.admit_attempts) + " RTAs, expected 92 of 100");
      expect(o.rt_misses == 0, std::to_string(o.rt_misses) + " RTA deadline misses");
      break;
    case WorkloadId::kVideoChurn:
      expect(o.admit_refused > 0 && o.admit_refused < o.admit_attempts,
             "refused " + std::to_string(o.admit_refused) + " of " +
                 std::to_string(o.admit_attempts) + " admissions, expected some but not all");
      expect(o.rt_misses * 100 < o.rt_jobs,
             std::to_string(o.rt_misses) + " of " + std::to_string(o.rt_jobs) +
                 " jobs missed, expected under 1%");
      break;
  }
  return f;
}

std::vector<std::string> Differences(const SimOutcome& a, const SimOutcome& b) {
  std::vector<std::string> d;
  auto cmp = [&d](const char* field, auto x, auto y) {
    if (x != y) {
      std::ostringstream s;
      s.precision(17);
      s << field << " differs: " << x << " vs " << y;
      d.push_back(s.str());
    }
  };
  cmp("sim_s", a.sim_s, b.sim_s);
  cmp("rt_jobs", a.rt_jobs, b.rt_jobs);
  cmp("rt_misses", a.rt_misses, b.rt_misses);
  cmp("mc_requests", a.mc_requests, b.mc_requests);
  cmp("mc_over_slo", a.mc_over_slo, b.mc_over_slo);
  cmp("latency_samples", a.latency_samples, b.latency_samples);
  cmp("latency_p50_us", a.latency_p50_us, b.latency_p50_us);
  cmp("latency_p999_us", a.latency_p999_us, b.latency_p999_us);
  cmp("admit_attempts", a.admit_attempts, b.admit_attempts);
  cmp("admit_refused", a.admit_refused, b.admit_refused);
  cmp("reserved_cpus", a.reserved_cpus, b.reserved_cpus);
  cmp("overhead_pct", a.overhead_pct, b.overhead_pct);
  cmp("events", a.events, b.events);
  cmp("schedules", a.schedules, b.schedules);
  cmp("cancels", a.cancels, b.cancels);
  cmp("pops", a.pops, b.pops);
  cmp("schedule_calls", a.schedule_calls, b.schedule_calls);
  cmp("context_switches", a.context_switches, b.context_switches);
  cmp("migrations", a.migrations, b.migrations);
  cmp("hypercalls", a.hypercalls, b.hypercalls);
  cmp("replans", a.replans, b.replans);
  cmp("steady_allocs", a.steady_allocs, b.steady_allocs);
  return d;
}

void RunAccount::Add(uint64_t operations, const std::vector<std::string>& failures) {
  attempted_ += operations;
  if (!failures.empty()) {
    failed_ += operations;
    failures_.insert(failures_.end(), failures.begin(), failures.end());
  }
}

bool Runner::RunOne(bool traced) {
  Simulation s;
  try {
    sweep::ScopedCheckCapture capture;
    s = Simulate(workload_, seed_, shape_, traced);
  } catch (const sweep::CheckFailure& e) {
    account_.Add(reference_.has_value() ? reference_->Operations() : 1,
                 {"simulation aborted: " + e.message});
    aborted_ = true;
    return false;
  }
  std::vector<std::string> failures = SanityFailures(workload_, s.sim);
  if (reference_.has_value()) {
    for (const std::string& d : Differences(*reference_, s.sim)) {
      failures.push_back(std::string(traced ? "traced" : "repeated") + " simulation: " + d);
    }
  } else {
    reference_ = s.sim;
  }
  account_.Add(s.sim.Operations(), failures);
  (traced ? traced_ : plain_).push_back(std::move(s));
  return true;
}

void Runner::RunUntil(bool traced, double until, double hard_stop) {
  const std::vector<Simulation>& done = traced ? traced_ : plain_;
  auto now_s = [] { return perf::MonotonicNowNs() * 1e-9; };
  while (!aborted_ && (done.size() < kMinSimulations || now_s() < until) && now_s() < hard_stop) {
    RunOne(traced);
  }
}

}  // namespace rtbench
