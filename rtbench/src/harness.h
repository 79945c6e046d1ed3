// One simulation of a workload on either host assembly, the checks a run
// makes on it, and the failure accounting.

#ifndef RTBENCH_SRC_HARNESS_H_
#define RTBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtbench/src/traced_host.h"
#include "rtbench/src/workloads.h"

namespace rtbench {

// Simulated-time results and exact work counters of one simulation. For a
// given workload, seed and shape every field is deterministic, so repeats
// (and the traced assembly) must agree bit for bit.
struct SimOutcome {
  double sim_s = 0;  // Simulated seconds run (load plus drain).
  // Deadline-monitored periodic/video RTA jobs and how many missed.
  uint64_t rt_jobs = 0;
  uint64_t rt_misses = 0;
  // Memcached requests completed and how many exceeded the 500 us SLO.
  uint64_t mc_requests = 0;
  uint64_t mc_over_slo = 0;
  // The workload's latency samples (see Fixture::Latency), in us.
  uint64_t latency_samples = 0;
  double latency_p50_us = 0;
  double latency_p999_us = 0;
  uint64_t admit_attempts = 0;
  uint64_t admit_refused = 0;
  // Time-averaged bandwidth the host scheduler holds reserved, in CPUs,
  // sampled every simulated millisecond over the load span.
  double reserved_cpus = 0;
  // Table 6 overhead (schedule, context switch, migration, hypercall time)
  // as a percentage of machine time.
  double overhead_pct = 0;
  // Event core.
  uint64_t events = 0;
  uint64_t schedules = 0;
  uint64_t cancels = 0;
  uint64_t pops = 0;
  // Machine (hv) and host scheduler.
  uint64_t schedule_calls = 0;
  uint64_t context_switches = 0;
  uint64_t migrations = 0;
  uint64_t hypercalls = 0;
  uint64_t replans = 0;  // DP-WRAP only.
  // operator-new calls after the first simulated second (warm-up).
  uint64_t steady_allocs = 0;

  // Operations of the run: jobs due, memcached requests, admission attempts.
  uint64_t Operations() const { return rt_jobs + mc_requests + admit_attempts; }
};

// Per-layer readings of a traced simulation.
struct TraceReading {
  std::array<LayerStats, kNumLayers> layers{};
  uint64_t run_ticks = 0;
  uint64_t top_ticks = 0;
  uint64_t replans_in_spans = 0;
  uint64_t steady_allocs_in_spans = 0;
  uint64_t steady_replans = 0;
  uint64_t bw_requests = 0;
  uint64_t bw_refusals = 0;
  uint64_t deadline_publishes = 0;
  double ns_per_tick = 0;
};

// Host-time cost of one simulation.
struct HostCost {
  double setup_s = 0;  // Building the host assembly and the workloads.
  double run_s = 0;    // From the first Run to the end of the simulation.
  double analysis_s = 0;  // Part of setup_s spent in CARTS/DMPR.
  uint64_t allocs = 0;    // operator-new calls from set-up to the end.
};

struct Simulation {
  SimOutcome sim;
  HostCost host;
  std::unique_ptr<TraceReading> trace;  // Traced assembly only.
};

// Runs one simulation on the Experiment assembly, or on the traced assembly
// when `traced`. `stepped` samples reserved bandwidth by advancing Run in
// 1 ms steps; false runs to the end in a single Run call (reserved_cpus
// then stays 0), the way the repository's benches drive an Experiment.
Simulation Simulate(WorkloadId id, uint64_t seed, const Shape& shape, bool traced,
                    bool stepped = true);

// The paper-sanity checks of one outcome; each failure is one message.
// mc_video meets the 500 us p99.9 SLO over >= 10k requests with no video
// miss; rtxen_scale admits 92 of 100 RTAs and misses nothing; video_churn
// refuses some but not all admissions and misses under 1% of its jobs.
std::vector<std::string> SanityFailures(WorkloadId id, const SimOutcome& outcome);

// Lists every field in which `outcome` differs from `reference`; empty when
// the two agree bit for bit.
std::vector<std::string> Differences(const SimOutcome& reference, const SimOutcome& outcome);

// Failure accounting over the simulations of one run: every operation of a
// simulation that aborted or failed a check counts as failed.
class RunAccount {
 public:
  void Add(uint64_t operations, const std::vector<std::string>& failures);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// The simulations of one benchmark run. Every simulation must pass the
// sanity checks and agree bit for bit with the first one (the reference),
// whichever assembly ran it; a simulation that fails a check or aborts on an
// RTVIRT_CHECK counts all its operations as failed.
class Runner {
 public:
  // Each assembly runs at least this many simulations, so repeats compare.
  static constexpr size_t kMinSimulations = 3;

  Runner(WorkloadId workload, uint64_t seed, Shape shape)
      : workload_(workload), seed_(seed), shape_(shape) {}

  // Runs one simulation; false if it aborted (a run stops at the first abort).
  bool RunOne(bool traced);
  // Runs simulations on one assembly until the steady clock passes `until`
  // (and at least kMinSimulations), never starting one after `hard_stop`.
  void RunUntil(bool traced, double until, double hard_stop);

  const RunAccount& account() const { return account_; }
  const std::vector<Simulation>& plain() const { return plain_; }
  const std::vector<Simulation>& traced() const { return traced_; }
  const std::optional<SimOutcome>& reference() const { return reference_; }

 private:
  WorkloadId workload_;
  uint64_t seed_;
  Shape shape_;
  RunAccount account_;
  std::optional<SimOutcome> reference_;
  std::vector<Simulation> plain_;
  std::vector<Simulation> traced_;
  bool aborted_ = false;
};

}  // namespace rtbench

#endif  // RTBENCH_SRC_HARNESS_H_
