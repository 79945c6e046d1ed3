// Canonical checkpointable scenario + digest-trail helpers (DESIGN.md §10).
//
// The scenario is the fixed workload the checkpoint tooling agrees on: the
// rtvirt_runner CLI, bench/checkpoint_resilience and tests/checkpoint_test
// all build the *same* seeded RTVirt experiment (2 VMs x 2 VCPUs, periodic
// RTAs under a DeadlineMonitor, optional hypercall faults), so a checkpoint
// written by any of them restores under any other. Determinism makes the
// whole scenario a pure function of (seed, options); the restore contract
// additionally requires the saving and restoring processes to register the
// same checkpointables in the same order, which BuildCkptScenario guarantees
// by construction.
//
// On top of the scenario, the digest-trail helpers drive the divergence
// auditor: run interval by interval, checkpoint at each boundary, keep the
// per-section FNV digests, and diff two trails (live vs live, or live vs a
// recorded file) down to the first forked interval and the component(s)
// whose digest broke first.

#ifndef SRC_RUNNER_CKPT_SCENARIO_H_
#define SRC_RUNNER_CKPT_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/metrics/deadline_monitor.h"
#include "src/runner/experiment.h"
#include "src/workloads/periodic.h"

namespace rtvirt {

struct CkptScenarioOptions {
  uint64_t seed = 42;
  // Workload stop time; the simulation itself can run past it.
  TimeNs horizon = Sec(2);
  // Transient hypercall faults (exercises the injector's RNG + event state).
  bool faults = true;
};

// The scenario bundle. Destruction order matters: workloads and the monitor
// reference tasks owned by the experiment, so `exp` is declared first (and
// destroyed last).
struct CkptScenario {
  CkptScenarioOptions options;
  std::unique_ptr<Experiment> exp;
  DeadlineMonitor monitor;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;

  // Fresh path only: starts every RTA's register/release chain at t=0. A
  // restored scenario must NOT be started — its chains come back through the
  // checkpoint's event section.
  void Start();
};

// Builds (but does not start) the scenario: experiment, guests, workloads,
// monitor, and the checkpoint registry in its canonical order.
std::unique_ptr<CkptScenario> BuildCkptScenario(const CkptScenarioOptions& options);

// ---------------------------------------------------------------------------
// Digest trails.

struct IntervalDigest {
  int interval = 0;  // 0-based; boundary at t = (interval + 1) * interval_ns.
  TimeNs t = 0;      // Virtual time of the boundary.
  ckpt::StateDigest digest;
};

// Advances `s` interval by interval to `intervals * interval_ns`, saving a
// checkpoint at each boundary and appending its digest to `out`. When
// `image_out` is non-null it receives the final boundary's checkpoint image.
// Returns "" on success or the SaveCheckpoint error.
std::string RecordDigestTrail(CkptScenario& s, TimeNs interval_ns, int intervals,
                              std::vector<IntervalDigest>* out,
                              ckpt::Image* image_out = nullptr);

// One ToLine per boundary, newline-terminated — the --record-digests format.
std::string TrailToText(const std::vector<IntervalDigest>& trail);
// Parses TrailToText output (ignoring blank lines). Returns "" on success or
// an error naming the malformed line.
std::string ParseTrail(const std::string& text, std::vector<IntervalDigest>* out);

struct DivergenceReport {
  bool diverged = false;
  int interval = -1;  // First divergent interval.
  TimeNs t = 0;
  std::vector<std::string> forked;  // Sections whose digests differ there.
  std::string summary;              // Human-readable multi-line breakdown.
};

// Diffs two trails (expected vs actual) down to the first forked boundary.
// Trails of different lengths diverge at the first missing interval.
DivergenceReport CompareTrails(const std::vector<IntervalDigest>& expected,
                               const std::vector<IntervalDigest>& actual);

}  // namespace rtvirt

#endif  // SRC_RUNNER_CKPT_SCENARIO_H_
