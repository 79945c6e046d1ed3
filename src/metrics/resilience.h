// Resilience counters: what the fault injector did, how the guest channel
// and the guests coped, what DP-WRAP's watchdog, pressure and trust defences
// did, and what the auditor, the SLO controller and the cluster federation
// saw.
//
// Each counter is declared once, in the stats struct of the component that
// increments it. Every struct carries `kFields`, its counters as member
// pointers in the order the owner's checkpoint writes them; aggregation and
// checkpointing loop over that list. ResilienceCounters composes the
// structs, and one report table (resilience.cc) gives each printed counter
// its section, row name and display divisor. The structs are header-only so
// their owners hold them without linking the metrics layer.

#ifndef SRC_METRICS_RESILIENCE_H_
#define SRC_METRICS_RESILIENCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <variant>

#include "src/sim/event_queue.h"

namespace rtvirt {

// Injected faults (FaultInjector).
struct FaultStats {
  uint64_t hypercall_attempts = 0;   // Calls seen by the injector.
  uint64_t injected_failures = 0;    // Random transient -EAGAIN.
  uint64_t injected_drops = 0;       // Random dropped calls.
  uint64_t injected_spikes = 0;      // Random latency spikes.
  uint64_t outage_failures = 0;      // Calls failed inside an outage window.
  uint64_t vm_crashes = 0;
  uint64_t vm_restarts = 0;
  // PCPU fault events actually fired (paired per transient/degrade window).
  uint64_t pcpu_offline_events = 0;  // Permanent failures + transient offlines.
  uint64_t pcpu_online_events = 0;   // Re-onlines closing transient windows.
  uint64_t pcpu_degrade_events = 0;  // Throttle applications.
  uint64_t pcpu_heal_events = 0;     // Full speed restored.
  // Adversarial-guest events actually issued.
  uint64_t deadline_lies = 0;   // Hostile shared-page publications.
  uint64_t storm_calls = 0;     // Hypercall-storm calls issued.
  uint64_t thrash_calls = 0;    // Bandwidth-thrash calls issued.
  // Controller-adversary events (ControlFault).
  uint64_t control_outage_failures = 0;  // Calls failed in a per-VM outage.
  uint64_t control_stale_windows = 0;    // Stale-page windows opened.

  static constexpr std::array kFields = {
      &FaultStats::hypercall_attempts, &FaultStats::injected_failures, &FaultStats::injected_drops,
      &FaultStats::injected_spikes, &FaultStats::outage_failures, &FaultStats::vm_crashes,
      &FaultStats::vm_restarts, &FaultStats::pcpu_offline_events, &FaultStats::pcpu_online_events,
      &FaultStats::pcpu_degrade_events, &FaultStats::pcpu_heal_events, &FaultStats::deadline_lies,
      &FaultStats::storm_calls, &FaultStats::thrash_calls, &FaultStats::control_outage_failures,
      &FaultStats::control_stale_windows
  };
};

// Guest-channel recovery (RtvirtGuestChannel), one per RTVirt guest.
struct ChannelStats {
  uint64_t transient_failures = 0;  // -EAGAIN observations (incl. retries).
  uint64_t retries = 0;             // Re-issued attempts.
  uint64_t retry_successes = 0;     // Calls that recovered within the retry budget.
  uint64_t degraded_entries = 0;    // Transitions into degraded mode.
  uint64_t recoveries = 0;          // Degraded -> normal transitions.
  uint64_t repair_attempts = 0;     // Async repair probes issued.
  uint64_t backoff_time = 0;        // Virtual ns spent backing off in-call.

  static constexpr std::array kFields = {
      &ChannelStats::transient_failures, &ChannelStats::retries, &ChannelStats::retry_successes,
      &ChannelStats::degraded_entries, &ChannelStats::recoveries, &ChannelStats::repair_attempts,
      &ChannelStats::backoff_time
  };
};

// Host scheduler (DpWrapScheduler): plan activity, the crash watchdog,
// overload pressure and the guest_trust defences.
struct DpWrapStats {
  uint64_t replans = 0;
  uint64_t watchdog_reclaims = 0;  // Reservations reclaimed from crashed VMs.
  uint64_t stale_rejections = 0;   // Stale publications past the freshness horizon.
  uint64_t capacity_replans = 0;   // Re-plans on PCPU capacity events (pcpu_recovery).
  uint64_t pressure_raises = 0;
  uint64_t pressure_clears = 0;
  uint64_t shed_releases = 0;            // DEC_BW with kBwReasonOverloadShed.
  uint64_t admission_rejections = 0;     // Lifetime kHypercallNoBandwidth count.
  uint64_t deadline_lie_rejections = 0;  // Past-at-publish publications scored.
  uint64_t deadline_floor_clamps = 0;    // Below-floor horizons clamped (not scored).
  uint64_t replan_budget_trips = 0;      // Floor-binding budget exhaustions.
  uint64_t hypercall_rate_rejections = 0;  // Token-bucket kHypercallAgain returns.
  uint64_t bw_thrash_trips = 0;          // INC/DEC oscillation violations.
  uint64_t quarantines = 0;
  uint64_t quarantine_releases = 0;
  uint64_t quarantine_holds = 0;         // Bandwidth raises held while quarantined.

  static constexpr std::array kFields = {
      &DpWrapStats::replans, &DpWrapStats::watchdog_reclaims, &DpWrapStats::stale_rejections,
      &DpWrapStats::capacity_replans, &DpWrapStats::pressure_raises, &DpWrapStats::pressure_clears,
      &DpWrapStats::shed_releases, &DpWrapStats::admission_rejections,
      &DpWrapStats::deadline_lie_rejections, &DpWrapStats::deadline_floor_clamps,
      &DpWrapStats::replan_budget_trips, &DpWrapStats::hypercall_rate_rejections,
      &DpWrapStats::bw_thrash_trips, &DpWrapStats::quarantines, &DpWrapStats::quarantine_releases,
      &DpWrapStats::quarantine_holds
  };
  // The checkpoint writes the first kPlanFields counters before the
  // pressure state and the rest after it.
  static constexpr size_t kPlanFields = 4;
};

// Guest-side mixed-criticality degradation (GuestOs).
struct GuestOverloadStats {
  uint64_t compressions = 0;        // Elastic reservations squeezed to min.
  uint64_t expansions = 0;          // Compressed reservations re-inflated.
  uint64_t sheds = 0;               // Tasks suspended by overload control.
  uint64_t resumes = 0;             // Shed tasks re-admitted.
  uint64_t shed_job_drops = 0;      // Job releases dropped while shed.
  uint64_t overload_admissions = 0; // Registrations admitted only via degradation.

  static constexpr std::array kFields = {
      &GuestOverloadStats::compressions, &GuestOverloadStats::expansions,
      &GuestOverloadStats::sheds, &GuestOverloadStats::resumes, &GuestOverloadStats::shed_job_drops,
      &GuestOverloadStats::overload_admissions
  };
};

// Invariant auditor (InvariantAuditor).
struct AuditStats {
  uint64_t checks_run = 0;
  uint64_t total_violations = 0;      // Stored violations are capped; this is not.
  uint64_t isolation_violations = 0;  // Violations of the guest_trust boundary.

  static constexpr std::array kFields = {
      &AuditStats::checks_run, &AuditStats::total_violations, &AuditStats::isolation_violations
  };
};

// Closed-loop SLO controller (SloController).
struct ControlStats {
  uint64_t samples = 0;              // Response-time samples observed.
  uint64_t decisions = 0;            // Ticks with enough samples to evaluate.
  uint64_t inc_adjustments = 0;
  uint64_t dec_adjustments = 0;
  uint64_t hysteresis_holds = 0;     // In-band: no action by design.
  uint64_t demand_floor_holds = 0;   // DEC withheld: slice is load-bearing.
  uint64_t pressure_holds = 0;       // INC withheld under host pressure.
  uint64_t ladder_holds = 0;         // Tenant shed/compressed by the degradation ladder.
  uint64_t rate_limit_holds = 0;     // Per-window adjustment budget exhausted.
  uint64_t windup_clamps = 0;        // Integrator hit the anti-windup clamp.
  uint64_t actuation_failures = 0;   // SchedSetAttr adjustments rejected.
  uint64_t saturation_events = 0;    // Handed off to the degradation ladder.
  uint64_t saturations_resolved = 0; // Tail recovered after a handoff.
  uint64_t freezes = 0;              // Fail-static entries.
  uint64_t reengage_probes = 0;      // Probes issued while frozen.
  uint64_t reengages = 0;            // Frozen -> engaged transitions.

  static constexpr std::array kFields = {
      &ControlStats::samples, &ControlStats::decisions, &ControlStats::inc_adjustments,
      &ControlStats::dec_adjustments, &ControlStats::hysteresis_holds,
      &ControlStats::demand_floor_holds, &ControlStats::pressure_holds, &ControlStats::ladder_holds,
      &ControlStats::rate_limit_holds, &ControlStats::windup_clamps,
      &ControlStats::actuation_failures, &ControlStats::saturation_events,
      &ControlStats::saturations_resolved, &ControlStats::freezes, &ControlStats::reengage_probes,
      &ControlStats::reengages
  };
};

// Cluster federation (Federation): host-level fault events, failure-driven
// evacuation, and the migration retry/backoff/degradation machinery.
struct ClusterStats {
  uint64_t host_crashes = 0;
  uint64_t host_outages = 0;
  uint64_t host_degrades = 0;
  uint64_t host_heals = 0;
  uint64_t vms_admitted = 0;
  uint64_t vms_rejected = 0;
  uint64_t evacuations = 0;
  uint64_t migration_attempts = 0;
  uint64_t migration_retries = 0;
  uint64_t migration_rebalances = 0;
  uint64_t rebalance_moves = 0;
  uint64_t migration_aborts = 0;      // In-flight target died; re-routed.
  uint64_t migration_successes = 0;
  uint64_t degraded_placements = 0;   // Landed via the compress/shed floors.
  uint64_t evacuations_unresolved = 0;
  uint64_t vm_unavailable_ns = 0;     // Blackout charged across all moves.

  static constexpr std::array kFields = {
      &ClusterStats::host_crashes, &ClusterStats::host_outages, &ClusterStats::host_degrades,
      &ClusterStats::host_heals, &ClusterStats::vms_admitted, &ClusterStats::vms_rejected,
      &ClusterStats::evacuations, &ClusterStats::migration_attempts,
      &ClusterStats::migration_retries, &ClusterStats::migration_rebalances,
      &ClusterStats::rebalance_moves, &ClusterStats::migration_aborts,
      &ClusterStats::migration_successes, &ClusterStats::degraded_placements,
      &ClusterStats::evacuations_unresolved, &ClusterStats::vm_unavailable_ns
  };
};

// Adds every counter in S::kFields of `from` into `into`.
template <class S>
void AddCounters(S& into, const S& from) {
  for (auto field : S::kFields) {
    into.*field += from.*field;
  }
}

struct ResilienceCounters {
  FaultStats faults;
  ChannelStats channel;       // Summed over all RTVirt guests.
  DpWrapStats host;
  GuestOverloadStats guest;   // Summed over all guests.
  AuditStats audit;           // Zero when no auditor was armed.
  ControlStats control;       // Zero when no controller was armed.
  ClusterStats cluster;       // Zero for single-host runs.
  uint64_t pcpu_evacuations = 0;  // Forced VCPU evacuations (Machine).

  // Allocation profile (perf subsystem, alloc_hooks): operator-new counts
  // split between warm-up (construction through the end of the first Run)
  // and steady state, plus event-queue node-storage allocations. Always
  // filled by the runner; printed only when `alloc_section` is set
  // (ExperimentConfig::report_alloc / RTVIRT_REPORT_ALLOC), so reports from
  // runs that did not opt in stay byte-identical.
  bool alloc_section = false;
  uint64_t warmup_allocs = 0;
  uint64_t warmup_alloc_bytes = 0;
  uint64_t steady_allocs = 0;
  uint64_t steady_alloc_bytes = 0;
  uint64_t peak_rss_kb = 0;  // Aggregates as the max, not the sum.
  EventQueueStats event_queue;

  // The counters held directly here that aggregate as sums.
  static constexpr std::array kFields = {
      &ResilienceCounters::pcpu_evacuations, &ResilienceCounters::warmup_allocs,
      &ResilienceCounters::warmup_alloc_bytes, &ResilienceCounters::steady_allocs,
      &ResilienceCounters::steady_alloc_bytes
  };

  uint64_t TotalInjected() const {
    return faults.injected_failures + faults.injected_drops + faults.outage_failures;
  }
};

// A section of the resilience report: printed whole or not at all, as its
// gate says.
struct ReportSection {
  enum class Gate {
    kAlways,       // Printed in every report.
    kAnyNonZero,   // Printed when any of its rows is non-zero.
    kAllocOptIn,   // Printed when ResilienceCounters::alloc_section is set.
  };
  const char* name;
  Gate gate;
};

// One row of the resilience report.
struct ReportRow {
  // The counter: a member of one part of ResilienceCounters.
  using Field = std::variant<uint64_t FaultStats::*, uint64_t ChannelStats::*,
                             uint64_t DpWrapStats::*, uint64_t GuestOverloadStats::*,
                             uint64_t AuditStats::*, uint64_t ControlStats::*,
                             uint64_t ClusterStats::*, uint64_t EventQueueStats::*,
                             uint64_t ResilienceCounters::*>;

  const ReportSection* section;
  const char* name;
  Field field;
  uint64_t divisor = 1;  // Printed value = counter / divisor.

  uint64_t& Of(ResilienceCounters& c) const;
  uint64_t Of(const ResilienceCounters& c) const;
};

// The report table, in print order.
std::span<const ReportRow> ReportRows();

// Three-column "layer counter value" dump of ReportRows(), one section per
// layer, each section printed by its gate.
void PrintResilience(std::ostream& out, const ResilienceCounters& c);

// Sums every per-run counter of `from` into `into` (cluster reports
// aggregate one ResilienceCounters per host). peak_rss_kb takes the max and
// alloc_section is OR-ed.
void AccumulateResilience(ResilienceCounters& into, const ResilienceCounters& from);

}  // namespace rtvirt

#endif  // SRC_METRICS_RESILIENCE_H_
