#include "src/metrics/resilience.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>

#include "src/metrics/report.h"

namespace rtvirt {

namespace {

using Gate = ReportSection::Gate;
using RC = ResilienceCounters;

// Gated sections stay out of reports from runs whose subsystem never fired
// or was never armed, so those reports are unchanged by the subsystem.
constexpr ReportSection kInjected{"injected", Gate::kAlways};
constexpr ReportSection kGuest{"guest", Gate::kAlways};
constexpr ReportSection kHost{"host", Gate::kAlways};
constexpr ReportSection kOverload{"overload", Gate::kAnyNonZero};
constexpr ReportSection kPcpu{"pcpu", Gate::kAnyNonZero};
constexpr ReportSection kTrust{"trust", Gate::kAnyNonZero};
constexpr ReportSection kAudit{"audit", Gate::kAnyNonZero};
constexpr ReportSection kControl{"control", Gate::kAnyNonZero};
constexpr ReportSection kCluster{"cluster", Gate::kAnyNonZero};
// RSS and warm-up counts vary across builds and would break byte-identical
// report comparisons, so this section is opt-in.
constexpr ReportSection kAlloc{"alloc", Gate::kAllocOptIn};

constexpr ReportRow kRows[] = {
    {&kInjected, "hypercall_attempts", &FaultStats::hypercall_attempts},
    {&kInjected, "transient_failures", &FaultStats::injected_failures},
    {&kInjected, "dropped_calls", &FaultStats::injected_drops},
    {&kInjected, "latency_spikes", &FaultStats::injected_spikes},
    {&kInjected, "outage_failures", &FaultStats::outage_failures},
    {&kInjected, "vm_crashes", &FaultStats::vm_crashes},
    {&kInjected, "vm_restarts", &FaultStats::vm_restarts},
    {&kGuest, "transient_failures_seen", &ChannelStats::transient_failures},
    {&kGuest, "retries", &ChannelStats::retries},
    {&kGuest, "retry_successes", &ChannelStats::retry_successes},
    {&kGuest, "degraded_entries", &ChannelStats::degraded_entries},
    {&kGuest, "recoveries", &ChannelStats::recoveries},
    {&kGuest, "repair_attempts", &ChannelStats::repair_attempts},
    {&kGuest, "backoff_time_us", &ChannelStats::backoff_time, 1000},
    {&kHost, "watchdog_reclaims", &DpWrapStats::watchdog_reclaims},
    {&kHost, "stale_deadline_rejections", &DpWrapStats::stale_rejections},
    {&kOverload, "pressure_raises", &DpWrapStats::pressure_raises},
    {&kOverload, "pressure_clears", &DpWrapStats::pressure_clears},
    {&kOverload, "admission_rejections", &DpWrapStats::admission_rejections},
    {&kOverload, "shed_releases", &DpWrapStats::shed_releases},
    {&kOverload, "compressions", &GuestOverloadStats::compressions},
    {&kOverload, "expansions", &GuestOverloadStats::expansions},
    {&kOverload, "sheds", &GuestOverloadStats::sheds},
    {&kOverload, "resumes", &GuestOverloadStats::resumes},
    {&kOverload, "shed_job_drops", &GuestOverloadStats::shed_job_drops},
    {&kOverload, "overload_admissions", &GuestOverloadStats::overload_admissions},
    {&kPcpu, "offline_events", &FaultStats::pcpu_offline_events},
    {&kPcpu, "online_events", &FaultStats::pcpu_online_events},
    {&kPcpu, "degrade_events", &FaultStats::pcpu_degrade_events},
    {&kPcpu, "heal_events", &FaultStats::pcpu_heal_events},
    {&kPcpu, "vcpu_evacuations", &RC::pcpu_evacuations},
    {&kPcpu, "capacity_replans", &DpWrapStats::capacity_replans},
    {&kTrust, "adversarial_deadline_lies", &FaultStats::deadline_lies},
    {&kTrust, "adversarial_storm_calls", &FaultStats::storm_calls},
    {&kTrust, "adversarial_thrash_calls", &FaultStats::thrash_calls},
    {&kTrust, "deadline_lie_rejections", &DpWrapStats::deadline_lie_rejections},
    {&kTrust, "deadline_floor_clamps", &DpWrapStats::deadline_floor_clamps},
    {&kTrust, "replan_budget_trips", &DpWrapStats::replan_budget_trips},
    {&kTrust, "hypercall_rate_rejections", &DpWrapStats::hypercall_rate_rejections},
    {&kTrust, "bw_thrash_trips", &DpWrapStats::bw_thrash_trips},
    {&kTrust, "quarantines", &DpWrapStats::quarantines},
    {&kTrust, "quarantine_releases", &DpWrapStats::quarantine_releases},
    {&kTrust, "quarantine_holds", &DpWrapStats::quarantine_holds},
    {&kTrust, "isolation_violations", &AuditStats::isolation_violations},
    {&kAudit, "checks_run", &AuditStats::checks_run},
    {&kAudit, "violations", &AuditStats::total_violations},
    {&kControl, "samples", &ControlStats::samples},
    {&kControl, "decisions", &ControlStats::decisions},
    {&kControl, "inc_adjustments", &ControlStats::inc_adjustments},
    {&kControl, "dec_adjustments", &ControlStats::dec_adjustments},
    {&kControl, "hysteresis_holds", &ControlStats::hysteresis_holds},
    {&kControl, "demand_floor_holds", &ControlStats::demand_floor_holds},
    {&kControl, "pressure_holds", &ControlStats::pressure_holds},
    {&kControl, "ladder_holds", &ControlStats::ladder_holds},
    {&kControl, "rate_limit_holds", &ControlStats::rate_limit_holds},
    {&kControl, "windup_clamps", &ControlStats::windup_clamps},
    {&kControl, "actuation_failures", &ControlStats::actuation_failures},
    {&kControl, "saturation_events", &ControlStats::saturation_events},
    {&kControl, "saturations_resolved", &ControlStats::saturations_resolved},
    {&kControl, "freezes", &ControlStats::freezes},
    {&kControl, "reengage_probes", &ControlStats::reengage_probes},
    {&kControl, "reengages", &ControlStats::reengages},
    {&kControl, "injected_outage_failures", &FaultStats::control_outage_failures},
    {&kControl, "injected_stale_windows", &FaultStats::control_stale_windows},
    {&kCluster, "host_crashes", &ClusterStats::host_crashes},
    {&kCluster, "host_outages", &ClusterStats::host_outages},
    {&kCluster, "host_degrades", &ClusterStats::host_degrades},
    {&kCluster, "host_heals", &ClusterStats::host_heals},
    {&kCluster, "vms_admitted", &ClusterStats::vms_admitted},
    {&kCluster, "vms_rejected", &ClusterStats::vms_rejected},
    {&kCluster, "evacuations", &ClusterStats::evacuations},
    {&kCluster, "migration_attempts", &ClusterStats::migration_attempts},
    {&kCluster, "migration_retries", &ClusterStats::migration_retries},
    {&kCluster, "migration_rebalances", &ClusterStats::migration_rebalances},
    {&kCluster, "rebalance_moves", &ClusterStats::rebalance_moves},
    {&kCluster, "migration_aborts", &ClusterStats::migration_aborts},
    {&kCluster, "migration_successes", &ClusterStats::migration_successes},
    {&kCluster, "degraded_placements", &ClusterStats::degraded_placements},
    {&kCluster, "evacuations_unresolved", &ClusterStats::evacuations_unresolved},
    {&kCluster, "vm_unavailable_ms", &ClusterStats::vm_unavailable_ns, 1000000},
    {&kAlloc, "warmup_allocs", &RC::warmup_allocs},
    {&kAlloc, "warmup_alloc_kb", &RC::warmup_alloc_bytes, 1024},
    {&kAlloc, "steady_allocs", &RC::steady_allocs},
    {&kAlloc, "steady_alloc_kb", &RC::steady_alloc_bytes, 1024},
    {&kAlloc, "peak_rss_kb", &RC::peak_rss_kb},
    {&kAlloc, "eq_schedules", &EventQueueStats::schedules},
    {&kAlloc, "eq_cancels", &EventQueueStats::cancels},
    {&kAlloc, "eq_pops", &EventQueueStats::pops},
    {&kAlloc, "eq_node_allocs", &EventQueueStats::node_allocs},
    {&kAlloc, "eq_calendar_resizes", &EventQueueStats::calendar_resizes},
};

// Every part of `c` that holds counters, `c` itself included; each part's
// type appears once, so a field's class names its part.
template <class Counters>
auto Parts(Counters& c) {
  return std::tie(c, c.faults, c.channel, c.host, c.guest, c.audit, c.control, c.cluster,
                  c.event_queue);
}

bool SectionPrints(std::span<const ReportRow> rows, const RC& c) {
  switch (rows.front().section->gate) {
    case Gate::kAlways:
      return true;
    case Gate::kAllocOptIn:
      return c.alloc_section;
    case Gate::kAnyNonZero:
      break;
  }
  return std::any_of(rows.begin(), rows.end(),
                     [&c](const ReportRow& row) { return row.Of(c) != 0; });
}

}  // namespace

uint64_t& ReportRow::Of(ResilienceCounters& c) const {
  return std::visit(
      [&c]<class Part>(uint64_t Part::*f) -> uint64_t& { return std::get<Part&>(Parts(c)).*f; },
      field);
}

uint64_t ReportRow::Of(const ResilienceCounters& c) const {
  return Of(const_cast<ResilienceCounters&>(c));
}

std::span<const ReportRow> ReportRows() { return kRows; }

void PrintResilience(std::ostream& out, const ResilienceCounters& c) {
  TablePrinter table({"layer", "counter", "value"});
  const std::span<const ReportRow> rows = ReportRows();
  for (auto begin = rows.begin(); begin != rows.end();) {
    auto end = std::find_if(begin, rows.end(), [begin](const ReportRow& row) {
      return row.section != begin->section;
    });
    std::span<const ReportRow> section(begin, end);
    if (SectionPrints(section, c)) {
      for (const ReportRow& row : section) {
        table.AddRow({row.section->name, row.name, std::to_string(row.Of(c) / row.divisor)});
      }
    }
    begin = end;
  }
  table.Print(out);
}

void AccumulateResilience(ResilienceCounters& into, const ResilienceCounters& from) {
  // Each part of `from` adds into the same part of `into`.
  std::apply(
      [&from](auto&... to) {
        std::apply([&to...](const auto&... add) { (AddCounters(to, add), ...); }, Parts(from));
      },
      Parts(into));
  into.peak_rss_kb = std::max(into.peak_rss_kb, from.peak_rss_kb);
  into.alloc_section = into.alloc_section || from.alloc_section;
}

}  // namespace rtvirt
