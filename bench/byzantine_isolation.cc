// Byzantine-guest isolation evaluation (trust-boundary PR): one adversarial
// VM runs every attack in the FaultPlan's adversarial repertoire against two
// well-behaved HIGH-criticality VMs on a 4-core host, and the same
// deterministic campaign is replayed under three policies:
//
//   baseline - the adversary VM is present but dormant (only its small
//              legitimate RTA runs); establishes the victims' no-attack miss
//              profile;
//   naive    - the full campaign with the trust boundary OFF (the paper's
//              protocol: the host believes every published deadline). The
//              floor-pinning deadline lies drag every global slice down to
//              the 250 us minimum, and the bandwidth thrash forces a replan
//              per call — the per-slice dispatch/migration overhead eats the
//              victims' lean slack and HIGH deadlines start missing;
//   hardened - the same campaign with DpWrapConfig::guest_trust enabled and
//              the invariant auditor watching the isolation invariant. The
//              sanitizer scores the lies, the rate limiter absorbs the storm,
//              the oscillation detector flags the thrash, and the VM is
//              quarantined to bandwidth-only scheduling within milliseconds.
//
// The victims run deliberately lean channel slack (100 us per 10 ms period,
// a fifth of the paper's 500 us default): the paper's slack hides exactly
// this class of overhead, so the bench models a consolidation-tuned
// deployment where the margin is real money and the attack surface matters.
//
// Acceptance (asserted in tests/trust_test.cc as well): hardened matches
// baseline exactly on HIGH-tier misses (0 extra) with zero isolation-audit
// violations and at least one quarantine + rehabilitation; naive shows
// measurable victim misses under the identical campaign.

#include <cstdint>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/metrics/resilience.h"
#include "src/workloads/churn.h"

namespace rtvirt::bench {
namespace {

constexpr TimeNs kRunLength = Sec(6);
constexpr int kPcpus = 4;
constexpr int kVictimVcpus = 6;  // Per victim VM; one HIGH RTA per VCPU.
constexpr TimeNs kAttackStart = Sec(1);
constexpr TimeNs kAttackEnd = Sec(4);
constexpr TimeNs kLeanSlack = Us(100);

enum class Mode { kBaseline, kNaive, kHardened };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kBaseline:
      return "baseline";
    case Mode::kNaive:
      return "naive";
    case Mode::kHardened:
      return "hardened";
  }
  return "?";
}

struct ModeResult {
  int admitted = 0;
  int total = 0;
  uint64_t ontime = 0;
  uint64_t missed = 0;
  uint64_t replans = 0;  // Host global-slice replans: the DoS amplifier.
  ResilienceCounters rc;
};

// One victim tier slot chain: a single fixed-profile episode per VCPU for the
// whole run, staggered starts, admission retried until it lands.
ChurnConfig VictimTier() {
  ChurnConfig c;
  c.experiment_len = kRunLength;
  c.min_episode = kRunLength + Sec(10);  // One episode per slot, capped at end.
  c.max_episode = kRunLength + Sec(10);
  c.max_gap = Ms(100);
  c.idle_prob = 0.0;
  c.criticality = Criticality::kHigh;
  c.profile = RtaParams{Us(3000), Ms(10)};  // 0.30 CPU x 12 VCPUs = 3.6 CPUs.
  c.admission_retry = Ms(50);
  return c;
}

ModeResult RunMode(Mode mode) {
  ExperimentConfig cfg = Config(Framework::kRtvirt, kPcpus);
  // Lean consolidation margin (see file comment): enough to drain benign
  // dispatch overhead, not enough to also absorb an attack-pinned slice rate.
  cfg.channel.budget_slack = kLeanSlack;
  if (mode == Mode::kHardened) {
    cfg.dpwrap.guest_trust.enabled = true;
    cfg.audit.enabled = true;
  }
  if (mode != Mode::kBaseline) {
    // The full repertoire, all from VM 2, overlapping in [1 s, 4 s).
    FaultPlan::AdversarialGuest lies;
    lies.kind = FaultPlan::AdversarialGuest::Kind::kDeadlineLies;
    lies.vm_index = 2;
    lies.start = kAttackStart;
    lies.end = kAttackEnd;
    lies.period = Us(200);  // Lie horizon 300 us: pins slices at the floor.
    cfg.faults.adversarial_guests.push_back(lies);
    FaultPlan::AdversarialGuest storm;
    storm.kind = FaultPlan::AdversarialGuest::Kind::kHypercallStorm;
    storm.vm_index = 2;
    storm.start = kAttackStart;
    storm.end = kAttackEnd;
    storm.period = Us(100);  // 10k garbage calls/s vs a 2k/s token bucket.
    cfg.faults.adversarial_guests.push_back(storm);
    FaultPlan::AdversarialGuest thrash;
    thrash.kind = FaultPlan::AdversarialGuest::Kind::kBandwidthThrash;
    thrash.vm_index = 2;
    thrash.start = kAttackStart;
    thrash.end = kAttackEnd;
    thrash.period = Us(500);  // A forced replan per accepted call.
    thrash.thrash_high = Bandwidth::FromDouble(0.15);  // Stays admittable.
    cfg.faults.adversarial_guests.push_back(thrash);
  }

  Experiment exp(cfg);
  GuestOs* victim_a = exp.AddGuest("victim-a", kVictimVcpus);
  GuestOs* victim_b = exp.AddGuest("victim-b", kVictimVcpus);
  GuestOs* adversary = exp.AddGuest("adversary", 2);

  DeadlineMonitor victims;
  ChurnDriver churn_a(victim_a, VictimTier(), Rng(311), &victims);
  ChurnDriver churn_b(victim_b, VictimTier(), Rng(312), &victims);
  churn_a.Start();
  churn_b.Start();

  // The adversary's legitimate cover workload: a small RTA on VCPU 0 keeps a
  // real reservation (and thus a host-read deadline slot) alive — the slot
  // its lies later land in. VCPU 1 stays channel-unmanaged; the thrash
  // campaign oscillates that one. The hog is greedy-but-legal: it soaks every
  // best-effort backfill quantum the host hands out, so the victims' supply
  // is what the *plan* gives them — exactly the multi-tenant consolidation
  // posture where a freeloading neighbor leaves no slack to hide behind.
  PeriodicRta cover(adversary, "cover", RtaParams{Ms(1), Ms(10)});
  cover.Start(0, kRunLength);
  adversary->CreateBackgroundTask("hog");

  exp.Run(kRunLength);

  ModeResult r;
  for (const ChurnDriver* churn : {&churn_a, &churn_b}) {
    for (const auto& rta : churn->rtas()) {
      ++r.total;
      if (rta->admitted_at() != kTimeNever) {
        ++r.admitted;
      }
    }
  }
  r.ontime = victims.total_completed() - victims.total_misses();
  r.missed = victims.total_misses();
  r.replans = exp.dpwrap()->replans();
  r.rc = exp.resilience();
  if (exp.auditor() != nullptr) {
    for (const AuditViolation& v : exp.auditor()->violations()) {
      std::cout << "audit violation @" << v.time << " ns [" << v.invariant << "] "
                << v.detail << "\n";
    }
  }
  if (mode == Mode::kHardened) {
    exp.PrintReport(std::cout, "byzantine_isolation/hardened");
  }
  return r;
}

int ByzantineIsolation() {
  Header("Byzantine guest vs 2 well-behaved VMs: no attack vs naive vs "
         "hardened (guest_trust)");
  TablePrinter table({"config", "vict_adm", "vict_ontime", "vict_missed", "replans",
                      "lies", "storm", "thrash", "lie_rej", "rate_rej", "quarantines",
                      "releases", "audit"});
  ModeResult baseline, naive, hardened;
  for (Mode mode : {Mode::kBaseline, Mode::kNaive, Mode::kHardened}) {
    ModeResult r = RunMode(mode);
    table.AddRow({ModeName(mode), std::to_string(r.admitted) + "/" + std::to_string(r.total),
                  std::to_string(r.ontime), std::to_string(r.missed),
                  std::to_string(r.replans),
                  std::to_string(r.rc.faults.deadline_lies),
                  std::to_string(r.rc.faults.storm_calls),
                  std::to_string(r.rc.faults.thrash_calls),
                  std::to_string(r.rc.host.deadline_lie_rejections),
                  std::to_string(r.rc.host.hypercall_rate_rejections),
                  std::to_string(r.rc.host.quarantines),
                  std::to_string(r.rc.host.quarantine_releases),
                  std::to_string(r.rc.audit.isolation_violations) + "/" +
                      std::to_string(r.rc.audit.checks_run)});
    switch (mode) {
      case Mode::kBaseline:
        baseline = r;
        break;
      case Mode::kNaive:
        naive = r;
        break;
      case Mode::kHardened:
        hardened = r;
        break;
    }
  }
  table.Print(std::cout);

  bool contained = hardened.missed == baseline.missed &&
                   hardened.admitted == hardened.total && baseline.missed == 0;
  bool isolated = hardened.rc.audit.checks_run > 0 && hardened.rc.audit.isolation_violations == 0 &&
                  hardened.rc.audit.total_violations == 0;
  bool defended = hardened.rc.host.quarantines > 0 && hardened.rc.host.quarantine_releases > 0 &&
                  hardened.rc.host.deadline_lie_rejections > 0 &&
                  hardened.rc.host.hypercall_rate_rejections > 0;
  bool naive_shows = naive.missed > 0;
  std::cout << "check: hardened victim misses " << hardened.missed << " == baseline "
            << baseline.missed << " => " << (contained ? "PASS" : "FAIL")
            << " (0 extra HIGH-tier misses under attack)\n";
  std::cout << "check: isolation violations " << hardened.rc.audit.isolation_violations << "/"
            << hardened.rc.audit.checks_run << " checks, audit total "
            << hardened.rc.audit.total_violations << " => " << (isolated ? "PASS" : "FAIL")
            << " (well-behaved allocations met their fluid share)\n";
  std::cout << "check: quarantines=" << hardened.rc.host.quarantines
            << " releases=" << hardened.rc.host.quarantine_releases
            << " lie_rej=" << hardened.rc.host.deadline_lie_rejections
            << " rate_rej=" << hardened.rc.host.hypercall_rate_rejections << " => "
            << (defended ? "PASS" : "FAIL")
            << " (every defense fired; the VM was rehabilitated after the campaign)\n";
  std::cout << "check: naive victim misses " << naive.missed << " => "
            << (naive_shows ? "PASS" : "FAIL")
            << " (the same campaign demonstrably hurts without the boundary)\n";
  return contained && isolated && defended && naive_shows ? 0 : 1;
}

}  // namespace
}  // namespace rtvirt::bench

int main() { return rtvirt::bench::ByzantineIsolation(); }
