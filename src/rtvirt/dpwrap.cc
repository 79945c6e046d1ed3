#include "src/rtvirt/dpwrap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <span>

#include "src/hv/machine.h"

namespace rtvirt {

DpWrapScheduler::DpWrapScheduler(DpWrapConfig config) : config_(config) {}

void DpWrapScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  capacity_ = Bandwidth::Cpus(machine->num_pcpus());
  pcpu_plan_.resize(machine->num_pcpus());
  if (config_.idle_tax.enabled) {
    tax_event_ = machine_->sim()->After(config_.idle_tax.window, {this, kEvTax});
  }
  if (config_.watchdog.reclaim_crashed) {
    watchdog_event_ = machine_->sim()->After(config_.watchdog.scan_period, {this, kEvWatchdog});
  }
  if (config_.overload.enabled) {
    overload_event_ = machine_->sim()->After(config_.overload.scan_period, {this, kEvOverload});
  }
  if (config_.guest_trust.enabled) {
    trust_event_ = machine_->sim()->After(config_.guest_trust.scan_period, {this, kEvTrust});
  }
}

DpWrapScheduler::VmTrust& DpWrapScheduler::TrustOf(const Vm* vm) {
  std::optional<VmTrust>& t = trust_[vm->id()];
  if (!t) {
    t.emplace();
  }
  return *t;
}

void DpWrapScheduler::RollTrustWindow(VmTrust& t, TimeNs now) {
  if (now - t.window_start >= config_.guest_trust.rate_window) {
    t.window_start = now;
    t.floor_bindings = 0;
    t.bw_flips = 0;
    t.deadlines_distrusted = false;
  }
}

void DpWrapScheduler::TrustViolation(VmTrust& t) {
  t.score += 1.0;
  t.violated_since_scan = true;
  if (!t.quarantined && t.score >= config_.guest_trust.quarantine_threshold) {
    t.quarantined = true;
    t.clean_scans = 0;
    ++stats_.quarantines;
    ScheduleReplan();
  }
}

void DpWrapScheduler::TrustTick() {
  const DpWrapConfig::GuestTrust& gt = config_.guest_trust;
  // VM-id order: rehabilitation replans must fire in a deterministic sequence.
  for (std::optional<VmTrust>& entry : trust_) {
    if (!entry) {
      continue;
    }
    VmTrust& t = *entry;
    t.score *= gt.score_decay;
    if (t.score < 1e-6) {
      t.score = 0.0;
    }
    if (t.quarantined) {
      // Hysteresis-governed rehabilitation, mirroring the overload
      // watermarks and the PCPU heal path: release only after enough
      // consecutive scans with no violation and a mostly decayed score —
      // a still-attacking VM keeps resetting the counter itself.
      if (!t.violated_since_scan && t.score < gt.quarantine_threshold / 2) {
        if (++t.clean_scans >= gt.rehab_clean_scans) {
          t.quarantined = false;
          t.clean_scans = 0;
          t.score = 0.0;
          ++stats_.quarantine_releases;
          ScheduleReplan();
        }
      } else {
        t.clean_scans = 0;
      }
    }
    t.violated_since_scan = false;
  }
  trust_event_ = machine_->sim()->After(gt.scan_period, {this, kEvTrust});
}

bool DpWrapScheduler::Quarantined(const Vm* vm) const {
  size_t id = static_cast<size_t>(vm->id());
  return id < trust_.size() && trust_[id] && trust_[id]->quarantined;
}

int64_t DpWrapScheduler::TrustAdmitHypercall(Vcpu* caller, const HypercallArgs& args) {
  const DpWrapConfig::GuestTrust& gt = config_.guest_trust;
  TimeNs now = machine_->sim()->Now();
  VmTrust& t = TrustOf(caller->vm());
  RollTrustWindow(t, now);
  if (!t.bucket_init) {
    t.bucket_init = true;
    t.tokens = static_cast<double>(gt.hypercall_burst);
  } else {
    t.tokens = std::min(static_cast<double>(gt.hypercall_burst),
                        t.tokens + static_cast<double>(now - t.token_time) *
                                       gt.hypercall_rate / 1e9);
  }
  t.token_time = now;
  if (t.tokens < 1.0) {
    // Exhausted bucket: the existing retry/degraded-fallback machinery
    // already speaks kHypercallAgain, so a throttled well-behaved guest
    // backs off and recovers while a storm keeps scoring violations.
    ++stats_.hypercall_rate_rejections;
    TrustViolation(t);
    return kHypercallAgain;
  }
  t.tokens -= 1.0;
  // INC/DEC oscillation abuse: a guest thrashing its reservation up and down
  // buys a replan per call without ever holding the bandwidth. Direction
  // flips within the rate window beyond the budget score a violation; the
  // flip counter re-arms so each trip needs a fresh burst.
  int dir = args.op == SchedOp::kIncBw ? 1 : args.op == SchedOp::kDecBw ? -1 : 0;
  if (dir != 0) {
    if (t.last_bw_dir != 0 && dir != t.last_bw_dir &&
        ++t.bw_flips > gt.max_bw_flips) {
      t.bw_flips = 0;
      ++stats_.bw_thrash_trips;
      TrustViolation(t);
    }
    t.last_bw_dir = dir;
  }
  if (t.quarantined) {
    // Bandwidth-only scheduling: the VM keeps exactly what it holds. Raises
    // are admission-held until rehabilitation, and even shrinks are frozen —
    // every accepted reservation change forces an immediate replan, so a
    // quarantined guest alternating cheap DEC calls could keep restarting
    // the global slice and starve its neighbors through the quarantine. The
    // held bandwidth is merely wasteful (bounded by what admission already
    // granted); the shrink retries and lands after release.
    ++stats_.quarantine_holds;
    return kHypercallAgain;
  }
  return kHypercallOk;
}

void DpWrapScheduler::OverloadTick() {
  double util = capacity_.ppb() > 0
                    ? static_cast<double>(total_effective().ppb()) /
                          static_cast<double>(capacity_.ppb())
                    : 0.0;
  if (!pressure_) {
    // Admission rejections are the sharpest overload signal: a guest just
    // asked for bandwidth the host does not have. The watermark catches the
    // creeping case where everything was admitted but nothing is left.
    if (rejections_since_tick_ > 0 || util >= config_.overload.high_watermark) {
      pressure_ = true;
      pressure_reason_ =
          rejections_since_tick_ > 0 ? kPressureAdmission : kPressureWatermark;
      ++stats_.pressure_raises;
    }
  } else if (util <= config_.overload.low_watermark && rejections_since_tick_ == 0) {
    pressure_ = false;
    pressure_reason_ = kPressureNone;
    ++stats_.pressure_clears;
  }
  rejections_since_tick_ = 0;
  // Remaining admittable bandwidth, published so guest re-inflation can stay
  // below it instead of probing by hypercall (a failed probe would count as
  // an admission rejection and re-raise pressure). Demand of recently
  // rejected registrations is withheld: that bandwidth is earmarked for the
  // retrying newcomers, not for re-inflation — otherwise the re-inflating
  // guests (polling every scan) would always outrace an application retry
  // loop and the newcomer would never get in.
  TimeNs now = machine_->sim()->Now();
  while (!held_demand_.empty() && held_demand_.front().expires <= now) {
    held_demand_.pop_front();
  }
  Bandwidth held;
  for (const HeldDemand& h : held_demand_) {
    held += h.bw;
  }
  Bandwidth limit = capacity_ + Bandwidth::FromPpb(config_.admission_epsilon_ppb);
  // Advertise headroom against the *high watermark*, not the admission
  // limit: room the guests could legally take but that would immediately
  // re-raise pressure (util >= high_watermark) must not be advertised, or
  // resume -> watermark pressure -> shed becomes a steady limit cycle.
  Bandwidth watermark = Bandwidth::FromPpb(static_cast<int64_t>(
      config_.overload.high_watermark * static_cast<double>(capacity_.ppb())));
  limit = std::min(limit, watermark);
  Bandwidth eff = total_effective() + held;
  int64_t headroom_ppb = eff < limit ? (limit - eff).ppb() : 0;
  // Publish to every VM's page each scan (idempotent; guests poll).
  for (int i = 0; i < machine_->num_vms(); ++i) {
    machine_->vm(i)->shared_page().PublishPressure(pressure_ ? 1 : 0, pressure_reason_,
                                                   headroom_ppb);
  }
  overload_event_ = machine_->sim()->After(config_.overload.scan_period, {this, kEvOverload});
}

void DpWrapScheduler::WatchdogTick() {
  // A crashed VM's guest can never issue the DEC_BW that would free its
  // reservations; without the watchdog that bandwidth stays admitted forever
  // and blocks new tenants. Reclaim it host-side.
  bool changed = false;
  for (std::optional<Reservation>& res : reservations_) {
    if (res && res->vcpu->vm()->crashed()) {
      total_ -= res->bw;
      ++stats_.watchdog_reclaims;
      DropReservation(res->vcpu->global_id());
      changed = true;
    }
  }
  if (changed) {
    ScheduleReplan();
  }
  watchdog_event_ = machine_->sim()->After(config_.watchdog.scan_period, {this, kEvWatchdog});
}

void DpWrapScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  if (Reservation* res = FindReservation(vcpu)) {
    res->used_in_window += ran;
  }
}

void DpWrapScheduler::TaxTick() {
  // Settle in-flight runs so usage is attributed to this window.
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    machine_->pcpu(i)->SettleAccounting();
  }
  double window = static_cast<double>(config_.idle_tax.window);
  bool changed = false;
  for (int id : layout_order_) {
    Reservation& res = *reservations_[id];
    double granted = static_cast<double>(res.EffectiveBw().ppb()) / Bandwidth::kUnit * window;
    double u = granted > 0 ? static_cast<double>(res.used_in_window) / granted : 0.0;
    double next = std::clamp(res.tax_factor * std::min(u, 1.0) + config_.idle_tax.headroom,
                             config_.idle_tax.min_factor, 1.0);
    if (std::abs(next - res.tax_factor) > 1e-3) {
      res.tax_factor = next;
      changed = true;
    }
    res.used_in_window = 0;
  }
  tax_event_ = machine_->sim()->After(config_.idle_tax.window, {this, kEvTax});
  if (changed) {
    ScheduleReplan();
  }
}

Bandwidth DpWrapScheduler::total_effective() const {
  if (!config_.idle_tax.enabled) {
    return total_;
  }
  Bandwidth total;
  for (int id : layout_order_) {
    total += reservations_[id]->EffectiveBw();
  }
  return total;
}

double DpWrapScheduler::TaxFactor(const Vcpu* vcpu) const {
  const Reservation* res = FindReservation(vcpu);
  return res == nullptr ? 1.0 : res->tax_factor;
}

DpWrapScheduler::Reservation* DpWrapScheduler::FindReservation(const Vcpu* vcpu) {
  size_t id = static_cast<size_t>(vcpu->global_id());
  return id < reservations_.size() && reservations_[id] ? &*reservations_[id] : nullptr;
}

const DpWrapScheduler::Reservation* DpWrapScheduler::FindReservation(const Vcpu* vcpu) const {
  return const_cast<DpWrapScheduler*>(this)->FindReservation(vcpu);
}

void DpWrapScheduler::DropReservation(int id) {
  reservations_[id].reset();
  layout_order_.erase(std::find(layout_order_.begin(), layout_order_.end(), id));
}

Vcpu* DpWrapScheduler::VcpuAt(int gid) const {
  if (gid < 0 || static_cast<size_t>(gid) >= position_.size() || position_[gid] < 0) {
    return nullptr;
  }
  return all_vcpus_[position_[gid]];
}

void DpWrapScheduler::MarkAllAwake() {
  size_t n = all_vcpus_.size();
  for (size_t w = 0; w < awake_.size(); ++w) {
    size_t bits = std::min<size_t>(64, n - w * 64);
    awake_[w] = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  }
}

void DpWrapScheduler::VcpuInserted(Vcpu* vcpu) {
  size_t id = static_cast<size_t>(vcpu->global_id());
  if (id >= reservations_.size()) {
    reservations_.resize(id + 1);
    pending_affinity_.resize(id + 1);
    vcpu_segments_.resize(id + 1);
    position_.resize(id + 1, -1);
  }
  // A nominal slice gives a VCPU at most two pieces (one McNaughton split).
  vcpu_segments_[id].reserve(2);
  size_t vm_id = static_cast<size_t>(vcpu->vm()->id());
  if (vm_id >= trust_.size()) {
    trust_.resize(vm_id + 1);
  }
  size_t pos = all_vcpus_.size();
  position_[id] = static_cast<int>(pos);
  all_vcpus_.push_back(vcpu);
  if (pos / 64 >= awake_.size()) {
    awake_.push_back(0);
  }
  if (!vcpu->blocked()) {
    SetAwake(pos);
  }
}

void DpWrapScheduler::VcpuRemoved(Vcpu* vcpu) {
  int id = vcpu->global_id();
  all_vcpus_.erase(std::remove(all_vcpus_.begin(), all_vcpus_.end(), vcpu), all_vcpus_.end());
  // Later VCPUs shift down one position: rebuild the position table and the
  // awake mask (exactly, from the VCPU states).
  position_[id] = -1;
  awake_.assign((all_vcpus_.size() + 63) / 64, 0);
  for (size_t pos = 0; pos < all_vcpus_.size(); ++pos) {
    position_[all_vcpus_[pos]->global_id()] = static_cast<int>(pos);
    if (!all_vcpus_[pos]->blocked()) {
      SetAwake(pos);
    }
  }
  if (reservations_[id]) {
    total_ -= reservations_[id]->bw;
    DropReservation(id);
    ScheduleReplan();
  }
  vcpu_segments_[id].clear();
}

void DpWrapScheduler::SetAffinity(Vcpu* vcpu, int pcpu) {
  assert(pcpu >= -1 && pcpu < machine_->num_pcpus());
  // Persist the pin across reservation lifetimes (an RTA may unregister and
  // re-register; the VM's cache-locality preference does not change).
  pending_affinity_[vcpu->global_id()] = pcpu;
  if (Reservation* res = FindReservation(vcpu)) {
    res->affinity = pcpu;
    ScheduleReplan();
  }
}

int DpWrapScheduler::Affinity(const Vcpu* vcpu) const {
  if (const Reservation* res = FindReservation(vcpu)) {
    return res->affinity;
  }
  size_t id = static_cast<size_t>(vcpu->global_id());
  return id < pending_affinity_.size() ? pending_affinity_[id].value_or(-1) : -1;
}

Bandwidth DpWrapScheduler::ReservedBw(const Vcpu* vcpu) const {
  const Reservation* res = FindReservation(vcpu);
  return res == nullptr ? Bandwidth::Zero() : res->bw;
}

bool DpWrapScheduler::HasActiveSegment(const Vcpu* vcpu, TimeNs now) const {
  for (const PlanSegment& seg : vcpu_segments_[vcpu->global_id()]) {
    if (seg.start <= now && now < seg.end) {
      return true;
    }
  }
  return false;
}

void DpWrapScheduler::TickleAll() {
  for (int i = 0; i < machine_->num_pcpus(); ++i) {
    machine_->pcpu(i)->RequestReschedule();
  }
}

void DpWrapScheduler::ScheduleReplan() {
  if (replan_pending_) {
    return;
  }
  replan_pending_ = true;
  machine_->sim()->After(0, {this, kEvDeferredReplan});
}

void DpWrapScheduler::Replan() {
  Simulator* sim = machine_->sim();
  TimeNs now = sim->Now();
  sim->Cancel(replan_event_);
  sim->Cancel(early_replan_event_);
  ++stats_.replans;

  // Cost model: the global deadline is derived on one PCPU in O(log n) from
  // the per-VCPU deadlines (section 4.5) and shared with the others.
  TimeNs cost = config_.replan_cost_base;
  for (size_t k = layout_order_.size(); k > 1; k >>= 1) {
    cost += config_.replan_cost_per_log;
  }
  machine_->mutable_overhead().schedule_time += cost;

  slice_start_ = now;
  TimeNs next_gd = now + config_.max_global_slice;
  bool trust_on = config_.guest_trust.enabled;
  TimeNs floor = config_.guest_trust.floor(config_.min_global_slice);
  for (int id : layout_order_) {
    Reservation& res = *reservations_[id];
    const Vcpu* v = res.vcpu;
    const SharedSchedPage& page = v->vm()->shared_page();
    TimeNs cand = page.next_deadline(v->index());
    bool distrusted = false;
    if (trust_on && cand < kTimeNever) {
      VmTrust& t = TrustOf(v->vm());
      RollTrustWindow(t, now);
      TimeNs published = page.last_publish_time(v->index());
      // A deadline already stale by more than the reservation's own period
      // when it was published is a lie, not lateness: an honest backlogged
      // guest publishes its (slightly) past head deadline under transient
      // overload, but never one a whole period expired — scoring mild
      // staleness would quarantine exactly the victims an attack makes
      // tardy. Score once per publication — the slot value persists across
      // replans and must not be re-counted, or a VM could never
      // rehabilitate after the attack stops. The bogus value itself is
      // neutralized by the sporadic fallback below either way. Publications
      // merely *below the floor* are normal (a completing job publishes its
      // next release, which can be arbitrarily close): clamp + count, no
      // score.
      if (published >= 0 && cand < published - res.period &&
          published != res.last_lie_publish) {
        res.last_lie_publish = published;
        ++stats_.deadline_lie_rejections;
        TrustViolation(t);
      } else if (published >= 0 && cand > now && cand - published < floor) {
        cand = std::max(cand, now + floor);
        ++stats_.deadline_floor_clamps;
      }
      if (t.quarantined || t.deadlines_distrusted) {
        distrusted = true;
      } else if (cand <= now + floor && published >= 0 &&
                 published != res.last_floor_publish) {
        // Replan-rate budget: each *fresh* publication that binds the global
        // slice at the floor spends one of the window's floor bindings. A
        // guest oscillating fast enough to exhaust it is forcing the planner
        // to replan at the maximum rate — distrust its slots for the rest of
        // the window.
        res.last_floor_publish = published;
        if (++t.floor_bindings > config_.guest_trust.max_floor_bindings) {
          t.deadlines_distrusted = true;
          ++stats_.replan_budget_trips;
          TrustViolation(t);
          distrusted = true;
        }
      }
    }
    if (!distrusted && config_.watchdog.freshness_horizon > 0 && cand < kTimeNever) {
      // Distrust a deadline the guest has not refreshed within the horizon:
      // the guest may be wedged (or its publication lost), and honoring an
      // ancient promise would let the host under-serve everyone else.
      TimeNs published = page.last_publish_time(v->index());
      if (published < 0 || now - published > config_.watchdog.freshness_horizon) {
        ++stats_.stale_rejections;
        cand = 0;  // Forces the sporadic worst case below.
      }
    }
    if (distrusted) {
      cand = 0;  // Bandwidth-only scheduling: the slot gets the worst case.
    }
    if (cand <= now) {
      // Stale publication: apply the sporadic worst case — the VCPU's RTAs
      // may activate immediately with their minimum period.
      cand = now + res.period;
    }
    next_gd = std::min(next_gd, cand);
  }
  next_gd = std::max(next_gd, now + config_.min_global_slice);
  slice_end_ = next_gd;
  TimeNs slice_len = slice_end_ - slice_start_;

  // The proportional split of the global slice is laid out in stable
  // (layout_order_) order so a VCPU's segment offsets stay put across slices
  // unless reservations change.

  // Proportional allocations with a per-reservation sub-ns carry, keeping the
  // cumulative supply within 1 ns of the fluid schedule over any window.
  auto take_alloc = [&](Reservation* res, TimeNs cap) {
    __int128 raw =
        static_cast<__int128>(res->EffectiveBw().ppb()) * slice_len + res->carry_ppb;
    TimeNs alloc = std::min(static_cast<TimeNs>(raw / Bandwidth::kUnit), cap);
    // Clipped share stays in the carry (bounded to one period of backlog).
    __int128 carry = raw - static_cast<__int128>(alloc) * Bandwidth::kUnit;
    __int128 carry_max = static_cast<__int128>(res->EffectiveBw().ppb()) * res->period;
    res->carry_ppb = static_cast<int64_t>(std::min(carry, carry_max));
    return alloc;
  };

  for (auto& plan : pcpu_plan_) {
    plan.clear();
  }
  for (auto& segs : vcpu_segments_) {
    segs.clear();
  }
  auto emit = [&](Vcpu* v, int pcpu, TimeNs start, TimeNs end) {
    PlanSegment ps{v, pcpu, slice_start_ + start, slice_start_ + end};
    pcpu_plan_[pcpu].push_back(ps);
    vcpu_segments_[v->global_id()].push_back(ps);
  };

  // Plan in *effective* (full-speed-equivalent) ns, then stretch to wall-clock
  // segments (the identity at full speed): the carries track the fluid
  // schedule across healthy and degraded slices alike. Without pcpu_recovery
  // every core plans at full speed, faults or not (the frozen layout).
  int pcpus = machine_->num_pcpus();
  speeds_.assign(pcpus, Bandwidth::kUnit);
  if (config_.pcpu_recovery.enabled) {
    for (int k = 0; k < pcpus; ++k) {
      const Pcpu* pc = machine_->pcpu(k);
      speeds_[k] = pc->online() ? pc->speed_ppb() : 0;
    }
  }
  std::vector<TimeNs>& occupied = wrap_buffers_.fill;
  occupied.assign(pcpus, 0);
  wrapped_.clear();
  items_.clear();
  auto eff_free = [&](int k) -> TimeNs {
    if (speeds_[k] <= 0 || occupied[k] >= slice_len) {
      return 0;
    }
    return SpeedWallToWork(slice_len - occupied[k], speeds_[k]);
  };
  // Affinity-pinned reservations first, at the head of their PCPU's chunk:
  // they never migrate and never split (paper section 6).
  for (int id : layout_order_) {
    Reservation* res = &*reservations_[id];
    int pcpu = res->affinity;
    if (pcpu < 0 || speeds_[pcpu] <= 0) {
      // A pin to a dead core cannot hold: evacuate into the wrap. The pin
      // itself persists (res->affinity untouched) and re-applies on heal.
      wrapped_.push_back(res);
      continue;
    }
    TimeNs alloc = take_alloc(res, eff_free(pcpu));
    if (alloc > 0) {
      TimeNs wall = SpeedWorkToWall(alloc, speeds_[pcpu]);
      emit(res->vcpu, pcpu, occupied[pcpu], occupied[pcpu] + wall);
      occupied[pcpu] += wall;
    }
  }
  // Everything else wraps into the remaining space (McNaughton).
  TimeNs free_total = 0;
  for (int k = 0; k < pcpus; ++k) {
    free_total += eff_free(k);
  }
  TimeNs allocated = 0;
  for (size_t i = 0; i < wrapped_.size(); ++i) {
    // The carries can overshoot capacity by < n ns; trim the tail.
    TimeNs alloc = take_alloc(wrapped_[i], std::min(slice_len, free_total - allocated));
    allocated += alloc;
    items_.push_back(WrapItem{static_cast<int>(i), alloc});
  }
  WrapAround(items_, slice_len, speeds_, wrap_buffers_);
  for (const WrapSegment& seg : wrap_buffers_.segments) {
    emit(wrapped_[seg.item_id]->vcpu, seg.pcpu, seg.start, seg.end);
  }
  // Host->guest notification of the slice allocation (Figure 2).
  for (const std::vector<PlanSegment>& segs : vcpu_segments_) {
    if (segs.empty()) {
      continue;
    }
    TimeNs alloc = 0;
    for (const PlanSegment& s : segs) {
      alloc += s.end - s.start;
    }
    const Vcpu* v = segs.front().vcpu;
    v->vm()->shared_page().PublishAllocation(v->index(), segs.front().start, alloc);
  }

  replan_event_ = sim->At(slice_end_, {this, kEvReplan});
  TickleAll();
}

Vcpu* DpWrapScheduler::ScanAwake(size_t lo, size_t hi, TimeNs now, Pcpu* pcpu) {
  for (size_t w = lo / 64; w * 64 < hi; ++w) {
    uint64_t bits = awake_[w];
    if (w == lo / 64) {
      bits &= ~uint64_t{0} << (lo % 64);
    }
    for (; bits != 0; bits &= bits - 1) {
      size_t pos = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      if (pos >= hi) {
        return nullptr;
      }
      Vcpu* v = all_vcpus_[pos];
      bool continuing = v->running() && v->pcpu() == pcpu;
      if (!v->runnable() && !continuing) {
        if (v->blocked()) {
          ClearAwake(pos);  // Only VcpuWake can make it eligible again.
        }
        continue;
      }
      if (HasActiveSegment(v, now)) {
        continue;  // Its own segment's PCPU is about to pick it.
      }
      be_cursor_ = pos + 1 == all_vcpus_.size() ? 0 : pos + 1;
      return v;
    }
  }
  return nullptr;
}

Vcpu* DpWrapScheduler::PickBestEffort(TimeNs now, Pcpu* pcpu) {
  // Round-robin over insertion order from be_cursor_, visiting only awake
  // positions: the same VCPU, and the same cursor, as a scan of every VCPU.
  size_t n = all_vcpus_.size();
  if (n == 0) {
    return nullptr;
  }
  size_t start = be_cursor_ < n ? be_cursor_ : be_cursor_ % n;
  Vcpu* v = ScanAwake(start, n, now, pcpu);
  return v != nullptr ? v : ScanAwake(0, start, now, pcpu);
}

ScheduleDecision DpWrapScheduler::PickNext(Pcpu* pcpu) {
  TimeNs now = machine_->sim()->Now();
  if (now >= slice_end_) {
    Replan();
  }

  const std::vector<PlanSegment>& plan = pcpu_plan_[pcpu->id()];
  for (const PlanSegment& seg : plan) {
    if (seg.end <= now) {
      continue;
    }
    if (seg.start > now) {
      // Gap before the next reserved segment: best-effort fill.
      Vcpu* be = PickBestEffort(now, pcpu);
      if (be != nullptr) {
        return ScheduleDecision{be, std::min(seg.start, now + config_.best_effort_quantum)};
      }
      return ScheduleDecision{nullptr, seg.start};
    }
    // Active reserved segment.
    Vcpu* v = seg.vcpu;
    if (v->running() && v->pcpu() != pcpu) {
      Pcpu* holder = v->pcpu();
      bool holder_owns = false;
      for (const PlanSegment& s : vcpu_segments_[v->global_id()]) {
        if (s.pcpu == holder->id() && s.start <= now && now < s.end) {
          holder_owns = true;
          break;
        }
      }
      if (holder_owns) {
        // The plan gives this VCPU wall-clock-overlapping pieces (leftover
        // placement tolerates that) and the holder rightly keeps it, so a
        // re-tickle would spin forever at this instant. Serialize instead:
        // wait for the holder to release.
        return ScheduleDecision{nullptr, std::min(seg.end, holder->run_until())};
      }
      // The earlier piece of this (split) VCPU has not been descheduled yet
      // (its stop event is queued at this same instant), or the holder is on
      // a stale pre-replan grant. Re-tickle both sides.
      holder->RequestReschedule();
      pcpu->RequestReschedule();
      return ScheduleDecision{nullptr, seg.end};
    }
    if (v->runnable() || (v->running() && v->pcpu() == pcpu)) {
      return ScheduleDecision{v, seg.end};
    }
    // Reserved VCPU is blocked: backfill, but re-check at segment end.
    Vcpu* be = PickBestEffort(now, pcpu);
    if (be != nullptr) {
      return ScheduleDecision{be, std::min(seg.end, now + config_.best_effort_quantum)};
    }
    return ScheduleDecision{nullptr, seg.end};
  }
  // Trailing residual time up to the global deadline.
  Vcpu* be = PickBestEffort(now, pcpu);
  if (be != nullptr) {
    return ScheduleDecision{be, std::min(slice_end_, now + config_.best_effort_quantum)};
  }
  return ScheduleDecision{nullptr, slice_end_};
}

void DpWrapScheduler::VcpuWake(Vcpu* vcpu) {
  SetAwake(position_[vcpu->global_id()]);
  TimeNs now = machine_->sim()->Now();
  // How much of this VCPU's reserved time is still ahead in the current
  // slice, and which PCPU serves it next.
  TimeNs remaining_seg = 0;
  const PlanSegment* next_seg = nullptr;
  for (const PlanSegment& seg : vcpu_segments_[vcpu->global_id()]) {
    if (seg.end > now) {
      remaining_seg += seg.end - std::max(seg.start, now);
      if (next_seg == nullptr) {
        next_seg = &seg;
      }
    }
  }
  Reservation* res = FindReservation(vcpu);
  if (res != nullptr && config_.replan_on_wake) {
    // Replan when the wake finds a substantial part of this slice's share
    // already gone (fully passed, or the wake landed mid-segment): the
    // arrival would otherwise wait most of a period for the next slice.
    // Never replan within min_global_slice of the last plan.
    TimeNs full_share = res->EffectiveBw().SliceOf(slice_end_ - slice_start_);
    if (remaining_seg + Us(1) < full_share) {
      TimeNs earliest = slice_start_ + config_.min_global_slice;
      if (now >= earliest) {
        Replan();
        return;
      }
      if (!early_replan_event_.valid()) {
        early_replan_event_ = machine_->sim()->At(earliest, {this, kEvEarlyReplan});
      }
      // The deferral costs this reservation bw * (earliest - now) of supply
      // before its deadline; compensate through the carry accumulator so the
      // deferred slice hands the share back. Repeated wakes inside the same
      // deferral window must not stack compensation past one period of
      // backlog plus this deferral's worth — the bound the auditor checks.
      __int128 comp = static_cast<__int128>(res->carry_ppb) +
                      static_cast<__int128>(res->EffectiveBw().ppb()) * (earliest - now);
      __int128 comp_max = static_cast<__int128>(res->EffectiveBw().ppb()) *
                          (res->period + config_.min_global_slice);
      res->carry_ppb = static_cast<int64_t>(std::min(comp, comp_max));
      // Fall through: use whatever segment time remains until the replan.
    }
  }
  if (next_seg != nullptr) {
    machine_->pcpu(next_seg->pcpu)->RequestReschedule();
    return;
  }
  if (res != nullptr) {
    return;  // replan_on_wake off: served from the next global slice on.
  }
  // Best-effort wake: grab an idle PCPU if there is one (round-robin so
  // simultaneous wakes tickle distinct PCPUs).
  int n = machine_->num_pcpus();
  for (int k = 0; k < n; ++k) {
    Pcpu* p = machine_->pcpu((tickle_cursor_ + k) % n);
    if (!p->online()) {
      continue;  // A dead core looks idle but will never dispatch anyone.
    }
    if (p->idle()) {
      tickle_cursor_ = (p->id() + 1) % n;
      p->RequestReschedule();
      return;
    }
  }
}

void DpWrapScheduler::VcpuBlock(Vcpu* vcpu) { ClearAwake(position_[vcpu->global_id()]); }

void DpWrapScheduler::PcpuCapacityChanged(Pcpu* pcpu) {
  (void)pcpu;
  if (!config_.pcpu_recovery.enabled) {
    return;  // Frozen layout: keep planning against nominal capacity.
  }
  // Admission, the overload watermarks, and the published headroom all key
  // off capacity_; once it tracks the surviving effective supply, the
  // renegotiation with the guests rides the existing pressure protocol —
  // demand that no longer fits raises pressure at the next overload scan,
  // guests compress/shed, and the same hysteresis re-inflates after heal.
  capacity_ = machine_->EffectiveCapacity();
  ++stats_.capacity_replans;
  ScheduleReplan();
}

TimeNs DpWrapScheduler::ScheduleCost(const Pcpu* pcpu) const {
  (void)pcpu;
  return config_.pick_cost;
}

int64_t DpWrapScheduler::ApplyReservation(Vcpu* vcpu, Bandwidth bw, TimeNs period,
                                          bool admit, int64_t reason) {
  if (bw > Bandwidth::One() || bw < Bandwidth::Zero()) {
    return kHypercallInvalid;
  }
  if (bw > Bandwidth::Zero() && period <= 0) {
    return kHypercallInvalid;
  }
  if (static_cast<size_t>(vcpu->global_id()) >= reservations_.size()) {
    return kHypercallInvalid;  // Not a VCPU of this scheduler's machine.
  }
  Reservation* existing = FindReservation(vcpu);
  Bandwidth old = existing == nullptr ? Bandwidth::Zero() : existing->bw;
  Bandwidth new_total = total_ - old + bw;
  if (admit) {
    // With the idle tax, admission runs against the *taxed* total: idle
    // over-claims do not block new tenants.
    Bandwidth old_eff = existing == nullptr ? Bandwidth::Zero() : existing->EffectiveBw();
    Bandwidth admitted_total = total_effective() - old_eff + bw;
    Bandwidth limit = capacity_ + Bandwidth::FromPpb(config_.admission_epsilon_ppb);
    if (config_.overload.enabled &&
        (reason == kBwReasonReinflate || reason == kBwReasonSloControl)) {
      // Re-inflation and SLO-controller raises are only admitted up to the
      // high watermark; new demand may use the full capacity. Guests gate on
      // the published headroom, but two guests polling in the same scan
      // window can both claim the same advertised room — enforcing the
      // watermark here turns that race into a clean rejection instead of a
      // watermark-pressure/shed cycle.
      limit = std::min(limit, Bandwidth::FromPpb(static_cast<int64_t>(
                                  config_.overload.high_watermark *
                                  static_cast<double>(capacity_.ppb()))));
    }
    if (admitted_total > limit) {
      ++stats_.admission_rejections;
      // Only *new* RTA demand counts toward pressure. The reason code is the
      // authoritative signal: guests pack several RTAs per VCPU, so a fresh
      // admission usually arrives here as a *raise* of an existing
      // reservation (old != 0), which a registration heuristic would miss.
      // kBwReasonReinflate (a recovery probe) never raises pressure, or the
      // probes and the pressure signal would chase each other in a loop.
      bool new_demand = reason == kBwReasonAdmission ||
                        (reason == kBwReasonNone && old == Bandwidth::Zero());
      if (new_demand) {
        ++rejections_since_tick_;
        if (config_.overload.enabled) {
          // Earmark the rejected *increment*: the published headroom
          // withholds it so re-inflation cannot swallow the bandwidth that
          // guests are about to shed for this newcomer. (Overlapping retries
          // of the same newcomer stack extra holds — conservative,
          // self-expiring.)
          TimeNs now = machine_->sim()->Now();
          while (!held_demand_.empty() && held_demand_.front().expires <= now) {
            held_demand_.pop_front();
          }
          Bandwidth delta = bw > old ? bw - old : Bandwidth::Zero();
          if (delta > Bandwidth::Zero()) {
            held_demand_.push_back(
                HeldDemand{now + config_.overload.admission_hold, delta});
          }
        }
      }
      return kHypercallNoBandwidth;
    }
  }
  total_ = new_total;
  TimeNs clamped_period = std::min(period, config_.max_global_slice);
  if (bw == Bandwidth::Zero()) {
    if (existing != nullptr) {
      DropReservation(vcpu->global_id());
    }
  } else if (existing != nullptr) {
    existing->bw = bw;
    existing->period = clamped_period;
    // Supply-debt earned at the old rate does not survive a shrink: the
    // carry's backlog entitlement is one period at the *current* bandwidth
    // (the same bound take_alloc and the auditor enforce), or a compressed
    // reservation would keep claiming its pre-compression share.
    __int128 carry_max = static_cast<__int128>(existing->EffectiveBw().ppb()) * clamped_period;
    if (static_cast<__int128>(existing->carry_ppb) > carry_max) {
      existing->carry_ppb = static_cast<int64_t>(carry_max);
    }
  } else {
    int id = vcpu->global_id();
    Reservation& res = reservations_[id].emplace();
    res.vcpu = vcpu;
    res.bw = bw;
    res.period = clamped_period;
    res.order = next_order_++;
    res.affinity = pending_affinity_[id].value_or(-1);
    layout_order_.push_back(id);  // The largest order so far: stays sorted.
  }
  return kHypercallOk;
}

int64_t DpWrapScheduler::Hypercall(Vcpu* caller, const HypercallArgs& args) {
  if (config_.guest_trust.enabled && caller != nullptr) {
    int64_t trc = TrustAdmitHypercall(caller, args);
    if (trc != kHypercallOk) {
      return trc;
    }
  }
  if (args.vcpu_a == nullptr) {
    return kHypercallInvalid;
  }
  int64_t rc = kHypercallInvalid;
  switch (args.op) {
    case SchedOp::kIncBw:
      rc = ApplyReservation(args.vcpu_a, args.bw_a, args.period_a, /*admit=*/true,
                            args.reason);
      break;
    case SchedOp::kDecBw:
      rc = ApplyReservation(args.vcpu_a, args.bw_a, args.period_a, /*admit=*/false);
      if (rc == kHypercallOk && args.reason == kBwReasonOverloadShed) {
        ++stats_.shed_releases;  // Guest responded to pressure; observability only.
      }
      break;
    case SchedOp::kIncDecBw: {
      if (args.vcpu_b == nullptr) {
        return kHypercallInvalid;
      }
      const Reservation* res_b = FindReservation(args.vcpu_b);
      Bandwidth old_b = res_b == nullptr ? Bandwidth::Zero() : res_b->bw;
      TimeNs old_period_b = res_b == nullptr ? 0 : res_b->period;
      int64_t rc_b =
          ApplyReservation(args.vcpu_b, args.bw_b, args.period_b, /*admit=*/false);
      if (rc_b != kHypercallOk) {
        return rc_b;
      }
      rc = ApplyReservation(args.vcpu_a, args.bw_a, args.period_a, /*admit=*/true,
                            args.reason);
      if (rc != kHypercallOk) {
        // Roll the donor back.
        ApplyReservation(args.vcpu_b, old_b, old_period_b, /*admit=*/false);
        return rc;
      }
      break;
    }
  }
  if (rc == kHypercallOk) {
    ScheduleReplan();
  }
  return rc;
}

void DpWrapScheduler::SaveState(ckpt::Writer& w) const {
  w.I64(capacity_.ppb());
  w.I64(total_.ppb());
  w.U64(next_order_);
  w.I64(slice_start_);
  w.I64(slice_end_);
  w.Bool(replan_pending_);
  w.U64(be_cursor_);
  w.U32(static_cast<uint32_t>(tickle_cursor_));
  w.Counters(stats_, std::span(DpWrapStats::kFields).first(DpWrapStats::kPlanFields));
  w.Bool(pressure_);
  w.I64(pressure_reason_);
  w.U64(rejections_since_tick_);
  w.Counters(stats_, std::span(DpWrapStats::kFields).subspan(DpWrapStats::kPlanFields));

  // VCPU insertion order drives the best-effort round-robin; serialize the
  // global-id sequence so a restored scheduler validates it saw the same one.
  w.U32(static_cast<uint32_t>(all_vcpus_.size()));
  for (const Vcpu* v : all_vcpus_) {
    w.U32(static_cast<uint32_t>(v->global_id()));
  }

  // The id-indexed tables are written in id order.
  w.U32(static_cast<uint32_t>(layout_order_.size()));
  for (const std::optional<Reservation>& res : reservations_) {
    if (!res) {
      continue;
    }
    w.U32(static_cast<uint32_t>(res->vcpu->global_id()));
    w.I64(res->bw.ppb());
    w.I64(res->period);
    w.U64(res->order);
    w.I64(res->carry_ppb);
    w.U32(static_cast<uint32_t>(res->affinity));
    w.I64(res->used_in_window);
    w.F64(res->tax_factor);
    w.I64(res->last_lie_publish);
    w.I64(res->last_floor_publish);
  }

  w.U32(static_cast<uint32_t>(std::ranges::count_if(
      pending_affinity_, [](const std::optional<int>& pin) { return pin.has_value(); })));
  for (size_t gid = 0; gid < pending_affinity_.size(); ++gid) {
    if (pending_affinity_[gid]) {
      w.U32(static_cast<uint32_t>(gid));
      w.U32(static_cast<uint32_t>(*pending_affinity_[gid]));
    }
  }

  auto save_segment = [&w](const PlanSegment& seg) {
    w.U32(static_cast<uint32_t>(seg.vcpu->global_id()));
    w.U32(static_cast<uint32_t>(seg.pcpu));
    w.I64(seg.start);
    w.I64(seg.end);
  };
  w.U32(static_cast<uint32_t>(pcpu_plan_.size()));
  for (const auto& plan : pcpu_plan_) {
    w.U32(static_cast<uint32_t>(plan.size()));
    for (const PlanSegment& seg : plan) {
      save_segment(seg);
    }
  }
  w.U32(static_cast<uint32_t>(std::ranges::count_if(
      vcpu_segments_, [](const std::vector<PlanSegment>& segs) { return !segs.empty(); })));
  for (size_t gid = 0; gid < vcpu_segments_.size(); ++gid) {
    if (vcpu_segments_[gid].empty()) {
      continue;
    }
    w.U32(static_cast<uint32_t>(gid));
    w.U32(static_cast<uint32_t>(vcpu_segments_[gid].size()));
    for (const PlanSegment& seg : vcpu_segments_[gid]) {
      save_segment(seg);
    }
  }

  w.U32(static_cast<uint32_t>(held_demand_.size()));
  for (const HeldDemand& h : held_demand_) {
    w.I64(h.expires);
    w.I64(h.bw.ppb());
  }

  w.U32(static_cast<uint32_t>(std::ranges::count_if(
      trust_, [](const std::optional<VmTrust>& t) { return t.has_value(); })));
  for (size_t vm_id = 0; vm_id < trust_.size(); ++vm_id) {
    const std::optional<VmTrust>& t = trust_[vm_id];
    if (!t) {
      continue;
    }
    w.U32(static_cast<uint32_t>(vm_id));
    w.F64(t->tokens);
    w.I64(t->token_time);
    w.Bool(t->bucket_init);
    w.I64(t->window_start);
    w.U32(static_cast<uint32_t>(t->floor_bindings));
    w.U32(static_cast<uint32_t>(t->bw_flips));
    w.U32(static_cast<uint32_t>(t->last_bw_dir + 1));
    w.Bool(t->deadlines_distrusted);
    w.F64(t->score);
    w.Bool(t->quarantined);
    w.U32(static_cast<uint32_t>(t->clean_scans));
    w.Bool(t->violated_since_scan);
  }
}

std::string DpWrapScheduler::RestoreState(ckpt::Reader& r) {
  capacity_ = Bandwidth::FromPpb(r.I64());
  total_ = Bandwidth::FromPpb(r.I64());
  next_order_ = r.U64();
  slice_start_ = r.I64();
  slice_end_ = r.I64();
  replan_pending_ = r.Bool();
  be_cursor_ = r.U64();
  tickle_cursor_ = static_cast<int>(r.U32());
  r.Counters(stats_, std::span(DpWrapStats::kFields).first(DpWrapStats::kPlanFields));
  pressure_ = r.Bool();
  pressure_reason_ = r.I64();
  rejections_since_tick_ = r.U64();
  r.Counters(stats_, std::span(DpWrapStats::kFields).subspan(DpWrapStats::kPlanFields));

  uint32_t n_vcpus = r.U32();
  if (!r.ok() || n_vcpus != all_vcpus_.size()) {
    return "dpwrap: VCPU insertion-order mismatch (checkpoint has " +
           std::to_string(n_vcpus) + ", scheduler has " +
           std::to_string(all_vcpus_.size()) + ")";
  }
  for (size_t i = 0; i < all_vcpus_.size(); ++i) {
    int gid = static_cast<int>(r.U32());
    if (gid != all_vcpus_[i]->global_id()) {
      return "dpwrap: VCPU insertion order diverges at position " + std::to_string(i);
    }
  }

  // Restored VCPU states did not pass through VcpuWake/VcpuBlock.
  MarkAllAwake();

  std::ranges::fill(reservations_, std::nullopt);
  layout_order_.clear();
  uint32_t n_res = r.U32();
  for (uint32_t i = 0; i < n_res && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    Vcpu* v = VcpuAt(gid);
    if (v == nullptr) {
      return "dpwrap: reservation[" + std::to_string(i) +
             "] references unknown VCPU global id " + std::to_string(gid);
    }
    if (!reservations_[gid]) {
      layout_order_.push_back(gid);
    }
    Reservation& res = reservations_[gid].emplace();
    res.vcpu = v;
    res.bw = Bandwidth::FromPpb(r.I64());
    res.period = r.I64();
    res.order = r.U64();
    res.carry_ppb = r.I64();
    res.affinity = static_cast<int>(r.U32());
    res.used_in_window = r.I64();
    res.tax_factor = r.F64();
    res.last_lie_publish = r.I64();
    res.last_floor_publish = r.I64();
  }
  std::ranges::sort(layout_order_, {}, [this](int id) { return reservations_[id]->order; });

  std::ranges::fill(pending_affinity_, std::nullopt);
  uint32_t n_pins = r.U32();
  for (uint32_t i = 0; i < n_pins && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    int pin = static_cast<int>(r.U32());
    if (VcpuAt(gid) == nullptr) {
      return "dpwrap: pending affinity references unknown VCPU " + std::to_string(gid);
    }
    pending_affinity_[gid] = pin;
  }

  auto load_segment = [this, &r](PlanSegment* seg) -> bool {
    int gid = static_cast<int>(r.U32());
    seg->vcpu = VcpuAt(gid);
    seg->pcpu = static_cast<int>(r.U32());
    seg->start = r.I64();
    seg->end = r.I64();
    return seg->vcpu != nullptr;
  };
  uint32_t n_plans = r.U32();
  if (!r.ok() || n_plans != pcpu_plan_.size()) {
    return "dpwrap: PCPU plan count mismatch";
  }
  for (auto& plan : pcpu_plan_) {
    plan.clear();
    uint32_t n_segs = r.U32();
    for (uint32_t i = 0; i < n_segs && r.ok(); ++i) {
      PlanSegment seg;
      if (!load_segment(&seg)) {
        return "dpwrap: plan segment references unknown VCPU";
      }
      plan.push_back(seg);
    }
  }
  for (auto& segs : vcpu_segments_) {
    segs.clear();
  }
  uint32_t n_vseg = r.U32();
  for (uint32_t i = 0; i < n_vseg && r.ok(); ++i) {
    int gid = static_cast<int>(r.U32());
    if (VcpuAt(gid) == nullptr) {
      return "dpwrap: segment map references unknown VCPU " + std::to_string(gid);
    }
    uint32_t n_segs = r.U32();
    std::vector<PlanSegment>& segs = vcpu_segments_[gid];
    for (uint32_t k = 0; k < n_segs && r.ok(); ++k) {
      PlanSegment seg;
      if (!load_segment(&seg)) {
        return "dpwrap: segment map entry references unknown VCPU";
      }
      segs.push_back(seg);
    }
  }

  held_demand_.clear();
  uint32_t n_held = r.U32();
  for (uint32_t i = 0; i < n_held && r.ok(); ++i) {
    HeldDemand h;
    h.expires = r.I64();
    h.bw = Bandwidth::FromPpb(r.I64());
    held_demand_.push_back(h);
  }

  std::ranges::fill(trust_, std::nullopt);
  if (machine_ != nullptr && trust_.size() < static_cast<size_t>(machine_->num_vms())) {
    trust_.resize(machine_->num_vms());
  }
  uint32_t n_trust = r.U32();
  for (uint32_t i = 0; i < n_trust && r.ok(); ++i) {
    int vm_id = static_cast<int>(r.U32());
    if (machine_ == nullptr || vm_id < 0 || vm_id >= machine_->num_vms()) {
      return "dpwrap: trust entry references unknown VM " + std::to_string(vm_id);
    }
    VmTrust& t = trust_[vm_id].emplace();
    t.tokens = r.F64();
    t.token_time = r.I64();
    t.bucket_init = r.Bool();
    t.window_start = r.I64();
    t.floor_bindings = static_cast<int>(r.U32());
    t.bw_flips = static_cast<int>(r.U32());
    t.last_bw_dir = static_cast<int>(r.U32()) - 1;
    t.deadlines_distrusted = r.Bool();
    t.score = r.F64();
    t.quarantined = r.Bool();
    t.clean_scans = static_cast<int>(r.U32());
    t.violated_since_scan = r.Bool();
  }
  return r.ok() ? "" : "dpwrap: truncated section";
}

void DpWrapScheduler::OnEvent(uint32_t kind, uint64_t) {
  switch (kind) {
    case kEvTax:
      TaxTick();
      return;
    case kEvWatchdog:
      WatchdogTick();
      return;
    case kEvOverload:
      OverloadTick();
      return;
    case kEvTrust:
      TrustTick();
      return;
    case kEvDeferredReplan:
      replan_pending_ = false;
      [[fallthrough]];
    case kEvReplan:
    case kEvEarlyReplan:
      Replan();
      return;
  }
}

std::string DpWrapScheduler::AdoptEvent(uint32_t kind, uint64_t, EventQueue::EventId id) {
  switch (kind) {
    case kEvTax:
      tax_event_ = id;
      return "";
    case kEvWatchdog:
      watchdog_event_ = id;
      return "";
    case kEvOverload:
      overload_event_ = id;
      return "";
    case kEvTrust:
      trust_event_ = id;
      return "";
    case kEvReplan:
      replan_event_ = id;
      return "";
    case kEvEarlyReplan:
      early_replan_event_ = id;
      return "";
    case kEvDeferredReplan:
      return "";  // replan_pending_ was restored true; this is its event.
  }
  return "dpwrap: unknown event kind " + std::to_string(kind);
}

std::vector<std::string> DpWrapScheduler::AuditPlan() const {
  std::vector<std::string> violations;
  char buf[256];

  // Bookkeeping: the cached total must equal the sum of the reservations.
  Bandwidth sum;
  for (int id : layout_order_) {
    sum += reservations_[id]->bw;
  }
  if (sum != total_) {
    std::snprintf(buf, sizeof(buf),
                  "cached total %lld ppb != sum of reservations %lld ppb",
                  static_cast<long long>(total_.ppb()), static_cast<long long>(sum.ppb()));
    violations.emplace_back(buf);
  }

  // Conservation. Without the idle tax the admitted raw total must fit in
  // capacity (plus the rounding epsilon). With the tax, admission runs
  // against the taxed total, so the raw total may legitimately overcommit;
  // what must hold instead is taxed <= raw (the tax only ever shrinks).
  // With pcpu_recovery, admitted demand may transiently exceed a freshly
  // degraded capacity until the pressure protocol sheds it — what must hold
  // at every instant is that the *plan* promises no more than the surviving
  // cores can deliver: no segments on offline cores, and the laid-out
  // effective supply within the effective capacity of the slice. Skipped
  // while a replan is pending (the plan is mid-transition at this instant).
  if (config_.pcpu_recovery.enabled) {
    if (!replan_pending_) {
      __int128 planned_eff = 0;  // ns * ppb.
      for (size_t p = 0; p < pcpu_plan_.size(); ++p) {
        const Pcpu* pc = machine_->pcpu(static_cast<int>(p));
        TimeNs planned = 0;
        for (const PlanSegment& seg : pcpu_plan_[p]) {
          planned += seg.end - seg.start;
        }
        if (!pc->online() && planned > 0) {
          std::snprintf(buf, sizeof(buf), "pcpu %zu is offline but the plan lays %lld ns onto it",
                        p, static_cast<long long>(planned));
          violations.emplace_back(buf);
        } else if (pc->online()) {
          planned_eff += static_cast<__int128>(planned) * pc->speed_ppb();
        }
      }
      TimeNs len = slice_end_ - slice_start_;
      __int128 cap_eff = static_cast<__int128>(machine_->EffectiveCapacity().ppb()) * len;
      __int128 slack = static_cast<__int128>(config_.admission_epsilon_ppb) * len +
                       static_cast<__int128>(pcpu_plan_.size()) * Bandwidth::kUnit;
      if (planned_eff > cap_eff + slack) {
        std::snprintf(buf, sizeof(buf),
                      "planned effective supply %lld ppb*ns exceeds effective capacity %lld ppb*ns",
                      static_cast<long long>(planned_eff), static_cast<long long>(cap_eff));
        violations.emplace_back(buf);
      }
    }
  } else if (!config_.idle_tax.enabled) {
    if (total_ > capacity_ + Bandwidth::FromPpb(config_.admission_epsilon_ppb)) {
      std::snprintf(buf, sizeof(buf),
                    "reserved total %lld ppb exceeds capacity %lld ppb + epsilon %lld ppb",
                    static_cast<long long>(total_.ppb()),
                    static_cast<long long>(capacity_.ppb()),
                    static_cast<long long>(config_.admission_epsilon_ppb));
      violations.emplace_back(buf);
    }
  } else if (total_effective() > total_) {
    std::snprintf(buf, sizeof(buf), "taxed total %lld ppb exceeds raw total %lld ppb",
                  static_cast<long long>(total_effective().ppb()),
                  static_cast<long long>(total_.ppb()));
    violations.emplace_back(buf);
  }

  // Carry bounds: non-negative, and at most one period of backlog plus the
  // slack a deferred early replan may add (bounded by min_global_slice).
  for (int id : layout_order_) {
    const Reservation& res = *reservations_[id];
    __int128 carry_max = static_cast<__int128>(res.bw.ppb()) *
                         (res.period + config_.min_global_slice);
    if (res.carry_ppb < 0 || static_cast<__int128>(res.carry_ppb) > carry_max) {
      std::snprintf(buf, sizeof(buf), "vcpu %d carry %lld ppb*ns out of bounds [0, bw*period]",
                    res.vcpu->index(), static_cast<long long>(res.carry_ppb));
      violations.emplace_back(buf);
    }
  }

  // Plan geometry: per-PCPU segments inside the slice, ordered, disjoint.
  TimeNs slice_len = slice_end_ - slice_start_;
  for (size_t p = 0; p < pcpu_plan_.size(); ++p) {
    TimeNs prev_end = slice_start_;
    for (const PlanSegment& seg : pcpu_plan_[p]) {
      if (seg.start < slice_start_ || seg.end > slice_end_ || seg.start > seg.end) {
        std::snprintf(buf, sizeof(buf),
                      "pcpu %zu segment [%lld, %lld) outside slice [%lld, %lld)", p,
                      static_cast<long long>(seg.start), static_cast<long long>(seg.end),
                      static_cast<long long>(slice_start_),
                      static_cast<long long>(slice_end_));
        violations.emplace_back(buf);
      }
      if (seg.start < prev_end) {
        std::snprintf(buf, sizeof(buf),
                      "pcpu %zu segments overlap: [%lld, %lld) starts before %lld", p,
                      static_cast<long long>(seg.start), static_cast<long long>(seg.end),
                      static_cast<long long>(prev_end));
        violations.emplace_back(buf);
      }
      prev_end = seg.end;
    }
  }

  // Per-VCPU supply: the slice allocation cannot exceed the reservation's
  // fluid share of the slice plus one period of carry backlog (+1 ns of
  // rounding).
  for (int id : layout_order_) {
    const Reservation& res = *reservations_[id];
    const std::vector<PlanSegment>& segs = vcpu_segments_[id];
    TimeNs alloc = 0;
    for (const PlanSegment& s : segs) {
      TimeNs len = s.end - s.start;
      if (config_.pcpu_recovery.enabled && !replan_pending_) {
        // Degraded plans hand out wall time; the reservation's promise is in
        // effective ns — compare like with like (identity at full speed).
        const Pcpu* pc = machine_->pcpu(s.pcpu);
        if (pc->online()) {
          len = SpeedWallToWork(len, pc->speed_ppb());
        }
      }
      alloc += len;
    }
    TimeNs bound = res.EffectiveBw().SliceOfCeil(slice_len + res.period) + 1;
    if (alloc > bound) {
      std::snprintf(buf, sizeof(buf),
                    "vcpu %d allocated %lld ns in a %lld ns slice, above bound %lld ns",
                    res.vcpu->index(), static_cast<long long>(alloc),
                    static_cast<long long>(slice_len), static_cast<long long>(bound));
      violations.emplace_back(buf);
    }
  }
  return violations;
}

std::vector<std::string> DpWrapScheduler::AuditIsolation() const {
  std::vector<std::string> violations;
  if (!config_.guest_trust.enabled || replan_pending_) {
    // Nothing to isolate from without the trust boundary, and a plan that is
    // mid-transition cannot be judged.
    return violations;
  }
  for (int k = 0; k < machine_->num_pcpus(); ++k) {
    const Pcpu* pc = machine_->pcpu(k);
    if (!pc->online() || pc->speed_ppb() != Bandwidth::kUnit) {
      // Degraded capacity legitimately shrinks everyone's allocation; the
      // pcpu-recovery audit owns that regime.
      return violations;
    }
  }
  // Isolation lower bound: every reservation owned by a well-behaved
  // (non-quarantined, non-crashed) VM must receive at least its fluid share
  // of the current slice, regardless of what the quarantined VM does. The
  // tolerance covers the per-reservation carry trimming (< 1 ns each) plus
  // the floor division of SliceOf.
  TimeNs slice_len = slice_end_ - slice_start_;
  TimeNs tolerance = static_cast<TimeNs>(layout_order_.size()) + 1;
  char buf[256];
  for (int id : layout_order_) {
    const Reservation& res = *reservations_[id];
    const Vcpu* v = res.vcpu;
    if (v->vm()->crashed() || Quarantined(v->vm())) {
      continue;
    }
    TimeNs alloc = 0;
    for (const PlanSegment& s : vcpu_segments_[id]) {
      alloc += s.end - s.start;
    }
    TimeNs bound = res.EffectiveBw().SliceOf(slice_len);
    if (alloc + tolerance < bound) {
      std::snprintf(buf, sizeof(buf),
                    "vcpu %d (well-behaved VM) planned %lld ns of a %lld ns slice, "
                    "below its fluid share %lld ns",
                    v->index(), static_cast<long long>(alloc),
                    static_cast<long long>(slice_len), static_cast<long long>(bound));
      violations.emplace_back(buf);
    }
  }
  return violations;
}

}  // namespace rtvirt
