#include "src/baselines/server_edf.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/common/check.h"
#include "src/hv/machine.h"

namespace rtvirt {

ServerEdfScheduler::ServerEdfScheduler(ServerEdfConfig config) : config_(config) {}

void ServerEdfScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  if (config_.quantum > 0) {
    // Quantum-driven: every PCPU re-enters schedule() each quantum.
    quantum_ticks_.resize(machine_->num_pcpus());
    for (int i = 0; i < machine_->num_pcpus(); ++i) {
      quantum_ticks_[i] = machine_->sim()->After(
          config_.quantum, {this, kEvQuantumTick, static_cast<uint64_t>(i)});
    }
  }
}

void ServerEdfScheduler::OnEvent(uint32_t kind, uint64_t payload) {
  if (kind == kEvQuantumTick) {
    QuantumTick(static_cast<int>(payload));
  } else {
    Server* s = Find(payload);
    RTVIRT_CHECK(s != nullptr, "server-gedf: replenishment for VCPU id %llu, which has no server",
                 static_cast<unsigned long long>(payload));
    Replenish(*s);
  }
}

ServerEdfScheduler::Server* ServerEdfScheduler::Find(uint64_t id) {
  return id < servers_.size() && servers_[id].vcpu != nullptr ? &servers_[id] : nullptr;
}

ServerEdfScheduler::Server* ServerEdfScheduler::Find(const Vcpu* vcpu) {
  return Find(static_cast<uint64_t>(vcpu->global_id()));
}

const ServerEdfScheduler::Server* ServerEdfScheduler::ServerOf(const Vcpu* vcpu) const {
  return const_cast<ServerEdfScheduler*>(this)->Find(vcpu);
}

void ServerEdfScheduler::QuantumTick(int pcpu_id) {
  machine_->pcpu(pcpu_id)->RequestReschedule();
  quantum_ticks_[pcpu_id] = machine_->sim()->After(
      config_.quantum, {this, kEvQuantumTick, static_cast<uint64_t>(pcpu_id)});
}

void ServerEdfScheduler::VcpuInserted(Vcpu* vcpu) {
  size_t id = static_cast<size_t>(vcpu->global_id());
  if (id >= servers_.size()) {
    servers_.resize(id + 1);
    ready_.resize(id / 64 + 1);
  }
  all_vcpus_.push_back(vcpu);
}

void ServerEdfScheduler::VcpuRemoved(Vcpu* vcpu) {
  all_vcpus_.erase(std::remove(all_vcpus_.begin(), all_vcpus_.end(), vcpu), all_vcpus_.end());
  if (Server* s = Find(vcpu)) {
    machine_->sim()->Cancel(s->replenish_event);
    *s = Server{};
    --num_servers_;
    ClearReady(vcpu->global_id());
  }
}

void ServerEdfScheduler::SetServer(Vcpu* vcpu, ServerParams params) {
  assert(params.budget > 0 && params.period >= params.budget);
  size_t id = static_cast<size_t>(vcpu->global_id());
  RTVIRT_CHECK(id < servers_.size(), "server-gedf: SetServer on %s, which was never inserted",
               vcpu->name().c_str());
  Server& s = servers_[id];
  if (s.vcpu == nullptr) {
    ++num_servers_;
  }
  machine_->sim()->Cancel(s.replenish_event);
  s.vcpu = vcpu;
  s.params = params;
  Replenish(s);
}

void ServerEdfScheduler::Replenish(Server& s) {
  Vcpu* vcpu = s.vcpu;
  // Settle any in-flight consumption first, so it is charged against the
  // old budget and not silently deducted from the fresh one.
  if (vcpu->running()) {
    vcpu->pcpu()->SettleAccounting();
  }
  TimeNs now = machine_->sim()->Now();
  // Quantum-driven overruns (negative budget) are repaid here; positive
  // leftovers (deferrable) are preserved but never exceed one budget.
  s.budget = std::min(s.params.budget, s.budget + s.params.budget);
  s.deadline = now + s.params.period;
  s.replenish_event = machine_->sim()->After(
      s.params.period, {this, kEvReplenish, static_cast<uint64_t>(vcpu->global_id())});
  if (!vcpu->blocked()) {
    SetReady(vcpu->global_id());
    TickleFor(vcpu);
  }
}

void ServerEdfScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  if (Server* s = Find(vcpu)) {
    // May go negative in quantum-driven mode (enforcement lag); the debt is
    // repaid at replenishment.
    s->budget -= ran;
  }
}

void ServerEdfScheduler::TickleFor(Vcpu* vcpu) {
  // Prefer an idle PCPU, then one running best-effort work, then (for a
  // server) the PCPU running the latest-deadline server — classic gEDF.
  // Idle PCPUs are taken round-robin: simultaneous wakes/replenishments must
  // tickle *distinct* PCPUs or the coalesced reschedule serves only one.
  Pcpu* best_effort_pcpu = nullptr;
  Pcpu* latest_pcpu = nullptr;
  TimeNs latest_deadline = -1;
  int n = machine_->num_pcpus();
  for (int k = 0; k < n; ++k) {
    Pcpu* p = machine_->pcpu((tickle_cursor_ + k) % n);
    Vcpu* cur = p->current();
    if (cur == nullptr) {
      tickle_cursor_ = (p->id() + 1) % n;
      p->RequestReschedule();
      return;
    }
    const Server* s = Find(cur);
    if (s == nullptr) {
      best_effort_pcpu = p;
    } else if (s->deadline > latest_deadline) {
      latest_deadline = s->deadline;
      latest_pcpu = p;
    }
  }
  if (best_effort_pcpu != nullptr) {
    best_effort_pcpu->RequestReschedule();
    return;
  }
  const Server* s = Find(vcpu);
  if (s != nullptr && latest_pcpu != nullptr && s->deadline < latest_deadline) {
    latest_pcpu->RequestReschedule();
  }
}

void ServerEdfScheduler::VcpuWake(Vcpu* vcpu) {
  const Server* s = Find(vcpu);
  if (s == nullptr) {
    TickleFor(vcpu);
  } else if (s->budget > 0) {
    SetReady(vcpu->global_id());
    TickleFor(vcpu);
  }
}

void ServerEdfScheduler::VcpuBlock(Vcpu* vcpu) { (void)vcpu; }

Vcpu* ServerEdfScheduler::PickBestEffort(Pcpu* pcpu) {
  size_t n = all_vcpus_.size();
  if (num_servers_ == n) {
    return nullptr;  // Every VCPU has a server: no best-effort work exists.
  }
  for (size_t i = 0; i < n; ++i) {
    Vcpu* v = all_vcpus_[(be_cursor_ + i) % n];
    if (Find(v) != nullptr) {
      continue;  // Depleted servers wait for replenishment (non-work-conserving).
    }
    bool continuing = v->running() && v->pcpu() == pcpu;
    if (!v->runnable() && !continuing) {
      continue;
    }
    be_cursor_ = (be_cursor_ + i + 1) % n;
    return v;
  }
  return nullptr;
}

ScheduleDecision ServerEdfScheduler::PickNext(Pcpu* pcpu) {
  TimeNs now = machine_->sim()->Now();
  Server* best = nullptr;
  // Visit the ready servers in id (= insertion) order so EDF tie-breaking is
  // deterministic.
  for (size_t w = 0; w < ready_.size(); ++w) {
    for (uint64_t bits = ready_[w]; bits != 0; bits &= bits - 1) {
      int bit = std::countr_zero(bits);
      Server& s = servers_[w * 64 + bit];
      // '<=': deadline ties go to the later-inserted server, matching the
      // paper's Figure 1a schedule (VM3 runs before VM1 at their shared
      // deadline); EDF permits either order. A later deadline cannot win,
      // so skip it before touching the VCPU.
      if (best != nullptr && s.deadline > best->deadline) {
        continue;
      }
      if (s.budget <= 0 || s.vcpu->blocked()) {
        ready_[w] &= ~(uint64_t{1} << bit);  // Depleted or blocked: see ready_.
        continue;
      }
      bool continuing = s.vcpu->running() && s.vcpu->pcpu() == pcpu;
      if (!s.vcpu->runnable() && !continuing) {
        continue;  // Running on another PCPU.
      }
      best = &s;
    }
  }
  if (best != nullptr) {
    TimeNs horizon = best->budget;
    if (config_.quantum > 0) {
      // Budget enforcement only at quantum boundaries.
      horizon = (horizon + config_.quantum - 1) / config_.quantum * config_.quantum;
    }
    return ScheduleDecision{best->vcpu, now + horizon};
  }
  Vcpu* be = PickBestEffort(pcpu);
  if (be != nullptr) {
    return ScheduleDecision{be, now + config_.best_effort_quantum};
  }
  return ScheduleDecision{nullptr, kTimeNever};
}

TimeNs ServerEdfScheduler::ScheduleCost(const Pcpu* pcpu) const {
  (void)pcpu;
  return config_.pick_cost;
}

}  // namespace rtvirt
