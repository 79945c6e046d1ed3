#include "src/workloads/sporadic.h"

#include <utility>

namespace rtvirt {

SporadicRta::SporadicRta(GuestOs* guest, std::string name, RtaParams params, Rng rng,
                         TimeNs ia_lo, TimeNs ia_hi, NetworkModel net)
    : guest_(guest),
      task_(guest->CreateTask(std::move(name))),
      params_(params),
      rng_(rng),
      ia_lo_(ia_lo),
      ia_hi_(ia_hi),
      net_(net) {
  params_.sporadic = true;
}

void SporadicRta::Start(TimeNs start, uint64_t max_requests) {
  max_requests_ = max_requests;
  Simulator* sim = guest_->vm()->machine()->sim();
  if (start <= sim->Now()) {
    Register();
  } else {
    sim->At(start, {this, kEvRegister});
  }
}

void SporadicRta::OnEvent(uint32_t kind, uint64_t) {
  switch (kind) {
    case kEvRegister:
      Register();
      return;
    case kEvArrival: {
      TimeNs now = guest_->vm()->machine()->sim()->Now();
      guest_->ReleaseJob(task_, params_.slice, now + params_.period);
      return;
    }
    case kEvSend:
      ClientSend();
      return;
  }
}

void SporadicRta::Register() {
  admission_result_ = guest_->SchedSetAttr(task_, params_);
  if (admission_result_ != kGuestOk) {
    return;
  }
  ClientSend();
}

void SporadicRta::ClientSend() {
  if (requests_sent_ >= max_requests_) {
    return;
  }
  ++requests_sent_;
  Simulator* sim = guest_->vm()->machine()->sim();
  TimeNs delay = net_.Sample(rng_);
  sim->After(delay, {this, kEvArrival});
  sim->After(rng_.UniformTime(ia_lo_, ia_hi_), {this, kEvSend});
}

}  // namespace rtvirt
