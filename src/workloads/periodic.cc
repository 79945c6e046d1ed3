#include "src/workloads/periodic.h"

#include <string>
#include <utility>

namespace rtvirt {

PeriodicRta::PeriodicRta(GuestOs* guest, std::string name, RtaParams params)
    : guest_(guest), task_(guest->CreateTask(std::move(name))), params_(params),
      ckpt_section_("wl." + task_->name()) {
  params_.sporadic = false;
}

void PeriodicRta::Start(TimeNs start, TimeNs stop) {
  stop_ = stop;
  Simulator* sim = guest_->vm()->machine()->sim();
  if (start <= sim->Now()) {
    Register();
  } else {
    sim->At(start, {this, kEvRegister});
  }
}

void PeriodicRta::Register() {
  Simulator* sim = guest_->vm()->machine()->sim();
  ++admission_attempts_;
  admission_result_ = guest_->SchedSetAttr(task_, params_);
  if (admission_result_ != kGuestOk) {
    if (admission_retry_ > 0 && sim->Now() + admission_retry_ < stop_) {
      sim->After(admission_retry_, {this, kEvRegister});
    }
    return;
  }
  admitted_at_ = sim->Now();
  task_->set_next_release(sim->Now());
  ReleaseOne();
}

void PeriodicRta::ReleaseOne() {
  Simulator* sim = guest_->vm()->machine()->sim();
  TimeNs now = sim->Now();
  if (now >= stop_) {
    guest_->SchedUnregister(task_);
    return;
  }
  // Publish the next arrival before releasing so the guest's deadline
  // publication sees it.
  task_->set_next_release(now + params_.period);
  guest_->ReleaseJob(task_, job_work_ > 0 ? job_work_ : params_.slice, now + params_.period);
  release_event_ = sim->After(params_.period, {this, kEvRelease});
}

void PeriodicRta::SaveState(ckpt::Writer& w) const {
  w.I64(stop_);
  w.I64(job_work_);
  w.I64(admission_retry_);
  w.U32(static_cast<uint32_t>(admission_result_));
  w.U32(static_cast<uint32_t>(admission_attempts_));
  w.I64(admitted_at_);
}

std::string PeriodicRta::RestoreState(ckpt::Reader& r) {
  stop_ = r.I64();
  job_work_ = r.I64();
  admission_retry_ = r.I64();
  admission_result_ = static_cast<int>(r.U32());
  admission_attempts_ = static_cast<int>(r.U32());
  admitted_at_ = r.I64();
  return r.ok() ? "" : ckpt_section_ + ": truncated section";
}

void PeriodicRta::OnEvent(uint32_t kind, uint64_t) {
  switch (kind) {
    case kEvRegister:
      Register();
      return;
    case kEvRelease:
      ReleaseOne();
      return;
  }
}

std::string PeriodicRta::AdoptEvent(uint32_t kind, uint64_t, EventQueue::EventId id) {
  switch (kind) {
    case kEvRegister:
      return "";
    case kEvRelease:
      release_event_ = id;
      return "";
  }
  return ckpt_section_ + ": unknown event kind " + std::to_string(kind);
}

}  // namespace rtvirt
