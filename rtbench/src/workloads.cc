#include "rtbench/src/workloads.h"

namespace rtbench {

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kMcVideo:
      return "mc_video";
    case WorkloadId::kRtxenScale:
      return "rtxen_scale";
    case WorkloadId::kVideoChurn:
      return "video_churn";
  }
  return "?";
}

std::optional<WorkloadId> ParseWorkload(std::string_view name) {
  for (WorkloadId id : kAllWorkloads) {
    if (name == WorkloadName(id)) {
      return id;
    }
  }
  return std::nullopt;
}

Shape DefaultShape(WorkloadId id) {
  switch (id) {
    case WorkloadId::kMcVideo:
      return Shape{Sec(60)};  // 30k memcached requests: 30 beyond p99.9.
    case WorkloadId::kRtxenScale:
      return Shape{Sec(30)};  // Table 6's duration; ~21k RTA jobs.
    case WorkloadId::kVideoChurn:
      return Shape{Sec(180)};  // ~1k episodes across the 16 VCPU slots.
  }
  return Shape{};
}

ExperimentConfig WorkloadConfig(WorkloadId id, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.framework = id == WorkloadId::kRtxenScale ? Framework::kRtXen : Framework::kRtvirt;
  cfg.machine.num_pcpus = 15;
  if (id == WorkloadId::kRtxenScale) {
    // The quantum-driven RT-Xen the paper evaluated (1 ms), as in Table 6.
    cfg.server_edf.quantum = Ms(1);
  }
  cfg.seed = seed;
  return cfg;
}

uint64_t Fixture::AdmitAttempts() const {
  uint64_t n = setup_admit_refused + servers.size() + rtas.size();
  for (const auto& d : churn) {
    n += static_cast<uint64_t>(d->rtas_started() + d->rtas_rejected());
  }
  return n;
}

uint64_t Fixture::AdmitRefused() const {
  uint64_t n = setup_admit_refused;
  for (const auto& s : servers) {
    n += s->admission_result() != kGuestOk ? 1 : 0;
  }
  for (const auto& r : rtas) {
    n += r->admission_result() != kGuestOk ? 1 : 0;
  }
  for (const auto& d : churn) {
    n += static_cast<uint64_t>(d->rtas_rejected());
  }
  return n;
}

}  // namespace rtbench
