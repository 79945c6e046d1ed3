#include "rtbench/src/traced_host.h"

#include "src/common/check.h"
#include "src/perf/alloc_hooks.h"
#include "src/perf/perf_recorder.h"

namespace rtbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHostPick:
      return "host.pick";
    case Layer::kHostWake:
      return "host.wake";
    case Layer::kHostBlock:
      return "host.block";
    case Layer::kHostAccount:
      return "host.account";
    case Layer::kHostHypercall:
      return "host.hypercall";
    case Layer::kHostOther:
      return "host.other";
    case Layer::kChannel:
      return "channel";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Tracer::Push() {
  RTVIRT_CHECK(depth_ < kMaxDepth, "rtbench tracer: spans nested deeper than %d", kMaxDepth);
  Frame& f = stack_[depth_++];
  f.child_ticks = 0;
  f.child_allocs = 0;
  f.alloc_start = perf::AllocNow().allocs;
  if (depth_ == 1 && dpwrap_ != nullptr) {
    f.replans_start = dpwrap_->replans();
  }
  f.start = perf::CycleCount();  // Last, so the bookkeeping above stays outside the span.
}

void Tracer::Pop(Layer layer) {
  uint64_t end = perf::CycleCount();
  uint64_t allocs_end = perf::AllocNow().allocs;
  RTVIRT_CHECK(depth_ > 0, "rtbench tracer: span closed without an open span");
  Frame& f = stack_[--depth_];
  uint64_t ticks = end - f.start;
  uint64_t allocs = allocs_end - f.alloc_start;
  LayerStats& s = layers_[static_cast<int>(layer)];
  ++s.calls;
  s.ticks += ticks;
  s.self_ticks += ticks - f.child_ticks;
  s.self_allocs += allocs - f.child_allocs;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ticks += ticks;
    stack_[depth_ - 1].child_allocs += allocs;
  } else {
    top_ticks_ += ticks;
    top_allocs_ += allocs;
    if (dpwrap_ != nullptr) {
      top_replans_ += dpwrap_->replans() - f.replans_start;
    }
  }
}

namespace {

class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer), layer_(layer) { tracer_->Push(); }
  ~Span() { tracer_->Pop(layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
};

}  // namespace

void TracedScheduler::Attach(Machine* machine) {
  HostScheduler::Attach(machine);
  inner_->Attach(machine);
}

void TracedScheduler::VcpuInserted(Vcpu* vcpu) {
  Span span(tracer_, Layer::kHostOther);
  inner_->VcpuInserted(vcpu);
}

void TracedScheduler::VcpuRemoved(Vcpu* vcpu) {
  Span span(tracer_, Layer::kHostOther);
  inner_->VcpuRemoved(vcpu);
}

void TracedScheduler::VcpuWake(Vcpu* vcpu) {
  Span span(tracer_, Layer::kHostWake);
  inner_->VcpuWake(vcpu);
}

void TracedScheduler::VcpuBlock(Vcpu* vcpu) {
  Span span(tracer_, Layer::kHostBlock);
  inner_->VcpuBlock(vcpu);
}

ScheduleDecision TracedScheduler::PickNext(Pcpu* pcpu) {
  Span span(tracer_, Layer::kHostPick);
  return inner_->PickNext(pcpu);
}

void TracedScheduler::PcpuCapacityChanged(Pcpu* pcpu) {
  Span span(tracer_, Layer::kHostOther);
  inner_->PcpuCapacityChanged(pcpu);
}

void TracedScheduler::AccountRun(Vcpu* vcpu, TimeNs ran) {
  Span span(tracer_, Layer::kHostAccount);
  inner_->AccountRun(vcpu, ran);
}

int64_t TracedScheduler::Hypercall(Vcpu* caller, const HypercallArgs& args) {
  Span span(tracer_, Layer::kHostHypercall);
  return inner_->Hypercall(caller, args);
}

int64_t TracedPolicy::RequestBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                                       int64_t reason) {
  int64_t rc;
  {
    Span span(tracer_, Layer::kChannel);
    rc = inner_->RequestBandwidth(vcpu, rta_bw, period, reason);
  }
  ++tracer_->bw_requests;
  tracer_->bw_refusals += rc != kHypercallOk ? 1 : 0;
  return rc;
}

int64_t TracedPolicy::MoveBandwidth(Vcpu* to, Bandwidth to_bw, TimeNs to_period, Vcpu* from,
                                    Bandwidth from_bw, TimeNs from_period) {
  int64_t rc;
  {
    Span span(tracer_, Layer::kChannel);
    rc = inner_->MoveBandwidth(to, to_bw, to_period, from, from_bw, from_period);
  }
  ++tracer_->bw_requests;
  tracer_->bw_refusals += rc != kHypercallOk ? 1 : 0;
  return rc;
}

void TracedPolicy::ReleaseBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                                    int64_t reason) {
  Span span(tracer_, Layer::kChannel);
  inner_->ReleaseBandwidth(vcpu, rta_bw, period, reason);
}

void TracedPolicy::PublishNextDeadline(Vcpu* vcpu, TimeNs deadline) {
  ++tracer_->deadline_publishes;
  Span span(tracer_, Layer::kChannel);
  inner_->PublishNextDeadline(vcpu, deadline);
}

void TracedPolicy::Reset() {
  Span span(tracer_, Layer::kChannel);
  inner_->Reset();
}

TracedHost::TracedHost(ExperimentConfig config, Tracer* tracer)
    : config_(std::move(config)), tracer_(tracer), sim_(config_.sim), rng_(config_.seed) {
  RTVIRT_CHECK(!config_.faults.active() && !config_.audit.enabled && !config_.control.enabled,
               "rtbench TracedHost: faults, audit and control are not supported");
  machine_ = std::make_unique<Machine>(&sim_, config_.machine);
  std::unique_ptr<HostScheduler> inner;
  if (config_.framework == Framework::kRtvirt) {
    auto sched = std::make_unique<DpWrapScheduler>(config_.dpwrap);
    dpwrap_ = sched.get();
    inner = std::move(sched);
  } else {
    RTVIRT_CHECK(config_.framework == Framework::kRtXen,
                 "rtbench TracedHost: only the RTVirt and RT-Xen frameworks are supported");
    auto sched = std::make_unique<ServerEdfScheduler>(config_.server_edf);
    server_edf_ = sched.get();
    inner = std::move(sched);
  }
  tracer_->set_dpwrap(dpwrap_);
  machine_->SetScheduler(std::make_unique<TracedScheduler>(std::move(inner), tracer_));
}

TracedHost::~TracedHost() = default;

GuestOs* TracedHost::AddGuest(const std::string& name, int vcpus, GuestConfig guest_config) {
  Vm* vm = machine_->AddVm(name);
  auto guest = std::make_unique<GuestOs>(vm, guest_config);
  for (int i = 0; i < vcpus; ++i) {
    guest->AddVcpu();
  }
  std::unique_ptr<CrossLayerPolicy> policy;
  if (config_.framework == Framework::kRtvirt) {
    policy = std::make_unique<RtvirtGuestChannel>(machine_.get(), config_.channel);
  } else {
    policy = std::make_unique<CrossLayerPolicy>();  // The guest's own default.
  }
  guest->SetCrossLayer(std::make_unique<TracedPolicy>(std::move(policy), tracer_));
  guests_.push_back(std::move(guest));
  return guests_.back().get();
}

void TracedHost::SetVcpuServer(Vcpu* vcpu, ServerParams params) {
  RTVIRT_CHECK(server_edf_ != nullptr, "rtbench TracedHost: server interfaces need RT-Xen");
  server_edf_->SetServer(vcpu, params);
}

void TracedHost::InstallChannel(GuestOs* guest, const GuestChannelOptions& options) {
  RTVIRT_CHECK(config_.framework == Framework::kRtvirt,
               "rtbench TracedHost: channels need the RTVirt framework");
  guest->SetCrossLayer(std::make_unique<TracedPolicy>(
      std::make_unique<RtvirtGuestChannel>(machine_.get(), options), tracer_));
}

void TracedHost::Run(TimeNs until) {
  if (!started_) {
    machine_->Start();
    started_ = true;
  }
  sim_.RunUntil(until);
}

}  // namespace rtbench
