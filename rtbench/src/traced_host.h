// Traced assembly of the simulator for the per-layer run.
//
// Experiment installs its host scheduler in its constructor, so a wrapper
// cannot be slid under it. TracedHost therefore builds the same pieces the
// Experiment builds (Simulator, Machine, scheduler, guests, channels) in the
// same order, but installs the host scheduler and every guest's cross-layer
// policy behind wrappers that time each call with the cycle counter and
// count the allocations inside it. Nothing under src/ changes; a self-test
// checks that the simulated output equals Experiment's.

#ifndef RTBENCH_SRC_TRACED_HOST_H_
#define RTBENCH_SRC_TRACED_HOST_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/guest/cross_layer.h"
#include "src/guest/guest_os.h"
#include "src/hv/host_scheduler.h"
#include "src/hv/machine.h"
#include "src/rtvirt/dpwrap.h"
#include "src/rtvirt/guest_channel.h"
#include "src/runner/experiment.h"
#include "src/sim/simulator.h"

namespace rtbench {

using namespace rtvirt;

// The boundaries the wrappers time. Each span's self time is its duration
// minus the spans nested inside it (a channel call's nested hypercall).
enum class Layer : int {
  kHostPick,       // HostScheduler::PickNext
  kHostWake,       // HostScheduler::VcpuWake
  kHostBlock,      // HostScheduler::VcpuBlock
  kHostAccount,    // HostScheduler::AccountRun
  kHostHypercall,  // HostScheduler::Hypercall
  kHostOther,      // VcpuInserted/Removed, PcpuCapacityChanged
  kChannel,        // Every CrossLayerPolicy call
  kCount,
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);
const char* LayerName(Layer layer);

struct LayerStats {
  uint64_t calls = 0;
  uint64_t ticks = 0;        // Whole spans.
  uint64_t self_ticks = 0;   // Minus nested spans.
  uint64_t self_allocs = 0;  // operator-new calls outside nested spans.
};

class Tracer {
 public:
  // The DP-WRAP scheduler whose replans are attributed to spans (null for
  // other host schedulers).
  void set_dpwrap(const DpWrapScheduler* dpwrap) { dpwrap_ = dpwrap; }

  void Push();
  void Pop(Layer layer);

  const LayerStats& stats(Layer layer) const { return layers_[static_cast<int>(layer)]; }
  // Totals of outermost spans: wall ticks, allocations and DP-WRAP replans
  // that happened inside some wrapper call.
  uint64_t top_ticks() const { return top_ticks_; }
  uint64_t top_allocs() const { return top_allocs_; }
  uint64_t top_replans() const { return top_replans_; }

  // Cross-layer channel counts (also inert policies, on RT-Xen).
  uint64_t bw_requests = 0;  // RequestBandwidth + MoveBandwidth calls.
  uint64_t bw_refusals = 0;  // ... that returned an error.
  uint64_t deadline_publishes = 0;

 private:
  struct Frame {
    uint64_t start = 0;
    uint64_t child_ticks = 0;
    uint64_t alloc_start = 0;
    uint64_t child_allocs = 0;
    uint64_t replans_start = 0;
  };
  static constexpr int kMaxDepth = 16;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  std::array<LayerStats, kNumLayers> layers_{};
  uint64_t top_ticks_ = 0;
  uint64_t top_allocs_ = 0;
  uint64_t top_replans_ = 0;
  const DpWrapScheduler* dpwrap_ = nullptr;
};

// Forwards every HostScheduler call to `inner`, timing the dispatch path.
class TracedScheduler final : public HostScheduler {
 public:
  TracedScheduler(std::unique_ptr<HostScheduler> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  void Attach(Machine* machine) override;
  void VcpuInserted(Vcpu* vcpu) override;
  void VcpuRemoved(Vcpu* vcpu) override;
  void VcpuWake(Vcpu* vcpu) override;
  void VcpuBlock(Vcpu* vcpu) override;
  ScheduleDecision PickNext(Pcpu* pcpu) override;
  void PcpuCapacityChanged(Pcpu* pcpu) override;
  void AccountRun(Vcpu* vcpu, TimeNs ran) override;
  int64_t Hypercall(Vcpu* caller, const HypercallArgs& args) override;
  // Cost getters are not spanned: they are one virtual load each, below the
  // span's own cost, and stay in the residual.
  TimeNs ScheduleCost(const Pcpu* pcpu) const override { return inner_->ScheduleCost(pcpu); }
  TimeNs DispatchCost(const Vcpu* next) const override { return inner_->DispatchCost(next); }

 private:
  std::unique_ptr<HostScheduler> inner_;
  Tracer* tracer_;
};

// Forwards every CrossLayerPolicy call to `inner` inside a channel span.
class TracedPolicy final : public CrossLayerPolicy {
 public:
  TracedPolicy(std::unique_ptr<CrossLayerPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  int64_t RequestBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period,
                           int64_t reason) override;
  int64_t MoveBandwidth(Vcpu* to, Bandwidth to_bw, TimeNs to_period, Vcpu* from,
                        Bandwidth from_bw, TimeNs from_period) override;
  void ReleaseBandwidth(Vcpu* vcpu, Bandwidth rta_bw, TimeNs period, int64_t reason) override;
  void PublishNextDeadline(Vcpu* vcpu, TimeNs deadline) override;
  void Reset() override;

 private:
  std::unique_ptr<CrossLayerPolicy> inner_;
  Tracer* tracer_;
};

// The Experiment's default-path assembly with traced scheduler and policies.
// Supports what the benchmark workloads use: the RTVirt and RT-Xen
// frameworks without faults, audit, control or checkpointing.
class TracedHost {
 public:
  TracedHost(ExperimentConfig config, Tracer* tracer);
  ~TracedHost();
  TracedHost(const TracedHost&) = delete;
  TracedHost& operator=(const TracedHost&) = delete;

  const ExperimentConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }
  Machine& machine() { return *machine_; }
  Rng& rng() { return rng_; }
  DpWrapScheduler* dpwrap() const { return dpwrap_; }

  GuestOs* AddGuest(const std::string& name, int vcpus, GuestConfig guest_config);
  void SetVcpuServer(Vcpu* vcpu, ServerParams params);
  void InstallChannel(GuestOs* guest, const GuestChannelOptions& options);
  void Run(TimeNs until);

 private:
  ExperimentConfig config_;
  Tracer* tracer_;
  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  DpWrapScheduler* dpwrap_ = nullptr;
  ServerEdfScheduler* server_edf_ = nullptr;
  std::vector<std::unique_ptr<GuestOs>> guests_;
  Rng rng_;
  bool started_ = false;
};

inline void InstallChannel(TracedHost& host, GuestOs* guest, const GuestChannelOptions& options) {
  host.InstallChannel(guest, options);
}

}  // namespace rtbench

#endif  // RTBENCH_SRC_TRACED_HOST_H_
