// The benchmark's three workloads, written once against the surface that
// both host assemblies offer: rtvirt::Experiment (the untraced, measured run)
// and TracedHost (the same pieces with tracing wrappers, see traced_host.h).
// A builder only calls AddGuest / SetVcpuServer / rng() / machine() and
// InstallChannel, so the two assemblies receive identical inputs.

#ifndef RTBENCH_SRC_WORKLOADS_H_
#define RTBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/carts.h"
#include "src/analysis/dmpr.h"
#include "src/metrics/deadline_monitor.h"
#include "src/perf/perf_recorder.h"
#include "src/runner/experiment.h"
#include "src/workloads/churn.h"
#include "src/workloads/groups.h"
#include "src/workloads/memcached.h"
#include "src/workloads/periodic.h"
#include "src/workloads/vlc.h"

namespace rtbench {

using namespace rtvirt;

enum class WorkloadId { kMcVideo, kRtxenScale, kVideoChurn };

inline constexpr WorkloadId kAllWorkloads[] = {WorkloadId::kMcVideo, WorkloadId::kRtxenScale,
                                               WorkloadId::kVideoChurn};

const char* WorkloadName(WorkloadId id);
std::optional<WorkloadId> ParseWorkload(std::string_view name);

// How one simulation of a workload is shaped. `sim_len` is the simulated span
// the workloads generate load over; the run continues for the workload's
// drain margin so every released job completes.
struct Shape {
  TimeNs sim_len = 0;
};

// The benchmark's per-run shape of each workload: long enough for >= 10k
// latency samples (p99.9 with ten samples beyond it) and a stable host-time
// reading, short enough for many repeats inside one run.
Shape DefaultShape(WorkloadId id);

// Frameworks and experiment configuration per workload (seed included).
ExperimentConfig WorkloadConfig(WorkloadId id, uint64_t seed);

// Memcached SLO (paper 4.4): 500 us at p99.9.
inline constexpr TimeNs kMcSlo = Us(500);

// Everything a workload owns besides the host assembly. Declared after the
// host in every scope so it is destroyed first.
struct Fixture {
  DeadlineMonitor rt;  // Periodic and video RTA jobs.
  DeadlineMonitor mc;  // Memcached requests (mc_video only).
  std::vector<std::unique_ptr<MemcachedServer>> servers;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
  std::vector<std::unique_ptr<ChurnDriver>> churn;
  // Admissions refused at set-up (rtxen_scale: the CARTS/DMPR packing test).
  uint64_t setup_admit_refused = 0;
  // RT-Xen: sum of the installed servers' budget/period (static).
  double server_bandwidth = 0;
  // Host seconds spent in MinimalInterface + DmprPack during set-up.
  double analysis_s = 0;
  TimeNs load_end = 0;   // Workloads stop generating load here.
  TimeNs run_until = 0;  // The simulation runs to here (load_end + drain).

  // Admission attempts (set-up packing refusals plus every RTA registration
  // the workloads made) and how many the packing test, guest or host refused.
  uint64_t AdmitAttempts() const;
  uint64_t AdmitRefused() const;
  // The latency samples the workload is judged by: memcached requests on
  // mc_video, RTA jobs elsewhere.
  const Samples& Latency() const {
    return mc.response_times_us().empty() ? rt.response_times_us() : mc.response_times_us();
  }
};

// Replaces `guest`'s channel with an RTVirt channel using `options` (the
// Experiment builds channels with the experiment-wide defaults). Experiment
// keeps a raw pointer to the replaced channel for ChannelOf()/resilience(),
// which the benchmark therefore never calls.
inline void InstallChannel(Experiment& exp, GuestOs* guest, const GuestChannelOptions& options) {
  guest->SetCrossLayer(std::make_unique<RtvirtGuestChannel>(&exp.machine(), options));
}

namespace internal {

// Fig. 5b's RTVirt row: 5 memcached VMs (100 qps, 58 us slice, 6 us slack on
// the 500 us period) and 10 VLC video VMs (3x24, 3x30, 2x48, 2x60 fps).
// Construction order matches bench/fig5b so seed 42 reproduces its numbers.
template <class Host>
void BuildMcVideo(Host& host, Fixture& fx, const Shape& shape) {
  static constexpr int kVideoFps[] = {24, 24, 24, 30, 30, 30, 48, 48, 60, 60};
  fx.load_end = shape.sim_len;
  fx.run_until = shape.sim_len + Ms(300);
  for (int i = 0; i < 5; ++i) {
    std::string name = "mc" + std::to_string(i);
    GuestOs* g = host.AddGuest(name, 1, GuestConfig{});
    MemcachedConfig mcfg;
    mcfg.slice = Us(58);
    GuestChannelOptions opts = host.config().channel;
    opts.budget_slack = Us(6);
    InstallChannel(host, g, opts);
    auto server = std::make_unique<MemcachedServer>(g, name, mcfg, host.rng().Fork());
    server->task()->set_observer(&fx.mc);
    server->Start(0, fx.load_end);
    fx.servers.push_back(std::move(server));
  }
  for (int i = 0; i < 10; ++i) {
    std::string name = "video" + std::to_string(i);
    GuestOs* g = host.AddGuest(name, 1, GuestConfig{});
    auto rta = std::make_unique<PeriodicRta>(g, name, VlcParams(kVideoFps[i]));
    rta->task()->set_observer(&fx.rt);
    rta->Start(0, fx.load_end);
    fx.rtas.push_back(std::move(rta));
  }
}

// Table 6's Single-RTA VMs scenario under RT-Xen: 10 copies of the ten
// Table 5 groups, one RTA per single-VCPU VM, each behind its CARTS
// interface (1 ms grid) as a deferrable server; DMPR packing admits RTAs
// until the interfaces would claim more than the 15 PCPUs. Each RTA is
// released at an offset in [0, period) drawn from the experiment RNG, so the
// seed changes the inputs; admission does not depend on the offsets.
template <class Host>
void BuildRtxenScale(Host& host, Fixture& fx, const Shape& shape) {
  fx.load_end = shape.sim_len;
  fx.run_until = shape.sim_len + Ms(500);
  Rng phases = host.rng().Fork();
  std::vector<PeriodicResource> interfaces;
  for (int copy = 0; copy < 10; ++copy) {
    for (size_t gi = 0; gi < kTable5Groups.size(); ++gi) {
      const RtaParams& params = kTable5Groups[gi];
      std::string name = "vm" + std::to_string(copy) + "." + std::to_string(gi);
      uint64_t t0 = perf::MonotonicNowNs();
      std::optional<PeriodicResource> iface =
          MinimalInterface(std::vector<RtaParams>{params}, CartsOptions{Ms(1), 0, 0});
      bool fits = false;
      if (iface.has_value()) {
        interfaces.push_back(*iface);
        fits = DmprPack(interfaces).claimed_cpus <= host.machine().num_pcpus();
        if (!fits) {
          interfaces.pop_back();
        }
      }
      fx.analysis_s += static_cast<double>(perf::MonotonicNowNs() - t0) * 1e-9;
      if (!fits) {
        ++fx.setup_admit_refused;
        continue;
      }
      GuestOs* g = host.AddGuest(name, 1, GuestConfig{});
      host.SetVcpuServer(g->vm()->vcpu(0), ServerParams{iface->budget, iface->period});
      g->SetVcpuCapacity(0, iface->bandwidth());
      fx.server_bandwidth += iface->bandwidth().ToDouble();
      auto rta = std::make_unique<PeriodicRta>(g, name + ".rta", params);
      rta->task()->set_observer(&fx.rt);
      rta->Start(phases.UniformTime(0, params.period - 1), fx.load_end);
      fx.rtas.push_back(std::move(rta));
    }
  }
}

// Fig. 4's structure (4 VMs x 4 VCPUs, Table 3 VLC episodes, 20% idle 10%
// reservations) with episodes compressed ~100x: U(50 ms, 500 ms) with gaps
// of at most 50 ms, so reservations change through admission, INC/DEC and
// unregister hypercalls many times per simulated second.
template <class Host>
void BuildVideoChurn(Host& host, Fixture& fx, const Shape& shape) {
  fx.load_end = shape.sim_len;
  fx.run_until = shape.sim_len + Sec(1);
  ChurnConfig ccfg;
  ccfg.experiment_len = fx.load_end;
  ccfg.min_episode = Ms(50);
  ccfg.max_episode = Ms(500);
  ccfg.max_gap = Ms(50);
  for (int v = 0; v < 4; ++v) {
    GuestOs* g = host.AddGuest("VM" + std::to_string(v + 1), 4, GuestConfig{});
    fx.churn.push_back(std::make_unique<ChurnDriver>(g, ccfg, host.rng().Fork(), &fx.rt));
    fx.churn.back()->Start();
  }
}

}  // namespace internal

// Builds workload `id` on `host` (an Experiment or a TracedHost constructed
// from WorkloadConfig(id, seed)).
template <class Host>
void BuildWorkload(WorkloadId id, Host& host, Fixture& fx, const Shape& shape) {
  switch (id) {
    case WorkloadId::kMcVideo:
      internal::BuildMcVideo(host, fx, shape);
      break;
    case WorkloadId::kRtxenScale:
      internal::BuildRtxenScale(host, fx, shape);
      break;
    case WorkloadId::kVideoChurn:
      internal::BuildVideoChurn(host, fx, shape);
      break;
  }
}

}  // namespace rtbench

#endif  // RTBENCH_SRC_WORKLOADS_H_
