// Simulator-core configuration. It has no fields: the core has one event
// queue and no knobs. The struct (and ExperimentConfig::sim) stays only
// because the benchmark's traced host (rtbench/src/traced_host.cc)
// constructs its Simulator from config.sim.

#ifndef SRC_SIM_SIM_CONFIG_H_
#define SRC_SIM_SIM_CONFIG_H_

namespace rtvirt {

struct SimConfig {};

}  // namespace rtvirt

#endif  // SRC_SIM_SIM_CONFIG_H_
