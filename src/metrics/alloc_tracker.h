// Periodic sampling of per-VM (and per-VCPU) CPU allocation, producing the
// time series of Figure 4.

#ifndef SRC_METRICS_ALLOC_TRACKER_H_
#define SRC_METRICS_ALLOC_TRACKER_H_

#include <vector>

#include "src/hv/machine.h"
#include "src/sim/simulator.h"

namespace rtvirt {

class AllocTracker : public EventOwner {
 public:
  struct Row {
    TimeNs time = 0;
    // CPU fraction consumed in the window, per VM (index = VM id), as a
    // percentage of one CPU (can exceed 100 for multi-VCPU VMs).
    std::vector<double> vm_pct;
  };

  AllocTracker(Machine* machine, TimeNs window) : machine_(machine), window_(window) {}

  // Samples every `window` until `stop`.
  void Start(TimeNs stop);

  const std::vector<Row>& rows() const { return rows_; }

 private:
  void OnEvent(uint32_t, uint64_t) override { Sample(); }
  void Sample();

  Machine* machine_;
  TimeNs window_;
  TimeNs stop_ = 0;
  std::vector<TimeNs> last_runtime_;
  std::vector<Row> rows_;
};

}  // namespace rtvirt

#endif  // SRC_METRICS_ALLOC_TRACKER_H_
