// Shared test helpers: trivial host schedulers that isolate guest-level
// logic from host-level scheduling policy, and a wrap-layout driver.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/bandwidth.h"
#include "src/hv/machine.h"
#include "src/rtvirt/wrap_layout.h"

namespace rtvirt {

// Pins VCPU k (in insertion order) to PCPU k: every VCPU effectively owns a
// dedicated processor, so guest behaviour is observable without host policy.
class DedicatedScheduler : public HostScheduler {
 public:
  std::string_view name() const override { return "dedicated-test"; }
  void VcpuInserted(Vcpu* v) override {
    slots_.push_back(v);
  }
  void VcpuRemoved(Vcpu* v) override {
    std::replace(slots_.begin(), slots_.end(), v, static_cast<Vcpu*>(nullptr));
  }
  void VcpuWake(Vcpu* v) override {
    int slot = SlotOf(v);
    if (slot >= 0 && slot < machine_->num_pcpus()) {
      machine_->pcpu(slot)->RequestReschedule();
    }
  }
  void VcpuBlock(Vcpu* v) override { (void)v; }
  ScheduleDecision PickNext(Pcpu* pcpu) override {
    if (pcpu->id() < static_cast<int>(slots_.size())) {
      Vcpu* v = slots_[pcpu->id()];
      if (v != nullptr && (v->runnable() || (v->running() && v->pcpu() == pcpu))) {
        return {v, kTimeNever};
      }
    }
    return {nullptr, kTimeNever};
  }

 private:
  int SlotOf(const Vcpu* v) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] == v) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  std::vector<Vcpu*> slots_;
};

inline MachineConfig ZeroCostMachine(int pcpus) {
  MachineConfig cfg;
  cfg.num_pcpus = pcpus;
  cfg.context_switch_cost = 0;
  cfg.migration_cost = 0;
  cfg.hypercall_cost = 0;
  return cfg;
}

// Lays `items` out with WrapAround after the `occupied` prefixes, at
// `speeds` (empty = every chunk at full speed). It lays them out twice, with
// fresh buffers and with buffers left dirty by a larger layout (more chunks,
// more items, second-pass leftovers); buffer reuse must not change the result.
inline std::vector<WrapSegment> LayoutTwice(const std::vector<WrapItem>& items,
                                            TimeNs slice_len,
                                            const std::vector<TimeNs>& occupied,
                                            std::vector<int64_t> speeds = {}) {
  if (speeds.empty()) {
    speeds.assign(occupied.size(), Bandwidth::kUnit);
  }
  WrapBuffers fresh;
  fresh.fill = occupied;
  WrapAround(items, slice_len, speeds, fresh);

  WrapBuffers dirty;
  std::vector<WrapItem> larger;
  for (int i = 0; i < 10; ++i) {
    larger.push_back(WrapItem{i, 11});
  }
  dirty.fill = {0, 0, 11, 0, 11, 11, 0, 11};
  WrapAround(larger, 20, std::vector<int64_t>(8, Bandwidth::kUnit), dirty);
  EXPECT_FALSE(dirty.leftovers.empty()) << "the dirtying layout must take the second pass";
  EXPECT_GT(dirty.segments.size(), fresh.segments.size());
  dirty.fill = occupied;
  WrapAround(items, slice_len, speeds, dirty);
  EXPECT_EQ(dirty.segments, fresh.segments);
  return fresh.segments;
}

}  // namespace rtvirt

#endif  // TESTS_TEST_UTIL_H_
