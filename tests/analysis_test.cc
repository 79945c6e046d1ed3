#include <gtest/gtest.h>

#include <vector>

#include "src/analysis/carts.h"
#include "src/analysis/dmpr.h"
#include "src/analysis/resource_model.h"

namespace rtvirt {
namespace {

TEST(SupplyBound, DedicatedCpuSuppliesEverything) {
  PeriodicResource r{Ms(10), Ms(10)};
  for (TimeNs t : {Ms(1), Ms(7), Ms(10), Ms(25)}) {
    EXPECT_EQ(SupplyBound(r, t), t);
  }
}

TEST(SupplyBound, BlackoutThenLinear) {
  PeriodicResource r{Ms(10), Ms(4)};  // Blackout 2*(10-4)=12ms worst case.
  EXPECT_EQ(SupplyBound(r, Ms(6)), 0);
  EXPECT_EQ(SupplyBound(r, Ms(12)), 0);
  EXPECT_EQ(SupplyBound(r, Ms(16)), Ms(4));
  // Within the partial window supply accrues linearly.
  EXPECT_EQ(SupplyBound(r, Ms(13)), Ms(1));
}

TEST(SupplyBound, MonotoneInTimeAndBudget) {
  PeriodicResource small{Ms(5), Ms(2)};
  PeriodicResource big{Ms(5), Ms(3)};
  TimeNs prev = 0;
  for (TimeNs t = 0; t <= Ms(50); t += Us(500)) {
    TimeNs s = SupplyBound(small, t);
    EXPECT_GE(s, prev);
    EXPECT_LE(s, SupplyBound(big, t));
    prev = s;
  }
}

TEST(DemandBound, StepsAtPeriodMultiples) {
  std::vector<RtaParams> tasks{{Ms(2), Ms(10), false}, {Ms(3), Ms(15), false}};
  EXPECT_EQ(DemandBound(tasks, Ms(9)), 0);
  EXPECT_EQ(DemandBound(tasks, Ms(10)), Ms(2));
  EXPECT_EQ(DemandBound(tasks, Ms(15)), Ms(5));
  EXPECT_EQ(DemandBound(tasks, Ms(30)), Ms(6) + Ms(6));
}

TEST(EdfSchedulable, DedicatedCpuAtFullUtilization) {
  std::vector<RtaParams> tasks{{Ms(5), Ms(10), false}, {Ms(5), Ms(10), false}};
  EXPECT_TRUE(EdfSchedulableOn(tasks, PeriodicResource{Ms(10), Ms(10)}));
}

TEST(EdfSchedulable, RejectsOverload) {
  std::vector<RtaParams> tasks{{Ms(6), Ms(10), false}, {Ms(5), Ms(10), false}};
  EXPECT_FALSE(EdfSchedulableOn(tasks, PeriodicResource{Ms(10), Ms(10)}));
}

TEST(EdfSchedulable, PartialResourceNeedsHeadroom) {
  std::vector<RtaParams> tasks{{Ms(5), Ms(10), false}};
  // Same long-run rate but with blackout: not schedulable.
  EXPECT_FALSE(EdfSchedulableOn(tasks, PeriodicResource{Ms(10), Ms(5)}));
  EXPECT_TRUE(EdfSchedulableOn(tasks, PeriodicResource{Ms(2), Ms(2)}));
}

// The published Table 2 interfaces: CARTS on a 1 ms grid must reproduce the
// paper's NH-Dec VM configurations exactly.
struct Table2Case {
  RtaParams rta;
  PeriodicResource expected;  // (period, budget)
};

class CartsTable2Test : public ::testing::TestWithParam<Table2Case> {};

TEST_P(CartsTable2Test, ReproducesPublishedInterface) {
  const Table2Case& c = GetParam();
  std::vector<RtaParams> tasks{c.rta};
  auto best = MinimalInterface(tasks, CartsOptions{Ms(1), 0, 0});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->period, c.expected.period);
  EXPECT_EQ(best->budget, c.expected.budget);
}

// Static storage zero-initializes the padding bytes that gtest hex-dumps
// into each case's name, so the names are the same in every build.
static const Table2Case kTable2Cases[] = {
    {{Ms(23), Ms(30), false}, {Ms(5), Ms(4)}},
    {{Ms(13), Ms(20), false}, {Ms(4), Ms(3)}},
    {{Ms(5), Ms(10), false}, {Ms(3), Ms(2)}},
    {{Ms(10), Ms(100), false}, {Ms(9), Ms(1)}},
};

INSTANTIATE_TEST_SUITE_P(NhDecGroup, CartsTable2Test, ::testing::ValuesIn(kTable2Cases));

TEST(Carts, InterfaceBandwidthAtLeastTaskUtilization) {
  std::vector<RtaParams> tasks{{Ms(11), Ms(21), false}, {Ms(13), Ms(100), false}};
  auto best = MinimalInterface(tasks, CartsOptions{Ms(1), 0, 0});
  ASSERT_TRUE(best.has_value());
  EXPECT_GE(best->bandwidth(), TotalUtilization(tasks));
  EXPECT_TRUE(EdfSchedulableOn(tasks, *best));
}

TEST(Carts, CandidatesSortedByBandwidth) {
  std::vector<RtaParams> tasks{{Ms(5), Ms(10), false}};
  auto candidates = InterfaceCandidates(tasks, CartsOptions{Ms(1), 0, 0});
  ASSERT_GE(candidates.size(), 2u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1].bandwidth(), candidates[i].bandwidth());
  }
}

TEST(Carts, MicrosecondGridForMemcached) {
  // The memcached RTA (s=66us, p=500us): CARTS on a 1 us grid finds a small
  // interface whose bandwidth beats the constrained large-period ones.
  std::vector<RtaParams> tasks{{Us(66), Us(500), false}};
  auto best = MinimalInterface(tasks, CartsOptions{Us(1), 0, 0});
  ASSERT_TRUE(best.has_value());
  EXPECT_LT(best->period, Us(50));
  auto constrained = MinimalBudget(tasks, Us(283), Us(1));
  ASSERT_TRUE(constrained.has_value());
  EXPECT_GE(Bandwidth::FromSlicePeriod(*constrained, Us(283)), best->bandwidth());
}

TEST(Dmpr, PacksPartialInterfaces) {
  // Bandwidths {0.72, 0.69, 0.66, 0.21} -> 3 bins (FFD), like the H-Equiv
  // group claiming 3 CPUs for 2.28 allocated.
  std::vector<PeriodicResource> ifs{
      {Ms(100), Ms(72)}, {Ms(100), Ms(69)}, {Ms(100), Ms(66)}, {Ms(100), Ms(21)}};
  DmprResult r = DmprPack(ifs);
  EXPECT_EQ(r.claimed_cpus, 3);
  EXPECT_EQ(r.full_vcpus, 0);
  EXPECT_NEAR(r.allocated.ToDouble(), 2.28, 0.01);
}

TEST(Dmpr, FullVcpusClaimDedicatedCpus) {
  std::vector<PeriodicResource> ifs{{Ms(10), Ms(10)}, {Ms(10), Ms(10)}, {Ms(10), Ms(3)}};
  DmprResult r = DmprPack(ifs);
  EXPECT_EQ(r.full_vcpus, 2);
  EXPECT_EQ(r.claimed_cpus, 3);
}

TEST(Dmpr, EmptyIsZero) {
  DmprResult r = DmprPack(std::vector<PeriodicResource>{});
  EXPECT_EQ(r.claimed_cpus, 0);
  EXPECT_EQ(r.allocated, Bandwidth::Zero());
}

}  // namespace
}  // namespace rtvirt
