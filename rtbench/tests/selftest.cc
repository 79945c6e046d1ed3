// Self-tests of the benchmark's C++ side: the traced assembly reproduces
// Experiment's simulated output, sampling from outside does not perturb the
// simulation, the workloads reproduce the paper benches at the paper's
// durations, and the failure accounting counts failed checks.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rtbench/src/harness.h"

namespace rtbench {
namespace {

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l + "\n";
  }
  return out;
}

// Short shapes keep the tests fast; each still spans several replans,
// hypercalls and churn episodes.
Shape ShortShape(WorkloadId id) {
  return Shape{id == WorkloadId::kVideoChurn ? Sec(8) : Sec(3)};
}

class PerWorkload : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(PerWorkload, TracedAssemblyMatchesExperiment) {
  for (uint64_t seed : {3ull, 17ull}) {
    Simulation plain = Simulate(GetParam(), seed, ShortShape(GetParam()), false);
    Simulation traced = Simulate(GetParam(), seed, ShortShape(GetParam()), true);
    ASSERT_NE(traced.trace, nullptr);
    EXPECT_GT(plain.sim.events, 0u);
    std::vector<std::string> d = Differences(plain.sim, traced.sim);
    EXPECT_TRUE(d.empty()) << WorkloadName(GetParam()) << " seed " << seed << ":\n" << Join(d);
  }
}

TEST_P(PerWorkload, SamplingFromOutsideDoesNotPerturb) {
  Simulation stepped = Simulate(GetParam(), 5, ShortShape(GetParam()), false, true);
  Simulation single = Simulate(GetParam(), 5, ShortShape(GetParam()), false, false);
  EXPECT_GT(stepped.sim.reserved_cpus, 0);
  single.sim.reserved_cpus = stepped.sim.reserved_cpus;  // Only sampled when stepping.
  std::vector<std::string> d = Differences(stepped.sim, single.sim);
  EXPECT_TRUE(d.empty()) << Join(d);
}

TEST_P(PerWorkload, SeedChangesInputs) {
  Simulation a = Simulate(GetParam(), 1, ShortShape(GetParam()), false);
  Simulation b = Simulate(GetParam(), 2, ShortShape(GetParam()), false);
  EXPECT_FALSE(Differences(a.sim, b.sim).empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload, ::testing::ValuesIn(kAllWorkloads),
                         [](const ::testing::TestParamInfo<WorkloadId>& p) {
                           return std::string(WorkloadName(p.param));
                         });

// bench/fig5b_memcached_periodic, RTVirt row: p99.9 158.4 us, 0/77820 video
// misses over 200 simulated s with the default seed 42.
TEST(PaperShapes, McVideoReproducesFig5bRtvirtRow) {
  Simulation s = Simulate(WorkloadId::kMcVideo, 42, Shape{Sec(200)}, false, false);
  EXPECT_NEAR(s.sim.latency_p999_us, 158.4, 0.05);
  EXPECT_EQ(s.sim.rt_jobs, 77820u);
  EXPECT_EQ(s.sim.rt_misses, 0u);
  EXPECT_EQ(s.sim.mc_over_slo, 0u);
}

// bench/tab6_scalability, Single-RTA / RT-Xen row: 92 RTAs and no misses
// over 30 simulated s. Table 6 releases every RTA at t=0; the workload's
// seeded release offsets change the job count but not these two results.
TEST(PaperShapes, RtxenScaleReproducesTab6SingleRtaRow) {
  Simulation s = Simulate(WorkloadId::kRtxenScale, 42, Shape{Sec(30)}, false);
  EXPECT_EQ(s.sim.admit_attempts - s.sim.admit_refused, 92u);
  EXPECT_GT(s.sim.rt_jobs, 0u);
  EXPECT_EQ(s.sim.rt_misses, 0u);
}

TEST(Accounting, FailedCheckCountsItsOperations) {
  RunAccount account;
  account.Add(10, {});
  EXPECT_TRUE(account.correct());
  account.Add(7, {"deliberately failed check"});
  EXPECT_EQ(account.attempted(), 17u);
  EXPECT_EQ(account.failed(), 7u);
  EXPECT_FALSE(account.correct());
  ASSERT_EQ(account.failures().size(), 1u);
}

TEST(Accounting, DifferencesAndSanityFlagDoctoredOutcomes) {
  Simulation s = Simulate(WorkloadId::kMcVideo, 1, Shape{Sec(21)}, false);
  EXPECT_TRUE(SanityFailures(WorkloadId::kMcVideo, s.sim).empty())
      << Join(SanityFailures(WorkloadId::kMcVideo, s.sim));
  SimOutcome doctored = s.sim;
  doctored.latency_p999_us = 600;
  doctored.rt_misses = 1;
  EXPECT_EQ(SanityFailures(WorkloadId::kMcVideo, doctored).size(), 2u);
  EXPECT_EQ(Differences(s.sim, doctored).size(), 2u);
}

TEST(Accounting, RunnerCountsEverySimulationThatFailsASanityCheck) {
  // 3 simulated s give ~1.5k memcached requests: below the 10k the p99.9
  // check requires, so every simulation fails it deliberately.
  Runner runner(WorkloadId::kMcVideo, 1, Shape{Sec(3)});
  runner.RunUntil(false, 0, perf::MonotonicNowNs() * 1e-9 + 60);
  ASSERT_EQ(runner.plain().size(), Runner::kMinSimulations);
  EXPECT_GT(runner.account().attempted(), 0u);
  EXPECT_EQ(runner.account().failed(), runner.account().attempted());
  EXPECT_FALSE(runner.account().correct());
}

TEST(Accounting, RunnerCountsAnAbortedSimulation) {
  // A shape shorter than two warm-up seconds trips an RTVIRT_CHECK inside the
  // simulation; the runner contains it and stops.
  Runner runner(WorkloadId::kRtxenScale, 1, Shape{Ms(500)});
  runner.RunUntil(false, 0, perf::MonotonicNowNs() * 1e-9 + 60);
  EXPECT_TRUE(runner.plain().empty());
  EXPECT_EQ(runner.account().failed(), 1u);
  EXPECT_FALSE(runner.account().correct());
  ASSERT_FALSE(runner.account().failures().empty());
  EXPECT_NE(runner.account().failures()[0].find("simulation aborted"), std::string::npos);
}

}  // namespace
}  // namespace rtbench
