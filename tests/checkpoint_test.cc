// Checkpoint/restore (DESIGN.md §10): RNG state round-trip, corruption
// loudness (truncation / CRC / version / section count / bad events),
// byte-identical resumed continuation, sweep resumed-attempt reporting,
// federated snapshot round-trip, and the save-path rejections
// (non-checkpointable features, events of unregistered owners).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/cluster/federation.h"
#include "src/common/rng.h"
#include "src/metrics/resilience.h"
#include "src/runner/ckpt_scenario.h"
#include "src/sweep/sweep.h"
#include "src/workloads/periodic.h"

namespace rtvirt {
namespace {

// ---------------------------------------------------------------------------
// RNG save/restore accessors (the primitive everything else leans on).

TEST(CheckpointRngTest, SaveRestoreRoundTripsMidStream) {
  Rng a(42);
  for (int i = 0; i < 1000; ++i) {
    a.UniformInt(0, 1 << 20);
  }
  std::string state = a.SaveState();

  Rng b(7);  // Different seed, different position: restore must overwrite all.
  b.Uniform(0.0, 1.0);
  ASSERT_TRUE(b.RestoreState(state));
  EXPECT_TRUE(a == b);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30)) << "draw " << i;
  }
  EXPECT_TRUE(a == b);
}

TEST(CheckpointRngTest, RestoredCopyIsIndependentAndSeedsStayDecorrelated) {
  Rng a(42);
  a.UniformInt(0, 100);
  Rng b(7);
  ASSERT_TRUE(b.RestoreState(a.SaveState()));
  // Advancing the copy must not drag the original along (no aliasing).
  b.UniformInt(0, 100);
  EXPECT_FALSE(a == b);
  // Different seeds are different streams (decorrelation regression: a
  // restore bug that reset engines to a common default would collapse them).
  Rng s1(1), s2(2);
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    agree += s1.UniformInt(0, 1 << 30) == s2.UniformInt(0, 1 << 30) ? 1 : 0;
  }
  EXPECT_LT(agree, 4);
}

TEST(CheckpointRngTest, RestoreRejectsGarbageWithoutClobberingState) {
  Rng a(42);
  a.UniformInt(0, 100);
  Rng before(7);
  ASSERT_TRUE(before.RestoreState(a.SaveState()));
  EXPECT_FALSE(a.RestoreState("not a generator state"));
  EXPECT_FALSE(a.RestoreState(""));
  EXPECT_TRUE(a == before);  // Failed restore left the engine untouched.
}

// ---------------------------------------------------------------------------
// Container corruption: every failure is loud and names the offending part.

std::string SavedScenarioBytes(ckpt::Image* image_out = nullptr) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(200);
  auto s = BuildCkptScenario(opt);
  s->Start();
  s->exp->Run(Ms(100));
  ckpt::Image image;
  std::string err = s->exp->SaveCheckpoint(&image);
  EXPECT_EQ(err, "");
  if (image_out != nullptr) {
    *image_out = image;
  }
  return image.Serialize();
}

TEST(CheckpointCorruptionTest, TruncationFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes.substr(0, bytes.size() - 5), &out);
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  err = ckpt::Image::Parse(bytes.substr(0, 10), &out);
  EXPECT_NE(err.find("truncated header"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, CrcMismatchFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  ASSERT_GT(bytes.size(), 30u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes, &out);
  EXPECT_NE(err.find("CRC mismatch"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, UnknownSchemaVersionFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  // u32 version sits right after the 8-byte magic (little-endian).
  bytes[8] = 99;
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes, &out);
  EXPECT_NE(err.find("unknown schema version 99"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, BadMagicFailsLoudly) {
  std::string bytes = SavedScenarioBytes();
  bytes[0] = 'X';
  ckpt::Image out;
  std::string err = ckpt::Image::Parse(bytes, &out);
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, DroppedSectionFailsAsComponentCountMismatch) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  ASSERT_GT(image.sections.size(), 3u);
  image.sections.pop_back();
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  std::string err = fresh->exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("component count mismatch"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, TruncatedSectionNamesTheComponent) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  for (ckpt::Section& s : image.sections) {
    if (s.name == "rng") {
      ASSERT_GT(s.bytes.size(), 4u);
      s.bytes.resize(s.bytes.size() - 3);  // CRC is per-image, so this parses.
    }
  }
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  std::string err = fresh->exp->RestoreCheckpoint(image);
  EXPECT_NE(err.find("'rng'"), std::string::npos) << err;
}

// Restore-path event checks: every saved event names a registered owner, a
// kind that owner schedules, and a payload in range — else restore fails
// with a named error. Each image carries exactly one crafted event.
std::string RestoreWithOneEvent(const std::string& owner_section, uint32_t kind,
                                uint64_t payload) {
  ckpt::Image image;
  SavedScenarioBytes(&image);
  for (ckpt::Section& s : image.sections) {
    if (s.name == "events") {
      ckpt::Writer w;
      w.U32(1);
      w.U64(ckpt::Fnv1a64(owner_section));
      w.U32(kind);
      w.U64(payload);
      w.I64(Ms(100));
      s.bytes = w.Take();
    }
  }
  auto fresh = BuildCkptScenario(CkptScenarioOptions{});
  std::string err = fresh->exp->RestoreCheckpoint(image);
  EXPECT_TRUE(fresh->exp->sim().idle()) << "a failed restore left events queued";
  return err;
}

TEST(CheckpointCorruptionTest, EventWithUnknownOwnerFailsLoudly) {
  std::string err = RestoreWithOneEvent("no-such-section", Machine::kEvGrant, 0);
  EXPECT_NE(err.find("events[0] has unknown owner"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, EventWithUnknownKindFailsLoudly) {
  std::string err = RestoreWithOneEvent(Machine::kCkptSection, 99, 0);
  EXPECT_NE(err.find("machine: unknown event kind 99"), std::string::npos) << err;
}

TEST(CheckpointCorruptionTest, EventWithOutOfRangePayloadFailsLoudly) {
  // The scenario's fault plan has no VM failures, so index 0 is past it.
  std::string err =
      RestoreWithOneEvent(FaultInjector::kCkptSection, FaultInjector::kEvVmCrash, 0);
  EXPECT_NE(err.find("faults: event references unknown vm_failures entry 0"),
            std::string::npos)
      << err;
}

// ---------------------------------------------------------------------------
// Save-path rejections.

TEST(CheckpointRejectionTest, NonCheckpointableFeaturesAreRejectedAtSave) {
  ExperimentConfig cfg;
  cfg.audit.enabled = true;
  Experiment exp(std::move(cfg));
  exp.AddGuest("vm0", 1);
  exp.Run(Ms(1));
  ckpt::Image image;
  std::string err = exp.SaveCheckpoint(&image);
  EXPECT_NE(err.find("audit.enabled"), std::string::npos) << err;
}

TEST(CheckpointRejectionTest, UnregisteredOwnerLiveEventIsRejectedAtSave) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(200);
  auto s = BuildCkptScenario(opt);
  s->Start();
  s->exp->Run(Ms(50));
  // An owner the experiment's checkpoint registry does not know.
  struct Stranger : EventOwner {
    void OnEvent(uint32_t, uint64_t) override {}
  } stranger;
  s->exp->sim().After(Ms(10), {&stranger, 3});
  ckpt::Image image;
  std::string err = s->exp->SaveCheckpoint(&image);
  EXPECT_NE(err.find("live event (kind 3)"), std::string::npos) << err;
  EXPECT_NE(err.find("not a registered checkpointable"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Byte-identical continuation: run->save->continue vs restore->continue must
// serialize to the same bytes at the horizon.

// Image equality misses a counter that save and restore both leave out, so
// compare the counters themselves: every report row outside the opt-in alloc
// section (allocations and RSS are per-process) must match, and the run must
// have exercised at least one injected-fault row and one guest-channel row.
void ExpectSameReportRows(const ResilienceCounters& live, const ResilienceCounters& restored) {
  bool injected = false;
  bool guest = false;
  for (const ReportRow& row : ReportRows()) {
    if (row.section->gate == ReportSection::Gate::kAllocOptIn) {
      continue;
    }
    EXPECT_EQ(row.Of(live), row.Of(restored)) << row.section->name << " " << row.name;
    const std::string_view section = row.section->name;
    injected = injected || (section == "injected" && row.Of(live) != 0);
    guest = guest || (section == "guest" && row.Of(live) != 0);
  }
  EXPECT_TRUE(injected) << "no injected-fault row is non-zero";
  EXPECT_TRUE(guest) << "no guest-channel row is non-zero";
}

TEST(CheckpointRoundTripTest, CalendarBackendContinuesByteIdentical) {
  CkptScenarioOptions opt;
  opt.seed = 1;  // Fails one registration hypercall, so guest counters move.
  opt.horizon = Ms(600);

  auto a = BuildCkptScenario(opt);
  a->exp->Run(0);  // Arms the injector, so the registrations cross it.
  a->Start();
  a->exp->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(a->exp->SaveCheckpoint(&mid), "");
  a->exp->Run(Ms(600));
  ckpt::Image end_a;
  ASSERT_EQ(a->exp->SaveCheckpoint(&end_a), "");

  auto b = BuildCkptScenario(opt);  // NOT started: restore rebuilds the chains.
  ASSERT_EQ(b->exp->RestoreCheckpoint(mid), "");
  EXPECT_EQ(b->exp->sim().Now(), Ms(300));
  b->exp->Run(Ms(600));
  ckpt::Image end_b;
  ASSERT_EQ(b->exp->SaveCheckpoint(&end_b), "");

  EXPECT_EQ(end_a.Serialize(), end_b.Serialize());
  ExpectSameReportRows(a->exp->resilience(), b->exp->resilience());
  EXPECT_EQ(a->monitor.total_completed(), b->monitor.total_completed());
  EXPECT_EQ(a->monitor.total_misses(), b->monitor.total_misses());
  EXPECT_GT(a->monitor.total_completed(), 0u);
}

TEST(CheckpointRoundTripTest, RestoreRequiresFreshExperiment) {
  CkptScenarioOptions opt;
  opt.horizon = Ms(200);
  auto a = BuildCkptScenario(opt);
  a->Start();
  a->exp->Run(Ms(100));
  ckpt::Image image;
  ASSERT_EQ(a->exp->SaveCheckpoint(&image), "");
  std::string err = a->exp->RestoreCheckpoint(image);  // Already started.
  EXPECT_NE(err.find("freshly built"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Sweep resumed-attempt reporting.

TEST(CheckpointSweepTest, ResumedAttemptsAreDistinguishedFromColdRestarts) {
  char tmpl[] = "/tmp/rtvirt_ckpt_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  sweep::SweepConfig cfg;
  cfg.jobs = 1;
  cfg.isolation = sweep::Isolation::kThread;
  cfg.max_attempts = 2;
  cfg.backoff_initial_ms = 1;
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every_ms = 50;
  sweep::SweepReport rep =
      sweep::RunSweep(cfg, 1, [](const sweep::ShardContext& ctx) {
        CkptScenarioOptions opt;
        opt.seed = ctx.seed;
        opt.horizon = Ms(200);
        auto s = BuildCkptScenario(opt);
        sweep::ShardResult r;
        TimeNs start_t = 0;
        std::string bytes;
        if (ckpt::ReadFileToString(ctx.checkpoint_path, &bytes)) {
          ckpt::Image image;
          std::string err = ckpt::Image::Parse(bytes, &image);
          if (err.empty()) {
            err = s->exp->RestoreCheckpoint(image);
          }
          if (!err.empty()) {
            r.ok = false;
            r.reason = err;
            return r;
          }
          start_t = s->exp->sim().Now();
          r.resumed = true;
          r.resume_point_ns = start_t;
        } else {
          s->Start();
        }
        for (TimeNs b = Ms(50); b <= Ms(200); b += Ms(50)) {
          if (b <= start_t) {
            continue;
          }
          s->exp->Run(b);
          if (ctx.attempt == 1 && b == Ms(150)) {
            r.ok = false;
            r.reason = "injected failure";
            return r;  // Fails before persisting this boundary.
          }
          ckpt::Image image;
          std::string err = s->exp->SaveCheckpoint(&image);
          if (err.empty()) {
            err = ckpt::WriteFileAtomic(ctx.checkpoint_path, image.Serialize());
          }
          if (!err.empty()) {
            r.ok = false;
            r.reason = err;
            return r;
          }
        }
        r.report = "done t=" + std::to_string(s->exp->sim().Now()) + "\n";
        return r;
      });

  std::remove((std::string(dir) + "/shard.0.ckpt").c_str());
  ::rmdir(dir);

  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.recovered, 1);
  EXPECT_EQ(rep.resumed, 1);
  ASSERT_EQ(rep.shards.size(), 1u);
  EXPECT_TRUE(rep.shards[0].resumed);
  EXPECT_EQ(rep.shards[0].resume_point_ns, Ms(100));  // Last persisted boundary.
  std::string merged = rep.Merged();
  EXPECT_NE(merged.find("resumed@100000000ns"), std::string::npos) << merged;
  EXPECT_NE(merged.find("resumed=1"), std::string::npos) << merged;
}

// ---------------------------------------------------------------------------
// Federated snapshots: per-host checkpoints taken at the lock-step barrier
// restore into a rebuilt federation and continue byte-identically.

struct FedFixture {
  std::unique_ptr<Federation> fed;
  std::vector<std::unique_ptr<PeriodicRta>> rtas;
};

std::unique_ptr<FedFixture> BuildFed() {
  auto f = std::make_unique<FedFixture>();
  FederationConfig config;
  config.num_hosts = 2;
  config.pcpus_per_host = 2;
  config.policy = PlacementPolicy::kFirstFit;
  ExperimentConfig tmpl;
  // The RTAs first register at 1 ms, inside a start-up hypercall outage, and
  // retry past it, so the injector and guest-channel counters move.
  tmpl.faults.hypercall_outages.push_back({0, Ms(2)});
  f->fed = std::make_unique<Federation>(config, tmpl);
  auto* rtas = &f->rtas;
  f->fed->SetLauncher([rtas](Experiment& exp, GuestOs* guest, const ClusterVmSpec& spec,
                             int /*host*/, int /*generation*/) {
    RtaParams params;
    params.slice = Ms(2);
    params.period = Ms(10);
    auto rta = std::make_unique<PeriodicRta>(guest, spec.name + ".rta", params);
    rta->set_admission_retry(Ms(5));
    rta->Start(Ms(1), Sec(1));
    exp.RegisterCheckpointable(rta->ckpt_section(), rta.get());
    rtas->push_back(std::move(rta));
  });
  ClusterVmSpec a;
  a.name = "vma";
  a.vcpus = 1;
  a.bandwidth = Bandwidth::FromDouble(0.5);
  ClusterVmSpec b = a;
  b.name = "vmb";
  EXPECT_TRUE(f->fed->AdmitVm(a).has_value());
  EXPECT_TRUE(f->fed->AdmitVm(b).has_value());
  return f;
}

TEST(CheckpointFederationTest, BarrierSnapshotRestoresAndContinuesByteIdentical) {
  auto live = BuildFed();
  live->fed->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(live->fed->SaveCheckpoint(&mid), "");
  live->fed->Run(Ms(600));
  ckpt::Image end_live;
  ASSERT_EQ(live->fed->SaveCheckpoint(&end_live), "");

  auto restored = BuildFed();  // Identical construction, never Run.
  ASSERT_EQ(restored->fed->RestoreCheckpoint(mid), "");
  EXPECT_EQ(restored->fed->now(), Ms(300));
  restored->fed->Run(Ms(600));
  ckpt::Image end_restored;
  ASSERT_EQ(restored->fed->SaveCheckpoint(&end_restored), "");

  EXPECT_EQ(end_live.Serialize(), end_restored.Serialize());
  ExpectSameReportRows(live->fed->resilience(), restored->fed->resilience());
}

TEST(CheckpointFederationTest, RestoreRejectsMismatchedCluster) {
  auto live = BuildFed();
  live->fed->Run(Ms(300));
  ckpt::Image mid;
  ASSERT_EQ(live->fed->SaveCheckpoint(&mid), "");

  // A cluster with a different host count must refuse the image loudly.
  FederationConfig config;
  config.num_hosts = 3;
  config.pcpus_per_host = 2;
  ExperimentConfig tmpl;
  Federation other(config, tmpl);
  std::string err = other.RestoreCheckpoint(mid);
  EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
}

}  // namespace
}  // namespace rtvirt
