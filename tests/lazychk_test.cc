// Tests for the schedule-exploration checker (docs/CHECKING.md):
//
//  * The invariant oracle actually rejects — hand-built non-serializable
//    histories (write skew, lost update, G1c write cycle) and stale
//    reads must fail their checkers. A checker that accepts everything
//    would make every lazychk sweep vacuously "clean".
//  * Perturbed schedules really differ from the default, and replaying
//    the same (seed, policy) pair is byte-for-bit identical — the
//    property every lazychk violation report relies on.
//  * A present-but-disabled policy leaves the schedule bit-identical to
//    a policy-free run (the determinism contract of SystemConfig::
//    schedule).
//  * Small clean sweeps, plus an opt-in fuzz tier sized by the
//    LAZYREP_FUZZ_BUDGET environment variable (CI's schedule-fuzz job).

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/history.h"
#include "core/system.h"
#include "harness/lazychk.h"
#include "obs/prometheus.h"

namespace lazyrep {
namespace {

using core::HistoryRecorder;
using core::Protocol;

// ---------------------------------------------------------------------
// Oracle validation: hand-built anomalies must be rejected.
//
// Each site's commit order is a serialization order of that site's
// schedule (strict 2PL), so a single-site history can never be
// non-serializable by construction — every anomaly below needs two or
// more sites whose local orders disagree about the same transactions.

HistoryRecorder::Record MakeRecord(SiteId site, SiteId origin_site,
                                   int64_t origin_seq, int64_t commit_seq,
                                   std::vector<ItemId> reads,
                                   std::vector<ItemId> writes) {
  HistoryRecorder::Record record;
  record.site = site;
  record.origin = GlobalTxnId{origin_site, origin_seq};
  record.commit_seq = commit_seq;
  record.reads = std::move(reads);
  record.writes = std::move(writes);
  return record;
}

// Write skew: A reads x and writes y, B reads y and writes x. Site 0
// commits A before B (read-write edge A->B on x); site 1 commits B
// before A (read-write edge B->A on y). The union has a cycle even
// though each local schedule is serial.
TEST(ScheduleOracleTest, RejectsWriteSkew) {
  HistoryRecorder history;
  constexpr ItemId x = 1, y = 2;
  history.AddRecord(MakeRecord(0, 0, 1, /*commit_seq=*/1, {x}, {y}));  // A
  history.AddRecord(MakeRecord(0, 1, 1, /*commit_seq=*/2, {y}, {x}));  // B
  history.AddRecord(MakeRecord(1, 1, 1, /*commit_seq=*/1, {y}, {x}));  // B
  history.AddRecord(MakeRecord(1, 0, 1, /*commit_seq=*/2, {x}, {y}));  // A
  core::SerializabilityVerdict verdict = core::CheckSerializability(history);
  EXPECT_FALSE(verdict.serializable);
  EXPECT_FALSE(verdict.cycle.empty());
}

// Lost update: A and B both read-modify-write x, but the two replicas
// apply them in opposite orders — each site's final value reflects a
// different "last" writer, and the conflict graph has A<->B edges both
// ways.
TEST(ScheduleOracleTest, RejectsLostUpdate) {
  HistoryRecorder history;
  constexpr ItemId x = 7;
  history.AddRecord(MakeRecord(0, 0, 1, 1, {x}, {x}));  // A then B at site 0.
  history.AddRecord(MakeRecord(0, 1, 1, 2, {x}, {x}));
  history.AddRecord(MakeRecord(1, 1, 1, 1, {x}, {x}));  // B then A at site 1.
  history.AddRecord(MakeRecord(1, 0, 1, 2, {x}, {x}));
  core::SerializabilityVerdict verdict = core::CheckSerializability(history);
  EXPECT_FALSE(verdict.serializable);
}

// G1c: a pure write-write cycle A->B->C->A spread over three sites.
// No transaction reads anything, so only install order is at fault —
// the anomaly the value-level read checker can never see.
TEST(ScheduleOracleTest, RejectsG1cWriteCycle) {
  HistoryRecorder history;
  constexpr ItemId x = 1, y = 2, z = 3;
  // Site 0: A writes x, then B writes x  => A -> B.
  history.AddRecord(MakeRecord(0, 0, 1, 1, {}, {x}));
  history.AddRecord(MakeRecord(0, 1, 1, 2, {}, {x, y}));
  // Site 1: B writes y, then C writes y  => B -> C.
  history.AddRecord(MakeRecord(1, 1, 1, 1, {}, {y}));
  history.AddRecord(MakeRecord(1, 2, 1, 2, {}, {y, z}));
  // Site 2: C writes z, then A writes z  => C -> A.
  history.AddRecord(MakeRecord(2, 2, 1, 1, {}, {z}));
  history.AddRecord(MakeRecord(2, 0, 1, 2, {}, {z, x}));
  core::SerializabilityVerdict verdict = core::CheckSerializability(history);
  EXPECT_FALSE(verdict.serializable);
  EXPECT_GE(verdict.cycle.size(), 3u);
}

// Control: the same write-skew transactions committed in the SAME order
// at both sites are serializable — the checker rejects the cycle, not
// the workload.
TEST(ScheduleOracleTest, AcceptsConsistentOrder) {
  HistoryRecorder history;
  constexpr ItemId x = 1, y = 2;
  history.AddRecord(MakeRecord(0, 0, 1, 1, {x}, {y}));
  history.AddRecord(MakeRecord(0, 1, 1, 2, {y}, {x}));
  history.AddRecord(MakeRecord(1, 0, 1, 1, {x}, {y}));
  history.AddRecord(MakeRecord(1, 1, 1, 2, {y}, {x}));
  core::SerializabilityVerdict verdict = core::CheckSerializability(history);
  EXPECT_TRUE(verdict.serializable) << verdict.ToString();
}

// Value-level oracle: a first read must observe the last committed
// writer's value (initially 0). A record claiming it read 5 from an
// untouched item is an isolation/undo bug.
TEST(ScheduleOracleTest, RejectsStaleReadValue) {
  HistoryRecorder history;
  constexpr ItemId x = 4;
  HistoryRecorder::Record record = MakeRecord(0, 0, 1, 1, {x}, {});
  record.reads_observed = {{x, 5}};
  history.AddRecord(record);
  core::ReadConsistencyVerdict verdict = core::CheckReadConsistency(history);
  EXPECT_FALSE(verdict.consistent);
  EXPECT_FALSE(verdict.violation.empty());
}

// ---------------------------------------------------------------------
// Replay determinism and the disabled-policy contract.

struct RunOutput {
  std::string metrics_text;  // Prometheus snapshot — the byte-level view.
  int64_t committed = 0;
  uint64_t messages = 0;
  bool serializable = false;
};

RunOutput RunOnce(const core::SystemConfig& config) {
  Result<std::unique_ptr<core::System>> system = core::System::Create(config);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  core::RunMetrics m = (*system)->Run();
  RunOutput out;
  out.metrics_text = obs::PrometheusText((*system)->obs_registry());
  out.committed = m.committed;
  out.messages = m.messages;
  out.serializable = m.serializable;
  return out;
}

// The CI chaos plan: lossy, duplicating channels plus one site crash.
fault::FaultPlan ChaosPlan() {
  return *fault::FaultPlan::Parse("drop:0.01,dup:0.01,crash:2@500ms+100ms");
}

harness::LazychkOptions SmallOptions(Protocol protocol) {
  harness::LazychkOptions options;
  options.run.protocol = protocol;
  options.run.workload.txns_per_thread = 20;
  options.shrink = false;
  return options;
}

// The same (seed, policy) pair twice gives a byte-identical metrics
// snapshot — the property that makes every violation report replayable.
TEST(ScheduleReplayTest, SamePolicySameSeedIsByteIdentical) {
  harness::LazychkOptions options = SmallOptions(Protocol::kDagT);
  core::SystemConfig config =
      harness::LazychkConfig(options, /*seed=*/11, options.policy);
  RunOutput first = RunOnce(config);
  RunOutput second = RunOnce(config);
  EXPECT_GT(first.committed, 0);
  EXPECT_TRUE(first.serializable);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.metrics_text, second.metrics_text);
}

// An enabled policy must actually perturb: with tie-breaks, jitter and
// grant shuffling all on, the schedule (and hence the lock/wait counters
// in the snapshot) diverges from the default run of the same seed.
TEST(ScheduleReplayTest, EnabledPolicyPerturbsTheSchedule) {
  harness::LazychkOptions options = SmallOptions(Protocol::kDagT);
  core::SystemConfig perturbed =
      harness::LazychkConfig(options, /*seed=*/11, options.policy);
  core::SystemConfig baseline = perturbed;
  baseline.schedule.reset();
  RunOutput a = RunOnce(baseline);
  RunOutput b = RunOnce(perturbed);
  EXPECT_TRUE(a.serializable);
  EXPECT_TRUE(b.serializable);
  EXPECT_NE(a.metrics_text, b.metrics_text);
}

// A present-but-all-off policy leaves the run bit-identical to one with
// no policy at all: the tie-break field stays 0, no jitter hook is
// installed and the grant scan stays deterministic. This is what keeps
// the goldens valid without recapture.
TEST(ScheduleReplayTest, DisabledPolicyMatchesNoPolicy) {
  harness::LazychkOptions options = SmallOptions(Protocol::kBackEdge);
  sim::SchedulePolicyConfig off;  // All dimensions default-off.
  core::SystemConfig with_off_policy =
      harness::LazychkConfig(options, /*seed=*/3, off);
  core::SystemConfig without = with_off_policy;
  without.schedule.reset();
  RunOutput a = RunOnce(with_off_policy);
  RunOutput b = RunOnce(without);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.metrics_text, b.metrics_text);
}

// The policy is sim-only by design: a perturbed schedule must be
// replayable from its seed, which the threads backend cannot promise.
TEST(ScheduleReplayTest, ThreadsRuntimeRejectsPolicy) {
  harness::LazychkOptions options = SmallOptions(Protocol::kDagT);
  core::SystemConfig config =
      harness::LazychkConfig(options, /*seed=*/1, options.policy);
  config.runtime = runtime::RuntimeKind::kThreads;
  Result<std::unique_ptr<core::System>> system = core::System::Create(config);
  EXPECT_FALSE(system.ok());
}

// ---------------------------------------------------------------------
// Sweeps.

TEST(LazychkSweepTest, SmallSweepIsClean) {
  harness::LazychkOptions options = SmallOptions(Protocol::kDagT);
  options.seeds = 5;
  harness::LazychkResult result = harness::RunLazychk(options);
  EXPECT_EQ(result.runs, 5);
  for (const harness::LazychkViolation& v : result.violations) {
    ADD_FAILURE() << "seed=" << v.seed << " " << v.what << "\n  replay: "
                  << v.replay;
  }
}

TEST(LazychkSweepTest, SmallSweepWithFaultsIsClean) {
  harness::LazychkOptions options = SmallOptions(Protocol::kBackEdge);
  options.seeds = 3;
  options.run.faults = ChaosPlan();
  harness::LazychkResult result = harness::RunLazychk(options);
  EXPECT_EQ(result.runs, 3);
  for (const harness::LazychkViolation& v : result.violations) {
    ADD_FAILURE() << "seed=" << v.seed << " " << v.what << "\n  replay: "
                  << v.replay;
  }
}

// Every violation's replay line parses back to the violating run's exact
// config — including a zipf exponent a fixed-precision renderer would
// round, and a batch window whose unit must survive.
TEST(LazychkSweepTest, ReplayLineParsesBackToTheViolatingRun) {
  // NaiveLazy is the negative control: it must produce violations.
  harness::LazychkOptions options = SmallOptions(Protocol::kNaiveLazy);
  options.seeds = 3;
  options.run.workload.zipf_theta = 0.1234567;
  options.run.batching.window = Millis(2);
  harness::LazychkResult result = harness::RunLazychk(options);
  ASSERT_FALSE(result.ok());
  for (const harness::LazychkViolation& v : result.violations) {
    EXPECT_NE(v.replay.find(" --zipf=0.1234567"), std::string::npos)
        << v.replay;
    EXPECT_NE(v.replay.find(" --batch-window=2ms"), std::string::npos)
        << v.replay;
    std::istringstream words(v.replay);
    std::string word;
    words >> word;
    ASSERT_EQ(word, "lazychk");
    std::vector<std::string> args;
    while (words >> word) args.push_back(word);
    harness::LazychkOptions replay;
    Status status = harness::ParseLazychkArgs(args, &replay);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(replay.seeds, 1);
    EXPECT_FALSE(replay.shrink);
    EXPECT_EQ(harness::LazychkConfig(replay, replay.first_seed, replay.policy),
              harness::LazychkConfig(options, v.seed, v.policy))
        << v.replay;
  }
}

// Budgeted fuzz tier (CI's schedule-fuzz job, docs/CHECKING.md): skipped
// unless LAZYREP_FUZZ_BUDGET=N is set, then runs N seeds per protocol,
// alternating fault-free and faulty sweeps.
TEST(LazychkSweepTest, FuzzBudget) {
  const char* budget_env = std::getenv("LAZYREP_FUZZ_BUDGET");
  int budget = budget_env != nullptr ? std::atoi(budget_env) : 0;
  if (budget <= 0) {
    GTEST_SKIP() << "set LAZYREP_FUZZ_BUDGET=N to run the fuzz tier";
  }
  for (Protocol protocol :
       {Protocol::kDagWt, Protocol::kDagT, Protocol::kBackEdge}) {
    for (bool faults : {false, true}) {
      harness::LazychkOptions options = SmallOptions(protocol);
      options.run.workload.txns_per_thread = 40;
      options.seeds = budget;
      options.shrink = true;
      if (faults) options.run.faults = ChaosPlan();
      harness::LazychkResult result = harness::RunLazychk(options);
      for (const harness::LazychkViolation& v : result.violations) {
        ADD_FAILURE() << core::ProtocolName(protocol)
                      << (faults ? " (faults)" : "") << " seed=" << v.seed
                      << " " << v.what << "\n  replay: " << v.replay;
      }
    }
  }
}

}  // namespace
}  // namespace lazyrep
