// Tests for the experiment harness (src/harness): aggregation over seeds,
// CLI parsing, table formatting, and the Table 1 default configuration.

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace lazyrep::harness {
namespace {

TEST(PaperConfigTest, CarriesTableOneDefaults) {
  core::SystemConfig config = PaperConfig(core::Protocol::kBackEdge);
  EXPECT_EQ(config.protocol, core::Protocol::kBackEdge);
  EXPECT_EQ(config.workload.num_sites, 9);
  EXPECT_EQ(config.workload.num_items, 200);
  EXPECT_EQ(config.workload.threads_per_site, 3);
  EXPECT_EQ(config.workload.txns_per_thread, 1000);
  EXPECT_DOUBLE_EQ(config.workload.replication_prob, 0.2);
  EXPECT_DOUBLE_EQ(config.workload.backedge_prob, 0.2);
  EXPECT_EQ(config.workload.deadlock_timeout, Millis(50));
  EXPECT_EQ(config.workload.network_latency, Millis(0.15));
  EXPECT_TRUE(config.check_serializability);
}

TEST(RunSeedsTest, AggregatesOverSeeds) {
  core::SystemConfig config = PaperConfig(core::Protocol::kDagWt);
  config.workload.backedge_prob = 0.0;
  config.workload.num_sites = 3;
  config.workload.num_items = 30;
  config.workload.txns_per_thread = 20;
  AggregateResult result = RunSeeds(config, 3);
  EXPECT_EQ(result.runs, 3);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.committed, 0);
  EXPECT_TRUE(result.all_serializable);
  EXPECT_TRUE(result.all_converged);
  EXPECT_FALSE(result.saturated);
  // Different seeds give (slightly) different throughputs.
  EXPECT_GT(result.throughput_sd, 0.0);
}

TEST(RunSeedsTest, SaturationReportedWhenAllowed) {
  core::SystemConfig config = PaperConfig(core::Protocol::kDagWt);
  config.workload.backedge_prob = 0.0;
  config.max_sim_time = Millis(1);  // Cannot possibly finish.
  AggregateResult result = RunSeeds(config, 1, /*allow_timeout=*/true);
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.runs, 0);
}

TEST(ParseBenchArgsTest, Defaults) {
  char prog[] = "bench";
  char* argv[] = {prog};
  BenchOptions options = ParseBenchArgs(1, argv);
  EXPECT_EQ(options.txns_per_thread, 300);
  EXPECT_EQ(options.seeds, 3);
  EXPECT_FALSE(options.quick);
}

TEST(ParseBenchArgsTest, QuickAndFull) {
  char prog[] = "bench";
  char quick[] = "--quick";
  char* argv_q[] = {prog, quick};
  BenchOptions q = ParseBenchArgs(2, argv_q);
  EXPECT_TRUE(q.quick);
  EXPECT_EQ(q.txns_per_thread, 100);
  EXPECT_EQ(q.seeds, 1);

  char full[] = "--full";
  char* argv_f[] = {prog, full};
  BenchOptions f = ParseBenchArgs(2, argv_f);
  EXPECT_EQ(f.txns_per_thread, 1000);  // The paper's setting.
}

TEST(ParseBenchArgsTest, ExplicitValues) {
  char prog[] = "bench";
  char txns[] = "--txns=42";
  char seeds[] = "--seeds=7";
  char* argv[] = {prog, txns, seeds};
  BenchOptions options = ParseBenchArgs(3, argv);
  EXPECT_EQ(options.txns_per_thread, 42);
  EXPECT_EQ(options.seeds, 7);
}

TEST(ParseBenchArgsTest, BadValuesAreUsageErrors) {
  char prog[] = "bench";
  char runtime[] = "--runtime=thread";
  char* argv_runtime[] = {prog, runtime};
  EXPECT_EXIT(ParseBenchArgs(2, argv_runtime), ::testing::ExitedWithCode(2),
              "--runtime=thread");
  char workload[] = "--workload=ycsb_z";
  char* argv_workload[] = {prog, workload};
  EXPECT_EXIT(ParseBenchArgs(2, argv_workload), ::testing::ExitedWithCode(2),
              "unknown workload");
  char txns[] = "--txns=abc";
  char* argv_txns[] = {prog, txns};
  EXPECT_EXIT(ParseBenchArgs(2, argv_txns), ::testing::ExitedWithCode(2),
              "--txns=abc");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159), "3.14");
  EXPECT_EQ(Table::Num(3.14159, 1), "3.1");
  EXPECT_EQ(Table::Num(10, 0), "10");
}

TEST(ApplyOptionsTest, OverridesTxnsPerThread) {
  BenchOptions options;
  options.txns_per_thread = 123;
  core::SystemConfig config = PaperConfig(core::Protocol::kPsl);
  ApplyOptions(options, &config);
  EXPECT_EQ(config.workload.txns_per_thread, 123);
}

TEST(ApplyOptionsTest, SimWorkersAreAUsageError) {
  char prog[] = "bench";
  char workers[] = "--workers=4";
  char* argv[] = {prog, workers};
  BenchOptions options = ParseBenchArgs(2, argv);
  core::SystemConfig config = PaperConfig(core::Protocol::kBackEdge);
  EXPECT_EXIT(ApplyOptions(options, &config), ::testing::ExitedWithCode(2),
              "requires the thread runtime");
}

TEST(ApplyOptionsTest, ReappliesOnlyTheFlagsThatWereSet) {
  char prog[] = "bench";
  char zipf[] = "--zipf=0.8";
  char runtime[] = "--runtime=sim";
  char* argv[] = {prog, zipf, runtime};
  BenchOptions options = ParseBenchArgs(3, argv);
  // A threads-only bench keeps its runtime: --runtime=sim is the default
  // and re-applies nothing.
  core::SystemConfig config = PaperConfig(core::Protocol::kDagWt);
  config.runtime = runtime::RuntimeKind::kThreads;
  ApplyOptions(options, &config);
  EXPECT_EQ(config.runtime, runtime::RuntimeKind::kThreads);
  EXPECT_EQ(config.workload.zipf_theta, 0.8);
  EXPECT_EQ(config.protocol, core::Protocol::kDagWt);
}

}  // namespace
}  // namespace lazyrep::harness
