// Tests for the flag table (src/harness/flags.h) behind lazyrep_cli,
// lazychk and the benches: every front end's flags survive a
// parse -> render -> parse round trip, and the three hand-written parsers
// it replaced no longer disagree (each drift case below used to pass).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/lazychk.h"

namespace lazyrep::harness {
namespace {

using Args = std::vector<std::string>;

// True when every flag of `table` appears in `rendered` — the round-trip
// inputs below must exercise the whole table, not a convenient subset.
template <typename T>
void ExpectEveryFlagRendered(const std::vector<Flag<T>>& table,
                             const Args& rendered,
                             const std::vector<std::string>& except) {
  for (const Flag<T>& flag : table) {
    if (std::find(except.begin(), except.end(), flag.name) != except.end()) {
      continue;
    }
    bool found = false;
    for (const std::string& arg : rendered) {
      found |= arg == "--" + flag.name ||
               arg.rfind("--" + flag.name + "=", 0) == 0;
    }
    EXPECT_TRUE(found) << "--" << flag.name << " not exercised";
  }
}

TEST(FlagsTest, CliRoundTripsEveryFlag) {
  const Args argv = {
      "--protocol=dagwt", "--sites=12", "--per-machine=4", "--items=300",
      "--r=0.3", "--s=0.4", "--b=0", "--ops=8", "--threads=2", "--txns=77",
      "--read-op=0.6", "--read-txn=0.4", "--workload=ycsb_b",
      "--zipf=0.1234567", "--consistency=snapshot", "--hot-seed=5",
      "--scan-len=4", "--remote=0.2", "--topology=tree:16,3",
      "--replication-factor=3", "--latency-ms=0.3", "--timeout-ms=20",
      "--seed=9", "--runtime=threads", "--workers=2", "--lock-stripes=4",
      "--deadlock=wait_die", "--retry", "--tree=greedy",
      "--backedges=weighted", "--lww", "--wal",
      "--faults=drop:0.01,dup:0.02,delay:2ms,crash:1@500ms+50ms",
      "--batch-window=2", "--batch-bytes=4096", "--piggyback-acks",
      "--group-commit", "--no-check", "--warmup-ms=5", "--seeds=2",
      "--trace=t.jsonl", "--metrics-out=m.prom", "--trace-out=t.json",
      "--per-site", "--hist"};
  CliOptions parsed;
  ASSERT_TRUE(ParseCliArgs(argv, &parsed).ok());
  const Args rendered = RenderFlags(CliFlags(), parsed, CliOptions());
  // --detection shares --deadlock's field; the next test covers it.
  ExpectEveryFlagRendered(CliFlags(), rendered, {"detection"});

  CliOptions reparsed;
  ASSERT_TRUE(ParseCliArgs(rendered, &reparsed).ok());
  EXPECT_EQ(reparsed.config, parsed.config);
  EXPECT_EQ(reparsed.seeds, parsed.seeds);
  EXPECT_EQ(reparsed.trace_path, parsed.trace_path);
  EXPECT_EQ(reparsed.metrics_out, parsed.metrics_out);
  EXPECT_EQ(reparsed.trace_out, parsed.trace_out);
  EXPECT_EQ(reparsed.per_site, parsed.per_site);
  EXPECT_EQ(reparsed.histogram, parsed.histogram);
  EXPECT_EQ(parsed.config.workload.zipf_theta, 0.1234567);
}

TEST(FlagsTest, CliAliasesAndDetectionRoundTrip) {
  const Args argv = {"--protocol=dag_t", "--b=0", "--lock-timeout=7",
                     "--detection"};
  CliOptions parsed;
  ASSERT_TRUE(ParseCliArgs(argv, &parsed).ok());
  EXPECT_EQ(parsed.config.protocol, core::Protocol::kDagT);
  EXPECT_EQ(parsed.config.workload.deadlock_timeout, Millis(7));
  EXPECT_EQ(parsed.config.engine.deadlock_policy,
            storage::DeadlockPolicy::kLocalDetection);
  CliOptions reparsed;
  ASSERT_TRUE(
      ParseCliArgs(RenderFlags(CliFlags(), parsed, CliOptions()), &reparsed)
          .ok());
  EXPECT_EQ(reparsed.config, parsed.config);

  CliOptions grant;
  ASSERT_TRUE(ParseCliArgs({"--grant=wait_die"}, &grant).ok());
  EXPECT_EQ(grant.config.engine.deadlock_policy,
            storage::DeadlockPolicy::kWaitDie);
}

TEST(FlagsTest, LazychkRoundTripsEveryFlag) {
  const Args argv = {
      "--protocol=backedge", "--seeds=7", "--first-seed=3", "--txns=12",
      "--workload=smallbank", "--zipf=0.1234567", "--consistency=ryw",
      "--faults=drop:0.01,crash:2@40ms+10ms", "--topology=chain:12",
      "--replication-factor=3", "--grant=wait_die", "--batch-window=2",
      "--piggyback-acks", "--group-commit", "--ties=0", "--grants=0",
      "--jitter=500us", "--no-shrink", "--shrink", "--no-shrink", "--quiet"};
  LazychkOptions parsed;
  parsed.verbose = true;  // As the tool starts; --quiet clears it.
  ASSERT_TRUE(ParseLazychkArgs(argv, &parsed).ok());
  EXPECT_FALSE(parsed.verbose);
  const Args rendered = RenderFlags(LazychkFlags(), parsed, LazychkOptions());
  // --shrink and --quiet are spellings of the defaults here.
  ExpectEveryFlagRendered(LazychkFlags(), rendered, {"shrink", "quiet"});

  LazychkOptions reparsed;
  ASSERT_TRUE(ParseLazychkArgs(rendered, &reparsed).ok());
  EXPECT_EQ(reparsed.run, parsed.run);
  EXPECT_EQ(reparsed.seeds, parsed.seeds);
  EXPECT_EQ(reparsed.first_seed, parsed.first_seed);
  EXPECT_EQ(reparsed.policy, parsed.policy);
  EXPECT_EQ(reparsed.shrink, parsed.shrink);
  EXPECT_EQ(LazychkConfig(reparsed, 5, reparsed.policy),
            LazychkConfig(parsed, 5, parsed.policy));
}

TEST(FlagsTest, BenchRoundTripsEveryFlag) {
  const Args argv = {
      "--quick", "--full", "--quick", "--txns=42", "--seeds=2", "--csv",
      "--json=rows.json", "--metrics-out=m.prom", "--trace-out=t.json",
      "--runtime=threads", "--workers=3", "--lock-stripes=2",
      "--deadlock=wait_die", "--lock-timeout=20", "--zipf=0.5",
      "--workload=ycsb_a", "--consistency=snapshot", "--topology=fan:12",
      "--replication-factor=3"};
  BenchOptions parsed;
  ASSERT_TRUE(ParseFlags(BenchFlags(), argv, &parsed).ok());
  const Args rendered = RenderFlags(BenchFlags(), parsed, BenchOptions());
  // --full only sets --txns/--seeds, which carry the scale.
  ExpectEveryFlagRendered(BenchFlags(), rendered, {"full"});

  BenchOptions reparsed;
  ASSERT_TRUE(ParseFlags(BenchFlags(), rendered, &reparsed).ok());
  EXPECT_EQ(reparsed.config, parsed.config);
  EXPECT_EQ(reparsed.txns_per_thread, 42);
  EXPECT_EQ(reparsed.seeds, parsed.seeds);
  EXPECT_EQ(reparsed.quick, parsed.quick);
  EXPECT_EQ(reparsed.csv, parsed.csv);
  EXPECT_EQ(reparsed.txns_set, parsed.txns_set);
  EXPECT_EQ(reparsed.json, parsed.json);
  EXPECT_EQ(reparsed.metrics_out, parsed.metrics_out);
  EXPECT_EQ(reparsed.trace_out, parsed.trace_out);

  core::SystemConfig a = PaperConfig(core::Protocol::kDagT);
  core::SystemConfig b = a;
  ApplyOptions(parsed, &a);
  ApplyOptions(reparsed, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.workload.num_sites, 12);
  EXPECT_EQ(a.workload.workload, workload::WorkloadKind::kYcsbA);
}

// --- The drift the three hand-written parsers had ----------------------

TEST(FlagsTest, TyposInNamedValuesAreRejected) {
  CliOptions options;
  Status tree = ParseCliArgs({"--tree=gredy"}, &options);
  ASSERT_FALSE(tree.ok());
  EXPECT_NE(tree.ToString().find("--tree=gredy"), std::string::npos);
  EXPECT_FALSE(ParseCliArgs({"--backedges=wieghted"}, &options).ok());
  EXPECT_FALSE(ParseCliArgs({"--tree"}, &options).ok());
  EXPECT_FALSE(ParseCliArgs({"--wal=1"}, &options).ok());
  EXPECT_FALSE(ParseCliArgs({"--no-such-flag"}, &options).ok());
  EXPECT_FALSE(ParseCliArgs({"stray"}, &options).ok());
}

TEST(FlagsTest, TopologyWinsOverSitesInEitherOrder) {
  CliOptions a;
  CliOptions b;
  ASSERT_TRUE(ParseCliArgs({"--topology=chain:16", "--sites=9"}, &a).ok());
  ASSERT_TRUE(ParseCliArgs({"--sites=9", "--topology=chain:16"}, &b).ok());
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.config.workload.num_sites, 16);
}

TEST(FlagsTest, BareBatchWindowIsMillisecondsInEveryTool) {
  CliOptions cli;
  ASSERT_TRUE(ParseCliArgs({"--batch-window=2"}, &cli).ok());
  EXPECT_EQ(cli.config.batching.window, Millis(2));
  LazychkOptions chk;
  ASSERT_TRUE(ParseLazychkArgs({"--batch-window=2"}, &chk).ok());
  EXPECT_EQ(chk.run.batching.window, Millis(2));
  ASSERT_TRUE(ParseLazychkArgs({"--batch-window=1500us"}, &chk).ok());
  EXPECT_EQ(chk.run.batching.window, Micros(1500));
  EXPECT_FALSE(ParseLazychkArgs({"--batch-window=2x"}, &chk).ok());
  EXPECT_FALSE(ParseLazychkArgs({"--jitter=-1ms"}, &chk).ok());
}

TEST(FlagsTest, NumbersParseStrictly) {
  CliOptions cli;
  EXPECT_FALSE(ParseCliArgs({"--txns=abc"}, &cli).ok());
  EXPECT_FALSE(ParseCliArgs({"--txns=12x"}, &cli).ok());
  EXPECT_FALSE(ParseCliArgs({"--txns="}, &cli).ok());
  EXPECT_FALSE(ParseCliArgs({"--r=0.2.1"}, &cli).ok());
  EXPECT_FALSE(ParseCliArgs({"--seed=-1"}, &cli).ok());
  EXPECT_FALSE(ParseCliArgs({"--zipf=-0.5"}, &cli).ok());
  EXPECT_FALSE(ParseCliArgs({"--replication-factor=0"}, &cli).ok());
  LazychkOptions chk;
  EXPECT_FALSE(ParseLazychkArgs({"--txns=abc"}, &chk).ok());
  EXPECT_FALSE(ParseLazychkArgs({"--ties=2"}, &chk).ok());
  EXPECT_FALSE(ParseLazychkArgs({"--jitter=inf"}, &chk).ok());
  EXPECT_FALSE(ParseLazychkArgs({"--jitter=1e30s"}, &chk).ok());
  BenchOptions bench;
  EXPECT_FALSE(ParseFlags(BenchFlags(), {"--txns=abc"}, &bench).ok());
}

TEST(FlagsTest, ValidateFailuresAreUsageErrors) {
  CliOptions cli;
  Status status = ParseCliArgs({"--workers=4"}, &cli);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("requires the thread runtime"),
            std::string::npos);
  LazychkOptions chk;
  EXPECT_FALSE(ParseLazychkArgs({"--grant=wait_die", "--grants=1"}, &chk).ok());
  LazychkOptions wait_die;
  ASSERT_TRUE(ParseLazychkArgs({"--grant=wait_die"}, &wait_die).ok());
  EXPECT_FALSE(wait_die.policy.shuffle_grants);
}

TEST(FlagsTest, FaultPlanSpecRoundTrips) {
  for (const char* spec :
       {"drop:0.01,dup:0.01,crash:2@500ms+100ms", "delay:1500us",
        "drop:0.1234567,crash:1@1s+7ns,crash:3@2ms+1ms"}) {
    Result<fault::FaultPlan> plan = fault::FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << spec;
    Result<fault::FaultPlan> again = fault::FaultPlan::Parse(plan->ToString());
    ASSERT_TRUE(again.ok()) << plan->ToString();
    EXPECT_EQ(*again, *plan) << spec << " -> " << plan->ToString();
  }
}

TEST(FlagsTest, HelpListsEveryFlagWithItsDefault) {
  const std::string help = FlagHelp(CliFlags(), CliOptions());
  for (const Flag<CliOptions>& flag : CliFlags()) {
    EXPECT_NE(help.find("--" + flag.name), std::string::npos) << flag.name;
  }
  EXPECT_NE(help.find("(default 1000)"), std::string::npos);
  EXPECT_NE(help.find("--lock-timeout"), std::string::npos);
  const std::string chk_help = FlagHelp(LazychkFlags(), LazychkOptions());
  EXPECT_NE(chk_help.find("(default dagt)"), std::string::npos);
  EXPECT_NE(chk_help.find("(default 40)"), std::string::npos);
}

}  // namespace
}  // namespace lazyrep::harness
