// Paper-scale integration runs: the full Table 1 topology (9 sites on 3
// machines, 200 items) with a trimmed transaction count, one run per
// protocol, all invariants checked. These are the closest tests to the
// benchmark configurations.

#include <gtest/gtest.h>

#include "core/system.h"
#include "harness/experiment.h"

namespace lazyrep::core {
namespace {

class PaperScale : public ::testing::TestWithParam<Protocol> {};

TEST_P(PaperScale, TableOneTopologyUpholdsAllInvariants) {
  Protocol protocol = GetParam();
  SystemConfig config = harness::PaperConfig(protocol);
  config.workload.txns_per_thread = 100;
  if (protocol == Protocol::kDagWt || protocol == Protocol::kDagT) {
    config.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
  }
  config.seed = 2024;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  System& sys = **system;
  RunMetrics metrics = sys.Run();

  EXPECT_FALSE(metrics.timed_out);
  EXPECT_EQ(metrics.committed + metrics.aborted, 9 * 3 * 100);
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  EXPECT_TRUE(metrics.reads_consistent) << metrics.verdict;
  EXPECT_TRUE(metrics.converged);
  EXPECT_GT(metrics.avg_site_throughput, 0.0);
  EXPECT_GT(metrics.reads_checked, 1000u);
  // Work actually flowed over the simulated network for every
  // replication protocol (kEager/kBackEdge/etc. all message).
  EXPECT_GT(metrics.messages, 0u);
  EXPECT_GT(metrics.bytes, metrics.messages);  // >1 byte per message.
  // Every engine drained.
  for (SiteId s = 0; s < 9; ++s) {
    EXPECT_TRUE(sys.engine(s).Quiescent()) << "site " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, PaperScale,
    ::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                      Protocol::kBackEdge, Protocol::kPsl,
                      Protocol::kEager),
    [](const auto& info) {
      std::string name = ProtocolName(info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

// §4.1: a BackEdge transaction without backedge subtransactions runs
// exactly as in DAG(WT). With no backedges at all the two protocols must
// produce the same schedule. Only the wire bytes may differ (BackEdge's
// lazy updates also carry the origin's commit time), so the bandwidth
// model, which would turn extra bytes into extra delay, is off.
TEST(PaperScaleExtras, BackEdgeWithoutBackedgesRunsExactlyAsDagWt) {
  auto run = [](Protocol protocol, uint64_t seed) {
    SystemConfig config = harness::PaperConfig(protocol);
    config.workload.txns_per_thread = 40;
    config.workload.backedge_prob = 0.0;
    config.costs.net_bandwidth_bytes_per_sec = 0;
    config.seed = seed;
    auto system = System::Create(std::move(config));
    LAZYREP_CHECK(system.ok()) << system.status().ToString();
    return (*system)->Run();
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunMetrics dag_wt = run(Protocol::kDagWt, seed);
    const RunMetrics backedge = run(Protocol::kBackEdge, seed);
    EXPECT_EQ(backedge.committed, dag_wt.committed);
    EXPECT_EQ(backedge.aborted, dag_wt.aborted);
    EXPECT_EQ(backedge.messages, dag_wt.messages);
    EXPECT_EQ(backedge.workload_elapsed, dag_wt.workload_elapsed);
    EXPECT_EQ(backedge.drain_elapsed, dag_wt.drain_elapsed);
    EXPECT_EQ(backedge.lock_waits, dag_wt.lock_waits);
    EXPECT_EQ(backedge.lock_timeouts, dag_wt.lock_timeouts);
    EXPECT_EQ(backedge.response_ms.mean(), dag_wt.response_ms.mean());
    EXPECT_EQ(backedge.propagation_delay_ms.mean(),
              dag_wt.propagation_delay_ms.mean());
    EXPECT_EQ(backedge.serializable, dag_wt.serializable);
    EXPECT_EQ(backedge.verdict, dag_wt.verdict);
    EXPECT_GT(dag_wt.committed, 0);
  }
}

TEST(PaperScaleExtras, SkewedBackEdgeAtScale) {
  SystemConfig config = harness::PaperConfig(Protocol::kBackEdge);
  config.workload.txns_per_thread = 100;
  config.workload.zipf_theta = 1.0;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  EXPECT_TRUE(metrics.reads_consistent);
  EXPECT_TRUE(metrics.converged);
}

TEST(PaperScaleExtras, FifteenSites) {
  SystemConfig config = harness::PaperConfig(Protocol::kBackEdge);
  config.workload.txns_per_thread = 60;
  config.workload.num_sites = 15;  // Table 1's upper bound.
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  RunMetrics metrics = (*system)->Run();
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  EXPECT_TRUE(metrics.converged);
  EXPECT_EQ(metrics.per_site.size(), 15u);
}

}  // namespace
}  // namespace lazyrep::core
