// 100+ site scale smoke tier (docs/SCALE.md): every generated topology
// family at 128 sites must complete serializable, converged, and
// WAL-replay-clean under each protocol that supports its copy graph —
// on the deterministic sim, and (for the acceptance pair) on the
// threads runtime. Also pins the setup-cost contract: assembling a
// large system does zero full O(items) placement scans.

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/copy_graph.h"
#include "harness/experiment.h"
#include "harness/lazychk.h"

namespace lazyrep::harness {
namespace {

// One quiesced run through lazychk's invariant oracle (no schedule
// perturbation): empty string = every invariant held.
std::string RunTopology(core::Protocol protocol, const std::string& topology,
                        runtime::RuntimeKind runtime, int txns,
                        uint64_t seed = 7) {
  LazychkOptions options;
  options.run.protocol = protocol;
  options.run.workload.topology = topology;
  options.run.workload.txns_per_thread = txns;
  ApplyTopology(&options.run.workload);
  core::SystemConfig config =
      LazychkConfig(options, seed, sim::SchedulePolicyConfig{});
  config.runtime = runtime;
  return CheckInvariants(config);
}

struct Case {
  core::Protocol protocol;
  const char* topology;
};

// gtest lists a parameter it has no printer for as its raw bytes, which
// include the address of the topology string; this printer keeps each
// case's listed name the same from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << core::ProtocolName(c.protocol) << " " << c.topology;
}

class TopologySmoke : public ::testing::TestWithParam<Case> {};

TEST_P(TopologySmoke, RunsCleanAt128Sites) {
  EXPECT_EQ(RunTopology(GetParam().protocol, GetParam().topology,
                        runtime::RuntimeKind::kSim, /*txns=*/3),
            "");
}

// DAG(WT)/DAG(T) need an acyclic copy graph, so they get rand at
// density 0; BackEdge additionally covers the cyclic rand:128,0.10.
INSTANTIATE_TEST_SUITE_P(
    Families, TopologySmoke,
    ::testing::Values(
        Case{core::Protocol::kDagWt, "chain:128"},
        Case{core::Protocol::kDagWt, "tree:128,4"},
        Case{core::Protocol::kDagWt, "fan:128"},
        Case{core::Protocol::kDagWt, "rand:128,0"},
        Case{core::Protocol::kDagT, "chain:128"},
        Case{core::Protocol::kDagT, "tree:128,4"},
        Case{core::Protocol::kDagT, "fan:128"},
        Case{core::Protocol::kDagT, "rand:128,0"},
        Case{core::Protocol::kBackEdge, "chain:128"},
        Case{core::Protocol::kBackEdge, "tree:128,4"},
        Case{core::Protocol::kBackEdge, "fan:128"},
        Case{core::Protocol::kBackEdge, "rand:128,0.10"}),
    [](const auto& info) {
      std::string name = core::ProtocolName(info.param.protocol);
      name += "_";
      name += info.param.topology;
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

// The acceptance pair on the threads runtime: a 128-site deep chain
// under each DAG protocol and the 128-site random cyclic graph under
// BackEdge, real OS threads, tiny load.
TEST(TopologyThreads, DeepChain128RunsCleanUnderDagProtocols) {
  EXPECT_EQ(RunTopology(core::Protocol::kDagWt, "chain:128",
                        runtime::RuntimeKind::kThreads, /*txns=*/2),
            "");
  EXPECT_EQ(RunTopology(core::Protocol::kDagT, "chain:128",
                        runtime::RuntimeKind::kThreads, /*txns=*/2),
            "");
}

TEST(TopologyThreads, RandomBackedge128RunsCleanUnderBackEdge) {
  EXPECT_EQ(RunTopology(core::Protocol::kBackEdge, "rand:128,0.10",
                        runtime::RuntimeKind::kThreads, /*txns=*/2),
            "");
  EXPECT_EQ(RunTopology(core::Protocol::kBackEdge, "chain:128",
                        runtime::RuntimeKind::kThreads, /*txns=*/2),
            "");
}

// Setup-cost regression (the tentpole): building a large system must
// use the one-pass per-site indices, never the per-site O(items)
// placement scans — otherwise setup is O(items × sites) again.
TEST(TopologyScaleSetup, SystemCreateDoesNoFullPlacementScans) {
  LazychkOptions options;
  options.run.protocol = core::Protocol::kDagT;
  options.run.workload.topology = "chain:96";
  options.run.workload.txns_per_thread = 1;
  ApplyTopology(&options.run.workload);
  core::SystemConfig config =
      LazychkConfig(options, /*seed=*/3, sim::SchedulePolicyConfig{});
  const long before = graph::Placement::FullScanCount();
  Result<std::unique_ptr<core::System>> system = core::System::Create(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ(graph::Placement::FullScanCount(), before)
      << "System::Create re-scanned the placement per site";
}

}  // namespace
}  // namespace lazyrep::harness
