// Configuration validation (`core::Validate`, src/core/system.*): every
// rule rejects its config with its own reason, and `System::Create`
// runs the same checks. These live apart from system_test.cc because
// string literals added there move the addresses that the raw-byte
// parameter names of its ChaosGrid cells start with (see NamedChaosCase).

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/system.h"

namespace lazyrep::core {
namespace {

// One row per rule in `Validate`: the mutation that breaks exactly that
// rule and a substring of the reason it must give. Asserting the message
// pins each rule on its own — a bare !ok() would also pass if the config
// failed for some unrelated reason.
struct ValidateCase {
  const char* rule;
  void (*mutate)(SystemConfig*);
  const char* message;
};

void AddCrash(SystemConfig* c, SiteId site, SimTime at) {
  fault::FaultPlan plan;
  plan.crashes.push_back({site, at, Millis(100)});
  c->faults = plan;
}

const ValidateCase kValidateCases[] = {
    {"site count", [](SystemConfig* c) { c->workload.num_sites = 0; },
     "bad site/machine counts"},
    {"machine count",
     [](SystemConfig* c) { c->workload.sites_per_machine = 0; },
     "bad site/machine counts"},
    {"worker lanes", [](SystemConfig* c) { c->workers_per_site = 0; },
     "workers_per_site must be >= 1"},
    {"lock stripes", [](SystemConfig* c) { c->engine.lock_stripes = 0; },
     "lock_stripes must be >= 1"},
    {"psl snapshot",
     [](SystemConfig* c) {
       c->protocol = Protocol::kPsl;
       c->consistency = storage::ConsistencyLevel::kSnapshot;
     },
     "PSL never ships update values"},
    {"mvcc gc interval",
     [](SystemConfig* c) {
       c->consistency = storage::ConsistencyLevel::kSnapshot;
       c->mvcc_gc_interval = 0;
     },
     "mvcc_gc_interval must be >= 1"},
    {"sim worker lanes", [](SystemConfig* c) { c->workers_per_site = 2; },
     "requires the thread runtime"},
    {"multi-lane detection",
     [](SystemConfig* c) {
       c->runtime = runtime::RuntimeKind::kThreads;
       c->workers_per_site = 2;
       c->engine.deadlock_policy = storage::DeadlockPolicy::kLocalDetection;
     },
     "local deadlock detection requires workers_per_site == 1"},
    {"wait-die grant shuffle",
     [](SystemConfig* c) {
       c->engine.deadlock_policy = storage::DeadlockPolicy::kWaitDie;
       sim::SchedulePolicyConfig schedule;
       schedule.shuffle_grants = true;
       c->schedule = schedule;
     },
     "wait-die does not compose with shuffle_grants"},
    {"negative batch window",
     [](SystemConfig* c) { c->batching.window = -1; },
     "batching window must be >= 0"},
    {"zero batch bytes",
     [](SystemConfig* c) {
       c->batching.window = Millis(1);
       c->batching.max_bytes = 0;
     },
     "batching max_bytes must be > 0"},
    {"ack delay",
     [](SystemConfig* c) {
       c->batching.piggyback_acks = true;
       c->batching.ack_delay = 0;
     },
     "piggybacked acks need a positive ack_delay"},
    {"group commit without wal",
     [](SystemConfig* c) { c->batching.wal_group_commit = true; },
     "wal_group_commit requires enable_wal"},
    {"crash without wal", [](SystemConfig* c) { AddCrash(c, 1, Millis(5)); },
     "crash faults require enable_wal"},
    {"crash protocol",
     [](SystemConfig* c) {
       c->protocol = Protocol::kPsl;
       c->enable_wal = true;
       AddCrash(c, 1, Millis(5));
     },
     "only supported for the lazy tree protocols"},
    {"crash site",
     [](SystemConfig* c) {
       c->enable_wal = true;
       AddCrash(c, 9, Millis(5));
     },
     "crash site out of range"},
    {"crash time",
     [](SystemConfig* c) {
       c->enable_wal = true;
       AddCrash(c, 1, 0);
     },
     "crash time and down_for must be positive"},
    {"schedule runtime",
     [](SystemConfig* c) {
       c->runtime = runtime::RuntimeKind::kThreads;
       sim::SchedulePolicyConfig schedule;
       schedule.perturb_ties = true;
       c->schedule = schedule;
     },
     "schedule perturbation requires the sim runtime"},
    {"negative jitter",
     [](SystemConfig* c) {
       sim::SchedulePolicyConfig schedule;
       schedule.perturb_ties = true;
       schedule.delivery_jitter_max = -1;
       c->schedule = schedule;
     },
     "delivery_jitter_max must be >= 0"},
};

TEST(ValidateTest, EachRuleRejectsWithItsReason) {
  ASSERT_TRUE(Validate(SystemConfig{}).ok());
  for (const ValidateCase& row : kValidateCases) {
    SystemConfig config;
    row.mutate(&config);
    Status status = Validate(config);
    EXPECT_FALSE(status.ok()) << row.rule;
    EXPECT_NE(status.ToString().find(row.message), std::string::npos)
        << row.rule << ": " << status.ToString();
  }
}

TEST(ValidateTest, CreateRunsTheSameChecks) {
  for (const ValidateCase& row : kValidateCases) {
    SystemConfig config;
    row.mutate(&config);
    Result<std::unique_ptr<System>> system = System::Create(config);
    ASSERT_FALSE(system.ok()) << row.rule;
    EXPECT_EQ(system.status().ToString(), Validate(config).ToString());
  }
}

// Regression: a sim run whose drain finished at virtual time 0 was
// reported as timed out, because the drain time doubled as the "drained"
// flag. With no transactions every site is quiescent at time 0.
TEST(SystemTest, ZeroWorkSimRunIsNotTimedOut) {
  for (Protocol protocol : {Protocol::kDagWt, Protocol::kDagT,
                            Protocol::kBackEdge, Protocol::kPsl}) {
    SystemConfig config;
    config.protocol = protocol;
    config.runtime = runtime::RuntimeKind::kSim;
    config.seed = 1;
    config.workload.num_sites = 6;
    config.workload.sites_per_machine = 3;
    config.workload.num_items = 60;
    config.workload.threads_per_site = 2;
    config.workload.txns_per_thread = 0;
    config.workload.replication_prob = 0.3;
    config.workload.backedge_prob =
        protocol == Protocol::kBackEdge ? 0.4 : 0.0;
    config.max_sim_time = Seconds(600);
    auto system = System::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    RunMetrics metrics = (*system)->Run();
    EXPECT_FALSE(metrics.timed_out) << ProtocolName(protocol);
    EXPECT_EQ(metrics.committed, 0) << ProtocolName(protocol);
    EXPECT_TRUE(metrics.serializable) << ProtocolName(protocol);
  }
}

}  // namespace
}  // namespace lazyrep::core
