#include "harness/lazychk.h"

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "storage/database.h"

namespace lazyrep::harness {

core::SystemConfig LazychkOptions::DefaultRun() {
  core::SystemConfig run = PaperConfig(core::Protocol::kDagT);
  run.workload.txns_per_thread = 40;
  return run;
}

core::SystemConfig LazychkConfig(const LazychkOptions& options,
                                 uint64_t seed,
                                 const sim::SchedulePolicyConfig& policy) {
  core::SystemConfig config = options.run;
  config.runtime = runtime::RuntimeKind::kSim;
  config.seed = seed;
  config.enable_wal = true;  // The oracle replays every site's WAL.
  if (config.protocol != core::Protocol::kBackEdge) {
    config.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
  }
  sim::SchedulePolicyConfig seeded = policy;
  seeded.seed = seed;
  config.schedule = seeded;
  return config;
}

std::string CheckInvariants(const core::SystemConfig& config) {
  Result<std::unique_ptr<core::System>> system = core::System::Create(config);
  LAZYREP_CHECK(system.ok()) << system.status().ToString();
  core::System& sys = **system;
  core::RunMetrics m = sys.Run();

  std::vector<std::string> fails;
  if (m.timed_out) fails.push_back("hit the simulation time cap");
  if (m.committed <= 0) fails.push_back("no transaction committed");
  if (!m.serializable) {
    fails.push_back("history not serializable (" + m.verdict + ")");
  }
  if (!m.reads_consistent) fails.push_back("read returned a stale value");
  if (!m.snapshots_consistent) {
    fails.push_back("snapshot read observed a non-prefix cut");
  }
  if (!m.converged) fails.push_back("replicas diverged from primaries");
  if (config.faults.has_value() && config.faults->enabled() &&
      sys.injector() != nullptr && !sys.injector()->AllUp()) {
    fails.push_back("a crashed site never recovered");
  }
  // The transport exists under faults OR batching; either way it must
  // have drained (no frame buffered, unacked, stashed or parked).
  if (sys.transport() != nullptr && !sys.transport()->Quiescent()) {
    fails.push_back("reliable transport left work in flight");
  }
  if (config.enable_wal) {
    for (SiteId site = 0; site < config.workload.num_sites; ++site) {
      storage::Database& db = sys.database(site);
      if (db.wal() == nullptr) continue;
      storage::ItemStore replayed;
      for (const auto& [item, value] : db.store().Snapshot()) {
        replayed.AddItem(item, 0);
      }
      db.wal()->Replay(&replayed);
      if (replayed.Snapshot() != db.store().Snapshot()) {
        fails.push_back("WAL replay diverges from the store at site " +
                        std::to_string(site));
      }
    }
  }

  std::string joined;
  for (const std::string& f : fails) {
    if (!joined.empty()) joined += "; ";
    joined += f;
  }
  return joined;
}

sim::SchedulePolicyConfig ShrinkViolation(const LazychkOptions& options,
                                          uint64_t seed,
                                          sim::SchedulePolicyConfig failing) {
  auto still_fails = [&](const sim::SchedulePolicyConfig& candidate) {
    return !CheckInvariants(LazychkConfig(options, seed, candidate)).empty();
  };
  // Greedy descent: try each single-dimension reduction; keep the first
  // that still reproduces the failure and restart. Terminates because
  // every accepted step strictly reduces the policy (a flag turned off,
  // or the jitter bound halved toward zero).
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<sim::SchedulePolicyConfig> candidates;
    if (failing.perturb_ties) {
      candidates.push_back(failing);
      candidates.back().perturb_ties = false;
    }
    if (failing.shuffle_grants) {
      candidates.push_back(failing);
      candidates.back().shuffle_grants = false;
    }
    if (failing.delivery_jitter_max > 0) {
      candidates.push_back(failing);
      candidates.back().delivery_jitter_max = 0;
      if (failing.delivery_jitter_max > 1) {
        candidates.push_back(failing);
        candidates.back().delivery_jitter_max /= 2;
      }
    }
    for (const sim::SchedulePolicyConfig& candidate : candidates) {
      if (still_fails(candidate)) {
        failing = candidate;
        progress = true;
        break;
      }
    }
  }
  return failing;
}

LazychkResult RunLazychk(const LazychkOptions& options) {
  LazychkResult result;
  for (int i = 0; i < options.seeds; ++i) {
    const uint64_t seed = options.first_seed + static_cast<uint64_t>(i);
    sim::SchedulePolicyConfig policy = options.policy;
    policy.seed = seed;
    std::string what = CheckInvariants(LazychkConfig(options, seed, policy));
    ++result.runs;
    if (!what.empty()) {
      if (options.shrink) {
        policy = ShrinkViolation(options, seed, policy);
        // Re-run the minimal policy so `what` describes what IT violates
        // (shrinking can change which invariant fires first).
        what = CheckInvariants(LazychkConfig(options, seed, policy));
        LAZYREP_CHECK(!what.empty()) << "shrink lost the violation";
      }
      LazychkViolation violation;
      violation.seed = seed;
      violation.policy = policy;
      violation.what = what;
      violation.replay = ReplayLine(options, seed, policy);
      if (options.verbose) {
        std::fprintf(stderr, "lazychk: VIOLATION seed=%llu %s\n  %s\n  %s\n",
                     static_cast<unsigned long long>(seed),
                     policy.ToString().c_str(), what.c_str(),
                     violation.replay.c_str());
      }
      result.violations.push_back(std::move(violation));
    }
    if (options.on_progress) options.on_progress(i + 1, options.seeds);
  }
  return result;
}

std::vector<Flag<LazychkOptions>> LazychkFlags() {
  using Rendered = std::optional<std::string>;
  auto bit = [](std::string name, std::string help,
                bool sim::SchedulePolicyConfig::*field) {
    return Flag<LazychkOptions>{
        std::move(name), "", "0|1", std::move(help),
        [field](const std::string& v, LazychkOptions* o) {
          if (v != "0" && v != "1") return Status::InvalidArgument("want 0|1");
          o->policy.*field = v == "1";
          return Status::OK();
        },
        [field](const LazychkOptions& o) -> Rendered {
          return o.policy.*field ? "1" : "0";
        }};
  };
  std::vector<Flag<LazychkOptions>> flags = OnMember(
      ConfigFlags({"protocol", "txns", "workload", "zipf", "consistency",
                   "faults", "topology", "replication-factor", "deadlock",
                   "batch-window", "piggyback-acks", "group-commit"}),
      &LazychkOptions::run);
  // The sweep's shape goes right after the protocol, as in a replay line.
  flags.insert(
      flags.begin() + 1,
      {IntFlag("seeds", "number of (seed, policy) runs",
               &LazychkOptions::seeds, 1),
       {"first-seed", "", "K", "first seed of the sweep",
        [](const std::string& v, LazychkOptions* o) {
          return ParseUint(v, &o->first_seed);
        },
        [](const LazychkOptions& o) -> Rendered {
          return std::to_string(o.first_seed);
        }}});
  flags.push_back(bit("ties", "perturb same-timestamp tie-breaks",
                      &sim::SchedulePolicyConfig::perturb_ties));
  flags.push_back(bit("grants",
                      "randomize lock-grant order (off by default under "
                      "--grant=wait_die, which it does not compose with)",
                      &sim::SchedulePolicyConfig::shuffle_grants));
  flags.push_back({"jitter", "", "D", "max per-message delivery jitter",
                   [](const std::string& v, LazychkOptions* o) {
                     return ParseFlagDuration(v,
                                              &o->policy.delivery_jitter_max);
                   },
                   [](const LazychkOptions& o) -> Rendered {
                     return fault::internal::FormatDurationSpec(
                         o.policy.delivery_jitter_max);
                   }});
  flags.push_back(SwitchFlag("shrink",
                             "shrink each violation to a minimal policy",
                             &LazychkOptions::shrink));
  flags.push_back(SwitchFlag("no-shrink", "report violations unshrunk",
                             &LazychkOptions::shrink, false));
  flags.push_back(SwitchFlag("quiet",
                             "suppress per-violation progress on stderr",
                             &LazychkOptions::verbose, false));
  return flags;
}

Status ParseLazychkArgs(const std::vector<std::string>& args,
                        LazychkOptions* options) {
  LAZYREP_RETURN_IF_ERROR(ParseFlags(LazychkFlags(), args, options));
  ApplyTopology(&options->run.workload);
  // Wait-die decides grant order by transaction age, so its sweeps leave
  // the grant queue alone unless --grants=1 insists (Validate refuses).
  bool grants_given = false;
  for (const std::string& arg : args) {
    grants_given |= arg.rfind("--grants=", 0) == 0;
  }
  if (options->run.engine.deadlock_policy ==
          storage::DeadlockPolicy::kWaitDie &&
      !grants_given) {
    options->policy.shuffle_grants = false;
  }
  return core::Validate(
      LazychkConfig(*options, options->first_seed, options->policy));
}

std::string ReplayLine(const LazychkOptions& options, uint64_t seed,
                       const sim::SchedulePolicyConfig& policy) {
  LazychkOptions replay = options;
  replay.seeds = 1;
  replay.first_seed = seed;
  replay.policy = policy;
  replay.shrink = false;
  std::vector<std::string> args =
      RenderFlags(LazychkFlags(), replay, LazychkOptions());
  return "lazychk " + StrJoin(args, " ");
}

}  // namespace lazyrep::harness
