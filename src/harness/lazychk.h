#ifndef LAZYREP_HARNESS_LAZYCHK_H_
#define LAZYREP_HARNESS_LAZYCHK_H_

#include <functional>
#include <string>
#include <vector>

#include "core/system.h"
#include "harness/flags.h"
#include "sim/schedule_policy.h"

namespace lazyrep::harness {

/// lazychk — seeded schedule exploration with an invariant oracle
/// (docs/CHECKING.md).
///
/// Each run executes one deterministic sim with a `SchedulePolicy`
/// perturbation derived from the run's seed, then checks the paper's
/// correctness invariants at quiescence. A violation reports the exact
/// `(system seed, policy config)` pair that replays it bit-for-bit, and
/// the greedy shrinker minimizes that pair by disabling perturbation
/// dimensions (and halving the jitter bound) while the failure persists.

struct LazychkOptions {
  /// The run template every seed starts from: `PaperConfig(kDagT)` at 40
  /// transactions per thread unless flags say otherwise. `LazychkConfig`
  /// adds what lazychk always fixes (sim runtime, WAL, the run's seed and
  /// policy, and b = 0 for the DAG protocols, which need a DAG).
  core::SystemConfig run = DefaultRun();
  /// Number of (system seed, policy seed) runs; seed i uses
  /// `first_seed + i` for both.
  int seeds = 100;
  uint64_t first_seed = 1;
  /// Perturbation dimensions explored per run (`policy.seed` is
  /// overwritten with the run seed). Defaults: all three on, jitter up
  /// to 2 ms (an order above the paper's 0.15 ms wire latency, so
  /// cross-channel reordering actually happens). Wait-die and
  /// `shuffle_grants` fight over grant order and `core::Validate` rejects
  /// the pair; `ParseLazychkArgs` drops the shuffle under wait-die.
  sim::SchedulePolicyConfig policy = DefaultPolicy();
  /// Shrink each violation before reporting.
  bool shrink = true;
  /// Progress/violation lines to stderr.
  bool verbose = false;
  /// Optional progress hook, called after every completed run.
  std::function<void(int done, int total)> on_progress;

  static core::SystemConfig DefaultRun();
  static sim::SchedulePolicyConfig DefaultPolicy() {
    sim::SchedulePolicyConfig p;
    p.perturb_ties = true;
    p.delivery_jitter_max = Millis(2);
    p.shuffle_grants = true;
    return p;
  }
};

/// One invariant violation, with everything needed to replay it.
struct LazychkViolation {
  uint64_t seed = 0;                   // SystemConfig::seed of the run.
  sim::SchedulePolicyConfig policy;    // Minimal failing policy (shrunk).
  std::string what;                    // Which invariant(s) failed.
  std::string replay;                  // lazychk CLI line reproducing it.
};

struct LazychkResult {
  int runs = 0;
  std::vector<LazychkViolation> violations;
  bool ok() const { return violations.empty(); }
};

/// Builds the SystemConfig for one lazychk run: the run template with
/// WAL + checking on and the seeded policy installed.
core::SystemConfig LazychkConfig(const LazychkOptions& options,
                                 uint64_t seed,
                                 const sim::SchedulePolicyConfig& policy);

/// Runs one configured system to quiescence and checks every invariant:
/// no timeout, global serializability, read consistency, replica
/// convergence, transport quiescent + all sites back up (under faults),
/// and WAL-replay-equals-store at every WAL-enabled site. Returns an
/// empty string when all hold, else a ";"-joined list of failures.
std::string CheckInvariants(const core::SystemConfig& config);

/// Greedy shrink: re-runs with one perturbation dimension disabled (or
/// the jitter bound halved) at a time, keeping any reduction that still
/// fails, until no single reduction reproduces the violation. Returns
/// the minimal failing policy.
sim::SchedulePolicyConfig ShrinkViolation(
    const LazychkOptions& options, uint64_t seed,
    sim::SchedulePolicyConfig failing);

/// The full sweep: `seeds` runs, oracle on each, shrink on violations.
LazychkResult RunLazychk(const LazychkOptions& options);

/// lazychk's flag table: the shared config flags it sweeps plus its own
/// (`--seeds`, `--first-seed`, `--ties`, `--grants`, `--jitter`,
/// `--shrink`/`--no-shrink`, `--quiet`).
std::vector<Flag<LazychkOptions>> LazychkFlags();

/// Parses lazychk's arguments over `*options`, derives the topology and
/// validates the first run's config. Under `--grant=wait_die` grant
/// shuffling is off unless `--grants=1` asks for it, which Validate
/// rejects.
Status ParseLazychkArgs(const std::vector<std::string>& args,
                        LazychkOptions* options);

/// The lazychk command line that re-runs exactly one (seed, policy) run
/// of `options` without shrinking.
std::string ReplayLine(const LazychkOptions& options, uint64_t seed,
                       const sim::SchedulePolicyConfig& policy);

}  // namespace lazyrep::harness

#endif  // LAZYREP_HARNESS_LAZYCHK_H_
