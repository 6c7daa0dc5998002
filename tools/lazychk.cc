// lazychk — schedule-exploration checker (docs/CHECKING.md).
//
// Sweeps seeded schedule perturbations (event tie-breaks, delivery
// jitter, lock-grant order) over deterministic sim runs and checks the
// paper's invariants at quiescence: serializability, read consistency,
// replica convergence, WAL-replay-equals-store, fault quiescence.
//
//   $ lazychk --protocol=dagt --seeds=200 --shrink
//   $ lazychk --protocol=backedge --seeds=500
//             --faults=drop:0.01,dup:0.01,crash:2@500ms+100ms
//
// Every violation prints a (seed, policy) pair and the exact CLI line
// that replays it. Exit status: 0 clean, 1 violations found, 2 usage.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/lazychk.h"

using namespace lazyrep;

int main(int argc, char** argv) {
  harness::LazychkOptions options;
  options.verbose = true;
  if (std::optional<int> exit_code = harness::HandleCommandLine(
          argc, argv,
          "lazychk — schedule-exploration checker over the sim runtime\n\n" +
              harness::FlagHelp(harness::LazychkFlags(), options),
          [&](const std::vector<std::string>& args) {
            return harness::ParseLazychkArgs(args, &options);
          })) {
    return *exit_code;
  }

  int last_pct = -1;
  if (options.verbose) {
    options.on_progress = [&last_pct](int done, int total) {
      int pct = 100 * done / total;
      if (pct / 10 > last_pct / 10) {
        std::fprintf(stderr, "lazychk: %d/%d runs\n", done, total);
        last_pct = pct;
      }
    };
  }

  harness::LazychkResult result = harness::RunLazychk(options);
  std::printf("lazychk: %d runs, %zu violation(s)\n", result.runs,
              result.violations.size());
  for (const harness::LazychkViolation& violation : result.violations) {
    std::printf("  seed=%llu policy=[%s]\n    %s\n    replay: %s\n",
                static_cast<unsigned long long>(violation.seed),
                violation.policy.ToString().c_str(), violation.what.c_str(),
                violation.replay.c_str());
  }
  return result.ok() ? 0 : 1;
}
