// API-contract death tests: misusing the substrate trips a CHECK with a
// diagnostic rather than corrupting state. These pin the documented
// preconditions.

#include <gtest/gtest.h>

#include "runtime/sim_runtime.h"
#include "sim/simulator.h"
#include "storage/database.h"

namespace lazyrep {
namespace {

using storage::Database;
using storage::LockMode;
using storage::Transaction;
using storage::TxnKind;
using storage::TxnPtr;

TEST(ContractDeathTest, WriteLockedWithoutLockAborts) {
  runtime::SimRuntime rt;
  Database::Options options;
  Database db(&rt, options, nullptr, nullptr);
  db.store().AddItem(1, 0);
  TxnPtr t = db.Begin(GlobalTxnId{0, 1}, TxnKind::kPrimary);
  EXPECT_DEATH((void)db.WriteLocked(t.get(), 1, 5),
               "WriteLocked without an X lock");
}

TEST(ContractDeathTest, ReadLockedWithoutLockAborts) {
  runtime::SimRuntime rt;
  Database::Options options;
  Database db(&rt, options, nullptr, nullptr);
  db.store().AddItem(1, 0);
  TxnPtr t = db.Begin(GlobalTxnId{0, 1}, TxnKind::kPrimary);
  EXPECT_DEATH((void)db.ReadLocked(t.get(), 1),
               "ReadLocked without a lock");
}

TEST(ContractDeathTest, DoubleCommitAborts) {
  runtime::SimRuntime rt;
  sim::Simulator& sim = *rt.simulator();
  Database::Options options;
  Database db(&rt, options, nullptr, nullptr);
  db.store().AddItem(1, 0);
  EXPECT_DEATH(
      {
        sim.Spawn([](Database* d) -> sim::Co<void> {
          TxnPtr t = d->Begin(GlobalTxnId{0, 1}, TxnKind::kPrimary);
          (void)co_await d->Commit(t);
          (void)co_await d->Commit(t);  // Not active any more.
        }(&db));
        sim.Run();
      },
      "kActive");
}

TEST(ContractDeathTest, DuplicateItemRegistrationAborts) {
  storage::ItemStore store;
  store.AddItem(3, 0);
  EXPECT_DEATH(store.AddItem(3, 0), "already present");
}

TEST(ContractDeathTest, SpawningEmptyCoAborts) {
  sim::Simulator sim;
  EXPECT_DEATH(sim.Spawn(sim::Co<void>()), "empty Co");
}

TEST(ContractDeathTest, NegativeDelayAborts) {
  sim::Simulator sim;
  EXPECT_DEATH(
      {
        sim.Spawn([](sim::Simulator* s) -> sim::Co<void> {
          co_await s->Delay(-1);
        }(&sim));
      },
      "");
}

}  // namespace
}  // namespace lazyrep
