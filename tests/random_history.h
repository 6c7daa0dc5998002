// Random replicated histories shared by the checker tests: the
// quiescence checkers' differential test (history_test.cc) and the
// streaming oracle's (streaming_oracle_test.cc) draw the same ones.
// Also the feed the hand-built anomaly tests (lazychk_test.cc,
// mvcc_test.cc) give the streaming oracle.

#ifndef LAZYREP_TESTS_RANDOM_HISTORY_H_
#define LAZYREP_TESTS_RANDOM_HISTORY_H_

#include <map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "core/history.h"
#include "core/streaming_oracle.h"

namespace lazyrep::core::scripted {

/// One scripted commit or snapshot read with its lists exactly as
/// scripted: access lists possibly unsorted and repeating, value lists
/// possibly repeating an item (the first value listed counts).
struct ScriptedCommit {
  SiteId site;
  GlobalTxnId origin;
  int64_t commit_seq;
  std::vector<ItemId> reads;
  std::vector<ItemId> writes;
  bool snapshot = false;
  std::vector<std::pair<ItemId, Value>> observed = {};
  std::vector<std::pair<ItemId, Value>> finals = {};
  int64_t snapshot_stamp = 0;
  int64_t session_floor = 0;
};

/// A random replicated history over 2-5 sites and at most 8 items: each
/// transaction commits at its origin site and at a random subset of the
/// others, every site in its own random order (so the union of the
/// orders is often cyclic), with unsorted, repeating access lists. A
/// read mostly observes the value its site's replay says it must, and
/// each write installs a fresh value; a few reads observe a wrong one.
/// Each site may also serve snapshot reads at random stamps, a few of
/// them wrong or below their session floor. Everything is appended in a
/// random order.
inline std::vector<ScriptedCommit> RandomHistory(Rng* rng) {
  const int sites = static_cast<int>(rng->Uniform(2, 5));
  const int items = static_cast<int>(rng->Uniform(1, 8));
  const int txns = static_cast<int>(rng->Uniform(2, 9));
  auto accesses = [&] {
    std::vector<ItemId> out(rng->Index(5));
    for (ItemId& i : out) i = static_cast<ItemId>(rng->Index(items));
    return out;
  };
  // What a read observes: `right`, or with probability `p` a wrong value.
  auto observe = [&](Value right, double p) {
    return rng->Bernoulli(p) ? right + 1 + static_cast<Value>(rng->Index(3))
                             : right;
  };
  std::vector<std::vector<GlobalTxnId>> at_site(sites);
  for (int t = 0; t < txns; ++t) {
    const SiteId origin = static_cast<SiteId>(rng->Index(sites));
    for (SiteId s = 0; s < sites; ++s) {
      if (s == origin || rng->Bernoulli(0.5)) {
        at_site[s].push_back(GlobalTxnId{origin, t});
      }
    }
  }
  std::vector<ScriptedCommit> out;
  for (SiteId s = 0; s < sites; ++s) {
    rng->Shuffle(&at_site[s]);
    std::map<ItemId, Value> current;  // The site's replay.
    struct Installed {
      int64_t commit_seq;
      ItemId item;
      Value value;
    };
    std::vector<Installed> installed;  // In commit order.
    int64_t seq = static_cast<int64_t>(rng->Index(3));
    for (const GlobalTxnId& id : at_site[s]) {
      seq += 1 + static_cast<int64_t>(rng->Index(3));
      ScriptedCommit c{s, id, seq, accesses(), accesses()};
      for (ItemId i : c.reads) {
        // Some reads take a lock but record no value (PSL proxies).
        if (rng->Bernoulli(0.7)) {
          c.observed.push_back({i, observe(current[i], 0.03)});
        }
      }
      for (ItemId i : c.writes) {
        c.finals.push_back({i, 1 + static_cast<Value>(rng->Index(9))});
      }
      for (const auto& [i, v] :
           std::map<ItemId, Value>(c.finals.begin(), c.finals.end())) {
        current[i] = v;
        installed.push_back({seq, i, v});
      }
      out.push_back(std::move(c));
    }
    while (rng->Bernoulli(0.4)) {
      const GlobalTxnId snap_id{s, 1000 + static_cast<int64_t>(out.size())};
      ScriptedCommit snap{s, snap_id, -1, accesses(), {}, /*snapshot=*/true};
      snap.snapshot_stamp = rng->Uniform(0, seq + 2);
      snap.session_floor = rng->Bernoulli(0.05)
                               ? snap.snapshot_stamp + 1
                               : rng->Uniform(0, snap.snapshot_stamp);
      for (ItemId i : snap.reads) {
        Value right = 0;
        for (const Installed& w : installed) {
          if (w.commit_seq < snap.snapshot_stamp && w.item == i) {
            right = w.value;
          }
        }
        snap.observed.push_back({i, observe(right, 0.08)});
      }
      out.push_back(std::move(snap));
    }
  }
  rng->Shuffle(&out);
  return out;
}

/// Adds `script` to `recorder` in script order.
inline void AddAll(const std::vector<ScriptedCommit>& script,
            HistoryRecorder* recorder) {
  for (const ScriptedCommit& c : script) {
    HistoryRecorder::Record r;
    r.site = c.site;
    r.snapshot = c.snapshot;
    r.origin = c.origin;
    r.commit_seq = c.commit_seq;
    r.snapshot_stamp = c.snapshot_stamp;
    r.session_floor = c.session_floor;
    r.reads = c.reads;
    r.writes = c.writes;
    r.reads_observed =
        FlatMap<ItemId, Value>(c.observed.begin(), c.observed.end());
    r.writes_final = FlatMap<ItemId, Value>(c.finals.begin(), c.finals.end());
    recorder->AddRecord(std::move(r));
  }
}

/// Feeds hand-built `records` to `oracle` as a run would: every
/// snapshot's stamp and every transaction's non-empty record count are
/// announced first, then the records go in order. Each site's commit
/// seqs must be dense from 0, as a database numbers them.
inline void FeedOracle(const std::vector<HistoryRecorder::Record>& records,
                       StreamingOracle* oracle) {
  std::map<GlobalTxnId, int> expected;
  for (const HistoryRecorder::Record& r : records) {
    if (r.snapshot) {
      oracle->BeginSnapshot(r.site, r.origin, r.snapshot_stamp);
    } else if (!r.reads.empty() || !r.writes.empty()) {
      ++expected[r.origin];
    }
  }
  for (const auto& [id, count] : expected) oracle->ExpectRecords(id, count);
  for (const HistoryRecorder::Record& r : records) oracle->AddRecord(r);
}

}  // namespace lazyrep::core::scripted

#endif  // LAZYREP_TESTS_RANDOM_HISTORY_H_
