#include "core/history.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/strings.h"

namespace lazyrep::core {

namespace {

using Record = HistoryRecorder::Record;

/// Sorts and deduplicates `items` unless already strictly ascending.
void Normalize(CompactArray<ItemId>* items) {
  if (std::adjacent_find(items->begin(), items->end(),
                         std::greater_equal<ItemId>()) == items->end()) {
    return;
  }
  std::vector<ItemId> sorted(items->begin(), items->end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  *items = sorted;
}

struct TxnIdHash {
  size_t operator()(const GlobalTxnId& id) const noexcept {
    return std::hash<uint64_t>()(
        (static_cast<uint64_t>(id.seq) * 0x9E3779B97F4A7C15ull) ^
        static_cast<uint32_t>(id.origin_site));
  }
};

/// A locking record and the dense index of its origin transaction.
struct Commit {
  const Record* record;
  int node;
};

/// The locking (non-snapshot) records, by ascending site and, within a
/// site, in local commit order. With `id_of`, also numbers the origin
/// transactions densely in order of first appearance in the history and
/// lists their ids there; without it every `node` is -1.
std::vector<Commit> CommitOrder(const HistoryRecorder& history,
                                std::vector<GlobalTxnId>* id_of) {
  std::vector<Commit> order;
  order.reserve(history.records().size());
  std::unordered_map<GlobalTxnId, int, TxnIdHash> node_of;
  for (const Record& r : history.records()) {
    // Snapshot reads never hold locks and never enter the site's commit
    // order; CheckSnapshotConsistency covers them.
    if (r.snapshot) continue;
    int node = -1;
    if (id_of != nullptr) {
      auto [it, inserted] =
          node_of.emplace(r.origin, static_cast<int>(id_of->size()));
      if (inserted) id_of->push_back(r.origin);
      node = it->second;
    }
    order.push_back({&r, node});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Commit& a, const Commit& b) {
                     const Record& x = *a.record;
                     const Record& y = *b.record;
                     return x.site != y.site ? x.site < y.site
                                             : x.commit_seq < y.commit_seq;
                   });
  return order;
}

/// Where one site's replay of an item stands.
struct ItemState {
  int last_writer = -1;
  std::vector<int> readers_since;  // Readers after `last_writer`.
};

/// Replays each site's commits in order, per item, and calls
/// `edge(from, to)` for every write→write, write→read and read→write
/// conflict: from the earlier committer to the later one, never from a
/// transaction to itself. The same edge may be reported more than once.
template <typename EdgeFn>
void ReplayConflicts(const std::vector<Commit>& order, EdgeFn edge) {
  std::unordered_map<ItemId, ItemState> items;
  for (size_t k = 0; k < order.size(); ++k) {
    const Record& r = *order[k].record;
    const int n = order[k].node;
    if (k == 0 || order[k - 1].record->site != r.site) items.clear();
    auto add_edge = [&](int from) {
      if (from >= 0 && from != n) edge(from, n);
    };
    for (ItemId i : r.writes) {
      ItemState& s = items[i];
      add_edge(s.last_writer);                            // ww
      for (int reader : s.readers_since) add_edge(reader);  // rw
      s.readers_since.clear();
      s.last_writer = n;
    }
    for (ItemId i : r.reads) {
      // A read of an item also written by the same record is dominated by
      // the write for conflict purposes.
      if (std::binary_search(r.writes.begin(), r.writes.end(), i)) continue;
      ItemState& s = items[i];
      add_edge(s.last_writer);  // wr
      s.readers_since.push_back(n);
    }
  }
}

}  // namespace

void HistoryRecorder::OnCommit(SiteId site, const storage::Transaction& txn,
                               int64_t commit_seq) {
  Record record;
  record.site = site;
  record.origin = txn.id();
  record.commit_seq = commit_seq;
  record.reads = CompactArray<ItemId>(txn.read_set().begin(),
                                      txn.read_set().end());
  record.writes = CompactArray<ItemId>(txn.write_set().begin(),
                                       txn.write_set().end());
  record.reads_observed = FlatMap<ItemId, Value>(txn.reads_observed().begin(),
                                                 txn.reads_observed().end());
  record.writes_final = FlatMap<ItemId, Value>(txn.writes_final().begin(),
                                               txn.writes_final().end());
  AddRecord(std::move(record));
}

void HistoryRecorder::OnAbort(SiteId, const storage::Transaction&) {
  aborts_.fetch_add(1, std::memory_order_relaxed);
}

void HistoryRecorder::OnSnapshotRead(SiteId site,
                                     const storage::Transaction& txn,
                                     int64_t stamp, int64_t session_floor) {
  Record record;
  record.site = site;
  record.snapshot = true;
  record.origin = txn.id();
  record.commit_seq = -1;  // Never enters the site's commit order.
  record.snapshot_stamp = stamp;
  record.session_floor = session_floor;
  record.reads = CompactArray<ItemId>(txn.read_set().begin(),
                                      txn.read_set().end());
  record.reads_observed = FlatMap<ItemId, Value>(txn.reads_observed().begin(),
                                                 txn.reads_observed().end());
  AddRecord(std::move(record));
}

void HistoryRecorder::AddRecord(Record record) {
  Normalize(&record.reads);
  Normalize(&record.writes);
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::string SerializabilityVerdict::ToString() const {
  if (serializable) {
    return StrPrintf("serializable (%zu txns, %zu conflict edges)", nodes,
                     edges);
  }
  std::string out = "NOT serializable; cycle:";
  for (const GlobalTxnId& id : cycle) {
    out += StrPrintf(" s%d#%lld", id.origin_site,
                     static_cast<long long>(id.seq));
  }
  return out;
}

SerializabilityVerdict CheckSerializability(
    const HistoryRecorder& history) {
  SerializabilityVerdict verdict;
  std::vector<GlobalTxnId> id_of;
  const std::vector<Commit> order = CommitOrder(history, &id_of);
  const size_t num_nodes = id_of.size();

  // The conflict edges, packed (from << 32 | to). Counted first so that
  // the array is allocated once at its exact size: growing it by doubling
  // would briefly hold up to three times the edges.
  size_t raw_count = 0;
  ReplayConflicts(order, [&raw_count](int, int) { ++raw_count; });
  std::vector<uint64_t> raw;
  raw.reserve(raw_count);
  ReplayConflicts(order, [&raw](int from, int to) {
    raw.push_back(static_cast<uint64_t>(from) << 32 |
                  static_cast<uint32_t>(to));
  });

  // Compressed sparse rows: each node's successors in ascending order,
  // the order the DFS below visits them in.
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  std::vector<size_t> first(num_nodes + 1, 0);
  std::vector<int> succ(raw.size());
  for (size_t e = 0; e < raw.size(); ++e) {
    ++first[(raw[e] >> 32) + 1];
    succ[e] = static_cast<int>(raw[e] & 0xffffffffu);
  }
  for (size_t v = 0; v < num_nodes; ++v) first[v + 1] += first[v];
  raw = {};

  verdict.nodes = num_nodes;
  verdict.edges = succ.size();

  // Iterative DFS cycle detection with path recovery.
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(num_nodes, kWhite);
  struct Frame {
    int node;
    size_t next;  // Index into `succ`.
  };
  std::vector<Frame> stack;
  for (size_t start = 0; start < num_nodes; ++start) {
    if (color[start] != kWhite) continue;
    color[start] = kGray;
    stack.push_back({static_cast<int>(start), first[start]});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next == first[f.node + 1]) {
        color[f.node] = kBlack;
        stack.pop_back();
        continue;
      }
      int next = succ[f.next++];
      if (color[next] == kGray) {
        // Cycle: walk back from f.node to next via the stack.
        std::vector<GlobalTxnId> cycle;
        cycle.push_back(id_of[next]);
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          cycle.push_back(id_of[it->node]);
          if (it->node == next) break;
        }
        std::reverse(cycle.begin(), cycle.end());
        verdict.serializable = false;
        verdict.cycle = std::move(cycle);
        return verdict;
      }
      if (color[next] == kWhite) {
        color[next] = kGray;
        stack.push_back({next, first[next]});
      }
    }
  }
  return verdict;
}

ReadConsistencyVerdict CheckReadConsistency(
    const HistoryRecorder& history) {
  ReadConsistencyVerdict verdict;
  // Replay each site's commits in order.
  const std::vector<Commit> order = CommitOrder(history, nullptr);
  std::unordered_map<ItemId, Value> current;  // Absent = initial 0.
  for (size_t k = 0; k < order.size(); ++k) {
    const Record* r = order[k].record;
    if (k == 0 || order[k - 1].record->site != r->site) current.clear();
    for (const auto& [item, observed] : r->reads_observed) {
      ++verdict.reads_checked;
      auto it = current.find(item);
      Value expected = it == current.end() ? 0 : it->second;
      if (observed != expected && verdict.consistent) {
        verdict.consistent = false;
        verdict.violation = StrPrintf(
            "site %d: txn s%d#%lld read item %d = %lld, expected %lld",
            r->site, r->origin.origin_site,
            static_cast<long long>(r->origin.seq), item,
            static_cast<long long>(observed),
            static_cast<long long>(expected));
      }
    }
    for (const auto& [item, value] : r->writes_final) {
      current[item] = value;
    }
  }
  return verdict;
}

SnapshotConsistencyVerdict CheckSnapshotConsistency(
    const HistoryRecorder& history) {
  SnapshotConsistencyVerdict verdict;

  // Per (site, item): committed writes ordered by local commit sequence.
  struct Write {
    int64_t commit_seq;
    Value value;
  };
  std::map<SiteId, std::unordered_map<ItemId, std::vector<Write>>> writes;
  std::vector<const Record*> snapshots;
  for (const Record& r : history.records()) {
    if (r.snapshot) {
      snapshots.push_back(&r);
      continue;
    }
    for (const auto& [item, value] : r.writes_final) {
      writes[r.site][item].push_back({r.commit_seq, value});
    }
  }
  for (auto& [site, per_item] : writes) {
    for (auto& [item, stream] : per_item) {
      std::sort(stream.begin(), stream.end(),
                [](const Write& a, const Write& b) {
                  return a.commit_seq < b.commit_seq;
                });
    }
  }

  auto fail = [&](std::string message) {
    if (!verdict.consistent) return;
    verdict.consistent = false;
    verdict.violation = std::move(message);
  };

  for (const Record* r : snapshots) {
    ++verdict.snapshots_checked;
    const int64_t stamp = r->snapshot_stamp;
    if (r->session_floor > stamp) {
      fail(StrPrintf(
          "site %d: snapshot s%d#%lld at stamp %lld below its session "
          "floor %lld (read-your-writes violated)",
          r->site, r->origin.origin_site,
          static_cast<long long>(r->origin.seq),
          static_cast<long long>(stamp),
          static_cast<long long>(r->session_floor)));
    }
    auto site_it = writes.find(r->site);
    for (const auto& [item, observed] : r->reads_observed) {
      ++verdict.reads_checked;
      // Visible cut: commits with commit_seq + 1 <= stamp, i.e. the
      // site's history strictly before commit_seq == stamp.
      Value expected = 0;  // Initial value when no visible writer.
      if (site_it != writes.end()) {
        auto item_it = site_it->second.find(item);
        if (item_it != site_it->second.end()) {
          const std::vector<Write>& stream = item_it->second;
          auto pos = std::lower_bound(
              stream.begin(), stream.end(), stamp,
              [](const Write& w, int64_t s) { return w.commit_seq < s; });
          if (pos != stream.begin()) expected = std::prev(pos)->value;
        }
      }
      if (observed != expected) {
        fail(StrPrintf(
            "site %d: snapshot s%d#%lld at stamp %lld read item %d = "
            "%lld, expected %lld",
            r->site, r->origin.origin_site,
            static_cast<long long>(r->origin.seq),
            static_cast<long long>(stamp), item,
            static_cast<long long>(observed),
            static_cast<long long>(expected)));
      }
    }
  }
  return verdict;
}

}  // namespace lazyrep::core
