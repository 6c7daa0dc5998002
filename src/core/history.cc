#include "core/history.h"

#include <algorithm>
#include <functional>
#include <tuple>
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

/// Arena blocks start at multiples of this.
constexpr size_t kArenaAlign = 8;
static_assert(CompactArray<ItemId>::kBlockAlign <= kArenaAlign);
static_assert(FlatMap<ItemId, Value>::kBlockAlign <= kArenaAlign);

size_t ArenaBytes(size_t block_bytes) {
  return (block_bytes + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
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
  order.reserve(std::count_if(history.records().begin(),
                              history.records().end(),
                              [](const Record& r) { return !r.snapshot; }));
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
  const size_t bytes = ArenaBytes(record.reads.block_bytes()) +
                       ArenaBytes(record.writes.block_bytes()) +
                       ArenaBytes(record.reads_observed.block_bytes()) +
                       ArenaBytes(record.writes_final.block_bytes());
  std::lock_guard<std::mutex> lock(mu_);
  char* at = Carve(bytes);
  auto borrow = [&at](auto* block) {
    const size_t block_bytes = block->block_bytes();
    *block = block->BorrowCopy(at);
    at += ArenaBytes(block_bytes);
  };
  borrow(&record.reads);
  borrow(&record.writes);
  borrow(&record.reads_observed);
  borrow(&record.writes_final);
  records_.push_back(std::move(record));
}

char* HistoryRecorder::Carve(size_t bytes) {
  if (bytes == 0) return nullptr;
  auto new_chunk = [this](size_t size) {
    return chunks_.emplace_back(std::make_unique_for_overwrite<char[]>(size))
        .get();
  };
  if (bytes > kChunkBytes) return new_chunk(bytes);  // Current one stays.
  if (bytes > tail_bytes_) {
    tail_ = new_chunk(kChunkBytes);
    tail_bytes_ = kChunkBytes;
  }
  char* out = tail_;
  tail_ += bytes;
  tail_bytes_ -= bytes;
  return out;
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

  // Compressed sparse rows, built in place: count each node's out-degree
  // into `first`, turn the counts into row ends, fill each row back to
  // front (leaving `first[v]` at row v's start), then sort, deduplicate
  // and compact each row. The DFS below visits successors in that order.
  std::vector<size_t> first(num_nodes + 1, 0);
  ReplayConflicts(order, [&first](int from, int) { ++first[from]; });
  for (size_t v = 1; v <= num_nodes; ++v) first[v] += first[v - 1];
  std::vector<int> succ(first[num_nodes]);
  ReplayConflicts(order, [&first, &succ](int from, int to) {
    succ[--first[from]] = to;
  });
  size_t kept = 0;
  for (size_t v = 0; v < num_nodes; ++v) {
    int* row = succ.data() + first[v];
    int* row_end = succ.data() + first[v + 1];
    std::sort(row, row_end);
    row_end = std::unique(row, row_end);
    int* out = succ.data() + kept;
    if (out != row) std::move(row, row_end, out);
    first[v] = kept;
    kept += static_cast<size_t>(row_end - row);
  }
  first[num_nodes] = kept;
  succ.resize(kept);

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
  size_t num_writes = 0;
  bool any_snapshot = false;
  for (const Record& r : history.records()) {
    if (r.snapshot) {
      any_snapshot = true;
    } else {
      num_writes += r.writes_final.size();
    }
  }
  if (!any_snapshot) return verdict;

  // Every committed write, sorted once by (site, item, commit_seq): each
  // (site, item)'s writes are one run, in local commit order.
  struct Write {
    SiteId site;
    ItemId item;
    int64_t commit_seq;
    Value value;
  };
  auto before = [](const Write& a, const Write& b) {
    return std::tie(a.site, a.item, a.commit_seq) <
           std::tie(b.site, b.item, b.commit_seq);
  };
  std::vector<Write> writes;
  writes.reserve(num_writes);
  for (const Record& r : history.records()) {
    if (r.snapshot) continue;
    for (const auto& [item, value] : r.writes_final) {
      writes.push_back({r.site, item, r.commit_seq, value});
    }
  }
  std::sort(writes.begin(), writes.end(), before);

  auto fail = [&](std::string message) {
    if (!verdict.consistent) return;
    verdict.consistent = false;
    verdict.violation = std::move(message);
  };

  for (const Record& r : history.records()) {
    if (!r.snapshot) continue;
    ++verdict.snapshots_checked;
    const int64_t stamp = r.snapshot_stamp;
    if (r.session_floor > stamp) {
      fail(StrPrintf(
          "site %d: snapshot s%d#%lld at stamp %lld below its session "
          "floor %lld (read-your-writes violated)",
          r.site, r.origin.origin_site, static_cast<long long>(r.origin.seq),
          static_cast<long long>(stamp),
          static_cast<long long>(r.session_floor)));
    }
    for (const auto& [item, observed] : r.reads_observed) {
      ++verdict.reads_checked;
      // Visible cut: commits with commit_seq + 1 <= stamp, i.e. the
      // site's history strictly before commit_seq == stamp. Its last
      // write to the item sits just below the cut's end in `writes`.
      Value expected = 0;  // Initial value when no visible writer.
      auto pos = std::lower_bound(writes.begin(), writes.end(),
                                  Write{r.site, item, stamp, 0}, before);
      if (pos != writes.begin()) {
        const Write& last = *std::prev(pos);
        if (last.site == r.site && last.item == item) expected = last.value;
      }
      if (observed != expected) {
        fail(StrPrintf(
            "site %d: snapshot s%d#%lld at stamp %lld read item %d = "
            "%lld, expected %lld",
            r.site, r.origin.origin_site,
            static_cast<long long>(r.origin.seq),
            static_cast<long long>(stamp), item,
            static_cast<long long>(observed),
            static_cast<long long>(expected)));
      }
    }
  }
  return verdict;
}

}  // namespace lazyrep::core
