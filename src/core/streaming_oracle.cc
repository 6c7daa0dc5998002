#include "core/streaming_oracle.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace lazyrep::core {

namespace {

bool StrictlyAscending(const CompactArray<ItemId>& items) {
  return std::adjacent_find(items.begin(), items.end(),
                            std::greater_equal<ItemId>()) == items.end();
}

std::string TxnName(const GlobalTxnId& id) {
  return StrPrintf("s%d#%lld", id.origin_site,
                   static_cast<long long>(id.seq));
}

}  // namespace

uint64_t StreamingOracle::KeyOf(const GlobalTxnId& id) {
  LAZYREP_CHECK(id.origin_site >= 0 && id.origin_site < (1 << 19) &&
                id.seq >= 0 && id.seq < (int64_t{1} << 44))
      << "transaction id out of range: " << TxnName(id);
  return (static_cast<uint64_t>(id.origin_site) << 44) |
         static_cast<uint64_t>(id.seq);
}

GlobalTxnId StreamingOracle::IdOf(uint64_t key) {
  return GlobalTxnId{static_cast<SiteId>(key >> 44),
                     static_cast<int64_t>(key & ((uint64_t{1} << 44) - 1))};
}

StreamingOracle::StreamingOracle(std::function<SimTime()> now, bool pumped)
    : now_(std::move(now)), pumped_(pumped) {}

StreamingOracle::~StreamingOracle() = default;

void StreamingOracle::OnCommit(SiteId site, const storage::Transaction& txn,
                               int64_t commit_seq) {
  Event e;
  e.record.site = site;
  e.record.origin = txn.id();
  e.record.commit_seq = commit_seq;
  e.record.reads = CompactArray<ItemId>(txn.read_set().begin(),
                                        txn.read_set().end());
  e.record.writes = CompactArray<ItemId>(txn.write_set().begin(),
                                         txn.write_set().end());
  e.record.reads_observed = FlatMap<ItemId, Value>(
      txn.reads_observed().begin(), txn.reads_observed().end());
  e.record.writes_final = FlatMap<ItemId, Value>(txn.writes_final().begin(),
                                                 txn.writes_final().end());
  Post(std::move(e), /*process=*/true);
}

void StreamingOracle::OnAbort(SiteId site, const storage::Transaction& txn) {
  Event e;
  e.kind = Event::Kind::kAbort;
  e.site = site;
  e.id = txn.id();
  Post(std::move(e), /*process=*/true);
}

void StreamingOracle::OnSnapshotBegin(SiteId site,
                                      const storage::Transaction& txn,
                                      int64_t stamp) {
  BeginSnapshot(site, txn.id(), stamp);
}

void StreamingOracle::BeginSnapshot(SiteId site, const GlobalTxnId& id,
                                    int64_t stamp) {
  Event e;
  e.kind = Event::Kind::kSnapshotBegin;
  e.site = site;
  e.id = id;
  e.value = stamp;
  // The database calls this under its own lock: queue it, never replay.
  Post(std::move(e), /*process=*/false);
}

void StreamingOracle::OnSnapshotRead(SiteId site,
                                     const storage::Transaction& txn,
                                     int64_t stamp, int64_t session_floor) {
  Event e;
  e.record.site = site;
  e.record.snapshot = true;
  e.record.origin = txn.id();
  e.record.commit_seq = -1;
  e.record.snapshot_stamp = stamp;
  e.record.session_floor = session_floor;
  e.record.reads = CompactArray<ItemId>(txn.read_set().begin(),
                                        txn.read_set().end());
  e.record.reads_observed = FlatMap<ItemId, Value>(
      txn.reads_observed().begin(), txn.reads_observed().end());
  Post(std::move(e), /*process=*/true);
}

void StreamingOracle::AddRecord(Record record) {
  LAZYREP_CHECK(StrictlyAscending(record.reads) &&
                StrictlyAscending(record.writes))
      << "access sets must be sorted and duplicate-free";
  Event e;
  e.record = std::move(record);
  Post(std::move(e), /*process=*/true);
}

void StreamingOracle::ExpectRecords(const GlobalTxnId& id, int records) {
  Event e;
  e.kind = Event::Kind::kExpect;
  e.id = id;
  e.value = records;
  // Called from commit hooks, inside the database's atomic commit region.
  Post(std::move(e), /*process=*/false);
}

void StreamingOracle::WithdrawRecord(const GlobalTxnId& id) {
  Event e;
  e.kind = Event::Kind::kWithdraw;
  e.id = id;
  Post(std::move(e), /*process=*/true);
}

void StreamingOracle::SetCloseHook(
    std::function<void(const GlobalTxnId&, int)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  close_hook_ = std::move(hook);
}

void StreamingOracle::Post(Event event, bool process) {
  size_t queued;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(std::move(event));
    queued = inbox_.size();
  }
  if (!process) return;
  if (pumped_) {
    // The pump fell behind: hold this caller until the queue is replayed,
    // rather than let it grow.
    if (queued < kMaxQueued) return;
    std::lock_guard<std::mutex> lock(mu_);
    Drain();
    return;
  }
  // Whoever holds `mu_` drains the inbox; everyone else moves on. The
  // holder looks again after letting go, so no event is left behind.
  while (mu_.try_lock()) {
    Drain();
    mu_.unlock();
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (inbox_.empty()) return;
  }
}

void StreamingOracle::Pump() {
  std::lock_guard<std::mutex> lock(mu_);
  Drain();
}

void StreamingOracle::Drain() {
  std::vector<Event> batch;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      if (inbox_.empty()) return;
      batch.swap(inbox_);
    }
    for (Event& e : batch) Apply(std::move(e));
    batch.clear();
  }
}

void StreamingOracle::Apply(Event e) {
  switch (e.kind) {
    case Event::Kind::kRecord:
      Arrive(std::move(e.record));
      return;
    case Event::Kind::kExpect:
      LAZYREP_CHECK(FindSlot(e.id) < 0)
          << TxnName(e.id) << " announced after it was first recorded";
      MaybeClose(NewNode(e.id, static_cast<int>(e.value)));
      return;
    case Event::Kind::kWithdraw: {
      const int64_t slot = FindSlot(e.id);
      LAZYREP_CHECK(slot >= 0 && !nodes_[slot].closed)
          << "record withdrawn from closed transaction " << TxnName(e.id);
      --nodes_[slot].expected;
      MaybeClose(static_cast<uint32_t>(slot));
      return;
    }
    case Event::Kind::kSnapshotBegin: {
      Site& s = SiteState(e.site);
      LAZYREP_CHECK_GE(e.value, s.pruned_to)
          << "site " << e.site << ": snapshot " << TxnName(e.id)
          << " at stamp " << e.value
          << " announced after its versions were pruned";
      s.open.push_back({e.id, e.value});
      return;
    }
    case Event::Kind::kAbort: {
      // An abandoned snapshot read stops holding versions back.
      std::vector<OpenSnapshot>& open = SiteState(e.site).open;
      auto it = std::find_if(
          open.begin(), open.end(),
          [&](const OpenSnapshot& s) { return s.id == e.id; });
      if (it != open.end()) open.erase(it);
      return;
    }
  }
}

StreamingOracle::Site& StreamingOracle::SiteState(SiteId site) {
  LAZYREP_CHECK_GE(site, 0);
  if (static_cast<size_t>(site) >= sites_.size()) sites_.resize(site + 1);
  return sites_[site];
}

void StreamingOracle::Arrive(Record record) {
  ++records_;
  Site& site = SiteState(record.site);
  if (record.snapshot) {
    site.snapshots.emplace(record.snapshot_stamp, std::move(record));
    ++buffered_;
  } else if (record.commit_seq == site.next_seq) {
    ++site.next_seq;
    Replay(site, record);
  } else {
    LAZYREP_CHECK_GT(record.commit_seq, site.next_seq)
        << "site " << record.site << ": commit seq recorded twice";
    const int64_t seq = record.commit_seq;
    LAZYREP_CHECK(site.pending.emplace(seq, std::move(record)).second)
        << "commit seq " << seq << " recorded twice";
    ++buffered_;
  }
  Release(site);
  MaybeResort();
}

void StreamingOracle::Release(Site& site) {
  while (!site.pending.empty() &&
         site.pending.begin()->first == site.next_seq) {
    ++site.next_seq;
    Replay(site, site.pending.begin()->second);
    site.pending.erase(site.pending.begin());
    --buffered_;
  }
  // A snapshot at stamp W sees the commits with seq < W: publication
  // precedes OnCommit, so it may arrive before some of them.
  while (!site.snapshots.empty() &&
         site.snapshots.begin()->first <= site.next_seq) {
    CheckSnapshot(site, site.snapshots.begin()->second);
    site.snapshots.erase(site.snapshots.begin());
    --buffered_;
  }
}

void StreamingOracle::Replay(Site& site, const Record& r) {
  if (!r.reads.empty() || !r.writes.empty()) {
    const int64_t found = FindSlot(r.origin);
    uint32_t slot;
    if (found >= 0) {
      slot = static_cast<uint32_t>(found);
    } else {
      // Only an unannounced transaction's origin record may introduce it;
      // anything else belongs to one already closed and deleted.
      LAZYREP_CHECK_EQ(r.site, r.origin.origin_site)
          << "site " << r.site << " recorded closed transaction "
          << TxnName(r.origin);
      slot = NewNode(r.origin, 1);
    }
    LAZYREP_CHECK(!nodes_[slot].closed)
        << "site " << r.site << " recorded closed transaction "
        << TxnName(r.origin);
    const Ref me = RefOf(slot);
    // The quiescence checker's per-item step: ww and rw edges into each
    // writer, wr edges into each reader. Collected first, then added once
    // each.
    std::vector<Ref>& from = scratch_;
    from.clear();
    for (ItemId i : r.writes) {
      ItemState& s = site.items[i];
      from.push_back(s.last_writer);
      from.insert(from.end(), s.readers_since.begin(), s.readers_since.end());
      s.readers_since.clear();
      if (s.readers_since.capacity() > 16) s.readers_since.shrink_to_fit();
      s.last_writer = me;
    }
    for (ItemId i : r.reads) {
      if (std::binary_search(r.writes.begin(), r.writes.end(), i)) continue;
      ItemState& s = site.items[i];
      from.push_back(s.last_writer);
      s.readers_since.push_back(me);
    }
    AddEdges(slot);
    ++nodes_[slot].seen;
    MaybeClose(slot);
  }
  for (const auto& [item, value] : r.reads_observed) {
    ++reads_.reads_checked;
    auto it = site.items.find(item);
    const Value expected =
        it == site.items.end() || !it->second.written
            ? 0
            : it->second.current.value;
    if (value != expected) {
      Fail(&reads_.violation, &reads_.consistent,
           StrPrintf("site %d: txn s%d#%lld read item %d = %lld, expected "
                     "%lld",
                     r.site, r.origin.origin_site,
                     static_cast<long long>(r.origin.seq), item,
                     static_cast<long long>(value),
                     static_cast<long long>(expected)));
    }
  }
  for (const auto& [item, value] : r.writes_final) {
    Install(site, site.items[item], r.commit_seq, value);
  }
}

int64_t StreamingOracle::Horizon(const Site& site) const {
  // A snapshot acquired later reads at a stamp no lower than the
  // released prefix: Database announces it under the lock that orders
  // publication, so every commit it cannot see reaches us after it.
  int64_t horizon = site.next_seq;
  for (const OpenSnapshot& s : site.open) {
    horizon = std::min(horizon, s.stamp);
  }
  return horizon;
}

void StreamingOracle::Install(Site& site, ItemState& item, int64_t seq,
                              Value value) {
  const int64_t horizon = Horizon(site);
  if (item.written && horizon <= seq) item.older.push_back(item.current);
  item.current = {seq, value};
  item.written = true;
  // Keep one version below the horizon: the one its oldest reader sees.
  size_t drop = 0;
  while (drop < item.older.size() &&
         (drop + 1 < item.older.size() ? item.older[drop + 1].seq
                                       : item.current.seq) < horizon) {
    ++drop;
  }
  item.older.erase(item.older.begin(), item.older.begin() + drop);
  if (item.older.empty() && item.older.capacity() > 0) {
    item.older.shrink_to_fit();
  }
  site.pruned_to = std::max(site.pruned_to, horizon);
}

void StreamingOracle::CheckSnapshot(Site& site, const Record& r) {
  const int64_t stamp = r.snapshot_stamp;
  LAZYREP_CHECK_GE(stamp, site.pruned_to)
      << "site " << r.site << ": snapshot " << TxnName(r.origin)
      << " at stamp " << stamp << " is below the pruned horizon";
  ++snapshots_.snapshots_checked;
  if (r.session_floor > stamp) {
    Fail(&snapshots_.violation, &snapshots_.consistent,
         StrPrintf("site %d: snapshot s%d#%lld at stamp %lld below its "
                   "session floor %lld (read-your-writes violated)",
                   r.site, r.origin.origin_site,
                   static_cast<long long>(r.origin.seq),
                   static_cast<long long>(stamp),
                   static_cast<long long>(r.session_floor)));
  }
  for (const auto& [item, observed] : r.reads_observed) {
    ++snapshots_.reads_checked;
    Value expected = 0;  // Initial value when no visible writer.
    auto it = site.items.find(item);
    if (it != site.items.end() && it->second.written) {
      const ItemState& s = it->second;
      if (s.current.seq < stamp) {
        expected = s.current.value;
      } else {
        for (auto v = s.older.rbegin(); v != s.older.rend(); ++v) {
          if (v->seq < stamp) {
            expected = v->value;
            break;
          }
        }
      }
    }
    if (observed != expected) {
      Fail(&snapshots_.violation, &snapshots_.consistent,
           StrPrintf("site %d: snapshot s%d#%lld at stamp %lld read item %d "
                     "= %lld, expected %lld",
                     r.site, r.origin.origin_site,
                     static_cast<long long>(r.origin.seq),
                     static_cast<long long>(stamp), item,
                     static_cast<long long>(observed),
                     static_cast<long long>(expected)));
    }
  }
  auto open = std::find_if(
      site.open.begin(), site.open.end(),
      [&](const OpenSnapshot& s) { return s.id == r.origin; });
  if (open != site.open.end()) site.open.erase(open);
}

uint32_t StreamingOracle::NewNode(const GlobalTxnId& id, int expected) {
  uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    tags_.push_back(0);
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Node& n = nodes_[slot];
  n.key = KeyOf(id);
  n.live = true;
  n.closed = false;
  LAZYREP_CHECK(expected >= 0 && expected < (1 << 15))
      << TxnName(id) << " expects " << expected << " records";
  n.expected = static_cast<int16_t>(expected);
  n.seen = 0;
  n.live_in = 0;
  tags_[slot] = n.gen;
  // New transactions have no edges yet: the end of the order is valid.
  n.pos = static_cast<uint32_t>(order_.size());
  order_.push_back(slot);
  InsertSlot(slot);
  ++node_count_;
  peak_live_ = std::max(peak_live_, live_);
  return slot;
}

int64_t StreamingOracle::FindSlot(const GlobalTxnId& id) const {
  if (table_.empty()) return -1;
  const uint64_t key = KeyOf(id);
  for (size_t i = Home(key);; i = (i + 1) & (table_.size() - 1)) {
    const uint32_t entry = table_[i];
    if (entry == 0) return -1;
    if (nodes_[entry - 1].key == key) return entry - 1;
  }
}

void StreamingOracle::InsertSlot(uint32_t slot) {
  if (2 * (live_ + 1) > table_.size()) {
    // Grow to keep the load at most one half.
    std::vector<uint32_t> old(std::max<size_t>(64, 2 * table_.size()), 0);
    old.swap(table_);
    for (uint32_t entry : old) {
      if (entry == 0) continue;
      size_t i = Home(nodes_[entry - 1].key);
      while (table_[i] != 0) i = (i + 1) & (table_.size() - 1);
      table_[i] = entry;
    }
  }
  size_t i = Home(nodes_[slot].key);
  while (table_[i] != 0) i = (i + 1) & (table_.size() - 1);
  table_[i] = slot + 1;
  ++live_;
}

void StreamingOracle::EraseSlot(uint32_t slot) {
  const size_t mask = table_.size() - 1;
  size_t i = Home(nodes_[slot].key);
  while (table_[i] != slot + 1) i = (i + 1) & mask;
  // Backward-shift deletion: pull later entries of the run into the gap
  // unless their home lies cyclically in (gap, entry].
  for (size_t j = (i + 1) & mask; table_[j] != 0; j = (j + 1) & mask) {
    const size_t home = Home(nodes_[table_[j] - 1].key);
    const bool stays = i <= j ? (i < home && home <= j)
                              : (i < home || home <= j);
    if (stays) continue;
    table_[i] = table_[j];
    i = j;
  }
  table_[i] = 0;
  --live_;
}

int64_t StreamingOracle::LiveSlot(Ref ref) const {
  const uint32_t slot = static_cast<uint32_t>(ref >> 32);
  return slot < tags_.size() && tags_[slot] == static_cast<uint32_t>(ref)
             ? static_cast<int64_t>(slot)
             : -1;
}

void StreamingOracle::AddEdges(uint32_t to) {
  // Every edge into `to` arises while one of its own records is replayed,
  // so its distinct predecessors (kept sorted) are the graph's distinct
  // in-edges.
  std::vector<Ref>& from = scratch_;
  std::sort(from.begin(), from.end());
  from.erase(std::unique(from.begin(), from.end()), from.end());
  EdgeList<Ref>& preds = nodes_[to].preds;
  const Ref me = RefOf(to);
  const size_t known = preds.size();
  size_t at = 0;  // Both lists ascend: resume each search where it ended.
  for (Ref ref : from) {
    if (ref == kNoRef || ref == me) continue;
    at = std::lower_bound(preds.begin() + at, preds.begin() + known, ref) -
         preds.begin();
    if (at != known && preds[at] == ref) continue;
    preds.push_back(ref);
    ++edge_count_;
    // A deleted predecessor has no in-edge and never will: no cycle can
    // run through it, so the graph leaves it out.
    const int64_t u = LiveSlot(ref);
    if (u >= 0) InsertGraphEdge(static_cast<uint32_t>(u), to);
  }
  std::inplace_merge(preds.begin(), preds.begin() + known, preds.end());
}

void StreamingOracle::InsertGraphEdge(uint32_t u, uint32_t v) {
  if (order_valid_ && nodes_[u].pos > nodes_[v].pos && !Reorder(u, v)) {
    return;  // It closes a cycle: noted, and left out.
  }
  nodes_[u].out.push_back(v);
  ++nodes_[v].live_in;
  ++live_edges_;
}

bool StreamingOracle::Reorder(uint32_t u, uint32_t v) {
  const uint32_t lower = nodes_[v].pos;
  const uint32_t upper = nodes_[u].pos;
  if (upper - lower > kReorderSpan) return Defer();
  // What v reaches inside the span must move after u; if that includes u,
  // the edge closes a cycle.
  std::vector<uint32_t> reached, stack;
  const uint32_t mark = ++epoch_;
  nodes_[v].mark = mark;
  stack.push_back(v);
  while (!stack.empty()) {
    const uint32_t x = stack.back();
    stack.pop_back();
    reached.push_back(x);
    for (uint32_t y : nodes_[x].out) {
      if (y == u) {
        nodes_[u].parent = x;
        NoteCycle(u, v);
        return false;
      }
      if (nodes_[y].mark != mark && nodes_[y].pos < upper) {
        nodes_[y].mark = mark;
        nodes_[y].parent = x;
        stack.push_back(y);
      }
    }
  }
  // The span's other nodes keep their relative order and go first (none
  // of them is reached, so none follows a reached one); the reached ones
  // follow in their old relative order. Holes collect at the end.
  std::vector<uint32_t> span;
  span.reserve(upper - lower + 1);
  for (uint32_t p = lower; p <= upper; ++p) {
    const uint32_t x = order_[p];
    if (x != kHole && nodes_[x].mark != mark) span.push_back(x);
  }
  for (uint32_t p = lower; p <= upper; ++p) {
    const uint32_t x = order_[p];
    if (x != kHole && nodes_[x].mark == mark) span.push_back(x);
  }
  uint32_t p = lower;
  for (uint32_t x : span) {
    order_[p] = x;
    nodes_[x].pos = p++;
  }
  for (; p <= upper; ++p) order_[p] = kHole;
  return true;
}

bool StreamingOracle::Defer() {
  order_valid_ = false;
  records_at_defer_ = records_;
  return true;
}

void StreamingOracle::MaybeResort() {
  if (order_valid_) {
    // Deletions leave holes: compact once they outnumber the live.
    if (order_.size() > kMinBatch && order_.size() > 2 * live_) {
      Resort();
    }
    return;
  }
  if (records_ - records_at_defer_ <
      static_cast<int64_t>(std::max(kMinBatch, live_))) {
    return;
  }
  Resort();
}

void StreamingOracle::Resort() {
  // Depth-first over the live graph: reverse postorder is a topological
  // order. An edge back into the search path closes a cycle; like an
  // edge Reorder refuses, it is noted and taken out of the graph.
  const uint32_t gray = ++epoch_;
  const uint32_t black = ++epoch_;
  struct Frame {
    uint32_t node;
    size_t next;
  };
  std::vector<Frame> stack;
  std::vector<uint32_t> postorder;
  std::vector<uint32_t> unblocked;  // Heads of edges taken out.
  postorder.reserve(live_);
  for (uint32_t root : order_) {
    if (root == kHole || nodes_[root].mark == gray ||
        nodes_[root].mark == black) {
      continue;
    }
    nodes_[root].mark = gray;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      EdgeList<uint32_t>& out = nodes_[f.node].out;
      if (f.next == out.size()) {
        nodes_[f.node].mark = black;
        postorder.push_back(f.node);
        stack.pop_back();
        continue;
      }
      const uint32_t y = out[f.next];
      if (nodes_[y].mark == gray) {
        // Witness: the path from y down to f.node, closed by this edge.
        const uint32_t u = f.node;
        for (size_t k = stack.size() - 1; stack[k].node != y; --k) {
          nodes_[stack[k].node].parent = stack[k - 1].node;
        }
        NoteCycle(u, y);
        out[f.next] = out.back();
        out.pop_back();
        --nodes_[y].live_in;
        --live_edges_;
        unblocked.push_back(y);
        continue;
      }
      ++f.next;
      if (nodes_[y].mark != black) {
        nodes_[y].mark = gray;
        stack.push_back({y, 0});
      }
    }
  }
  ++resorts_;
  order_.assign(postorder.rbegin(), postorder.rend());
  for (uint32_t p = 0; p < order_.size(); ++p) nodes_[order_[p]].pos = p;
  order_valid_ = true;
  for (uint32_t y : unblocked) {
    if (nodes_[y].live && nodes_[y].closed && nodes_[y].live_in == 0) {
      Delete(y);
    }
  }
}

void StreamingOracle::NoteCycle(uint32_t u, uint32_t v) {
  if (!serial_.serializable) return;  // The first cycle is the witness.
  // The parents lead from u back to v; the edge u -> v closes the loop.
  // Listed from u, ending where it started.
  std::vector<GlobalTxnId> path;
  for (uint32_t x = u;; x = nodes_[x].parent) {
    path.push_back(IdOf(nodes_[x].key));
    if (x == v) break;
  }
  path.push_back(IdOf(nodes_[u].key));
  std::reverse(path.begin(), path.end());
  serial_.serializable = false;
  serial_.cycle = std::move(path);
  detection_.record_index = records_ - 1;
  detection_.time = now_ ? now_() : 0;
}

void StreamingOracle::MaybeClose(uint32_t slot) {
  Node& n = nodes_[slot];
  if (n.closed || n.seen < n.expected) return;
  n.closed = true;
  if (close_hook_) close_hook_(IdOf(n.key), n.expected);
  // No edge can enter it any more.
  n.preds.Release();
  if (n.live_in == 0) Delete(slot);
}

void StreamingOracle::Delete(uint32_t slot) {
  std::vector<uint32_t> work{slot};
  while (!work.empty()) {
    const uint32_t s = work.back();
    work.pop_back();
    for (uint32_t w : nodes_[s].out) {
      --live_edges_;
      if (--nodes_[w].live_in == 0 && nodes_[w].closed) work.push_back(w);
    }
    Node& n = nodes_[s];
    EraseSlot(s);
    order_[n.pos] = kHole;
    n.live = false;
    if (++n.gen == kDeadTag) n.gen = 0;
    tags_[s] = kDeadTag;
    n.preds.Release();
    n.out.Release();
    free_.push_back(s);
  }
}

void StreamingOracle::Fail(std::string* violation, bool* consistent,
                           std::string message) {
  if (!*consistent) return;
  *consistent = false;
  *violation = std::move(message);
}

SerializabilityVerdict StreamingOracle::Serializability() {
  std::lock_guard<std::mutex> lock(mu_);
  Settle();
  SerializabilityVerdict verdict = serial_;
  verdict.nodes = node_count_;
  verdict.edges = edge_count_;
  return verdict;
}

ReadConsistencyVerdict StreamingOracle::ReadConsistency() {
  std::lock_guard<std::mutex> lock(mu_);
  Drain();
  return reads_;
}

SnapshotConsistencyVerdict StreamingOracle::SnapshotConsistency() {
  std::lock_guard<std::mutex> lock(mu_);
  Drain();
  return snapshots_;
}

StreamingOracle::Detection StreamingOracle::detection() {
  std::lock_guard<std::mutex> lock(mu_);
  Drain();
  return detection_;
}

StreamingOracle::Stats StreamingOracle::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  Drain();
  Stats out;
  out.records = records_;
  out.live_txns = live_;
  out.peak_live_txns = peak_live_;
  out.live_edges = live_edges_;
  out.buffered_records = buffered_;
  out.resorts = resorts_;
  // Hash tables: a bucket pointer each, and a node of key, value and
  // next pointer per entry.
  auto table_bytes = [](const auto& table, size_t entry) {
    return table.bucket_count() * sizeof(void*) +
           table.size() * (entry + sizeof(void*));
  };
  size_t bytes = nodes_.size() * sizeof(Node) +
                 (tags_.capacity() + free_.capacity() + order_.capacity() +
                  table_.capacity()) *
                     sizeof(uint32_t);
  for (const Node& n : nodes_) {
    bytes += n.preds.capacity() * sizeof(Ref) +
             n.out.capacity() * sizeof(uint32_t);
  }
  bytes += sites_.capacity() * sizeof(Site);
  for (const Site& site : sites_) {
    bytes += table_bytes(site.items, sizeof(ItemId) + sizeof(ItemState)) +
             site.open.capacity() * sizeof(OpenSnapshot);
    for (const auto& [item, s] : site.items) {
      bytes += s.readers_since.capacity() * sizeof(Ref) +
               s.older.capacity() * sizeof(Version);
    }
    auto record_bytes = [](const Record& r) {
      return sizeof(Record) + 4 * sizeof(void*) + r.reads.block_bytes() +
             r.writes.block_bytes() + r.reads_observed.block_bytes() +
             r.writes_final.block_bytes();
    };
    for (const auto& [seq, r] : site.pending) bytes += record_bytes(r);
    for (const auto& [stamp, r] : site.snapshots) bytes += record_bytes(r);
  }
  out.heap_bytes = bytes;
  return out;
}

void StreamingOracle::CheckDrained() {
  std::lock_guard<std::mutex> lock(mu_);
  Settle();
  for (size_t s = 0; s < sites_.size(); ++s) {
    LAZYREP_CHECK(sites_[s].pending.empty() && sites_[s].snapshots.empty())
        << "site " << s << " still buffers " << sites_[s].pending.size()
        << " commits and " << sites_[s].snapshots.size()
        << " snapshots at quiescence";
  }
  for (uint32_t entry : table_) {
    if (entry == 0) continue;
    const Node& n = nodes_[entry - 1];
    LAZYREP_CHECK(false) << TxnName(IdOf(n.key))
                         << " still live at quiescence: "
                         << n.seen << " of " << n.expected
                         << " records seen, closed=" << n.closed << ", "
                         << n.live_in << " live in-edges";
  }
}

}  // namespace lazyrep::core
