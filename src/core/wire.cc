#include "core/wire.h"

#include <limits>

namespace lazyrep::core {
namespace {

constexpr uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
constexpr int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Sink that appends real bytes.
struct ByteSink {
  std::vector<uint8_t>* out;
  void Byte(uint8_t b) { out->push_back(b); }
  void Bytes(const uint8_t* p, size_t n) { out->insert(out->end(), p, p + n); }
  void Varint(uint64_t v) { Wire::PutVarint(out, v); }
  void Signed(int64_t v) { Wire::PutSigned(out, v); }
};

/// Sink that only counts.
struct CountSink {
  size_t n = 0;
  void Byte(uint8_t) { ++n; }
  void Bytes(const uint8_t*, size_t count) { n += count; }
  void Varint(uint64_t v) { n += Wire::VarintSize(v); }
  void Signed(int64_t v) { n += Wire::SignedSize(v); }
};

template <typename Sink>
void PutTxnId(Sink* s, const GlobalTxnId& id) {
  s->Signed(id.origin_site);
  s->Signed(id.seq);
}

/// A written value travels as its wrapping difference from
/// `ProvenanceValue(origin, 0)`, where `origin` heads the same message:
/// a value the program writes is then its op index (one byte), and any
/// other int64 still round-trips exactly (up to ten bytes).
int64_t ValueDelta(Value value, Value base) {
  return static_cast<int64_t>(static_cast<uint64_t>(value) -
                              static_cast<uint64_t>(base));
}
Value ValueFromDelta(int64_t delta, Value base) {
  return static_cast<Value>(static_cast<uint64_t>(base) +
                            static_cast<uint64_t>(delta));
}

template <typename Sink>
void PutWrites(Sink* s, const GlobalTxnId& origin,
               const std::vector<WriteRecord>& writes) {
  s->Varint(writes.size());
  const Value base = ProvenanceValue(origin, 0);
  for (const WriteRecord& w : writes) {
    s->Signed(w.item);
    s->Signed(ValueDelta(w.value, base));
  }
}

template <typename Sink>
void PutTimestamp(Sink* s, const Timestamp& ts) {
  s->Signed(ts.epoch());
  s->Varint(ts.tuples().size());
  for (const TsTuple& t : ts.tuples()) {
    s->Signed(t.site);
    s->Signed(t.lts);
  }
}

template <typename Sink>
struct EncodeVisitor {
  Sink* s;

  void operator()(const SecondaryUpdate& u) const {
    PutTxnId(s, u.origin);
    // Optional fields cost zero bytes when absent. Bit 16: an origin site
    // follows (it repeats the txn id's except on DAG(T) dummies). Bit 8:
    // an origin commit time follows (only the protocols whose appliers
    // read it set it). Bit 4: an origin commit stamp follows (MVCC levels
    // only). Bit 32: a timestamp follows (only DAG(T) sets one). Bit 64:
    // the count of leading tuples the timestamp shares with its channel's
    // previous one follows (DAG(T) deltas).
    const bool site_differs = u.origin_site != u.origin.origin_site;
    const bool has_ts = u.ts.epoch() != 0 || !u.ts.tuples().empty();
    s->Byte(static_cast<uint8_t>((u.is_dummy ? 1 : 0) |
                                 (u.is_special ? 2 : 0) |
                                 (u.origin_commit_seq != 0 ? 4 : 0) |
                                 (u.origin_commit_time != 0 ? 8 : 0) |
                                 (site_differs ? 16 : 0) |
                                 (has_ts ? 32 : 0) |
                                 (u.ts_shared != 0 ? 64 : 0)));
    if (site_differs) s->Signed(u.origin_site);
    if (u.origin_commit_time != 0) s->Signed(u.origin_commit_time);
    if (u.origin_commit_seq != 0) s->Signed(u.origin_commit_seq);
    if (u.ts_shared != 0) s->Varint(u.ts_shared);
    if (has_ts) PutTimestamp(s, u.ts);
    PutWrites(s, u.origin, u.writes);
  }
  void operator()(const BackedgeStart& m) const {
    PutTxnId(s, m.origin);
    s->Signed(m.origin_site);
    s->Signed(m.primary_done_time);
    PutWrites(s, m.origin, m.writes);
  }
  void operator()(const BackedgeAbort& m) const { PutTxnId(s, m.origin); }
  void operator()(const TpcPrepare& m) const {
    PutTxnId(s, m.origin);
    s->Signed(m.coordinator);
    s->Byte(m.carries_writes ? 1 : 0);
    PutWrites(s, m.origin, m.writes);
  }
  void operator()(const TpcVote& m) const {
    PutTxnId(s, m.origin);
    s->Byte(m.yes ? 1 : 0);
  }
  void operator()(const TpcDecision& m) const {
    PutTxnId(s, m.origin);
    s->Byte(m.commit ? 1 : 0);
    s->Signed(m.origin_commit_time);
  }
  void operator()(const TpcAck& m) const { PutTxnId(s, m.origin); }
  void operator()(const PslLockRequest& m) const {
    PutTxnId(s, m.origin);
    s->Signed(m.item);
    s->Varint(m.request_id);
  }
  void operator()(const PslLockResponse& m) const {
    PutTxnId(s, m.origin);
    s->Signed(m.item);
    s->Varint(m.request_id);
    s->Byte(m.granted ? 1 : 0);
    s->Signed(m.value);
  }
  void operator()(const PslRelease& m) const {
    PutTxnId(s, m.origin);
    s->Byte(m.committed ? 1 : 0);
  }
  void operator()(const SecondaryBatch& m) const {
    s->Varint(m.updates.size());
    for (const SecondaryUpdate& u : m.updates) (*this)(u);
  }
  // A transport frame's inner bytes run to the end of the frame, so they
  // need no length prefix.
  void operator()(const ReliableData& m) const {
    PutFrameHeader(m.seq, m.piggyback_ack);
    s->Bytes(m.inner.data(), m.inner.size());
  }
  void operator()(const ChannelAck& m) const { s->Varint(m.cum_ack); }
  void operator()(const ReliableBatch& m) const {
    PutFrameHeader(m.seq, m.piggyback_ack);
    s->Varint(m.count);
    s->Bytes(m.inner.data(), m.inner.size());
  }
  /// `seq << 1 | has_ack`, then the piggybacked ack only when one rides
  /// the frame (0 means none).
  void PutFrameHeader(uint64_t seq, uint64_t piggyback_ack) const {
    LAZYREP_CHECK_LT(seq, uint64_t{1} << 63)
        << "frame seq " << seq << " leaves no room for the ack flag";
    s->Varint(seq << 1 | (piggyback_ack != 0 ? 1 : 0));
    if (piggyback_ack != 0) s->Varint(piggyback_ack);
  }
};

// ---- decoding helpers -----------------------------------------------

struct Reader {
  const std::vector<uint8_t>& in;
  size_t pos = 0;
  Status status;

  uint8_t Byte() {
    if (!status.ok()) return 0;
    if (pos >= in.size()) {
      status = Status::InvalidArgument("truncated message");
      return 0;
    }
    return in[pos++];
  }
  uint64_t Varint() {
    if (!status.ok()) return 0;
    Result<uint64_t> r = Wire::GetVarint(in, &pos);
    if (!r.ok()) {
      status = r.status();
      return 0;
    }
    return *r;
  }
  int64_t Signed() { return UnZigZag(Varint()); }

  /// A transport frame's `seq << 1 | has_ack` and, when flagged, its
  /// piggybacked ack (never 0: the encoder would not flag it).
  void FrameHeader(uint64_t* seq, uint64_t* piggyback_ack) {
    const uint64_t head = Varint();
    *seq = head >> 1;
    if ((head & 1) == 0) return;
    *piggyback_ack = Varint();
    if (status.ok() && *piggyback_ack == 0) {
      status = Status::InvalidArgument("flagged piggyback ack is 0");
    }
  }
  /// Copies every byte after the cursor into `*out` (a frame's inner
  /// run, which ends with the frame).
  void Rest(std::vector<uint8_t>* out) {
    if (!status.ok()) return;
    out->assign(in.begin() + static_cast<ptrdiff_t>(pos), in.end());
    pos = in.size();
  }

  GlobalTxnId TxnId() {
    GlobalTxnId id;
    id.origin_site = static_cast<SiteId>(Signed());
    id.seq = Signed();
    return id;
  }
  /// Count bound for a hostile length prefix: `min_size`-byte-minimum
  /// elements can't outnumber the bytes left after the cursor, so a bad
  /// count is rejected before any `reserve`.
  uint64_t MaxCount(size_t min_size) const {
    return (in.size() - pos) / min_size;
  }
  std::vector<WriteRecord> Writes(const GlobalTxnId& origin) {
    uint64_t n = Varint();
    // Each write is >= 2 bytes (two varints).
    if (!status.ok() || n > MaxCount(2)) {
      if (status.ok()) status = Status::InvalidArgument("bad write count");
      return {};
    }
    std::vector<WriteRecord> out;
    out.reserve(n);
    const Value base = ProvenanceValue(origin, 0);
    for (uint64_t i = 0; i < n && status.ok(); ++i) {
      WriteRecord w;
      w.item = static_cast<ItemId>(Signed());
      w.value = ValueFromDelta(Signed(), base);
      out.push_back(w);
    }
    return out;
  }
  Timestamp Ts() {
    int64_t epoch = Signed();
    uint64_t n = Varint();
    // Each tuple is >= 2 bytes (two varints).
    if (!status.ok() || n > MaxCount(2)) {
      if (status.ok()) status = Status::InvalidArgument("bad tuple count");
      return {};
    }
    Timestamp ts;
    SiteId prev = kInvalidSite;
    for (uint64_t i = 0; i < n && status.ok(); ++i) {
      SiteId site = static_cast<SiteId>(Signed());
      int64_t lts = Signed();
      if (!status.ok()) break;
      if (prev != kInvalidSite && site <= prev) {
        status = Status::InvalidArgument("timestamp tuples out of order");
        break;
      }
      prev = site;
      ts = ts.ExtendedWith(site, lts, epoch);
    }
    ts.set_epoch(epoch);
    return ts;
  }
  /// The shared tuples are not on the wire, so no byte count bounds
  /// them; a timestamp holds at most one tuple per site, so a count
  /// beyond the site id range is rejected.
  uint32_t SharedCount() {
    uint64_t n = Varint();
    if (status.ok() &&
        n > static_cast<uint64_t>(std::numeric_limits<SiteId>::max())) {
      status = Status::InvalidArgument("bad shared tuple count");
      return 0;
    }
    return static_cast<uint32_t>(n);
  }
  SecondaryUpdate Update() {
    SecondaryUpdate u;
    u.origin = TxnId();
    uint8_t flags = Byte();
    u.is_dummy = (flags & 1) != 0;
    u.is_special = (flags & 2) != 0;
    u.origin_site = (flags & 16) != 0 ? static_cast<SiteId>(Signed())
                                      : u.origin.origin_site;
    if ((flags & 8) != 0) u.origin_commit_time = Signed();
    if ((flags & 4) != 0) u.origin_commit_seq = Signed();
    if ((flags & 64) != 0) u.ts_shared = SharedCount();
    if ((flags & 32) != 0) u.ts = Ts();
    u.writes = Writes(u.origin);
    return u;
  }
};

}  // namespace

void Wire::PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void Wire::PutSigned(std::vector<uint8_t>* out, int64_t value) {
  PutVarint(out, ZigZag(value));
}

Result<uint64_t> Wire::GetVarint(const std::vector<uint8_t>& in,
                                 size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < in.size() && shift < 64) {
    uint8_t byte = in[(*pos)++];
    // The tenth byte holds bit 63 alone; anything more is lost bits.
    if (shift == 63 && byte > 1) {
      return Status::InvalidArgument("varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::InvalidArgument("truncated varint");
}

Result<int64_t> Wire::GetSigned(const std::vector<uint8_t>& in,
                                size_t* pos) {
  LAZYREP_ASSIGN_OR_RETURN(uint64_t raw, GetVarint(in, pos));
  return UnZigZag(raw);
}

size_t Wire::VarintSize(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    ++n;
    value >>= 7;
  }
  return n;
}

size_t Wire::SignedSize(int64_t value) { return VarintSize(ZigZag(value)); }

std::vector<uint8_t> Wire::Encode(const ProtocolMessage& message) {
  std::vector<uint8_t> out;
  out.reserve(EncodedSize(message));
  EncodeTo(message, &out);
  return out;
}

void Wire::EncodeTo(const ProtocolMessage& message,
                    std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(message.index()));
  ByteSink sink{out};
  std::visit(EncodeVisitor<ByteSink>{&sink}, message);
}

size_t Wire::EncodedSize(const ProtocolMessage& message) {
  CountSink sink;
  std::visit(EncodeVisitor<CountSink>{&sink}, message);
  return sink.n + 1;  // Kind tag.
}

Result<ProtocolMessage> Wire::Decode(const std::vector<uint8_t>& bytes) {
  if (bytes.empty()) return Status::InvalidArgument("empty message");
  Reader r{bytes, 1, Status::OK()};
  ProtocolMessage message;
  switch (bytes[0]) {
    case 0:
      message = r.Update();
      break;
    case 1: {
      BackedgeStart m;
      m.origin = r.TxnId();
      m.origin_site = static_cast<SiteId>(r.Signed());
      m.primary_done_time = r.Signed();
      m.writes = r.Writes(m.origin);
      message = std::move(m);
      break;
    }
    case 2: {
      BackedgeAbort m;
      m.origin = r.TxnId();
      message = m;
      break;
    }
    case 3: {
      TpcPrepare m;
      m.origin = r.TxnId();
      m.coordinator = static_cast<SiteId>(r.Signed());
      m.carries_writes = r.Byte() != 0;
      m.writes = r.Writes(m.origin);
      message = std::move(m);
      break;
    }
    case 4: {
      TpcVote m;
      m.origin = r.TxnId();
      m.yes = r.Byte() != 0;
      message = m;
      break;
    }
    case 5: {
      TpcDecision m;
      m.origin = r.TxnId();
      m.commit = r.Byte() != 0;
      m.origin_commit_time = r.Signed();
      message = m;
      break;
    }
    case 6: {
      TpcAck m;
      m.origin = r.TxnId();
      message = m;
      break;
    }
    case 7: {
      PslLockRequest m;
      m.origin = r.TxnId();
      m.item = static_cast<ItemId>(r.Signed());
      m.request_id = r.Varint();
      message = m;
      break;
    }
    case 8: {
      PslLockResponse m;
      m.origin = r.TxnId();
      m.item = static_cast<ItemId>(r.Signed());
      m.request_id = r.Varint();
      m.granted = r.Byte() != 0;
      m.value = r.Signed();
      message = m;
      break;
    }
    case 9: {
      PslRelease m;
      m.origin = r.TxnId();
      m.committed = r.Byte() != 0;
      message = m;
      break;
    }
    case 10: {
      SecondaryBatch batch;
      uint64_t n = r.Varint();
      // A SecondaryUpdate encodes to >= 4 bytes (the txn id's two
      // varints, the flag byte and the write count, each at least one
      // byte).
      if (r.status.ok() && n > r.MaxCount(4)) {
        r.status = Status::InvalidArgument("bad batch count");
      }
      for (uint64_t i = 0; i < n && r.status.ok(); ++i) {
        batch.updates.push_back(r.Update());
      }
      message = std::move(batch);
      break;
    }
    case 11: {
      ReliableData m;
      r.FrameHeader(&m.seq, &m.piggyback_ack);
      if (r.status.ok() && r.pos == bytes.size()) {
        r.status = Status::InvalidArgument("empty frame inner");
      }
      // Bulk copy: `inner` is an opaque byte run (the wrapped message's
      // encoding), decoded on every reliable delivery.
      r.Rest(&m.inner);
      message = std::move(m);
      break;
    }
    case 12: {
      ChannelAck m;
      m.cum_ack = r.Varint();
      message = m;
      break;
    }
    case 13: {
      ReliableBatch m;
      r.FrameHeader(&m.seq, &m.piggyback_ack);
      uint64_t count = r.Varint();
      // Each inner record is >= 2 bytes (length varint + one payload
      // byte), and the records are all that is left.
      if (r.status.ok() && count > r.MaxCount(2)) {
        r.status = Status::InvalidArgument("bad batch frame");
      }
      m.count = static_cast<uint32_t>(count);
      r.Rest(&m.inner);
      message = std::move(m);
      break;
    }
    default:
      return Status::InvalidArgument("unknown message kind tag");
  }
  LAZYREP_RETURN_IF_ERROR(r.status);
  if (r.pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes after message");
  }
  return message;
}

}  // namespace lazyrep::core
