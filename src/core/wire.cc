#include "core/wire.h"

#include <limits>
#include <type_traits>

namespace lazyrep::core {
namespace {

// The kind byte (core/wire.h): with bit 7 set it heads a SecondaryUpdate
// and bits 0-6 are the update's flags; otherwise bits 0-5 are the
// variant index and bit 6 is the kind's one boolean.
constexpr uint8_t kUpdateKind = 0x80;
constexpr uint8_t kFlagBit = 0x40;
constexpr uint8_t kIndexMask = 0x3F;

// SecondaryUpdate flags: each marks a field that follows only when set.
constexpr uint8_t kDummy = 1;
constexpr uint8_t kSpecial = 2;
constexpr uint8_t kCommitSeq = 4;
constexpr uint8_t kCommitTime = 8;
constexpr uint8_t kSiteDiffers = 16;
constexpr uint8_t kHasTs = 32;
constexpr uint8_t kTsShared = 64;

template <typename T, typename Variant>
struct VariantIndex;
template <typename T, typename... Ts>
struct VariantIndex<T, std::variant<Ts...>> {
  static constexpr uint8_t value = [] {
    constexpr bool match[] = {std::is_same_v<T, Ts>...};
    uint8_t i = 0;
    while (!match[i]) ++i;
    return i;
  }();
};
/// `T`'s variant index in `ProtocolMessage`: its kind byte's bits 0-5.
template <typename T>
constexpr uint8_t kKind = VariantIndex<T, ProtocolMessage>::value;
static_assert(std::variant_size_v<ProtocolMessage> <= kIndexMask + 1);

/// The kinds whose one boolean rides bit 6 of the kind byte (a frame's
/// is whether a piggybacked ack follows).
constexpr bool KindHasFlag(uint8_t index) {
  return index == kKind<TpcVote> || index == kKind<TpcDecision> ||
         index == kKind<PslLockResponse> || index == kKind<PslRelease> ||
         index == kKind<ReliableData> || index == kKind<ReliableBatch>;
}

constexpr uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
constexpr int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}
/// Ids are never below -1, so they travel as `uint64(v) + 1`: -1 and
/// every id below 127 cost one byte, and any int64 still round-trips.
constexpr uint64_t IdCode(int64_t v) { return static_cast<uint64_t>(v) + 1; }

/// Sink that appends real bytes.
struct ByteSink {
  std::vector<uint8_t>* out;
  void Byte(uint8_t b) { out->push_back(b); }
  void Bytes(const uint8_t* p, size_t n) { out->insert(out->end(), p, p + n); }
  void Varint(uint64_t v) { Wire::PutVarint(out, v); }
  void Signed(int64_t v) { Wire::PutSigned(out, v); }
  void Id(int64_t v) { Wire::PutVarint(out, IdCode(v)); }
};

/// Sink that only counts.
struct CountSink {
  size_t n = 0;
  void Byte(uint8_t) { ++n; }
  void Bytes(const uint8_t*, size_t count) { n += count; }
  void Varint(uint64_t v) { n += Wire::VarintSize(v); }
  void Signed(int64_t v) { n += Wire::SignedSize(v); }
  void Id(int64_t v) { n += Wire::VarintSize(IdCode(v)); }
};

template <typename Sink>
void PutTxnId(Sink* s, const GlobalTxnId& id) {
  s->Id(id.origin_site);
  s->Id(id.seq);
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
    s->Id(w.item);
    s->Signed(ValueDelta(w.value, base));
  }
}

template <typename Sink>
void PutTimestamp(Sink* s, const Timestamp& ts) {
  s->Signed(ts.epoch());
  s->Varint(ts.tuples().size());
  for (const TsTuple& t : ts.tuples()) {
    s->Id(t.site);
    s->Id(t.lts);
  }
}

/// An update's flags. Optional fields cost zero bytes when absent: the
/// origin site follows only when it differs from the txn id's (DAG(T)
/// dummies), the commit time only where NaiveLazy's applier reads it,
/// the commit stamp only under MVCC levels, the timestamp and its
/// shared-prefix count only under DAG(T).
uint8_t UpdateFlags(const SecondaryUpdate& u) {
  const bool has_ts = u.ts.epoch() != 0 || !u.ts.tuples().empty();
  return static_cast<uint8_t>(
      (u.is_dummy ? kDummy : 0) | (u.is_special ? kSpecial : 0) |
      (u.origin_commit_seq != 0 ? kCommitSeq : 0) |
      (u.origin_commit_time != 0 ? kCommitTime : 0) |
      (u.origin_site != u.origin.origin_site ? kSiteDiffers : 0) |
      (has_ts ? kHasTs : 0) | (u.ts_shared != 0 ? kTsShared : 0));
}

/// Everything of an update after its flags.
template <typename Sink>
void PutUpdateBody(Sink* s, const SecondaryUpdate& u, uint8_t flags) {
  PutTxnId(s, u.origin);
  if ((flags & kSiteDiffers) != 0) s->Id(u.origin_site);
  if ((flags & kCommitTime) != 0) s->Signed(u.origin_commit_time);
  if ((flags & kCommitSeq) != 0) s->Id(u.origin_commit_seq);
  if ((flags & kTsShared) != 0) s->Varint(u.ts_shared);
  if ((flags & kHasTs) != 0) PutTimestamp(s, u.ts);
  PutWrites(s, u.origin, u.writes);
}

template <typename Sink>
struct EncodeVisitor {
  Sink* s;

  template <typename T>
  void Kind(const T&, bool flag = false) const {
    s->Byte(static_cast<uint8_t>(kKind<T> | (flag ? kFlagBit : 0)));
  }

  void operator()(const SecondaryUpdate& u) const {
    const uint8_t flags = UpdateFlags(u);
    s->Byte(kUpdateKind | flags);
    PutUpdateBody(s, u, flags);
  }
  void operator()(const BackedgeStart& m) const {
    Kind(m);
    PutTxnId(s, m.origin);
    s->Id(m.origin_site);
    PutWrites(s, m.origin, m.writes);
  }
  void operator()(const BackedgeAbort& m) const {
    Kind(m);
    PutTxnId(s, m.origin);
  }
  void operator()(const TpcPrepare& m) const {
    Kind(m);
    PutTxnId(s, m.origin);
    PutWrites(s, m.origin, m.writes);
  }
  void operator()(const TpcVote& m) const {
    Kind(m, m.yes);
    PutTxnId(s, m.origin);
  }
  void operator()(const TpcDecision& m) const {
    Kind(m, m.commit);
    PutTxnId(s, m.origin);
  }
  void operator()(const TpcAck& m) const {
    Kind(m);
    PutTxnId(s, m.origin);
  }
  void operator()(const PslLockRequest& m) const {
    Kind(m);
    PutTxnId(s, m.origin);
    s->Id(m.item);
    s->Varint(m.request_id);
  }
  void operator()(const PslLockResponse& m) const {
    Kind(m, m.granted);
    PutTxnId(s, m.origin);
    s->Id(m.item);
    s->Varint(m.request_id);
    s->Signed(m.value);
  }
  void operator()(const PslRelease& m) const {
    Kind(m, m.committed);
    PutTxnId(s, m.origin);
  }
  /// Each batched update spends a flag byte of its own (bit 7 clear).
  void operator()(const SecondaryBatch& m) const {
    Kind(m);
    s->Varint(m.updates.size());
    for (const SecondaryUpdate& u : m.updates) {
      const uint8_t flags = UpdateFlags(u);
      s->Byte(flags);
      PutUpdateBody(s, u, flags);
    }
  }
  // A transport frame's seq, then its piggybacked ack only when one rides
  // (bit 6). The inner bytes run to the end of the frame, so they need
  // no length prefix.
  void operator()(const ReliableData& m) const {
    Kind(m, m.piggyback_ack != 0);
    PutFrameHeader(m.seq, m.piggyback_ack);
    s->Bytes(m.inner.data(), m.inner.size());
  }
  void operator()(const ChannelAck& m) const {
    Kind(m);
    s->Varint(m.cum_ack);
  }
  void operator()(const ReliableBatch& m) const {
    Kind(m, m.piggyback_ack != 0);
    PutFrameHeader(m.seq, m.piggyback_ack);
    s->Varint(m.count);
    s->Bytes(m.inner.data(), m.inner.size());
  }
  void PutFrameHeader(uint64_t seq, uint64_t piggyback_ack) const {
    s->Varint(seq);
    if (piggyback_ack != 0) s->Varint(piggyback_ack);
  }
};

// ---- decoding helpers -----------------------------------------------

/// Every decoded message re-encodes to the bytes it came from: a field
/// whose flag is set must not hold the value the flag's absence means,
/// and an id must fit its type.
struct Reader {
  const std::vector<uint8_t>& in;
  size_t pos = 0;
  Status status;

  /// Fails the decode with `why` unless `ok` (or it already failed).
  void Require(bool ok, const char* why) {
    if (status.ok() && !ok) status = Status::InvalidArgument(why);
  }
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
  int64_t Id() { return static_cast<int64_t>(Varint() - 1); }
  /// A site or item id: an `int32_t` that is never below -1.
  int32_t Id32(const char* why) {
    const int64_t v = Id();
    Require(v >= -1 && v <= std::numeric_limits<int32_t>::max(), why);
    return status.ok() ? static_cast<int32_t>(v) : -1;
  }
  SiteId Site() { return Id32("site id out of range"); }
  ItemId Item() { return Id32("item id out of range"); }

  /// A transport frame's seq and, when bit 6 flagged one, its
  /// piggybacked ack (never 0: the encoder would not flag it).
  void FrameHeader(bool has_ack, uint64_t* seq, uint64_t* piggyback_ack) {
    *seq = Varint();
    if (!has_ack) return;
    *piggyback_ack = Varint();
    Require(*piggyback_ack != 0, "flagged piggyback ack is 0");
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
    id.origin_site = Site();
    id.seq = Id();
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
    Require(n <= MaxCount(2), "bad write count");
    if (!status.ok()) return {};
    std::vector<WriteRecord> out;
    out.reserve(n);
    const Value base = ProvenanceValue(origin, 0);
    for (uint64_t i = 0; i < n && status.ok(); ++i) {
      WriteRecord w;
      w.item = Item();
      w.value = ValueFromDelta(Signed(), base);
      out.push_back(w);
    }
    return out;
  }
  Timestamp Ts() {
    int64_t epoch = Signed();
    uint64_t n = Varint();
    // Each tuple is >= 2 bytes (two varints).
    Require(n <= MaxCount(2), "bad tuple count");
    Timestamp ts;
    for (uint64_t i = 0; i < n && status.ok(); ++i) {
      SiteId site = Site();
      int64_t lts = Id();
      Require(i == 0 || site > ts.tuples()[i - 1].site,
              "timestamp tuples out of order");
      if (!status.ok()) break;
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
    Require(n <= static_cast<uint64_t>(std::numeric_limits<SiteId>::max()),
            "bad shared tuple count");
    return status.ok() ? static_cast<uint32_t>(n) : 0;
  }
  SecondaryUpdate Update(uint8_t flags) {
    SecondaryUpdate u;
    u.origin = TxnId();
    u.is_dummy = (flags & kDummy) != 0;
    u.is_special = (flags & kSpecial) != 0;
    u.origin_site = u.origin.origin_site;
    if ((flags & kSiteDiffers) != 0) {
      u.origin_site = Site();
      Require(u.origin_site != u.origin.origin_site,
              "flagged origin site repeats the txn id's");
    }
    if ((flags & kCommitTime) != 0) {
      u.origin_commit_time = Signed();
      Require(u.origin_commit_time != 0, "flagged commit time is 0");
    }
    if ((flags & kCommitSeq) != 0) {
      u.origin_commit_seq = Id();
      Require(u.origin_commit_seq != 0, "flagged commit stamp is 0");
    }
    if ((flags & kTsShared) != 0) {
      u.ts_shared = SharedCount();
      Require(u.ts_shared != 0, "flagged shared tuple count is 0");
    }
    if ((flags & kHasTs) != 0) {
      u.ts = Ts();
      Require(u.ts.epoch() != 0 || !u.ts.tuples().empty(),
              "flagged timestamp is empty");
    }
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
    if ((byte & 0x80) == 0) {
      // A continuation run ending in 0x00 is a longer spelling of a
      // shorter varint; only the shortest is accepted.
      if (byte == 0 && shift > 0) {
        return Status::InvalidArgument("overlong varint");
      }
      return value;
    }
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
  ByteSink sink{out};
  std::visit(EncodeVisitor<ByteSink>{&sink}, message);
}

size_t Wire::EncodedSize(const ProtocolMessage& message) {
  CountSink sink;
  std::visit(EncodeVisitor<CountSink>{&sink}, message);
  return sink.n;
}

Result<ProtocolMessage> Wire::Decode(const std::vector<uint8_t>& bytes) {
  if (bytes.empty()) return Status::InvalidArgument("empty message");
  Reader r{bytes, 1, Status::OK()};
  const uint8_t kind = bytes[0];
  const uint8_t index = kind & kIndexMask;
  const bool flag = (kind & kFlagBit) != 0;
  ProtocolMessage message;
  if ((kind & kUpdateKind) != 0) {
    message = r.Update(static_cast<uint8_t>(kind & ~kUpdateKind));
  } else if (flag && !KindHasFlag(index)) {
    return Status::InvalidArgument("kind byte flags a kind with no boolean");
  } else {
    switch (index) {
      case kKind<BackedgeStart>: {
        BackedgeStart m;
        m.origin = r.TxnId();
        m.origin_site = r.Site();
        m.writes = r.Writes(m.origin);
        message = std::move(m);
        break;
      }
      case kKind<BackedgeAbort>:
        message = BackedgeAbort{r.TxnId()};
        break;
      case kKind<TpcPrepare>: {
        TpcPrepare m;
        m.origin = r.TxnId();
        m.writes = r.Writes(m.origin);
        message = std::move(m);
        break;
      }
      case kKind<TpcVote>:
        message = TpcVote{r.TxnId(), flag};
        break;
      case kKind<TpcDecision>: {
        TpcDecision m;
        m.origin = r.TxnId();
        m.commit = flag;
        message = m;
        break;
      }
      case kKind<TpcAck>:
        message = TpcAck{r.TxnId()};
        break;
      case kKind<PslLockRequest>: {
        PslLockRequest m;
        m.origin = r.TxnId();
        m.item = r.Item();
        m.request_id = r.Varint();
        message = m;
        break;
      }
      case kKind<PslLockResponse>: {
        PslLockResponse m;
        m.origin = r.TxnId();
        m.item = r.Item();
        m.request_id = r.Varint();
        m.granted = flag;
        m.value = r.Signed();
        message = m;
        break;
      }
      case kKind<PslRelease>:
        message = PslRelease{r.TxnId(), flag};
        break;
      case kKind<SecondaryBatch>: {
        SecondaryBatch batch;
        uint64_t n = r.Varint();
        // A batched update encodes to >= 4 bytes (its flag byte, the txn
        // id's two varints and the write count, each at least one byte).
        r.Require(n <= r.MaxCount(4), "bad batch count");
        for (uint64_t i = 0; i < n && r.status.ok(); ++i) {
          const uint8_t flags = r.Byte();
          r.Require((flags & kUpdateKind) == 0,
                    "batched update flags set bit 7");
          batch.updates.push_back(r.Update(flags));
        }
        message = std::move(batch);
        break;
      }
      case kKind<ReliableData>: {
        ReliableData m;
        r.FrameHeader(flag, &m.seq, &m.piggyback_ack);
        r.Require(r.pos < bytes.size(), "empty frame inner");
        // Bulk copy: `inner` is an opaque byte run (the wrapped message's
        // encoding), decoded on every reliable delivery.
        r.Rest(&m.inner);
        message = std::move(m);
        break;
      }
      case kKind<ChannelAck>:
        message = ChannelAck{r.Varint()};
        break;
      case kKind<ReliableBatch>: {
        ReliableBatch m;
        r.FrameHeader(flag, &m.seq, &m.piggyback_ack);
        uint64_t count = r.Varint();
        // Each inner record is >= 2 bytes (length varint + one payload
        // byte), and the records are all that is left.
        r.Require(count <= r.MaxCount(2) &&
                      count <= std::numeric_limits<uint32_t>::max(),
                  "bad batch frame");
        m.count = static_cast<uint32_t>(count);
        r.Rest(&m.inner);
        message = std::move(m);
        break;
      }
      default:
        // Index 0 is an update, whose kind byte always sets bit 7.
        return Status::InvalidArgument("unknown message kind tag");
    }
  }
  LAZYREP_RETURN_IF_ERROR(r.status);
  if (r.pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes after message");
  }
  return message;
}

}  // namespace lazyrep::core
