// Tests for the wire encoding (src/core/wire.*): varint primitives,
// exact size accounting, round trips for every message kind, one
// encoding per message, and decode robustness against corrupt input.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/wire.h"

namespace lazyrep::core {
namespace {

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, ~0ull}) {
    std::vector<uint8_t> buf;
    Wire::PutVarint(&buf, v);
    EXPECT_EQ(buf.size(), Wire::VarintSize(v));
    size_t pos = 0;
    Result<uint64_t> back = Wire::GetVarint(buf, &pos);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, SignedZigZag) {
  for (int64_t v :
       std::initializer_list<int64_t>{0, 1, -1, 63, -64, 1ll << 40,
                                      -(1ll << 40), INT64_MAX, INT64_MIN}) {
    std::vector<uint8_t> buf;
    Wire::PutSigned(&buf, v);
    EXPECT_EQ(buf.size(), Wire::SignedSize(v));
    size_t pos = 0;
    Result<int64_t> back = Wire::GetSigned(buf, &pos);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(VarintTest, SmallNegativesStaySmall) {
  // Zig-zag keeps -1 at one byte (plain two's complement would take 10).
  std::vector<uint8_t> buf;
  Wire::PutSigned(&buf, -1);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::vector<uint8_t> buf{0x80, 0x80};  // Continuation with no end.
  size_t pos = 0;
  EXPECT_FALSE(Wire::GetVarint(buf, &pos).ok());
}

SecondaryUpdate SampleUpdate() {
  SecondaryUpdate u;
  u.origin = {3, 12345};
  u.origin_site = 3;
  u.origin_commit_time = Millis(123.456);
  u.writes = {{7, 111}, {42, -5}, {199, 1ll << 50}};
  u.ts = Timestamp::Initial(0).ExtendedWith(2, 9, 4).ExtendedWith(5, 1, 4);
  return u;
}

void ExpectRoundTrip(const ProtocolMessage& message) {
  std::vector<uint8_t> bytes = Wire::Encode(message);
  EXPECT_EQ(bytes.size(), Wire::EncodedSize(message));
  Result<ProtocolMessage> back = Wire::Decode(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->index(), message.index());
  // Compare via re-encoding (messages have no operator==).
  EXPECT_EQ(Wire::Encode(*back), bytes);
}

TEST(WireTest, SecondaryUpdateRoundTrip) {
  ExpectRoundTrip(ProtocolMessage(SampleUpdate()));
  SecondaryUpdate dummy;
  dummy.is_dummy = true;
  dummy.ts = Timestamp::Initial(4);
  dummy.ts.set_epoch(17);
  ExpectRoundTrip(ProtocolMessage(dummy));
  SecondaryUpdate special = SampleUpdate();
  special.is_special = true;
  ExpectRoundTrip(ProtocolMessage(special));
}

TEST(WireTest, OptionalHeaderFieldsRoundTrip) {
  // A DAG(T) dummy names its sender in `origin_site` but carries a
  // default txn id: the site travels behind flag bit 16.
  SecondaryUpdate dummy;
  dummy.is_dummy = true;
  dummy.origin_site = 4;
  dummy.ts = Timestamp::Initial(4);
  ExpectRoundTrip(ProtocolMessage(dummy));
  Result<ProtocolMessage> back = Wire::Decode(Wire::Encode(dummy));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<SecondaryUpdate>(*back).origin_site, 4);
  EXPECT_NE(dummy.origin.origin_site, 4);

  // An epoch with no tuples is a timestamp too (flag bit 32).
  SecondaryUpdate epoch_only;
  epoch_only.origin = {1, 2};
  epoch_only.origin_site = 1;
  epoch_only.ts.set_epoch(9);
  ExpectRoundTrip(ProtocolMessage(epoch_only));
  back = Wire::Decode(Wire::Encode(epoch_only));
  ASSERT_TRUE(back.ok());
  const Timestamp& ts = std::get<SecondaryUpdate>(*back).ts;
  EXPECT_EQ(ts.epoch(), 9);
  EXPECT_TRUE(ts.tuples().empty());

  // A default update: neither bit set, every field back at its default.
  ExpectRoundTrip(ProtocolMessage(SecondaryUpdate{}));
  back = Wire::Decode(Wire::Encode(SecondaryUpdate{}));
  ASSERT_TRUE(back.ok());
  const auto& d = std::get<SecondaryUpdate>(*back);
  EXPECT_EQ(d.origin, GlobalTxnId{});
  EXPECT_EQ(d.origin_site, SecondaryUpdate{}.origin_site);
  EXPECT_EQ(d.ts.epoch(), 0);
  EXPECT_TRUE(d.ts.tuples().empty());
  EXPECT_TRUE(d.writes.empty());
}

TEST(WireTest, SecondaryUpdateFieldsSurviveExactly) {
  SecondaryUpdate u = SampleUpdate();
  Result<ProtocolMessage> back = Wire::Decode(Wire::Encode(u));
  ASSERT_TRUE(back.ok());
  const auto& d = std::get<SecondaryUpdate>(*back);
  EXPECT_EQ(d.origin, u.origin);
  EXPECT_EQ(d.origin_site, u.origin_site);
  EXPECT_EQ(d.origin_commit_time, u.origin_commit_time);
  ASSERT_EQ(d.writes.size(), 3u);
  EXPECT_EQ(d.writes[2].item, 199);
  EXPECT_EQ(d.writes[2].value, 1ll << 50);
  EXPECT_EQ(Timestamp::Compare(d.ts, u.ts), 0);
  EXPECT_EQ(d.ts.epoch(), 4);
}

TEST(WireTest, AllKindsRoundTrip) {
  BackedgeStart start;
  start.origin = {1, 2};
  start.origin_site = 1;
  start.primary_done_time = Millis(9);
  start.writes = {{3, 4}};
  ExpectRoundTrip(ProtocolMessage(start));
  ExpectRoundTrip(ProtocolMessage(BackedgeAbort{{2, 7}}));
  TpcPrepare prepare;
  prepare.origin = {0, 9};
  prepare.coordinator = 0;
  prepare.carries_writes = true;
  prepare.writes = {{1, 2}, {3, 4}};
  ExpectRoundTrip(ProtocolMessage(prepare));
  TpcVote vote;
  vote.origin = {4, 4};
  vote.yes = true;
  ExpectRoundTrip(ProtocolMessage(vote));
  TpcDecision decision;
  decision.origin = {4, 4};
  decision.commit = true;
  decision.origin_commit_time = Millis(1);
  ExpectRoundTrip(ProtocolMessage(decision));
  ExpectRoundTrip(ProtocolMessage(TpcAck{{4, 4}}));
  PslLockRequest request;
  request.origin = {5, 6};
  request.item = 77;
  request.request_id = 1234567;
  ExpectRoundTrip(ProtocolMessage(request));
  PslLockResponse response;
  response.origin = {5, 6};
  response.item = 77;
  response.request_id = 1234567;
  response.granted = true;
  response.value = -99;
  ExpectRoundTrip(ProtocolMessage(response));
  PslRelease release;
  release.origin = {5, 6};
  release.committed = true;
  ExpectRoundTrip(ProtocolMessage(release));
  ReliableData data;
  data.seq = 9001;
  data.piggyback_ack = 17;
  data.inner = Wire::Encode(ProtocolMessage(SampleUpdate()));
  ExpectRoundTrip(ProtocolMessage(data));
  ReliableBatch batch;
  batch.seq = 9002;
  batch.piggyback_ack = 0;
  batch.count = 2;
  for (int i = 0; i < 2; ++i) {
    std::vector<uint8_t> record = Wire::Encode(ProtocolMessage(SampleUpdate()));
    Wire::PutVarint(&batch.inner, record.size());
    batch.inner.insert(batch.inner.end(), record.begin(), record.end());
  }
  ExpectRoundTrip(ProtocolMessage(batch));
}

TEST(WireTest, ReliableBatchFieldsSurviveExactly) {
  // count must be plausible against the inner size (a record is at
  // least [len][tag] = 2 bytes) or the hostile-count guard rejects it.
  ReliableBatch batch;
  batch.seq = 123456789;
  batch.piggyback_ack = 42;
  batch.count = 2;
  batch.inner = {9, 8, 7, 6, 5};
  Result<ProtocolMessage> back = Wire::Decode(Wire::Encode(batch));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const auto& d = std::get<ReliableBatch>(*back);
  EXPECT_EQ(d.seq, 123456789u);
  EXPECT_EQ(d.piggyback_ack, 42u);
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.inner, batch.inner);
}

// A transport frame's header is its seq and then the piggybacked ack
// only when one rides (kind byte bit 6); the inner bytes run to the end.
// The seq spends no bit on the flag, so every uint64 travels.
TEST(WireTest, ReliableFrameHeaderRoundTripsAtTheExtremes) {
  const std::vector<uint8_t> inner =
      Wire::Encode(ProtocolMessage(TpcAck{{0, 1}}));
  for (uint64_t seq : {uint64_t{1}, uint64_t{1} << 63, UINT64_MAX}) {
    for (uint64_t ack : {uint64_t{0}, uint64_t{1}, UINT64_MAX}) {
      SCOPED_TRACE("seq " + std::to_string(seq) + " ack " +
                   std::to_string(ack));
      ReliableData data;
      data.seq = seq;
      data.piggyback_ack = ack;
      data.inner = inner;
      ExpectRoundTrip(ProtocolMessage(data));
      Result<ProtocolMessage> back = Wire::Decode(Wire::Encode(data));
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(std::get<ReliableData>(*back).seq, seq);
      EXPECT_EQ(std::get<ReliableData>(*back).piggyback_ack, ack);
      EXPECT_EQ(std::get<ReliableData>(*back).inner, inner);

      ReliableBatch batch;
      batch.seq = seq;
      batch.piggyback_ack = ack;
      batch.count = 1;
      Wire::PutVarint(&batch.inner, inner.size());
      batch.inner.insert(batch.inner.end(), inner.begin(), inner.end());
      ExpectRoundTrip(ProtocolMessage(batch));
      back = Wire::Decode(Wire::Encode(batch));
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(std::get<ReliableBatch>(*back).seq, seq);
      EXPECT_EQ(std::get<ReliableBatch>(*back).piggyback_ack, ack);
      EXPECT_EQ(std::get<ReliableBatch>(*back).inner, batch.inner);
    }
  }
}

TEST(WireTest, AcklessOneMessageFrameCostsItsTagSeqAndInner) {
  // Kind byte, then the seq, then the inner encoding: seqs below 128
  // cost one byte, since the has-ack flag rides the kind byte.
  ReliableData data;
  data.inner = Wire::Encode(ProtocolMessage(SampleUpdate()));
  for (uint64_t seq : {1, 64, 127}) {
    data.seq = seq;
    EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(data)),
              2 + data.inner.size())
        << "seq " << seq;
  }
  data.seq = 128;
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(data)), 3 + data.inner.size());
  // A carried ack costs its own varint and nothing else.
  data.seq = 1;
  data.piggyback_ack = 5;
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(data)), 3 + data.inner.size());
  EXPECT_EQ(Wire::Encode(ProtocolMessage(data))[0], 0x40 | 11);
}

TEST(WireTest, BatchOfMinimalUpdatesRoundTrips) {
  // A default-constructed update is the smallest on the wire: the kind
  // byte holding its flags, the txn id's two one-byte ids and the write
  // count. Its origin site repeats the txn id's and its timestamp is
  // empty, so neither is sent (flag bits 16 and 32), nor a commit time
  // or stamp. Inside a SecondaryBatch each update spends a flag byte of
  // its own instead, so the smallest is again 4 bytes, and the batch
  // decoder's count bound must admit a batch of only those.
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(SecondaryUpdate{})), 4u);
  SecondaryBatch batch;
  batch.updates.resize(3);
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(batch)), 1u + 1u + 3u * 4u);
  ExpectRoundTrip(ProtocolMessage(batch));
}

TEST(WireTest, SizesAreCompact) {
  // An empty-ish control message stays tiny; a 3-write update is small.
  EXPECT_LE(Wire::EncodedSize(ProtocolMessage(TpcAck{{0, 1}})), 4u);
  EXPECT_LE(Wire::EncodedSize(ProtocolMessage(SampleUpdate())), 64u);
}

TEST(WireTest, TreeUpdateSendsNoOriginSiteOrTimestamp) {
  // A DAG(WT)/BackEdge/NaiveLazy update: origin site = the txn id's, no
  // timestamp. Kind byte with the flags, txn id (1 + 2), write count,
  // two writes of the origin's own values (1 + 1 each): 9 bytes. Item
  // 100 is one byte as an unsigned id (two when zig-zagged), and the
  // flags spend no byte of their own.
  SecondaryUpdate u;
  u.origin = {2, 300};
  u.origin_site = 2;
  u.writes = {{7, ProvenanceValue(u.origin, 0)},
              {100, ProvenanceValue(u.origin, 1)}};
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(u)), 9u);
  EXPECT_EQ(Wire::Encode(ProtocolMessage(u))[0], 0x80);
  ExpectRoundTrip(ProtocolMessage(u));
}

TEST(WireTest, KindSizePins) {
  // Control messages with ids below 127 are the kind byte and two
  // one-byte ids; a vote's, decision's or release's boolean rides the
  // kind byte's bit 6.
  const GlobalTxnId id{4, 126};
  for (bool b : {false, true}) {
    const ProtocolMessage vote = TpcVote{id, b};
    const ProtocolMessage decision = TpcDecision{id, b, Millis(5)};
    const ProtocolMessage release = PslRelease{id, b};
    for (const ProtocolMessage& m : {vote, decision, release}) {
      EXPECT_EQ(Wire::EncodedSize(m), 3u) << MessageKindName(m);
      EXPECT_EQ(Wire::Encode(m)[0], (b ? 0x40 : 0) | m.index());
      ExpectRoundTrip(m);
    }
  }
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(TpcAck{id})), 3u);
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(BackedgeAbort{id})), 3u);
  // The default id's -1s cost a byte each.
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(TpcAck{})), 3u);
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(TpcAck{{126, 127}})), 4u);

  // A prepare carries no coordinator and no carries-writes byte: the
  // kind byte, the txn id and the write count.
  TpcPrepare prepare{id, 3, {}, true};
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(prepare)), 4u);
  Result<ProtocolMessage> back = Wire::Decode(Wire::Encode(prepare));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(std::get<TpcPrepare>(*back).coordinator, kInvalidSite);
  EXPECT_FALSE(std::get<TpcPrepare>(*back).carries_writes);
  // Nor does a decision carry its commit time, nor a backedge start its
  // primary's done time.
  back = Wire::Decode(Wire::Encode(TpcDecision{id, true, Millis(5)}));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(std::get<TpcDecision>(*back).commit);
  EXPECT_EQ(std::get<TpcDecision>(*back).origin_commit_time, 0);
  BackedgeStart start{id, 4, {}, Millis(9)};
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(start)), 5u);
  back = Wire::Decode(Wire::Encode(start));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(std::get<BackedgeStart>(*back).origin_site, 4);
  EXPECT_EQ(std::get<BackedgeStart>(*back).primary_done_time, 0);

  // An update has no flag byte: its flags are the kind byte's bits 0-6.
  SecondaryUpdate special;
  special.origin = id;
  special.origin_site = id.origin_site;
  special.is_special = true;
  std::vector<uint8_t> bytes = Wire::Encode(special);
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0x80 | 2, 5, 127, 0}));
  SecondaryUpdate dummy;
  dummy.is_dummy = true;
  dummy.origin_site = 4;
  bytes = Wire::Encode(dummy);
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0x80 | 16 | 1, 0, 0, 5, 0}));
}

/// The three kinds that carry writes, each headed by `origin`.
std::vector<ProtocolMessage> WriteCarriers(
    GlobalTxnId origin, const std::vector<WriteRecord>& writes) {
  SecondaryUpdate update;
  update.origin = origin;
  update.origin_site = origin.origin_site;
  update.writes = writes;
  BackedgeStart start;
  start.origin = origin;
  start.origin_site = origin.origin_site;
  start.writes = writes;
  TpcPrepare prepare;
  prepare.origin = origin;
  prepare.carries_writes = true;
  prepare.writes = writes;
  return {update, start, prepare};
}

const std::vector<WriteRecord>& CarriedWrites(const ProtocolMessage& m) {
  if (const auto* u = std::get_if<SecondaryUpdate>(&m)) return u->writes;
  if (const auto* s = std::get_if<BackedgeStart>(&m)) return s->writes;
  return std::get<TpcPrepare>(m).writes;
}

TEST(WireTest, EveryValueRoundTripsAgainstAnyOrigin) {
  // Values are coded against the message's own txn id, so the values a
  // foreign writer or no writer at all installed must survive too, under
  // the default id and under ids whose tag fields wrap (a seq past the
  // tag's 40 bits, the largest site and seq, the smallest seq).
  const GlobalTxnId origins[] = {
      {3, 12345}, GlobalTxnId{}, {2, (1ll << 40) + 5}, {0, INT64_MAX},
      {INT32_MAX, INT64_MAX}, {kInvalidSite, INT64_MIN}};
  for (const GlobalTxnId& origin : origins) {
    SCOPED_TRACE(std::to_string(origin.origin_site) + "/" +
                 std::to_string(origin.seq));
    const std::vector<WriteRecord> writes = {
        {1, INT64_MIN},
        {2, INT64_MAX},
        {3, 0},
        {4, -1},
        {5, 9},
        {6, -1000},
        {7, ProvenanceValue(origin, 0)},
        {8, ProvenanceValue(origin, 255)},
        {9, ProvenanceValue({4, 7}, 3)},
        {10, ProvenanceValue(origin, 0) - 1}};
    for (const ProtocolMessage& m : WriteCarriers(origin, writes)) {
      ExpectRoundTrip(m);
      Result<ProtocolMessage> back = Wire::Decode(Wire::Encode(m));
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      const std::vector<WriteRecord>& got = CarriedWrites(*back);
      ASSERT_EQ(got.size(), writes.size());
      for (size_t i = 0; i < writes.size(); ++i) {
        EXPECT_EQ(got[i].item, writes[i].item);
        EXPECT_EQ(got[i].value, writes[i].value) << "item " << writes[i].item;
      }
    }
  }
}

TEST(WireTest, ProvenanceValueCostsOneByte) {
  // A value its message's origin wrote costs one byte in every kind that
  // carries writes (op indices below 64 zig-zag to one byte); the item
  // (one byte here) is the rest of the write. A foreign value costs more.
  const GlobalTxnId origin{5, 123456};
  const size_t empty[] = {
      Wire::EncodedSize(WriteCarriers(origin, {})[0]),
      Wire::EncodedSize(WriteCarriers(origin, {})[1]),
      Wire::EncodedSize(WriteCarriers(origin, {})[2])};
  for (int op : {0, 1, 17, 63}) {
    const std::vector<ProtocolMessage> carriers =
        WriteCarriers(origin, {{7, ProvenanceValue(origin, op)}});
    for (size_t k = 0; k < carriers.size(); ++k) {
      EXPECT_EQ(Wire::EncodedSize(carriers[k]), empty[k] + 2)
          << "kind " << carriers[k].index() << " op " << op;
    }
  }
  const std::vector<ProtocolMessage> foreign =
      WriteCarriers(origin, {{7, ProvenanceValue({6, 123456}, 0)}});
  for (size_t k = 0; k < foreign.size(); ++k) {
    EXPECT_GT(Wire::EncodedSize(foreign[k]), empty[k] + 2);
  }
}

TEST(WireTest, TimestampDeltaTravelsBehindFlag64) {
  // A DAG(T) dummy resending its channel's previous timestamp at epoch 0:
  // every tuple is shared, so the suffix is empty and bit 32 stays clear;
  // only bit 64 and the shared count (one byte) go out.
  SecondaryUpdate dummy;
  dummy.is_dummy = true;
  dummy.origin_site = 4;
  dummy.ts_shared = 3;
  ExpectRoundTrip(ProtocolMessage(dummy));
  std::vector<uint8_t> bytes = Wire::Encode(dummy);
  SecondaryUpdate whole = dummy;
  whole.ts_shared = 0;
  EXPECT_EQ(bytes.size(), Wire::EncodedSize(ProtocolMessage(whole)) + 1);
  Result<ProtocolMessage> back = Wire::Decode(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const auto& d = std::get<SecondaryUpdate>(*back);
  EXPECT_EQ(d.ts_shared, 3u);
  EXPECT_EQ(d.ts.epoch(), 0);
  EXPECT_TRUE(d.ts.tuples().empty());
  EXPECT_TRUE(d.is_dummy);
  EXPECT_EQ(d.origin_site, 4);

  // A real update with a shared prefix, a suffix and an epoch.
  SecondaryUpdate u = SampleUpdate();
  u.ts = u.ts.Suffix(1);
  u.ts_shared = 1;
  ExpectRoundTrip(ProtocolMessage(u));
  back = Wire::Decode(Wire::Encode(u));
  ASSERT_TRUE(back.ok());
  const auto& r = std::get<SecondaryUpdate>(*back);
  EXPECT_EQ(r.ts_shared, 1u);
  EXPECT_EQ(r.ts.tuples(), u.ts.tuples());
  EXPECT_EQ(r.ts.epoch(), 4);
}

TEST(WireTest, EncodeToAppendsWithoutClearing) {
  // The allocation-free path: EncodeTo appends to whatever is already
  // in the buffer (ReliableTransport reuses a per-channel scratch this
  // way) and produces exactly the bytes Encode would.
  ProtocolMessage m(SampleUpdate());
  std::vector<uint8_t> direct = Wire::Encode(m);
  EXPECT_EQ(direct.size(), Wire::EncodedSize(m));
  std::vector<uint8_t> buf = {0xAB, 0xCD};
  Wire::EncodeTo(m, &buf);
  ASSERT_EQ(buf.size(), direct.size() + 2);
  EXPECT_EQ(buf[0], 0xAB);
  EXPECT_EQ(buf[1], 0xCD);
  EXPECT_EQ(std::vector<uint8_t>(buf.begin() + 2, buf.end()), direct);
  // Reused scratch: clear + re-encode matches a fresh encoding.
  buf.clear();
  Wire::EncodeTo(m, &buf);
  EXPECT_EQ(buf, direct);
}

/// Appends an id the way the codec sends one: `uint64(id) + 1`.
void PutId(std::vector<uint8_t>* out, int64_t id) {
  Wire::PutVarint(out, static_cast<uint64_t>(id) + 1);
}

TEST(WireDecodeTest, RejectsGarbage) {
  EXPECT_FALSE(Wire::Decode({}).ok());
  EXPECT_FALSE(Wire::Decode({0x3F}).ok());        // Unknown kind index.
  EXPECT_FALSE(Wire::Decode({0x0E}).ok());        // One past the last kind.
  EXPECT_FALSE(Wire::Decode({0x80}).ok());        // Truncated update body.
  EXPECT_FALSE(Wire::Decode({0x06, 0x02}).ok());  // Truncated txn id.
  // Index 0 is an update only with bit 7 set: a valid update body behind
  // a bare 0 is rejected.
  EXPECT_TRUE(Wire::Decode({0x80, 0x02, 0x03, 0x00}).ok());
  EXPECT_FALSE(Wire::Decode({0x00, 0x02, 0x03, 0x00}).ok());
}

TEST(WireDecodeTest, RejectsTheFlagBitOnKindsWithoutABoolean) {
  const GlobalTxnId id{1, 2};
  ReliableData data;
  data.seq = 3;
  data.inner = {0x06};
  const ProtocolMessage with_flag[] = {
      TpcVote{id, true}, TpcDecision{id, true, 0}, PslRelease{id, true},
      PslLockResponse{id, 7, 1, true, 9}, data};
  for (const ProtocolMessage& m : with_flag) {
    EXPECT_TRUE(Wire::Decode(Wire::Encode(m)).ok()) << MessageKindName(m);
  }
  const ProtocolMessage without_flag[] = {
      BackedgeStart{id, 1, {{3, 4}}, 0}, BackedgeAbort{id},
      TpcPrepare{id, 1, {}, false},      TpcAck{id},
      PslLockRequest{id, 7, 1},          SecondaryBatch{{SecondaryUpdate{}}},
      ChannelAck{5}};
  for (const ProtocolMessage& m : without_flag) {
    std::vector<uint8_t> bytes = Wire::Encode(m);
    ASSERT_TRUE(Wire::Decode(bytes).ok()) << MessageKindName(m);
    bytes[0] |= 0x40;
    EXPECT_FALSE(Wire::Decode(bytes).ok()) << MessageKindName(m);
  }
}

TEST(WireDecodeTest, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = Wire::Encode(ProtocolMessage(TpcAck{{0, 1}}));
  bytes.push_back(0x00);
  EXPECT_FALSE(Wire::Decode(bytes).ok());
}

TEST(WireDecodeTest, RejectsMalformedFrameHeaders) {
  for (uint8_t tag : {uint8_t{0x0B}, uint8_t{0x0D}}) {
    SCOPED_TRACE("tag " + std::to_string(tag));
    const uint8_t acked = tag | 0x40;
    // A truncated seq varint.
    EXPECT_FALSE(Wire::Decode({tag, 0x80}).ok());
    // The ack flag set, then a truncated ack varint.
    EXPECT_FALSE(Wire::Decode({acked, 0x01, 0x80}).ok());
    // The ack flag set and no ack at all.
    EXPECT_FALSE(Wire::Decode({acked, 0x01}).ok());
    // A flagged ack of 0: the encoder never sets the flag for it.
    EXPECT_FALSE(Wire::Decode({acked, 0x01, 0x00, 0x01, 0x06}).ok());
  }
  // A ReliableData frame whose inner run is empty, with and without an
  // ack ahead of it.
  EXPECT_FALSE(Wire::Decode({0x0B, 0x01}).ok());
  EXPECT_FALSE(Wire::Decode({0x4B, 0x01, 0x07}).ok());
  // The same frames with one inner byte decode.
  EXPECT_TRUE(Wire::Decode({0x0B, 0x01, 0x06}).ok());
  EXPECT_TRUE(Wire::Decode({0x4B, 0x01, 0x07, 0x06}).ok());
}

TEST(WireDecodeTest, TruncationFuzz) {
  // Every strict prefix of a valid encoding must fail to decode (never
  // crash, never succeed).
  std::vector<uint8_t> bytes = Wire::Encode(ProtocolMessage(SampleUpdate()));
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(n));
    EXPECT_FALSE(Wire::Decode(prefix).ok()) << "prefix length " << n;
  }
}

TEST(WireDecodeTest, RejectsOversizedCounts) {
  // A hostile length prefix is rejected up front (no element can be
  // smaller than its minimum wire size, so a count exceeding
  // remaining/min_size is provably bad) — decode must fail without
  // attempting a huge reserve. Each case hand-builds a valid prefix and
  // then lies in the count field.
  {
    // SecondaryUpdate with a timestamp (bit 32) claiming 2^40 tuples.
    std::vector<uint8_t> bytes = {0x80 | 32};
    PutId(&bytes, 1);                  // origin.origin_site
    PutId(&bytes, 2);                  // origin.seq
    Wire::PutSigned(&bytes, 1);        // ts epoch
    Wire::PutVarint(&bytes, 1ull << 40);  // ts tuple count: absurd
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
  {
    // SecondaryUpdate with no optional field but an absurd write count.
    std::vector<uint8_t> bytes = {0x80};
    PutId(&bytes, 1);
    PutId(&bytes, 2);
    Wire::PutVarint(&bytes, 1ull << 40);  // write count: absurd
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
  {
    // SecondaryBatch (tag 10) claiming 2^40 inner updates.
    std::vector<uint8_t> bytes = {0x0A};
    Wire::PutVarint(&bytes, 1ull << 40);
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
  {
    // ReliableBatch (tag 13) claiming 2^40 inner messages.
    std::vector<uint8_t> bytes = {0x0D};
    Wire::PutVarint(&bytes, 1);        // seq 1, no ack
    Wire::PutVarint(&bytes, 1ull << 40);  // count: absurd
    bytes.insert(bytes.end(), {1, 2, 3, 4});
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
}

TEST(WireDecodeTest, RejectsOversizedCountsBehindFlagBits) {
  // The origin site and timestamp follow only when the flags say so; a
  // hostile count behind those bits is rejected the same way.
  std::vector<uint8_t> bytes = {0x80 | 16 | 32};
  PutId(&bytes, 1);                    // origin.origin_site
  PutId(&bytes, 2);                    // origin.seq
  PutId(&bytes, 4);                    // origin_site
  Wire::PutSigned(&bytes, 3);          // ts epoch
  Wire::PutVarint(&bytes, 0);          // ts tuple count
  Wire::PutVarint(&bytes, 1ull << 40);  // write count: absurd
  EXPECT_FALSE(Wire::Decode(bytes).ok());
}

TEST(WireDecodeTest, RejectsHostileSharedCount) {
  // The shared tuples are not on the wire, so the count behind bit 64 is
  // bounded by the site id range instead of by the bytes left; and a
  // flagged count of 0 is rejected, since the encoder sends none then.
  auto with_shared = [](uint64_t shared) {
    std::vector<uint8_t> bytes = {0x80 | 64};  // A shared count follows.
    PutId(&bytes, 1);                  // origin.origin_site
    PutId(&bytes, 2);                  // origin.seq
    Wire::PutVarint(&bytes, shared);
    Wire::PutVarint(&bytes, 0);        // write count
    return bytes;
  };
  EXPECT_FALSE(Wire::Decode(with_shared(1ull << 40)).ok());
  EXPECT_FALSE(Wire::Decode(with_shared(1ull << 31)).ok());
  EXPECT_FALSE(Wire::Decode(with_shared(0)).ok());
  Result<ProtocolMessage> ok = Wire::Decode(with_shared((1ull << 31) - 1));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(std::get<SecondaryUpdate>(*ok).ts_shared, (1u << 31) - 1);
  // Truncated inside the count.
  std::vector<uint8_t> cut = with_shared(1ull << 20);
  cut.resize(cut.size() - 2);
  EXPECT_FALSE(Wire::Decode(cut).ok());
}

TEST(WireDecodeTest, RejectsFlaggedFieldsHoldingTheirAbsentValue) {
  // Each optional update field goes out only when it differs from its
  // default; a flag whose field holds the default would decode to a
  // message that re-encodes without it, so it is rejected.
  auto update = [](uint8_t flag, auto&& put_field) {
    std::vector<uint8_t> bytes = {static_cast<uint8_t>(0x80 | flag)};
    PutId(&bytes, 1);                  // origin.origin_site
    PutId(&bytes, 2);                  // origin.seq
    put_field(&bytes);
    Wire::PutVarint(&bytes, 0);        // write count
    return bytes;
  };
  auto site = [](int64_t v) {
    return [v](std::vector<uint8_t>* b) { PutId(b, v); };
  };
  auto zigzag = [](int64_t v) {
    return [v](std::vector<uint8_t>* b) { Wire::PutSigned(b, v); };
  };
  auto ts = [](int64_t epoch) {
    return [epoch](std::vector<uint8_t>* b) {
      Wire::PutSigned(b, epoch);
      Wire::PutVarint(b, 0);
    };
  };
  EXPECT_TRUE(Wire::Decode(update(16, site(4))).ok());
  EXPECT_FALSE(Wire::Decode(update(16, site(1))).ok());  // = txn id's.
  EXPECT_TRUE(Wire::Decode(update(8, zigzag(5))).ok());
  EXPECT_FALSE(Wire::Decode(update(8, zigzag(0))).ok());
  EXPECT_TRUE(Wire::Decode(update(4, site(5))).ok());
  EXPECT_FALSE(Wire::Decode(update(4, site(0))).ok());
  EXPECT_TRUE(Wire::Decode(update(32, ts(1))).ok());
  EXPECT_FALSE(Wire::Decode(update(32, ts(0))).ok());   // Empty stamp.
  // A batched update's flag byte never sets bit 7.
  std::vector<uint8_t> batch = {0x0A, 0x01, 0x00};
  PutId(&batch, 1);
  PutId(&batch, 2);
  batch.push_back(0x00);               // write count
  EXPECT_TRUE(Wire::Decode(batch).ok());
  batch[2] = 0x80;
  EXPECT_FALSE(Wire::Decode(batch).ok());
}

TEST(WireDecodeTest, RejectsSiteAndItemIdsOutsideInt32) {
  // Site and item ids are int32s no smaller than -1. A wider value used
  // to be cast down silently (item 2^32 + 5 decoded as item 5); every
  // slot that holds one now rejects it.
  auto slots = [](int64_t v) {
    std::vector<std::vector<uint8_t>> out;
    auto head = [&out](uint8_t kind) {
      out.push_back({kind});
      return &out.back();
    };
    std::vector<uint8_t>* b = head(0x06);  // TpcAck: the txn id's site.
    PutId(b, v);
    PutId(b, 2);
    b = head(0x80);                        // An update's write item.
    PutId(b, 1);
    PutId(b, 2);
    Wire::PutVarint(b, 1);
    PutId(b, v);
    Wire::PutSigned(b, 0);
    b = head(0x80 | 16);                   // An update's origin site.
    PutId(b, 1);
    PutId(b, 2);
    PutId(b, v);
    Wire::PutVarint(b, 0);
    b = head(0x80 | 32);                   // A timestamp tuple's site.
    PutId(b, 1);
    PutId(b, 2);
    Wire::PutSigned(b, 0);
    Wire::PutVarint(b, 1);
    PutId(b, v);
    PutId(b, 3);
    Wire::PutVarint(b, 0);
    b = head(0x01);                        // BackedgeStart::origin_site.
    PutId(b, 1);
    PutId(b, 2);
    PutId(b, v);
    Wire::PutVarint(b, 0);
    b = head(0x07);                        // PslLockRequest::item.
    PutId(b, 1);
    PutId(b, 2);
    PutId(b, v);
    Wire::PutVarint(b, 9);
    return out;
  };
  for (int64_t v : {int64_t{-1}, int64_t{0}, int64_t{INT32_MAX}}) {
    for (const std::vector<uint8_t>& bytes : slots(v)) {
      Result<ProtocolMessage> back = Wire::Decode(bytes);
      ASSERT_TRUE(back.ok()) << "id " << v << " kind " << int{bytes[0]}
                             << ": " << back.status().ToString();
      EXPECT_EQ(Wire::Encode(*back), bytes);
    }
  }
  for (int64_t v : {int64_t{-2}, int64_t{INT32_MIN}, int64_t{INT32_MAX} + 1,
                    (int64_t{1} << 32) + 5, INT64_MAX}) {
    for (const std::vector<uint8_t>& bytes : slots(v)) {
      EXPECT_FALSE(Wire::Decode(bytes).ok())
          << "id " << v << " kind " << int{bytes[0]};
    }
  }
}

TEST(WireDecodeTest, RejectsTimestampTuplesOutOfOrder) {
  // Tuple sites must rise strictly, -1 included: a repeated first site
  // of -1 once slipped past the order check into `ExtendedWith`'s CHECK.
  auto stamp = [](std::initializer_list<int64_t> sites) {
    std::vector<uint8_t> bytes = {0x80 | 32};  // A timestamp follows.
    PutId(&bytes, 1);                  // origin.origin_site
    PutId(&bytes, 2);                  // origin.seq
    Wire::PutSigned(&bytes, 0);        // ts epoch
    Wire::PutVarint(&bytes, sites.size());
    for (int64_t site : sites) {
      PutId(&bytes, site);
      PutId(&bytes, 5);                // lts
    }
    Wire::PutVarint(&bytes, 0);        // write count
    return bytes;
  };
  EXPECT_TRUE(Wire::Decode(stamp({-1, 0, 4})).ok());
  EXPECT_FALSE(Wire::Decode(stamp({-1, -1})).ok());
  EXPECT_FALSE(Wire::Decode(stamp({3, 3})).ok());
  EXPECT_FALSE(Wire::Decode(stamp({4, 2})).ok());
}

TEST(WireDecodeTest, RejectsOverlongVarint) {
  // The tenth byte of a varint holds bit 63 alone: the canonical
  // UINT64_MAX ends in 0x01, and a larger tenth byte would drop bits.
  std::vector<uint8_t> max(11, 0xFF);
  max.front() = 12;  // ChannelAck.
  max.back() = 0x01;
  EXPECT_EQ(Wire::Encode(ProtocolMessage(ChannelAck{UINT64_MAX})), max);
  Result<ProtocolMessage> ok = Wire::Decode(max);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(std::get<ChannelAck>(*ok).cum_ack, UINT64_MAX);
  for (uint8_t last : {0x00, 0x02, 0x7F}) {
    std::vector<uint8_t> bytes = max;
    bytes.back() = last;
    EXPECT_FALSE(Wire::Decode(bytes).ok()) << "tenth byte " << int{last};
    size_t pos = 1;
    EXPECT_FALSE(Wire::GetVarint(bytes, &pos).ok());
  }
  // Ten bytes with the last continuing: still too long.
  std::vector<uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  size_t pos = 0;
  EXPECT_FALSE(Wire::GetVarint(eleven, &pos).ok());
}

TEST(WireDecodeTest, RejectsVarintsWithAShorterSpelling) {
  // A continuation run that ends in 0x00 adds only zero bits: the value
  // has a shorter encoding, and only the shortest is accepted, so each
  // message has exactly one encoding.
  for (const std::vector<uint8_t>& bytes :
       {std::vector<uint8_t>{0x80, 0x00}, std::vector<uint8_t>{0x81, 0x00},
        std::vector<uint8_t>{0xFF, 0x80, 0x00}}) {
    size_t pos = 0;
    EXPECT_FALSE(Wire::GetVarint(bytes, &pos).ok());
  }
  for (const std::vector<uint8_t>& bytes :
       {std::vector<uint8_t>{0x00}, std::vector<uint8_t>{0x80, 0x01},
        std::vector<uint8_t>{0xFF, 0x80, 0x01}}) {
    size_t pos = 0;
    EXPECT_TRUE(Wire::GetVarint(bytes, &pos).ok());
    EXPECT_EQ(pos, bytes.size());
  }
  // In a message: a cumulative ack of 1, and an ack's txn seq of 1.
  EXPECT_TRUE(Wire::Decode({0x0C, 0x01}).ok());
  EXPECT_FALSE(Wire::Decode({0x0C, 0x81, 0x00}).ok());
  EXPECT_TRUE(Wire::Decode({0x06, 0x02, 0x02}).ok());
  EXPECT_FALSE(Wire::Decode({0x06, 0x02, 0x82, 0x00}).ok());
}

TEST(WireDecodeTest, RandomValueBytesDecodeToTheirValue) {
  // Random bytes in the value slot of a write, under a random origin:
  // the decoder either rejects them or yields a value that round-trips,
  // and never overflows (UBSan runs this).
  Rng rng(987);
  for (int trial = 0; trial < 2000; ++trial) {
    const GlobalTxnId origin{static_cast<SiteId>(rng.Next32() >> 1),
                             static_cast<int64_t>(rng.Next64())};
    std::vector<uint8_t> bytes = {0x80};  // SecondaryUpdate, no flags.
    PutId(&bytes, origin.origin_site);
    PutId(&bytes, origin.seq);
    Wire::PutVarint(&bytes, 1);           // write count
    PutId(&bytes, 7);                     // item
    const size_t n = 1 + rng.Below(11);
    for (size_t i = 0; i < n; ++i) {
      uint8_t b = static_cast<uint8_t>(rng.Below(256));
      if (i + 1 == n) b &= 0x7F;          // Usually ends the varint.
      bytes.push_back(b);
    }
    Result<ProtocolMessage> decoded = Wire::Decode(bytes);
    if (!decoded.ok()) continue;
    const auto& u = std::get<SecondaryUpdate>(*decoded);
    ASSERT_EQ(u.writes.size(), 1u);
    EXPECT_EQ(u.origin, origin);
    ExpectRoundTrip(*decoded);
    Result<ProtocolMessage> again = Wire::Decode(Wire::Encode(*decoded));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(std::get<SecondaryUpdate>(*again).writes[0].value,
              u.writes[0].value);
  }
}

TEST(WireDecodeTest, RandomByteFuzz) {
  // Random byte strings never crash the decoder.
  Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(rng.Below(40));
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Below(256));
    (void)Wire::Decode(bytes);  // Must not crash or CHECK.
  }
}

TEST(WireDecodeTest, MutationFuzzRoundTrips) {
  // Flip single bits of a valid encoding: decode either fails or yields
  // a message that re-encodes to exactly the mutated bytes.
  Rng rng(654);
  std::vector<uint8_t> base = Wire::Encode(ProtocolMessage(SampleUpdate()));
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes = base;
    bytes[rng.Below(bytes.size())] ^=
        static_cast<uint8_t>(1u << rng.Below(8));
    Result<ProtocolMessage> decoded = Wire::Decode(bytes);
    if (decoded.ok()) {
      EXPECT_EQ(Wire::Encode(*decoded), bytes);
    }
  }
}

// ---- one encoding per message ----------------------------------------

/// A random id: often -1 or small, sometimes anywhere in int64.
int64_t RandomId(Rng* rng) {
  switch (rng->Below(4)) {
    case 0: return -1;
    case 1: return static_cast<int64_t>(rng->Below(200));
    case 2: return static_cast<int64_t>(rng->Below(1u << 20));
    default: return static_cast<int64_t>(rng->Next64());
  }
}

/// A random site or item id in [-1, INT32_MAX].
int32_t RandomId32(Rng* rng) {
  switch (rng->Below(3)) {
    case 0: return -1;
    case 1: return static_cast<int32_t>(rng->Below(200));
    default: return static_cast<int32_t>(rng->Next32() >> 1);
  }
}

GlobalTxnId RandomTxnId(Rng* rng) {
  return {RandomId32(rng), RandomId(rng)};
}

std::vector<WriteRecord> RandomWrites(Rng* rng, const GlobalTxnId& origin) {
  std::vector<WriteRecord> writes(rng->Below(4));
  for (WriteRecord& w : writes) {
    w.item = RandomId32(rng);
    w.value = rng->Below(2) == 0
                  ? ProvenanceValue(origin, static_cast<int>(rng->Below(100)))
                  : static_cast<Value>(rng->Next64());
  }
  return writes;
}

SecondaryUpdate RandomUpdate(Rng* rng) {
  SecondaryUpdate u;
  u.origin = RandomTxnId(rng);
  u.origin_site =
      rng->Below(3) == 0 ? RandomId32(rng) : u.origin.origin_site;
  u.is_dummy = rng->Below(2) == 0;
  u.is_special = rng->Below(2) == 0;
  if (rng->Below(2) == 0) {
    u.origin_commit_time = static_cast<SimTime>(rng->Next64());
  }
  if (rng->Below(2) == 0) u.origin_commit_seq = RandomId(rng);
  if (rng->Below(2) == 0) {
    u.ts_shared = static_cast<uint32_t>(rng->Below(INT32_MAX) + 1);
  }
  if (rng->Below(2) == 0) {
    SiteId site = -1;
    for (uint64_t n = rng->Below(4); n > 0; --n) {
      site += 1 + static_cast<SiteId>(rng->Below(50));
      u.ts = u.ts.ExtendedWith(site, RandomId(rng), 0);
    }
    u.ts.set_epoch(static_cast<int64_t>(rng->Next64()) >>
                   (rng->Below(2) == 0 ? 0 : 60));
  }
  u.writes = RandomWrites(rng, u.origin);
  return u;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->Below(256));
  return bytes;
}

/// A random message of variant kind `kind`, every field free to take any
/// value the encoder accepts.
ProtocolMessage RandomMessage(Rng* rng, size_t kind) {
  const GlobalTxnId id = RandomTxnId(rng);
  const bool b = rng->Below(2) == 0;
  const uint64_t seq = rng->Below(2) == 0 ? rng->Below(200) : rng->Next64();
  const uint64_t ack = rng->Below(2) == 0 ? 0 : rng->Next64();
  switch (kind) {
    case 0: return RandomUpdate(rng);
    case 1: return BackedgeStart{id, RandomId32(rng), RandomWrites(rng, id), 0};
    case 2: return BackedgeAbort{id};
    case 3: return TpcPrepare{id, kInvalidSite, RandomWrites(rng, id), false};
    case 4: return TpcVote{id, b};
    case 5: return TpcDecision{id, b, 0};
    case 6: return TpcAck{id};
    case 7: return PslLockRequest{id, RandomId32(rng), rng->Next64()};
    case 8:
      return PslLockResponse{id, RandomId32(rng), rng->Below(1000), b,
                             static_cast<Value>(rng->Next64())};
    case 9: return PslRelease{id, b};
    case 10: {
      SecondaryBatch batch;
      for (uint64_t n = rng->Below(4); n > 0; --n) {
        batch.updates.push_back(RandomUpdate(rng));
      }
      return batch;
    }
    case 11: return ReliableData{seq, ack, RandomBytes(rng, 1 + rng->Below(12))};
    case 12: return ChannelAck{rng->Below(2) == 0 ? rng->Below(200) : seq};
    default: {
      std::vector<uint8_t> inner = RandomBytes(rng, rng->Below(12));
      const uint32_t count =
          static_cast<uint32_t>(rng->Below(inner.size() / 2 + 1));
      return ReliableBatch{seq, ack, count, std::move(inner)};
    }
  }
}

TEST(WireCanonicalTest, EveryKindHasExactlyOneEncoding) {
  // Encode(Decode(Encode(m))) == Encode(m) for random messages of every
  // kind; and a random byte of an encoding changed to any other value
  // either is rejected or decodes to a message that re-encodes to
  // exactly the mutated bytes, so no two byte strings decode alike.
  Rng rng(30);
  constexpr size_t kKinds = std::variant_size_v<ProtocolMessage>;
  for (size_t kind = 0; kind < kKinds; ++kind) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    for (int trial = 0; trial < 500; ++trial) {
      const ProtocolMessage m = RandomMessage(&rng, kind);
      ASSERT_EQ(m.index(), kind);
      const std::vector<uint8_t> bytes = Wire::Encode(m);
      ASSERT_EQ(bytes.size(), Wire::EncodedSize(m));
      Result<ProtocolMessage> back = Wire::Decode(bytes);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_EQ(Wire::Encode(*back), bytes);
    }
    int accepted = 0;
    for (int trial = 0; trial < 10000; ++trial) {
      std::vector<uint8_t> bytes = Wire::Encode(RandomMessage(&rng, kind));
      const size_t at = rng.Below(bytes.size());
      bytes[at] ^= static_cast<uint8_t>(1 + rng.Below(255));
      Result<ProtocolMessage> decoded = Wire::Decode(bytes);
      if (!decoded.ok()) continue;
      ++accepted;
      ASSERT_EQ(Wire::Encode(*decoded), bytes)
          << "trial " << trial << ", byte " << at << " mutated";
    }
    // Most kinds accept many mutations (an id or value byte changed to
    // another id or value), so the check above is not vacuous.
    EXPECT_GT(accepted, 1000);
  }
}

}  // namespace
}  // namespace lazyrep::core
