// Tests for the wire encoding (src/core/wire.*): varint primitives,
// exact size accounting, round trips for every message kind, and decode
// robustness against corrupt input.

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

TEST(WireTest, BatchOfMinimalUpdatesRoundTrips) {
  // A default-constructed update is the smallest on the wire: the txn
  // id's two one-byte varints, the flag byte and the write count. Its
  // origin site repeats the txn id's and its timestamp is empty, so
  // neither is sent (flag bits 16 and 32), nor a commit time or stamp.
  // The batch decoder's count bound must admit a batch of only those.
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(SecondaryUpdate{})), 1u + 4u);
  SecondaryBatch batch;
  batch.updates.resize(3);
  ExpectRoundTrip(ProtocolMessage(batch));
}

TEST(WireTest, SizesAreCompact) {
  // An empty-ish control message stays tiny; a 3-write update is small.
  EXPECT_LE(Wire::EncodedSize(ProtocolMessage(TpcAck{{0, 1}})), 4u);
  EXPECT_LE(Wire::EncodedSize(ProtocolMessage(SampleUpdate())), 64u);
}

TEST(WireTest, TreeUpdateSendsNoOriginSiteOrTimestamp) {
  // A DAG(WT)/BackEdge/NaiveLazy update: origin site = the txn id's, no
  // timestamp. Tag, txn id (1 + 2), flags, write count, two writes
  // (1 + 1 and 2 + 2): 12 bytes, 3 fewer than when the origin site (1)
  // and the empty timestamp's epoch and tuple count (1 + 1) went inline.
  SecondaryUpdate u;
  u.origin = {2, 300};
  u.origin_site = 2;
  u.writes = {{7, 9}, {100, 1000}};
  EXPECT_EQ(Wire::EncodedSize(ProtocolMessage(u)), 12u);
  ExpectRoundTrip(ProtocolMessage(u));
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

TEST(WireDecodeTest, RejectsGarbage) {
  EXPECT_FALSE(Wire::Decode({}).ok());
  EXPECT_FALSE(Wire::Decode({0xFF}).ok());        // Unknown tag.
  EXPECT_FALSE(Wire::Decode({0x00}).ok());        // Truncated body.
  EXPECT_FALSE(Wire::Decode({0x06, 0x02}).ok());  // Truncated txn id.
}

TEST(WireDecodeTest, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = Wire::Encode(ProtocolMessage(TpcAck{{0, 1}}));
  bytes.push_back(0x00);
  EXPECT_FALSE(Wire::Decode(bytes).ok());
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
    // SecondaryUpdate (tag 0) claiming 2^40 timestamp tuples.
    std::vector<uint8_t> bytes = {0x00};
    Wire::PutSigned(&bytes, 1);        // origin.origin_site
    Wire::PutSigned(&bytes, 2);        // origin.seq
    Wire::PutSigned(&bytes, 1);        // origin_site
    bytes.push_back(0x00);             // flags
    Wire::PutSigned(&bytes, 0);        // ts epoch
    Wire::PutVarint(&bytes, 1ull << 40);  // ts tuple count: absurd
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
  {
    // SecondaryUpdate with a valid (empty) timestamp but an absurd
    // write count.
    std::vector<uint8_t> bytes = {0x00};
    Wire::PutSigned(&bytes, 1);
    Wire::PutSigned(&bytes, 2);
    Wire::PutSigned(&bytes, 1);
    bytes.push_back(0x00);
    Wire::PutSigned(&bytes, 0);        // ts epoch
    Wire::PutVarint(&bytes, 0);        // ts tuple count
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
    // ReliableData (tag 11) whose inner length exceeds the remaining
    // bytes by one — the bulk copy must not read past the buffer.
    std::vector<uint8_t> bytes = {0x0B};
    Wire::PutVarint(&bytes, 42);       // seq
    Wire::PutVarint(&bytes, 7);        // piggyback_ack
    Wire::PutVarint(&bytes, 5);        // inner length...
    bytes.insert(bytes.end(), {1, 2, 3, 4});  // ...but only 4 bytes.
    EXPECT_FALSE(Wire::Decode(bytes).ok());
    bytes.push_back(5);  // Now exactly 5: must decode.
    Result<ProtocolMessage> ok = Wire::Decode(bytes);
    ASSERT_TRUE(ok.ok());
    const auto& rd = std::get<ReliableData>(*ok);
    EXPECT_EQ(rd.seq, 42u);
    EXPECT_EQ(rd.piggyback_ack, 7u);
    EXPECT_EQ(rd.inner, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  }
  {
    // ReliableData with a 2^50 length prefix: rejected before any
    // allocation.
    std::vector<uint8_t> bytes = {0x0B};
    Wire::PutVarint(&bytes, 0);        // seq
    Wire::PutVarint(&bytes, 0);        // piggyback_ack
    Wire::PutVarint(&bytes, 1ull << 50);
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
  {
    // ReliableBatch (tag 13) claiming 2^40 inner messages.
    std::vector<uint8_t> bytes = {0x0D};
    Wire::PutVarint(&bytes, 1);        // seq
    Wire::PutVarint(&bytes, 0);        // piggyback_ack
    Wire::PutVarint(&bytes, 1ull << 40);  // count: absurd
    Wire::PutVarint(&bytes, 0);        // inner length
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
  {
    // ReliableBatch whose inner length runs past the buffer.
    std::vector<uint8_t> bytes = {0x0D};
    Wire::PutVarint(&bytes, 1);        // seq
    Wire::PutVarint(&bytes, 0);        // piggyback_ack
    Wire::PutVarint(&bytes, 2);        // count
    Wire::PutVarint(&bytes, 1ull << 50);  // inner length: absurd
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
}

TEST(WireDecodeTest, RejectsOversizedCountsBehindFlagBits) {
  // The timestamp and origin site now follow only when the flags say
  // so; a hostile count behind those bits is rejected the same way.
  {
    // A timestamp (bit 32) claiming 2^40 tuples.
    std::vector<uint8_t> bytes = {0x00};
    Wire::PutSigned(&bytes, 1);        // origin.origin_site
    Wire::PutSigned(&bytes, 2);        // origin.seq
    bytes.push_back(32);               // flags: a timestamp follows
    Wire::PutSigned(&bytes, 0);        // ts epoch
    Wire::PutVarint(&bytes, 1ull << 40);  // ts tuple count: absurd
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
  {
    // An origin site and a timestamp (bits 16 and 32), then an absurd
    // write count.
    std::vector<uint8_t> bytes = {0x00};
    Wire::PutSigned(&bytes, 1);        // origin.origin_site
    Wire::PutSigned(&bytes, 2);        // origin.seq
    bytes.push_back(16 | 32);          // flags
    Wire::PutSigned(&bytes, 4);        // origin_site
    Wire::PutSigned(&bytes, 3);        // ts epoch
    Wire::PutVarint(&bytes, 0);        // ts tuple count
    Wire::PutVarint(&bytes, 1ull << 40);  // write count: absurd
    EXPECT_FALSE(Wire::Decode(bytes).ok());
  }
}

TEST(WireDecodeTest, RejectsHostileSharedCount) {
  // The shared tuples are not on the wire, so the count behind bit 64 is
  // bounded by the site id range instead of by the bytes left.
  auto with_shared = [](uint64_t shared) {
    std::vector<uint8_t> bytes = {0x00};
    Wire::PutSigned(&bytes, 1);        // origin.origin_site
    Wire::PutSigned(&bytes, 2);        // origin.seq
    bytes.push_back(64);               // flags: a shared count follows
    Wire::PutVarint(&bytes, shared);
    Wire::PutVarint(&bytes, 0);        // write count
    return bytes;
  };
  EXPECT_FALSE(Wire::Decode(with_shared(1ull << 40)).ok());
  EXPECT_FALSE(Wire::Decode(with_shared(1ull << 31)).ok());
  Result<ProtocolMessage> ok = Wire::Decode(with_shared((1ull << 31) - 1));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(std::get<SecondaryUpdate>(*ok).ts_shared, (1u << 31) - 1);
  // Truncated inside the count.
  std::vector<uint8_t> cut = with_shared(1ull << 20);
  cut.resize(cut.size() - 2);
  EXPECT_FALSE(Wire::Decode(cut).ok());
}

TEST(WireDecodeTest, RandomByteFuzz) {
  // Random byte strings never crash the decoder.
  Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(rng.Below(40));
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Below(256));
    if (!bytes.empty()) bytes[0] = static_cast<uint8_t>(rng.Below(14));
    (void)Wire::Decode(bytes);  // Must not crash or CHECK.
  }
}

TEST(WireDecodeTest, MutationFuzzRoundTrips) {
  // Mutate single bytes of valid encodings: decode either fails or
  // produces a message that re-encodes cleanly (no internal corruption).
  Rng rng(654);
  std::vector<uint8_t> base = Wire::Encode(ProtocolMessage(SampleUpdate()));
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes = base;
    bytes[rng.Below(bytes.size())] ^=
        static_cast<uint8_t>(1u << rng.Below(8));
    Result<ProtocolMessage> decoded = Wire::Decode(bytes);
    if (decoded.ok()) {
      std::vector<uint8_t> re = Wire::Encode(*decoded);
      EXPECT_FALSE(re.empty());
    }
  }
}

}  // namespace
}  // namespace lazyrep::core
