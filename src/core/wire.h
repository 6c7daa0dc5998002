#ifndef LAZYREP_CORE_WIRE_H_
#define LAZYREP_CORE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/messages.h"

namespace lazyrep::core {

/// Wire encoding of protocol messages.
///
/// The simulation passes message objects in-process, but transmission
/// time on the paper's 10 Mbit ethernet depends on *bytes*, so messages
/// are given a real encoding: one kind byte followed by varint fields.
///
/// The kind byte:
///
///   1 f f f f f f f   a SecondaryUpdate; bits 0-6 are its seven flags
///                     (dummy 1, special 2, commit stamp 4, commit time
///                     8, origin site 16, timestamp 32, shared count 64),
///                     each optional field following only when flagged;
///   0 b i i i i i i   any other kind: bits 0-5 are its variant index in
///                     `ProtocolMessage`, bit 6 its one boolean (a vote's
///                     yes, a decision's commit, PSL's granted and
///                     committed, a transport frame's has-ack).
///
/// The decoder rejects bit 6 on a kind without a boolean. Ids (txn
/// origin site and seq, item and site ids, commit stamps, timestamp
/// tuple sites and LTS) are never below -1 and travel as the unsigned
/// varint of `uint64(id) + 1`, so -1 and ids below 127 cost one byte;
/// site and item ids outside [-1, INT32_MAX] are rejected. Epochs and
/// commit times are zig-zag. A written value travels as its difference
/// from `ProvenanceValue(origin, 0)`, the base of the txn id heading the
/// same message (common/types.h): every value the program writes is
/// `ProvenanceValue(origin, op_index)`, so it costs one byte, while any
/// other int64 still round-trips exactly in up to ten.
/// `PslLockResponse::value` is another transaction's value and goes out
/// raw (zig-zag).
///
/// Each message has exactly one encoding: the decoder rejects overlong
/// varints and flagged fields holding the value their absence means, so
/// `Encode(Decode(b)) == b` for every `b` it accepts.
///
/// `EncodedSize` computes the exact size without materializing the
/// bytes — that is what the network's bandwidth model consumes on every
/// Post — while `Encode`/`Decode` provide the full round trip (used by
/// the reliable transport, by tests, and by anyone porting the engines
/// onto a real transport).
class Wire {
 public:
  /// Appends a varint (LEB128) encoding of `value`.
  static void PutVarint(std::vector<uint8_t>* out, uint64_t value);
  /// Appends a zig-zag varint for signed values.
  static void PutSigned(std::vector<uint8_t>* out, int64_t value);

  /// Reads a varint at `*pos`, advancing it. Fails on truncation, on a
  /// varint wider than 64 bits, and on an overlong one (a continuation
  /// run ending in a 0x00 byte).
  static Result<uint64_t> GetVarint(const std::vector<uint8_t>& in,
                                    size_t* pos);
  static Result<int64_t> GetSigned(const std::vector<uint8_t>& in,
                                   size_t* pos);

  /// Number of bytes PutVarint would write.
  static size_t VarintSize(uint64_t value);
  static size_t SignedSize(int64_t value);

  /// Serializes a protocol message. Reserves the exact size up front
  /// (one allocation).
  static std::vector<uint8_t> Encode(const ProtocolMessage& message);

  /// Appends the serialization of `message` to `*out` without clearing
  /// it — the allocation-free path for senders that reuse a scratch
  /// buffer across messages (e.g. the reliable transport's per-channel
  /// framing buffer). `Encode(m)` == the bytes appended here.
  static void EncodeTo(const ProtocolMessage& message,
                       std::vector<uint8_t>* out);

  /// Exact `Encode(message).size()` without allocating.
  static size_t EncodedSize(const ProtocolMessage& message);

  /// Parses bytes produced by Encode. Fails on truncation, trailing
  /// garbage, an unknown kind, or any byte string Encode would not
  /// produce.
  static Result<ProtocolMessage> Decode(const std::vector<uint8_t>& bytes);
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_WIRE_H_
