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
/// are given a real encoding: a one-byte kind tag followed by
/// varint-encoded fields (zig-zag for signed values). A written value
/// travels as its difference from `ProvenanceValue(origin, 0)`, the base
/// of the txn id heading the same message (common/types.h): every value
/// the program writes is `ProvenanceValue(origin, op_index)`, so it costs
/// one byte, while any other int64 still round-trips exactly in up to
/// ten. `PslLockResponse::value` is another transaction's value and goes
/// out raw. `EncodedSize` computes the exact size without materializing
/// the bytes — that is what the network's bandwidth model consumes on
/// every Post — while `Encode`/`Decode` provide the full round trip
/// (used by tests and by anyone porting the engines onto a real
/// transport).
class Wire {
 public:
  /// Appends a varint (LEB128) encoding of `value`.
  static void PutVarint(std::vector<uint8_t>* out, uint64_t value);
  /// Appends a zig-zag varint for signed values.
  static void PutSigned(std::vector<uint8_t>* out, int64_t value);

  /// Reads a varint at `*pos`, advancing it. Fails on truncation and on
  /// a varint wider than 64 bits.
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
  /// garbage, or an unknown kind tag.
  static Result<ProtocolMessage> Decode(const std::vector<uint8_t>& bytes);
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_WIRE_H_
