#ifndef LAZYREP_CORE_MESSAGES_H_
#define LAZYREP_CORE_MESSAGES_H_

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/timestamp.h"

namespace lazyrep::core {

/// One write of a propagated transaction.
struct WriteRecord {
  ItemId item = kInvalidItem;
  Value value = 0;
};

/// A forwarded secondary subtransaction: the origin transaction's writes,
/// carried along tree edges (DAG(WT)/BackEdge) or copy-graph edges
/// (DAG(T)/NaiveLazy). Every update carries only the writes its
/// receiver needs (Routing::Project): a lazy one those replicated below
/// or at it, a special those replicated on the rest of its path to the
/// origin (none on the hop into the origin).
struct SecondaryUpdate {
  GlobalTxnId origin;
  std::vector<WriteRecord> writes;
  /// DAG(T): the transaction's timestamp; unused by the other protocols,
  /// whose empty timestamp costs no wire bytes (it travels behind a
  /// flags bit, and its tuples' sites and LTS as unsigned ids). On the
  /// wire it is a delta (`ts_shared`).
  Timestamp ts;
  /// DAG(T): how many leading tuples of the timestamp equal those of the
  /// previous timestamp sent on the same (sender, receiver) channel.
  /// Between `DagTEngine::PostToChild` and `DagTEngine::OnMessage`, `ts`
  /// holds only the remaining tuples and the epoch; the receiver
  /// rebuilds the whole timestamp (`Timestamp::Rebuild`) before queueing
  /// it. 0 means `ts` is whole, and costs no wire bytes (flags bit 64).
  uint32_t ts_shared = 0;
  /// DAG(T) §3.3: an empty update that only pushes the receiver's site
  /// timestamp/epoch forward.
  bool is_dummy = false;
  /// BackEdge §4.1: a "special" secondary subtransaction relayed down the
  /// tree from the farthest backedge site toward the origin; executed but
  /// not committed until the 2PC at the origin.
  bool is_special = false;
  /// Origin site of the transaction (identifies the special's endpoint);
  /// a DAG(T) dummy's sender. Sent behind a flags bit only when it
  /// differs from `origin.origin_site`, i.e. on dummies.
  ///
  /// The update's seven flags (this and the other optional fields, plus
  /// `is_dummy` and `is_special`) are bits 0-6 of its kind byte, whose
  /// bit 7 marks an update (core/wire.h): no flag byte of their own.
  SiteId origin_site = kInvalidSite;
  /// When the origin (primary) committed (0 = absent). Set and read only
  /// by NaiveLazy's last-writer-wins applier. Encoded behind a flags bit,
  /// so the protocols that leave it 0 ship no bytes for it.
  SimTime origin_commit_time = 0;
  /// The origin's commit *stamp* (commit_seq + 1; 0 = absent). Only
  /// populated under MVCC consistency levels (docs/MVCC.md): appliers
  /// feed it to `Database::NoteOriginApplied` so RYW sessions can wait
  /// for their own writes at remote sites. Encoded behind a flags bit as
  /// an unsigned id — absent it costs zero wire bytes, keeping default
  /// schedules and bandwidth timing byte-identical.
  int64_t origin_commit_seq = 0;
};

/// BackEdge §4.1 step 1: the first backedge subtransaction, sent directly
/// from the origin to the farthest backedge site. It carries the writes
/// replicated on the tree path from that site down to the origin.
struct BackedgeStart {
  GlobalTxnId origin;
  SiteId origin_site = kInvalidSite;
  std::vector<WriteRecord> writes;
  /// Unread and not on the wire (decodes as 0); kept only while the
  /// codec benchmark aggregate-initializes the struct.
  SimTime primary_done_time = 0;
};

/// BackEdge: the origin transaction was chosen as a deadlock victim;
/// every site on the backedge path rolls back its uncommitted proxy.
struct BackedgeAbort {
  GlobalTxnId origin;
};

/// Two-phase-commit messages (BackEdge step 3; Eager commit).
/// A kind's one boolean (`yes`, `commit`) rides bit 6 of its kind byte.
struct TpcPrepare {
  GlobalTxnId origin;
  /// Unread and not on the wire (decodes as `kInvalidSite`); kept only
  /// while the codec benchmark aggregate-initializes the struct.
  SiteId coordinator = kInvalidSite;
  /// Eager only: the writes to apply at the participant before voting —
  /// those it replicates.
  std::vector<WriteRecord> writes;
  /// Unread and not on the wire (decodes as false); kept only while the
  /// codec benchmark aggregate-initializes the struct.
  bool carries_writes = false;
};
struct TpcVote {
  GlobalTxnId origin;
  bool yes = false;
};
struct TpcDecision {
  GlobalTxnId origin;
  bool commit = false;
  /// Unread and not on the wire (decodes as 0); kept only while the
  /// codec benchmark aggregate-initializes the struct.
  SimTime origin_commit_time = 0;
};
struct TpcAck {
  GlobalTxnId origin;
};

/// PSL remote read: request an S lock (and the current value) from the
/// item's primary site.
struct PslLockRequest {
  GlobalTxnId origin;
  ItemId item = kInvalidItem;
  uint64_t request_id = 0;
};
struct PslLockResponse {
  GlobalTxnId origin;
  ItemId item = kInvalidItem;
  uint64_t request_id = 0;
  bool granted = false;
  Value value = 0;
};
/// PSL: the origin committed or aborted; release its proxy locks here.
/// `committed` decides whether the proxy commits (records history) or
/// rolls back. It and `PslLockResponse::granted` ride bit 6 of the kind
/// byte.
struct PslRelease {
  GlobalTxnId origin;
  bool committed = false;
};

/// Several secondary subtransactions in one message. No engine sends it
/// (batching is the transport's `ReliableBatch`); the type and its wire
/// tag 10 stay only while the codec benchmark samples them. Each inner
/// update spends a flag byte of its own (bit 7 clear).
struct SecondaryBatch {
  std::vector<SecondaryUpdate> updates;
};

/// Reliable-delivery layer (fault::ReliableTransport): one sequenced
/// protocol message on a (src, dst) channel. `inner` is the wrapped
/// message's `Wire::Encode` bytes — carrying the encoding rather than
/// the variant avoids a recursive variant, exercises the codec on every
/// delivery, and makes the byte accounting exact. On the wire the has-ack
/// flag rides bit 6 of the kind byte, `seq` is a plain varint, the ack
/// follows only when carried, and `inner` runs to the end of the frame
/// (no length prefix).
struct ReliableData {
  uint64_t seq = 0;
  /// Piggybacked cumulative ack for the reverse channel (dst -> src data):
  /// 0 means "none carried" (real cumulative acks start at 1).
  /// `fault::ReliableTransport` sends its acks standalone and leaves it 0.
  uint64_t piggyback_ack = 0;
  std::vector<uint8_t> inner;
};

/// Reliable-delivery layer: cumulative ack for a (src, dst) channel —
/// every data seq <= `cum_ack` has been delivered at the receiver.
struct ChannelAck {
  uint64_t cum_ack = 0;
};

/// Reliable-delivery layer, coalesced: N inner protocol messages shipped
/// under one channel sequence number. `inner` holds `count` records of
/// [varint length][Wire::Encode bytes], in channel-FIFO order, and runs
/// to the end of the frame. Same header and piggyback semantics as
/// `ReliableData`, with `count` after the header.
struct ReliableBatch {
  uint64_t seq = 0;
  uint64_t piggyback_ack = 0;
  uint32_t count = 0;
  std::vector<uint8_t> inner;
};

using ProtocolMessage =
    std::variant<SecondaryUpdate, BackedgeStart, BackedgeAbort, TpcPrepare,
                 TpcVote, TpcDecision, TpcAck, PslLockRequest,
                 PslLockResponse, PslRelease, SecondaryBatch, ReliableData,
                 ChannelAck, ReliableBatch>;

/// Short kind label for logging/tracing.
inline std::string_view MessageKindName(const ProtocolMessage& message) {
  struct Visitor {
    std::string_view operator()(const SecondaryUpdate& u) const {
      if (u.is_dummy) return "dummy";
      return u.is_special ? "special_secondary" : "secondary";
    }
    std::string_view operator()(const BackedgeStart&) const {
      return "backedge_start";
    }
    std::string_view operator()(const BackedgeAbort&) const {
      return "backedge_abort";
    }
    std::string_view operator()(const TpcPrepare&) const {
      return "2pc_prepare";
    }
    std::string_view operator()(const TpcVote&) const { return "2pc_vote"; }
    std::string_view operator()(const TpcDecision&) const {
      return "2pc_decision";
    }
    std::string_view operator()(const TpcAck&) const { return "2pc_ack"; }
    std::string_view operator()(const PslLockRequest&) const {
      return "psl_lock_request";
    }
    std::string_view operator()(const PslLockResponse&) const {
      return "psl_lock_response";
    }
    std::string_view operator()(const PslRelease&) const {
      return "psl_release";
    }
    std::string_view operator()(const SecondaryBatch&) const {
      return "secondary_batch";
    }
    std::string_view operator()(const ReliableData&) const {
      return "reliable_data";
    }
    std::string_view operator()(const ChannelAck&) const {
      return "channel_ack";
    }
    std::string_view operator()(const ReliableBatch&) const {
      return "reliable_batch";
    }
  };
  return std::visit(Visitor{}, message);
}

/// Dense metric-kind index for `Network::SetMetrics`: the variant index
/// for most kinds, with dummy and special secondaries — which carry
/// distinct kind labels (see `MessageKindName`) but share variant slot
/// 0 — appended as two extra ids after the variant kinds.
inline constexpr int kNumMessageMetricKinds =
    static_cast<int>(std::variant_size_v<ProtocolMessage>) + 2;

inline int MessageMetricKind(const ProtocolMessage& message) {
  if (const auto* u = std::get_if<SecondaryUpdate>(&message)) {
    constexpr int n = static_cast<int>(std::variant_size_v<ProtocolMessage>);
    if (u->is_dummy) return n;
    if (u->is_special) return n + 1;
  }
  return static_cast<int>(message.index());
}

/// Kind label for a dense metric-kind id — `MessageKindName` by index.
inline std::string_view MessageMetricKindName(int kind) {
  static constexpr std::string_view kNames[] = {
      "secondary",      "backedge_start",    "backedge_abort",
      "2pc_prepare",    "2pc_vote",          "2pc_decision",
      "2pc_ack",        "psl_lock_request",  "psl_lock_response",
      "psl_release",    "secondary_batch",   "reliable_data",
      "channel_ack",    "reliable_batch",    "dummy",
      "special_secondary"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(kNumMessageMetricKinds));
  return kNames[kind];
}

/// Origin transaction a message belongs to (invalid id for kinds without
/// one).
inline GlobalTxnId MessageOrigin(const ProtocolMessage& message) {
  return std::visit(
      [](const auto& m) -> GlobalTxnId {
        if constexpr (requires { m.origin; }) {
          return m.origin;
        } else if constexpr (requires { m.updates; }) {
          return m.updates.empty() ? GlobalTxnId{} : m.updates[0].origin;
        } else {
          return GlobalTxnId{};
        }
      },
      message);
}

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_MESSAGES_H_
