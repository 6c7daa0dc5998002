#ifndef LAZYREP_FAULT_RELIABLE_TRANSPORT_H_
#define LAZYREP_FAULT_RELIABLE_TRANSPORT_H_

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/wire.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/registry.h"
#include "runtime/runtime.h"

namespace lazyrep::fault {

/// Restores the engines' reliable exactly-once FIFO channel contract
/// over a lossy `Network` (ARQ, TCP-style): every engine message is
/// wrapped in a `ReliableData` frame carrying a per-(src, dst)-channel
/// sequence number and the `Wire::Encode` bytes of the wrapped message;
/// the receiver delivers frames in sequence order (stashing out-of-order
/// arrivals, discarding duplicates) and returns a cumulative `ChannelAck`
/// on every data receipt; when a channel makes no progress for one RTO
/// the sender resends the head-of-window frame (cumulative acks make
/// repairing the head gap sufficient), with capped exponential backoff.
/// Acks travel on the raw network — they are lossy too, but cumulative,
/// so any later ack supersedes a lost one.
///
/// Batching (docs/PERFORMANCE.md §6), all off by default:
///  - Frame coalescing (`Config::batch_window > 0`): posts accumulate in
///    a per-channel send buffer and ship as one `ReliableBatch` frame
///    (one sequence number, N length-prefixed inner encodings) when the
///    buffer reaches `batch_bytes` or the window elapses. Flush order is
///    post order, so per-channel FIFO — and with it DAG(T)'s timestamp
///    order — is untouched.
///  - Ack piggybacking (`Config::piggyback_acks`): a receipt marks the
///    channel "ack owed" instead of posting a standalone `ChannelAck`;
///    the next reverse-direction data/batch frame carries the cumulative
///    ack in its `piggyback_ack` field, and a fallback timer sends the
///    standalone ack after `ack_delay` if no reverse traffic appears.
///    Piggybacks are cumulative like everything else, so a lost one is
///    repaired by any later ack (standalone or piggybacked).
///
/// Machine confinement (no locks needed on the hot path): a channel's
/// send state is touched only on the source machine (`Post` runs there
/// by construction, acks are delivered to the original sender there, and
/// the retransmitter is spawned there); its receive state only on the
/// destination machine. A piggybacked ack for channel (dst, src) rides a
/// (src, dst) data frame: it is read at `dst`, where both the (src, dst)
/// receive state and the (dst, src) send state live. The aggregate
/// counters backing `Quiescent()` are atomics because the driver thread
/// polls them.
///
/// Crash semantics: the transport itself is declared durable (sequence
/// numbers and queued frames survive a crash — the stand-in for a real
/// system's logged propagation streams, see docs/FAULTS.md). What a
/// crash does interrupt is *engine* delivery: frames for a down site
/// park in a per-site pending queue and are flushed, still in order,
/// by `FlushPending` during restart.
class ReliableTransport : public net::Transport<core::ProtocolMessage> {
 public:
  using Message = core::ProtocolMessage;
  using Net = net::Network<Message>;
  /// Engine-facing delivery callback for one site. `batch_end` is false
  /// for every message of a coalesced batch except the last (see
  /// `Network::Envelope::batch_end`).
  using Handler =
      std::function<void(SiteId src, Message message, bool batch_end)>;

  struct Config {
    /// Initial retransmission timeout. A data+ack round trip is not just
    /// two 0.15 ms wire hops: under the paper's cost model each message
    /// charges 0.5 ms of CPU at the sender and receiver, so even through
    /// idle CPUs the round trip is ~2.3 ms — and CPU queueing on a
    /// loaded machine stretches it much further. A timeout below the
    /// real round trip is self-amplifying (every spurious retransmission
    /// burns more CPU, delaying acks further), so leave generous room.
    Duration rto_initial = Millis(10);
    /// Backoff cap.
    Duration rto_max = Millis(100);
    /// Frame coalescing window; 0 = off (every post ships immediately).
    Duration batch_window = 0;
    /// Size flush threshold for the per-channel send buffer.
    size_t batch_bytes = 16 * 1024;
    /// Carry cumulative acks on reverse-direction data frames.
    bool piggyback_acks = false;
    /// Fallback delay before an owed ack goes out standalone. Must stay
    /// below `rto_initial`, or the sender retransmits before a quiet
    /// receiver ever acks.
    Duration ack_delay = Millis(5);

    static Config FromBatching(const core::BatchingOptions& batching) {
      Config config;
      config.batch_window = batching.window;
      config.batch_bytes = batching.max_bytes;
      config.piggyback_acks = batching.piggyback_acks;
      config.ack_delay = batching.ack_delay;
      return config;
    }
  };

  ReliableTransport(runtime::Runtime* rt, Net* net, FaultInjector* injector,
                    int num_sites)
      : ReliableTransport(rt, net, injector, num_sites, Config()) {}

  ReliableTransport(runtime::Runtime* rt, Net* net,
                    FaultInjector* injector, int num_sites, Config config)
      : rt_(rt),
        net_(net),
        injector_(injector),
        config_(config),
        num_sites_(num_sites),
        send_(static_cast<size_t>(num_sites) * num_sites),
        recv_(static_cast<size_t>(num_sites) * num_sites),
        pending_(num_sites),
        handlers_(num_sites) {
    LAZYREP_CHECK_GT(num_sites, 0);
    LAZYREP_CHECK(!config_.piggyback_acks ||
                  config_.ack_delay < config_.rto_initial)
        << "ack_delay must undercut rto_initial or every quiet channel "
           "retransmits";
    // Acks bypass the per-message CPU charges: they model TCP's
    // kernel-level acknowledgements, which sit below the paper's cost
    // model. Charging them would double DAG(T)'s per-message CPU bill
    // and push a loaded machine past saturation. Batch frames are data,
    // not control: they pay the per-message CPU once per frame.
    net_->SetControlClassifier([](const Message& message) {
      return std::holds_alternative<core::ChannelAck>(message);
    });
    for (SiteId s = 0; s < num_sites; ++s) {
      net_->SetHandler(s, [this](Net::Envelope env) {
        OnNetworkDeliver(std::move(env));
      });
    }
  }

  /// Registers the engine-facing handler for `site` (replaces what
  /// `Network::SetHandler` would have been used for).
  void SetHandler(SiteId site, Handler handler) {
    handlers_[Check(site)] = std::move(handler);
  }

  /// Optional metrics sink: retransmission/duplicate/delivery counters,
  /// an ack-RTT histogram (first-transmission frames only, Karn's rule:
  /// a retransmitted frame's ack is ambiguous), and a send-window
  /// occupancy peak gauge. Set before traffic starts.
  void SetMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    retransmissions_counter_ = registry->GetCounter(
        "lazyrep_transport_retransmissions_total", {},
        "Head-of-window frames resent after an RTO expiry");
    duplicates_counter_ = registry->GetCounter(
        "lazyrep_transport_duplicates_discarded_total", {},
        "Received frames discarded as already-seen sequence numbers");
    delivered_counter_ = registry->GetCounter(
        "lazyrep_transport_delivered_total", {},
        "Messages handed to an engine handler exactly once, in order");
    ack_rtt_ms_ = registry->GetHistogram(
        "lazyrep_transport_ack_rtt_ms", {},
        "Data-to-cumulative-ack round trip (ms), first transmissions only");
    window_peak_ = registry->GetGauge(
        "lazyrep_transport_window_peak", {},
        "High watermark of unacked frames on any one channel");
  }

  /// Wraps, sequences and sends — or, with coalescing on, buffers for
  /// the channel's next flush. Called from the source machine. Posts
  /// after `BeginShutdown` are refused (counted, dropped): a sequenced
  /// frame with no retransmitter behind it would stall the channel
  /// forever if dropped, and shutdown begins only after quiescence, so
  /// anything arriving here is a late liveness timer, not owed work.
  void Post(SiteId src, SiteId dst, Message payload) override {
    Check(src);
    Check(dst);
    if (shutdown_.load(std::memory_order_acquire)) {
      posts_refused_.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    SendState& ch = send_[ChannelIndex(src, dst)];
    const bool counted = !IsLivenessOnly(payload);
    if (config_.batch_window > 0) {
      // Coalesce: append [varint length][encoding] to the channel
      // buffer. Counted messages enter the quiescence accounting now —
      // buffered work is still owed work.
      ch.scratch.clear();
      core::Wire::EncodeTo(payload, &ch.scratch);
      core::Wire::PutVarint(&ch.buffer, ch.scratch.size());
      ch.buffer.insert(ch.buffer.end(), ch.scratch.begin(),
                       ch.scratch.end());
      ++ch.buffer_count;
      if (counted) {
        ++ch.buffer_counted;
        unacked_total_.fetch_add(1, std::memory_order_acq_rel);
      }
      if (ch.buffer.size() >= config_.batch_bytes) {
        FlushChannel(src, dst);
      } else if (!ch.flusher_scheduled) {
        ch.flusher_scheduled = true;
        rt_->Spawn(WindowFlusher(src, dst));
      }
      return;
    }
    core::ReliableData data;
    data.seq = ch.next_seq++;
    if (config_.piggyback_acks) data.piggyback_ack = TakeOwedAck(src, dst);
    // Encode into the channel's scratch buffer (machine-confined, warm
    // capacity after the first frame — one visitor pass, no counting
    // pre-pass), then size the frame's own copy exactly.
    ch.scratch.clear();
    core::Wire::EncodeTo(payload, &ch.scratch);
    data.inner = ch.scratch;
    ShipFrame(src, dst, data.seq, counted ? 1 : 0, Message(std::move(data)));
  }

  /// Flushes every channel send buffer out of `src` immediately (tests
  /// and scripted scenarios; the window/size triggers handle normal
  /// operation). Run on `src`'s machine.
  void FlushAllFrom(SiteId src) {
    for (SiteId dst = 0; dst < num_sites_; ++dst) {
      FlushChannel(Check(src), dst);
    }
  }

  /// Delivers every frame parked for `site` while it was down, in FIFO
  /// order. Run on `site`'s machine after the injector marks it up.
  void FlushPending(SiteId site) {
    std::deque<PendingDelivery>& queue = pending_[Check(site)];
    while (!queue.empty()) {
      PendingDelivery d = std::move(queue.front());
      queue.pop_front();
      if (d.counted) {
        pending_total_.fetch_sub(1, std::memory_order_acq_rel);
      }
      DeliverToEngine(d.src, site, std::move(d.message), d.batch_end);
    }
  }

  /// Stops the retransmitters (they exit at their next timer tick) and
  /// makes any further `Post` an explicit refusal.
  void BeginShutdown() { shutdown_.store(true, std::memory_order_release); }

  /// No message buffered or awaiting ack, none stashed out of order,
  /// none parked for a down site. DAG(T) liveness dummies are excluded
  /// from the accounting: the DummySender emits them on a timer until
  /// shutdown, so there is nearly always one in flight — but a dummy in
  /// flight is not work the system owes anyone (the engine-level
  /// `Quiescent` ignores pending dummies for the same reason).
  bool Quiescent() const {
    return unacked_total_.load(std::memory_order_acquire) == 0 &&
           stashed_total_.load(std::memory_order_acquire) == 0 &&
           pending_total_.load(std::memory_order_acquire) == 0;
  }

  uint64_t retransmissions() const {
    return retransmissions_.load(std::memory_order_acquire);
  }
  uint64_t duplicates_discarded() const {
    return duplicates_discarded_.load(std::memory_order_acquire);
  }
  uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  /// First-transmission frames shipped (plain data + batch frames).
  uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_acquire);
  }
  /// Subset of `frames_sent` that were coalesced `ReliableBatch` frames.
  uint64_t batch_frames_sent() const {
    return batch_frames_sent_.load(std::memory_order_acquire);
  }
  /// Standalone `ChannelAck` frames posted (per-receipt or fallback).
  uint64_t acks_standalone() const {
    return acks_standalone_.load(std::memory_order_acquire);
  }
  /// Cumulative acks that rode a reverse-direction data/batch frame
  /// while owed (each one a standalone ack not sent).
  uint64_t acks_piggybacked() const {
    return acks_piggybacked_.load(std::memory_order_acquire);
  }
  /// Posts refused because they arrived after `BeginShutdown`.
  uint64_t posts_refused() const {
    return posts_refused_.load(std::memory_order_acquire);
  }

 private:
  struct Outstanding {
    /// The exact frame on the wire (`ReliableData` or `ReliableBatch`),
    /// resent verbatim on RTO expiry.
    Message frame;
    uint64_t seq = 0;
    /// Messages inside the frame counting toward `Quiescent`.
    int counted = 0;
    /// When the frame first hit the wire (ack RTT measurement).
    SimTime first_sent = 0;
    /// At least one retransmission happened; its ack RTT is ambiguous.
    bool retransmitted = false;
  };
  struct SendState {
    uint64_t next_seq = 1;
    std::deque<Outstanding> unacked;
    bool retransmitter_running = false;
    /// Reused framing buffer (machine-confined like the rest of the
    /// channel's send state).
    std::vector<uint8_t> scratch;
    /// Coalescing buffer: [varint length][encoding] per pending message.
    std::vector<uint8_t> buffer;
    uint32_t buffer_count = 0;
    int buffer_counted = 0;
    bool flusher_scheduled = false;
  };
  struct Stashed {
    /// Decoded inner messages, in channel order (one for a plain data
    /// frame, N for a batch frame).
    std::vector<Message> messages;
    int counted = 0;
  };
  struct RecvState {
    uint64_t next_expected = 1;
    std::map<uint64_t, Stashed> stash;
    /// Piggybacking: a receipt happened and no ack has gone out yet.
    bool ack_owed = false;
    bool ack_timer_running = false;
  };
  struct PendingDelivery {
    SiteId src = kInvalidSite;
    Message message;
    bool counted = true;
    bool batch_end = true;
  };

  /// DAG(T) §3.3 dummies carry no writes — only a timestamp push. They
  /// are the one message kind that is perpetually in flight by design.
  static bool IsLivenessOnly(const Message& message) {
    const auto* update = std::get_if<core::SecondaryUpdate>(&message);
    return update != nullptr && update->is_dummy;
  }

  size_t ChannelIndex(SiteId src, SiteId dst) const {
    return static_cast<size_t>(src) * num_sites_ + dst;
  }
  SiteId Check(SiteId s) const {
    LAZYREP_CHECK(s >= 0 && s < num_sites_) << "bad site " << s;
    return s;
  }

  /// Consumes the owed-ack state of the reverse channel (data flowing
  /// dst -> src) and returns the cumulative ack to carry on a (src, dst)
  /// frame; 0 when nothing was ever received. Runs at `src`, where the
  /// (dst, src) receive state lives.
  uint64_t TakeOwedAck(SiteId src, SiteId dst) {
    RecvState& reverse = recv_[ChannelIndex(dst, src)];
    if (reverse.next_expected <= 1) return 0;
    if (reverse.ack_owed) {
      reverse.ack_owed = false;
      acks_piggybacked_.fetch_add(1, std::memory_order_acq_rel);
    }
    // Carry the cumulative ack even when none is owed: it is free and
    // supersedes any lost earlier ack.
    return reverse.next_expected - 1;
  }

  /// Sequences `frame` into the channel window and puts it on the wire.
  void ShipFrame(SiteId src, SiteId dst, uint64_t seq, int counted,
                 Message frame) {
    SendState& ch = send_[ChannelIndex(src, dst)];
    ch.unacked.push_back(Outstanding{frame, seq, counted, rt_->Now(), false});
    if (counted > 0) {
      unacked_total_.fetch_add(static_cast<uint64_t>(counted),
                               std::memory_order_acq_rel);
    }
    if (window_peak_ != nullptr) {
      window_peak_->MaxWith(static_cast<double>(ch.unacked.size()));
    }
    frames_sent_.fetch_add(1, std::memory_order_acq_rel);
    net_->Post(src, dst, std::move(frame));
    if (!ch.retransmitter_running && !shutdown_.load()) {
      ch.retransmitter_running = true;
      rt_->Spawn(Retransmitter(src, dst));
    }
  }

  /// Ships the channel's coalescing buffer as one frame: a plain
  /// `ReliableData` when a single message is pending (no batch framing
  /// overhead), a `ReliableBatch` otherwise. The buffered messages were
  /// already counted into `unacked_total_` at post time, so `ShipFrame`
  /// must not count them again.
  void FlushChannel(SiteId src, SiteId dst) {
    SendState& ch = send_[ChannelIndex(src, dst)];
    if (ch.buffer_count == 0) return;
    const uint64_t piggyback =
        config_.piggyback_acks ? TakeOwedAck(src, dst) : 0;
    const int counted = ch.buffer_counted;
    Message frame;
    uint64_t seq = ch.next_seq++;
    if (ch.buffer_count == 1) {
      core::ReliableData data;
      data.seq = seq;
      data.piggyback_ack = piggyback;
      size_t pos = 0;
      Result<uint64_t> len = core::Wire::GetVarint(ch.buffer, &pos);
      LAZYREP_CHECK(len.ok() && pos + *len == ch.buffer.size());
      data.inner.assign(ch.buffer.begin() + static_cast<ptrdiff_t>(pos),
                        ch.buffer.end());
      frame = std::move(data);
    } else {
      core::ReliableBatch batch;
      batch.seq = seq;
      batch.piggyback_ack = piggyback;
      batch.count = ch.buffer_count;
      batch.inner = ch.buffer;
      frame = std::move(batch);
      batch_frames_sent_.fetch_add(1, std::memory_order_acq_rel);
    }
    ch.buffer.clear();
    ch.buffer_count = 0;
    ch.buffer_counted = 0;
    // Counted at post time; pass 0 so ShipFrame does not double-count,
    // then fix up the window entry so the eventual ack decrements right.
    ShipFrame(src, dst, seq, 0, std::move(frame));
    ch.unacked.back().counted = counted;
  }

  /// Single-shot window flusher for one channel; runs on the source
  /// machine. A size-triggered flush during the delay just means this
  /// tick flushes whatever accumulated since (possibly nothing).
  runtime::Co<void> WindowFlusher(SiteId src, SiteId dst) {
    SendState& ch = send_[ChannelIndex(src, dst)];
    co_await rt_->Delay(config_.batch_window);
    ch.flusher_scheduled = false;
    if (!shutdown_.load(std::memory_order_acquire)) {
      FlushChannel(src, dst);
    }
  }

  /// Raw network delivery at `env.dst`'s machine: data/batch frames feed
  /// the receive state (their piggybacked ack feeds the reverse send
  /// state first), acks feed the send state, anything else is a bug.
  void OnNetworkDeliver(Net::Envelope env) {
    if (auto* data = std::get_if<core::ReliableData>(&env.payload)) {
      if (data->piggyback_ack > 0) {
        OnAck(/*src=*/env.dst, /*dst=*/env.src,
              core::ChannelAck{data->piggyback_ack});
      }
      std::vector<Message> inners;
      Result<Message> inner = core::Wire::Decode(data->inner);
      LAZYREP_CHECK(inner.ok()) << inner.status().ToString();
      inners.push_back(std::move(*inner));
      OnFrame(env.src, env.dst, data->seq, std::move(inners));
    } else if (auto* batch = std::get_if<core::ReliableBatch>(&env.payload)) {
      if (batch->piggyback_ack > 0) {
        OnAck(/*src=*/env.dst, /*dst=*/env.src,
              core::ChannelAck{batch->piggyback_ack});
      }
      OnFrame(env.src, env.dst, batch->seq, DecodeBatch(*batch));
    } else if (auto* ack = std::get_if<core::ChannelAck>(&env.payload)) {
      OnAck(/*src=*/env.dst, /*dst=*/env.src, *ack);
    } else {
      LAZYREP_CHECK(false) << "unframed message on a reliable channel: "
                           << core::MessageKindName(env.payload);
    }
  }

  static std::vector<Message> DecodeBatch(const core::ReliableBatch& batch) {
    std::vector<Message> inners;
    inners.reserve(batch.count);
    size_t pos = 0;
    for (uint32_t i = 0; i < batch.count; ++i) {
      Result<uint64_t> len = core::Wire::GetVarint(batch.inner, &pos);
      LAZYREP_CHECK(len.ok() && pos + *len <= batch.inner.size())
          << "corrupt batch framing";
      std::vector<uint8_t> record(
          batch.inner.begin() + static_cast<ptrdiff_t>(pos),
          batch.inner.begin() + static_cast<ptrdiff_t>(pos + *len));
      pos += *len;
      Result<Message> inner = core::Wire::Decode(record);
      LAZYREP_CHECK(inner.ok()) << inner.status().ToString();
      inners.push_back(std::move(*inner));
    }
    LAZYREP_CHECK(pos == batch.inner.size()) << "trailing batch bytes";
    return inners;
  }

  /// One sequenced frame's worth of inner messages: dedup by seq, stash,
  /// drain in order, acknowledge the receipt.
  void OnFrame(SiteId src, SiteId dst, uint64_t seq,
               std::vector<Message> inners) {
    RecvState& ch = recv_[ChannelIndex(src, dst)];
    if (seq < ch.next_expected || ch.stash.find(seq) != ch.stash.end()) {
      duplicates_discarded_.fetch_add(1, std::memory_order_acq_rel);
      if (duplicates_counter_ != nullptr) duplicates_counter_->Increment();
    } else {
      int counted = 0;
      for (const Message& m : inners) {
        if (!IsLivenessOnly(m)) ++counted;
      }
      ch.stash.emplace(seq, Stashed{std::move(inners), counted});
      if (counted > 0) {
        stashed_total_.fetch_add(static_cast<uint64_t>(counted),
                                 std::memory_order_acq_rel);
      }
      for (auto it = ch.stash.find(ch.next_expected);
           it != ch.stash.end() && it->first == ch.next_expected;
           it = ch.stash.find(ch.next_expected)) {
        Stashed stashed = std::move(it->second);
        ch.stash.erase(it);
        if (stashed.counted > 0) {
          stashed_total_.fetch_sub(static_cast<uint64_t>(stashed.counted),
                                   std::memory_order_acq_rel);
        }
        ++ch.next_expected;
        for (size_t i = 0; i < stashed.messages.size(); ++i) {
          Message& m = stashed.messages[i];
          const bool batch_end = (i + 1 == stashed.messages.size());
          if (injector_ != nullptr && !injector_->IsUp(dst)) {
            const bool counted_msg = !IsLivenessOnly(m);
            pending_[dst].push_back(
                PendingDelivery{src, std::move(m), counted_msg, batch_end});
            if (counted_msg) {
              pending_total_.fetch_add(1, std::memory_order_acq_rel);
            }
          } else {
            DeliverToEngine(src, dst, std::move(m), batch_end);
          }
        }
      }
    }
    // Acknowledge every receipt — including duplicates, so a lost final
    // ack is repaired by the retransmission it provokes.
    AckReceipt(src, dst, ch);
  }

  void AckReceipt(SiteId src, SiteId dst, RecvState& ch) {
    if (!config_.piggyback_acks) {
      acks_standalone_.fetch_add(1, std::memory_order_acq_rel);
      net_->Post(dst, src, Message(core::ChannelAck{ch.next_expected - 1}));
      return;
    }
    ch.ack_owed = true;
    if (!ch.ack_timer_running) {
      ch.ack_timer_running = true;
      rt_->Spawn(AckFallback(src, dst));
    }
  }

  /// Single-shot fallback: if no reverse-direction frame consumed the
  /// owed ack within `ack_delay`, send it standalone. Runs at the
  /// receiver (`dst`'s machine).
  runtime::Co<void> AckFallback(SiteId src, SiteId dst) {
    RecvState& ch = recv_[ChannelIndex(src, dst)];
    co_await rt_->Delay(config_.ack_delay);
    ch.ack_timer_running = false;
    if (ch.ack_owed) {
      ch.ack_owed = false;
      acks_standalone_.fetch_add(1, std::memory_order_acq_rel);
      net_->Post(dst, src, Message(core::ChannelAck{ch.next_expected - 1}));
    }
  }

  void OnAck(SiteId src, SiteId dst, core::ChannelAck ack) {
    SendState& ch = send_[ChannelIndex(src, dst)];
    while (!ch.unacked.empty() && ch.unacked.front().seq <= ack.cum_ack) {
      const Outstanding& out = ch.unacked.front();
      if (out.counted > 0) {
        unacked_total_.fetch_sub(static_cast<uint64_t>(out.counted),
                                 std::memory_order_acq_rel);
      }
      if (ack_rtt_ms_ != nullptr && !out.retransmitted) {
        ack_rtt_ms_->Observe(ToMillis(rt_->Now() - out.first_sent));
      }
      ch.unacked.pop_front();
    }
  }

  void DeliverToEngine(SiteId src, SiteId dst, Message message,
                       bool batch_end) {
    Handler& h = handlers_[dst];
    LAZYREP_CHECK(h != nullptr) << "no handler for site " << dst;
    delivered_.fetch_add(1, std::memory_order_acq_rel);
    if (delivered_counter_ != nullptr) delivered_counter_->Increment();
    h(src, std::move(message), batch_end);
  }

  /// One live retransmission loop per channel with unacked frames; runs
  /// on the source machine and exits when the channel drains.
  runtime::Co<void> Retransmitter(SiteId src, SiteId dst) {
    SendState& ch = send_[ChannelIndex(src, dst)];
    Duration rto = config_.rto_initial;
    while (!ch.unacked.empty() && !shutdown_.load()) {
      uint64_t head = ch.unacked.front().seq;
      co_await rt_->Delay(rto);
      if (ch.unacked.empty() || shutdown_.load()) break;
      if (ch.unacked.front().seq == head) {
        // No progress for a whole RTO: resend the head frame only. Acks
        // are cumulative, so if the tail of the window made it through,
        // repairing the head gap acknowledges everything at once;
        // resending the whole window (classic go-back-N) floods the
        // receiver's CPU with duplicates and under the paper's per-
        // message CPU charges that feedback loop can collapse a loaded
        // machine.
        retransmissions_.fetch_add(1, std::memory_order_acq_rel);
        if (retransmissions_counter_ != nullptr) {
          retransmissions_counter_->Increment();
        }
        ch.unacked.front().retransmitted = true;
        net_->Post(src, dst, Message(ch.unacked.front().frame));
        rto = std::min(rto * 2, config_.rto_max);
      } else {
        rto = config_.rto_initial;
      }
    }
    ch.retransmitter_running = false;
  }

  runtime::Runtime* rt_;
  Net* net_;
  FaultInjector* injector_;
  Config config_;
  SiteId num_sites_;
  std::vector<SendState> send_;
  std::vector<RecvState> recv_;
  std::vector<std::deque<PendingDelivery>> pending_;
  std::vector<Handler> handlers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> unacked_total_{0};
  std::atomic<uint64_t> stashed_total_{0};
  std::atomic<uint64_t> pending_total_{0};
  std::atomic<uint64_t> retransmissions_{0};
  std::atomic<uint64_t> duplicates_discarded_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> batch_frames_sent_{0};
  std::atomic<uint64_t> acks_standalone_{0};
  std::atomic<uint64_t> acks_piggybacked_{0};
  std::atomic<uint64_t> posts_refused_{0};
  // Optional metrics handles (SetMetrics); increments are atomic.
  obs::Counter* retransmissions_counter_ = nullptr;
  obs::Counter* duplicates_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Histogram* ack_rtt_ms_ = nullptr;
  obs::Gauge* window_peak_ = nullptr;
};

}  // namespace lazyrep::fault

#endif  // LAZYREP_FAULT_RELIABLE_TRANSPORT_H_
