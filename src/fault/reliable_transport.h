#ifndef LAZYREP_FAULT_RELIABLE_TRANSPORT_H_
#define LAZYREP_FAULT_RELIABLE_TRANSPORT_H_

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <unordered_map>
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
/// over a lossy `Network` the way TCP does (docs/FAULTS.md): every
/// engine message is wrapped in a `ReliableData` frame carrying a
/// per-(src, dst)-channel sequence number and the `Wire::Encode` bytes of
/// the wrapped message; the receiver delivers frames in sequence order
/// (stashing out-of-order arrivals, discarding duplicates) and owes the
/// sender a cumulative ack; when a channel makes no progress for one RTO
/// the sender resends the head-of-window frame (cumulative acks make
/// repairing the head gap sufficient) and backs off.
///
///  - Delayed acks (RFC 1122 §4.2.3.2): a receipt, duplicates included,
///    marks its channel "ack owed", and the owed ack goes out standalone
///    as a `ChannelAck` `kAckDelay` later, covering every receipt in
///    between. Acks never ride data frames (their `piggyback_ack` stays
///    0): tree propagation sends data one way per edge, so reverse
///    frames are rare, and under the paper's cost model a frame pays
///    per-message CPU at both ends, so an ack riding one would wait in
///    both machines' CPU queues, where a standalone ack is uncharged
///    control traffic. Acks are cumulative, so any later ack supersedes
///    a lost one, and a lost final ack is repaired by the retransmission
///    it provokes.
///  - Adaptive RTO (RFC 6298, `RttEstimator`): each channel keeps its own
///    smoothed round trip, sampled from the acked frames' first-send
///    stamps. Karn's rule: an ack that covers a retransmitted frame gives
///    no sample. A timeout doubles the channel's RTO; progress resets it.
///
/// Every post takes one path: it is encoded into its channel's send
/// buffer, and the buffer ships as one frame — a plain `ReliableData`
/// when it holds one message, a `ReliableBatch` (one sequence number, N
/// length-prefixed inner encodings) otherwise. Frame coalescing
/// (`core::BatchingOptions::window`, docs/PERFORMANCE.md §6) is off by
/// default: with window 0 every post flushes at once, as a one-message
/// `ReliableData`; with `window > 0` the buffer flushes when it reaches
/// `kBatchBytes` or the window elapses. Flush order is post order, so
/// per-channel FIFO — and with it DAG(T)'s timestamp order — is
/// untouched.
///
/// Channel layout and confinement (no locks on the hot path): channel
/// cells are materialized on first touch, so memory is O(touched
/// channels), not O(sites²). Send state lives in per-source maps
/// `send_[src][dst]`, touched only on src's home lane (`Post` runs there
/// by construction, acks are delivered to the original sender there, and
/// the retransmitter and window flusher are spawned there). Receive
/// state lives in per-destination maps `recv_[dst][src]`, touched only
/// on dst's lane. Cells are never erased: the retransmitter, window
/// flusher and delayed ack hold references to them across suspensions.
/// The aggregate counters backing `Quiescent()` are atomics because the
/// driver thread polls them.
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

  /// How long an owed ack waits, gathering later receipts, before it
  /// goes out.
  static constexpr Duration kAckDelay = Millis(5);
  /// Room for an idle data + ack round trip with the ack sent at once.
  /// It is not just two 0.15 ms wire hops: under the paper's cost model
  /// each message charges 0.5 ms of CPU at the sender and receiver, so
  /// even through idle CPUs the round trip is ~2.3 ms, and CPU queueing
  /// stretches it further. A timeout below the real round trip is
  /// self-amplifying (every spurious retransmission burns more CPU,
  /// delaying acks further), so leave generous room.
  static constexpr Duration kIdleRoundTrip = Millis(10);
  /// RTO floor, and the RTO before a channel's first sample.
  static constexpr Duration kRtoMin = Millis(15);
  static_assert(kRtoMin >= kIdleRoundTrip + kAckDelay,
                "an RTO must not fire before a delayed ack could return "
                "on an idle path");
  /// RTO ceiling, backoff included.
  static constexpr Duration kRtoMax = Millis(100);
  static_assert(kRtoMin < kRtoMax);
  /// Size flush threshold for a channel's send buffer.
  static constexpr size_t kBatchBytes = 16 * 1024;

  /// One channel's retransmission timeout, fitted to its measured round
  /// trip as RFC 6298 does it: the first sample R sets SRTT = R and
  /// RTTVAR = R/2; later ones update RTTVAR += (|SRTT - R| - RTTVAR)/4,
  /// then SRTT += (R - SRTT)/8. RTO = SRTT + 4·RTTVAR, clamped to
  /// [`kRtoMin`, `kRtoMax`], and `kRtoMin` before the first sample.
  /// `Backoff` doubles the current RTO (capped); progress resets it. The
  /// caller applies Karn's rule: an ack that covers a retransmitted
  /// frame, whose round trip is ambiguous, is `Progress` without a
  /// `Sample`.
  class RttEstimator {
   public:
    /// An ack retired frames and gave a round-trip sample.
    void Sample(Duration rtt) {
      if (!sampled_) {
        sampled_ = true;
        srtt_ = rtt;
        rttvar_ = rtt / 2;
      } else {
        const Duration error = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
        rttvar_ += (error - rttvar_) / kBetaInverse;
        srtt_ += (rtt - srtt_) / kAlphaInverse;
      }
      rto_ = Fitted();
    }
    /// An ack retired frames but gave no sample. The backoff ends, unless
    /// the channel has no sample yet: then it holds, or on a path slower
    /// than `kRtoMin` every frame would be resent and no ack would ever
    /// give one. (Holding it after a sample too would compound the
    /// backoff across the holes of one lossy window.)
    void Progress() {
      if (sampled_) rto_ = Fitted();
    }
    void Backoff() { rto_ = std::min(rto_ * 2, kRtoMax); }

    bool sampled() const { return sampled_; }
    Duration srtt() const { return srtt_; }
    Duration rttvar() const { return rttvar_; }
    Duration rto() const { return rto_; }

   private:
    Duration Fitted() const {
      return std::clamp(srtt_ + kVarianceWeight * rttvar_, kRtoMin, kRtoMax);
    }

    /// RFC 6298's gains α = 1/8 and β = 1/4, and K = 4.
    static constexpr Duration kAlphaInverse = 8;
    static constexpr Duration kBetaInverse = 4;
    static constexpr Duration kVarianceWeight = 4;

    bool sampled_ = false;
    Duration srtt_ = 0;
    Duration rttvar_ = 0;
    Duration rto_ = kRtoMin;
  };

  ReliableTransport(runtime::Runtime* rt, Net* net, FaultInjector* injector,
                    int num_sites, core::BatchingOptions batching = {})
      : Transport(num_sites),
        rt_(rt),
        net_(net),
        injector_(injector),
        batching_(batching),
        num_sites_(num_sites),
        send_(static_cast<size_t>(num_sites)),
        recv_(static_cast<size_t>(num_sites)),
        pending_(static_cast<size_t>(num_sites)) {
    LAZYREP_CHECK_GT(num_sites, 0);
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

  /// Appends the message to its channel's send buffer and flushes the
  /// buffer when the window is 0 or it reached `kBatchBytes`; otherwise
  /// the channel's window flusher ships it. Called from the source
  /// machine. Posts after `BeginShutdown` are refused (counted,
  /// dropped): a sequenced frame with no retransmitter behind it would
  /// stall the channel forever if dropped, and shutdown begins only
  /// after quiescence, so anything arriving here is a late liveness
  /// timer, not owed work.
  void Post(SiteId src, SiteId dst, Message payload) override {
    Check(src);
    Check(dst);
    if (shutdown_.load(std::memory_order_acquire)) {
      posts_refused_.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
    SendState& ch = SendFor(src, dst);
    // Append [varint length][encoding], encoding through the channel's
    // scratch buffer (machine-confined, warm capacity after the first
    // frame). Counted messages enter the quiescence accounting now —
    // buffered work is still owed work.
    ch.scratch.clear();
    core::Wire::EncodeTo(payload, &ch.scratch);
    core::Wire::PutVarint(&ch.buffer, ch.scratch.size());
    ch.buffer.insert(ch.buffer.end(), ch.scratch.begin(), ch.scratch.end());
    ++ch.buffer_count;
    if (!IsLivenessOnly(payload)) {
      ++ch.buffer_counted;
      unacked_total_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (batching_.window == 0 || ch.buffer.size() >= kBatchBytes) {
      FlushChannel(src, dst);
    } else if (!ch.flusher_scheduled) {
      ch.flusher_scheduled = true;
      rt_->Spawn(WindowFlusher(src, dst));
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
      DeliverToEngine(std::move(d.env));
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
  /// `ChannelAck` frames posted (one per channel per `kAckDelay` with
  /// receipts in it).
  uint64_t acks_standalone() const {
    return acks_standalone_.load(std::memory_order_acquire);
  }
  /// Posts refused because they arrived after `BeginShutdown`.
  uint64_t posts_refused() const {
    return posts_refused_.load(std::memory_order_acquire);
  }

  /// Materialized per-channel send / receive cells (test introspection;
  /// exact only once traffic has quiesced).
  size_t allocated_send_channels() const { return CountCells(send_); }
  size_t allocated_recv_channels() const { return CountCells(recv_); }
  /// Channel (src, dst)'s round-trip estimator, or null before its first
  /// frame (test introspection; read it once traffic has quiesced).
  const RttEstimator* rtt(SiteId src, SiteId dst) const {
    const auto& sent = send_[static_cast<size_t>(Check(src))];
    auto it = sent.find(dst);
    return it == sent.end() ? nullptr : &it->second.rtt;
  }

 private:
  struct Outstanding {
    /// The exact frame on the wire (`ReliableData` or `ReliableBatch`),
    /// resent verbatim on RTO expiry.
    Message frame;
    uint64_t seq = 0;
    /// Messages inside the frame counting toward `Quiescent`.
    int counted = 0;
    /// When the frame first hit the wire (round-trip samples).
    SimTime first_sent = 0;
    /// At least one retransmission happened; its ack RTT is ambiguous.
    bool retransmitted = false;
  };
  struct SendState {
    uint64_t next_seq = 1;
    std::deque<Outstanding> unacked;
    RttEstimator rtt;
    /// When the retransmission timer last (re)started: the head frame's
    /// send on an idle channel, the last ack that retired frames, or the
    /// last resend (RFC 6298 §5.1, §5.3, §5.6).
    SimTime timer_start = 0;
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
    /// A receipt happened and its delayed ack has not gone out yet.
    bool ack_owed = false;
  };
  struct PendingDelivery {
    Envelope env;
    bool counted = true;
  };

  /// DAG(T) §3.3 dummies carry no writes — only a timestamp push. They
  /// are the one message kind that is perpetually in flight by design.
  static bool IsLivenessOnly(const Message& message) {
    const auto* update = std::get_if<core::SecondaryUpdate>(&message);
    return update != nullptr && update->is_dummy;
  }

  /// Send state of channel (src, dst), in src's map.
  SendState& SendFor(SiteId src, SiteId dst) {
    return send_[static_cast<size_t>(src)][dst];
  }
  /// Receive state of channel (src, dst), in dst's map.
  RecvState& RecvFor(SiteId src, SiteId dst) {
    return recv_[static_cast<size_t>(dst)][src];
  }
  template <typename Maps>
  static size_t CountCells(const Maps& maps) {
    size_t n = 0;
    for (const auto& m : maps) n += m.size();
    return n;
  }
  SiteId Check(SiteId s) const {
    LAZYREP_CHECK(s >= 0 && s < num_sites_) << "bad site " << s;
    return s;
  }

  /// Ships the channel's send buffer as one sequenced frame: a plain
  /// `ReliableData` when a single message is pending (no batch framing
  /// overhead), a `ReliableBatch` otherwise. The frame joins the
  /// channel's unacked window; its messages were already counted into
  /// `unacked_total_` at post time.
  void FlushChannel(SiteId src, SiteId dst) {
    SendState& ch = SendFor(src, dst);
    if (ch.buffer_count == 0) return;
    Message frame;
    const uint64_t seq = ch.next_seq++;
    if (ch.buffer_count == 1) {
      core::ReliableData data;
      data.seq = seq;
      size_t pos = 0;
      Result<uint64_t> len = core::Wire::GetVarint(ch.buffer, &pos);
      LAZYREP_CHECK(len.ok() && pos + *len == ch.buffer.size());
      data.inner.assign(ch.buffer.begin() + static_cast<ptrdiff_t>(pos),
                        ch.buffer.end());
      frame = std::move(data);
    } else {
      core::ReliableBatch batch;
      batch.seq = seq;
      batch.count = ch.buffer_count;
      batch.inner = ch.buffer;
      frame = std::move(batch);
      batch_frames_sent_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (ch.unacked.empty()) ch.timer_start = rt_->Now();
    ch.unacked.push_back(
        Outstanding{frame, seq, ch.buffer_counted, rt_->Now(), false});
    ch.buffer.clear();
    ch.buffer_count = 0;
    ch.buffer_counted = 0;
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

  /// Single-shot window flusher for one channel; runs on the source
  /// machine. A size-triggered flush during the delay just means this
  /// tick flushes whatever accumulated since (possibly nothing).
  runtime::Co<void> WindowFlusher(SiteId src, SiteId dst) {
    SendState& ch = SendFor(src, dst);
    co_await rt_->Delay(batching_.window);
    ch.flusher_scheduled = false;
    if (!shutdown_.load(std::memory_order_acquire)) {
      FlushChannel(src, dst);
    }
  }

  /// Raw network delivery at `env.dst`'s machine: data/batch frames feed
  /// the receive state, acks feed the send state, anything else is a bug.
  void OnNetworkDeliver(Net::Envelope env) {
    if (auto* data = std::get_if<core::ReliableData>(&env.payload)) {
      std::vector<Message> inners;
      Result<Message> inner = core::Wire::Decode(data->inner);
      LAZYREP_CHECK(inner.ok()) << inner.status().ToString();
      inners.push_back(std::move(*inner));
      OnFrame(env.src, env.dst, data->seq, std::move(inners));
    } else if (auto* batch = std::get_if<core::ReliableBatch>(&env.payload)) {
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
    RecvState& ch = RecvFor(src, dst);
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
          Envelope env{src, dst, std::move(m), batch_end};
          if (injector_ != nullptr && !injector_->IsUp(dst)) {
            const bool counted_msg = !IsLivenessOnly(env.payload);
            pending_[dst].push_back(
                PendingDelivery{std::move(env), counted_msg});
            if (counted_msg) {
              pending_total_.fetch_add(1, std::memory_order_acq_rel);
            }
          } else {
            DeliverToEngine(std::move(env));
          }
        }
      }
    }
    // Every receipt owes an ack — duplicates too, so a lost final ack is
    // repaired by the retransmission it provokes.
    OweAck(src, dst, ch);
  }

  /// Marks channel (src, dst)'s ack owed and arms its delay timer, unless
  /// an owed ack is already waiting (it will cover this receipt too).
  /// Until the head frame arrives there is nothing to acknowledge (a
  /// cumulative ack of 0 says nothing), so nothing is owed.
  void OweAck(SiteId src, SiteId dst, RecvState& ch) {
    if (ch.next_expected == 1 || ch.ack_owed) return;
    ch.ack_owed = true;
    rt_->Spawn(DelayedAck(src, dst));
  }

  /// Single-shot delayed ack: `kAckDelay` after the receipt that made it
  /// owed, acknowledges everything received so far. Runs at the receiver
  /// (`dst`'s machine).
  runtime::Co<void> DelayedAck(SiteId src, SiteId dst) {
    RecvState& ch = RecvFor(src, dst);
    co_await rt_->Delay(kAckDelay);
    ch.ack_owed = false;
    acks_standalone_.fetch_add(1, std::memory_order_acq_rel);
    net_->Post(dst, src, Message(core::ChannelAck{ch.next_expected - 1}));
  }

  /// Retires the frames `ack` covers and, unless one of them was
  /// retransmitted (Karn's rule), samples the round trip of the oldest:
  /// the head frame's wait is what the retransmitter times.
  void OnAck(SiteId src, SiteId dst, core::ChannelAck ack) {
    SendState& ch = SendFor(src, dst);
    if (ch.unacked.empty() || ch.unacked.front().seq > ack.cum_ack) return;
    const SimTime now = rt_->Now();
    const Duration oldest = now - ch.unacked.front().first_sent;
    bool ambiguous = false;
    while (!ch.unacked.empty() && ch.unacked.front().seq <= ack.cum_ack) {
      const Outstanding& out = ch.unacked.front();
      if (out.counted > 0) {
        unacked_total_.fetch_sub(static_cast<uint64_t>(out.counted),
                                 std::memory_order_acq_rel);
      }
      ambiguous = ambiguous || out.retransmitted;
      if (ack_rtt_ms_ != nullptr && !out.retransmitted) {
        ack_rtt_ms_->Observe(ToMillis(now - out.first_sent));
      }
      ch.unacked.pop_front();
    }
    ch.timer_start = now;
    if (ambiguous) {
      ch.rtt.Progress();
    } else {
      ch.rtt.Sample(oldest);
    }
  }

  void DeliverToEngine(Envelope env) {
    delivered_.fetch_add(1, std::memory_order_acq_rel);
    if (delivered_counter_ != nullptr) delivered_counter_->Increment();
    CallHandler(std::move(env));
  }

  /// One live retransmission timer per channel with unacked frames; runs
  /// on the source machine and exits when the channel drains. It fires
  /// one RTO after `timer_start`, so a lost frame waits one RTO after the
  /// last progress, not up to two.
  runtime::Co<void> Retransmitter(SiteId src, SiteId dst) {
    SendState& ch = SendFor(src, dst);
    while (!ch.unacked.empty() && !shutdown_.load()) {
      const SimTime deadline = ch.timer_start + ch.rtt.rto();
      if (rt_->Now() < deadline) {
        co_await rt_->Delay(deadline - rt_->Now());
        continue;
      }
      // No progress for a whole RTO: resend the head frame only. Acks
      // are cumulative, so if the tail of the window made it through,
      // repairing the head gap acknowledges everything at once;
      // resending the whole window (classic go-back-N) floods the
      // receiver's CPU with duplicates and under the paper's per-message
      // CPU charges that feedback loop can collapse a loaded machine.
      retransmissions_.fetch_add(1, std::memory_order_acq_rel);
      if (retransmissions_counter_ != nullptr) {
        retransmissions_counter_->Increment();
      }
      ch.unacked.front().retransmitted = true;
      net_->Post(src, dst, Message(ch.unacked.front().frame));
      ch.rtt.Backoff();
      ch.timer_start = rt_->Now();
    }
    ch.retransmitter_running = false;
  }

  runtime::Runtime* rt_;
  Net* net_;
  FaultInjector* injector_;
  core::BatchingOptions batching_;
  SiteId num_sites_;
  /// send_[src][dst] and recv_[dst][src]: per-site maps of lazily
  /// created channel cells, each confined to its site's home lane.
  std::vector<std::unordered_map<SiteId, SendState>> send_;
  std::vector<std::unordered_map<SiteId, RecvState>> recv_;
  std::vector<std::deque<PendingDelivery>> pending_;
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
