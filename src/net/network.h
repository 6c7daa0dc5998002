#ifndef LAZYREP_NET_NETWORK_H_
#define LAZYREP_NET_NETWORK_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "net/transport.h"
#include "obs/registry.h"
#include "runtime/primitives.h"
#include "runtime/runtime.h"

namespace lazyrep::net {

/// Message network between sites, modelled over the `Runtime` waist.
///
/// Semantics match the paper's system model (§1.1): delivery is reliable
/// and FIFO between any two sites (the paper ran TCP) — unless a fault
/// hook (SetFaultHook) injects drops/duplicates/extra delay, in which
/// case a reliable-delivery layer above must restore the contract. Each
/// message pays:
///
///   * send CPU on the source machine (protocol/syscall overhead) before
///     the message departs. Posting still never blocks the sender — the
///     charge runs as its own coroutine on the source machine, and the
///     CPU's FCFS queue keeps per-channel post order intact,
///   * wire latency (+ optional uniform jitter), with per-channel FIFO
///     enforced by a channel clock,
///   * receive CPU on the destination machine before the handler runs.
///
/// Under `SimRuntime` this is the deterministic simulated network it
/// always was. Under `ThreadRuntime` deliveries are scheduled onto the
/// *destination's* machine at the absolute arrival time, so handlers run
/// thread-confined to their site's machine and per-channel FIFO is
/// preserved by the channel clock + the executor's (due, seq) ordering.
///
/// Bookkeeping is sharded so cross-machine posts do not serialize
/// (docs/PERFORMANCE.md): per-channel wire state (the channel clock) is
/// machine-confined — a channel's `Dispatch` always runs on its source
/// endpoint's machine — so it needs no synchronization at all; counters
/// and per-kind metric handles are relaxed atomics; only the genuinely
/// shared resources — the shared-medium bus clock, the jitter RNG, and
/// the fault hook's RNG — sit behind a (now tiny) mutex, and an
/// unfaulted post on a bandwidth-free configuration takes no lock at
/// all.
///
/// `T` is the payload type; the replication layer instantiates it with its
/// protocol message variant. Delivery invokes the handler registered for
/// the destination endpoint (`Transport::SetHandler`).
template <typename T>
class Network : public Transport<T> {
 public:
  using typename Transport<T>::Envelope;

  struct Config {
    /// One-way wire latency (default: the 0.15 ms the paper measured on
    /// its 10 Mbit ethernet).
    Duration latency = Millis(0.15);
    /// Extra uniform-random latency in [0, jitter].
    Duration jitter = 0;
    /// CPU charged on the sender's machine per message.
    Duration send_cpu = 0;
    /// CPU charged on the receiver's machine per message.
    Duration recv_cpu = 0;
    /// Bandwidth in bytes/second of the one shared half-duplex segment
    /// (1990s ethernet): all non-loopback transmissions serialize on a
    /// single bus. 0 disables transmission-time modelling. (The paper's
    /// 10 Mbit ethernet is 1.25e6 B/s.) Needs a sizer (SetSizer) to take
    /// effect.
    uint64_t bandwidth_bytes_per_sec = 0;
    /// Latency for messages between endpoints on the same machine
    /// (loopback TCP; no bus occupancy). Negative = use `latency`.
    Duration loopback_latency = -1;
  };

  /// Consolidated counter snapshot — the one read-side accessor. Reads
  /// are lock-free (relaxed atomic loads, no lock acquisitions); counts
  /// are exact once the runtime has quiesced, approximate while traffic
  /// is still flowing under `ThreadRuntime`.
  struct Stats {
    uint64_t total_messages = 0;
    uint64_t total_bytes = 0;
    /// Messages lost / duplicated by the fault hook (0 without one).
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    std::vector<uint64_t> sent_from;
    std::vector<uint64_t> received_at;
  };

  /// `cpus[i]` is the machine CPU serving endpoint `i` (entries may repeat
  /// when sites share a machine, and may be nullptr to skip CPU charging).
  Network(runtime::Runtime* rt, int num_endpoints, Config config,
          std::vector<runtime::Resource*> cpus, Rng rng)
      : Transport<T>(num_endpoints),
        rt_(rt),
        config_(config),
        cpus_(std::move(cpus)),
        rng_(rng),
        num_endpoints_(num_endpoints),
        sent_from_(num_endpoints),
        received_at_(num_endpoints) {
    LAZYREP_CHECK_GT(num_endpoints, 0);
    LAZYREP_CHECK_EQ(cpus_.size(), static_cast<size_t>(num_endpoints));
    channels_.resize(static_cast<size_t>(num_endpoints));
  }

  /// Number of materialized per-channel wire cells (test introspection;
  /// exact only once traffic has quiesced).
  size_t allocated_channels() const {
    size_t n = 0;
    for (const auto& m : channels_) n += m.size();
    return n;
  }

  /// Tracing observers: each is invoked, in the order added, on every
  /// post (`delivered` = false, before the delivery is scheduled — so a
  /// post event is always observed before its deliver event, on every
  /// runtime; a fault-hook duplicate gets its own post event) and every
  /// delivery (`delivered` = true, just before the handler runs). Each
  /// must be internally synchronized under `kThreads`. Add them before
  /// traffic starts; one never replaces another (the trace and a test's
  /// observer both see every message).
  using Observer = std::function<void(const Envelope&, bool delivered)>;
  void AddObserver(Observer observer) {
    observers_.push_back(std::move(observer));
  }

  /// Wire-size function for the bandwidth model (e.g. Wire::EncodedSize).
  using Sizer = std::function<size_t(const T&)>;
  void SetSizer(Sizer sizer) { sizer_ = std::move(sizer); }

  /// Endpoint-to-machine mapping: messages between endpoints of the same
  /// machine use loopback (no bus occupancy, loopback latency), and
  /// deliveries run on the destination's machine. Default: every
  /// endpoint on machine 0.
  void SetMachineMap(std::vector<int> machine_of) {
    LAZYREP_CHECK_EQ(machine_of.size(),
                     static_cast<size_t>(num_endpoints_));
    machine_of_ = std::move(machine_of);
  }

  /// Endpoint-to-executor-lane mapping: deliveries are scheduled onto
  /// the destination's *home lane* so handlers stay confined to the
  /// lane that owns the site's state even when its machine runs several
  /// lanes (`workers_per_machine > 1`). Loopback detection keeps using
  /// the machine map — co-located sites on different lanes still share
  /// a kernel. Default (unset): the machine map doubles as the lane map
  /// (exact under single-worker machines, where lane == machine).
  void SetExecutorMap(std::vector<int> exec_of) {
    LAZYREP_CHECK_EQ(exec_of.size(), static_cast<size_t>(num_endpoints_));
    exec_of_ = std::move(exec_of);
  }

  /// Optional fault hook (fault injection): consulted once per posted
  /// message, under the network lock, after the send CPU charge. Must be
  /// set before traffic starts.
  using FaultHook = std::function<FaultDecision(SiteId src, SiteId dst)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Optional schedule-exploration hook (lazychk's SchedulePolicy,
  /// docs/CHECKING.md): consulted once per non-dropped message, its
  /// return value added to the delivery delay ahead of the per-channel
  /// FIFO clamp — so arrivals can be reordered *across* channels while
  /// each channel stays FIFO. Like the fault hook it draws from a
  /// serialized RNG stream, so it runs under the network lock. Must be
  /// set before traffic starts.
  using DelayHook = std::function<Duration()>;
  void SetDelayHook(DelayHook hook) { delay_hook_ = std::move(hook); }

  /// Optional metrics sink: per-kind posted/delivered/dropped/duplicated
  /// message and byte counters plus an in-flight gauge (with peak).
  /// `kind_index` maps a payload to a dense id in [0, num_kinds) (e.g.
  /// core::MessageMetricKind) and `kind_namer` names an id for the
  /// `kind` label. Handles live in a fixed-size array indexed by kind
  /// id, resolved lazily once per kind (a mutex guards registration
  /// only), so the hot path is an atomic pointer load — no string
  /// construction, no map lookup, no lock. Must be set before traffic
  /// starts.
  using KindIndexer = std::function<int(const T&)>;
  using KindNamer = std::function<std::string(int)>;
  void SetMetrics(obs::MetricsRegistry* registry, int num_kinds,
                  KindIndexer kind_index, KindNamer kind_namer) {
    obs_ = registry;
    kind_index_ = std::move(kind_index);
    kind_namer_ = std::move(kind_namer);
    if (obs_ == nullptr) return;
    LAZYREP_CHECK_GT(num_kinds, 0);
    kind_cells_ = std::vector<std::atomic<KindCounters*>>(
        static_cast<size_t>(num_kinds));
    kind_storage_.clear();
    inflight_ = obs_->GetGauge(
        "lazyrep_net_inflight_messages", {},
        "Messages posted (or duplicated) but not yet delivered");
    inflight_peak_ = obs_->GetGauge(
        "lazyrep_net_inflight_messages_peak", {},
        "High watermark of in-flight messages");
  }

  /// Optional classifier for transport-level control traffic (e.g. the
  /// reliable-delivery layer's cumulative acks — the stand-in for TCP
  /// acks, which a real stack handles in the kernel/NIC below the
  /// paper's per-message CPU cost model). Control messages skip the
  /// send/receive CPU charges but still pay wire latency, occupy the
  /// medium, count in the message totals, and pass the fault hook.
  /// Coalesced `ReliableBatch` frames are deliberately NOT control:
  /// they carry engine payloads and pay the per-message CPU once per
  /// frame — that amortization is the point of batching.
  /// Must be set before traffic starts.
  using ControlClassifier = std::function<bool(const T&)>;
  void SetControlClassifier(ControlClassifier classifier) {
    is_control_ = std::move(classifier);
  }

  /// Posts a message; never blocks the caller. Messages posted on the same
  /// (src, dst) channel are delivered in post order. Must be called from
  /// the source endpoint's home lane (true by construction: only site code
  /// posts, and engines hop to the home lane before posting) — that
  /// confinement is what lets the per-channel wire state go
  /// unsynchronized.
  void Post(SiteId src, SiteId dst, T payload) override {
    Check(src);
    Check(dst);
    LAZYREP_CHECK_NE(src, dst) << "no loopback channel";

    bool loopback = !machine_of_.empty() &&
                    machine_of_[src] == machine_of_[dst];
    size_t size = sizer_ ? sizer_(payload) : 0;

    // Send-side CPU precedes the wire: the message departs only after
    // the sender's per-message CPU work completes. The source CPU is
    // machine-confined and FCFS, so running charge+dispatch as its own
    // coroutine preserves per-channel post order without blocking the
    // caller (this mirrors a buffered socket write whose kernel send
    // path still costs CPU before the frame hits the wire).
    if (cpus_[src] != nullptr && config_.send_cpu > 0 &&
        !(is_control_ && is_control_(payload))) {
      rt_->Spawn(ChargeSendCpuThenDispatch(src, dst, loopback, size,
                                           std::move(payload)));
      return;
    }
    Dispatch(src, dst, loopback, size, std::move(payload));
  }

  Stats Snapshot() const {
    Stats out;
    out.total_messages = total_messages_.load(std::memory_order_relaxed);
    out.total_bytes = total_bytes_.load(std::memory_order_relaxed);
    out.dropped = dropped_.load(std::memory_order_relaxed);
    out.duplicated = duplicated_.load(std::memory_order_relaxed);
    out.sent_from.reserve(sent_from_.size());
    out.received_at.reserve(received_at_.size());
    for (const auto& c : sent_from_) {
      out.sent_from.push_back(c.value.load(std::memory_order_relaxed));
    }
    for (const auto& c : received_at_) {
      out.received_at.push_back(c.value.load(std::memory_order_relaxed));
    }
    return out;
  }

  const Config& config() const { return config_; }

 private:
  /// Per-(src, dst) wire state. Machine-confined, not synchronized:
  /// every `Dispatch` for a channel runs on the source endpoint's
  /// machine (see `Post`), so each cell has exactly one writer-reader
  /// thread. Cache-line aligned so channels of different machines do
  /// not false-share.
  struct alignas(64) Channel {
    /// FIFO clock: latest arrival time granted on this channel.
    SimTime clock = 0;
  };

  /// Relaxed per-endpoint counter, padded against false sharing.
  struct alignas(64) PaddedCounter {
    std::atomic<uint64_t> value{0};
  };

  runtime::Co<void> ChargeSendCpuThenDispatch(SiteId src, SiteId dst,
                                              bool loopback, size_t size,
                                              T payload) {
    co_await cpus_[src]->Consume(config_.send_cpu);
    Dispatch(src, dst, loopback, size, std::move(payload));
  }

  /// Wire bookkeeping + delivery scheduling; runs on the source machine
  /// after any send CPU charge.
  void Dispatch(SiteId src, SiteId dst, bool loopback, size_t size,
                T payload) {
    // The fault hook rolls the injector's RNG: shared, serialized.
    FaultDecision fault;
    if (fault_hook_) {
      std::lock_guard<std::mutex> lock(mu_);
      fault = fault_hook_(src, dst);
    }

    sent_from_[static_cast<size_t>(src)].value.fetch_add(
        1, std::memory_order_relaxed);
    total_messages_.fetch_add(1, std::memory_order_relaxed);
    total_bytes_.fetch_add(size, std::memory_order_relaxed);
    if (obs_ != nullptr) {
      KindCounters* kc = CountersFor(payload);
      kc->posted->Increment();
      kc->bytes->Increment(size);
      if (fault.drop) {
        kc->dropped->Increment();
      } else {
        double n = fault.duplicate ? 2 : 1;
        if (fault.duplicate) kc->duplicated->Increment();
        inflight_->Add(n);
        inflight_peak_->MaxWith(inflight_->value());
      }
    }

    // Departure: transmission occupies the shared bus for
    // size/bandwidth; loopback skips the wire.
    Channel& ch = ChannelFor(src, dst);
    SimTime depart = rt_->Now();
    if (!loopback && config_.bandwidth_bytes_per_sec > 0 && size > 0) {
      Duration tx = static_cast<Duration>(
          static_cast<double>(size) * static_cast<double>(kSecond) /
          static_cast<double>(config_.bandwidth_bytes_per_sec));
      // One bus for every machine: the only wire state that is
      // genuinely shared.
      std::lock_guard<std::mutex> lock(mu_);
      SimTime start = std::max(rt_->Now(), bus_busy_until_);
      bus_busy_until_ = start + tx;
      depart = bus_busy_until_;
    }

    Duration lat = config_.latency;
    if (loopback && config_.loopback_latency >= 0) {
      lat = config_.loopback_latency;
    }
    Duration extra = 0;
    if (!loopback && config_.jitter > 0) {
      // The jitter RNG's draw sequence is part of the deterministic sim
      // schedule: serialized.
      std::lock_guard<std::mutex> lock(mu_);
      extra = static_cast<Duration>(
          rng_.Below(static_cast<uint64_t>(config_.jitter) + 1));
    }
    if (fault.drop) {
      // Lost on the wire: it occupied the medium and counts as sent,
      // but nothing arrives and the channel clock does not advance.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Duration sched_extra = 0;
    if (delay_hook_) {
      std::lock_guard<std::mutex> lock(mu_);
      sched_extra = delay_hook_();
    }
    SimTime arrive = depart + lat + extra + fault.extra_delay + sched_extra;
    // FIFO channel: never deliver before an earlier message on the same
    // channel. The clamp makes per-channel arrival times strictly
    // increasing, which is what lets the destination executor's
    // (due, seq) timer order stand in for delivery order.
    if (arrive <= ch.clock) arrive = ch.clock + 1;
    ch.clock = arrive;
    SimTime dup_arrive = 0;
    if (fault.duplicate) {
      duplicated_.fetch_add(1, std::memory_order_relaxed);
      total_messages_.fetch_add(1, std::memory_order_relaxed);
      total_bytes_.fetch_add(size, std::memory_order_relaxed);
      dup_arrive = ch.clock + 1;
      ch.clock = dup_arrive;
    }

    Envelope env{src, dst, std::move(payload)};
    // Post events fire before any delivery is scheduled: once a
    // delivery is on the destination executor it can run (and trace)
    // immediately under ThreadRuntime, so observing it first would
    // break post/deliver pair matching (WriteChromeTrace). A duplicate
    // counts as its own posted message, so it gets its own post event.
    for (const Observer& observer : observers_) {
      observer(env, /*delivered=*/false);
      if (fault.duplicate) observer(env, /*delivered=*/false);
    }
    if (fault.duplicate) {
      Envelope copy = env;
      rt_->ScheduleCallbackAtOn(ExecOf(dst), dup_arrive,
                                [this, copy = std::move(copy)]() mutable {
                                  Deliver(std::move(copy));
                                });
    }
    rt_->ScheduleCallbackAtOn(ExecOf(dst), arrive,
                              [this, env = std::move(env)]() mutable {
                                Deliver(std::move(env));
                              });
  }

  /// The wire-state cell for (src, dst), materialized on first touch.
  /// Safe without a lock: a channel's Dispatch always runs on the source
  /// endpoint's home lane, so `channels_[src]` has exactly one writer
  /// thread.
  Channel& ChannelFor(SiteId src, SiteId dst) {
    return channels_[static_cast<size_t>(src)][dst];
  }

  SiteId Check(SiteId s) const {
    LAZYREP_CHECK(s >= 0 && s < num_endpoints_) << "bad endpoint " << s;
    return s;
  }

  int MachineOf(SiteId s) const {
    return machine_of_.empty() ? 0 : machine_of_[static_cast<size_t>(s)];
  }

  /// The executor lane deliveries to `s` run on (home lane).
  int ExecOf(SiteId s) const {
    return exec_of_.empty() ? MachineOf(s)
                            : exec_of_[static_cast<size_t>(s)];
  }

  /// Per-kind counter family cells; resolved once per kind, then reached
  /// by an atomic pointer load.
  struct KindCounters {
    obs::Counter* posted;
    obs::Counter* delivered;
    obs::Counter* bytes;
    obs::Counter* dropped;
    obs::Counter* duplicated;
  };
  KindCounters* CountersFor(const T& payload) {
    size_t kind =
        kind_index_ ? static_cast<size_t>(kind_index_(payload)) : 0;
    LAZYREP_CHECK_LT(kind, kind_cells_.size());
    KindCounters* kc = kind_cells_[kind].load(std::memory_order_acquire);
    if (kc != nullptr) return kc;
    return RegisterKind(kind);
  }
  KindCounters* RegisterKind(size_t kind) {
    std::lock_guard<std::mutex> lock(kind_register_mu_);
    KindCounters* kc = kind_cells_[kind].load(std::memory_order_acquire);
    if (kc != nullptr) return kc;  // Raced with another registrar.
    obs::Labels labels{
        {"kind", kind_namer_ ? kind_namer_(static_cast<int>(kind)) : "msg"}};
    auto fresh = std::make_unique<KindCounters>(KindCounters{
        obs_->GetCounter("lazyrep_net_messages_posted_total", labels,
                         "Messages posted, by message kind"),
        obs_->GetCounter("lazyrep_net_messages_delivered_total", labels,
                         "Messages delivered to a handler, by kind"),
        obs_->GetCounter("lazyrep_net_bytes_total", labels,
                         "Wire bytes posted, by message kind"),
        obs_->GetCounter("lazyrep_net_messages_dropped_total", labels,
                         "Messages dropped by fault injection, by kind"),
        obs_->GetCounter("lazyrep_net_messages_duplicated_total", labels,
                         "Messages duplicated by fault injection, by kind"),
    });
    kc = fresh.get();
    kind_storage_.push_back(std::move(fresh));
    kind_cells_[kind].store(kc, std::memory_order_release);
    return kc;
  }

  /// Runs on the destination's machine. Lock-free: counters are relaxed
  /// atomics, metric handles are resolved through the kind cache.
  void Deliver(Envelope env) {
    SiteId dst = env.dst;
    received_at_[static_cast<size_t>(dst)].value.fetch_add(
        1, std::memory_order_relaxed);
    if (obs_ != nullptr) {
      CountersFor(env.payload)->delivered->Increment();
      inflight_->Add(-1);
    }
    if (cpus_[dst] != nullptr && config_.recv_cpu > 0 &&
        !(is_control_ && is_control_(env.payload))) {
      // Charge receive CPU before the handler observes the message. The
      // destination CPU is FCFS, so per-channel order is preserved.
      rt_->Spawn(ReceiveWithCpu(std::move(env)));
    } else {
      InvokeHandler(std::move(env));
    }
  }

  runtime::Co<void> ReceiveWithCpu(Envelope env) {
    co_await cpus_[env.dst]->Consume(config_.recv_cpu);
    InvokeHandler(std::move(env));
  }

  void InvokeHandler(Envelope env) {
    for (const Observer& observer : observers_) {
      observer(env, /*delivered=*/true);
    }
    this->CallHandler(std::move(env));
  }

  runtime::Runtime* rt_;
  Config config_;
  std::vector<runtime::Resource*> cpus_;
  Rng rng_;  // Guarded by mu_.
  int num_endpoints_;
  /// Guards only the genuinely shared wire resources: the shared-medium
  /// bus clock, the jitter RNG, and the fault hook's RNG. Handlers and
  /// sizers are set before traffic starts and read-only after, so they
  /// stay outside the lock.
  mutable std::mutex mu_;
  /// Per-source maps of lazily-created channel cells, keyed by
  /// destination: O(touched channels) memory, not O(m²). Each map is
  /// confined to its source endpoint (see ChannelFor).
  std::vector<std::unordered_map<SiteId, Channel>> channels_;
  SimTime bus_busy_until_ = 0;  // Guarded by mu_.
  std::vector<Observer> observers_;
  Sizer sizer_;
  obs::MetricsRegistry* obs_ = nullptr;
  KindIndexer kind_index_;
  KindNamer kind_namer_;
  obs::Gauge* inflight_ = nullptr;
  obs::Gauge* inflight_peak_ = nullptr;
  /// Fixed-size per-kind handle cache: cells flip nullptr -> pointer
  /// exactly once, under kind_register_mu_.
  std::vector<std::atomic<KindCounters*>> kind_cells_;
  std::vector<std::unique_ptr<KindCounters>> kind_storage_;
  std::mutex kind_register_mu_;
  FaultHook fault_hook_;
  DelayHook delay_hook_;
  ControlClassifier is_control_;
  std::vector<int> machine_of_;
  std::vector<int> exec_of_;
  std::vector<PaddedCounter> sent_from_;
  std::vector<PaddedCounter> received_at_;
  std::atomic<uint64_t> total_messages_{0};
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> duplicated_{0};
};

}  // namespace lazyrep::net

#endif  // LAZYREP_NET_NETWORK_H_
