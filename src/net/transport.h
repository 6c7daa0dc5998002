#ifndef LAZYREP_NET_TRANSPORT_H_
#define LAZYREP_NET_TRANSPORT_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace lazyrep::net {

/// The one delivery contract between the engines and the wire: `Post`
/// in, `Envelope`s out through the handler registered per endpoint.
/// `Network<T>` implements it directly (the paper's §1.1 reliable-FIFO
/// channel model); `fault::ReliableTransport` interposes sequence
/// numbers, cumulative acks and retransmission to restore that contract
/// over a lossy `Network`. Either way the engines register one handler
/// per site, on whichever egress the system picked.
template <typename T>
class Transport {
 public:
  struct Envelope {
    SiteId src = kInvalidSite;
    SiteId dst = kInvalidSite;
    T payload;
    /// Batch boundary marker (transport coalescing): false for every
    /// message of a delivered `ReliableBatch` except the last. Raw
    /// network deliveries are their own batch, hence the default. WAL
    /// group commit keys its per-batch sync boundary off this flag.
    bool batch_end = true;
  };

  using Handler = std::function<void(Envelope)>;

  virtual ~Transport() = default;

  /// Posts a message; never blocks the caller. Messages posted on the
  /// same (src, dst) channel reach dst's handler in post order exactly
  /// once — implementations over lossy links must restore this.
  virtual void Post(SiteId src, SiteId dst, T payload) = 0;

  /// Registers the delivery handler for endpoint `dst`. Must be set
  /// before the first message to `dst` is delivered.
  void SetHandler(SiteId dst, Handler handler) {
    LAZYREP_CHECK(dst >= 0 && static_cast<size_t>(dst) < handlers_.size())
        << "bad endpoint " << dst;
    handlers_[static_cast<size_t>(dst)] = std::move(handler);
  }

 protected:
  explicit Transport(int num_endpoints)
      : handlers_(static_cast<size_t>(num_endpoints)) {}

  /// Hands `env` to its destination's handler.
  void CallHandler(Envelope env) {
    Handler& h = handlers_[static_cast<size_t>(env.dst)];
    LAZYREP_CHECK(h != nullptr)
        << "no handler registered for endpoint " << env.dst;
    h(std::move(env));
  }

 private:
  std::vector<Handler> handlers_;
};

/// Per-message fault decision produced by an injected fault hook (see
/// `FaultInjector::Roll`), applied inside `Network<T>::Post`. A dropped
/// message still occupies the transmission medium; a duplicate is a
/// second delivery of the same payload scheduled through the channel's
/// FIFO clamp; extra delay is added to the wire latency before the
/// clamp, so it can reorder nominal arrivals but never channel delivery.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  Duration extra_delay = 0;
};

}  // namespace lazyrep::net

#endif  // LAZYREP_NET_TRANSPORT_H_
