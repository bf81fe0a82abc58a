// Fabric: the transport abstraction the distribution layer runs on.
//
// Two implementations exist: SimNetwork (deterministic discrete-event
// simulation with bandwidth/latency modelling — used by every experiment)
// and ThreadTransport (real threads and queues — used by the live examples
// to show the same protocol code off the simulator).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "common/sim_time.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"

namespace wdoc::net {

using MessageHandler = std::function<void(const Message&)>;

class Fabric {
 public:
  // Cancellable timer: store(true) guarantees the callback never runs after
  // the store is observed. SimNetwork additionally skips cancelled events
  // without advancing simulated time, so abandoned deadlines leave no trace
  // on the clock.
  using TimerHandle = std::shared_ptr<std::atomic<bool>>;

  virtual ~Fabric() = default;

  // Asynchronous send; delivery invokes the receiver's handler. Returns an
  // error only for immediately-detectable failures (unknown station).
  [[nodiscard]] virtual Status send(Message msg) = 0;

  virtual void set_handler(StationId station, MessageHandler handler) = 0;

  // Current time: simulated for SimNetwork, wall-clock-since-start for
  // ThreadTransport.
  [[nodiscard]] virtual SimTime now() const = 0;

  // Runs `fn` after `delta` in `station`'s execution context — the shared
  // event loop for SimNetwork, the station's worker thread for
  // ThreadTransport (so timer callbacks never race the message handler).
  // The RpcTracker's deadlines and backoff timers run through this.
  [[nodiscard]] virtual TimerHandle schedule_on(StationId station, SimTime delta,
                                                std::function<void()> fn) = 0;

  // Liveness as the fabric itself knows it (crashed / offline stations).
  // Protocol-level failure detection (StationNode's declared-dead set) is
  // layered on top of this, not derived from it.
  [[nodiscard]] virtual bool is_online(StationId station) const {
    (void)station;
    return true;
  }

  // The station's uplink rate in bits/s, or 0 when the fabric has no link
  // model. Senders that pace themselves at line rate (the swarm relay)
  // read this; everything else ignores it.
  [[nodiscard]] virtual double uplink_bps(StationId station) const {
    (void)station;
    return 0.0;
  }

  // Installs a scripted fault plan. Fabrics without a fault model refuse.
  [[nodiscard]] virtual Status inject(const FaultPlan& plan) {
    (void)plan;
    return {Errc::unsupported, "fault injection not supported on this fabric"};
  }
};

// Both fabrics keep their timers in a binary heap, and a cancelled timer
// would otherwise stay there until it is due. RPC deadlines are long and
// mostly resolve early, so such a heap grows with the work done, not with
// the live timers. Once `heap` has doubled since the last sweep
// (`sweep_at`), this drops every entry whose cancel flag is set and
// rebuilds the heap: amortized O(1) per push, and the heap never holds more
// than twice its peak live size (or kReclaimFloor entries). Live entries
// keep their pop order, because `later` is a strict total order.
inline constexpr std::size_t kReclaimFloor = 64;

template <class Entry, class Later>
void reclaim_cancelled(std::vector<Entry>& heap, std::size_t& sweep_at, Later later) {
  if (heap.size() < sweep_at) return;
  std::erase_if(heap, [](const Entry& e) { return e.cancel && e.cancel->load(); });
  std::make_heap(heap.begin(), heap.end(), later);
  sweep_at = std::max(kReclaimFloor, 2 * heap.size());
}

}  // namespace wdoc::net
