// In-process threaded transport: each station gets a worker thread draining
// a FIFO mailbox. Used by the live examples to run the same distribution
// protocol code that the experiments run on the simulator.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace wdoc::net {

class ThreadTransport final : public Fabric {
 public:
  ThreadTransport();
  ~ThreadTransport() override;
  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  // Registers a station; its handler runs on a dedicated worker thread.
  [[nodiscard]] StationId add_station(MessageHandler handler);
  void set_handler(StationId station, MessageHandler handler) override;

  [[nodiscard]] Status send(Message msg) override;
  [[nodiscard]] SimTime now() const override;

  // Timer callbacks are dispatched through the target station's mailbox, so
  // they run on the same worker thread as its message handler and never
  // race protocol state. The timer thread starts lazily on first use.
  [[nodiscard]] TimerHandle schedule_on(StationId station, SimTime delta,
                                        std::function<void()> fn) override;
  [[nodiscard]] bool is_online(StationId station) const override;

  // Blocks until every mailbox is empty and every worker idle (bounded by
  // `timeout`). Returns false on timeout.
  [[nodiscard]] bool quiesce(std::chrono::milliseconds timeout =
                                 std::chrono::milliseconds(5000));

  // Stops all workers (drains nothing further). Idempotent.
  void shutdown();

  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_.load(); }

 private:
  struct Queued {
    Message msg;
    SimTime enqueued_at;  // for the delivery-latency histogram
    std::function<void()> task;  // when set, a due timer; msg is unused
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Queued> queue;
    MessageHandler handler;
    std::thread worker;
    bool busy = false;
  };

  struct Timer {
    std::chrono::steady_clock::time_point due;
    StationId station;
    std::function<void()> fn;
    TimerHandle cancel;
    std::uint64_t seq = 0;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void worker_loop(Mailbox* box);
  void timer_loop();

  mutable std::mutex mu_;
  std::map<StationId, std::unique_ptr<Mailbox>> stations_;
  IdAllocator<StationId> ids_;
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point start_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  // Binary heap (std::push_heap/pop_heap): a due timer moves out, and
  // cancelled timers are reclaimed once the heap doubles (fabric.hpp).
  std::vector<Timer> timers_;
  std::size_t timer_sweep_at_ = kReclaimFloor;
  std::thread timer_thread_;
  std::uint64_t timer_seq_ = 0;

  // Shared registry instruments (same names as SimNetwork's, so protocol
  // code is observable identically on either fabric).
  obs::Counter& c_sent_ = obs::MetricsRegistry::global().counter("net.messages_sent");
  obs::Counter& c_received_ =
      obs::MetricsRegistry::global().counter("net.messages_received");
  obs::Counter& c_bytes_sent_ = obs::MetricsRegistry::global().counter("net.bytes_sent");
  obs::Counter& c_bytes_received_ =
      obs::MetricsRegistry::global().counter("net.bytes_received");
  obs::Histogram& h_latency_ = obs::MetricsRegistry::global().histogram(
      "net.delivery_latency", {{"unit", "us"}});
};

}  // namespace wdoc::net
