// Network tests: simulator timing model (serialization + propagation +
// FIFO queueing), determinism, loss, stats, scheduling; and the threaded
// transport delivering the same Message types for real.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>

#include "common/rng.hpp"
#include "net/sim_network.hpp"
#include "net/thread_transport.hpp"

namespace wdoc::net {
namespace {

Message make_msg(StationId from, StationId to, std::uint64_t size) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = "test";
  m.wire_size = size;
  return m;
}

TEST(SimNetwork, DeliversWithSerializationAndLatency) {
  SimNetwork net;
  StationLink link;
  link.up_bps = 8e6;               // 1 MB/s
  link.down_bps = 8e6;
  link.latency = SimTime::millis(10);
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);

  SimTime delivered = SimTime::zero();
  net.set_handler(b, [&](const Message&) { delivered = net.now(); });
  // 1 MB at 1 MB/s: 1 s up + 1 s down + 20 ms propagation (both ends).
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  net.run();
  EXPECT_NEAR(delivered.as_seconds(), 2.02, 1e-6);
}

TEST(SimNetwork, UplinkSerializesSequentialSends) {
  SimNetwork net;
  StationLink link;
  link.up_bps = 8e6;
  link.down_bps = 8e9;  // downlink effectively free
  link.latency = SimTime::zero();
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);
  StationId c = net.add_station(link);

  SimTime t_b, t_c;
  net.set_handler(b, [&](const Message&) { t_b = net.now(); });
  net.set_handler(c, [&](const Message&) { t_c = net.now(); });
  // Two 1 MB messages from the same sender: the second waits for the first
  // to clear the uplink (the star-broadcast penalty).
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, c, 1000000)).is_ok());
  net.run();
  EXPECT_NEAR(t_b.as_seconds(), 1.0, 0.01);
  EXPECT_NEAR(t_c.as_seconds(), 2.0, 0.01);
}

TEST(SimNetwork, DownlinkQueuesConcurrentArrivals) {
  SimNetwork net;
  StationLink fast;
  fast.up_bps = 8e9;
  fast.down_bps = 8e9;
  fast.latency = SimTime::zero();
  StationLink slow = fast;
  slow.down_bps = 8e6;  // 1 MB/s downlink
  StationId a = net.add_station(fast);
  StationId b = net.add_station(fast);
  StationId sink = net.add_station(slow);

  int received = 0;
  SimTime last;
  net.set_handler(sink, [&](const Message&) {
    ++received;
    last = net.now();
  });
  ASSERT_TRUE(net.send(make_msg(a, sink, 1000000)).is_ok());
  ASSERT_TRUE(net.send(make_msg(b, sink, 1000000)).is_ok());
  net.run();
  EXPECT_EQ(received, 2);
  EXPECT_NEAR(last.as_seconds(), 2.0, 0.01);  // second message queued behind first
}

TEST(SimNetwork, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SimNetwork net(seed);
    StationLink link;
    link.loss_rate = 0.3;
    StationId a = net.add_station(link);
    std::vector<StationId> receivers;
    for (int i = 0; i < 10; ++i) receivers.push_back(net.add_station(link));
    std::vector<std::uint64_t> order;
    for (StationId r : receivers) {
      net.set_handler(r, [&, r](const Message&) { order.push_back(r.value()); });
    }
    for (int round = 0; round < 5; ++round) {
      for (StationId r : receivers) {
        (void)net.send(make_msg(a, r, 1000 + static_cast<std::uint64_t>(round)));
      }
    }
    net.run();
    return order;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimNetwork, LossDropsMessages) {
  SimNetwork net(1);
  StationLink lossy;
  lossy.loss_rate = 1.0;
  StationId a = net.add_station(lossy);
  StationId b = net.add_station(lossy);
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  ASSERT_TRUE(net.send(make_msg(a, b, 100)).is_ok());
  net.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats(a).messages_dropped, 1u);
}

TEST(SimNetwork, OfflineStationsDropTraffic) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  ASSERT_TRUE(net.set_online(b, false).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 100)).is_ok());
  net.run();
  EXPECT_EQ(received, 0);
  ASSERT_TRUE(net.set_online(b, true).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 100)).is_ok());
  net.run();
  EXPECT_EQ(received, 1);
}

TEST(SimNetwork, UnknownStationsRejected) {
  SimNetwork net;
  StationId a = net.add_station();
  EXPECT_EQ(net.send(make_msg(a, StationId{99}, 1)).code(), Errc::not_found);
  EXPECT_EQ(net.send(make_msg(StationId{99}, a, 1)).code(), Errc::not_found);
}

TEST(SimNetwork, StatsAccounting) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  net.set_handler(b, [](const Message&) {});
  ASSERT_TRUE(net.send(make_msg(a, b, 500)).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 300)).is_ok());
  net.run();
  EXPECT_EQ(net.stats(a).messages_sent, 2u);
  EXPECT_EQ(net.stats(a).bytes_sent, 800u);
  EXPECT_EQ(net.stats(b).messages_received, 2u);
  EXPECT_EQ(net.stats(b).bytes_received, 800u);
  EXPECT_EQ(net.total_bytes_on_wire(), 800u);
  net.reset_stats();
  EXPECT_EQ(net.stats(a).messages_sent, 0u);
  EXPECT_EQ(net.total_messages(), 0u);
}

TEST(SimNetwork, PayloadSizeUsedWhenNoWireSize) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  net.set_handler(b, [](const Message&) {});
  Message m;
  m.from = a;
  m.to = b;
  m.type = "x";
  m.payload = Bytes(100, 0);
  ASSERT_TRUE(net.send(std::move(m)).is_ok());
  net.run();
  EXPECT_EQ(net.stats(a).bytes_sent, 164u);  // payload + 64B header
}

// Two timers at the SAME SimTime must fire in schedule order: the event
// queue breaks at-ties by seq, and the explicit-heap rewrite must preserve
// that strict (at, seq) total order.
TEST(SimNetwork, SameTimeEventsRunInScheduleOrder) {
  SimNetwork net;
  std::vector<int> order;
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(2); });
  net.schedule_at(SimTime::millis(5), [&] { order.push_back(0); });
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(3); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Two messages arriving at the same instant (identical links, identical
// size, sent back to back at t=0) deliver in send order.
TEST(SimNetwork, SameArrivalTimeDeliversInSendOrder) {
  SimNetwork net;
  StationId a = net.add_station();
  StationId b = net.add_station();
  StationId c = net.add_station();
  std::vector<std::string> order;
  net.set_handler(c, [&](const Message& m) { order.push_back(m.type); });
  Message first;
  first.from = a;
  first.to = c;
  first.type = "first";
  Message second;
  second.from = b;
  second.to = c;
  second.type = "second";
  ASSERT_TRUE(net.send(std::move(first)).is_ok());
  ASSERT_TRUE(net.send(std::move(second)).is_ok());
  net.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

TEST(SimNetwork, ScheduledWorkRunsInTimeOrder) {
  SimNetwork net;
  std::vector<int> order;
  net.schedule_at(SimTime::millis(30), [&] { order.push_back(3); });
  net.schedule_at(SimTime::millis(10), [&] { order.push_back(1); });
  net.schedule_at(SimTime::millis(20), [&] { order.push_back(2); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(net.now(), SimTime::millis(30));
}

TEST(SimNetwork, RunUntilStopsAtBoundary) {
  SimNetwork net;
  int fired = 0;
  net.schedule_at(SimTime::millis(10), [&] { ++fired; });
  net.schedule_at(SimTime::millis(50), [&] { ++fired; });
  net.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(net.now(), SimTime::millis(20));
  net.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimNetwork, MidRunLinkChange) {
  SimNetwork net;
  StationLink link;
  link.up_bps = 8e6;
  link.down_bps = 8e9;
  link.latency = SimTime::zero();
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);
  SimTime t1, t2;
  net.set_handler(b, [&](const Message& m) {
    if (m.seq == 1) {
      t1 = net.now();
    } else {
      t2 = net.now();
    }
  });
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  net.run();
  // Degrade the uplink 10x; same transfer now takes 10x longer.
  StationLink degraded = link;
  degraded.up_bps = 8e5;
  ASSERT_TRUE(net.set_link(a, degraded).is_ok());
  ASSERT_TRUE(net.send(make_msg(a, b, 1000000)).is_ok());
  net.run();
  EXPECT_NEAR((t2 - t1).as_seconds(), 10.0, 0.1);
}

TEST(SimNetwork, PairLatencyOverride) {
  SimNetwork net;
  StationLink link;
  link.up_bps = 8e9;
  link.down_bps = 8e9;
  link.latency = SimTime::millis(100);  // default: 200 ms end to end
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);
  SimTime t;
  net.set_handler(b, [&](const Message&) { t = net.now(); });

  ASSERT_TRUE(net.send(make_msg(a, b, 1000)).is_ok());
  net.run();
  EXPECT_NEAR(t.as_millis(), 200.0, 1.0);

  // Same LAN: 1 ms, symmetric regardless of direction argument order.
  ASSERT_TRUE(net.set_pair_latency(b, a, SimTime::millis(1)).is_ok());
  SimTime before = net.now();
  ASSERT_TRUE(net.send(make_msg(a, b, 1000)).is_ok());
  net.run();
  EXPECT_NEAR((t - before).as_millis(), 1.0, 0.5);
  EXPECT_EQ(net.set_pair_latency(a, StationId{99}, SimTime::zero()).code(),
            Errc::not_found);
}

TEST(SimNetwork, JitterSpreadsDeliveries) {
  SimNetwork net(3);
  StationLink link;
  link.up_bps = 8e9;
  link.down_bps = 8e9;
  link.latency = SimTime::millis(10);
  link.jitter_max = SimTime::millis(50);
  StationId a = net.add_station(link);
  StationId b = net.add_station(link);
  std::vector<double> arrivals;
  net.set_handler(b, [&](const Message&) { arrivals.push_back(net.now().as_millis()); });
  // Independent sends from time 0 (uplink is effectively free).
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.send(make_msg(a, b, 10)).is_ok());
  }
  net.run();
  ASSERT_EQ(arrivals.size(), 50u);
  auto [lo, hi] = std::minmax_element(arrivals.begin(), arrivals.end());
  // Two jitter draws of up to 50 ms each on a 20 ms base: spread must be
  // well over the deterministic case (0) and below the 100 ms bound.
  EXPECT_GT(*hi - *lo, 10.0);
  EXPECT_LE(*hi, 20.0 + 100.0 + 1.0);
  EXPECT_GE(*lo, 20.0 - 0.5);
}

// Cancelled timers are reclaimed once the heap doubles, so a stream of
// deadlines that resolve early (acked rpcs) keeps the queue O(live events)
// instead of growing with every deadline ever armed.
TEST(SimNetwork, CancelledTimersAreReclaimed) {
  SimNetwork net;
  const StationId a = net.add_station();
  std::vector<Fabric::TimerHandle> dead;
  for (int i = 0; i < 100'000; ++i) {
    dead.push_back(net.schedule_on(a, SimTime::seconds(60),
                                   [] { ADD_FAILURE() << "a cancelled timer ran"; }));
  }
  for (const Fabric::TimerHandle& h : dead) h->store(true);
  EXPECT_EQ(net.pending_events(), 100'000u);  // nothing swept before the next push

  // Each step arms a deadline that is answered at once and a short live
  // timer; every 100 steps the live ones fire. At most 100 events are live.
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    net.schedule_on(a, SimTime::seconds(60), [] { ADD_FAILURE() << "a cancelled timer ran"; })
        ->store(true);
    (void)net.schedule_on(a, SimTime::millis(1), [&] { ++fired; });
    if (i % 100 == 99) {
      net.run_until(net.now() + SimTime::millis(1));
      if (i >= 50'000) {
        ASSERT_LE(net.pending_events(), 2 * 100 + kReclaimFloor) << i;
      }
    }
  }
  EXPECT_EQ(fired, 100'000);
  net.run();
  EXPECT_EQ(net.pending_events(), 0u);
  // Dropped deadlines never moved the clock: 1000 rounds of 1 ms.
  EXPECT_EQ(net.now(), SimTime::millis(1000));
}

// Random interleavings of schedule_at, schedule_on, cancel, send and
// run_until against a reference model that keeps every event in a map
// ordered by (at, seq) and pops it in that order. Fired callbacks, delivery
// order and now() after each run_until must match exactly, across the
// sweeps that the many cancelled 60 s deadlines trigger.
TEST(SimNetwork, RandomScheduleMatchesSortedReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SimNetwork net(seed);
    constexpr std::size_t kStations = 4;
    std::vector<StationId> ids;
    std::vector<StationLink> links;
    for (std::size_t i = 0; i < kStations; ++i) {
      StationLink link;
      link.up_bps = 1e6 * static_cast<double>(1 + rng.uniform(8));
      link.down_bps = 1e6 * static_cast<double>(1 + rng.uniform(8));
      link.latency = SimTime::micros(static_cast<std::int64_t>(rng.uniform(5000)));
      links.push_back(link);
      ids.push_back(net.add_station(link));
    }
    // What ran, in order, as (time in us, tag): a timer's tag is its index
    // in arming order, a delivery's is minus its message seq.
    using Log = std::vector<std::pair<std::int64_t, std::int64_t>>;
    Log got;
    Log want;
    for (StationId id : ids) {
      net.set_handler(id, [&](const Message& m) {
        got.emplace_back(net.now().as_micros(), -static_cast<std::int64_t>(m.seq));
      });
    }
    // A spawning timer arms a child when it fires, from inside the run.
    auto child_delay = [](std::int64_t tag) { return (tag * 7919) % 3000; };

    // The network side. handles[tag] is null for schedule_at timers.
    std::vector<Fabric::TimerHandle> handles;
    std::function<void(std::int64_t, bool, bool)> net_arm = [&](std::int64_t delta,
                                                                bool cancellable, bool spawns) {
      const auto tag = static_cast<std::int64_t>(handles.size());
      auto fire = [&, tag, spawns] {
        got.emplace_back(net.now().as_micros(), tag);
        if (spawns) net_arm(child_delay(tag), true, false);
      };
      if (cancellable) {
        handles.push_back(net.schedule_on(ids[0], SimTime::micros(delta), fire));
      } else {
        handles.push_back(nullptr);
        net.schedule_at(net.now() + SimTime::micros(delta), fire);
      }
    };

    // The model.
    struct Pending {
      std::int64_t tag;
      bool spawns;
    };
    std::map<std::pair<std::int64_t, std::uint64_t>, Pending> model;
    std::vector<bool> cancelled;  // by timer tag
    std::vector<std::int64_t> up_busy(kStations, 0);
    std::vector<std::int64_t> down_busy(kStations, 0);
    std::uint64_t seq = 0;
    std::uint64_t msg_seq = 0;
    std::int64_t now = 0;
    auto model_arm = [&](std::int64_t delta, bool spawns) {
      const auto tag = static_cast<std::int64_t>(cancelled.size());
      cancelled.push_back(false);
      model[{now + delta, ++seq}] = Pending{tag, spawns};
    };
    auto model_send = [&](std::size_t from, std::size_t to, std::uint64_t size) {
      auto tx = [size](double bps) {
        return SimTime::seconds(static_cast<double>(size) * 8.0 / bps).as_micros();
      };
      up_busy[from] = std::max(now, up_busy[from]) + tx(links[from].up_bps);
      const std::int64_t arrive =
          up_busy[from] + links[from].latency.as_micros() + links[to].latency.as_micros();
      down_busy[to] = std::max(arrive, down_busy[to]) + tx(links[to].down_bps);
      model[{down_busy[to], ++seq}] = Pending{-static_cast<std::int64_t>(++msg_seq), false};
    };
    auto model_run_until = [&](std::int64_t t) {
      while (!model.empty() && model.begin()->first.first <= t) {
        auto node = model.extract(model.begin());
        const Pending ev = node.mapped();
        if (ev.tag >= 0 && cancelled[static_cast<std::size_t>(ev.tag)]) continue;
        now = node.key().first;
        want.emplace_back(now, ev.tag);
        if (ev.spawns) model_arm(child_delay(ev.tag), false);
      }
    };

    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t kind = rng.uniform(100);
      if (kind < 35) {
        // Some deadlines are rpc-like: long, and mostly cancelled later.
        const std::int64_t delta =
            rng.bernoulli(0.3) ? 60'000'000 : static_cast<std::int64_t>(rng.uniform(20'000));
        const bool cancellable = rng.bernoulli(0.6);
        const bool spawns = rng.bernoulli(0.2);
        net_arm(delta, cancellable, spawns);
        model_arm(delta, spawns);
      } else if (kind < 55) {
        const std::size_t from = rng.uniform(kStations);
        const std::size_t to = rng.uniform(kStations);
        const std::uint64_t size = 1 + rng.uniform(2000);
        ASSERT_TRUE(net.send(make_msg(ids[from], ids[to], size)).is_ok());
        model_send(from, to, size);
      } else if (kind < 80) {
        if (handles.empty()) continue;
        const std::size_t tag = rng.uniform(handles.size());
        if (handles[tag] == nullptr) continue;
        handles[tag]->store(true);
        cancelled[tag] = true;
      } else {
        const std::int64_t t = now + static_cast<std::int64_t>(rng.uniform(5000));
        net.run_until(SimTime::micros(t));
        model_run_until(t);
        now = std::max(now, t);
        ASSERT_EQ(got, want) << "op " << op;
        ASSERT_EQ(net.now().as_micros(), now) << "op " << op;
      }
      ASSERT_EQ(handles.size(), cancelled.size()) << "op " << op;
    }
    net.run();
    model_run_until(INT64_MAX);
    EXPECT_EQ(got, want);
    EXPECT_EQ(net.now().as_micros(), now);
    EXPECT_EQ(net.pending_events(), 0u);
  }
}

// --- ThreadTransport ------------------------------------------------------

TEST(ThreadTransport, DeliversToHandlerThread) {
  ThreadTransport transport;
  std::atomic<int> received{0};
  StationId b = transport.add_station([&](const Message&) { received++; });
  StationId a = transport.add_station([](const Message&) {});
  ASSERT_TRUE(transport.send(make_msg(a, b, 100)).is_ok());
  ASSERT_TRUE(transport.send(make_msg(a, b, 100)).is_ok());
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(received.load(), 2);
  EXPECT_EQ(transport.messages_delivered(), 2u);
  transport.shutdown();
}

TEST(ThreadTransport, PreservesFifoPerReceiver) {
  ThreadTransport transport;
  std::vector<std::uint64_t> seqs;
  std::mutex mu;
  StationId b = transport.add_station([&](const Message& m) {
    std::lock_guard<std::mutex> g(mu);
    seqs.push_back(m.seq);
  });
  StationId a = transport.add_station([](const Message&) {});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(transport.send(make_msg(a, b, 10)).is_ok());
  }
  ASSERT_TRUE(transport.quiesce());
  ASSERT_EQ(seqs.size(), 50u);
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  transport.shutdown();
}

TEST(ThreadTransport, UnknownReceiverRejected) {
  ThreadTransport transport;
  StationId a = transport.add_station([](const Message&) {});
  EXPECT_EQ(transport.send(make_msg(a, StationId{42}, 1)).code(), Errc::not_found);
  transport.shutdown();
}

TEST(ThreadTransport, NowAdvances) {
  ThreadTransport transport;
  SimTime t0 = transport.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(transport.now(), t0);
  transport.shutdown();
}

// Cancelled timers, some due at once and some far off (and so reclaimed
// from the timer heap while others are still pending), never reach the
// station's worker; the live ones all do.
TEST(ThreadTransport, CancelledTimersNeverFire) {
  std::atomic<int> fired{0};  // outlives the transport's threads
  ThreadTransport transport;
  StationId a = transport.add_station([](const Message&) {});
  for (int i = 0; i < 1000; ++i) {
    const bool live = i % 10 == 0;
    const SimTime delta = live ? SimTime::millis(5)
                               : (i % 10 < 5 ? SimTime::millis(1) : SimTime::seconds(60));
    Fabric::TimerHandle h = transport.schedule_on(a, delta, [&] { fired++; });
    if (!live) h->store(true);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fired.load() < 100 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(transport.quiesce());
  EXPECT_EQ(fired.load(), 100);
  transport.shutdown();
}

TEST(ThreadTransport, ShutdownIsIdempotent) {
  ThreadTransport transport;
  (void)transport.add_station([](const Message&) {});
  transport.shutdown();
  transport.shutdown();
}

}  // namespace
}  // namespace wdoc::net
