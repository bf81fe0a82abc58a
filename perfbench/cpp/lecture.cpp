// The lecture half of instructor_n1023: the instructor pre-broadcasts one
// 10 MB lecture to 1023 stations on 10 Mb/s, 15 ms campus links
// (bench/sim_cluster.hpp), each station's latency within 0.1 ms of that,
// drawn from the seed. The lecture is pushed twice, each on a freshly
// built cluster: by the pipelined chunked tree (m=2), then by
// swarm (2 stripe trees). net, dist and swarm do all the work here; the
// tree push bypasses the swarm scheduler.
//
// A round is both pushes; rounds repeat on the same inputs until the run's
// time is spent, so simulated results must repeat exactly from round to
// round. Spans wrap dist::StationNode::broadcast_push and
// net::SimNetwork::run under one span per push.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "sim_cluster.hpp"

namespace perfbench {
namespace {

using namespace wdoc;

constexpr std::size_t kStations = 1023;
constexpr std::uint64_t kFanout = 2;
constexpr std::uint64_t kLectureBytes = 10 << 20;
constexpr double kLinkBps = bench::kCampusLink.up_bps;
// Per-station latency spread around the campus link's, in microseconds.
constexpr std::int64_t kLatencySpreadUs = 100;
// Simulated seconds timed one by one; the rest runs as one final slice.
constexpr int kSlices = 60;

enum class Strategy { tree, swarm };
const char* tag(Strategy s) { return s == Strategy::tree ? "tree" : "swarm"; }

using Cluster = wdoc::bench::SimCluster;

std::unique_ptr<Cluster> build_cluster(Strategy strategy, std::uint64_t seed) {
  dist::StationConfig cfg;
  cfg.chunk.enabled = true;
  if (strategy == Strategy::swarm) {
    cfg.swarm.enabled = true;
    cfg.swarm.trees = 2;
  }
  auto cluster =
      std::make_unique<Cluster>(kStations, kFanout, bench::kCampusLink, cfg, seed);
  // Each station's one-way latency is the campus link's 15 ms give or take
  // kLatencySpreadUs, drawn from the seed: the seed shapes the lecture's
  // inputs, so the simulated makespans differ slightly from seed to seed.
  Rng rng(seed);
  for (std::size_t i = 0; i < kStations; ++i) {
    net::StationLink link = bench::kCampusLink;
    const auto offset = static_cast<std::int64_t>(rng.uniform(2 * kLatencySpreadUs + 1));
    link.latency += SimTime::micros(offset - kLatencySpreadUs);
    cluster->net().set_link(cluster->id(i), link).expect("set link");
  }
  return cluster;
}

// Registry counters read around each push.
constexpr const char* kCounters[] = {
    "net.messages_sent",   "net.bytes_sent",         "net.payload.bytes_copied",
    "dist.chunk.sent",     "dist.chunk.retransmits", "dist.chunk.duplicate_rx",
    "dist.chunk.wasted_bytes", "rpc.retries",        "swarm.reqs",
    "swarm.served",        "swarm.haves"};
constexpr std::size_t kNumCounters = sizeof(kCounters) / sizeof(kCounters[0]);

struct Push {
  double push_wall_s = 0;  // broadcast_push call
  double run_wall_s = 0;   // simulating to quiescence
  // CPU of the broadcast_push call, then of each simulated-time slice.
  std::vector<double> cpu_s;
  std::vector<double> done_s;  // per receiving station, simulated
  double makespan_s = 0;
  double root_uplink_mb = 0;
  std::uint64_t chunks_received = 0;
  std::uint64_t counters[kNumCounters] = {};
};

Push run_push(Strategy strategy, std::uint64_t seed, std::uint64_t group, Report& r) {
  Push out;
  const std::unique_ptr<Cluster> cluster = build_cluster(strategy, seed);
  const dist::DocManifest doc = bench::make_lecture(
      "http://mmu.edu/lecture-" + std::to_string(seed), kLectureBytes, cluster->id(0));

  std::uint64_t before[kNumCounters];
  for (std::size_t i = 0; i < kNumCounters; ++i) before[i] = counter(kCounters[i]);
  {
    ScopedSpan root("lecture.push", 0, group);
    const std::int64_t t0 = now_ns();
    double c = cpu_seconds();
    auto lap = [&] {
      const double now = cpu_seconds();
      out.cpu_s.push_back(now - c);
      c = now;
    };
    Status pushed = Status::ok();
    {
      ScopedSpan s("dist.broadcast_push", root.id(), group);
      pushed = cluster->node(0).broadcast_push(doc);
    }
    lap();
    const std::int64_t t1 = now_ns();
    {
      // SimNetwork::run in fixed slices of simulated time, so each slice is
      // the same work in every round and keeps its own best CPU time.
      ScopedSpan s("net.run", root.id(), group);
      for (int i = 1; i <= kSlices; ++i) {
        (void)cluster->net().run_until(SimTime::seconds(i));
        lap();
      }
      cluster->net().run();
      lap();
    }
    out.push_wall_s = ns_to_s(t1 - t0);
    out.run_wall_s = ns_to_s(now_ns() - t1);
    if (!pushed.is_ok()) r.fail(std::string(tag(strategy)) + " push: " + pushed.message());
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.counters[i] = counter(kCounters[i]) - before[i];
  }

  r.attempted += kStations - 1;
  const std::size_t have = cluster->count_materialized(doc.doc_key);
  if (have != kStations) {
    for (std::size_t i = have; i < kStations; ++i) {
      r.fail(std::string(tag(strategy)) + ": a station did not materialize the lecture");
    }
  }
  if (out.counters[2] != 0) {
    r.fail(std::string(tag(strategy)) + ": " + std::to_string(out.counters[2]) +
           " payload bytes copied");
  }
  for (std::size_t i = 1; i < kStations; ++i) {
    const double t = cluster->node(i).last_delivery().as_seconds();
    out.done_s.push_back(t);
    out.makespan_s = std::max(out.makespan_s, t);
    out.chunks_received += cluster->node(i).stats().chunks_received;
  }
  out.root_uplink_mb =
      static_cast<double>(cluster->net().stats(cluster->id(0)).bytes_sent) / 1e6;
  return out;
}

struct PassResult {
  std::vector<Push> pushes[2];  // by strategy, one per round
};

PassResult run_pass(const Options& opt, Report& r) {
  PassResult out;
  const std::int64_t start = now_ns();
  // Above the span groups of the commit half's transactions.
  std::uint64_t group = std::uint64_t{1} << 40;
  do {
    for (Strategy s : {Strategy::tree, Strategy::swarm}) {
      Push p = run_push(s, opt.seed, ++group, r);
      auto& prior = out.pushes[static_cast<int>(s)];
      if (!prior.empty() && (p.done_s != prior.front().done_s ||
                             p.counters[0] != prior.front().counters[0])) {
        r.fail(std::string(tag(s)) + ": simulation did not repeat on identical inputs");
      }
      prior.push_back(std::move(p));
    }
  } while (ns_to_s(now_ns() - start) < opt.seconds);
  return out;
}

}  // namespace

double time_cluster_setup(std::uint64_t seed) {
  double total = 0;
  for (Strategy s : {Strategy::tree, Strategy::swarm}) {
    const std::int64_t t0 = now_ns();
    const std::unique_ptr<Cluster> cluster = build_cluster(s, seed);
    total += ns_to_s(now_ns() - t0);
  }
  return total;
}

void run_lecture(const Options& opt, Report& r) {
  const double bound_s = 8.0 * static_cast<double>(kLectureBytes) / kLinkBps;
  std::printf("lecture: %zu stations, %llu MB lecture, tree m=%llu then swarm (2 "
              "stripe trees), seed %llu; bandwidth bound %.2f s\n",
              kStations, static_cast<unsigned long long>(kLectureBytes >> 20),
              static_cast<unsigned long long>(kFanout),
              static_cast<unsigned long long>(opt.seed), bound_s);

  SpanLog::global().enable(false);
  const PassResult plain = run_pass(opt, r);

  // Rounds repeat identical work, so each slice of a push keeps its best
  // (lowest) CPU time over the rounds and the leg's figure is their sum:
  // on a shared host the slower rounds measure other tenants. Wall times
  // are the best round.
  const char* legs[2] = {"first", "second"};
  double plain_wall[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    const auto& pushes = plain.pushes[s];
    std::vector<double> best_slice = pushes.front().cpu_s, wall;
    for (const Push& p : pushes) {
      for (std::size_t i = 0; i < best_slice.size(); ++i) {
        best_slice[i] = std::min(best_slice[i], p.cpu_s[i]);
      }
      wall.push_back(p.push_wall_s + p.run_wall_s);
    }
    double cpu = 0;
    for (double c : best_slice) cpu += c;
    plain_wall[s] = min_of(wall);
    // Simulated results repeat exactly, so the first round stands for all.
    const Percentile p50 = median(pushes.front().done_s);
    const Percentile p99 = tail(pushes.front().done_s);
    const char* name = tag(static_cast<Strategy>(s));
    std::printf("  %s_makespan_s = %.4f s simulated (%.2fx bound), %s_wall_s = %.3f s "
                "(best of %zu)\n",
                name, pushes.front().makespan_s, pushes.front().makespan_s / bound_s, name,
                plain_wall[s], wall.size());
    r.e2e(std::string(legs[s]) + ".p50_us", p50.value * 1e6, "us", p50.samples);
    r.e2e(std::string(legs[s]) + ".p99_us", p99.value * 1e6, "us", p99.samples);
    r.e2e(std::string(legs[s]) + ".cpu_s", cpu, "s", pushes.size());
    r.e2e(std::string(legs[s]) + ".cost", pushes.front().makespan_s / bound_s, "ratio",
          pushes.front().done_s.size());
  }
  if (!opt.trace) return;

  SpanLog::global().enable(true);
  const PassResult traced = run_pass(opt, r);
  SpanLog::global().enable(false);

  double traced_wall = 0;
  double copied = 0;
  for (int s = 0; s < 2; ++s) {
    const std::string sfx = std::string(".") + tag(static_cast<Strategy>(s));
    const auto& pushes = traced.pushes[s];
    std::vector<double> push_wall, run_wall, wall;
    for (const Push& p : pushes) {
      push_wall.push_back(p.push_wall_s);
      run_wall.push_back(p.run_wall_s);
      wall.push_back(p.push_wall_s + p.run_wall_s);
      copied += static_cast<double>(p.counters[2]);
    }
    traced_wall += min_of(wall);
    const Push& p = pushes.front();
    auto c = [&](const char* name) {
      for (std::size_t i = 0; i < kNumCounters; ++i) {
        if (std::string_view(kCounters[i]) == name) return static_cast<double>(p.counters[i]);
      }
      return 0.0;
    };
    r.layer("lecture.push_wall_s" + sfx, min_of(push_wall), "s", push_wall.size());
    r.layer("lecture.run_wall_s" + sfx, min_of(run_wall), "s", run_wall.size());
    r.layer("net.messages" + sfx, c("net.messages_sent"), "count");
    r.layer("net.msgs_per_wall_s" + sfx, c("net.messages_sent") / min_of(run_wall), "1/s");
    r.layer("net.wire_bytes_per_payload_byte" + sfx,
            c("net.bytes_sent") / (static_cast<double>(kLectureBytes) * (kStations - 1)),
            "ratio");
    r.layer("dist.root_uplink_mb" + sfx, p.root_uplink_mb, "MB");
    r.layer("dist.chunk.sent" + sfx, c("dist.chunk.sent"), "count");
    r.layer("dist.chunk.retransmits" + sfx, c("dist.chunk.retransmits"), "count");
    r.layer("rpc.retries" + sfx, c("rpc.retries"), "count");
    const Percentile d50 = median(p.done_s);
    const Percentile d99 = tail(p.done_s);
    r.layer("dist.station_done_s.p50" + sfx, d50.value, "s", d50.samples);
    r.layer("dist.station_done_s.p99" + sfx, d99.value, "s", d99.samples);
    r.layer("dist.station_done_s.max" + sfx, p.makespan_s, "s", p.done_s.size());
    r.layer("dist.makespan_over_bound" + sfx, p.makespan_s / bound_s, "ratio");
    if (s == static_cast<int>(Strategy::swarm)) {
      const double received = static_cast<double>(p.chunks_received);
      r.layer("swarm.reqs", c("swarm.reqs"), "count");
      r.layer("swarm.served", c("swarm.served"), "count");
      r.layer("swarm.haves_sent", c("swarm.haves"), "count");
      r.layer("swarm.useful_ratio", received / (received + c("dist.chunk.duplicate_rx")),
              "ratio");
      r.layer("swarm.wasted_bytes", c("dist.chunk.wasted_bytes"), "B");
    }
  }
  r.layer("net.payload.bytes_copied", copied, "B");
  r.layer("obs.trace_overhead_frac.lecture",
          traced_wall / (plain_wall[0] + plain_wall[1]) - 1, "ratio");
}

}  // namespace perfbench
