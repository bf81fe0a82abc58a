// Internals shared by the files that implement StationNode, one per job:
// station_node.cpp (core), station_push.cpp, station_swarm.cpp,
// station_pull.cpp and station_scrape.cpp. Not part of the dist API.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace wdoc::dist::detail {

// Process-wide distribution counters; every StationNode shares them.
struct DistMetrics {
  obs::Counter& pushes;
  obs::Counter& pulls;
  obs::Counter& serves;
  obs::Counter& replications;
  obs::Counter& migrations;
  obs::Counter& failed_fetches;
  obs::Counter& failovers;
  obs::Counter& resurrections;
  obs::Counter& scrape_partials;
  obs::Counter& chunk_sent;
  obs::Counter& chunk_bytes;
  obs::Counter& chunk_rejects;
  obs::Counter& chunk_retransmits;
  obs::Counter& chunk_orphans;
  obs::Counter& chunk_repair_reqs;
  obs::Counter& chunk_repair_served;
  obs::Counter& chunk_duplicate_rx;
  obs::Counter& chunk_wasted_bytes;
  obs::Counter& swarm_begins;
  obs::Counter& swarm_haves;
  obs::Counter& swarm_reqs;
  obs::Counter& swarm_req_chunks;
  obs::Counter& swarm_served;
  obs::Counter& swarm_suppressed;
  obs::Counter& swarm_orphans;

  static DistMetrics& get() {
    static DistMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return new DistMetrics{
          reg.counter("dist.pushes"),         reg.counter("dist.pulls"),
          reg.counter("dist.serves"),         reg.counter("dist.replications"),
          reg.counter("dist.migrations"),     reg.counter("dist.failed_fetches"),
          reg.counter("dist.failovers"),      reg.counter("dist.resurrections"),
          reg.counter("dist.scrape_partials"),
          reg.counter("dist.chunk.sent"),     reg.counter("dist.chunk.bytes_sent"),
          reg.counter("dist.chunk.rejects"),  reg.counter("dist.chunk.retransmits"),
          reg.counter("dist.chunk.orphaned"),
          reg.counter("dist.chunk.repair_reqs"), reg.counter("dist.chunk.repair_served"),
          reg.counter("dist.chunk.duplicate_rx"), reg.counter("dist.chunk.wasted_bytes"),
          reg.counter("swarm.begins"),        reg.counter("swarm.haves"),
          reg.counter("swarm.reqs"),          reg.counter("swarm.req_chunks"),
          reg.counter("swarm.served"),        reg.counter("swarm.relay_suppressed"),
          reg.counter("swarm.orphans"),
      };
    }();
    return *m;
  }
};

// Packs (blob ordinal, chunk index) into the cursor queues' chunk key.
[[nodiscard]] constexpr std::uint64_t chunk_key(std::uint32_t ordinal, std::uint32_t index) {
  return (static_cast<std::uint64_t>(ordinal) << 32) | index;
}
[[nodiscard]] constexpr std::uint32_t key_ordinal(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}
[[nodiscard]] constexpr std::uint32_t key_index(std::uint64_t key) {
  return static_cast<std::uint32_t>(key & 0xffffffffu);
}

}  // namespace wdoc::dist::detail
