// The multi-source swarm distribution mode (DESIGN.md §4f): its two knobs
// and the fixed protocol constants behind them.
//
// Swarm mode layers three mechanisms over the PR 4 chunk pipeline: chunks
// striped round-robin across `trees` rotated stripe trees, periodic
// have-bitmap gossip to a bounded deterministic neighbor set, and
// rarest-first pull of chunks whose stripe tree has stalled. All timing
// runs on the fabric clock and all tie-breaks are seeded hashes, so a
// same-seed simulation is byte-identical.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "common/sim_time.hpp"

namespace wdoc::swarm {

// Cadence of SwarmHave bitmap gossip per active transfer.
inline constexpr SimTime kGossipInterval = SimTime::millis(250);
// Seeded pseudo-random peers added to each station's neighbor set on top
// of its stripe-tree relations (bounded-degree overlay shortcuts).
inline constexpr std::uint32_t kExtraPeers = 2;
// Max outstanding swarm chunk requests per neighbor link.
inline constexpr std::uint32_t kLinkWindow = 8;
// Max outstanding swarm chunk requests across ALL peers — this bounds
// how much pulled data can pile onto one downlink, which otherwise
// competes with (and slows) the stripe pipeline itself. The windows are
// stated in chunks, not bytes: each pulled chunk queued on a downlink
// delays the stripe chunk behind it by one chunk-time, whatever the chunk
// size.
inline constexpr std::uint32_t kPullWindow = 12;
// The pull window of a station that still relays a healthy stripe while a
// recovering parent relays it the broken one: one request in flight. Its
// downlink is FIFO, so every pulled chunk queued ahead of a healthy-stripe
// chunk holds up that chunk's relay to the whole subtree below, and the
// parent's relays already bring it the broken stripe. A subtree head, with
// no live feed for the broken stripe, keeps kPullWindow.
inline constexpr std::uint32_t kRelayPullWindow = 1;
// Max chunk indices a station serves from one SwarmHave's request; any
// further indices are ignored (the hostile-length guard).
inline constexpr std::uint32_t kRequestBatch = 32;
// A station counts as relay-busy, and advertises the serve latency of one,
// while it has stripe children, is still acquiring, and its relays filled
// at least this share (in percent) of the last gossip round's send slots.
// A parent whose child died relays at half rate: its spare slots make it
// the cheapest server for the orphans.
inline constexpr std::uint32_t kBusyRelayPercent = 75;
// Paced-send priority mix: after this many consecutive stripe relays, one
// queued request serve is let through even while relays are pending. With
// cut-through relaying the relay queue is empty between arrivals, so
// serves mostly ride those genuinely idle uplink slots; the stride only
// governs forced preemption during relay *bursts*, where every yielded
// slot delays an entire downstream chain by a full chunk-time. A fairly
// moderate stride keeps busy relay chains near line rate (recovery pulls
// are steered toward idle uplinks by the backlog advert anyway) while
// still bounding serve starvation when a backlog persists.
inline constexpr std::uint32_t kServeStride = 4;
// A stripe tree with no chunk arrival for this many chunk-times (one
// chunk's serialization on the station's own uplink) is considered
// stalled; only then does the scheduler pull its chunks from peers, so a
// clean pipeline generates zero duplicate traffic. A tree delivers a chunk
// every `trees` chunk-times at full utilization, so the timeout sits
// several of those cadences above it: low enough that an orphaned subtree
// starts recovering quickly (0.84 s at 64 KiB chunks on 10 Mb/s), high
// enough that normal inter-chunk jitter never trips it (pull mode also
// latches once tripped, so a borderline timeout cannot oscillate — see
// scheduler.hpp). Stated in chunk-times because the cadence scales with
// the chunk size.
inline constexpr std::uint32_t kStallChunks = 16;
// A peer that has sent no gossip for this many gossip rounds is presumed
// gone (crashed, or its transfer retired): no pull is planned on it, a
// stripe parent parks its relays to it behind every other send, and an
// orphan walks past it to the next stripe ancestor.
inline constexpr SimTime kPeerTimeout = kGossipInterval * 4;
// A tree that has never delivered a chunk is held to this longer grace
// before counting as stalled: at depth the first stripe chunk takes
// several pipeline hops to arrive, and treating that ramp-up as a stall
// would pull chunks the pipeline was about to push anyway.
inline constexpr SimTime kStartupGrace = SimTime::seconds(5.0);
// A planned request not satisfied within this many chunk-times (1.68 s at
// 64 KiB chunks on 10 Mb/s) is forgotten and may be re-planned against
// another peer. Serves yield to stripe relays at the serving peer, so under
// congestion a request is a *reservation* that drains when the peer's
// uplink frees up: too short a deadline re-requests chunks that are merely
// queued, and the duplicate serves eat the very idle capacity recovery
// depends on (at 16 the 63-station mirror crash drill costs +14.3%, not
// +7.1%). Too long a deadline paces recovery under loss, where a dropped
// request or serve is re-planned only once it expires (the 10%-loss drill
// takes 30-34 s at 32, 38-57 s at 48, 64-88 s at 114, about 6 s). Stated in
// chunk-times because the serve latency scales with the chunk size.
inline constexpr std::uint32_t kRequestChunks = 32;
// Gossip stops once the station and (as far as it has heard) all its
// neighbors are complete, or after this many completed-but-quiet rounds.
inline constexpr std::uint32_t kIdleRounds = 3;
// Hard safety cap on gossip rounds per transfer.
inline constexpr std::uint32_t kMaxRounds = 4096;

struct SwarmConfig {
  // Off by default: broadcast_push falls back to the single-tree chunked
  // pipeline (or store-and-forward when that is disabled too).
  bool enabled = false;
  // Interleaved stripe trees. Chunk g rides tree g % trees; each tree is a
  // rotation of the same full m-ary placement, so a station interior in
  // one tree is (mostly) a leaf in the others and every uplink carries
  // roughly blob_bytes/trees of useful relay work.
  std::uint32_t trees = 2;

  [[nodiscard]] Status validate() const {
    if (enabled && (trees == 0 || trees > 64))
      return {Errc::invalid_argument, "swarm.trees must be in [1, 64]"};
    return {};
  }
};

}  // namespace wdoc::swarm
