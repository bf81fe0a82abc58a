// Wire format of the swarm distribution protocol (DESIGN.md §4f).
//
// A swarm transfer opens with the push's own ChunkBegin (net/chunk_wire.hpp)
// carrying the stripe-tree count after its manifest. It is sent down EVERY
// stripe tree: the m-fold redundancy is the loss protection, and duplicates
// are idempotent.
//
//   SwarmHave   periodic gossip: the sender's chunk-possession and pending
//               bitmaps for one transfer, packed one bit per chunk into
//               64-bit words. A have may also carry a rarest-first pull:
//               an explicit list of global chunk indices, written after the
//               pending bitmap only when non-empty, so a have without one
//               is byte-for-byte the plain gossip. Served chunks ride the
//               existing ChunkData message (req_id = 0, transfer_id set),
//               so arrival feeds the normal relay path.
//
// The decoder fails with Errc::corrupt on truncation, implausible counts,
// geometry the words/indices can't satisfy, or trailing bytes that are not
// exactly one non-empty request — hostile input must never drive an
// allocation or out-of-bounds read (fuzzed in tests/test_decode_fuzz.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "common/serialize.hpp"

namespace wdoc::net {

inline constexpr const char* kSwarmHave = "swarm.have";

// Decode-time ceiling on chunks per transfer (a 64 MB-chunk, 16M-chunk
// transfer is a petabyte — far past any lecture).
inline constexpr std::uint32_t kMaxWireChunks = 1u << 24;

struct SwarmHave {
  std::uint64_t transfer_id = 0;
  std::uint64_t position = 0;  // sender's 1-based tree position
  // Sender's estimated serve latency in chunk-times (queued relays plus
  // queued serves weighted by the relay slots each must yield to).
  // Requesters use it to route pulls toward uplinks with spare capacity.
  std::uint32_t backlog = 0;
  // Bit t set: the sender's stripe tree t has lost its push feed and is in
  // pull (recovery) mode. Descendants latch the bit from their own feed,
  // so it marks exactly the orphaned subtree.
  std::uint64_t recovering = 0;
  std::uint32_t total_chunks = 0;
  std::vector<std::uint64_t> words;  // exactly ceil(total_chunks / 64)
  // Chunks the sender has requested and not yet received (same geometry),
  // including any it requests in `indices`. A parent skips relaying these —
  // the copy is already on its way.
  std::vector<std::uint64_t> pending_words;
  // Global chunk indices the sender asks the receiver to serve, each below
  // total_chunks; empty for plain gossip.
  std::vector<std::uint32_t> indices;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<SwarmHave> decode(std::span<const std::uint8_t> b);
};

}  // namespace wdoc::net
