// Wire format of the chunked transfer protocol (push and repair paths).
//
//   ChunkBegin  opens a push transfer: geometry plus an opaque manifest blob
//               the distribution layer interprets; charged at structure
//               size. A swarm transfer appends its stripe-tree count after
//               the manifest; a pipelined-tree begin ends at the manifest
//               and pays no byte for swarm mode.
//   ChunkData   one sequence-numbered, content-hashed chunk. req_id != 0
//               requests a ChunkAck (windowed push under rpc deadlines);
//               req_id == 0 is unacked repair/pull data riding ahead of its
//               ChunkRsp summary on the same FIFO link.
//   ChunkAck    receipt for one pushed chunk; completes the sender's rpc
//               and frees a slot in the per-child in-flight window.
//   ChunkReq    pull request for an explicit list of missing chunk indices.
//   ChunkRsp    pull summary: how many of the requested chunks were served.
//
// ChunkData's bulk bytes do NOT travel inside the encoded header: they ride
// as net::Message::body, a refcounted Payload slice, so a relay re-encodes
// only the ~50-byte header per hop and forwards the received bytes
// untouched. encode() renders the header; decode() takes the header bytes
// and the out-of-band body and cross-checks them (a body/length or
// body/flag mismatch is corruption).
//
// Every decoder fails with Errc::corrupt on truncation, implausible counts,
// or oversized lengths — hostile input must never drive an allocation or
// out-of-bounds read (fuzzed in tests/test_decode_fuzz.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/result.hpp"
#include "common/serialize.hpp"
#include "net/payload.hpp"

namespace wdoc::net {

inline constexpr const char* kChunkBegin = "dist.chunk_begin";
inline constexpr const char* kChunkData = "dist.chunk";
inline constexpr const char* kChunkAck = "dist.chunk_ack";
inline constexpr const char* kChunkReq = "dist.chunk_req";
inline constexpr const char* kChunkRsp = "dist.chunk_rsp";

// Decode-time ceiling on declared chunk sizes (mirrors blob::kMaxChunkBytes
// without reaching into the blob layer).
inline constexpr std::uint32_t kMaxWireChunkBytes = 64u << 20;
// Decode-time ceiling on a swarm begin's stripe-tree count.
inline constexpr std::uint32_t kMaxWireTrees = 64;

// Wire layout: u64 transfer_id | u32 chunk_bytes | bytes(manifest), then
// u32 trees only when trees != 0. Decoding takes no trailing bytes as the
// pipelined tree, exactly 4 as a stripe count in [1, kMaxWireTrees], and
// anything else as corrupt.
struct ChunkBegin {
  std::uint64_t transfer_id = 0;
  std::uint32_t chunk_bytes = 0;
  Bytes manifest;  // opaque to the transport; dist decodes a DocManifest
  std::uint32_t trees = 0;  // swarm stripe trees; 0 = the pipelined tree

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkBegin> decode(std::span<const std::uint8_t> b);
};

struct ChunkData {
  std::uint64_t req_id = 0;       // != 0: ack requested, completes this rpc
  std::uint64_t transfer_id = 0;  // != 0: part of a push transfer (relayed)
  Digest128 digest;               // blob being assembled
  std::uint32_t index = 0;        // sequence number within the blob
  std::uint32_t chunk_len = 0;    // bytes this chunk covers (charged on wire)
  Digest128 chunk_digest;         // content hash of this chunk
  bool has_payload = false;       // false = synthetic (size-only) transfer
  Payload payload;                // exactly chunk_len bytes when has_payload

  // Header only — `payload` travels out-of-band as Message::body.
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkData> decode(std::span<const std::uint8_t> header,
                                                Payload body);
};

struct ChunkAck {
  std::uint64_t req_id = 0;
  std::uint64_t transfer_id = 0;
  Digest128 digest;
  std::uint32_t index = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkAck> decode(std::span<const std::uint8_t> b);
};

struct ChunkReq {
  std::uint64_t req_id = 0;
  std::string doc_key;
  Digest128 digest;
  std::uint64_t size = 0;         // whole-blob size (last chunk is ragged)
  std::uint8_t media_type = 0;
  std::uint32_t chunk_bytes = 0;
  std::vector<std::uint32_t> indices;  // missing chunks, ascending

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkReq> decode(std::span<const std::uint8_t> b);
};

struct ChunkRsp {
  std::uint64_t req_id = 0;
  std::uint32_t served = 0;
  std::uint32_t requested = 0;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<ChunkRsp> decode(std::span<const std::uint8_t> b);
};

}  // namespace wdoc::net
