#include "net/chunk_wire.hpp"

namespace wdoc::net {

namespace {

[[nodiscard]] bool plausible_chunk_len(std::uint32_t len) {
  return len > 0 && len <= kMaxWireChunkBytes;
}

}  // namespace

Bytes ChunkBegin::encode() const {
  Writer w;
  w.u64(transfer_id);
  w.u32(chunk_bytes);
  w.bytes(manifest);
  if (trees != 0) w.u32(trees);
  return w.take();
}

Result<ChunkBegin> ChunkBegin::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  ChunkBegin out;
  auto id = r.u64();
  auto cb = r.u32();
  if (!id || !cb) return Error{Errc::corrupt, "bad chunk begin"};
  out.transfer_id = id.value();
  out.chunk_bytes = cb.value();
  if (!plausible_chunk_len(out.chunk_bytes)) {
    return Error{Errc::corrupt, "chunk begin: implausible chunk size"};
  }
  auto m = r.bytes();
  if (!m) return m.error();
  out.manifest = std::move(m).value();
  if (r.remaining() == 0) return out;
  auto trees = r.u32();
  if (!trees || r.remaining() != 0) {
    return Error{Errc::corrupt, "chunk begin: bad trailing stripe count"};
  }
  out.trees = trees.value();
  if (out.trees == 0 || out.trees > kMaxWireTrees) {
    return Error{Errc::corrupt, "chunk begin: implausible stripe count"};
  }
  return out;
}

Bytes ChunkData::encode() const {
  Writer w;
  w.u64(req_id);
  w.u64(transfer_id);
  w.u64(digest.lo);
  w.u64(digest.hi);
  w.u32(index);
  w.u32(chunk_len);
  w.u64(chunk_digest.lo);
  w.u64(chunk_digest.hi);
  w.boolean(has_payload);
  return w.take();
}

Result<ChunkData> ChunkData::decode(std::span<const std::uint8_t> header, Payload body) {
  Reader r(header);
  ChunkData out;
  auto req = r.u64();
  auto xfer = r.u64();
  auto lo = r.u64();
  auto hi = r.u64();
  auto idx = r.u32();
  auto len = r.u32();
  auto clo = r.u64();
  auto chi = r.u64();
  auto flag = r.u8();
  if (!req || !xfer || !lo || !hi || !idx || !len || !clo || !chi || !flag) {
    return Error{Errc::corrupt, "bad chunk data"};
  }
  if (flag.value() > 1) return Error{Errc::corrupt, "chunk data: bad payload flag"};
  out.req_id = req.value();
  out.transfer_id = xfer.value();
  out.digest = Digest128{lo.value(), hi.value()};
  out.index = idx.value();
  out.chunk_len = len.value();
  out.chunk_digest = Digest128{clo.value(), chi.value()};
  out.has_payload = flag.value() == 1;
  if (!plausible_chunk_len(out.chunk_len)) {
    return Error{Errc::corrupt, "chunk data: implausible length"};
  }
  // Cross-check the out-of-band body against the header's claim: a header
  // promising bytes it doesn't have (or bytes with no header claim) is as
  // corrupt as a truncated buffer.
  if (out.has_payload) {
    if (body.size() != out.chunk_len) {
      return Error{Errc::corrupt, "chunk data: payload/length mismatch"};
    }
    out.payload = std::move(body);  // the received slice, untouched
  } else if (!body.empty()) {
    return Error{Errc::corrupt, "chunk data: unexpected payload bytes"};
  }
  return out;
}

Bytes ChunkAck::encode() const {
  Writer w;
  w.u64(req_id);
  w.u64(transfer_id);
  w.u64(digest.lo);
  w.u64(digest.hi);
  w.u32(index);
  return w.take();
}

Result<ChunkAck> ChunkAck::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  ChunkAck out;
  auto req = r.u64();
  auto xfer = r.u64();
  auto lo = r.u64();
  auto hi = r.u64();
  auto idx = r.u32();
  if (!req || !xfer || !lo || !hi || !idx) return Error{Errc::corrupt, "bad chunk ack"};
  out.req_id = req.value();
  out.transfer_id = xfer.value();
  out.digest = Digest128{lo.value(), hi.value()};
  out.index = idx.value();
  return out;
}

Bytes ChunkReq::encode() const {
  Writer w;
  w.u64(req_id);
  w.str(doc_key);
  w.u64(digest.lo);
  w.u64(digest.hi);
  w.u64(size);
  w.u8(media_type);
  w.u32(chunk_bytes);
  w.u32(static_cast<std::uint32_t>(indices.size()));
  for (std::uint32_t i : indices) w.u32(i);
  return w.take();
}

Result<ChunkReq> ChunkReq::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  ChunkReq out;
  auto req = r.u64();
  if (!req) return req.error();
  out.req_id = req.value();
  auto key = r.str();
  if (!key) return key.error();
  out.doc_key = std::move(key).value();
  auto lo = r.u64();
  auto hi = r.u64();
  auto size = r.u64();
  auto type = r.u8();
  auto cb = r.u32();
  if (!lo || !hi || !size || !type || !cb) return Error{Errc::corrupt, "bad chunk req"};
  out.digest = Digest128{lo.value(), hi.value()};
  out.size = size.value();
  out.media_type = type.value();
  out.chunk_bytes = cb.value();
  if (!plausible_chunk_len(out.chunk_bytes)) {
    return Error{Errc::corrupt, "chunk req: implausible chunk size"};
  }
  auto n = r.count(4);
  if (!n) return n.error();
  out.indices.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto idx = r.u32();
    if (!idx) return idx.error();
    out.indices.push_back(idx.value());
  }
  return out;
}

Bytes ChunkRsp::encode() const {
  Writer w;
  w.u64(req_id);
  w.u32(served);
  w.u32(requested);
  return w.take();
}

Result<ChunkRsp> ChunkRsp::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  ChunkRsp out;
  auto req = r.u64();
  auto served = r.u32();
  auto requested = r.u32();
  if (!req || !served || !requested) return Error{Errc::corrupt, "bad chunk rsp"};
  out.req_id = req.value();
  out.served = served.value();
  out.requested = requested.value();
  return out;
}

}  // namespace wdoc::net
