#include "net/swarm_wire.hpp"

namespace wdoc::net {

namespace {

[[nodiscard]] constexpr std::uint32_t words_for(std::uint32_t chunks) {
  return (chunks + 63) / 64;
}

}  // namespace

Bytes SwarmHave::encode() const {
  Writer w;
  w.u64(transfer_id);
  w.u64(position);
  w.u32(backlog);
  w.u64(recovering);
  w.u32(total_chunks);
  for (std::uint64_t word : words) w.u64(word);
  for (std::uint64_t word : pending_words) w.u64(word);
  if (!indices.empty()) {
    w.u32(static_cast<std::uint32_t>(indices.size()));
    for (std::uint32_t g : indices) w.u32(g);
  }
  return w.take();
}

Result<SwarmHave> SwarmHave::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  SwarmHave out;
  auto id = r.u64();
  auto pos = r.u64();
  auto backlog = r.u32();
  auto recovering = r.u64();
  auto total = r.u32();
  if (!id || !pos || !backlog || !recovering || !total) {
    return Error{Errc::corrupt, "bad swarm have"};
  }
  out.transfer_id = id.value();
  out.position = pos.value();
  out.backlog = backlog.value();
  out.recovering = recovering.value();
  out.total_chunks = total.value();
  if (out.total_chunks == 0 || out.total_chunks > kMaxWireChunks) {
    return Error{Errc::corrupt, "swarm have: implausible chunk count"};
  }
  // The word count is implied by the geometry, never carried separately —
  // a bitmap that doesn't exactly cover total_chunks is corruption.
  // No reserve: the claimed geometry could be huge, so growth is paced by
  // reads actually succeeding against the buffer.
  const std::uint32_t n = words_for(out.total_chunks);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto word = r.u64();
    if (!word) return Error{Errc::corrupt, "swarm have: truncated bitmap"};
    out.words.push_back(word.value());
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    auto word = r.u64();
    if (!word) return Error{Errc::corrupt, "swarm have: truncated pending bitmap"};
    out.pending_words.push_back(word.value());
  }
  // The request trailer: absent, or a nonzero count followed by exactly
  // that many in-geometry indices (encode() never writes an empty one).
  if (r.remaining() == 0) return out;
  auto asked = r.count(4);
  if (!asked || asked.value() == 0 || r.remaining() != std::size_t{asked.value()} * 4) {
    return Error{Errc::corrupt, "swarm have: bad request trailer"};
  }
  out.indices.reserve(asked.value());
  for (std::uint32_t i = 0; i < asked.value(); ++i) {
    const std::uint32_t g = r.u32().value();
    if (g >= out.total_chunks) {
      return Error{Errc::corrupt, "swarm have: request index out of range"};
    }
    out.indices.push_back(g);
  }
  return out;
}

}  // namespace wdoc::net
