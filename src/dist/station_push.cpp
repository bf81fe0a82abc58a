// StationNode chunked push: begin, opening a hop's children, cut-through
// relay, and the windowed ChunkData/ChunkAck exchange. Shared by the
// pipelined tree and the swarm (DESIGN.md §4d, §4f).
#include <limits>

#include "blob/chunk.hpp"
#include "common/log.hpp"
#include "dist/station_detail.hpp"
#include "dist/station_node.hpp"
#include "obs/trace.hpp"
#include "swarm/stripe_tree.hpp"

namespace wdoc::dist {

using detail::chunk_key;
using detail::DistMetrics;
using detail::key_index;
using detail::key_ordinal;

namespace {

// Drains child cursors into this station's FIFO uplink one chunk per cursor
// per pass, until a pass moves nothing. step(cursor) queues at most one
// chunk and says whether it did. Draining cursor by cursor instead would put
// one child's whole backlog ahead of the next child's first chunk, and that
// child's subtree would start a window's serialization time late.
template <typename Cursors, typename Step>
void drain_round_robin(Cursors& cursors, Step step) {
  for (bool more = true; more;) {
    more = false;
    for (auto& cursor : cursors) more = step(cursor) || more;
  }
}

}  // namespace

StationNode::Transfer StationNode::new_transfer(const DocManifest& manifest,
                                                std::uint32_t chunk_bytes) {
  Transfer t;
  t.manifest = manifest;
  t.chunk_bytes = chunk_bytes;
  for (const BlobRef& b : manifest.blobs) {
    t.total_chunks += blob::chunk_count(b.size, chunk_bytes);
  }
  return t;
}

Status StationNode::start_push(const DocManifest& manifest, std::uint32_t trees) {
  const std::uint64_t transfer_id = (self_.value() << 24) | ++next_req_;
  Transfer t = new_transfer(manifest, config_.chunk.chunk_bytes);
  if (trees != 0 && t.total_chunks > net::kMaxWireChunks) {
    return {Errc::invalid_argument, "transfer too large for swarm mode"};
  }
  t.delivered = true;  // the instructor holds the persistent instance
  last_delivery_ = fabric_->now();
  t.trace_id = obs::derive_trace_id(transfer_id);
  t.span = obs::Tracer::global().begin(
      (trees == 0 ? "dist.push " : "swarm.push ") + manifest.doc_key, 0, fabric_->now(),
      self_.value(), t.trace_id);
  open_transfer(transfer_id, std::move(t), trees);
  return Status::ok();
}

void StationNode::on_begin(const net::Message& msg) {
  auto begin = net::ChunkBegin::decode(msg.payload);
  if (!begin) {
    WDOC_ERROR("%s decode failed: %s", msg.type.c_str(), begin.message().c_str());
    return;
  }
  Reader mr(begin.value().manifest);
  auto manifest = DocManifest::deserialize(mr);
  if (!manifest) {
    WDOC_ERROR("%s manifest decode failed: %s", msg.type.c_str(),
               manifest.message().c_str());
    return;
  }
  ++stats_.pushes_received;
  const std::uint64_t transfer_id = begin.value().transfer_id;
  // A swarm station is a child in several stripe trees: every tree's parent
  // announces, the first begin wins, the rest are idempotent no-ops (and
  // the redundancy is what makes a lost begin survivable under loss).
  if (transfers_.contains(transfer_id)) return;
  // The stripe count comes from the wire, not local config — the whole
  // cluster must agree on the forest geometry.
  const std::uint32_t trees = begin.value().trees;
  const DocManifest& m = manifest.value();
  Transfer t = new_transfer(m, begin.value().chunk_bytes);
  if (trees != 0 && t.total_chunks > net::kMaxWireChunks) return;
  t.trace_id = msg.trace.trace_id;
  t.trace_sampled = msg.trace.sampled;
  t.span = obs::Tracer::global().begin(
      (trees == 0 ? "dist.push.hop " : "swarm.push.hop ") + m.doc_key, msg.trace.span_id,
      fabric_->now(), self_.value(), t.trace_id);
  // Mirror entry first, so even a transfer that loses its tail leaves the
  // routing information chunk-level repair needs.
  if (store_->doc(m.doc_key) == nullptr) (void)store_->put_reference(m);
  auto& bs = store_->blobs();
  for (const BlobRef& b : m.blobs) {
    if (bs.find(b.digest).has_value() || b.size == 0) continue;
    (void)bs.begin_partial(b.digest, b.size, b.type, t.chunk_bytes);
  }
  open_transfer(transfer_id, std::move(t), trees);
}

void StationNode::open_transfer(std::uint64_t transfer_id, Transfer t,
                                std::uint32_t trees) {
  auto [it, inserted] = transfers_.emplace(transfer_id, std::move(t));
  WDOC_CHECK(inserted, "duplicate transfer id");
  if (trees != 0) init_swarm(transfer_id, it->second, trees);
  open_children(transfer_id, it->second);
  if (!it->second.delivered && blobs_complete(it->second.manifest)) {
    deliver_transfer(transfer_id);
  }
  maybe_retire_transfer(transfer_id);
}

net::Payload StationNode::begin_payload(std::uint64_t transfer_id,
                                        const Transfer& t) const {
  Writer w;
  t.manifest.serialize(w);
  net::ChunkBegin begin;
  begin.transfer_id = transfer_id;
  begin.chunk_bytes = t.chunk_bytes;
  begin.manifest = w.take();
  begin.trees = t.stripe_trees;
  return net::Payload{begin.encode()};
}

Status StationNode::send_begin(const Transfer& t, StationId to,
                               const net::Payload& payload) {
  (t.swarm() ? DistMetrics::get().swarm_begins : DistMetrics::get().pushes).inc();
  // The begin carries the structure (the small copied objects) plus the
  // manifest itself; blob bytes are charged chunk by chunk.
  return send_message(to, kChunkBegin, payload, t.manifest.structure_bytes + payload.size(),
                      obs::TraceContext{t.trace_id, t.span, t.trace_sampled});
}

void StationNode::open_children(std::uint64_t transfer_id, Transfer& t) {
  if (position_ == 0) return;
  const std::uint64_t n = tree_order().size();
  // This hop's (child position, tree) edges: the pipelined tree's children
  // on tree 0, or each stripe tree's children in tree order. A station that
  // is our child in several stripe trees has one edge per tree.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> edges;
  if (!t.swarm()) {
    for (std::uint64_t child : children_of(position_, m_, n)) edges.emplace_back(child, 0);
  }
  for (std::uint32_t tree = 0; tree < t.stripe_trees; ++tree) {
    for (std::uint64_t child : swarm::stripe_children(position_, tree, t.stripe_trees, m_, n)) {
      if (child >= 1 && child <= n && child != position_) edges.emplace_back(child, tree);
    }
  }
  // One refcounted begin shared by every child, sent once per distinct
  // child; a child whose begin fails to send gets no cursors.
  const net::Payload payload = begin_payload(transfer_id, t);
  std::map<std::uint64_t, bool> begun;  // child position -> begin sent
  for (const auto& [child_pos, tree] : edges) {
    const StationId cid = tree_order()[child_pos - 1];
    auto [it, first] = begun.try_emplace(child_pos, false);
    if (first && send_begin(t, cid, payload).is_ok()) {
      it->second = true;
      ++stats_.pushes_forwarded;
    }
    if (!it->second) continue;
    ChildCursor cursor;
    cursor.child = cid;
    cursor.tree = tree;
    cursor.child_pos = child_pos;
    t.children.push_back(std::move(cursor));
    enqueue_held_chunks(t, t.children.back());
  }
  // The tree sends through each child's ack window; the swarm queues
  // unacked sends on its paced uplink.
  drain_round_robin(t.children, [&](ChildCursor& c) {
    if (!t.swarm()) return send_next_chunk(transfer_id, t, c);
    if (c.pending.empty()) return false;
    enqueue_swarm_send(transfer_id, t, {c.child, c.child_pos, c.pending.front(), false});
    c.pending.pop_front();
    return true;
  });
}

void StationNode::enqueue_held_chunks(Transfer& t, ChildCursor& cursor) {
  auto& bs = store_->blobs();
  for (std::uint32_t ordinal = 0; ordinal < t.manifest.blobs.size(); ++ordinal) {
    const BlobRef& b = t.manifest.blobs[ordinal];
    const std::uint32_t total = blob::chunk_count(b.size, t.chunk_bytes);
    for (std::uint32_t i = 0; i < total; ++i) {
      if (t.swarm()) {
        // A stripe cursor carries only its own tree's chunks, and skips
        // any the child has already reported owning.
        const std::uint32_t g = t.chunk_prefix[ordinal] + i;
        if (swarm::stripe_of(g, t.stripe_trees) != cursor.tree) continue;
        if (t.sched && cursor.child_pos != 0 && t.sched->peer_has(cursor.child_pos, g)) {
          DistMetrics::get().swarm_suppressed.inc();
          continue;
        }
      }
      if (bs.has_chunk(b.digest, i, t.chunk_bytes)) {
        cursor.pending.push_back(chunk_key(ordinal, i));
      }
    }
  }
}

void StationNode::pump_cursor(std::uint64_t transfer_id, ChildCursor& cursor) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  while (send_next_chunk(transfer_id, it->second, cursor)) {
  }
}

bool StationNode::send_next_chunk(std::uint64_t transfer_id, Transfer& t,
                                  ChildCursor& cursor) {
  if (dead_.contains(cursor.child)) {
    // Stop feeding a declared-dead child; its reparented subtree recovers
    // the tail through chunk-level repair instead.
    cursor.pending.clear();
    return false;
  }
  // A chunk whose send fails is dropped and the next pending one tried, so
  // a failure never strands the chunks queued behind it.
  while (!cursor.pending.empty() && cursor.in_flight.size() < config_.chunk.window) {
    const std::uint64_t key = cursor.pending.front();
    cursor.pending.pop_front();
    const std::uint64_t req_id = (self_.value() << 24) | ++next_req_;
    const StationId child = cursor.child;
    rpc_target_[req_id] = child;
    net::RpcOptions opts = config_.rpc;
    // A chunk may legitimately wait behind every other in-flight chunk of
    // this transfer on the shared uplink before its ack can even start back
    // (the windows of ALL children serialize through one link — a star
    // parent queues children × window chunks); scale the per-attempt
    // deadline by that worst-case backlog on the slowest modeled link.
    opts.deadline += SimTime::seconds(
        static_cast<double>(t.children.size()) *
        static_cast<double>(config_.chunk.window) *
        static_cast<double>(t.chunk_bytes) * 8.0 / config_.min_bandwidth_bps);
    rpc_.track<std::uint64_t>(
        req_id, opts,
        [this, transfer_id, child, key, req_id](Result<std::uint64_t>, SimTime) {
          // Acked or given up: either way the window slot frees. A lost
          // chunk is not re-pushed past its retry budget — the child's
          // chunk-level repair re-pulls exactly the missing indices.
          rpc_target_.erase(req_id);
          auto ti = transfers_.find(transfer_id);
          if (ti == transfers_.end()) return;
          for (ChildCursor& c : ti->second.children) {
            if (c.child != child) continue;
            c.in_flight.erase(key);
            pump_cursor(transfer_id, c);
            break;
          }
          maybe_retire_transfer(transfer_id);
        },
        [this, transfer_id, child, key, req_id](std::uint32_t) {
          if (dead_.contains(child)) {
            return Status{Errc::unreachable, "child declared dead"};
          }
          auto ti = transfers_.find(transfer_id);
          if (ti == transfers_.end()) {
            return Status{Errc::unavailable, "transfer retired"};
          }
          return send_chunk(transfer_id, ti->second, child, key, req_id,
                            /*retransmit=*/true);
        });
    Status s = send_chunk(transfer_id, t, child, key, req_id, /*retransmit=*/false);
    if (!s.is_ok()) {
      rpc_.cancel(req_id);
      rpc_target_.erase(req_id);
      continue;
    }
    cursor.in_flight.emplace(key, req_id);
    return true;
  }
  return false;
}

Status StationNode::send_chunk(std::uint64_t transfer_id, const Transfer& t,
                               StationId child, std::uint64_t key,
                               std::uint64_t req_id, bool retransmit) {
  const std::uint32_t ordinal = key_ordinal(key);
  if (ordinal >= t.manifest.blobs.size()) {
    return {Errc::invalid_argument, "chunk key out of range"};
  }
  net::Message out;
  auto chunk_len = chunk_message(out, child, t.manifest.blobs[ordinal], key_index(key),
                                 t.chunk_bytes, req_id, transfer_id);
  if (!chunk_len) return chunk_len.status();
  out.trace = obs::TraceContext{t.trace_id, t.span, t.trace_sampled};
  ++stats_.chunks_sent;
  stats_.chunk_bytes_sent += chunk_len.value();
  auto& dm = DistMetrics::get();
  dm.chunk_sent.inc();
  dm.chunk_bytes.inc(chunk_len.value());
  if (retransmit) {
    ++stats_.chunk_retransmits;
    dm.chunk_retransmits.inc();
  }
  return fabric_->send(std::move(out));
}

Result<std::uint32_t> StationNode::chunk_message(net::Message& out, StationId to,
                                                 const BlobRef& blob, std::uint32_t index,
                                                 std::uint32_t chunk_bytes,
                                                 std::uint64_t req_id,
                                                 std::uint64_t transfer_id) {
  auto payload = store_->blobs().chunk_payload(blob.digest, index, chunk_bytes);
  if (!payload) return payload.error();
  net::ChunkData d;
  d.req_id = req_id;
  d.transfer_id = transfer_id;
  d.digest = blob.digest;
  d.index = index;
  d.has_payload = !payload.value().empty();
  d.chunk_len = d.has_payload ? static_cast<std::uint32_t>(payload.value().size())
                              : blob::chunk_size_at(blob.size, index, chunk_bytes);
  if (d.chunk_len == 0) return Error{Errc::unavailable, "empty chunk"};
  d.chunk_digest = d.has_payload ? blob::real_chunk_digest(payload.value())
                                 : blob::synthetic_chunk_digest(blob.digest, index);
  if (d.has_payload) d.payload = std::move(payload).value();
  out.from = self_;
  out.to = to;
  out.type = kChunkData;
  out.payload = d.encode();  // the small per-hop header
  // The chunk bytes ride out-of-band: the slice from the blob store is
  // forwarded untouched (a refcount bump, not a copy).
  out.body = d.payload;
  if (!d.has_payload) out.wire_size = d.chunk_len + net::kWireHeaderBytes;
  return d.chunk_len;
}

void StationNode::deliver_transfer(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end() || it->second.delivered) return;
  Transfer& t = it->second;
  t.delivered = true;
  last_delivery_ = fabric_->now();
  (void)hold_ephemeral(t.manifest);
}

void StationNode::maybe_retire_transfer(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  const Transfer& t = it->second;
  if (!t.delivered) return;
  // A swarm transfer stays alive while its gossip loop runs — it may still
  // be serving chunks to (or pulling them for) incomplete neighbors.
  if (t.swarm() && !t.gossip_done) return;
  if (t.swarm() && !(t.swarm_queue.empty() && t.swarm_serve_queue.empty())) return;
  for (const ChildCursor& c : t.children) {
    if (!c.pending.empty() || !c.in_flight.empty()) return;
  }
  if (t.gossip_timer) t.gossip_timer->store(true);
  if (t.pace_timer) t.pace_timer->store(true);
  obs::Tracer::global().end(t.span, fabric_->now());
  transfers_.erase(it);
}

void StationNode::on_chunk_data(const net::Message& msg) {
  auto data = net::ChunkData::decode(msg.payload, msg.body);
  if (!data) {
    ++stats_.chunk_rejects;
    DistMetrics::get().chunk_rejects.inc();
    return;
  }
  const net::ChunkData& d = data.value();
  if (d.req_id != 0) {
    // Receipt (not acceptance) frees the sender's window slot; duplicates
    // and rejects are acked too — integrity gaps are repair's job.
    net::ChunkAck ack;
    ack.req_id = d.req_id;
    ack.transfer_id = d.transfer_id;
    ack.digest = d.digest;
    ack.index = d.index;
    (void)send_message(msg.from, kChunkAck, ack.encode());
  }
  auto add = store_->blobs().add_chunk(d.digest, d.index, d.chunk_digest,
                                       d.payload.span());
  if (!add) {
    if (add.code() == Errc::not_found) {
      // No assembly state here: the transfer's begin was lost, or this is
      // stray repair data. Dropped — repair re-pulls under a fresh partial.
      DistMetrics::get().chunk_orphans.inc();
    } else {
      ++stats_.chunk_rejects;
      DistMetrics::get().chunk_rejects.inc();
    }
    return;
  }
  const bool duplicate = add.value() == blob::BlobStore::ChunkAdd::duplicate;
  if (duplicate) {
    // The wire bytes were spent either way — account the waste (swarm mode
    // is where overlapping sources make this reachable at scale).
    ++stats_.chunk_duplicate_rx;
    stats_.chunk_wasted_bytes += d.chunk_len;
    auto& dm = DistMetrics::get();
    dm.chunk_duplicate_rx.inc();
    dm.chunk_wasted_bytes.inc(d.chunk_len);
  } else {
    ++stats_.chunks_received;
  }
  if (d.transfer_id == 0) return;  // repair/pull data: no relay, no transfer state
  auto it = transfers_.find(d.transfer_id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  std::uint32_t ordinal = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t i = 0; i < t.manifest.blobs.size(); ++i) {
    if (t.manifest.blobs[i].digest == d.digest) {
      ordinal = i;
      break;
    }
  }
  if (ordinal == std::numeric_limits<std::uint32_t>::max()) return;
  if (t.swarm() && t.sched && ordinal + 1 < t.chunk_prefix.size()) {
    // Even a duplicate settles the in-flight request for this chunk.
    t.sched->mark_have(t.chunk_prefix[ordinal] + d.index, fabric_->now());
  }
  if (duplicate) return;
  // Cut-through relay: this verified chunk forwards to every child now,
  // before the next chunk arrives. In swarm mode only the chunk's stripe
  // cursors carry it, and children already known to hold it are skipped.
  const std::uint64_t key = chunk_key(ordinal, d.index);
  if (t.swarm()) {
    const std::uint32_t g = t.chunk_prefix[ordinal] + d.index;
    const std::uint32_t tree = swarm::stripe_of(g, t.stripe_trees);
    for (ChildCursor& c : t.children) {
      if (c.tree != tree) continue;
      if (t.sched && c.child_pos != 0 && t.sched->peer_covered(c.child_pos, g)) {
        DistMetrics::get().swarm_suppressed.inc();
        continue;
      }
      enqueue_swarm_send(d.transfer_id, t, {c.child, c.child_pos, key, false});
    }
  } else {
    for (ChildCursor& c : t.children) c.pending.push_back(key);
    for (ChildCursor& c : t.children) pump_cursor(d.transfer_id, c);
  }
  if (!t.delivered && blobs_complete(t.manifest)) deliver_transfer(d.transfer_id);
  maybe_retire_transfer(d.transfer_id);
}

void StationNode::on_chunk_ack(const net::Message& msg) {
  auto ack = net::ChunkAck::decode(msg.payload);
  if (!ack) return;
  // An ack for a chunk already acked or given up is counted as a duplicate.
  (void)rpc_.complete<std::uint64_t>(ack.value().req_id,
                                     std::uint64_t{ack.value().index});
}

}  // namespace wdoc::dist
