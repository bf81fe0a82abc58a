// StationNode swarm mode (multi-source distribution, DESIGN.md §4f):
// stripe-tree state, paced sends, bitmap gossip carrying rarest-first
// pulls, and their serves.
#include <algorithm>
#include <limits>
#include <utility>

#include "blob/chunk.hpp"
#include "common/hash.hpp"
#include "dist/station_detail.hpp"
#include "dist/station_node.hpp"
#include "swarm/gossip.hpp"
#include "swarm/stripe_tree.hpp"

namespace wdoc::dist {

using detail::chunk_key;
using detail::DistMetrics;
using detail::key_index;
using detail::key_ordinal;

void StationNode::init_swarm(std::uint64_t transfer_id, Transfer& t, std::uint32_t trees) {
  t.stripe_trees = trees;
  t.chunk_prefix.assign(1, 0);
  for (const BlobRef& b : t.manifest.blobs) {
    t.chunk_prefix.push_back(t.chunk_prefix.back() +
                             blob::chunk_count(b.size, t.chunk_bytes));
  }
  const std::uint64_t n = tree_order().size();
  const std::uint32_t total = static_cast<std::uint32_t>(t.total_chunks);
  // The tie-break seed is per-station (different stations spread their
  // pulls differently); the neighbor seed is the transfer id, which every
  // station knows, so both ends of a tree link derive the same sets.
  t.sched = std::make_unique<swarm::SwarmScheduler>(
      total, trees, hash_combine(self_.value(), transfer_id), fabric_->now(),
      swarm_pace_interval(t));
  t.acting_parent.assign(t.stripe_trees, 0);
  t.acting_since.assign(t.stripe_trees, fabric_->now());
  for (std::uint32_t tree = 0; tree < t.stripe_trees; ++tree) {
    auto p = swarm::stripe_parent(position_, tree, t.stripe_trees, m_, n);
    t.sched->set_stripe_parent(tree, p.value_or(0));
    t.sched->set_relaying(
        tree, !swarm::stripe_children(position_, tree, t.stripe_trees, m_, n).empty());
    t.acting_parent[tree] = p.value_or(0);
  }
  for (std::uint64_t nb : swarm::gossip_neighbors(position_, m_, n, t.stripe_trees,
                                                  swarm::kExtraPeers, transfer_id)) {
    t.sched->add_peer(nb);
  }
  // Seed our own bitmap from whatever the blob store already holds
  // (everything at the instructor; possibly shared blobs elsewhere).
  std::vector<std::uint64_t> words((total + 63) / 64, 0);
  const auto& bs = store_->blobs();
  for (std::uint32_t ordinal = 0; ordinal < t.manifest.blobs.size(); ++ordinal) {
    const BlobRef& b = t.manifest.blobs[ordinal];
    bs.chunk_bits(b.digest, b.size, t.chunk_bytes, t.chunk_prefix[ordinal], words);
  }
  swarm::Bitmap have;
  have.assign_words(std::move(words), total);
  t.sched->seed_self(have, fabric_->now());
  schedule_swarm_tick(transfer_id);
}

SimTime StationNode::swarm_pace_interval(const Transfer& t) const {
  // One chunk's serialization time on our own uplink (fabrics without a
  // link model fall back to the configured floor). Sending at most one
  // chunk per interval keeps the fabric's FIFO queue a chunk or two deep.
  double bps = fabric_->uplink_bps(self_);
  if (bps <= 0) bps = config_.min_bandwidth_bps;
  const double bytes = static_cast<double>(t.chunk_bytes) + net::kWireHeaderBytes;
  return SimTime::seconds(bytes * 8.0 / bps);
}

void StationNode::enqueue_swarm_send(std::uint64_t transfer_id, Transfer& t,
                                     SwarmSend entry) {
  (entry.serve ? t.swarm_serve_queue : t.swarm_queue).push_back(entry);
  if (t.pacing) return;
  t.pacing = true;
  // First send goes out immediately (cut-through); the timer only paces
  // the backlog behind it.
  swarm_pace_tick(transfer_id);
}

void StationNode::swarm_pace_tick(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  // Swarm relays are unacked: a per-chunk ack would ride the child's
  // already-saturated uplink FIFO behind its own relays, and the window
  // stalls would halve pipeline throughput. Loss shows up as a bitmap
  // hole and is recovered by the rarest-first pull path instead.
  const auto idle = [&t] { return t.swarm_queue.empty() && t.swarm_serve_queue.empty(); };
  bool sent = false;
  while (!sent && !(idle() && t.swarm_parked.empty())) {
    // Relays before serves, but after kServeStride consecutive relays one
    // serve cuts in; parked relays go last (see the queue comment in the
    // header).
    const bool parked_turn = idle();
    const bool serve_turn =
        !t.swarm_serve_queue.empty() &&
        (t.swarm_queue.empty() || t.relays_since_serve >= swarm::kServeStride);
    std::deque<SwarmSend>& q = parked_turn  ? t.swarm_parked
                               : serve_turn ? t.swarm_serve_queue
                                            : t.swarm_queue;
    const SwarmSend entry = q.front();
    q.pop_front();
    if (dead_.contains(entry.to)) continue;
    if (!parked_turn && !entry.serve && t.sched && entry.peer_pos != 0) {
      const SimTime heard = t.sched->peer_heard_at(entry.peer_pos);
      if (heard != SimTime::zero() && fabric_->now() - heard > swarm::kPeerTimeout) {
        t.swarm_parked.push_back(entry);
        continue;
      }
    }
    if (t.sched && entry.peer_pos != 0) {
      const std::uint32_t ordinal = key_ordinal(entry.key);
      const std::uint32_t g = ordinal + 1 < t.chunk_prefix.size()
                                  ? t.chunk_prefix[ordinal] + key_index(entry.key)
                                  : 0;
      // A relay yields to the receiver's own pull of the chunk (its
      // pending bit); a serve IS that pull being answered, so it only
      // yields to confirmed possession.
      const bool covered = entry.serve ? t.sched->peer_has(entry.peer_pos, g)
                                       : t.sched->peer_covered(entry.peer_pos, g);
      if (ordinal + 1 < t.chunk_prefix.size() && covered) {
        // The receiver reported the chunk (or a request for it) after this
        // send was queued — drop it, count it.
        DistMetrics::get().swarm_suppressed.inc();
        continue;
      }
    }
    if (!send_chunk(transfer_id, t, entry.to, entry.key, /*req_id=*/0,
                    /*retransmit=*/false)
             .is_ok()) {
      continue;
    }
    sent = true;
    if (entry.serve) {
      t.relays_since_serve = 0;
      ++stats_.swarm_chunks_served;
      DistMetrics::get().swarm_served.inc();
    } else {
      ++t.relays_since_serve;
      ++t.relays_this_round;
    }
  }
  if (!sent && idle() && t.swarm_parked.empty()) {
    // Idle tick with nothing left: the link goes quiet immediately.
    t.pacing = false;
    maybe_retire_transfer(transfer_id);
    return;
  }
  // Stay "busy" for one chunk-time after every send even if the queue is
  // momentarily empty — a relay enqueued a moment later must not bypass
  // the pace and burst onto the wire behind the chunk still serializing.
  t.pacing = true;
  t.pace_timer = fabric_->schedule_on(
      self_, swarm_pace_interval(t),
      [this, transfer_id] { swarm_pace_tick(transfer_id); });
}

void StationNode::schedule_swarm_tick(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  it->second.gossip_timer =
      fabric_->schedule_on(self_, swarm::kGossipInterval,
                           [this, transfer_id] { on_swarm_tick(transfer_id); });
}

void StationNode::on_swarm_tick(std::uint64_t transfer_id) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  if (!t.swarm() || t.sched == nullptr || t.gossip_done) return;
  if (!fabric_->is_online(self_)) {
    // Crashed mid-transfer: the swarm is done with us. If we restart later
    // the blob-level pull/repair path catches us up; keeping the gossip
    // timer alive would run the simulation clock out to kMaxRounds.
    t.gossip_done = true;
    maybe_retire_transfer(transfer_id);
    return;
  }
  ++t.gossip_rounds;
  const SimTime now = fabric_->now();
  const std::uint64_t n = tree_order().size();
  const std::uint32_t total = static_cast<std::uint32_t>(t.total_chunks);
  // Stripe-ancestor adoption: while the closest expected ancestor of a
  // stripe tree stays gossip-silent past kPeerTimeout, walk one level up
  // and start gossiping with that ancestor too (one level per walk — each
  // adopted ancestor gets a full timeout to answer before we pass it).
  // Only the head of an orphaned subtree walks; its descendants keep
  // hearing their (recovering) parent.
  for (std::uint32_t tree = 0; tree < t.stripe_trees; ++tree) {
    const std::uint64_t ap = t.acting_parent[tree];
    if (ap == 0 || t.sched->complete()) continue;
    const SimTime heard = t.sched->peer_heard_at(ap);
    const SimTime ref = heard > t.acting_since[tree] ? heard : t.acting_since[tree];
    if (now - ref <= swarm::kPeerTimeout) continue;
    auto up = swarm::stripe_parent(ap, tree, t.stripe_trees, m_, n);
    t.acting_parent[tree] = up.value_or(0);
    t.acting_since[tree] = now;
    if (up.has_value() && up.value() != position_) t.sched->add_peer(up.value());
  }
  // A child that has never gossiped may simply have lost its begin (a lossy
  // link can drop it, and gossip for an unknown transfer is discarded on
  // arrival). After a startup grace — a healthy child's first gossip
  // arrives within a round or two, and begins carry a whole manifest, so
  // eager re-sends would steal chunk-sized slots from the uplink right at
  // ramp-up — re-send every few rounds until the child speaks; begins are
  // idempotent.
  if (t.gossip_rounds > 8 && t.gossip_rounds % 4 == 1) {
    std::set<std::uint64_t> silent;
    net::Payload begin;
    for (const ChildCursor& c : t.children) {
      if (c.child_pos < 1 || c.child_pos > n) continue;
      if (dead_.contains(c.child)) continue;
      if (t.sched->peer_heard_at(c.child_pos) != SimTime::zero()) continue;
      if (!silent.insert(c.child_pos).second) continue;
      if (begin.empty()) begin = begin_payload(transfer_id, t);
      (void)send_begin(t, c.child, begin);
    }
  }
  // Advertised backlog approximates a new request's serve latency in
  // chunk-times, not raw queue length: while the uplink is relay-busy a
  // queued serve waits kServeStride relay slots per position, so each one
  // costs (stride + 1) chunk-times. A raw count makes a stride-throttled
  // interior server look as cheap as an idle leaf, and every requester
  // herds onto it.
  const std::size_t relay_q = t.swarm_queue.size();
  const std::size_t serve_q = t.swarm_serve_queue.size();
  // "Relay-busy" can't be read off the queue (cut-through keeps it near
  // empty between arrivals): it is a station with stripe children, still
  // acquiring, whose relays filled most of the last round's send slots. A
  // parent whose child died relays at half rate and advertises itself as
  // the idle server it is.
  const std::uint32_t relays = std::exchange(t.relays_this_round, 0);
  const double round_slots =
      swarm::kGossipInterval.as_seconds() / swarm_pace_interval(t).as_seconds();
  const bool relay_busy = !t.children.empty() && !t.sched->complete() &&
                          relays * 100.0 >= round_slots * swarm::kBusyRelayPercent;
  const std::size_t serve_cost =
      relay_busy ? std::min<std::size_t>(swarm::kServeStride, 3) + 1 : 1;
  // The relay-busy base term prices the latency a FIRST serve would see
  // even with an empty queue: cut-through keeps a busy relay's queue near
  // zero between arrivals, and without the base term such a station
  // advertises the same zero as a genuinely idle leaf.
  const std::size_t base = relay_busy ? serve_cost : 0;
  const auto backlog = static_cast<std::uint32_t>(std::min<std::size_t>(
      base + relay_q + serve_q * serve_cost,
      std::numeric_limits<std::uint32_t>::max()));
  auto& dm = DistMetrics::get();
  // Our bitmaps to every known peer — one refcounted buffer for all plain
  // sends. Gossip goes out BEFORE the termination check below: the round on
  // which a station terminates is the round its neighbors learn it is
  // complete, otherwise their view of us freezes one chunk short and they
  // gossip until kMaxRounds waiting for it.
  net::SwarmHave have;
  have.transfer_id = transfer_id;
  have.position = position_;
  have.backlog = backlog;
  have.recovering = t.sched->recovering_mask();
  have.total_chunks = total;
  have.words = t.sched->self().words();
  have.pending_words = t.sched->pending_words();
  const net::Payload have_payload{have.encode()};
  // Rarest-first pulls for stalled stripes ride the have to their server,
  // with a pending bitmap that already counts them. Every plan target is a
  // known peer, so no request lacks a carrier.
  const std::vector<swarm::SwarmPlan> plans = t.sched->plan(now);
  if (!plans.empty()) have.pending_words = t.sched->pending_words();
  for (std::uint64_t pos : t.sched->peer_positions()) {
    if (pos < 1 || pos > n || pos == position_) continue;
    StationId peer = tree_order()[pos - 1];
    if (dead_.contains(peer)) continue;
    auto ask = std::find_if(plans.begin(), plans.end(),
                            [pos](const swarm::SwarmPlan& p) { return p.peer == pos; });
    const bool asking = ask != plans.end();
    if (asking) have.indices = ask->chunks;
    const net::Payload payload = asking ? net::Payload{have.encode()} : have_payload;
    if (!send_message(peer, kSwarmHave, payload).is_ok()) continue;
    ++stats_.swarm_haves_sent;
    dm.swarm_haves.inc();
    if (!asking) continue;
    ++stats_.swarm_reqs_sent;
    dm.swarm_reqs.inc();
    dm.swarm_req_chunks.inc(ask->chunks.size());
  }
  // Termination: stop once we are complete and, as far as gossip shows,
  // every neighbor is too — or nothing has changed and no needy neighbor
  // has been heard for kIdleRounds (a crashed neighbor's bitmap freezes
  // forever; waiting on it would keep the whole cluster's timers alive).
  const std::uint64_t sum = t.sched->state_sum();
  const bool self_done = t.delivered && t.sched->complete();
  const bool quiet = sum == t.last_state_sum && !t.gossip_heard;
  t.idle_rounds = (self_done && quiet) ? t.idle_rounds + 1 : 0;
  t.last_state_sum = sum;
  t.gossip_heard = false;
  if (t.gossip_rounds >= swarm::kMaxRounds ||
      (self_done &&
       (t.sched->peers_complete() || t.idle_rounds >= swarm::kIdleRounds))) {
    t.gossip_done = true;
    maybe_retire_transfer(transfer_id);
    return;
  }
  schedule_swarm_tick(transfer_id);
}

StationNode::Transfer* StationNode::swarm_transfer_for(std::uint64_t transfer_id,
                                                       std::uint32_t total_chunks,
                                                       std::uint64_t position,
                                                       StationId from) {
  auto it = transfers_.find(transfer_id);
  if (it == transfers_.end()) {
    DistMetrics::get().swarm_orphans.inc();
    return nullptr;
  }
  Transfer& t = it->second;
  if (!t.swarm() || t.sched == nullptr) return nullptr;
  if (std::uint64_t{total_chunks} != t.total_chunks) return nullptr;  // geometry mismatch
  if (position < 1 || position > tree_order().size() ||
      tree_order()[position - 1] != from) {
    return nullptr;
  }
  return &t;
}

void StationNode::on_swarm_have(const net::Message& msg) {
  auto have = net::SwarmHave::decode(msg.payload);
  if (!have) return;
  const net::SwarmHave& h = have.value();
  Transfer* tp = swarm_transfer_for(h.transfer_id, h.total_chunks, h.position, msg.from);
  if (tp == nullptr) return;
  Transfer& t = *tp;
  swarm::PeerReport report;
  report.have = &h.words;
  report.pending = &h.pending_words;
  report.backlog = h.backlog;
  report.recovering = h.recovering;
  report.now = fabric_->now();
  t.sched->peer_update(h.position, report);
  // Only an *incomplete* neighbor holds this transfer open — it may still
  // need our serves, and a request is always a sign of need. Completed
  // neighbors echoing their full bitmaps must not reset the idle countdown,
  // or the cluster keep-alives itself to kMaxRounds after everyone is done.
  if (!h.indices.empty() || !t.sched->peer_complete(h.position)) t.gossip_heard = true;
  std::uint32_t queued = 0;
  for (std::uint32_t g : h.indices) {
    if (queued >= swarm::kRequestBatch) break;  // hostile-length guard
    // g -> (ordinal, index) through the prefix table; zero-chunk blobs make
    // prefix values repeat, so take the last blob whose base covers g.
    auto ub = std::upper_bound(t.chunk_prefix.begin(), t.chunk_prefix.end(), g);
    if (ub == t.chunk_prefix.begin()) continue;
    const auto ordinal = static_cast<std::uint32_t>(ub - t.chunk_prefix.begin()) - 1;
    if (ordinal >= t.manifest.blobs.size()) continue;
    const std::uint32_t index = g - t.chunk_prefix[ordinal];
    // Serves share the paced send queue with stripe relays, so a burst of
    // requests can't stack a multi-second FIFO on our uplink. Chunks we
    // don't hold fail the send at pace time and the requester re-plans.
    enqueue_swarm_send(h.transfer_id, t,
                       {msg.from, h.position, chunk_key(ordinal, index), true});
    ++queued;
  }
}

}  // namespace wdoc::dist
