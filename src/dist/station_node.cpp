// StationNode core: configuration, topology, the failure detector, message
// dispatch, the store-and-forward reference push, reference announcements
// and post-lecture migration. The chunked push, swarm, pull and scrape
// paths live in station_push.cpp, station_swarm.cpp, station_pull.cpp and
// station_scrape.cpp.
#include "dist/station_node.hpp"

#include "blob/chunk.hpp"
#include "common/log.hpp"
#include "dist/station_detail.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace wdoc::dist {

using detail::DistMetrics;

Status ChunkConfig::validate() const {
  if (chunk_bytes == 0 || chunk_bytes > blob::kMaxChunkBytes) {
    return {Errc::invalid_argument,
            "chunk_bytes must be in [1, " + std::to_string(blob::kMaxChunkBytes) + "]"};
  }
  if (window == 0) return {Errc::invalid_argument, "chunk window must be >= 1"};
  if (repair_batch == 0) return {Errc::invalid_argument, "repair_batch must be >= 1"};
  return Status::ok();
}

Status StationConfig::validate() const {
  if (watermark == 0) {
    return {Errc::invalid_argument,
            "watermark must be >= 1 (use a large value to disable replication)"};
  }
  WDOC_TRY(rpc.validate());
  WDOC_TRY(chunk.validate());
  WDOC_TRY(swarm.validate());
  if (swarm.enabled && !chunk.enabled) {
    return {Errc::invalid_argument, "swarm mode requires chunked transfers"};
  }
  if (min_bandwidth_bps <= 0.0) {
    return {Errc::invalid_argument, "min_bandwidth_bps must be > 0"};
  }
  return Status::ok();
}

StationNode::StationNode(net::Fabric& fabric, StationId self, ObjectStore& store,
                         StationConfig config)
    : fabric_(&fabric),
      self_(self),
      store_(&store),
      config_(config),
      rpc_(fabric, self, kRpcSeed) {
  Status valid = config_.validate();
  WDOC_CHECK(valid.is_ok(), "StationConfig: " + valid.message());
  rpc_.set_timeout_observer([this](std::uint64_t req_id, std::uint32_t) {
    auto it = rpc_target_.find(req_id);
    if (it != rpc_target_.end()) note_attempt_timeout(it->second);
  });
}

void StationNode::bind() {
  fabric_->set_handler(self_, [this](const net::Message& msg) { on_message(msg); });
}

void StationNode::set_tree(std::shared_ptr<const std::vector<StationId>> broadcast_vector,
                           std::uint64_t m) {
  WDOC_CHECK(m >= 1, "set_tree: m must be >= 1");
  WDOC_CHECK(broadcast_vector != nullptr, "set_tree: null broadcast vector");
  broadcast_vector_ = std::move(broadcast_vector);
  m_ = m;
  position_ = 0;
  for (std::size_t i = 0; i < tree_order().size(); ++i) {
    if (tree_order()[i] == self_) {
      position_ = i + 1;
      break;
    }
  }
}

void StationNode::set_tree(std::vector<StationId> broadcast_vector, std::uint64_t m) {
  set_tree(std::make_shared<const std::vector<StationId>>(std::move(broadcast_vector)), m);
}

std::optional<StationId> StationNode::parent_station() const {
  if (position_ <= 1) return std::nullopt;
  std::uint64_t p = parent_position(position_, m_);
  return tree_order()[p - 1];
}

std::optional<StationId> StationNode::live_parent_station() const {
  if (position_ <= 1) return std::nullopt;
  // Walk the ancestor chain, skipping declared-dead stations: the paper's
  // parent equation applied repeatedly (grandparent_position and beyond).
  for (std::uint64_t pos : ancestry(position_, m_)) {
    if (pos == position_) continue;
    StationId s = tree_order()[pos - 1];
    if (!dead_.contains(s)) return s;
  }
  return std::nullopt;
}

// --- failure detector --------------------------------------------------------

void StationNode::note_attempt_timeout(StationId target) {
  if (dead_.contains(target)) return;
  std::uint32_t n = ++suspect_[target];
  if (n >= kFailoverThreshold) declare_dead(target);
}

void StationNode::declare_dead(StationId target) {
  suspect_.erase(target);
  if (!dead_.insert(target).second) return;
  ++stats_.failovers;
  DistMetrics::get().failovers.inc();
  obs::FlightRecorder::global().record(
      obs::FlightKind::failover,
      "station " + std::to_string(target.value()) + " declared dead after " +
          std::to_string(kFailoverThreshold) + " consecutive timeouts",
      self_.value(), target.value(), fabric_->now());
  if (parent_station() == target) {
    // Orphaned: announce the reparent route that live_parent_station()
    // will now resolve to (⌊(k−i−1)/m⌋+1 applied past the dead parent).
    auto next = live_parent_station();
    obs::FlightRecorder::global().record(
        obs::FlightKind::failover,
        "position " + std::to_string(position_) + " reparented to " +
            (next ? "station " + std::to_string(next->value())
                  : std::string("nothing: ancestor chain dead")),
        self_.value(), target.value(), fabric_->now());
  }
}

void StationNode::note_alive(StationId from) {
  suspect_.erase(from);
  if (dead_.erase(from) > 0) {
    ++stats_.resurrections;
    DistMetrics::get().resurrections.inc();
    obs::FlightRecorder::global().record(
        obs::FlightKind::failover,
        "station " + std::to_string(from.value()) + " heard from again: resurrected",
        self_.value(), from.value(), fabric_->now());
  }
}

Status StationNode::send_message(StationId to, const char* type, net::Payload payload,
                                 std::uint64_t wire_size, obs::TraceContext trace) {
  net::Message msg;
  msg.from = self_;
  msg.to = to;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.wire_size = wire_size;
  msg.trace = trace;
  return fabric_->send(std::move(msg));
}

Status StationNode::hold_ephemeral(const DocManifest& m) {
  const StoredDoc* d = store_->doc(m.doc_key);
  if (d == nullptr) return store_->put_instance(m, /*ephemeral=*/true);
  if (d->form == ObjectForm::reference) return store_->materialize(m.doc_key, /*ephemeral=*/true);
  return Status::ok();
}

bool StationNode::blobs_complete(const DocManifest& m) const {
  const auto& bs = store_->blobs();
  for (const BlobRef& b : m.blobs) {
    if (b.size != 0 && !bs.find(b.digest).has_value()) return false;
  }
  return true;
}

// --- store-and-forward push -------------------------------------------------

Status StationNode::send_push(StationId to, const DocManifest& manifest,
                              obs::TraceContext trace) {
  Writer w;
  manifest.serialize(w);
  DistMetrics::get().pushes.inc();
  return send_message(to, kPush, w.take(), manifest.total_bytes(), trace);
}

Status StationNode::broadcast_push(const DocManifest& manifest) {
  if (position_ == 0) return {Errc::invalid_argument, "station not in broadcast tree"};
  // Instructor's own persistent copy (idempotent).
  if (store_->doc(manifest.doc_key) == nullptr) {
    WDOC_TRY(store_->put_instance(manifest, /*ephemeral=*/false));
  }
  if (config_.chunk.enabled) {
    return start_push(manifest, config_.swarm.enabled ? config_.swarm.trees : 0);
  }
  // The store-and-forward reference: the whole manifest to each child.
  last_delivery_ = fabric_->now();
  auto& tracer = obs::Tracer::global();
  const std::uint64_t trace_id =
      obs::derive_trace_id((self_.value() << 24) | ++next_req_);
  std::uint64_t span = tracer.begin("dist.push " + manifest.doc_key, 0,
                                    fabric_->now(), self_.value(), trace_id);
  for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
    WDOC_TRY(send_push(tree_order()[child - 1], manifest,
                       obs::TraceContext{trace_id, span, false}));
    ++stats_.pushes_forwarded;
  }
  tracer.end(span, fabric_->now());
  return Status::ok();
}

void StationNode::on_message(const net::Message& msg) {
  // Any traffic from a station is proof of life: clear its suspicion and
  // resurrect it if it was declared dead (crash + restart, healed link).
  note_alive(msg.from);
  if (msg.type == kPush) {
    on_push(msg);
  } else if (msg.type == kRefAnnounce) {
    on_ref_announce(msg);
  } else if (msg.type == kFetchReq) {
    on_fetch_req(msg);
  } else if (msg.type == kFetchRsp) {
    on_fetch_rsp(msg);
  } else if (msg.type == kFetchErr) {
    on_fetch_err(msg);
  } else if (msg.type == kChunkBegin) {
    on_begin(msg);
  } else if (msg.type == kChunkData) {
    on_chunk_data(msg);
  } else if (msg.type == kChunkAck) {
    on_chunk_ack(msg);
  } else if (msg.type == kChunkReq) {
    on_chunk_req(msg);
  } else if (msg.type == kChunkRsp) {
    on_chunk_rsp(msg);
  } else if (msg.type == kSwarmHave) {
    on_swarm_have(msg);
  } else if (msg.type == net::kMetricsRequest) {
    on_scrape_req(msg);
  } else if (msg.type == net::kMetricsResponse) {
    on_scrape_rsp(msg);
  } else {
    WDOC_WARN("station %llu: unknown message type %s",
              static_cast<unsigned long long>(self_.value()), msg.type.c_str());
  }
}

void StationNode::on_push(const net::Message& msg) {
  Reader r(msg.payload);
  auto manifest = DocManifest::deserialize(r);
  if (!manifest) {
    WDOC_ERROR("push decode failed: %s", manifest.message().c_str());
    return;
  }
  ++stats_.pushes_received;
  const DocManifest& m = manifest.value();
  // Child span of the sender's push span: the trace mirrors the m-ary tree.
  auto& tracer = obs::Tracer::global();
  std::uint64_t span = tracer.begin("dist.push.hop " + m.doc_key, msg.trace.span_id,
                                    fabric_->now(), self_.value(), msg.trace.trace_id);
  if (Status s = hold_ephemeral(m); !s.is_ok()) {
    WDOC_WARN("station %llu: push store failed: %s",
              static_cast<unsigned long long>(self_.value()), s.message().c_str());
  }
  last_delivery_ = fabric_->now();
  // Forward down the tree.
  if (position_ != 0) {
    for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
      Status s = send_push(tree_order()[child - 1], m,
                           obs::TraceContext{msg.trace.trace_id, span, msg.trace.sampled});
      if (s.is_ok()) ++stats_.pushes_forwarded;
    }
  }
  tracer.end(span, fabric_->now());
}

Status StationNode::announce_reference(const DocManifest& manifest) {
  if (position_ == 0) return {Errc::invalid_argument, "station not in broadcast tree"};
  Writer w;
  manifest.serialize(w);
  // One refcounted manifest buffer shared across the whole fan-out.
  const net::Payload payload{w.take()};
  // Reference records are structure-free: only the manifest crosses the
  // wire (charged at payload size), not the document.
  for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
    WDOC_TRY(send_message(tree_order()[child - 1], kRefAnnounce, payload));
  }
  return Status::ok();
}

void StationNode::on_ref_announce(const net::Message& msg) {
  Reader r(msg.payload);
  auto manifest = DocManifest::deserialize(r);
  if (!manifest) return;
  const DocManifest& m = manifest.value();
  if (store_->doc(m.doc_key) == nullptr) {
    (void)store_->put_reference(m);
  }
  // Forward down the tree: the received slice itself, refcounted.
  if (position_ != 0) {
    for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
      (void)send_message(tree_order()[child - 1], kRefAnnounce, msg.payload);
    }
  }
}

std::uint64_t StationNode::end_lecture() {
  std::uint64_t demoted = 0;
  for (const std::string& key : store_->keys()) {
    const StoredDoc* d = store_->doc(key);
    if (d != nullptr && d->form == ObjectForm::instance && d->ephemeral) {
      if (store_->demote_to_reference(key).is_ok()) {
        ++demoted;
        ++stats_.demotions;
        DistMetrics::get().migrations.inc();
      }
    }
  }
  // "Essentially, buffer spaces are used only" — reclaim them.
  std::uint64_t reclaimed = store_->blobs().gc();
  if (demoted > 0) {
    obs::FlightRecorder::global().record(
        obs::FlightKind::migration,
        std::to_string(demoted) + " instance(s) demoted to references, " +
            std::to_string(reclaimed) + " B reclaimed",
        self_.value(), 0, fabric_->now());
  }
  return reclaimed;
}

}  // namespace wdoc::dist
