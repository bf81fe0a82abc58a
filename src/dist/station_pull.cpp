// StationNode pull paths: document fetch up the parent chain, blob fetch
// and chunk-level repair (ChunkReq/ChunkRsp).
#include <limits>

#include "dist/fetch_wire.hpp"
#include "dist/station_detail.hpp"
#include "dist/station_node.hpp"
#include "obs/flight_recorder.hpp"

namespace wdoc::dist {

using detail::DistMetrics;

// --- pull --------------------------------------------------------------------

Status StationNode::send_fetch_req(std::uint64_t req_id, const std::string& doc_key) {
  // Route per attempt: parent chain skipping declared-dead ancestors. When
  // the whole ancestry is suspected dead, probe the direct parent anyway —
  // suspicion is not certainty, and any reply resurrects it. With no tree
  // at all, go straight to the document's home.
  std::optional<StationId> target = live_parent_station();
  if (!target) target = parent_station();
  if (!target) {
    const StoredDoc* d = store_->doc(doc_key);
    if (d != nullptr && d->manifest.home.valid() && d->manifest.home != self_) {
      target = d->manifest.home;
    } else {
      return {Errc::unavailable, "no parent and no home reference for " + doc_key};
    }
  }
  rpc_target_[req_id] = *target;
  FetchReq req;
  req.req_id = req_id;
  req.doc_key = doc_key;
  req.path.push_back(self_);
  return send_message(*target, kFetchReq, req.encode());
}

Status StationNode::fetch(const std::string& doc_key, FetchCallback cb,
                          std::optional<net::RpcOptions> options) {
  const StoredDoc* d = store_->doc(doc_key);
  if (d != nullptr && d->form != ObjectForm::reference) {
    ++stats_.fetches_local;
    cb(d->manifest, fabric_->now());
    return Status::ok();
  }
  ++stats_.fetches_remote;
  DistMetrics::get().pulls.inc();

  net::RpcOptions opts = options.value_or(config_.rpc);
  if (d != nullptr) {
    // A local reference knows the document's size: give each attempt room
    // for the transfer itself on the slowest link this cluster models.
    opts.deadline += SimTime::seconds(
        static_cast<double>(d->manifest.total_bytes()) * 8.0 / config_.min_bandwidth_bps);
  }
  std::uint64_t req_id = (self_.value() << 24) | ++next_req_;
  std::string key = doc_key;
  rpc_.track<DocManifest>(
      req_id, opts,
      [this, req_id, cb = std::move(cb)](Result<DocManifest> r, SimTime t) {
        rpc_target_.erase(req_id);
        if (!r.is_ok()) {
          ++stats_.failed_fetches;
          DistMetrics::get().failed_fetches.inc();
        }
        cb(std::move(r), t);
      },
      [this, req_id, key](std::uint32_t) { return send_fetch_req(req_id, key); });
  Status s = send_fetch_req(req_id, doc_key);
  if (!s.is_ok()) {
    // Never left the station: unwind the tracker and report synchronously,
    // preserving the historical "no route" contract.
    rpc_.cancel(req_id);
    rpc_target_.erase(req_id);
    --stats_.fetches_remote;
    ++stats_.failed_fetches;
    DistMetrics::get().failed_fetches.inc();
    return s;
  }
  return Status::ok();
}

void StationNode::on_fetch_req(const net::Message& msg) {
  auto req = FetchReq::decode(msg.payload);
  if (!req) return;
  FetchReq& q = req.value();

  const StoredDoc* d = store_->doc(q.doc_key);
  if (d != nullptr && d->form != ObjectForm::reference) {
    // Serve: relay the data back down the request path, store-and-forward.
    ++stats_.serves;
    DistMetrics::get().serves.inc();
    FetchRsp rsp;
    rsp.req_id = q.req_id;
    rsp.manifest = d->manifest;
    rsp.path = q.path;
    StationId next = rsp.path.back();
    rsp.path.pop_back();
    (void)send_message(next, kFetchRsp, rsp.encode(), d->manifest.total_bytes());
    return;
  }

  // Not here: forward up the live chain (or probe the direct parent when
  // the whole ancestry is suspected dead — only a true root gives up).
  std::optional<StationId> up = live_parent_station();
  if (!up) up = parent_station();
  if (!up) {
    // Root (or an effective root with its ancestry dead) without the
    // document: report failure back to the originator.
    FetchErr err;
    err.req_id = q.req_id;
    err.doc_key = q.doc_key;
    err.code = Errc::not_found;
    (void)send_message(q.path.front(), kFetchErr, err.encode());
    return;
  }
  ++stats_.forwards_up;
  q.path.push_back(self_);
  (void)send_message(*up, kFetchReq, q.encode());
}

void StationNode::on_fetch_rsp(const net::Message& msg) {
  auto rsp = FetchRsp::decode(msg.payload);
  if (!rsp) return;
  FetchRsp& r = rsp.value();

  if (r.path.empty()) {
    // Final delivery to the originator. The store bookkeeping happens
    // regardless of rpc state: a response that arrives after its request
    // already resolved (a retry raced the original answer, or the attempt
    // budget ran out while the data was in flight) still carries the
    // document — wasting it would only force another full transfer.
    const std::string& key = r.manifest.doc_key;
    const StoredDoc* d = store_->doc(key);
    if (d == nullptr) {
      (void)store_->put_reference(r.manifest);
      d = store_->doc(key);
    }
    std::uint64_t count = store_->note_remote_retrieval(key);
    if (count >= config_.watermark && d != nullptr &&
        d->form == ObjectForm::reference) {
      // Watermark hit: copy the physical multimedia data locally.
      Status s = store_->materialize(key, /*ephemeral=*/true);
      if (s.is_ok()) {
        ++stats_.replications;
        DistMetrics::get().replications.inc();
        obs::FlightRecorder::global().record(
            obs::FlightKind::replication,
            key + " retrieval " + std::to_string(count) + "/" +
                std::to_string(config_.watermark) + ": materialized locally",
            self_.value(), 0, fabric_->now());
      }
    }
    // The callback fires exactly once: a duplicate is counted and ignored.
    (void)rpc_.complete<DocManifest>(r.req_id, r.manifest);
    return;
  }

  // Intermediate hop: relay downward (store-and-forward).
  ++stats_.relays;
  if (config_.relay_cache) (void)hold_ephemeral(r.manifest);
  StationId next = r.path.back();
  r.path.pop_back();
  (void)send_message(next, kFetchRsp, r.encode(), r.manifest.total_bytes());
}

void StationNode::on_fetch_err(const net::Message& msg) {
  auto err = FetchErr::decode(msg.payload);
  if (!err) return;
  rpc_.fail(err.value().req_id,
            Error{err.value().code,
                  "document not found in tree: " + err.value().doc_key});
}

// --- blobs -------------------------------------------------------------------

Status StationNode::fetch_blob(StationId holder, const std::string& doc_key,
                               const BlobRef& blob, BlobFetchCallback cb,
                               std::optional<net::RpcOptions> options) {
  // Already resident (e.g. a previous fetch or a pushed lecture): no wire
  // traffic needed.
  if (store_->blobs().find(blob.digest).has_value()) {
    ++stats_.fetches_local;
    cb(blob, fabric_->now());
    return Status::ok();
  }
  // A chunk pull pinned to the holder: an interrupted fetch resumes from the
  // bitmap instead of restarting the whole transfer.
  BlobPull pull;
  pull.doc_key = doc_key;
  pull.blob = blob;
  pull.holder = holder;
  pull.home = holder;
  pull.base = options.value_or(config_.rpc);
  pull.done = [cb = std::move(cb), blob](Status s, SimTime t) {
    if (s.is_ok()) {
      cb(blob, t);
    } else {
      cb(Result<BlobRef>(s.error()), t);
    }
  };
  return pull_blob_chunks(std::move(pull));
}

// --- chunk-level pull and repair --------------------------------------------

void StationNode::on_chunk_req(const net::Message& msg) {
  auto req = net::ChunkReq::decode(msg.payload);
  if (!req) return;
  const net::ChunkReq& q = req.value();
  auto& dm = DistMetrics::get();
  std::uint32_t served = 0;
  BlobRef blob;
  blob.digest = q.digest;
  blob.size = q.size;
  for (std::uint32_t index : q.indices) {
    // A chunk not held here is skipped; the requester walks further up, and
    // a pinned fetch from a station without the blob gets served = 0.
    net::Message out;
    auto chunk_len = chunk_message(out, msg.from, blob, index, q.chunk_bytes,
                                   /*req_id=*/0, /*transfer_id=*/0);
    if (!chunk_len || !fabric_->send(std::move(out)).is_ok()) continue;
    ++served;
    ++stats_.chunks_sent;
    ++stats_.chunk_repair_served;
    stats_.chunk_bytes_sent += chunk_len.value();
    dm.chunk_sent.inc();
    dm.chunk_bytes.inc(chunk_len.value());
  }
  dm.chunk_repair_served.inc(served);
  // FIFO links guarantee the data above lands before this summary.
  net::ChunkRsp rsp;
  rsp.req_id = q.req_id;
  rsp.served = served;
  rsp.requested = static_cast<std::uint32_t>(q.indices.size());
  (void)send_message(msg.from, kChunkRsp, rsp.encode());
}

void StationNode::on_chunk_rsp(const net::Message& msg) {
  auto rsp = net::ChunkRsp::decode(msg.payload);
  if (!rsp) return;
  // A summary for a round already resolved is counted as a duplicate.
  (void)rpc_.complete<std::uint32_t>(rsp.value().req_id, rsp.value().served);
}

Status StationNode::pull_blob_chunks(BlobPull pull) {
  auto& bs = store_->blobs();
  if (bs.find(pull.blob.digest).has_value() || pull.blob.size == 0) {
    pull.done(Status::ok(), fabric_->now());
    return Status::ok();
  }
  // Resume an existing partial at its own geometry; otherwise open one at
  // this node's configured chunk size.
  const blob::BlobStore::PartialInfo* p = bs.partial(pull.blob.digest);
  pull.chunk_bytes = p != nullptr ? p->chunk_bytes : config_.chunk.chunk_bytes;
  WDOC_TRY(bs.begin_partial(pull.blob.digest, pull.blob.size, pull.blob.type,
                            pull.chunk_bytes)
               .status());
  const std::size_t missing =
      bs.missing_chunks(pull.blob.digest,
                        std::numeric_limits<std::uint32_t>::max())
          .size();
  auto shared = std::make_shared<BlobPull>(std::move(pull));
  return start_pull_round(std::move(shared), missing);
}

Status StationNode::start_pull_round(std::shared_ptr<BlobPull> pull,
                                     std::size_t missing_before) {
  const std::uint64_t req_id = (self_.value() << 24) | ++next_req_;
  net::RpcOptions opts = pull->base;
  // The server streams up to repair_batch chunks ahead of its summary;
  // scale this round's deadline by that serialized burst.
  const std::uint64_t batch =
      std::min<std::uint64_t>(missing_before, config_.chunk.repair_batch);
  opts.deadline += SimTime::seconds(static_cast<double>(batch) *
                                    static_cast<double>(pull->chunk_bytes) * 8.0 /
                                    config_.min_bandwidth_bps);
  rpc_.track<std::uint32_t>(
      req_id, opts,
      [this, pull, missing_before, req_id](Result<std::uint32_t> r, SimTime t) {
        rpc_target_.erase(req_id);
        auto& bs = store_->blobs();
        if (bs.find(pull->blob.digest).has_value()) {
          pull->done(Status::ok(), t);
          return;
        }
        if (!r) {
          pull->done(r.status(), t);
          return;
        }
        const std::size_t now_missing =
            bs.missing_chunks(pull->blob.digest,
                              std::numeric_limits<std::uint32_t>::max())
                .size();
        if (now_missing < missing_before) {
          // Progress: keep pulling. The next round re-routes, so a repaired
          // parent chain (or resurrected holder) is picked up mid-pull.
          Status s = start_pull_round(pull, now_missing);
          if (!s.is_ok()) pull->done(s, t);
          return;
        }
        pull->done({Errc::unavailable, "chunk repair made no progress"}, t);
      },
      [this, pull, req_id](std::uint32_t) { return send_chunk_req(req_id, *pull); });
  Status s = send_chunk_req(req_id, *pull);
  if (!s.is_ok()) {
    rpc_.cancel(req_id);
    rpc_target_.erase(req_id);
    return s;
  }
  DistMetrics::get().chunk_repair_reqs.inc();
  return Status::ok();
}

Status StationNode::send_chunk_req(std::uint64_t req_id, const BlobPull& pull) {
  // Route: pinned holder if given, else the nearest live ancestor, else the
  // document's home station (the instructor always holds the full blob).
  std::optional<StationId> target = pull.holder;
  if (!target.has_value()) target = live_parent_station();
  if (!target.has_value() && pull.home.value() != 0 && pull.home != self_) {
    target = pull.home;
  }
  if (!target.has_value()) return {Errc::unavailable, "no route for chunk repair"};
  auto missing =
      store_->blobs().missing_chunks(pull.blob.digest, config_.chunk.repair_batch);
  if (missing.empty()) return {Errc::already_exists, "no chunks missing"};
  rpc_target_[req_id] = *target;
  net::ChunkReq q;
  q.req_id = req_id;
  q.doc_key = pull.doc_key;
  q.digest = pull.blob.digest;
  q.size = pull.blob.size;
  q.media_type = static_cast<std::uint8_t>(pull.blob.type);
  q.chunk_bytes = pull.chunk_bytes;
  q.indices = std::move(missing);
  return send_message(*target, kChunkReq, q.encode());
}

Status StationNode::repair_pull(const DocManifest& manifest, FetchCallback cb,
                                std::optional<net::RpcOptions> options) {
  if (store_->doc(manifest.doc_key) == nullptr) {
    WDOC_TRY(store_->put_reference(manifest));
  }
  if (store_->has_materialized(manifest.doc_key)) {
    cb(manifest, fabric_->now());
    return Status::ok();
  }
  auto& bs = store_->blobs();
  std::vector<BlobRef> incomplete;
  for (const BlobRef& b : manifest.blobs) {
    if (b.size != 0 && !bs.find(b.digest).has_value()) incomplete.push_back(b);
  }
  if (incomplete.empty()) {
    WDOC_TRY(hold_ephemeral(manifest));
    cb(manifest, fabric_->now());
    return Status::ok();
  }
  struct RepairState {
    std::size_t remaining = 0;
    Status first_error = Status::ok();
    DocManifest manifest;
    FetchCallback cb;
  };
  auto state = std::make_shared<RepairState>();
  state->remaining = incomplete.size();
  state->manifest = manifest;
  state->cb = std::move(cb);
  const net::RpcOptions base = options.value_or(config_.rpc);
  std::size_t started = 0;
  for (const BlobRef& b : incomplete) {
    BlobPull pull;
    pull.doc_key = manifest.doc_key;
    pull.blob = b;
    pull.home = manifest.home;
    pull.base = base;
    pull.done = [this, state](Status s, SimTime t) {
      if (!s.is_ok() && state->first_error.is_ok()) state->first_error = s;
      if (--state->remaining != 0) return;
      if (blobs_complete(state->manifest)) {
        (void)hold_ephemeral(state->manifest);
        state->cb(state->manifest, t);
        return;
      }
      Status err = state->first_error.is_ok()
                       ? Status{Errc::unavailable, "repair incomplete"}
                       : state->first_error;
      state->cb(Result<DocManifest>(err.error()), t);
    };
    Status s = pull_blob_chunks(std::move(pull));
    if (!s.is_ok()) {
      // Account the failed start without firing cb from inside the loop.
      if (state->first_error.is_ok()) state->first_error = s;
      --state->remaining;
      continue;
    }
    ++started;
  }
  if (started == 0) {
    return state->first_error.is_ok()
               ? Status{Errc::unavailable, "repair could not start"}
               : state->first_error;
  }
  return Status::ok();
}

}  // namespace wdoc::dist
