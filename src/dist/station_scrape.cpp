// StationNode observability plane: the station-labeled local snapshot and
// the hierarchical scrape that merges it up the broadcast tree.
#include <algorithm>

#include "common/log.hpp"
#include "dist/station_detail.hpp"
#include "dist/station_node.hpp"
#include "obs/flight_recorder.hpp"

namespace wdoc::dist {

using detail::DistMetrics;

obs::Snapshot StationNode::local_snapshot() const {
  obs::Labels labels{{"station", std::to_string(self_.value())}};
  obs::Snapshot snap;
  auto sample = [&](obs::MetricSample::Kind kind, const char* name, std::uint64_t v) {
    obs::MetricSample s;
    s.name = name;
    s.labels = labels;
    s.kind = kind;
    s.value = static_cast<double>(v);
    snap.samples.push_back(std::move(s));
  };
  auto counter = [&](const char* name, std::uint64_t v) {
    sample(obs::MetricSample::Kind::counter, name, v);
  };
  const net::RpcStats rpc = rpc_.stats();
  counter("station.chunk_duplicate_rx", stats_.chunk_duplicate_rx);
  counter("station.chunk_rejects", stats_.chunk_rejects);
  counter("station.chunk_repair_served", stats_.chunk_repair_served);
  counter("station.chunk_retransmits", stats_.chunk_retransmits);
  counter("station.chunk_wasted_bytes", stats_.chunk_wasted_bytes);
  counter("station.chunks_received", stats_.chunks_received);
  counter("station.chunks_sent", stats_.chunks_sent);
  counter("station.demotions", stats_.demotions);
  counter("station.failed_fetches", stats_.failed_fetches);
  counter("station.failovers", stats_.failovers);
  counter("station.fetches_local", stats_.fetches_local);
  counter("station.fetches_remote", stats_.fetches_remote);
  counter("station.forwards_up", stats_.forwards_up);
  counter("station.pushes_forwarded", stats_.pushes_forwarded);
  counter("station.pushes_received", stats_.pushes_received);
  counter("station.relays", stats_.relays);
  counter("station.replications", stats_.replications);
  counter("station.resurrections", stats_.resurrections);
  counter("station.rpc_exhausted", rpc.exhausted);
  counter("station.rpc_retries", rpc.retries);
  counter("station.rpc_timeouts", rpc.attempt_timeouts);
  counter("station.serves", stats_.serves);
  sample(obs::MetricSample::Kind::gauge, "station.disk_bytes", store_->disk_bytes());
  sample(obs::MetricSample::Kind::gauge, "station.docs", store_->doc_count());
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return a.key() < b.key();
            });
  return snap;
}

Status StationNode::scrape_tree(SnapshotCallback cb) {
  std::uint64_t req_id = (self_.value() << 24) | ++next_req_;
  return start_scrape(req_id, std::nullopt, std::move(cb));
}

Status StationNode::send_scrape_rsp(StationId to, std::uint64_t req_id,
                                    const obs::Snapshot& snap) {
  Writer w;
  w.u64(req_id);
  obs::encode_snapshot(w, snap);
  return send_message(to, net::kMetricsResponse, w.take());
}

Status StationNode::start_scrape(std::uint64_t req_id,
                                 std::optional<StationId> reply_to,
                                 SnapshotCallback cb) {
  // Duplicate request for an in-flight merge — a retried scrape, or a
  // station covered twice while tree views are momentarily inconsistent.
  // Register the requester as an extra waiter: the merge in flight answers
  // everyone when it completes. Fanning out again would clobber it.
  auto in_flight = pending_scrapes_.find(req_id);
  if (in_flight != pending_scrapes_.end()) {
    if (reply_to) {
      auto& waiters = in_flight->second.reply_to;
      if (std::find(waiters.begin(), waiters.end(), *reply_to) == waiters.end()) {
        waiters.push_back(*reply_to);
      }
    }
    return Status::ok();
  }
  // A retry that crossed the completed merge's response on the wire: answer
  // from the cache instead of re-running the whole subtree fan-out.
  for (const auto& [done_id, snap] : recent_merges_) {
    if (done_id == req_id) {
      return reply_to ? send_scrape_rsp(*reply_to, req_id, snap) : Status::ok();
    }
  }

  PendingScrape pending;
  if (reply_to) pending.reply_to.push_back(*reply_to);
  pending.cb = std::move(cb);
  pending.acc = local_snapshot();

  std::vector<StationId> targets;
  if (position_ != 0) {
    for (std::uint64_t child : children_of(position_, m_, tree_order().size())) {
      targets.push_back(tree_order()[child - 1]);
    }
  }
  pending.outstanding = targets.size();
  if (!targets.empty()) {
    // A dead subtree must not hang the merge (and everything above it)
    // forever: after a deadline scaled by how deep below us the slowest
    // answer can originate, deliver what has arrived.
    std::uint64_t height =
        position_ == 0 ? 1 : subtree_height(position_, m_, tree_order().size());
    pending.timer =
        fabric_->schedule_on(self_, config_.rpc.deadline * static_cast<std::int64_t>(height + 1),
                             [this, req_id] { on_scrape_deadline(req_id); });
  }
  pending_scrapes_[req_id] = std::move(pending);

  for (StationId child : targets) {
    Writer w;
    w.u64(req_id);
    Status s = send_message(child, net::kMetricsRequest, w.take());
    if (!s.is_ok()) {
      // An unreachable child still has to be accounted for, or the merge
      // would wait forever. Its subtree is simply absent from the result.
      --pending_scrapes_[req_id].outstanding;
      WDOC_WARN("station %llu: scrape fan-out to %llu failed: %s",
                static_cast<unsigned long long>(self_.value()),
                static_cast<unsigned long long>(child.value()), s.message().c_str());
    }
  }
  finish_scrape_if_done(req_id);
  return Status::ok();
}

void StationNode::on_scrape_req(const net::Message& msg) {
  Reader r(msg.payload);
  auto req_id = r.u64();
  if (!req_id) return;
  (void)start_scrape(req_id.value(), msg.from, nullptr);
}

void StationNode::on_scrape_rsp(const net::Message& msg) {
  Reader r(msg.payload);
  auto req_id = r.u64();
  if (!req_id) return;
  auto it = pending_scrapes_.find(req_id.value());
  if (it == pending_scrapes_.end()) {
    // Merge already completed (deadline fired, or a duplicate child
    // answer): counted and ignored.
    rpc_.note_duplicate();
    return;
  }
  auto child_snap = obs::decode_snapshot(r);
  if (!child_snap) {
    WDOC_WARN("station %llu: bad scrape response from %llu: %s",
              static_cast<unsigned long long>(self_.value()),
              static_cast<unsigned long long>(msg.from.value()),
              child_snap.message().c_str());
  } else {
    obs::merge_snapshot(it->second.acc, child_snap.value());
  }
  if (it->second.outstanding > 0) --it->second.outstanding;
  finish_scrape_if_done(req_id.value());
}

void StationNode::on_scrape_deadline(std::uint64_t req_id) {
  auto it = pending_scrapes_.find(req_id);
  if (it == pending_scrapes_.end()) return;
  DistMetrics::get().scrape_partials.inc();
  obs::FlightRecorder::global().record(
      obs::FlightKind::scrape,
      "scrape merge timed out with " + std::to_string(it->second.outstanding) +
          " child subtree(s) missing: delivering partial merge",
      self_.value(), req_id, fabric_->now());
  it->second.outstanding = 0;
  finish_scrape_if_done(req_id);
}

void StationNode::finish_scrape_if_done(std::uint64_t req_id) {
  auto it = pending_scrapes_.find(req_id);
  if (it == pending_scrapes_.end() || it->second.outstanding != 0) return;
  PendingScrape done = std::move(it->second);
  pending_scrapes_.erase(it);
  if (done.timer) done.timer->store(true);
  // Keep the merge around briefly for retries that crossed it on the wire.
  recent_merges_.emplace_back(req_id, done.acc);
  if (recent_merges_.size() > kRecentMerges) recent_merges_.pop_front();
  for (StationId waiter : done.reply_to) {
    (void)send_scrape_rsp(waiter, req_id, done.acc);
  }
  if (done.cb) {
    obs::FlightRecorder::global().record(
        obs::FlightKind::scrape,
        "scrape merged " + std::to_string(done.acc.samples.size()) + " sample(s)",
        self_.value(), 0, fabric_->now());
    done.cb(std::move(done.acc), fabric_->now());
  }
}

}  // namespace wdoc::dist
