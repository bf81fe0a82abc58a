// StationNode: the distribution protocol actor running at every station.
//
// Implements the paper's mechanisms (§4):
//   * pre-broadcast push: lectures multicast down the full m-ary tree —
//     each node stores an ephemeral copy and forwards to its children from
//     the broadcast vector;
//   * on-demand pull: a station missing a document asks up its parent
//     chain; the response relays back down the same chain store-and-forward
//     ("a child node copies information from its parent node");
//   * watermark replication: after `watermark` remote retrievals of the
//     same document, the physical data is materialized locally;
//   * post-lecture migration: ephemeral instances demote to references,
//     releasing BLOB references ("duplicated document instances migrate to
//     document references");
//   * blob-level fetches for on-demand streaming (experiment E3), always a
//     chunk pull from the holder — a blob no larger than one chunk is a
//     one-chunk pull, and a holder without the blob serves nothing.
//
// One path per job: the pipelined tree and the swarm are one chunked push —
// one begin message (ChunkBegin, whose stripe-tree count 0 selects the
// pipelined tree), one step that opens a hop's children, one relay — and
// every chunk on the wire, pushed or pulled, is built by one helper. The
// whole-manifest store-and-forward push stays as the reference the chunked
// push is measured against (ChunkConfig::enabled = false).
//
// The implementation is split by job: station_node.cpp (core and the
// store-and-forward push), station_push.cpp, station_swarm.cpp,
// station_pull.cpp and station_scrape.cpp.
//
// Every remote operation runs through the unified rpc lifecycle layer
// (net/rpc.hpp): per-request deadlines, capped exponential backoff with
// seeded jitter, and terminal error delivery — no callback is ever silently
// dropped. Consecutive attempt timeouts against one peer feed a failure
// detector: after kFailoverThreshold of them the peer is
// declared dead, and routing falls back to the nearest live ancestor — the
// paper's placement equation ⌊(k−i−1)/m⌋+1 applied repeatedly (see
// grandparent_position in mtree.hpp). Any message later received from a
// declared-dead station resurrects it.
//
// The node is transport-agnostic: it runs identically over SimNetwork and
// ThreadTransport (Fabric).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dist/mtree.hpp"
#include "dist/object_store.hpp"
#include "net/chunk_wire.hpp"
#include "net/fabric.hpp"
#include "net/rpc.hpp"
#include "net/swarm_wire.hpp"
#include "obs/scrape.hpp"
#include "swarm/config.hpp"
#include "swarm/scheduler.hpp"

namespace wdoc::dist {

// Knobs of the chunked cut-through push/pull paths. A push splits every
// BLOB into `chunk_bytes` chunks; an interior station relays chunk k to its
// children as soon as it verifies, holding at most `window` unacked chunks
// in flight per child (each one an rpc with a deadline and retry budget).
// Pull-side repair requests at most `repair_batch` missing indices per
// round (256 × 64 KiB = 16 MiB, so one round still covers a 10 MB clip).
// `enabled = false` selects the whole-manifest store-and-forward push, the
// reference the chunked push is measured against.
struct ChunkConfig {
  bool enabled = true;
  std::uint32_t chunk_bytes = 64 * 1024;
  std::uint32_t window = 32;
  std::uint32_t repair_batch = 256;

  [[nodiscard]] Status validate() const;
};

// Consecutive attempt timeouts against one peer before it is declared
// dead and routing reparents around it.
inline constexpr std::uint32_t kFailoverThreshold = 3;
// Seed for the rpc tracker's deterministic backoff jitter.
inline constexpr std::uint64_t kRpcSeed = 0x77d0c;

// All of a station's protocol knobs in one validated place: replication
// behavior plus the rpc lifecycle every remote operation runs under.
struct StationConfig {
  // Remote retrievals of one document before it is replicated locally.
  // 1 replicates on first fetch; a very large value disables replication.
  // Zero is rejected by validate() — it would mean "replicate before the
  // first retrieval", which no code path can honor.
  std::uint64_t watermark = 4;
  // If true, intermediate stations relaying a pull response also keep an
  // ephemeral copy (ablation of the paper's "only reviewers duplicate").
  bool relay_cache = false;
  // Deadline / retry / backoff defaults for every rpc this node issues;
  // individual calls may override via their RpcOptions parameter.
  net::RpcOptions rpc;
  // Floor on the assumed transfer rate when scaling a blob fetch's deadline
  // by payload size (a 25 MB blob legitimately serializes for ~40 s on a
  // 10 Mb/s campus link; a flat deadline would retransmit mid-transfer).
  double min_bandwidth_bps = 1e6;
  // Chunked transfer knobs (push pipelining, windowing, chunk repair).
  ChunkConfig chunk;
  // Multi-source swarm distribution (stripe trees + bitmap gossip +
  // rarest-first pull). Requires chunk.enabled; off by default.
  swarm::SwarmConfig swarm;

  [[nodiscard]] Status validate() const;
};

struct NodeStats {
  std::uint64_t pushes_received = 0;
  std::uint64_t pushes_forwarded = 0;
  std::uint64_t fetches_local = 0;    // resolved from local materialized copy
  std::uint64_t fetches_remote = 0;   // had to go up the chain
  std::uint64_t serves = 0;           // requests answered from local data
  std::uint64_t relays = 0;           // pull responses relayed downward
  std::uint64_t forwards_up = 0;      // pull requests forwarded to parent
  std::uint64_t replications = 0;     // watermark-triggered materializations
  std::uint64_t demotions = 0;        // instances migrated back to references
  std::uint64_t failed_fetches = 0;
  std::uint64_t failovers = 0;        // peers this node declared dead
  std::uint64_t resurrections = 0;    // declared-dead peers heard from again
  // Chunked transfer path:
  std::uint64_t chunks_sent = 0;         // data chunks sent (push + repair)
  std::uint64_t chunks_received = 0;     // chunks verified into partial assembly
  std::uint64_t chunk_rejects = 0;       // failed digest/bounds verification
  std::uint64_t chunk_retransmits = 0;   // rpc-retry resends of a pushed chunk
  std::uint64_t chunk_repair_served = 0; // chunks served to pull requests
  std::uint64_t chunk_bytes_sent = 0;    // payload bytes across chunk sends
  // Chunk receive accounting (swarm mode makes duplicates possible):
  std::uint64_t chunk_duplicate_rx = 0;  // already-held chunks received again
  std::uint64_t chunk_wasted_bytes = 0;  // wire bytes those duplicates cost
  // Swarm path:
  std::uint64_t swarm_haves_sent = 0;        // gossip bitmaps sent
  std::uint64_t swarm_reqs_sent = 0;         // gossip bitmaps carrying a request
  std::uint64_t swarm_chunks_served = 0;     // chunks served to swarm requests
};

class StationNode {
 public:
  // Canonical completion shape for every remote operation: (Result<T>,
  // completion time). See net/rpc.hpp.
  using FetchCallback = net::Rpc<DocManifest>;
  using BlobFetchCallback = net::Rpc<BlobRef>;
  using SnapshotCallback = net::Rpc<obs::Snapshot>;

  StationNode(net::Fabric& fabric, StationId self, ObjectStore& store,
              StationConfig config = {});

  // Installs this node's message handler on the fabric.
  void bind();
  // Feeds one message to the protocol directly — for wrappers (e.g.
  // AdminClient) that own the fabric handler and demultiplex.
  void handle(const net::Message& msg) { on_message(msg); }

  // --- topology -----------------------------------------------------------
  // The class administrator's broadcast vector (stations in linear join
  // order) and the tree fan-out m. The node derives its own position.
  // The shared-ownership overload lets every node of an N-station cluster
  // alias one vector instead of holding its own copy — at N=10,000 that is
  // the difference between one 80 kB vector and 800 MB of duplicates.
  void set_tree(std::shared_ptr<const std::vector<StationId>> broadcast_vector,
                std::uint64_t m);
  void set_tree(std::vector<StationId> broadcast_vector, std::uint64_t m);
  [[nodiscard]] std::uint64_t position() const { return position_; }
  // Static tree parent from the placement equation — ignores liveness.
  [[nodiscard]] std::optional<StationId> parent_station() const;
  // Failover route: the nearest ancestor not declared dead (grandparent,
  // great-grandparent, ... when parents have failed). nullopt at the root
  // or when the whole ancestor chain is declared dead.
  [[nodiscard]] std::optional<StationId> live_parent_station() const;

  // --- failure detector ----------------------------------------------------
  [[nodiscard]] bool is_declared_dead(StationId s) const { return dead_.contains(s); }
  [[nodiscard]] const std::set<StationId>& dead_stations() const { return dead_; }
  // This station's own fabric-level liveness (false while crashed).
  [[nodiscard]] bool online() const { return fabric_->is_online(self_); }

  // --- instructor side ------------------------------------------------------
  // Root of a multicast: stores a persistent instance (if not already held)
  // and pushes down the tree. Children receive ephemeral copies. With
  // config().chunk.enabled (the default) the push is chunked and pipelined:
  // interior stations relay each verified chunk before the next arrives, so
  // makespan is about m * blob_time + depth * (2 * latency + chunk_time) +
  // (depth - 1) * m * chunk_time (DESIGN.md §4d) instead of
  // depth * blob_time. Disabled, it is the whole-manifest store-and-forward
  // push: unacked, each hop forwarding once the whole document arrived —
  // the reference bench_prebroadcast and the pipelining test compare with.
  [[nodiscard]] Status broadcast_push(const DocManifest& manifest);

  // "References to the instance are broadcasted and stored in many remote
  // stations" (§4): multicasts a reference record (manifest only, tiny wire
  // size) down the tree so every station can later pull on demand.
  [[nodiscard]] Status announce_reference(const DocManifest& manifest);

  // --- student side --------------------------------------------------------
  // Resolves a document: local hit completes synchronously; otherwise the
  // request travels up the live parent chain (or straight to `home` when no
  // tree is configured) and `cb` fires exactly once — with the manifest, or
  // with a terminal error (Errc::timeout / Errc::unreachable / the remote
  // Errc) once the retry budget is spent.
  [[nodiscard]] Status fetch(const std::string& doc_key, FetchCallback cb,
                             std::optional<net::RpcOptions> options = std::nullopt);

  // Fetches one BLOB's payload from `holder` as a chunk pull pinned to it
  // (charged at blob size; a blob no larger than one chunk is a one-chunk
  // pull). On completion the payload is registered in the local BlobStore,
  // so a repeat fetch of the same content completes locally without network
  // traffic. A holder without the blob serves no chunk, and the fetch fails
  // with Errc::unavailable.
  [[nodiscard]] Status fetch_blob(StationId holder, const std::string& doc_key,
                                  const BlobRef& blob, BlobFetchCallback cb,
                                  std::optional<net::RpcOptions> options = std::nullopt);

  // Chunk-granularity anti-entropy: ensures a local reference, then pulls
  // only the chunks of the manifest's blobs this station is missing (up the
  // live parent chain, falling back to the manifest home), and materializes
  // an ephemeral instance once every blob is complete. A station whose push
  // was partially lost re-transfers kilobytes, not whole BLOBs. `cb` fires
  // exactly once: with the manifest after materialization, or with the
  // first terminal error of the round (partial progress is kept — the next
  // repair round continues from the bitmap).
  [[nodiscard]] Status repair_pull(const DocManifest& manifest, FetchCallback cb,
                                   std::optional<net::RpcOptions> options = std::nullopt);

  // Post-lecture migration: every ephemeral instance demotes to a
  // reference; returns reclaimable bytes (after the BlobStore gc).
  std::uint64_t end_lecture();

  // --- observability plane -------------------------------------------------
  // This station's own counters as a metrics snapshot, every sample tagged
  // with a `station=<id>` label. This is what a scrape response carries.
  [[nodiscard]] obs::Snapshot local_snapshot() const;

  // Initiates a hierarchical scrape of this node's subtree: the request
  // fans down the broadcast tree, each node merges its children's responses
  // into its own station-labeled snapshot on the way back up, and `cb`
  // fires once here with the subtree-wide merge. Called on the tree root
  // (directly or via AdminNode::scrape_cluster) this yields the whole
  // cluster in one snapshot. A merge waiting on a dead subtree completes
  // partially after a height-scaled deadline instead of hanging.
  [[nodiscard]] Status scrape_tree(SnapshotCallback cb);

  [[nodiscard]] ObjectStore& store() { return *store_; }
  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] net::RpcStats rpc_stats() const { return rpc_.stats(); }
  // Requests still awaiting a response or retry (0 once the fabric drains).
  [[nodiscard]] std::size_t pending_rpcs() const { return rpc_.pending(); }
  [[nodiscard]] StationId id() const { return self_; }
  [[nodiscard]] const StationConfig& config() const { return config_; }

  // Chunked transfers (push) still assembling here, including fully-received
  // ones whose children have unacked chunks in flight.
  [[nodiscard]] std::size_t active_transfers() const { return transfers_.size(); }

  // When this station last materialized a pushed lecture (zero before the
  // first push completes locally). Benches compute a broadcast's makespan
  // as the max across stations, which — unlike the fabric's quiescence
  // time — excludes the swarm gossip tail after the last delivery.
  [[nodiscard]] SimTime last_delivery() const { return last_delivery_; }

  // Message type tags (public for tests). Chunk tags live in net/chunk_wire.hpp.
  static constexpr const char* kPush = "dist.push";
  static constexpr const char* kRefAnnounce = "dist.ref";
  static constexpr const char* kFetchReq = "dist.fetch_req";
  static constexpr const char* kFetchRsp = "dist.fetch_rsp";
  static constexpr const char* kFetchErr = "dist.fetch_err";
  static constexpr const char* kChunkBegin = net::kChunkBegin;
  static constexpr const char* kChunkData = net::kChunkData;
  static constexpr const char* kChunkAck = net::kChunkAck;
  static constexpr const char* kChunkReq = net::kChunkReq;
  static constexpr const char* kChunkRsp = net::kChunkRsp;
  static constexpr const char* kSwarmHave = net::kSwarmHave;

 private:
  void on_message(const net::Message& msg);
  void on_push(const net::Message& msg);
  void on_ref_announce(const net::Message& msg);
  void on_fetch_req(const net::Message& msg);
  void on_fetch_rsp(const net::Message& msg);
  void on_fetch_err(const net::Message& msg);
  // ChunkBegin: opens this hop of a push transfer (tree or swarm).
  void on_begin(const net::Message& msg);
  void on_chunk_data(const net::Message& msg);
  void on_chunk_ack(const net::Message& msg);
  void on_chunk_req(const net::Message& msg);
  void on_chunk_rsp(const net::Message& msg);
  void on_scrape_req(const net::Message& msg);
  void on_scrape_rsp(const net::Message& msg);

  // One (re)send of an in-flight pull: recomputes the route each attempt,
  // so retries travel the repaired chain after a reparent.
  [[nodiscard]] Status send_fetch_req(std::uint64_t req_id, const std::string& doc_key);
  [[nodiscard]] Status send_push(StationId to, const DocManifest& manifest,
                                 obs::TraceContext trace = {});
  // Sends `payload` to `to` as a `type` message, charged at `wire_size`
  // (0: the payload plus framing) and carrying `trace`.
  [[nodiscard]] Status send_message(StationId to, const char* type, net::Payload payload,
                                    std::uint64_t wire_size = 0,
                                    obs::TraceContext trace = {});
  // Holds an ephemeral instance of `m` here: stored when absent,
  // materialized when only a reference is held, left alone otherwise.
  [[nodiscard]] Status hold_ephemeral(const DocManifest& m);
  // Every non-empty blob of `m` is complete in the local BlobStore.
  [[nodiscard]] bool blobs_complete(const DocManifest& m) const;

  // Failure detector: consecutive attempt timeouts per routed-to peer.
  void note_attempt_timeout(StationId target);
  void declare_dead(StationId target);
  void note_alive(StationId from);

  // --- chunked push ---------------------------------------------------------
  // Per-child relay state of one transfer: chunks not yet sent (in arrival
  // order — the cut-through queue) and the bounded in-flight window, each
  // slot an rpc waiting on its ChunkAck.
  struct ChildCursor {
    StationId child;
    std::deque<std::uint64_t> pending;                 // (blob_ordinal<<32)|index
    std::map<std::uint64_t, std::uint64_t> in_flight;  // chunk key -> rpc req_id
    // The child's 1-based tree position and, in swarm mode, which stripe
    // tree this cursor feeds (only that tree's chunks are relayed through
    // it; the position drives bitmap-based relay suppression). tree is 0
    // on the single-tree pipeline.
    std::uint32_t tree = 0;
    std::uint64_t child_pos = 0;
  };
  // One queued swarm-mode chunk send: a stripe relay to a tree child
  // (serve=false) or a requested chunk to a pulling peer (serve=true).
  // peer_pos is the receiver's 1-based tree position, for last-moment
  // bitmap suppression.
  struct SwarmSend {
    StationId to;
    std::uint64_t peer_pos = 0;
    std::uint64_t key = 0;  // (blob_ordinal<<32)|index
    bool serve = false;
  };
  struct Transfer {
    DocManifest manifest;
    std::uint32_t chunk_bytes = 0;
    std::uint64_t total_chunks = 0;
    bool delivered = false;  // local instance materialized
    std::vector<ChildCursor> children;
    std::uint64_t span = 0;  // trace span covering this hop of the multicast
    // End-to-end trace of the whole multicast: derived deterministically
    // from the transfer id at the root, inherited from msg.trace.trace_id
    // at every hop below it (together with the head-sample verdict).
    std::uint64_t trace_id = 0;
    bool trace_sampled = false;
    // Swarm mode (DESIGN.md §4f); 0 stripe trees is the pipelined tree.
    std::uint32_t stripe_trees = 0;
    [[nodiscard]] bool swarm() const { return stripe_trees != 0; }
    bool gossip_done = false;     // gossip loop finished; transfer may retire
    // Global chunk index base per blob ordinal (size blobs+1): chunk g of
    // the transfer is blob upper_bound(g)-1, index g - prefix[ordinal].
    std::vector<std::uint32_t> chunk_prefix;
    std::unique_ptr<swarm::SwarmScheduler> sched;
    // Stripe-ancestor adoption (the swarm analogue of tree failover): the
    // closest ancestor per stripe tree we currently expect gossip from.
    // While it stays silent past kPeerTimeout we walk one level further
    // up and adopt that ancestor as a gossip peer — a shallow ancestor
    // sees the chunk frontier seconds before the orphaned subtree does,
    // and its uplink has the dead child's relay slots to spare.
    std::vector<std::uint64_t> acting_parent;  // per tree; 0 = walked out
    std::vector<SimTime> acting_since;         // per tree: last walk time
    net::Fabric::TimerHandle gossip_timer;
    std::uint32_t gossip_rounds = 0;
    std::uint32_t idle_rounds = 0;
    std::uint64_t last_state_sum = 0;
    // Any SwarmHave from an incomplete neighbor, or one carrying a request,
    // received since the last gossip tick. An incomplete neighbor that is
    // still *alive* keeps gossiping even when its bitmap is frozen (it may
    // be waiting on our serves) — hearing it must hold this transfer open,
    // or we retire while it still needs us.
    bool gossip_heard = false;
    // Paced swarm send queues: sends drain one chunk per uplink
    // chunk-time, so the fabric queue never grows beyond a chunk or two
    // and small control traffic (begins, gossip) is never stuck behind
    // seconds of bulk data. Stripe relays (swarm_queue) take priority over
    // request serves (swarm_serve_queue) — a relay feeds a whole subtree —
    // but after kServeStride consecutive relays one serve is interleaved,
    // so crash recovery drains steadily instead of waiting for the entire
    // relay backlog (see swarm::kServeStride). Relays to a stripe child
    // silent past kPeerTimeout (most likely crashed) are parked and sent
    // only when both queues are empty: its slots go to the orphans' pulls,
    // and a child that was only slow still gets its chunks.
    std::deque<SwarmSend> swarm_queue;
    std::deque<SwarmSend> swarm_serve_queue;
    std::deque<SwarmSend> swarm_parked;
    std::uint32_t relays_since_serve = 0;
    // Relays sent since the last gossip tick: the measured relay load
    // behind the advertised backlog (swarm::kBusyRelayPercent).
    std::uint32_t relays_this_round = 0;
    net::Fabric::TimerHandle pace_timer;
    bool pacing = false;
  };

  // A transfer of `manifest` cut into chunk_bytes chunks, nothing opened.
  [[nodiscard]] static Transfer new_transfer(const DocManifest& manifest,
                                             std::uint32_t chunk_bytes);
  // Root of a chunked push over `trees` stripe trees; 0 is the pipelined
  // tree.
  [[nodiscard]] Status start_push(const DocManifest& manifest, std::uint32_t trees);
  // Registers the transfer and opens this hop of it: the swarm state when
  // trees != 0, then the children. Delivers locally if every blob is
  // already held.
  void open_transfer(std::uint64_t transfer_id, Transfer t, std::uint32_t trees);
  // The encoded ChunkBegin of a transfer (with its stripe count in swarm
  // mode) as one refcounted buffer for a whole fan-out.
  [[nodiscard]] net::Payload begin_payload(std::uint64_t transfer_id,
                                           const Transfer& t) const;
  // Sends one begin to `to`, counted as a push (or a swarm begin).
  [[nodiscard]] Status send_begin(const Transfer& t, StationId to,
                                  const net::Payload& payload);
  // Opens this hop's children over its (child, tree) edges — the tree's
  // children on tree 0, or every stripe tree's children: one begin per
  // distinct child, one cursor per edge holding every locally-held chunk of
  // its tree, then one round-robin drain onto the uplink (cut-through for
  // the rest happens as chunks verify in on_chunk_data).
  void open_children(std::uint64_t transfer_id, Transfer& t);
  void enqueue_held_chunks(Transfer& t, ChildCursor& cursor);
  // Fills the cursor's window from its pending chunks.
  void pump_cursor(std::uint64_t transfer_id, ChildCursor& cursor);
  // Sends the cursor's next pending chunk if its window has room; false
  // when nothing was sent (window full, queue empty or child dead).
  [[nodiscard]] bool send_next_chunk(std::uint64_t transfer_id, Transfer& t,
                                     ChildCursor& cursor);
  [[nodiscard]] Status send_chunk(std::uint64_t transfer_id, const Transfer& t,
                                  StationId child, std::uint64_t key,
                                  std::uint64_t req_id, bool retransmit);
  // Builds the ChunkData message carrying chunk `index` of `blob` (cut at
  // chunk_bytes) to `to` and returns the chunk's length, or fails when the
  // chunk is not held here. Pushed chunks carry their rpc and transfer ids;
  // pull serves carry zeros (unacked, never relayed).
  [[nodiscard]] Result<std::uint32_t> chunk_message(net::Message& out, StationId to,
                                                    const BlobRef& blob,
                                                    std::uint32_t index,
                                                    std::uint32_t chunk_bytes,
                                                    std::uint64_t req_id,
                                                    std::uint64_t transfer_id);
  void deliver_transfer(std::uint64_t transfer_id);
  void maybe_retire_transfer(std::uint64_t transfer_id);

  // --- swarm mode (multi-source distribution, DESIGN.md §4f) ---------------
  // Builds the transfer's swarm state: chunk prefix table, scheduler with
  // stripe parents and gossip neighbors, self bitmap seeded from the blob
  // store, and the first gossip tick.
  void init_swarm(std::uint64_t transfer_id, Transfer& t, std::uint32_t trees);
  void enqueue_swarm_send(std::uint64_t transfer_id, Transfer& t, SwarmSend entry);
  void swarm_pace_tick(std::uint64_t transfer_id);
  [[nodiscard]] SimTime swarm_pace_interval(const Transfer& t) const;
  void schedule_swarm_tick(std::uint64_t transfer_id);
  // One gossip round: ancestor adoption, begin re-sends, a SwarmHave to every
  // known peer (carrying the pulls planned on it), the termination check.
  void on_swarm_tick(std::uint64_t transfer_id);
  // A SwarmHave updates our view of its sender and queues paced serves for
  // the chunk indices it carries (at most kRequestBatch of them).
  void on_swarm_have(const net::Message& msg);
  // The swarm transfer a SwarmHave from `from` names, or null when
  // it is unknown here (counted as an orphan), not a swarm, of another
  // chunk count, or the sender's claimed position is not `from`'s.
  [[nodiscard]] Transfer* swarm_transfer_for(std::uint64_t transfer_id,
                                             std::uint32_t total_chunks,
                                             std::uint64_t position, StationId from);

  // --- chunked pull / repair ------------------------------------------------
  // One blob's pull loop: request up to repair_batch missing chunks per
  // round from `holder` (or the live parent chain / `home` when unset),
  // repeat while rounds make progress, finish via `done`.
  struct BlobPull {
    std::string doc_key;
    BlobRef blob;
    std::optional<StationId> holder;
    StationId home;
    std::uint32_t chunk_bytes = 0;
    net::RpcOptions base;
    std::function<void(Status, SimTime)> done;
  };
  [[nodiscard]] Status pull_blob_chunks(BlobPull pull);
  [[nodiscard]] Status start_pull_round(std::shared_ptr<BlobPull> pull,
                                        std::size_t missing_before);
  [[nodiscard]] Status send_chunk_req(std::uint64_t req_id, const BlobPull& pull);

  // Starts pending-scrape state for `req_id` and fans the request to this
  // node's tree children; completes immediately at a leaf.
  [[nodiscard]] Status start_scrape(std::uint64_t req_id,
                                    std::optional<StationId> reply_to,
                                    SnapshotCallback cb);
  void finish_scrape_if_done(std::uint64_t req_id);
  void on_scrape_deadline(std::uint64_t req_id);
  [[nodiscard]] Status send_scrape_rsp(StationId to, std::uint64_t req_id,
                                       const obs::Snapshot& snap);

  net::Fabric* fabric_;
  StationId self_;
  ObjectStore* store_;
  StationConfig config_;
  NodeStats stats_;
  net::RpcTracker rpc_;

  // Shared with every other node of the cluster (see set_tree); read-only
  // through tree_order(). Never null — starts as an empty vector.
  std::shared_ptr<const std::vector<StationId>> broadcast_vector_ =
      std::make_shared<const std::vector<StationId>>();
  std::uint64_t m_ = 2;
  std::uint64_t position_ = 0;  // 1-based; 0 = not in tree

  [[nodiscard]] const std::vector<StationId>& tree_order() const {
    return *broadcast_vector_;
  }

  // Failure detector state: consecutive timeouts per peer, peers declared
  // dead, and the peer each in-flight rpc last routed to.
  std::map<StationId, std::uint32_t> suspect_;
  std::set<StationId> dead_;
  std::map<std::uint64_t, StationId> rpc_target_;

  // Chunked push transfers in flight (keyed by transfer id).
  std::map<std::uint64_t, Transfer> transfers_;

  // Hierarchical scrape in flight: requesters waiting on the merge (a retry
  // of an in-flight req_id registers as an extra waiter, never a second
  // fan-out), children yet to answer, the merged snapshot so far, and the
  // merge's own deadline.
  struct PendingScrape {
    std::vector<StationId> reply_to;
    SnapshotCallback cb;
    std::size_t outstanding = 0;
    obs::Snapshot acc;
    net::Fabric::TimerHandle timer;
  };
  std::map<std::uint64_t, PendingScrape> pending_scrapes_;
  // Bounded cache of recently-completed merges, so a retry that crossed the
  // original response on the wire gets the cached answer instead of
  // triggering a whole new subtree fan-out.
  std::deque<std::pair<std::uint64_t, obs::Snapshot>> recent_merges_;
  static constexpr std::size_t kRecentMerges = 8;

  SimTime last_delivery_{};
  std::uint64_t next_req_ = 0;
};

}  // namespace wdoc::dist
