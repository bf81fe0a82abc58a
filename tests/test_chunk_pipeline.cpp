// Pipelining regression: on a depth-3 tree at the paper's campus profile
// (10 Mb/s links, 15 ms latency), the chunked cut-through push must beat
// whole-manifest store-and-forward by a wide margin.
//
// Store-and-forward makespan grows as depth × blob_time (each hop waits for
// the whole document before forwarding). Cut-through relays each verified
// chunk immediately, so makespan is about m × blob_time (the root's uplink
// carries m copies) plus, per hop, two link latencies and one chunk time of
// downlink serialization, plus m chunk times of uplink fan-out at each relay
// (DESIGN.md §4d).
// The locked-in bound: chunked ≤ 0.6 × store-and-forward for a 10 MB
// lecture — a ≥ 1.67× improvement that catches any regression to
// store-and-forward behavior (e.g. a window stall or a relay that waits for
// blob completion).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim_cluster.hpp"

namespace wdoc::dist {
namespace {

// The paper's campus profile (10 Mb/s links, 15 ms latency), seed 4242.
class Cluster : public bench::SimCluster {
 public:
  Cluster(std::size_t n, std::uint64_t m, StationConfig config)
      : SimCluster(n, m, bench::kCampusLink, config, 4242) {}
};

DocManifest ten_mb_lecture(StationId home) {
  DocManifest m;
  m.doc_key = "http://mmu.edu/cs500/lecture";
  m.structure_bytes = 64 << 10;
  m.home = home;
  BlobRef video;
  video.digest = digest128("cs500 lecture video");
  video.size = 10 << 20;
  video.type = blob::MediaType::video;
  m.blobs.push_back(video);
  return m;
}

// Runs one push strategy to completion on a fresh 15-station binary tree
// (depth 3: positions 8..15) and returns (makespan, all delivered).
struct PushRun {
  double makespan_s = 0;
  bool all_delivered = false;
};

PushRun run_push(bool chunked) {
  StationConfig cfg;
  cfg.chunk.enabled = chunked;
  Cluster c(15, 2, cfg);
  auto doc = ten_mb_lecture(c.node(0).id());
  Status s = c.node(0).broadcast_push(doc);
  EXPECT_TRUE(s.is_ok()) << s.message();
  c.net().run();
  PushRun out;
  out.makespan_s = c.net().now().as_seconds();
  out.all_delivered = true;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!c.store(i).has_materialized(doc.doc_key)) out.all_delivered = false;
  }
  // Nothing may stay in flight after the fabric drains.
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.node(i).pending_rpcs(), 0u) << "station " << i;
    EXPECT_EQ(c.node(i).active_transfers(), 0u) << "station " << i;
  }
  return out;
}

TEST(ChunkPipeline, CutThroughBeatsStoreAndForwardOnDepth3Tree) {
  PushRun store_forward = run_push(/*chunked=*/false);
  PushRun chunked = run_push(/*chunked=*/true);

  ASSERT_TRUE(store_forward.all_delivered);
  ASSERT_TRUE(chunked.all_delivered);
  ASSERT_GT(store_forward.makespan_s, 0.0);
  ASSERT_GT(chunked.makespan_s, 0.0);

  // The locked-in regression bound (≥ 1.67× speedup).
  EXPECT_LE(chunked.makespan_s, 0.6 * store_forward.makespan_s)
      << "chunked=" << chunked.makespan_s
      << "s store-and-forward=" << store_forward.makespan_s << "s";

  // Sanity on the model itself: store-and-forward pays depth × blob_time
  // (≥ 3 × 8.4 s for 10 MB at 10 Mb/s); cut-through stays within a few
  // chunk-times of the root's own uplink serialization (2 copies ≈ 16.8 s).
  EXPECT_GE(store_forward.makespan_s, 3 * 8.0);
  EXPECT_LE(chunked.makespan_s, 25.0);
}

// Completion times of the root's m children after a push down an n-station
// m-ary tree, earliest first.
std::vector<double> child_completions(std::size_t n, std::uint64_t m) {
  StationConfig cfg;
  Cluster c(n, m, cfg);
  auto doc = ten_mb_lecture(c.node(0).id());
  EXPECT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  c.net().run();
  std::vector<double> done;
  for (std::size_t i = 1; i <= m; ++i) {
    EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
    done.push_back(c.node(i).last_delivery().as_seconds());
  }
  std::sort(done.begin(), done.end());
  return done;
}

// The instructor holds every chunk when the push starts, so its FIFO uplink
// must interleave its children chunk by chunk. Ordered by completion, each
// child then finishes within one chunk serialization time of the one before
// it. Filling one child's whole window before the next child's first chunk
// staggers them instead: by ~1.7 s at m=2, and by 8 chunk times between
// consecutive children at m=8.
TEST(ChunkPipeline, RootUplinkInterleavesChildren) {
  const StationConfig cfg;
  // One chunk message (the default 64 KiB plus the chunk and wire headers)
  // on the root's 10 Mb/s uplink: ~0.05 s.
  const double chunk_s =
      static_cast<double>(cfg.chunk.chunk_bytes + 2 * net::kWireHeaderBytes) * 8.0 /
      bench::kCampusLink.up_bps;
  for (auto [n, m] : {std::pair<std::size_t, std::uint64_t>{3, 2}, {9, 8}}) {
    const std::vector<double> done = child_completions(n, m);
    ASSERT_EQ(done.size(), m);
    for (std::size_t i = 1; i < done.size(); ++i) {
      EXPECT_LE(done[i] - done[i - 1], chunk_s)
          << "n=" << n << " m=" << m << ": child " << i << " done at " << done[i]
          << " s, the one before at " << done[i - 1] << " s";
    }
  }
}

// The zero-copy contract of the payload refactor: pushing REAL bytes down
// the tree, the only per-station byte movement is the single reassembly
// memcpy into the lecture buffer. Every send — the root's first push, every
// interior relay, every retransmit — is a refcounted slice, so the
// net.payload.bytes_copied counter must not move at all during the push.
TEST(ChunkPipeline, RealPayloadRelayIsZeroCopy) {
  StationConfig cfg;
  Cluster c(15, 2, cfg);
  // 2 MiB of real lecture bytes at the root (32 chunks of 64 KiB).
  Bytes video(2 << 20);
  for (std::size_t i = 0; i < video.size(); ++i) {
    video[i] = static_cast<std::uint8_t>(i * 1315423911u >> 16);
  }
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/cs500/real-lecture";
  doc.structure_bytes = 4 << 10;
  doc.home = c.node(0).id();
  BlobRef ref;
  ref.digest = digest128(video);
  ref.size = video.size();
  ref.type = blob::MediaType::video;
  doc.blobs.push_back(ref);
  auto id = c.store(0).blobs().put(video, blob::MediaType::video).expect("put");
  (void)c.store(0).blobs().release(id);

  const std::uint64_t copied_before = net::Payload::bytes_copied_total();
  ASSERT_TRUE(c.node(0).broadcast_push(doc).is_ok());
  c.net().run();
  const std::uint64_t copied = net::Payload::bytes_copied_total() - copied_before;

  // Every station holds the real, digest-verified bytes...
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_TRUE(c.store(i).has_materialized(doc.doc_key)) << "station " << i;
    EXPECT_TRUE(c.store(i).blobs().find(ref.digest).has_value()) << "station " << i;
  }
  // ...yet no payload bytes were copied anywhere on the push/relay path.
  // (Pre-refactor, each of the 14 receiving stations re-encoded ~2 MiB per
  // downstream child — gigabytes of memcpy for a wide tree.)
  EXPECT_EQ(copied, 0u);
}

TEST(ChunkPipeline, SameSeedChunkedPushIsByteDeterministic) {
  auto journal = [] {
    StationConfig cfg;
    Cluster c(15, 2, cfg);
    auto doc = ten_mb_lecture(c.node(0).id());
    EXPECT_TRUE(c.node(0).broadcast_push(doc).is_ok());
    c.net().run();
    std::string out;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const NodeStats& st = c.node(i).stats();
      out += std::to_string(i) + ":" + std::to_string(st.chunks_sent) + "/" +
             std::to_string(st.chunks_received) + "/" +
             std::to_string(st.chunk_retransmits) + "/" +
             std::to_string(st.chunk_bytes_sent) + ";";
    }
    out += "t=" + std::to_string(c.net().now().as_micros());
    return out;
  };
  const std::string a = journal();
  const std::string b = journal();
  EXPECT_EQ(a, b);
}

// Scale determinism: the O(log n) event fabric must stay byte-identical
// across same-seed runs even at populations where the heap sees thousands
// of same-SimTime events (every depth of a 1023-station binary tree relays
// in lock-step). Any unstable tie-break — e.g. a heap comparator ignoring
// sequence numbers, or iteration over an unordered container feeding
// schedule order — shows up here as a diverging journal.
TEST(ChunkPipeline, N1023SameSeedPushIsByteDeterministic) {
  auto journal = [] {
    StationConfig cfg;
    Cluster c(1023, 2, cfg);
    DocManifest doc;
    doc.doc_key = "http://mmu.edu/cs500/scale-lecture";
    doc.structure_bytes = 4 << 10;
    doc.home = c.node(0).id();
    BlobRef ref;
    ref.digest = digest128("scale lecture video");
    ref.size = 1 << 20;
    ref.type = blob::MediaType::video;
    doc.blobs.push_back(ref);
    EXPECT_TRUE(c.node(0).broadcast_push(doc).is_ok());
    c.net().run();
    std::string out;
    std::size_t materialized = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const NodeStats& st = c.node(i).stats();
      out += std::to_string(st.chunks_sent) + "/" +
             std::to_string(st.chunks_received) + "/" +
             std::to_string(st.chunk_bytes_sent) + ";";
      if (c.store(i).has_materialized(doc.doc_key)) ++materialized;
    }
    out += "n=" + std::to_string(materialized);
    out += ",t=" + std::to_string(c.net().now().as_micros());
    EXPECT_EQ(materialized, c.size());
    return out;
  };
  const std::string a = journal();
  const std::string b = journal();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace wdoc::dist
