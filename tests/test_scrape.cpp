// Observability-plane tests: hierarchical metrics scrape over the m-ary
// broadcast tree (StationNode::scrape_tree, AdminNode::scrape_cluster) and
// deterministic Perfetto export of a lecture-push trace.
#include <gtest/gtest.h>

#include "dist/admin_node.hpp"
#include "net/sim_network.hpp"
#include "obs/trace_export.hpp"
#include "sim_cluster.hpp"

namespace wdoc::dist {
namespace {

// Value of `name{station=<id>}` in `snap`, or -1 when absent.
double station_sample(const obs::Snapshot& snap, const std::string& name,
                      StationId station) {
  for (const obs::MetricSample& s : snap.samples) {
    auto it = s.labels.find("station");
    if (s.name == name && it != s.labels.end() &&
        it->second == std::to_string(station.value())) {
      return s.value;
    }
  }
  return -1.0;
}

constexpr const char* kCounters[] = {
    "station.chunk_duplicate_rx", "station.chunk_rejects",
    "station.chunk_repair_served", "station.chunk_retransmits",
    "station.chunks_received",    "station.chunks_sent",
    "station.demotions",          "station.failed_fetches",
    "station.failovers",          "station.fetches_local",
    "station.fetches_remote",     "station.forwards_up",
    "station.pushes_forwarded",   "station.pushes_received",
    "station.relays",             "station.replications",
    "station.resurrections",      "station.rpc_exhausted",
    "station.rpc_retries",        "station.rpc_timeouts",
    "station.serves",
};

// Samples per station in local_snapshot(): the 21 counters above, the
// swarm waste counter (chunk_wasted_bytes) and two gauges.
constexpr std::size_t kSamplesPerStation = 24;

std::uint64_t stat_by_name(const StationNode& node, std::string_view name) {
  const NodeStats& st = node.stats();
  const net::RpcStats rpc = node.rpc_stats();
  if (name == "station.chunk_duplicate_rx") return st.chunk_duplicate_rx;
  if (name == "station.chunk_rejects") return st.chunk_rejects;
  if (name == "station.chunk_repair_served") return st.chunk_repair_served;
  if (name == "station.chunk_retransmits") return st.chunk_retransmits;
  if (name == "station.chunks_received") return st.chunks_received;
  if (name == "station.chunks_sent") return st.chunks_sent;
  if (name == "station.demotions") return st.demotions;
  if (name == "station.failed_fetches") return st.failed_fetches;
  if (name == "station.failovers") return st.failovers;
  if (name == "station.fetches_local") return st.fetches_local;
  if (name == "station.fetches_remote") return st.fetches_remote;
  if (name == "station.forwards_up") return st.forwards_up;
  if (name == "station.pushes_forwarded") return st.pushes_forwarded;
  if (name == "station.pushes_received") return st.pushes_received;
  if (name == "station.relays") return st.relays;
  if (name == "station.replications") return st.replications;
  if (name == "station.resurrections") return st.resurrections;
  if (name == "station.rpc_exhausted") return rpc.exhausted;
  if (name == "station.rpc_retries") return rpc.retries;
  if (name == "station.rpc_timeouts") return rpc.attempt_timeouts;
  if (name == "station.serves") return st.serves;
  ADD_FAILURE() << "unknown counter " << name;
  return 0;
}

// N stations on default links, wired into an m-ary tree.
class Cluster : public bench::SimCluster {
 public:
  explicit Cluster(std::size_t n, std::uint64_t m, std::uint64_t seed = 7)
      : SimCluster(n, m, {}, {}, seed) {}

  void push_lecture(const std::string& key) {
    DocManifest doc;
    doc.doc_key = key;
    doc.structure_bytes = 5000;
    doc.home = id(0);
    ASSERT_TRUE(node(0).broadcast_push(doc).is_ok());
    net().run();
  }
};

TEST(ScrapeTree, MergedSnapshotMatchesEveryStationsLocalCounters) {
  Cluster c(13, 3);
  c.push_lecture("http://mmu.edu/CS102/lecture1");

  obs::Snapshot merged;
  bool done = false;
  ASSERT_TRUE(c.node(0)
                  .scrape_tree([&](Result<obs::Snapshot> r, SimTime) {
                    ASSERT_TRUE(r.is_ok());
                    merged = std::move(r).value();
                    done = true;
                  })
                  .is_ok());
  c.net().run();
  ASSERT_TRUE(done);

  // One sample per (counter+gauge, station).
  EXPECT_EQ(merged.samples.size(), kSamplesPerStation * 13u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (const char* name : kCounters) {
      EXPECT_EQ(station_sample(merged, name, c.id(i)),
                static_cast<double>(stat_by_name(c.node(i), name)))
          << name << " station " << c.id(i).value();
    }
  }
  // And the cluster totals are plain sums of the per-station samples.
  std::uint64_t pushes = 0;
  for (std::size_t i = 0; i < c.size(); ++i) pushes += c.node(i).stats().pushes_received;
  EXPECT_GT(pushes, 0u);
  EXPECT_EQ(obs::counter_total(merged, "station.pushes_received"),
            static_cast<double>(pushes));
}

TEST(ScrapeTree, LeafScrapeReturnsOnlyItself) {
  Cluster c(5, 2);
  obs::Snapshot merged;
  // Node 4 (position 5) is a leaf: its subtree is itself.
  ASSERT_TRUE(c.node(4)
                  .scrape_tree([&](Result<obs::Snapshot> r, SimTime) {
                    ASSERT_TRUE(r.is_ok());
                    merged = std::move(r).value();
                  })
                  .is_ok());
  c.net().run();
  EXPECT_EQ(merged.samples.size(), kSamplesPerStation);
  for (const obs::MetricSample& s : merged.samples) {
    EXPECT_EQ(s.labels.at("station"), std::to_string(c.id(4).value()));
  }
}

TEST(ScrapeTree, SnapshotRendersWithExistingExporters) {
  Cluster c(4, 2);
  c.push_lecture("http://mmu.edu/CS101/lecture1");
  obs::Snapshot merged;
  ASSERT_TRUE(c.node(0)
                  .scrape_tree([&](Result<obs::Snapshot> r, SimTime) {
                    ASSERT_TRUE(r.is_ok());
                    merged = std::move(r).value();
                  })
                  .is_ok());
  c.net().run();
  std::string table = obs::to_table(merged);
  EXPECT_NE(table.find("station.pushes_received"), std::string::npos);
  std::string json = obs::to_json(merged);
  EXPECT_NE(json.find("\"station.pushes_received"), std::string::npos);
}

// --- AdminNode::scrape_cluster ----------------------------------------------

struct Member {
  StationId id;
  std::unique_ptr<blob::BlobStore> blobs;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<StationNode> node;
  std::unique_ptr<AdminClient> client;
};

class ScrapeClusterFixture : public ::testing::Test {
 protected:
  ScrapeClusterFixture() : net_(11) {
    admin_id_ = net_.add_station();
    admin_ = std::make_unique<AdminNode>(net_, admin_id_, coordinator_, /*m=*/3);
    admin_->bind();
  }

  void join_members(int n) {
    for (int i = 0; i < n; ++i) {
      auto m = std::make_unique<Member>();
      m->id = net_.add_station();
      m->blobs = std::make_unique<blob::BlobStore>();
      m->store = std::make_unique<ObjectStore>(*m->blobs);
      m->node = std::make_unique<StationNode>(net_, m->id, *m->store);
      m->client = std::make_unique<AdminClient>(net_, *m->node, admin_id_);
      m->client->bind();
      ASSERT_TRUE(m->client->request_join(nullptr).is_ok());
      members_.push_back(std::move(m));
    }
    net_.run();
  }

  net::SimNetwork net_;
  Coordinator coordinator_;
  StationId admin_id_;
  std::unique_ptr<AdminNode> admin_;
  std::vector<std::unique_ptr<Member>> members_;
};

TEST_F(ScrapeClusterFixture, MergesThirteenStationTree) {
  join_members(13);
  DocManifest doc;
  doc.doc_key = "http://mmu.edu/CS102/lecture2";
  doc.structure_bytes = 5000;
  doc.home = members_[0]->id;
  ASSERT_TRUE(members_[0]->node->broadcast_push(doc).is_ok());
  net_.run();

  obs::Snapshot merged;
  bool done = false;
  ASSERT_TRUE(admin_
                  ->scrape_cluster([&](Result<obs::Snapshot> r, SimTime) {
                    ASSERT_TRUE(r.is_ok());
                    merged = std::move(r).value();
                    done = true;
                  })
                  .is_ok());
  net_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(admin_->scrapes_completed(), 1u);

  EXPECT_EQ(merged.samples.size(), kSamplesPerStation * 13u);
  for (const auto& m : members_) {
    for (const char* name : kCounters) {
      EXPECT_EQ(station_sample(merged, name, m->id),
                static_cast<double>(stat_by_name(*m->node, name)))
          << name << " station " << m->id.value();
    }
  }
  // Tree push accounting: 12 non-root stations received the push, and
  // forward counts sum to the edges the push travelled.
  EXPECT_EQ(obs::counter_total(merged, "station.pushes_received"), 12.0);
}

TEST_F(ScrapeClusterFixture, EmptyClusterCompletesImmediately) {
  bool done = false;
  obs::Snapshot merged;
  ASSERT_TRUE(admin_
                  ->scrape_cluster([&](Result<obs::Snapshot> r, SimTime) {
                    ASSERT_TRUE(r.is_ok());
                    merged = std::move(r).value();
                    done = true;
                  })
                  .is_ok());
  EXPECT_TRUE(done);  // no fabric round-trip needed
  EXPECT_TRUE(merged.samples.empty());
  EXPECT_EQ(admin_->scrapes_completed(), 1u);
}

TEST_F(ScrapeClusterFixture, BackToBackScrapesUseDistinctRequestIds) {
  join_members(5);
  int fired = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(admin_->scrape_cluster([&](Result<obs::Snapshot> r, SimTime) {
      EXPECT_TRUE(r.is_ok());
      ++fired;
    })
                    .is_ok());
    net_.run();
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(admin_->scrapes_completed(), 3u);
}

// --- Perfetto export determinism ---------------------------------------------

std::string traced_lecture_run() {
  auto& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  (void)tracer.drain();  // forget spans from earlier tests
  Cluster c(13, 3, /*seed=*/1999);
  c.push_lecture("http://mmu.edu/CS102/lecture3");
  std::string json = obs::to_chrome_trace(tracer.drain());
  tracer.set_enabled(false);
  return json;
}

TEST(TraceExport, SameSeedRunsExportByteIdenticalJson) {
  std::string a = traced_lecture_run();
  std::string b = traced_lecture_run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceExport, LecturePushTraceCoversEveryTreeHop) {
  std::string json = traced_lecture_run();
  // Valid trace-event envelope.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  // One pid metadata row per station in the 13-node tree.
  std::size_t processes = 0, pos = 0;
  while ((pos = json.find("\"process_name\"", pos)) != std::string::npos) {
    ++processes;
    pos += 1;
  }
  EXPECT_EQ(processes, 13u);
  // The push span chain reaches down the tree: flow arrows bind the hops.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

}  // namespace
}  // namespace wdoc::dist
