// Decode-robustness fuzzing: every wire/file decoder must reject arbitrary
// byte soup with a clean error — never crash, hang, or accept garbage that
// round-trips differently.
//
// Strategies per decoder: (a) pure random bytes, (b) a valid encoding with
// one mutated byte, (c) a valid encoding truncated at every length.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist/doc_object.hpp"
#include "dist/fetch_wire.hpp"
#include "docmodel/annotation_ops.hpp"
#include "docmodel/traversal.hpp"
#include "http/parser.hpp"
#include "net/chunk_wire.hpp"
#include "net/swarm_wire.hpp"
#include "storage/wal.hpp"
#include "workload/patterns.hpp"

namespace wdoc {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

template <typename DecodeFn>
void fuzz_decoder(const Bytes& valid, DecodeFn decode, std::uint64_t seed) {
  Rng rng(seed);
  // (a) random soup of assorted sizes.
  for (int i = 0; i < 200; ++i) {
    Bytes soup = random_bytes(rng, rng.uniform(200));
    (void)decode(soup);  // must simply not crash
  }
  // (b) single-byte mutations of a valid encoding.
  for (int i = 0; i < 200 && !valid.empty(); ++i) {
    Bytes mutated = valid;
    std::size_t pos = rng.uniform(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    (void)decode(mutated);
  }
  // (c) every truncation of the valid encoding.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    auto result = decode(truncated);
    EXPECT_FALSE(result) << "truncation to " << len << " bytes decoded successfully";
  }
}

TEST(DecodeFuzz, AnnotationDoc) {
  auto doc = workload::random_annotation(12, 5);
  fuzz_decoder(
      doc.encode(),
      [](const Bytes& b) { return docmodel::AnnotationDoc::decode(b).is_ok(); }, 1);
  // Sanity: the valid encoding still decodes to the original.
  EXPECT_EQ(docmodel::AnnotationDoc::decode(doc.encode()).expect("valid"), doc);
}

TEST(DecodeFuzz, TraversalLog) {
  auto log = workload::random_traversal("http://x", 4, 25, 5);
  fuzz_decoder(
      log.encode(),
      [](const Bytes& b) { return docmodel::TraversalLog::decode(b).is_ok(); }, 2);
  EXPECT_EQ(docmodel::TraversalLog::decode(log.encode()).expect("valid"), log);
}

TEST(DecodeFuzz, DocManifest) {
  dist::DocManifest manifest;
  manifest.doc_key = "http://mmu.edu/CS101";
  manifest.structure_bytes = 12345;
  manifest.home = StationId{7};
  for (int i = 0; i < 3; ++i) {
    dist::BlobRef ref;
    ref.digest = digest128("blob " + std::to_string(i));
    ref.size = 1000u * static_cast<std::uint64_t>(i + 1);
    ref.playout_ms = i * 100;
    manifest.blobs.push_back(ref);
  }
  Writer w;
  manifest.serialize(w);
  Bytes valid = w.take();
  fuzz_decoder(
      valid,
      [](const Bytes& b) {
        Reader r(b);
        auto decoded = dist::DocManifest::deserialize(r);
        // A successful decode must also consume sensibly (no trailing junk
        // check here — manifests embed in larger messages).
        return decoded.is_ok();
      },
      3);
  Reader r(valid);
  EXPECT_EQ(dist::DocManifest::deserialize(r).expect("valid"), manifest);
}

TEST(DecodeFuzz, ChunkBegin) {
  net::ChunkBegin tree;
  tree.transfer_id = 0xabcdef01;
  tree.chunk_bytes = 256 * 1024;
  tree.manifest = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
  net::ChunkBegin swarm = tree;
  swarm.trees = 2;
  fuzz_decoder(
      tree.encode(),
      [](const Bytes& b) { return net::ChunkBegin::decode(b).is_ok(); }, 10);
  // The pipelined-tree begin is a prefix of the swarm begin, so dropping
  // exactly the stripe count leaves a well-formed tree begin: no shorter
  // buffer may decode as a swarm begin.
  fuzz_decoder(
      swarm.encode(),
      [](const Bytes& b) {
        auto r = net::ChunkBegin::decode(b);
        return r.is_ok() && r.value().trees != 0;
      },
      16);
  // Zero and oversized chunk sizes are rejected even when well-formed.
  for (std::uint32_t bad : {0u, net::kMaxWireChunkBytes + 1, 0xffffffffu}) {
    for (net::ChunkBegin evil : {tree, swarm}) {
      evil.chunk_bytes = bad;
      EXPECT_FALSE(net::ChunkBegin::decode(evil.encode()).is_ok()) << bad;
    }
  }
  // So are stripe counts outside [1, kMaxWireTrees]: 0 can only appear
  // spelled out, since encode() omits it.
  net::ChunkBegin evil = swarm;
  evil.trees = net::kMaxWireTrees + 1;
  EXPECT_FALSE(net::ChunkBegin::decode(evil.encode()).is_ok());
  Bytes zero_trees = tree.encode();
  zero_trees.insert(zero_trees.end(), 4, 0);
  EXPECT_FALSE(net::ChunkBegin::decode(zero_trees).is_ok());
  // Trailing bytes other than exactly one u32 are corrupt.
  for (std::size_t extra : {1u, 2u, 3u, 5u, 8u}) {
    Bytes trailing = tree.encode();
    trailing.insert(trailing.end(), extra, 1);
    auto r = net::ChunkBegin::decode(trailing);
    ASSERT_FALSE(r.is_ok()) << extra;
    EXPECT_EQ(r.code(), Errc::corrupt) << extra;
  }
  auto ok = net::ChunkBegin::decode(tree.encode()).expect("valid");
  EXPECT_EQ(ok.transfer_id, tree.transfer_id);
  EXPECT_EQ(ok.manifest, tree.manifest);
  EXPECT_EQ(ok.trees, 0u);
  auto ok_swarm = net::ChunkBegin::decode(swarm.encode()).expect("valid");
  EXPECT_EQ(ok_swarm.transfer_id, swarm.transfer_id);
  EXPECT_EQ(ok_swarm.manifest, swarm.manifest);
  EXPECT_EQ(ok_swarm.trees, swarm.trees);
}

TEST(ChunkBeginWire, TreeBeginEndsAtManifestSwarmAddsFourBytes) {
  net::ChunkBegin begin;
  begin.transfer_id = 0x0102030405060708;
  begin.chunk_bytes = 64 * 1024;
  begin.manifest = Bytes{9, 8, 7};
  Writer w;
  w.u64(begin.transfer_id);
  w.u32(begin.chunk_bytes);
  w.bytes(begin.manifest);
  EXPECT_EQ(begin.encode(), w.take());
  const std::size_t tree_size = begin.encode().size();
  begin.trees = 2;
  EXPECT_EQ(begin.encode().size(), tree_size + 4);
}

TEST(DecodeFuzz, ChunkData) {
  net::ChunkData d;
  d.req_id = 77;
  d.transfer_id = 99;
  d.digest = digest128("blob");
  d.index = 3;
  const Bytes chunk{9, 8, 7, 6, 5};
  d.chunk_len = static_cast<std::uint32_t>(chunk.size());
  d.has_payload = true;
  d.chunk_digest = digest128(chunk);
  d.payload = net::Payload::copy_of(chunk);
  // The chunk bytes ride out-of-band; fuzz the header against the real body
  // (a mutated header that survives parsing must still match the body).
  const net::Payload body = d.payload;
  fuzz_decoder(
      d.encode(),
      [&](const Bytes& b) { return net::ChunkData::decode(b, body).is_ok(); }, 11);
  // Synthetic (size-only) variant fuzzes too — with an empty body.
  net::ChunkData synth = d;
  synth.has_payload = false;
  synth.payload = net::Payload{};
  synth.chunk_len = 4096;
  fuzz_decoder(
      synth.encode(),
      [](const Bytes& b) { return net::ChunkData::decode(b, net::Payload{}).is_ok(); },
      12);
  // A declared length that disagrees with the body must not decode.
  net::ChunkData lying = d;
  lying.chunk_len = 4;  // body is 5 bytes
  EXPECT_FALSE(net::ChunkData::decode(lying.encode(), body).is_ok());
  // Body bytes with no header claim are as corrupt as a missing body.
  EXPECT_FALSE(net::ChunkData::decode(synth.encode(), body).is_ok());
  // Oversized declared lengths are rejected before any allocation.
  net::ChunkData huge = synth;
  huge.chunk_len = net::kMaxWireChunkBytes + 1;
  EXPECT_FALSE(net::ChunkData::decode(huge.encode(), net::Payload{}).is_ok());
}

TEST(DecodeFuzz, ChunkAck) {
  net::ChunkAck ack;
  ack.req_id = 55;
  ack.transfer_id = 66;
  ack.digest = digest128("blob");
  ack.index = 12;
  fuzz_decoder(
      ack.encode(), [](const Bytes& b) { return net::ChunkAck::decode(b).is_ok(); },
      13);
  auto ok = net::ChunkAck::decode(ack.encode()).expect("valid");
  EXPECT_EQ(ok.req_id, ack.req_id);
  EXPECT_EQ(ok.index, ack.index);
}

TEST(DecodeFuzz, ChunkReq) {
  net::ChunkReq req;
  req.req_id = 123;
  req.doc_key = "http://mmu.edu/CS101";
  req.digest = digest128("blob");
  req.size = 10 << 20;
  req.media_type = 2;
  req.chunk_bytes = 256 * 1024;
  req.indices = {0, 3, 17, 40};
  fuzz_decoder(
      req.encode(), [](const Bytes& b) { return net::ChunkReq::decode(b).is_ok(); },
      14);
  // A hostile index count larger than the remaining bytes must not drive a
  // reservation (Reader::count guards min element width).
  Writer w;
  w.u64(1);
  w.str("k");
  w.u64(0);
  w.u64(0);
  w.u64(100);
  w.u8(0);
  w.u32(1024);
  w.u32(0xffffffffu);  // claims 4 billion indices, provides none
  EXPECT_FALSE(net::ChunkReq::decode(w.take()).is_ok());
  auto ok = net::ChunkReq::decode(req.encode()).expect("valid");
  EXPECT_EQ(ok.indices, req.indices);
  EXPECT_EQ(ok.doc_key, req.doc_key);
}

TEST(DecodeFuzz, ChunkRsp) {
  net::ChunkRsp rsp;
  rsp.req_id = 9;
  rsp.served = 5;
  rsp.requested = 8;
  fuzz_decoder(
      rsp.encode(), [](const Bytes& b) { return net::ChunkRsp::decode(b).is_ok(); },
      15);
  auto ok = net::ChunkRsp::decode(rsp.encode()).expect("valid");
  EXPECT_EQ(ok.served, rsp.served);
  EXPECT_EQ(ok.requested, rsp.requested);
}

TEST(DecodeFuzz, SwarmHave) {
  net::SwarmHave have;
  have.transfer_id = 42;
  have.position = 9;
  have.backlog = 3;
  have.recovering = 0b10;
  have.total_chunks = 130;  // 3 words, top word mostly padding
  have.words = {0xffffffffffffffffull, 0x00000000000000ffull, 0x3ull};
  have.pending_words = {0ull, 0xff00ull, 0x1ull};
  fuzz_decoder(
      have.encode(), [](const Bytes& b) { return net::SwarmHave::decode(b).is_ok(); },
      17);
  // The word count is implied by total_chunks — a geometry claim the words
  // can't cover must fail, and a huge claim must not drive an allocation.
  for (std::uint32_t bad : {0u, net::kMaxWireChunks + 1, 0xffffffffu}) {
    net::SwarmHave evil = have;
    evil.total_chunks = bad;
    EXPECT_FALSE(net::SwarmHave::decode(evil.encode()).is_ok()) << bad;
  }
  {
    // Have-bitmap present but pending bitmap missing: truncation, not OK.
    net::SwarmHave cut = have;
    cut.pending_words.pop_back();
    EXPECT_FALSE(net::SwarmHave::decode(cut.encode()).is_ok());
  }
  auto ok = net::SwarmHave::decode(have.encode()).expect("valid");
  EXPECT_EQ(ok.position, have.position);
  EXPECT_EQ(ok.backlog, have.backlog);
  EXPECT_EQ(ok.recovering, have.recovering);
  EXPECT_EQ(ok.words, have.words);
  EXPECT_EQ(ok.pending_words, have.pending_words);
}

TEST(DecodeFuzz, SwarmReq) {
  net::SwarmReq req;
  req.transfer_id = 43;
  req.position = 21;
  req.backlog = 1;
  req.indices = {0, 7, 39};
  req.total_chunks = 40;
  req.have_words = {0x00ff00ff00ff00ffull};
  req.pending_words = {0x0000000000000081ull};
  fuzz_decoder(
      req.encode(), [](const Bytes& b) { return net::SwarmReq::decode(b).is_ok(); },
      18);
  // An index outside the declared geometry is corruption.
  net::SwarmReq oob = req;
  oob.indices.push_back(40);
  EXPECT_FALSE(net::SwarmReq::decode(oob.encode()).is_ok());
  // A hostile index count with no payload must not drive a reservation.
  Writer w;
  w.u64(1);
  w.u64(2);
  w.u32(0);
  w.u32(0xffffffffu);  // claims 4 billion indices, provides none
  EXPECT_FALSE(net::SwarmReq::decode(w.take()).is_ok());
  auto ok = net::SwarmReq::decode(req.encode()).expect("valid");
  EXPECT_EQ(ok.indices, req.indices);
  EXPECT_EQ(ok.have_words, req.have_words);
  EXPECT_EQ(ok.pending_words, req.pending_words);
}

TEST(DecodeFuzz, FetchReq) {
  dist::FetchReq req;
  req.req_id = 77;
  req.doc_key = "http://mmu.edu/CS101";
  req.path = {StationId{3}, StationId{1}, StationId{9}};
  fuzz_decoder(
      req.encode(), [](const Bytes& b) { return dist::FetchReq::decode(b).is_ok(); },
      20);
  // A path count larger than the remaining bytes must not drive a
  // reservation.
  Writer w;
  w.u64(1);
  w.str("k");
  w.u32(0xffffffffu);
  EXPECT_FALSE(dist::FetchReq::decode(w.take()).is_ok());
  // A request always carries its originator, whom a server answers.
  dist::FetchReq no_path = req;
  no_path.path.clear();
  EXPECT_FALSE(dist::FetchReq::decode(no_path.encode()).is_ok());
  auto ok = dist::FetchReq::decode(req.encode()).expect("valid");
  EXPECT_EQ(ok.req_id, req.req_id);
  EXPECT_EQ(ok.doc_key, req.doc_key);
  EXPECT_EQ(ok.path, req.path);
}

TEST(DecodeFuzz, FetchRsp) {
  dist::FetchRsp rsp;
  rsp.req_id = 78;
  rsp.manifest.doc_key = "http://mmu.edu/CS101";
  rsp.manifest.structure_bytes = 4096;
  rsp.manifest.home = StationId{1};
  dist::BlobRef ref;
  ref.digest = digest128("fetch rsp blob");
  ref.size = 1 << 20;
  rsp.manifest.blobs.push_back(ref);
  rsp.path = {StationId{5}, StationId{2}};
  fuzz_decoder(
      rsp.encode(), [](const Bytes& b) { return dist::FetchRsp::decode(b).is_ok(); },
      21);
  auto ok = dist::FetchRsp::decode(rsp.encode()).expect("valid");
  EXPECT_EQ(ok.req_id, rsp.req_id);
  EXPECT_EQ(ok.manifest, rsp.manifest);
  EXPECT_EQ(ok.path, rsp.path);
}

TEST(DecodeFuzz, FetchErr) {
  dist::FetchErr err;
  err.req_id = 79;
  err.doc_key = "http://mmu.edu/CS101";
  err.code = Errc::not_found;
  fuzz_decoder(
      err.encode(), [](const Bytes& b) { return dist::FetchErr::decode(b).is_ok(); },
      22);
  // A code that is not a failure (ok, or past the last Errc) would complete
  // a fetch with an error that reads as success: rejected as corrupt.
  for (std::uint32_t bad : {0u, 15u, 0xffffffffu}) {
    Writer w;
    w.u64(err.req_id);
    w.str(err.doc_key);
    w.u32(bad);
    auto r = dist::FetchErr::decode(w.take());
    ASSERT_FALSE(r.is_ok()) << bad;
    EXPECT_EQ(r.code(), Errc::corrupt) << bad;
  }
  for (Errc code : {Errc::not_found, Errc::out_of_space}) {
    err.code = code;
    auto ok = dist::FetchErr::decode(err.encode()).expect("valid");
    EXPECT_EQ(ok.req_id, err.req_id);
    EXPECT_EQ(ok.doc_key, err.doc_key);
    EXPECT_EQ(ok.code, code);
  }
}

TEST(DecodeFuzz, WalRecord) {
  storage::LogRecord rec;
  rec.kind = storage::LogKind::update;
  rec.txn = 9;
  rec.table = "wd_script";
  rec.row = RowId{42};
  rec.before = {storage::Value("old"), storage::Value(1)};
  rec.after = {storage::Value("new"), storage::Value(2)};
  Bytes valid = rec.encode();
  fuzz_decoder(
      valid,
      [](const Bytes& b) { return storage::LogRecord::decode(b).is_ok(); }, 4);
}

TEST(DecodeFuzz, ValueStream) {
  Writer w;
  storage::Value("text").serialize(w);
  storage::Value(std::int64_t{-5}).serialize(w);
  storage::Value(Bytes{1, 2, 3}).serialize(w);
  Bytes valid = w.take();
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    Bytes soup = random_bytes(rng, rng.uniform(64));
    Reader r(soup);
    while (true) {
      auto v = storage::Value::deserialize(r);
      if (!v.is_ok()) break;  // error path must terminate the stream cleanly
      if (r.at_end()) break;
    }
  }
  // Truncations of a valid stream fail cleanly on the cut value.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    Reader r(truncated);
    while (true) {
      auto v = storage::Value::deserialize(r);
      if (!v.is_ok() || r.at_end()) break;
    }
  }
}

// --- HTTP request parser ----------------------------------------------------
//
// The parser fronts a real network socket, so the bar is higher than the
// wire decoders above: arbitrary soup, mutations, truncations, arbitrary
// read-fragmentation, and pipelined back-to-back requests must never crash,
// over-read (ASan-checked), or accept a request exceeding configured limits.

namespace {

const std::string kValidHttp =
    "POST /check-out?course=CS101&student=42 HTTP/1.1\r\n"
    "Host: wdoc\r\nContent-Length: 4\r\n\r\nbody";

http::ParserLimits tight_limits() {
  http::ParserLimits limits;
  limits.max_request_line = 256;
  limits.max_header_bytes = 512;
  limits.max_headers = 16;
  limits.max_body = 128;
  return limits;
}

// Runs the parser to quiescence over `wire`, counting accepted requests.
std::size_t drain(http::RequestParser& p, std::string_view wire) {
  if (!p.feed(wire)) return 0;
  std::size_t ready = 0;
  for (;;) {
    http::Request req;
    http::ParseStatus st = p.next(req);
    if (st == http::ParseStatus::ready) {
      ++ready;
      continue;
    }
    return ready;
  }
}

}  // namespace

TEST(DecodeFuzz, HttpParserRandomSoup) {
  Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    http::RequestParser p(tight_limits());
    Bytes soup = random_bytes(rng, rng.uniform(600));
    std::size_t ready =
        drain(p, std::string_view(reinterpret_cast<const char*>(soup.data()),
                                  soup.size()));
    // Soup virtually never forms a valid request; if it somehow does, the
    // parser must still respect the body limit.
    EXPECT_LE(ready, 2u);
  }
}

TEST(DecodeFuzz, HttpParserSingleByteMutations) {
  Rng rng(22);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = kValidHttp;
    std::size_t pos = rng.uniform(mutated.size());
    mutated[pos] ^= static_cast<char>(1 + rng.uniform(255));
    http::RequestParser p(tight_limits());
    (void)drain(p, mutated);  // must simply not crash or over-read
  }
}

TEST(DecodeFuzz, HttpParserEveryTruncationIsIncomplete) {
  for (std::size_t len = 0; len < kValidHttp.size(); ++len) {
    http::RequestParser p(tight_limits());
    ASSERT_TRUE(p.feed(std::string_view(kValidHttp).substr(0, len)));
    http::Request req;
    EXPECT_NE(p.next(req), http::ParseStatus::ready) << "truncated to " << len;
  }
}

TEST(DecodeFuzz, HttpParserEverySplitParsesIdentically) {
  for (std::size_t split = 0; split <= kValidHttp.size(); ++split) {
    http::RequestParser p(tight_limits());
    ASSERT_TRUE(p.feed(std::string_view(kValidHttp).substr(0, split)));
    http::Request req;
    http::ParseStatus first = p.next(req);
    EXPECT_NE(first, http::ParseStatus::error) << "split at " << split;
    ASSERT_TRUE(p.feed(std::string_view(kValidHttp).substr(split)));
    if (first != http::ParseStatus::ready) {
      ASSERT_EQ(p.next(req), http::ParseStatus::ready) << "split at " << split;
    }
    EXPECT_EQ(req.path, "/check-out");
    EXPECT_EQ(req.body, "body");
    EXPECT_EQ(req.param("student").value_or(""), "42");
    EXPECT_EQ(p.next(req), http::ParseStatus::need_more);
  }
}

TEST(DecodeFuzz, HttpParserPipelinedCopies) {
  std::string wire;
  for (int i = 0; i < 5; ++i) wire += kValidHttp;
  http::RequestParser p(tight_limits());
  EXPECT_EQ(drain(p, wire), 5u);
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(DecodeFuzz, HttpParserNeverAcceptsOverLimitRequests) {
  http::ParserLimits limits = tight_limits();
  // Declared body over the cap: rejected before any body bytes arrive.
  {
    http::RequestParser p(limits);
    ASSERT_TRUE(p.feed("POST / HTTP/1.1\r\nContent-Length: 129\r\n\r\n"));
    http::Request req;
    EXPECT_EQ(p.next(req), http::ParseStatus::error);
    EXPECT_EQ(p.error_status(), 413);
  }
  // Unterminated request line past the cap.
  {
    http::RequestParser p(limits);
    ASSERT_TRUE(p.feed("GET /" + std::string(limits.max_request_line + 1, 'a')));
    http::Request req;
    EXPECT_EQ(p.next(req), http::ParseStatus::error);
    EXPECT_EQ(p.error_status(), 414);
  }
  // Header flood past the cap.
  {
    http::RequestParser p(limits);
    std::string wire = "GET / HTTP/1.1\r\n";
    wire += "X: " + std::string(limits.max_header_bytes + 1, 'b') + "\r\n";
    ASSERT_TRUE(p.feed(wire));
    http::Request req;
    EXPECT_EQ(p.next(req), http::ParseStatus::error);
    EXPECT_EQ(p.error_status(), 431);
  }
  // feed() itself refuses once the buffer cap is reached: memory stays
  // bounded no matter how much a peer streams.
  {
    http::RequestParser p(limits);
    std::string chunk(1024, 'c');
    std::size_t accepted = 0;
    while (p.feed(chunk)) {
      accepted += chunk.size();
      ASSERT_LE(accepted, limits.max_buffer() + chunk.size());
    }
    EXPECT_LE(p.buffered_bytes(), limits.max_buffer());
  }
}

}  // namespace
}  // namespace wdoc
