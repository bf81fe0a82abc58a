// Wire format of the document pull path (StationNode::fetch).
//
//   FetchReq  a pull walking up the parent chain: the document key and the
//             stations walked so far (originator first, so never empty).
//   FetchRsp  the manifest relaying back down that path store-and-forward;
//             `path` is what remains, and the next hop is path.back().
//   FetchErr  a terminal error from the station that gave up (the root
//             without the document), sent straight to the originator.
//
// Every decoder fails with Errc::corrupt (or the Reader's underflow) on
// truncation or implausible counts — hostile input must never drive an
// allocation or out-of-bounds read (fuzzed in tests/test_decode_fuzz.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/serialize.hpp"
#include "dist/doc_object.hpp"

namespace wdoc::dist {

struct FetchReq {
  std::uint64_t req_id = 0;
  std::string doc_key;
  std::vector<StationId> path;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<FetchReq> decode(std::span<const std::uint8_t> b);
};

struct FetchRsp {
  std::uint64_t req_id = 0;
  DocManifest manifest;
  std::vector<StationId> path;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<FetchRsp> decode(std::span<const std::uint8_t> b);
};

// `code` is a failure: decode rejects Errc::ok and values past the last
// Errc, so a reply can never complete a fetch as an error that reads ok.
struct FetchErr {
  std::uint64_t req_id = 0;
  std::string doc_key;
  Errc code = Errc::not_found;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Result<FetchErr> decode(std::span<const std::uint8_t> b);
};

}  // namespace wdoc::dist
