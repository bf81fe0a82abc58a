#include "dist/fetch_wire.hpp"

namespace wdoc::dist {

namespace {

void write_path(Writer& w, const std::vector<StationId>& path) {
  w.u32(static_cast<std::uint32_t>(path.size()));
  for (StationId s : path) w.u64(s.value());
}

[[nodiscard]] Status read_path(Reader& r, std::vector<StationId>& path) {
  auto n = r.count(8);
  if (!n) return n.status();
  path.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto s = r.u64();
    if (!s) return s.status();
    path.push_back(StationId{s.value()});
  }
  return Status::ok();
}

}  // namespace

Bytes FetchReq::encode() const {
  Writer w;
  w.u64(req_id);
  w.str(doc_key);
  write_path(w, path);
  return w.take();
}

Result<FetchReq> FetchReq::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  FetchReq out;
  auto id = r.u64();
  if (!id) return id.error();
  out.req_id = id.value();
  auto key = r.str();
  if (!key) return key.error();
  out.doc_key = std::move(key).value();
  WDOC_TRY(read_path(r, out.path));
  // The originator heads every path: a server answers back down it.
  if (out.path.empty()) return Error{Errc::corrupt, "fetch req: empty path"};
  return out;
}

Bytes FetchRsp::encode() const {
  Writer w;
  w.u64(req_id);
  manifest.serialize(w);
  write_path(w, path);
  return w.take();
}

Result<FetchRsp> FetchRsp::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  FetchRsp out;
  auto id = r.u64();
  if (!id) return id.error();
  out.req_id = id.value();
  auto m = DocManifest::deserialize(r);
  if (!m) return m.error();
  out.manifest = std::move(m).value();
  WDOC_TRY(read_path(r, out.path));
  return out;
}

Bytes FetchErr::encode() const {
  Writer w;
  w.u64(req_id);
  w.str(doc_key);
  w.u32(static_cast<std::uint32_t>(code));
  return w.take();
}

Result<FetchErr> FetchErr::decode(std::span<const std::uint8_t> b) {
  Reader r(b);
  FetchErr out;
  auto id = r.u64();
  auto key = r.str();
  auto code = r.u32();
  if (!id || !key || !code) return Error{Errc::corrupt, "bad fetch err"};
  if (code.value() == static_cast<std::uint32_t>(Errc::ok) ||
      code.value() > static_cast<std::uint32_t>(Errc::out_of_space)) {
    return Error{Errc::corrupt, "fetch err: code is not a failure"};
  }
  out.req_id = id.value();
  out.doc_key = std::move(key).value();
  out.code = static_cast<Errc>(code.value());
  return out;
}

}  // namespace wdoc::dist
