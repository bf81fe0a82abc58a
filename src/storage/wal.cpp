#include "storage/wal.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_set>

#include "common/hash.hpp"
#include "obs/metrics.hpp"

namespace wdoc::storage {

namespace {

void encode_row(Writer& w, const std::vector<Value>& row) {
  w.u32(static_cast<std::uint32_t>(row.size()));
  for (const Value& v : row) v.serialize(w);
}

Result<std::vector<Value>> decode_row(Reader& r) {
  auto n = r.count();
  if (!n) return n.error();
  std::vector<Value> row;
  row.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto v = Value::deserialize(r);
    if (!v) return v.error();
    row.push_back(std::move(v).value());
  }
  return row;
}

}  // namespace

Bytes LogRecord::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(txn);
  w.str(table);
  w.u64(row.value());
  encode_row(w, before);
  encode_row(w, after);
  w.boolean(schema.has_value());
  if (schema) schema->serialize(w);
  return w.take();
}

Result<LogRecord> LogRecord::decode(const Bytes& frame) {
  Reader r(frame);
  LogRecord rec;
  auto kind = r.u8();
  if (!kind) return kind.error();
  rec.kind = static_cast<LogKind>(kind.value());
  auto txn = r.u64();
  if (!txn) return txn.error();
  rec.txn = txn.value();
  auto table = r.str();
  if (!table) return table.error();
  rec.table = std::move(table).value();
  auto row = r.u64();
  if (!row) return row.error();
  rec.row = RowId{row.value()};
  auto before = decode_row(r);
  if (!before) return before.error();
  rec.before = std::move(before).value();
  auto after = decode_row(r);
  if (!after) return after.error();
  rec.after = std::move(after).value();
  auto has_schema = r.boolean();
  if (!has_schema) return has_schema.error();
  if (has_schema.value()) {
    auto s = Schema::deserialize(r);
    if (!s) return s.error();
    rec.schema = std::move(s).value();
  }
  return rec;
}

Wal::~Wal() { close(); }

Status Wal::open(const std::string& path, bool truncate) {
  close();
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) return {Errc::io_error, "cannot open WAL: " + path};
  path_ = path;
  bytes_appended_ = 0;
  return Status::ok();
}

void Wal::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status Wal::append(const LogRecord& record) {
  if (file_ == nullptr) return {Errc::io_error, "WAL not open"};
  Bytes payload = record.encode();
  Writer frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u64(fnv1a64(std::span<const std::uint8_t>(payload)));
  frame.raw(payload);
  const Bytes& buf = frame.data();
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    return {Errc::io_error, "WAL write failed"};
  }
  bytes_appended_ += buf.size();
  static obs::Counter& c_appends =
      obs::MetricsRegistry::global().counter("storage.wal_appends");
  static obs::Counter& c_bytes =
      obs::MetricsRegistry::global().counter("storage.wal_bytes");
  c_appends.inc();
  c_bytes.inc(buf.size());
  return Status::ok();
}

Status Wal::sync() {
  if (file_ == nullptr) return {Errc::io_error, "WAL not open"};
  if (std::fflush(file_) != 0) return {Errc::io_error, "WAL flush failed"};
  static obs::Counter& c_fsyncs =
      obs::MetricsRegistry::global().counter("storage.wal_fsyncs");
  c_fsyncs.inc();
  return Status::ok();
}

namespace {

constexpr std::size_t kFrameHeader = 12;         // u32 length + u64 checksum
constexpr std::uint32_t kMaxFrame = 64u << 20;  // a longer frame is a torn tail

// The one frame loop. Calls `fn` on each intact record of the log at
// `path`, in log order, reading no further than byte `limit`. The scan ends
// at the first bad frame (a short header, a length over 64 MiB, a short
// payload, a checksum mismatch, a record that does not decode): that is a
// torn or corrupt tail, not an error. Returns the offset just past the last
// intact frame, or the first error `fn` returns. A missing log is empty.
Result<std::uint64_t> for_each_frame(const std::string& path, std::uint64_t limit,
                                     const std::function<Status(LogRecord&)>& fn) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"),
                                                    &std::fclose);
  if (f == nullptr) return std::uint64_t{0};
  const long size = std::fseek(f.get(), 0, SEEK_END) == 0 ? std::ftell(f.get()) : -1;
  if (size < 0) return Error{Errc::io_error, "cannot size WAL: " + path};
  limit = std::min(limit, static_cast<std::uint64_t>(size));
  std::rewind(f.get());
  std::uint64_t end = 0;
  Bytes payload;
  for (;;) {
    std::uint8_t header[kFrameHeader];
    if (limit - end < sizeof header ||
        std::fread(header, 1, sizeof header, f.get()) != sizeof header) {
      break;
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    std::uint64_t checksum = 0;
    for (int i = 0; i < 8; ++i)
      checksum |= static_cast<std::uint64_t>(header[4 + i]) << (8 * i);
    // Checking the length against the bytes left first means a corrupt
    // length never allocates a buffer the file cannot fill.
    if (len > kMaxFrame || len > limit - end - sizeof header) break;
    payload.resize(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f.get()) != len) break;
    if (fnv1a64(std::span<const std::uint8_t>(payload)) != checksum) break;
    auto rec = LogRecord::decode(payload);
    if (!rec) break;
    WDOC_TRY(fn(rec.value()));
    end += sizeof header + len;
  }
  return end;
}

// The one apply switch: redoes a committed record against `catalog`.
Status apply(const LogRecord& rec, Catalog& catalog) {
  Table* t = nullptr;
  if (rec.kind == LogKind::insert || rec.kind == LogKind::update ||
      rec.kind == LogKind::erase) {
    t = catalog.table(rec.table);
    if (t == nullptr) return {Errc::corrupt, "replay into missing table " + rec.table};
  }
  switch (rec.kind) {
    case LogKind::begin:
    case LogKind::commit:
    case LogKind::abort:
      break;
    case LogKind::create_table:
      if (!rec.schema) return {Errc::corrupt, "create_table without schema"};
      return catalog.create_table(*rec.schema);
    case LogKind::drop_table:
      return catalog.drop_table(rec.table);
    case LogKind::insert:
      return t->restore(rec.row, rec.after);
    case LogKind::update:
      return t->update(rec.row, rec.after);
    case LogKind::erase:
      return t->erase(rec.row);
  }
  return Status::ok();
}

}  // namespace

Result<std::vector<LogRecord>> Wal::read_all(const std::string& path) {
  std::vector<LogRecord> out;
  auto scanned = for_each_frame(path, UINT64_MAX, [&](LogRecord& rec) {
    out.push_back(std::move(rec));
    return Status::ok();
  });
  if (!scanned) return scanned.error();
  return out;
}

Status Wal::recover(const std::string& path, Catalog& catalog) {
  std::unordered_set<std::uint64_t> committed{0};  // autocommit pseudo-txn
  auto end = for_each_frame(path, UINT64_MAX, [&](LogRecord& rec) {
    if (rec.kind == LogKind::commit) committed.insert(rec.txn);
    return Status::ok();
  });
  if (!end) return end.status();
  auto applied = for_each_frame(path, end.value(), [&](LogRecord& rec) {
    return committed.contains(rec.txn) ? apply(rec, catalog) : Status::ok();
  });
  return applied.status();
}

Status save_snapshot(const Catalog& catalog, const std::string& path) {
  Writer w;
  w.str("WDOCSNAP1");
  // Parents-first order so load_snapshot can re-create tables with their FK
  // targets already present. Cross-table FK cycles are not supported.
  auto names = catalog.table_names();
  std::vector<std::string> ordered;
  std::set<std::string> placed;
  while (ordered.size() < names.size()) {
    bool progressed = false;
    for (const std::string& name : names) {
      if (placed.contains(name)) continue;
      const Table* t = catalog.table(name);
      bool ready = true;
      for (const ForeignKey& fk : t->schema().foreign_keys()) {
        if (fk.parent_table != name && !placed.contains(fk.parent_table)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        ordered.push_back(name);
        placed.insert(name);
        progressed = true;
      }
    }
    if (!progressed) {
      return {Errc::unsupported, "snapshot: cyclic cross-table foreign keys"};
    }
  }
  names = std::move(ordered);
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Table* t = catalog.table(name);
    t->schema().serialize(w);
    w.u64(t->row_count());
    t->scan([&](RowId id, const std::vector<Value>& row) {
      w.u64(id.value());
      encode_row(w, row);
      return true;
    });
  }
  Bytes body = w.take();
  Writer framed;
  framed.u64(fnv1a64(std::span<const std::uint8_t>(body)));
  framed.raw(body);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {Errc::io_error, "cannot write snapshot: " + path};
  const Bytes& buf = framed.data();
  bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return {Errc::io_error, "snapshot write failed"};
  return Status::ok();
}

Status load_snapshot(const std::string& path, Catalog& catalog) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {Errc::not_found, "no snapshot: " + path};
  Bytes buf;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    buf.insert(buf.end(), chunk, chunk + n);
  }
  std::fclose(f);

  Reader framed(buf);
  auto checksum = framed.u64();
  if (!checksum) return checksum.status();
  std::span<const std::uint8_t> body(buf.data() + framed.position(),
                                     buf.size() - framed.position());
  if (fnv1a64(body) != checksum.value()) {
    return {Errc::corrupt, "snapshot checksum mismatch"};
  }
  Reader r(body);
  auto magic = r.str();
  if (!magic) return magic.status();
  if (magic.value() != "WDOCSNAP1") return {Errc::corrupt, "bad snapshot magic"};
  auto ntables = r.u32();
  if (!ntables) return ntables.status();
  for (std::uint32_t ti = 0; ti < ntables.value(); ++ti) {
    auto schema = Schema::deserialize(r);
    if (!schema) return schema.status();
    WDOC_TRY(catalog.create_table(schema.value()));
    Table* t = catalog.table(schema.value().table_name());
    auto nrows = r.u64();
    if (!nrows) return nrows.status();
    for (std::uint64_t i = 0; i < nrows.value(); ++i) {
      auto rid = r.u64();
      if (!rid) return rid.status();
      auto row = decode_row(r);
      if (!row) return row.status();
      WDOC_TRY(t->restore(RowId{rid.value()}, std::move(row).value()));
    }
  }
  return Status::ok();
}

}  // namespace wdoc::storage
