#include "storage/database.hpp"

#include <filesystem>
#include <system_error>

namespace wdoc::storage {

namespace {

std::string snapshot_path(const std::string& dir) { return dir + "/snapshot.db"; }
std::string wal_path(const std::string& dir) { return dir + "/wal.log"; }

}  // namespace

std::unique_ptr<Database> Database::in_memory() {
  auto db = std::unique_ptr<Database>(new Database());
  db->catalog_.set_default_sink(db.get());
  return db;
}

Result<std::unique_ptr<Database>> Database::open(const std::string& dir) {
  auto db = std::unique_ptr<Database>(new Database());
  db->dir_ = dir;
  db->durable_ = true;

  Status snap = load_snapshot(snapshot_path(dir), db->catalog_);
  if (!snap.is_ok() && snap.code() != Errc::not_found) return Error(snap.error());

  auto intact = Wal::recover(wal_path(dir), db->catalog_);
  if (!intact) return intact.error();
  // Cut a torn or corrupt tail before appending: frames written past it
  // would be unreachable to the next recovery.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(wal_path(dir), ec);
  if (!ec && size > intact.value()) {
    std::filesystem::resize_file(wal_path(dir), intact.value(), ec);
    if (ec) return Error{Errc::io_error, "cannot truncate WAL: " + ec.message()};
  }

  WDOC_TRY(db->wal_.open(wal_path(dir)));
  db->catalog_.set_default_sink(db.get());
  return db;
}

Database::~Database() {
  if (durable_) (void)wal_.sync();
}

void Database::on_mutation(const Mutation& m) {
  if (!durable_) return;
  LogRecord rec;
  switch (m.kind) {
    case MutationKind::insert: rec.kind = LogKind::insert; break;
    case MutationKind::update: rec.kind = LogKind::update; break;
    case MutationKind::erase: rec.kind = LogKind::erase; break;
  }
  rec.txn = 0;
  rec.table = m.table;
  rec.row = m.row;
  rec.before = m.before;
  rec.after = m.after;
  // WAL write failure inside an observer cannot abort the already-applied
  // mutation; surface it loudly instead.
  Status s = wal_.append(rec);
  if (!s.is_ok()) WDOC_CHECK(false, "WAL append failed: " + s.message());
}

Status Database::create_table(Schema schema) {
  Schema copy = schema;
  WDOC_TRY(catalog_.create_table(std::move(schema)));
  if (durable_) {
    LogRecord rec;
    rec.kind = LogKind::create_table;
    rec.table = copy.table_name();
    rec.schema = std::move(copy);
    WDOC_TRY(wal_.append(rec));
  }
  return Status::ok();
}

Status Database::drop_table(const std::string& name) {
  WDOC_TRY(catalog_.drop_table(name));
  if (durable_) {
    LogRecord rec;
    rec.kind = LogKind::drop_table;
    rec.table = name;
    WDOC_TRY(wal_.append(rec));
  }
  return Status::ok();
}

Result<RowId> Database::insert(const std::string& table, std::vector<Value> row) {
  auto r = catalog_.insert(table, std::move(row));
  if (r) WDOC_TRY(maybe_checkpoint());
  return r;
}

Status Database::update(const std::string& table, RowId id, std::vector<Value> row) {
  WDOC_TRY(catalog_.update(table, id, std::move(row)));
  return maybe_checkpoint();
}

Status Database::update_column(const std::string& table, RowId id,
                               std::string_view column, Value v) {
  WDOC_TRY(catalog_.update_column(table, id, column, std::move(v)));
  return maybe_checkpoint();
}

Status Database::erase(const std::string& table, RowId id) {
  WDOC_TRY(catalog_.erase(table, id));
  return maybe_checkpoint();
}

Status Database::maybe_checkpoint() {
  if (!durable_ || auto_checkpoint_bytes_ == 0) return Status::ok();
  if (wal_.bytes_appended() < auto_checkpoint_bytes_) return Status::ok();
  return checkpoint();
}

Query Database::query(const std::string& table) const {
  const Table* t = catalog_.table(table);
  WDOC_CHECK(t != nullptr, "query() on missing table: " + table);
  return Query(*t);
}

Status Database::checkpoint() {
  if (!durable_) return Status::ok();
  WDOC_TRY(wal_.sync());
  WDOC_TRY(save_snapshot(catalog_, snapshot_path(dir_)));
  WDOC_TRY(wal_.open(wal_path(dir_), /*truncate=*/true));
  return Status::ok();
}

Status Database::flush() {
  if (!durable_) return Status::ok();
  return wal_.sync();
}

Status Database::log(const LogRecord& rec) {
  if (!durable_) return Status::ok();
  return wal_.append(rec);
}

}  // namespace wdoc::storage
