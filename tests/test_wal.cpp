// WAL + snapshot tests: record round-trips, recovery semantics (committed
// vs uncommitted transactions, nothing applied past the first bad frame),
// torn-tail tolerance, snapshot round-trips and durable Database reopen.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "storage/database.hpp"

namespace wdoc::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("wdoc-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

Schema simple_schema() {
  return Schema("t",
                {Column{"k", ValueType::text, false, false, false},
                 Column{"v", ValueType::integer, true, false, false}},
                "k");
}

TEST(LogRecord, EncodeDecodeRoundTrip) {
  LogRecord rec;
  rec.kind = LogKind::update;
  rec.txn = 42;
  rec.table = "scripts";
  rec.row = RowId{7};
  rec.before = {Value("old"), Value(1)};
  rec.after = {Value("new"), Value(2)};
  auto decoded = LogRecord::decode(rec.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().kind, LogKind::update);
  EXPECT_EQ(decoded.value().txn, 42u);
  EXPECT_EQ(decoded.value().table, "scripts");
  EXPECT_EQ(decoded.value().row, RowId{7});
  EXPECT_EQ(decoded.value().before[0].as_text(), "old");
  EXPECT_EQ(decoded.value().after[1].as_int(), 2);
}

TEST(LogRecord, SchemaPayloadRoundTrip) {
  LogRecord rec;
  rec.kind = LogKind::create_table;
  rec.table = "t";
  rec.schema = simple_schema();
  auto decoded = LogRecord::decode(rec.encode());
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_TRUE(decoded.value().schema.has_value());
  EXPECT_EQ(decoded.value().schema->table_name(), "t");
  EXPECT_EQ(decoded.value().schema->primary_key(), "k");
}

TEST(Wal, AppendAndReadAll) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    for (int i = 0; i < 10; ++i) {
      LogRecord rec;
      rec.kind = LogKind::insert;
      rec.table = "t";
      rec.row = RowId{static_cast<std::uint64_t>(i + 1)};
      rec.after = {Value("k" + std::to_string(i)), Value(i)};
      ASSERT_TRUE(wal.append(rec).is_ok());
    }
    ASSERT_TRUE(wal.sync().is_ok());
  }
  auto records = Wal::read_all(path);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 10u);
  EXPECT_EQ(records.value()[3].after[0].as_text(), "k3");
}

TEST(Wal, MissingFileIsEmptyLog) {
  auto records = Wal::read_all("/nonexistent/wal.log");
  ASSERT_TRUE(records.is_ok());
  EXPECT_TRUE(records.value().empty());
}

TEST(Wal, TornTailIsIgnored) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    LogRecord rec;
    rec.kind = LogKind::insert;
    rec.table = "t";
    rec.row = RowId{1};
    rec.after = {Value("x"), Value(1)};
    ASSERT_TRUE(wal.append(rec).is_ok());
    ASSERT_TRUE(wal.sync().is_ok());
  }
  // Simulate a torn write: append garbage half-frame.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  const char garbage[] = {0x20, 0x00, 0x00, 0x00, 0x11, 0x22};
  std::fwrite(garbage, 1, sizeof garbage, f);
  std::fclose(f);

  auto records = Wal::read_all(path);
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 1u);
}

TEST(Wal, CorruptChecksumStopsScan) {
  TempDir dir;
  std::string path = dir.str() + "/wal.log";
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    for (int i = 0; i < 3; ++i) {
      LogRecord rec;
      rec.kind = LogKind::begin;
      rec.txn = static_cast<std::uint64_t>(i + 1);
      ASSERT_TRUE(wal.append(rec).is_ok());
    }
    ASSERT_TRUE(wal.sync().is_ok());
  }
  // Flip a byte in the middle of the file.
  auto size = fs::file_size(path);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, static_cast<long>(size / 2), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  auto records = Wal::read_all(path);
  ASSERT_TRUE(records.is_ok());
  EXPECT_LT(records.value().size(), 3u);
}

// Writes `log` as a WAL at `path`.
void write_log(const std::string& path, const std::vector<LogRecord>& log) {
  Wal wal;
  ASSERT_TRUE(wal.open(path, /*truncate=*/true).is_ok());
  for (const LogRecord& rec : log) ASSERT_TRUE(wal.append(rec).is_ok());
  ASSERT_TRUE(wal.sync().is_ok());
}

LogRecord create_record() {
  LogRecord rec;
  rec.kind = LogKind::create_table;
  rec.table = "t";
  rec.schema = simple_schema();
  return rec;
}

LogRecord dml_record(LogKind kind, std::uint64_t txn, std::uint64_t row,
                     std::vector<Value> after) {
  LogRecord rec;
  rec.kind = kind;
  rec.txn = txn;
  rec.table = "t";
  rec.row = RowId{row};
  rec.after = std::move(after);
  return rec;
}

LogRecord marker(LogKind kind, std::uint64_t txn) {
  LogRecord rec;
  rec.kind = kind;
  rec.txn = txn;
  return rec;
}

TEST(Wal, ReplayAppliesOnlyCommittedTxns) {
  TempDir dir;
  const std::string path = dir.str() + "/wal.log";
  write_log(path, {
                      create_record(),
                      // Autocommit insert (txn 0) always applies.
                      dml_record(LogKind::insert, 0, 1, {Value("auto"), Value(1)}),
                      // Txn 5 commits.
                      dml_record(LogKind::insert, 5, 2, {Value("committed"), Value(2)}),
                      marker(LogKind::commit, 5),
                      // Txn 6 never commits.
                      dml_record(LogKind::insert, 6, 3, {Value("lost"), Value(3)}),
                  });
  Catalog replayed;
  ASSERT_TRUE(Wal::recover(path, replayed).is_ok());
  const Table* t = replayed.table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 2u);
  EXPECT_TRUE(t->find_unique("k", Value("auto")).has_value());
  EXPECT_TRUE(t->find_unique("k", Value("committed")).has_value());
  EXPECT_FALSE(t->find_unique("k", Value("lost")).has_value());
}

TEST(Wal, RecoverOfMissingLogIsEmpty) {
  Catalog catalog;
  EXPECT_TRUE(Wal::recover("/nonexistent/wal.log", catalog).is_ok());
  EXPECT_TRUE(catalog.table_names().empty());
}

// Recovery stops at the first corrupt frame: a txn whose commit frame is
// intact but lies after it is not applied, and neither is anything else
// past it.
TEST(Wal, CommitAfterCorruptFrameIsNotApplied) {
  TempDir dir;
  const std::string path = dir.str() + "/wal.log";
  std::uint64_t victim_begin = 0;
  std::uint64_t victim_end = 0;
  {
    Wal wal;
    ASSERT_TRUE(wal.open(path).is_ok());
    for (const LogRecord& rec :
         {create_record(), dml_record(LogKind::insert, 5, 1, {Value("early"), Value(1)}),
          marker(LogKind::commit, 5), dml_record(LogKind::insert, 6, 2, {Value("late"), Value(2)})}) {
      ASSERT_TRUE(wal.append(rec).is_ok());
    }
    victim_begin = wal.bytes_appended();
    ASSERT_TRUE(
        wal.append(dml_record(LogKind::insert, 0, 3, {Value("corrupt"), Value(3)})).is_ok());
    victim_end = wal.bytes_appended();
    ASSERT_TRUE(wal.append(marker(LogKind::commit, 6)).is_ok());
    ASSERT_TRUE(
        wal.append(dml_record(LogKind::insert, 0, 4, {Value("after"), Value(4)})).is_ok());
    ASSERT_TRUE(wal.sync().is_ok());
  }
  // Flip one payload byte of the autocommit insert between the two txns'
  // commits.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>((victim_begin + 12 + victim_end) / 2), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  auto records = Wal::read_all(path);
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 4u);  // the scan ends at the flipped frame

  auto db = Database::open(dir.str());
  ASSERT_TRUE(db.is_ok());
  const Table* t = db.value()->catalog().table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 1u);
  EXPECT_TRUE(t->find_unique("k", Value("early")).has_value());
  EXPECT_FALSE(t->find_unique("k", Value("late")).has_value());
  EXPECT_FALSE(t->find_unique("k", Value("corrupt")).has_value());
  EXPECT_FALSE(t->find_unique("k", Value("after")).has_value());
}

TEST(Snapshot, RoundTripPreservesRowsAndIds) {
  TempDir dir;
  std::string path = dir.str() + "/snap.db";
  Catalog original;
  ASSERT_TRUE(original.create_table(simple_schema()).is_ok());
  std::vector<RowId> ids;
  for (int i = 0; i < 25; ++i) {
    ids.push_back(
        original.insert("t", {Value("k" + std::to_string(i)), Value(i)}).value());
  }
  // Punch holes so row ids are non-contiguous.
  ASSERT_TRUE(original.erase("t", ids[5]).is_ok());
  ASSERT_TRUE(original.erase("t", ids[6]).is_ok());
  ASSERT_TRUE(save_snapshot(original, path).is_ok());

  Catalog loaded;
  ASSERT_TRUE(load_snapshot(path, loaded).is_ok());
  const Table* t = loaded.table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 23u);
  EXPECT_EQ(t->get(ids[5]), nullptr);
  EXPECT_EQ(t->get(ids[7])->at(0).as_text(), "k7");
  // Fresh inserts don't reuse snapshot row ids.
  RowId fresh = loaded.insert("t", {Value("new"), Value(99)}).value();
  EXPECT_GT(fresh, ids.back());
}

TEST(Snapshot, OrdersParentTablesFirst) {
  TempDir dir;
  std::string path = dir.str() + "/snap.db";
  Catalog original;
  // "a_child" sorts before "z_parent" alphabetically; the snapshot must
  // still create z_parent first.
  Schema parent("z_parent", {Column{"name", ValueType::text, false, false, false}},
                "name");
  Schema child("a_child",
               {Column{"id", ValueType::integer, false, true, false},
                Column{"p", ValueType::text, true, false, false}},
               "", {ForeignKey{"p", "z_parent", "name", RefAction::restrict}});
  ASSERT_TRUE(original.create_table(parent).is_ok());
  ASSERT_TRUE(original.create_table(child).is_ok());
  ASSERT_TRUE(original.insert("z_parent", {Value("p1")}).is_ok());
  ASSERT_TRUE(original.insert("a_child", {Value(1), Value("p1")}).is_ok());
  ASSERT_TRUE(save_snapshot(original, path).is_ok());
  Catalog loaded;
  ASSERT_TRUE(load_snapshot(path, loaded).is_ok());
  EXPECT_EQ(loaded.table("a_child")->row_count(), 1u);
}

TEST(Snapshot, DetectsCorruption) {
  TempDir dir;
  std::string path = dir.str() + "/snap.db";
  Catalog original;
  ASSERT_TRUE(original.create_table(simple_schema()).is_ok());
  ASSERT_TRUE(original.insert("t", {Value("x"), Value(1)}).is_ok());
  ASSERT_TRUE(save_snapshot(original, path).is_ok());
  // Corrupt one byte past the checksum header.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  std::fseek(f, 20, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
  Catalog loaded;
  EXPECT_EQ(load_snapshot(path, loaded).code(), Errc::corrupt);
}

TEST(Database, DurableReopenReplaysWal) {
  TempDir dir;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    ASSERT_TRUE(db.value()->insert("t", {Value("persisted"), Value(1)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  const Table* t = reopened.value()->catalog().table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->find_unique("k", Value("persisted")).has_value());
}

// A reopen after a torn tail cuts the log back to its last intact frame,
// so commits made after it are reachable by the next recovery.
TEST(Database, CommitsAfterTornTailRecoverySurviveReopen) {
  TempDir dir;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    ASSERT_TRUE(db.value()->insert("t", {Value("before"), Value(1)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  std::FILE* f = std::fopen((dir.str() + "/wal.log").c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char torn[] = {0x20, 0x00};
  std::fwrite(torn, 1, sizeof torn, f);
  std::fclose(f);
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->insert("t", {Value("after"), Value(2)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  const Table* t = reopened.value()->catalog().table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->row_count(), 2u);
  EXPECT_TRUE(t->find_unique("k", Value("after")).has_value());
}

TEST(Database, CheckpointCollapsesWalIntoSnapshot) {
  TempDir dir;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db.value()->insert("t", {Value("k" + std::to_string(i)), Value(i)}).is_ok());
    }
    ASSERT_TRUE(db.value()->checkpoint().is_ok());
    // Post-checkpoint mutation lands in the fresh WAL.
    ASSERT_TRUE(db.value()->insert("t", {Value("tail"), Value(99)}).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  // WAL now only holds the tail record.
  auto records = Wal::read_all(dir.str() + "/wal.log");
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 1u);

  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->catalog().table("t")->row_count(), 11u);
}

TEST(Database, EraseAndUpdateSurviveReopen) {
  TempDir dir;
  RowId victim;
  {
    auto db = Database::open(dir.str());
    ASSERT_TRUE(db.is_ok());
    ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
    victim = db.value()->insert("t", {Value("victim"), Value(1)}).value();
    RowId keeper = db.value()->insert("t", {Value("keeper"), Value(2)}).value();
    ASSERT_TRUE(db.value()->erase("t", victim).is_ok());
    ASSERT_TRUE(db.value()->update_column("t", keeper, "v", Value(42)).is_ok());
    ASSERT_TRUE(db.value()->flush().is_ok());
  }
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  const Table* t = reopened.value()->catalog().table("t");
  EXPECT_EQ(t->row_count(), 1u);
  auto keeper = t->find_unique("k", Value("keeper"));
  ASSERT_TRUE(keeper.has_value());
  EXPECT_EQ(t->get(*keeper)->at(1).as_int(), 42);
}

TEST(Database, AutoCheckpointCollapsesWal) {
  TempDir dir;
  auto db = Database::open(dir.str());
  ASSERT_TRUE(db.is_ok());
  ASSERT_TRUE(db.value()->create_table(simple_schema()).is_ok());
  db.value()->set_auto_checkpoint(2048);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db.value()->insert("t", {Value("k" + std::to_string(i)), Value(i)}).is_ok());
  }
  // The WAL must have been collapsed at least once: far fewer records than
  // inserts remain, and the snapshot exists.
  auto records = Wal::read_all(dir.str() + "/wal.log");
  ASSERT_TRUE(records.is_ok());
  EXPECT_LT(records.value().size(), 200u);
  EXPECT_TRUE(fs::exists(dir.str() + "/snapshot.db"));
  // Reopen sees everything.
  db.value().reset();
  auto reopened = Database::open(dir.str());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->catalog().table("t")->row_count(), 200u);
}

TEST(Database, InMemoryHasNoFiles) {
  auto db = Database::in_memory();
  ASSERT_TRUE(db->create_table(simple_schema()).is_ok());
  ASSERT_TRUE(db->insert("t", {Value("x"), Value(1)}).is_ok());
  EXPECT_FALSE(db->durable());
  EXPECT_TRUE(db->checkpoint().is_ok());  // no-op
}

}  // namespace
}  // namespace wdoc::storage
