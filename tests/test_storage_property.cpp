// Model-based property tests for the storage engine:
//   * randomized insert/update/erase streams against a reference map, with
//     FK cascade semantics cross-checked structurally;
//   * WAL corruption fuzzing: flip any byte (or cut the tail), recovery
//     must never crash, must yield a prefix of the committed history, and
//     must agree with the old read-everything recovery kept here as a
//     reference;
//   * snapshot round-trip equivalence under random content.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "storage/database.hpp"
#include "storage/txn.hpp"
#include "storage/wal.hpp"

namespace wdoc::storage {
namespace {

namespace fs = std::filesystem;

Schema people_schema() {
  return Schema("people",
                {Column{"name", ValueType::text, false, false, false},
                 Column{"age", ValueType::integer, true, false, true},
                 Column{"bio", ValueType::text, true, false, false}},
                "name");
}

Schema pets_schema(RefAction action) {
  return Schema("pets",
                {Column{"pet", ValueType::text, false, false, false},
                 Column{"owner", ValueType::text, true, false, true}},
                "pet", {ForeignKey{"owner", "people", "name", action}});
}

struct SweepParam {
  std::uint64_t seed;
  std::size_t ops;
  RefAction action;
};

class CatalogModel : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CatalogModel, RandomOpsAgreeWithReferenceModel) {
  const SweepParam p = GetParam();
  Catalog catalog;
  ASSERT_TRUE(catalog.create_table(people_schema()).is_ok());
  ASSERT_TRUE(catalog.create_table(pets_schema(p.action)).is_ok());

  // Reference model: person name -> age; pet name -> owner (or nullopt).
  std::map<std::string, std::int64_t> people;
  std::map<std::string, std::optional<std::string>> pets;
  Rng rng(p.seed);
  auto person_name = [&](std::uint64_t i) { return "p" + std::to_string(i); };
  auto pet_name = [&](std::uint64_t i) { return "a" + std::to_string(i); };

  for (std::size_t op = 0; op < p.ops; ++op) {
    double u = rng.uniform01();
    if (u < 0.3) {
      // Insert person.
      std::string name = person_name(rng.uniform(40));
      std::int64_t age = rng.uniform_range(1, 99);
      auto r = catalog.insert("people", {Value(name), Value(age), Value("bio")});
      if (people.contains(name)) {
        EXPECT_EQ(r.code(), Errc::constraint_violation);
      } else {
        ASSERT_TRUE(r.is_ok());
        people[name] = age;
      }
    } else if (u < 0.55) {
      // Insert pet with a random (maybe missing) owner.
      std::string pet = pet_name(rng.uniform(60));
      bool orphan = rng.bernoulli(0.2);
      std::string owner = person_name(rng.uniform(40));
      auto r = catalog.insert(
          "pets", {Value(pet), orphan ? Value::null() : Value(owner)});
      if (pets.contains(pet)) {
        EXPECT_EQ(r.code(), Errc::constraint_violation);
      } else if (!orphan && !people.contains(owner)) {
        EXPECT_EQ(r.code(), Errc::constraint_violation);
      } else {
        ASSERT_TRUE(r.is_ok());
        pets[pet] = orphan ? std::nullopt : std::optional<std::string>(owner);
      }
    } else if (u < 0.75) {
      // Update a person's age.
      std::string name = person_name(rng.uniform(40));
      auto rid = catalog.table("people")->find_unique("name", Value(name));
      if (rid) {
        std::int64_t age = rng.uniform_range(1, 99);
        ASSERT_TRUE(catalog.update_column("people", *rid, "age", Value(age)).is_ok());
        people[name] = age;
      }
    } else {
      // Erase a person; the model applies the FK action.
      std::string name = person_name(rng.uniform(40));
      auto rid = catalog.table("people")->find_unique("name", Value(name));
      if (!rid) continue;
      bool referenced = false;
      for (const auto& [pet, owner] : pets) {
        if (owner == name) referenced = true;
      }
      Status s = catalog.erase("people", *rid);
      switch (p.action) {
        case RefAction::restrict:
          if (referenced) {
            EXPECT_EQ(s.code(), Errc::constraint_violation);
          } else {
            ASSERT_TRUE(s.is_ok());
            people.erase(name);
          }
          break;
        case RefAction::cascade:
          ASSERT_TRUE(s.is_ok());
          people.erase(name);
          for (auto it = pets.begin(); it != pets.end();) {
            it = it->second == name ? pets.erase(it) : std::next(it);
          }
          break;
        case RefAction::set_null:
          ASSERT_TRUE(s.is_ok());
          people.erase(name);
          for (auto& [pet, owner] : pets) {
            if (owner == name) owner = std::nullopt;
          }
          break;
      }
    }
  }

  // Final state equivalence.
  ASSERT_EQ(catalog.table("people")->row_count(), people.size());
  ASSERT_EQ(catalog.table("pets")->row_count(), pets.size());
  for (const auto& [name, age] : people) {
    auto rid = catalog.table("people")->find_unique("name", Value(name));
    ASSERT_TRUE(rid.has_value()) << name;
    EXPECT_EQ(catalog.table("people")->cell(*rid, "age").as_int(), age);
  }
  for (const auto& [pet, owner] : pets) {
    auto rid = catalog.table("pets")->find_unique("pet", Value(pet));
    ASSERT_TRUE(rid.has_value()) << pet;
    Value got = catalog.table("pets")->cell(*rid, "owner");
    if (owner) {
      EXPECT_EQ(got, Value(*owner));
    } else {
      EXPECT_TRUE(got.is_null());
    }
  }
  // Secondary index agrees with a full scan for every age bucket.
  for (std::int64_t age = 1; age < 100; ++age) {
    std::size_t expected = 0;
    for (const auto& [_, a] : people) {
      if (a == age) ++expected;
    }
    EXPECT_EQ(catalog.table("people")->find_equal("age", Value(age)).size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CatalogModel,
    ::testing::Values(SweepParam{1, 1500, RefAction::restrict},
                      SweepParam{2, 1500, RefAction::cascade},
                      SweepParam{3, 1500, RefAction::set_null},
                      SweepParam{4, 3000, RefAction::cascade},
                      SweepParam{5, 3000, RefAction::restrict}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             ref_action_name(info.param.action);
    });

// --- WAL corruption fuzzing ---------------------------------------------------

// The recovery Database::open used to run: read every intact frame into
// memory, then replay the committed ones. Kept as the reference that the
// streaming recovery (Wal::recover) must agree with.
std::vector<LogRecord> reference_read_all(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::vector<LogRecord> out;
  for (;;) {
    std::uint8_t header[12];
    if (std::fread(header, 1, sizeof header, f) != sizeof header) break;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    std::uint64_t checksum = 0;
    for (int i = 0; i < 8; ++i)
      checksum |= static_cast<std::uint64_t>(header[4 + i]) << (8 * i);
    if (len > (64u << 20)) break;
    Bytes payload(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) break;
    if (fnv1a64(std::span<const std::uint8_t>(payload)) != checksum) break;
    auto rec = LogRecord::decode(payload);
    if (!rec) break;
    out.push_back(std::move(rec).value());
  }
  std::fclose(f);
  return out;
}

Status reference_replay(const std::vector<LogRecord>& records, Catalog& catalog) {
  std::set<std::uint64_t> committed{0};
  for (const LogRecord& rec : records) {
    if (rec.kind == LogKind::commit) committed.insert(rec.txn);
  }
  for (const LogRecord& rec : records) {
    if (!committed.contains(rec.txn)) continue;
    Table* t = catalog.table(rec.table);
    switch (rec.kind) {
      case LogKind::begin:
      case LogKind::commit:
      case LogKind::abort:
        break;
      case LogKind::create_table:
        if (!rec.schema) return {Errc::corrupt, "create_table without schema"};
        WDOC_TRY(catalog.create_table(*rec.schema));
        break;
      case LogKind::drop_table:
        WDOC_TRY(catalog.drop_table(rec.table));
        break;
      case LogKind::insert:
        if (t == nullptr) return {Errc::corrupt, "missing table"};
        WDOC_TRY(t->restore(rec.row, rec.after));
        break;
      case LogKind::update:
        if (t == nullptr) return {Errc::corrupt, "missing table"};
        WDOC_TRY(t->update(rec.row, rec.after));
        break;
      case LogKind::erase:
        if (t == nullptr) return {Errc::corrupt, "missing table"};
        WDOC_TRY(t->erase(rec.row));
        break;
    }
  }
  return Status::ok();
}

// Every row of every table, keyed by (table, row id).
std::map<std::pair<std::string, std::uint64_t>, std::vector<Value>> rows_of(
    const Catalog& catalog) {
  std::map<std::pair<std::string, std::uint64_t>, std::vector<Value>> rows;
  for (const std::string& name : catalog.table_names()) {
    catalog.table(name)->scan([&](RowId id, const std::vector<Value>& row) {
      rows[{name, id.value()}] = row;
      return true;
    });
  }
  return rows;
}

Schema courses_schema() {
  return Schema("courses",
                {Column{"code", ValueType::text, false, false, false},
                 Column{"seats", ValueType::integer, true, false, false}},
                "code");
}

// Flips one random byte of `path` or cuts it at a random length.
void mutate(const fs::path& path, Rng& rng) {
  const std::uintmax_t size = fs::file_size(path);
  if (rng.bernoulli(0.25)) {
    fs::resize_file(path, rng.uniform(size));
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(rng.uniform(size)), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ static_cast<int>(1 + rng.uniform(255)), f);
  std::fclose(f);
}

class WalFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wdoc-fuzz-" + std::to_string(::getpid()) + "-" + std::to_string(GetParam()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(WalFuzz, BitFlipsNeverCrashRecovery) {
  const std::uint64_t seed = GetParam();
  std::string wal_path = (dir_ / "wal.log").string();

  // Write a healthy log of 30 autocommit inserts.
  {
    Wal wal;
    ASSERT_TRUE(wal.open(wal_path).is_ok());
    LogRecord create;
    create.kind = LogKind::create_table;
    create.table = "people";
    create.schema = people_schema();
    ASSERT_TRUE(wal.append(create).is_ok());
    for (int i = 0; i < 30; ++i) {
      LogRecord rec;
      rec.kind = LogKind::insert;
      rec.table = "people";
      rec.row = RowId{static_cast<std::uint64_t>(i + 1)};
      rec.after = {Value("p" + std::to_string(i)), Value(i), Value("bio")};
      ASSERT_TRUE(wal.append(rec).is_ok());
    }
    ASSERT_TRUE(wal.sync().is_ok());
  }
  const auto healthy = Wal::read_all(wal_path).expect("healthy read");
  ASSERT_EQ(healthy.size(), 31u);

  // Flip random single bytes at random offsets; recovery must not crash and
  // must replay cleanly into a fresh catalog.
  Rng rng(seed);
  std::uintmax_t size = fs::file_size(wal_path);
  for (int trial = 0; trial < 40; ++trial) {
    fs::path mutated = dir_ / ("mutated-" + std::to_string(trial));
    fs::copy_file(wal_path, mutated, fs::copy_options::overwrite_existing);
    {
      std::FILE* f = std::fopen(mutated.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      long offset = static_cast<long>(rng.uniform(size));
      std::fseek(f, offset, SEEK_SET);
      int c = std::fgetc(f);
      std::fseek(f, -1, SEEK_CUR);
      std::fputc(c ^ static_cast<int>(1 + rng.uniform(255)), f);
      std::fclose(f);
    }
    auto records = Wal::read_all(mutated.string());
    ASSERT_TRUE(records.is_ok());  // torn/corrupt tails end the scan, never throw
    ASSERT_LE(records.value().size(), healthy.size());
    // What survives must be a prefix of the healthy history.
    for (std::size_t i = 0; i < records.value().size(); ++i) {
      EXPECT_EQ(records.value()[i].encode(), healthy[i].encode()) << "record " << i;
    }
    // Recovery of any prefix must succeed into an empty catalog (the table
    // create is record 0; if it was clobbered the prefix is empty).
    Catalog catalog;
    Status recovered = Wal::recover(mutated.string(), catalog);
    EXPECT_TRUE(recovered.is_ok()) << recovered.message();
    EXPECT_EQ(catalog.table_names().empty() ? 0 : catalog.table("people")->row_count() + 1,
              records.value().size());
  }
}

// A transactional log over two tables: committed txns that update, insert
// and erase, one aborted txn, one that never ends, interleaved with
// autocommit writes. For every mutated copy (a flipped byte or a cut tail),
// Database::open must yield exactly the rows the old read-everything
// recovery yields.
TEST_P(WalFuzz, TransactionalLogRecoversLikeReference) {
  const fs::path healthy_dir = dir_ / "healthy";
  fs::create_directories(healthy_dir);
  const std::string wal_path = (healthy_dir / "wal.log").string();
  {
    Wal wal;
    ASSERT_TRUE(wal.open(wal_path).is_ok());
    auto append = [&](LogKind kind, std::uint64_t txn, const std::string& table,
                      std::uint64_t row, std::vector<Value> after) {
      LogRecord rec;
      rec.kind = kind;
      rec.txn = txn;
      rec.table = table;
      rec.row = RowId{row};
      rec.after = std::move(after);
      ASSERT_TRUE(wal.append(rec).is_ok());
    };
    for (const Schema& schema : {people_schema(), courses_schema()}) {
      LogRecord create;
      create.kind = LogKind::create_table;
      create.table = schema.table_name();
      create.schema = schema;
      ASSERT_TRUE(wal.append(create).is_ok());
    }
    auto person = [](int i, int age) {
      return std::vector<Value>{Value("p" + std::to_string(i)), Value(age), Value("bio")};
    };
    auto course = [](int i, int seats) {
      return std::vector<Value>{Value("c" + std::to_string(i)), Value(seats)};
    };
    for (int i = 1; i <= 10; ++i) append(LogKind::insert, 0, "people", i, person(i, 20 + i));
    for (int i = 1; i <= 5; ++i) append(LogKind::insert, 0, "courses", i, course(i, 30));
    // Txn 1 commits.
    append(LogKind::begin, 1, "", 0, {});
    append(LogKind::update, 1, "people", 3, person(3, 40));
    append(LogKind::insert, 1, "courses", 6, course(6, 12));
    append(LogKind::commit, 1, "", 0, {});
    // Txn 2 aborts; txn 3 commits around it; txn 4 never ends.
    append(LogKind::begin, 2, "", 0, {});
    append(LogKind::begin, 3, "", 0, {});
    append(LogKind::insert, 2, "people", 11, person(11, 50));
    append(LogKind::update, 3, "people", 5, person(5, 41));
    append(LogKind::begin, 4, "", 0, {});
    append(LogKind::update, 2, "courses", 2, course(2, 0));
    append(LogKind::insert, 3, "people", 12, person(12, 33));
    append(LogKind::update, 4, "people", 7, person(7, 99));
    append(LogKind::abort, 2, "", 0, {});
    append(LogKind::update, 3, "courses", 6, course(6, 11));
    append(LogKind::erase, 3, "people", 1, {});
    append(LogKind::insert, 0, "courses", 7, course(7, 25));
    append(LogKind::commit, 3, "", 0, {});
    append(LogKind::insert, 4, "people", 13, person(13, 18));
    // Txn 5 commits after the unterminated txn's last write.
    append(LogKind::begin, 5, "", 0, {});
    append(LogKind::erase, 5, "courses", 4, {});
    append(LogKind::update, 5, "people", 12, person(12, 34));
    append(LogKind::commit, 5, "", 0, {});
    ASSERT_TRUE(wal.sync().is_ok());
  }

  auto check = [](const fs::path& dir) {
    Catalog reference;
    const Status replayed =
        reference_replay(reference_read_all((dir / "wal.log").string()), reference);
    auto db = Database::open(dir.string());
    ASSERT_EQ(db.is_ok(), replayed.is_ok()) << replayed.message();
    if (db.is_ok()) {
      EXPECT_EQ(rows_of(db.value()->catalog()), rows_of(reference));
    }
  };
  check(healthy_dir);
  {
    auto db = Database::open(healthy_dir.string()).expect("open healthy");
    const Table* people = db->catalog().table("people");
    EXPECT_EQ(people->row_count(), 10u);  // 10 - erased p1 + p12
    EXPECT_EQ(people->get(RowId{3})->at(1).as_int(), 40);
    EXPECT_EQ(people->get(RowId{7})->at(1).as_int(), 27);  // txn 4 never committed
    EXPECT_EQ(people->get(RowId{11}), nullptr);            // txn 2 aborted
    EXPECT_EQ(people->get(RowId{12})->at(1).as_int(), 34);
    EXPECT_EQ(db->catalog().table("courses")->row_count(), 6u);  // 5 + c6 + c7 - c4
  }

  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const fs::path mutated = dir_ / ("mutated-" + std::to_string(trial));
    fs::create_directories(mutated);
    fs::copy_file(wal_path, mutated / "wal.log", fs::copy_options::overwrite_existing);
    mutate(mutated / "wal.log", rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    check(mutated);
    fs::remove_all(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFuzz, ::testing::Values(11u, 22u, 33u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- snapshot equivalence under random content ---------------------------------

TEST(SnapshotProperty, RandomCatalogRoundTripsExactly) {
  fs::path dir = fs::temp_directory_path() /
                 ("wdoc-snapprop-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string path = (dir / "snap.db").string();

  Rng rng(99);
  Catalog original;
  ASSERT_TRUE(original.create_table(people_schema()).is_ok());
  ASSERT_TRUE(original.create_table(pets_schema(RefAction::set_null)).is_ok());
  for (int i = 0; i < 300; ++i) {
    std::string name = "p" + std::to_string(i);
    ASSERT_TRUE(original
                    .insert("people",
                            {Value(name), Value(rng.uniform_range(0, 100)),
                             rng.bernoulli(0.2)
                                 ? Value::null()
                                 : Value(std::string(rng.uniform(50), 'x'))})
                    .is_ok());
    if (rng.bernoulli(0.5)) {
      ASSERT_TRUE(original
                      .insert("pets", {Value("a" + std::to_string(i)), Value(name)})
                      .is_ok());
    }
  }
  // Random deletions to fragment row ids.
  for (int i = 0; i < 80; ++i) {
    auto rid = original.table("people")->find_unique(
        "name", Value("p" + std::to_string(rng.uniform(300))));
    if (rid) (void)original.erase("people", *rid);
  }

  ASSERT_TRUE(save_snapshot(original, path).is_ok());
  Catalog loaded;
  ASSERT_TRUE(load_snapshot(path, loaded).is_ok());

  for (const char* table : {"people", "pets"}) {
    ASSERT_EQ(loaded.table(table)->row_count(), original.table(table)->row_count());
    original.table(table)->scan([&](RowId id, const std::vector<Value>& row) {
      const auto* other = loaded.table(table)->get(id);
      EXPECT_NE(other, nullptr);
      if (other != nullptr) {
        EXPECT_EQ(*other, row);
      }
      return true;
    });
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wdoc::storage
