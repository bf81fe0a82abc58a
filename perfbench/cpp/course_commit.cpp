// The commit half of instructor_n1023, run after the lecture half: the
// write side of the storage layer. One closed-loop client runs
// transactions on a durable storage::Database in a fresh directory,
// preloaded with 10,000 script rows. Each transaction finds a script row
// by key, bumps its version column, inserts an audit row and commits. The
// flush policy is the engine's own: every commit calls Database::flush. A
// round is 20,000 transactions; the history depth is part of the workload,
// because commit cost that grows with history is what it should expose.
// One client only: concurrent contended commits are not exercised here.
//
// After each round the WAL and snapshot files are copied byte for byte,
// reopened as a second Database, and checked to hold every acknowledged
// commit.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string_view>

#include "bench.hpp"
#include "common/rng.hpp"
#include "storage/database.hpp"
#include "storage/txn.hpp"

namespace perfbench {
namespace {

using namespace wdoc;
using storage::Value;
namespace fs = std::filesystem;

constexpr std::size_t kRows = 10'000;
constexpr std::size_t kTxns = 20'000;
constexpr std::size_t kEdge = 1'000;  // first/last 1k commits
// The history is cut into segments of this many transactions; each leg
// figure combines per-segment bests over rounds.
constexpr std::size_t kSegment = 1'000;
constexpr std::size_t kSegments = kTxns / kSegment;

std::string key_of(std::size_t i) { return "script-" + std::to_string(i); }

// The seed of one round's inputs (preload bodies, key sequence).
std::uint64_t round_seed(const Options& opt, std::size_t round) {
  return opt.seed * 1000003 + round;
}

// A fresh durable database holding the preloaded script rows.
std::unique_ptr<storage::Database> set_up(const std::string& dir, std::uint64_t seed) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto db = storage::Database::open(dir).expect("open database");
  using storage::Column;
  using storage::ValueType;
  db->create_table(storage::Schema("script",
                                   {Column{"key", ValueType::text, false},
                                    Column{"version", ValueType::integer, false},
                                    Column{"body", ValueType::text}},
                                   "key"))
      .expect("create script");
  db->create_table(storage::Schema("audit", {Column{"seq", ValueType::integer, false},
                                             Column{"key", ValueType::text, false},
                                             Column{"version", ValueType::integer, false}}))
      .expect("create audit");
  Rng rng(seed);
  for (std::size_t i = 0; i < kRows; ++i) {
    std::string body(64 + rng.uniform(64), 'a' + static_cast<char>(rng.uniform(26)));
    db->insert("script", {Value(key_of(i)), Value(std::int64_t{0}), Value(std::move(body))})
        .expect("preload");
  }
  db->flush().expect("flush preload");
  return db;
}

// Checks a reopened copy of `dir` against the client's acknowledged state.
void check_recovery(const std::string& dir, const std::vector<std::int64_t>& versions,
                    std::size_t acked, Report& r) {
  const std::string copy = dir + "-copy";
  fs::remove_all(copy);
  fs::create_directories(copy);
  for (const auto& entry : fs::directory_iterator(dir)) {
    fs::copy_file(entry.path(), copy + "/" + entry.path().filename().string());
  }
  auto reopened = storage::Database::open(copy);
  if (!reopened) {
    r.fail("reopen failed: " + reopened.error().to_string());
    fs::remove_all(copy);
    return;
  }
  auto& db = *reopened.value();
  std::size_t wrong = 0;
  std::size_t seen = 0;
  db.catalog().table("script")->scan([&](RowId, const std::vector<Value>& row) {
    const std::string& key = row[0].as_text();
    const std::size_t i = std::stoul(key.substr(key.find('-') + 1));
    if (i >= versions.size() || row[1].as_int() != versions[i]) ++wrong;
    ++seen;
    return true;
  });
  std::size_t audit = db.catalog().table("audit")->row_count();
  if (seen != kRows || wrong != 0) {
    r.fail("recovered copy: " + std::to_string(wrong) + " of " + std::to_string(seen) +
           " script rows differ from acknowledged commits");
  }
  if (audit != acked) {
    r.fail("recovered copy holds " + std::to_string(audit) + " audit rows, " +
           std::to_string(acked) + " commits were acknowledged");
  }
  reopened.value().reset();
  fs::remove_all(copy);
}

struct Round {
  std::vector<double> latency_us;  // begin .. commit returned, per txn (0: failed)
  std::vector<double> segment_cpu_s;  // per kSegment transactions
  double wall_s = 0;
  // Registry counter deltas over the transactions (preload excluded).
  std::uint64_t wal_appends = 0, wal_bytes = 0, wal_syncs = 0, lock_waits = 0,
                btree_splits = 0;
};

std::uint64_t lock_waits() {
  std::uint64_t n = 0;
  for (const char* m : {"IS", "IX", "S", "X"}) {
    n += counter("storage.lock_waits", {{"mode", m}});
  }
  return n;
}

// One round: set up the database, run the transactions, then check a
// reopened copy. Spans of transaction t carry group index * kTxns + t + 1.
Round run_round(std::size_t index, std::uint64_t seed, const std::string& dir, Report& r) {
  Round out;
  std::unique_ptr<storage::Database> db = set_up(dir, seed);
  storage::TransactionManager mgr(*db);
  Rng rng(seed ^ 0x5eedc0de);
  std::vector<std::int64_t> versions(kRows, 0);
  std::size_t acked = 0;
  out.latency_us.assign(kTxns, 0);

  const std::uint64_t appends0 = counter("storage.wal_appends");
  const std::uint64_t bytes0 = counter("storage.wal_bytes");
  const std::uint64_t syncs0 = counter("storage.wal_fsyncs");
  const std::uint64_t splits0 = counter("storage.btree_splits");
  const std::uint64_t waits0 = lock_waits();
  const std::int64_t w0 = now_ns();
  double c_prev = cpu_seconds();
  for (std::size_t t = 0; t < kTxns; ++t) {
    if (t > 0 && t % kSegment == 0) {
      const double c = cpu_seconds();
      out.segment_cpu_s.push_back(c - c_prev);
      c_prev = c;
    }
    const std::size_t k = rng.uniform(kRows);
    const std::int64_t next = versions[k] + 1;
    const std::uint64_t group = index * kTxns + t + 1;
    const std::int64_t t0 = now_ns();
    Status st = Status::ok();
    {
      ScopedSpan root("storage.txn", 0, group);
      std::unique_ptr<storage::Txn> txn;
      {
        ScopedSpan s("storage.txn.begin", root.id(), group);
        txn = mgr.begin();
      }
      Result<std::vector<RowId>> ids = [&] {
        ScopedSpan s("storage.txn.find", root.id(), group);
        return txn->find_equal("script", "key", Value(key_of(k)));
      }();
      if (!ids || ids.value().size() != 1) {
        st = Status(Errc::not_found, "script row " + key_of(k) + " not found");
      }
      if (st.is_ok()) {
        ScopedSpan s("storage.txn.update", root.id(), group);
        st = txn->update_column("script", ids.value()[0], "version", Value(next));
      }
      if (st.is_ok()) {
        ScopedSpan s("storage.txn.insert", root.id(), group);
        st = txn->insert("audit", {Value(static_cast<std::int64_t>(t)), Value(key_of(k)),
                                   Value(next)})
                 .status();
      }
      if (st.is_ok()) {
        ScopedSpan s("storage.txn.commit", root.id(), group);
        st = txn->commit();
      }
    }
    const std::int64_t t1 = now_ns();
    if (!st.is_ok()) {
      r.fail("txn " + std::to_string(t) + ": " + st.message());
      continue;
    }
    versions[k] = next;
    ++acked;
    out.latency_us[t] = ns_to_us(t1 - t0);
  }
  out.segment_cpu_s.push_back(cpu_seconds() - c_prev);
  out.wall_s = ns_to_s(now_ns() - w0);
  out.wal_appends = counter("storage.wal_appends") - appends0;
  out.wal_bytes = counter("storage.wal_bytes") - bytes0;
  out.wal_syncs = counter("storage.wal_fsyncs") - syncs0;
  out.btree_splits = counter("storage.btree_splits") - splits0;
  out.lock_waits = lock_waits() - waits0;
  r.attempted += kTxns;

  check_recovery(dir, versions, acked, r);
  db.reset();
  fs::remove_all(dir);
  return out;
}

// Runs rounds until `seconds` have passed (at least one), but starts no
// round that would likely end past 1.5 x `seconds`.
std::vector<Round> run_pass(const Options& opt, const std::string& dir, Report& r) {
  std::vector<Round> rounds;
  const std::int64_t start = now_ns();
  double elapsed = 0;
  double last = 0;
  do {
    rounds.push_back(run_round(rounds.size(), round_seed(opt, rounds.size()), dir, r));
    r.mark_rss();
    last = ns_to_s(now_ns() - start) - elapsed;
    elapsed += last;
  } while (elapsed < opt.seconds && elapsed + last <= 1.5 * opt.seconds);
  return rounds;
}

}  // namespace

double time_database_setup(const Options& opt) {
  const std::string dir = opt.out_dir + "/setup-db-" + std::to_string(::getpid());
  const std::int64_t t0 = now_ns();
  std::unique_ptr<storage::Database> db = set_up(dir, round_seed(opt, 0));
  const double s = ns_to_s(now_ns() - t0);
  db.reset();
  fs::remove_all(dir);
  return s;
}

void run_course_commit(const Options& opt, Report& r) {
  const std::string dir = opt.out_dir + "/commit-db-" + std::to_string(::getpid());
  std::printf("course commits: %zu preloaded rows, %zu transactions a round, flush per "
              "commit (Database::flush), seed %llu\n",
              kRows, kTxns, static_cast<unsigned long long>(opt.seed));

  SpanLog::global().enable(false);
  const std::vector<Round> plain = run_pass(opt, dir, r);

  // Rounds repeat the same inputs, and a transaction's cost depends on its
  // position in the history. So each 1,000-transaction segment keeps its
  // best (lowest) round: on a shared host the slower rounds measure other
  // tenants. A leg's p50 and p99 are the medians over its segments; its CPU
  // time is the sum.
  std::vector<double> walls;
  std::vector<double> seg_p50(kSegments), seg_p99(kSegments), seg_cpu(kSegments);
  for (const Round& rd : plain) {
    walls.push_back(rd.wall_s);
    for (std::size_t g = 0; g < kSegments; ++g) {
      const std::vector<double> seg(rd.latency_us.begin() + g * kSegment,
                                    rd.latency_us.begin() + (g + 1) * kSegment);
      const double fig[3] = {median(seg).value, tail(seg).value, rd.segment_cpu_s[g]};
      double* best[3] = {&seg_p50[g], &seg_p99[g], &seg_cpu[g]};
      for (int k = 0; k < 3; ++k) {
        if (&rd == &plain.front() || fig[k] < *best[k]) *best[k] = fig[k];
      }
    }
  }
  const Percentile p50 = median(plain.front().latency_us);
  const Percentile p99 = tail(plain.front().latency_us);
  std::printf("  %zu round(s); first round: commit_p50_us = %.1f us, commit_p99_us = %.1f us "
              "(n=%zu), commits_per_s = %.1f\n",
              plain.size(), p50.value, p99.value, p99.samples,
              static_cast<double>(kTxns) / plain.front().wall_s);

  const char* legs[2] = {"first", "second"};
  const std::size_t half = kSegments / 2;
  for (std::size_t h = 0; h < 2; ++h) {
    auto leg = [&](const std::vector<double>& v) {
      return std::vector<double>(v.begin() + h * half, v.begin() + (h + 1) * half);
    };
    double cpu = 0;
    for (double c : leg(seg_cpu)) cpu += c;
    const std::size_t n = half * kSegment * plain.size();
    std::printf("  %s half of the history, best round per segment: p50 %.1f us, p99 %.1f us, "
                "cpu %.3f s (n=%zu)\n",
                legs[h], median_of(leg(seg_p50)), median_of(leg(seg_p99)), cpu, n);
    const std::string sfx = std::string(".") + legs[h] + "_half";
    r.e2e("storage.txn_us.p50" + sfx, median_of(leg(seg_p50)), "us", n);
    r.e2e("storage.txn_us.p99" + sfx, median_of(leg(seg_p99)), "us", n);
    r.e2e("storage.txn_cpu_s" + sfx, cpu, "s", plain.size());
  }
  if (!opt.trace) return;

  SpanLog::global().enable(true);
  const std::vector<Round> traced = run_pass(opt, dir, r);
  SpanLog::global().enable(false);

  // Per-step times come from the spans; commit spans also split by the
  // transaction's position in its round's history.
  const char* names[5] = {"begin", "find", "update", "insert", "commit"};
  std::map<std::string_view, std::vector<double>> steps;
  std::vector<double> first1k, last1k;
  for (const Span& s : SpanLog::global().spans()) {
    const std::string_view name = s.name;
    if (!name.starts_with("storage.txn.")) continue;
    const double us = ns_to_us(s.end_ns - s.start_ns);
    steps[name.substr(12)].push_back(us);
    if (name == "storage.txn.commit") {
      const std::size_t pos = (s.group - 1) % kTxns;
      if (pos < kEdge) first1k.push_back(us);
      if (pos >= kTxns - kEdge) last1k.push_back(us);
    }
  }
  for (const char* step : names) {
    r.layer_pcts(std::string("storage.txn.") + step + "_us", "", steps[step], "us");
  }
  const Percentile f = median(first1k);
  const Percentile l = median(last1k);
  r.layer("storage.commit_us.first1k.p50", f.value, "us", f.samples);
  r.layer("storage.commit_us.last1k.p50", l.value, "us", l.samples);
  r.layer("storage.commit_us.last1k_over_first1k", l.value / f.value, "ratio");
  std::printf("  traced: commit p50 over the first 1k commits %.1f us, last 1k %.1f us "
              "(%.1fx)\n",
              f.value, l.value, l.value / f.value);

  Round sum;
  std::vector<double> traced_walls;
  for (const Round& rd : traced) {
    sum.wal_appends += rd.wal_appends;
    sum.wal_bytes += rd.wal_bytes;
    sum.wal_syncs += rd.wal_syncs;
    sum.lock_waits += rd.lock_waits;
    sum.btree_splits += rd.btree_splits;
    traced_walls.push_back(rd.wall_s);
  }
  const double n = static_cast<double>(traced.size() * kTxns);
  r.layer("storage.wal_appends_per_txn", static_cast<double>(sum.wal_appends) / n, "count");
  r.layer("storage.wal_bytes_per_txn", static_cast<double>(sum.wal_bytes) / n, "B");
  // storage.wal_fsyncs counts Wal::sync calls, whatever they do underneath.
  r.layer("storage.wal_syncs_per_txn", static_cast<double>(sum.wal_syncs) / n, "count");
  r.layer("storage.lock_waits", static_cast<double>(sum.lock_waits), "count");
  r.layer("storage.btree_splits", static_cast<double>(sum.btree_splits), "count");
  r.layer("obs.trace_overhead_frac.storage", min_of(traced_walls) / min_of(walls) - 1,
          "ratio");
}

}  // namespace perfbench
