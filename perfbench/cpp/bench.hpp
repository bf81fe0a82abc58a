// Plumbing shared by the workloads: run options, the wall/CPU clocks, the
// benchmark's own span log, and the report every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup = false;   // time set-ups only (see main.cpp)
  std::string out_dir;  // spans, results and scratch databases go here
};

// Nanoseconds on the steady clock since the first call.
std::int64_t now_ns();
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Process CPU time (user + system, every thread), in seconds.
double cpu_seconds();
// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

// Value of a counter in the process-wide registry.
inline std::uint64_t counter(std::string_view name, const wdoc::obs::Labels& labels = {}) {
  return wdoc::obs::MetricsRegistry::global().counter(name, labels).value();
}

// The benchmark's span log. Disabled (every call a no-op) unless the run
// is traced. Each thread appends to its own buffer, so recording takes no
// shared lock; spans() merges the buffers once the workload is quiet.
class SpanLog {
 public:
  static SpanLog& global();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t next_id();
  void record(const Span& s);
  [[nodiscard]] std::vector<Span> spans() const;
  // One JSON object per line: name, id, parent, group, start_ns, end_ns.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// Times one call into a layer when the log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t parent, std::uint64_t group)
      : log_(SpanLog::global()) {
    if (!log_.enabled()) return;
    span_.name = name;
    span_.id = log_.next_id();
    span_.parent = parent;
    span_.group = group;
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.end_ns = now_ns();
    log_.record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;   // failed output checks
  std::vector<std::string> invalid;  // reasons the measurement is not valid
  // Peak RSS once the first round (or untraced pass) is done, so the figure
  // does not depend on how many rounds fit in the run.
  double rss_mb = 0;

  void mark_rss() {
    if (rss_mb == 0) rss_mb = peak_rss_mb();
  }

  void e2e(std::string name, double value, std::string unit, std::size_t samples) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit, std::size_t samples = 1) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
  // Records p50 and the tail percentile of `v` as <prefix>.p50 / .p99.
  void layer_pcts(const std::string& prefix, const std::string& suffix,
                  const std::vector<double>& v, const std::string& unit);
  // Counts a failed operation; the first few reasons are kept.
  void fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

// The parts of the workloads. Each fills `r`; a traced run also records
// spans.
void run_gateway_zipf(const Options& opt, Report& r);
void run_course_commit(const Options& opt, Report& r);
void run_lecture(const Options& opt, Report& r);

// One set-up of a part's system under test from the seed's inputs, timed
// in seconds and torn down again: the serving stack; the tree and the
// swarm cluster; the preloaded database.
double time_gateway_setup(std::uint64_t seed);
double time_cluster_setup(std::uint64_t seed);
double time_database_setup(const Options& opt);

}  // namespace perfbench
