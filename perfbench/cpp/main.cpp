// perfbench: runs one workload and prints its report as one JSON line.
//
//   perfbench --workload <gateway_zipf|instructor_n1023>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir> [--setup 1]
//
// Human-readable progress goes to stdout first; the last line is the
// report (see README.md). --trace 1 adds an untraced pass before a traced
// one, writes the traced pass's spans to <dir>, and reports per-layer
// metrics plus the tracing overhead. --setup 1 runs no workload: it sets up
// the workload's system under test every kSetupTick for <s> seconds and
// reports the median set-up time; run.py runs it next to the workload.
// Exit code 0 means the report was written, whatever it says; nonzero
// means no report.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

std::uint64_t SpanLog::next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 14);
    buf = owned.get();
    std::lock_guard lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return *buf;
}

void SpanLog::record(const Span& s) { local().spans.push_back(s); }

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"group\":%" PRIu64 ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 "}\n",
                 s.name, s.id, s.parent, s.group, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

void Report::layer_pcts(const std::string& prefix, const std::string& suffix,
                        const std::vector<double>& v, const std::string& unit) {
  const Percentile p50 = median(v);
  const Percentile p99 = tail(v);
  layer(prefix + ".p50" + suffix, p50.value, unit, p50.samples);
  layer(prefix + ".p99" + suffix, p99.value, unit, p99.samples);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "[";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", ms[i].value);
    if (i > 0) out += ",";
    out += "{\"name\":" + json_string(ms[i].name) + ",\"value\":" + num +
           ",\"unit\":" + json_string(ms[i].unit) +
           ",\"samples\":" + std::to_string(ms[i].samples) + "}";
  }
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + json_string(v[i]);
  return out + "]";
}

// Writes the traced pass's spans and prints, per span name, how many ran,
// their median duration and their median self time. Fails when two spans
// share an id, since parent links would then be ambiguous.
bool write_spans(const Options& opt) {
  const SpanLog& log = SpanLog::global();
  const std::string path =
      opt.out_dir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl";
  const std::vector<Span> spans = log.spans();
  if (!unique_ids(spans)) {
    std::printf("  span ids are not unique\n");
    return false;
  }
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [dur, own] = by_name[spans[i].name];
    dur.push_back(ns_to_us(spans[i].end_ns - spans[i].start_ns));
    own.push_back(ns_to_us(self[i]));
  }
  for (const auto& [name, v] : by_name) {
    std::printf("  span %-22s n=%-7zu p50 %10.1f us, self p50 %10.1f us\n", name.c_str(),
                v.first.size(), median(v.first).value, median(v.second).value);
  }
  std::printf("  spans written to %s\n", path.c_str());
  return log.write_jsonl(path);
}

// Interval between set-ups in --setup 1 mode. The host's speed drifts by
// tens of percent within seconds, so set-ups spread over the whole run give
// a steadier median than the same number of set-ups back to back.
constexpr auto kSetupTick = std::chrono::milliseconds(500);

// --setup 1: times one set-up of the workload's system every kSetupTick.
void time_setups(const Options& opt, Report& r) {
  const bool gateway = opt.workload == "gateway_zipf";
  std::vector<double> samples;
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::duration<double>(opt.seconds);
  for (auto next = start; next < end; next += kSetupTick) {
    std::this_thread::sleep_until(next);
    samples.push_back(gateway ? time_gateway_setup(opt.seed)
                              : time_cluster_setup(opt.seed) + time_database_setup(opt));
  }
  r.attempted = samples.size();
  const double med = median_of(samples);
  std::printf("set-up of %s: median %.4f s over %zu set-ups, one every %lld ms (%.4f .. "
              "%.4f s)\n",
              gateway ? "the serving stack" : "the tree and swarm clusters and the database",
              med, samples.size(), static_cast<long long>(kSetupTick.count()),
              min_of(samples), *std::max_element(samples.begin(), samples.end()));
  r.e2e("setup_s", med, "s", samples.size());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <gateway_zipf|instructor_n1023> "
               "--seed <n> --seconds <s> --trace <0|1> --out <dir> [--setup 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (argc % 2 == 0) return usage();  // options come in --key value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out") {
      opt.out_dir = val;
    } else if (key == "--setup") {
      opt.setup = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (opt.out_dir.empty() || !(opt.seconds > 0)) return usage();
  if (opt.workload != "gateway_zipf" && opt.workload != "instructor_n1023") return usage();

  Report r;
  try {
    if (opt.setup) {
      time_setups(opt, r);
    } else if (opt.workload == "gateway_zipf") {
      run_gateway_zipf(opt, r);
    } else {
      // The instructor's two jobs, half the run each: pre-broadcast the
      // lecture, then commit course scripts. The lecture goes first because
      // its round count does not move the peak RSS, which is taken after
      // the first commit round: a second commit round, which only a fast
      // host fits in, would.
      Options half = opt;
      half.seconds = opt.seconds / 2;
      run_lecture(half, r);
      run_course_commit(half, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!opt.setup) {
    r.mark_rss();
    r.e2e("peak_rss_mb", r.rss_mb, "MB", 1);
  }
  if (opt.trace && !opt.setup && !write_spans(opt)) {
    r.invalid.push_back("span ids not unique, or the spans could not be written");
  }

  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"attempted\":%llu,"
              "\"failed\":%llu,\"errors\":%s,\"invalid\":%s,\"end_to_end\":%s,"
              "\"per_layer\":%s}\n",
              json_string(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json_strings(r.errors).c_str(),
              json_strings(r.invalid).c_str(), json_metrics(r.end_to_end).c_str(),
              json_metrics(r.per_layer).c_str());
  std::fflush(stdout);
  return 0;
}
