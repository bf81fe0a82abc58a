// gateway_zipf: the students' HTTP path under an open-loop Zipfian library
// trace (10^5 users, 500 courses on 3 shards; search / check-out /
// check-in / document fetch) offered at two fixed rates back to back,
// 2.5k then 5k req/s, over 2 keep-alive pipelined connections served by 2
// server workers. Each user is pinned to one connection so its ledger ops
// stay in order, and every request is timed from its scheduled send time.
//
// The benchmark times the layers from outside: a span around the server's
// handler (http::Gateway::handle) and one around
// http::DocumentSource::fetch. A keep-alive connection is owned by one
// worker and answered in order, so the i-th handler call a worker makes
// after the connection's tagged /healthz warm-up is the connection's i-th
// request.
#include <pthread.h>
#include <time.h>

#include <array>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "http/client.hpp"
#include "http/gateway.hpp"
#include "http/server.hpp"
#include "storage/database.hpp"
#include "workload/library_corpus.hpp"
#include "workload/patterns.hpp"

namespace perfbench {
namespace {

using namespace wdoc;
using Clock = std::chrono::steady_clock;
using workload::HttpOpKind;

constexpr std::size_t kConns = 2;
constexpr std::array<double, 2> kRates = {2'500.0, 5'000.0};
constexpr std::array<const char*, 2> kRateTags = {"2.5k", "5k"};
// Idle time between the two phases, so the first one's stragglers land
// before the second starts.
constexpr std::int64_t kPhaseGapUs = 200'000;
// The p99 is taken per 500 ms window (>= 1250 requests at 2.5k req/s, so
// >= 12 beyond the p99) and the median over windows is reported: host
// stalls of a few ms land in a minority of windows and would otherwise
// decide the whole run's figure. The whole-phase p99 is printed too.
constexpr std::int64_t kWindowUs = 500'000;
// A generator whose median send was this late did not offer the load the
// phase claims; the run is marked invalid rather than slow.
constexpr double kMaxGenLateP50Us = 1'000;

struct Op {
  workload::HttpOp op;
  std::size_t phase = 0;
  std::uint64_t group = 0;  // request id shared by its spans (1-based)
};

// Per connection, the span id of each request in order (traced pass only).
using RequestSpanIds = std::array<std::vector<std::uint64_t>, kConns>;

// Which connection and request the current server worker is serving.
struct WorkerState {
  std::size_t conn = kConns;  // kConns = not bound yet
  std::size_t seq = 0;
  std::uint64_t handler_span = 0;
  std::uint64_t group = 0;
};
thread_local WorkerState tl_worker;

// Times http::DocumentSource::fetch under the current handler span.
class TimedDocs final : public http::DocumentSource {
 public:
  explicit TimedDocs(http::DocumentSource& inner) : inner_(inner) {}
  Result<std::string> fetch(const std::string& course) override {
    ScopedSpan span("storage.doc_fetch", tl_worker.handler_span, tl_worker.group);
    return inner_.fetch(course);
  }

 private:
  http::DocumentSource& inner_;
};

// The system under test, built from the catalog seed.
struct Stack {
  std::vector<library::VirtualLibrary> shards;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<http::StorageDocumentSource> docs;
  std::unique_ptr<TimedDocs> timed_docs;
  std::unique_ptr<http::Gateway> gateway;
  std::unique_ptr<http::HttpServer> server;
  std::array<http::HttpClient, kConns> clients;
  std::vector<std::string> courses;
  // Per connection, the handler time of each request in order (traced).
  std::array<std::vector<double>, kConns> handler_us;

  ~Stack() {
    for (auto& c : clients) c.close();
    if (server) server->stop();
  }
};

std::unique_ptr<Stack> build_stack(const workload::LibraryCorpusConfig& corpus_cfg,
                                   const std::vector<std::vector<Op>>& per_conn,
                                   const RequestSpanIds& request_ids) {
  auto s = std::make_unique<Stack>();
  auto entries = workload::library_corpus(corpus_cfg);
  s->shards.resize(corpus_cfg.shards);
  workload::populate_shards(s->shards, entries, corpus_cfg);
  s->db = storage::Database::in_memory();
  s->docs = std::make_unique<http::StorageDocumentSource>(*s->db);
  for (const auto& e : entries) {
    s->docs->put(e.course_number, workload::course_document(e)).expect("put doc");
    s->courses.push_back(e.course_number);
  }
  s->timed_docs = std::make_unique<TimedDocs>(*s->docs);
  std::vector<library::VirtualLibrary*> shard_ptrs;
  for (auto& shard : s->shards) shard_ptrs.push_back(&shard);
  s->gateway = std::make_unique<http::Gateway>(http::GatewayConfig{}, shard_ptrs,
                                               s->timed_docs.get());
  for (std::size_t c = 0; c < kConns; ++c) s->handler_us[c].reserve(per_conn[c].size());

  http::ServerConfig server_cfg;
  server_cfg.workers = kConns;
  Stack* raw = s.get();
  s->server = std::make_unique<http::HttpServer>(
      server_cfg,
      [raw, &per_conn, &request_ids](const http::Request& req) -> http::Response {
        if (!SpanLog::global().enabled()) return raw->gateway->handle(req);
        WorkerState& w = tl_worker;
        if (req.path == "/healthz") {
          if (auto c = req.param("conn")) {
            w.conn = std::stoul(*c);
            w.seq = 0;
          }
          return raw->gateway->handle(req);
        }
        if (w.conn >= kConns || w.seq >= per_conn[w.conn].size()) {
          return raw->gateway->handle(req);
        }
        const std::uint64_t parent = request_ids[w.conn][w.seq];
        const Op& op = per_conn[w.conn][w.seq++];
        w.group = op.group;
        const std::int64_t t0 = now_ns();
        std::optional<http::Response> rsp;
        {
          ScopedSpan span("http.handler", parent, op.group);
          w.handler_span = span.id();
          rsp = raw->gateway->handle(req);
        }
        raw->handler_us[w.conn].push_back(ns_to_us(now_ns() - t0));
        w.handler_span = 0;
        return std::move(*rsp);
      });
  s->server->start().expect("server start");
  for (std::size_t c = 0; c < kConns; ++c) {
    s->clients[c].connect("127.0.0.1", s->server->port()).expect("connect");
    auto rsp = s->clients[c].get("/healthz?conn=" + std::to_string(c)).expect("warm-up");
    if (rsp.status != 200) throw std::runtime_error("warm-up answered " +
                                                    std::to_string(rsp.status));
  }
  return s;
}

std::string target_of(const workload::HttpOp& op, const std::vector<std::string>& courses,
                      const std::vector<std::string>& queries, std::string& method) {
  method = "GET";
  switch (op.kind) {
    case HttpOpKind::search: {
      std::string q = queries[op.course_index % queries.size()];
      for (char& ch : q) {
        if (ch == ' ') ch = '+';
      }
      return "/search?q=" + q + "&limit=10";
    }
    case HttpOpKind::check_out:
      method = "POST";
      return "/check-out?course=" + courses[op.course_index] +
             "&student=" + std::to_string(op.user);
    case HttpOpKind::check_in:
      method = "POST";
      return "/check-in?course=" + courses[op.course_index] +
             "&student=" + std::to_string(op.user);
    case HttpOpKind::fetch:
      return "/doc?course=" + (op.bogus ? "XX" + std::to_string(op.course_index)
                                        : courses[op.course_index]);
  }
  return "/";
}

// What one pass measured, per request in connection order.
struct PassResult {
  std::array<std::vector<double>, kConns> latency_us;
  std::array<std::vector<double>, kConns> late_us;
  std::array<double, 2> cpu_s{};      // per phase, the whole process
  std::array<double, 2> gen_cpu_s{};  // per phase, the load generator's threads
  std::array<double, 2> wall_s{};     // the intervals cpu_s covers
  std::array<std::vector<double>, kConns> handler_us;
  std::uint64_t bytes_out = 0;
  std::uint64_t search_results = 0;
  std::uint64_t overload_rejects = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t promoted_head = 0;
  std::uint64_t promoted_tail = 0;
};

// CPU time `thread` has used so far, in seconds (0 once it has ended).
double thread_cpu_s(pthread_t thread) {
  clockid_t clock{};
  timespec ts{};
  if (pthread_getcpuclockid(thread, &clock) != 0 || clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// CPU time the calling thread has used, in seconds.
double own_cpu_s() { return thread_cpu_s(pthread_self()); }

// Generator, writing side of one connection: sends each request at its
// scheduled time.
void write_requests(http::HttpClient& client, const std::vector<Op>& ops,
                    const std::vector<std::string>& courses,
                    const std::vector<std::string>& queries, std::int64_t start_ns,
                    std::vector<double>& late_us) {
  late_us.assign(ops.size(), 0);
  std::string method;
  const auto epoch = Clock::now() - std::chrono::nanoseconds(now_ns());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::int64_t due = start_ns + ops[i].op.at_micros * 1000;
    std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(due));
    const std::string target = target_of(ops[i].op, courses, queries, method);
    late_us[i] = ns_to_us(now_ns() - due);
    // A dead connection fails the reader's next read; stop sending.
    if (!client.send_request(method, target).is_ok()) break;
  }
}

// Generator, reading side of one connection: takes the responses in order,
// times each from its request's scheduled send time and checks its status.
void read_responses(http::HttpClient& client, const std::vector<Op>& ops,
                    const std::vector<std::uint64_t>& span_ids, std::int64_t start_ns,
                    std::vector<double>& latency_us, Report& r, std::mutex& r_mu) {
  latency_us.assign(ops.size(), 0);
  const bool traced = SpanLog::global().enabled();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    auto rsp = client.read_response();
    const std::int64_t done = now_ns();
    const std::int64_t due = start_ns + ops[i].op.at_micros * 1000;
    latency_us[i] = ns_to_us(done - due);
    if (traced) {
      SpanLog::global().record(Span{"http.request", span_ids[i], 0, ops[i].group, due, done});
    }
    const int want = ops[i].op.bogus ? 404 : 200;
    if (!rsp || rsp.value().status != want) {
      std::lock_guard lock(r_mu);
      r.fail(std::string(workload::http_op_kind_name(ops[i].op.kind)) + " answered " +
             (rsp ? std::to_string(rsp.value().status) : rsp.error().message) +
             ", expected " + std::to_string(want));
      if (!rsp) {
        // The connection is gone; the rest of its requests fail too.
        for (std::size_t k = i + 1; k < ops.size(); ++k) r.fail("connection lost");
        break;
      }
    }
  }
}

PassResult run_pass(const workload::LibraryCorpusConfig& corpus_cfg,
                    const std::vector<std::vector<Op>>& per_conn,
                    const std::vector<std::string>& queries, std::int64_t phase2_start_us,
                    Report& r) {
  // Span ids of the requests, from the same counter as every other span.
  RequestSpanIds request_ids;
  if (SpanLog::global().enabled()) {
    for (std::size_t c = 0; c < kConns; ++c) {
      for (std::size_t i = 0; i < per_conn[c].size(); ++i) {
        request_ids[c].push_back(SpanLog::global().next_id());
      }
    }
  }
  const std::unique_ptr<Stack> stack = build_stack(corpus_cfg, per_conn, request_ids);

  auto& reg = obs::MetricsRegistry::global();
  auto value = [&](const char* name, const obs::Labels& labels = {}) {
    return reg.counter(name, labels).value();
  };
  PassResult out;
  const std::uint64_t bytes0 = value("http.bytes_out");
  const std::uint64_t results0 = value("http.search.results");
  const std::uint64_t rejects0 = value("http.overload_rejects");
  const std::uint64_t parse0 = value("http.parse_errors");
  const std::uint64_t head0 = value("obs.trace.promoted", {{"reason", "head"}});
  const std::uint64_t tail0 = value("obs.trace.promoted", {{"reason", "tail_latency"}});

  const std::int64_t start_ns = now_ns() + 50'000'000;
  std::mutex r_mu;
  // The load generator: a writer and a reader thread per connection. Each
  // leaves its total CPU time in gen_end_cpu when it ends.
  std::vector<std::thread> gen;
  std::vector<double> gen_end_cpu(2 * kConns, 0);
  for (std::size_t c = 0; c < kConns; ++c) {
    gen.emplace_back([&, c] {
      write_requests(stack->clients[c], per_conn[c], stack->courses, queries, start_ns,
                     out.late_us[c]);
      gen_end_cpu[2 * c] = own_cpu_s();
    });
    gen.emplace_back([&, c] {
      read_responses(stack->clients[c], per_conn[c], request_ids[c], start_ns,
                     out.latency_us[c], r, r_mu);
      gen_end_cpu[2 * c + 1] = own_cpu_s();
    });
  }
  auto gen_cpu = [&] {
    double sum = 0;
    for (auto& t : gen) sum += thread_cpu_s(t.native_handle());
    return sum;
  };
  // CPU time of each phase, sampled at the scheduled phase boundary; the
  // generator's part is read off its threads' own clocks at the same points.
  const auto epoch = Clock::now() - std::chrono::nanoseconds(now_ns());
  std::this_thread::sleep_until(epoch + std::chrono::nanoseconds(start_ns));
  const double c0 = cpu_seconds();
  const double g0 = gen_cpu();
  const std::int64_t w0 = now_ns();
  std::this_thread::sleep_until(
      epoch + std::chrono::nanoseconds(start_ns + (phase2_start_us - kPhaseGapUs / 2) * 1000));
  const double c1 = cpu_seconds();
  const double g1 = gen_cpu();
  const std::int64_t w1 = now_ns();
  for (auto& t : gen) t.join();
  double g2 = 0;
  for (double g : gen_end_cpu) g2 += g;
  out.cpu_s = {c1 - c0, cpu_seconds() - c1};
  out.gen_cpu_s = {g1 - g0, g2 - g1};
  out.wall_s = {ns_to_s(w1 - w0), ns_to_s(now_ns() - w1)};

  out.bytes_out = value("http.bytes_out") - bytes0;
  out.search_results = value("http.search.results") - results0;
  out.overload_rejects = value("http.overload_rejects") - rejects0;
  out.parse_errors = value("http.parse_errors") - parse0;
  out.promoted_head = value("obs.trace.promoted", {{"reason", "head"}}) - head0;
  out.promoted_tail = value("obs.trace.promoted", {{"reason", "tail_latency"}}) - tail0;
  stack->server->stop();
  out.handler_us = std::move(stack->handler_us);
  return out;
}

// Gathers one per-request series of a phase (optionally of one kind)
// across connections.
std::vector<double> gather(const std::vector<std::vector<Op>>& per_conn,
                           const std::array<std::vector<double>, kConns>& series,
                           std::size_t phase,
                           std::optional<HttpOpKind> kind = std::nullopt) {
  std::vector<double> v;
  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::size_t i = 0; i < series[c].size() && i < per_conn[c].size(); ++i) {
      const Op& op = per_conn[c][i];
      if (op.phase == phase && (!kind || op.op.kind == *kind)) v.push_back(series[c][i]);
    }
  }
  return v;
}

// Median over kWindowUs windows of each window's tail percentile, with the
// number of requests behind it. Windows too small for a p99 with ten
// samples beyond (a phase's ragged last one) are left out.
Percentile windowed_p99(const std::vector<std::vector<Op>>& per_conn,
                        const std::array<std::vector<double>, kConns>& latency,
                        std::size_t phase) {
  std::map<std::int64_t, std::vector<double>> windows;
  std::size_t n = 0;
  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::size_t i = 0; i < latency[c].size(); ++i) {
      const Op& op = per_conn[c][i];
      if (op.phase != phase) continue;
      windows[op.op.at_micros / kWindowUs].push_back(latency[c][i]);
      ++n;
    }
  }
  std::vector<double> per_window;
  for (auto& [w, v] : windows) {
    const Percentile p = tail(std::move(v));
    if (p.q == 0.99) per_window.push_back(p.value);
  }
  Percentile out;
  out.value = median_of(per_window);
  out.q = 0.99;
  out.samples = n;
  return out;
}

workload::LibraryCorpusConfig corpus_config(std::uint64_t seed) {
  workload::LibraryCorpusConfig cfg;
  cfg.courses = 500;
  cfg.shards = 3;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

double time_gateway_setup(std::uint64_t seed) {
  const std::vector<std::vector<Op>> no_ops(kConns);
  const RequestSpanIds no_ids;
  const std::int64_t t0 = now_ns();
  const std::unique_ptr<Stack> stack = build_stack(corpus_config(seed), no_ops, no_ids);
  return ns_to_s(now_ns() - t0);
}

void run_gateway_zipf(const Options& opt, Report& r) {
  const double phase_s = opt.seconds / 2;
  const std::array<std::size_t, 2> phase_ops = {
      static_cast<std::size_t>(kRates[0] * phase_s),
      static_cast<std::size_t>(kRates[1] * phase_s)};

  const workload::LibraryCorpusConfig corpus_cfg = corpus_config(opt.seed);

  // One ledger-consistent trace for both phases, drawn at the higher rate;
  // the first phase's inter-arrival gaps are stretched to its lower rate.
  workload::HttpTraceConfig trace_cfg;
  trace_cfg.users = 100'000;
  trace_cfg.courses = corpus_cfg.courses;
  trace_cfg.ops = phase_ops[0] + phase_ops[1];
  trace_cfg.rate_qps = kRates[1];
  trace_cfg.seed = opt.seed * 0x9e3779b97f4a7c15ull + 1;
  const auto trace = workload::open_loop_http_trace(trace_cfg);
  const auto queries = workload::query_pool(corpus_cfg, 64);

  std::vector<std::vector<Op>> per_conn(kConns);
  std::int64_t prev_drawn = 0;
  std::int64_t t = 0;
  std::int64_t phase2_start_us = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t phase = i < phase_ops[0] ? 0 : 1;
    const std::int64_t gap = trace[i].at_micros - prev_drawn;
    prev_drawn = trace[i].at_micros;
    if (i == phase_ops[0]) {
      t += kPhaseGapUs;
      phase2_start_us = t;
    }
    t += phase == 0 ? static_cast<std::int64_t>(static_cast<double>(gap) * kRates[1] /
                                                kRates[0])
                    : gap;
    Op op{trace[i], phase, i + 1};
    op.op.at_micros = t;
    per_conn[op.op.user % kConns].push_back(op);
  }
  std::printf("gateway_zipf: %zu + %zu requests at %.0f then %.0f req/s over %zu "
              "connections, seed %llu\n",
              phase_ops[0], phase_ops[1], kRates[0], kRates[1], kConns,
              static_cast<unsigned long long>(opt.seed));

  // End-to-end figures always come from an untraced pass.
  SpanLog::global().enable(false);
  const PassResult plain = run_pass(corpus_cfg, per_conn, queries, phase2_start_us, r);
  r.attempted += trace.size();
  r.mark_rss();

  auto check_generator = [&](const PassResult& pass, const char* label) {
    for (std::size_t p = 0; p < 2; ++p) {
      const std::vector<double> late = gather(per_conn, pass.late_us, p);
      const double p50 = median(late).value;
      std::printf("  %s pass, %s: generator late p50 %.1f us, p99 %.1f us\n", label,
                  kRateTags[p], p50, tail(late).value);
      if (p50 > kMaxGenLateP50Us) {
        r.invalid.push_back(std::string("generator fell behind at ") + kRateTags[p] +
                            " (" + label + " pass): late p50 " + std::to_string(p50) +
                            " us");
      }
    }
  };
  check_generator(plain, "untraced");

  static const std::array<const char*, 2> kLeg = {"first", "second"};
  for (std::size_t p = 0; p < 2; ++p) {
    const std::vector<double> all = gather(per_conn, plain.latency_us, p);
    const Percentile p50 = median(all);
    const Percentile p99 = windowed_p99(per_conn, plain.latency_us, p);
    const Percentile all99 = tail(all);
    std::printf("  http_p50_us_%s = %.1f us (n=%zu), http_p99_us_%s = %.1f us (median over "
                "500 ms windows, n=%zu); whole-phase p%.4g = %.1f us\n",
                kRateTags[p], p50.value, p50.samples, kRateTags[p], p99.value, p99.samples,
                all99.q * 100, all99.value);
    r.e2e(std::string(kLeg[p]) + ".p50_us", p50.value, "us", p50.samples);
    r.e2e(std::string(kLeg[p]) + ".p99_us", p99.value, "us", p99.samples);
    // Cores busy serving the phase's load: the process's CPU minus the load
    // generator's, over the phase's wall time.
    const double server_cpu = plain.cpu_s[p] - plain.gen_cpu_s[p];
    std::printf("  %s: server %.3f cores, load generator %.3f cores\n", kRateTags[p],
                server_cpu / plain.wall_s[p], plain.gen_cpu_s[p] / plain.wall_s[p]);
    r.e2e(std::string(kLeg[p]) + ".cpu_s", server_cpu, "s", 1);
    r.e2e(std::string(kLeg[p]) + ".cost", server_cpu / plain.wall_s[p], "ratio",
          p50.samples);
    r.e2e(std::string("workload.gen_cores_") + kRateTags[p],
          plain.gen_cpu_s[p] / plain.wall_s[p], "ratio", 1);
  }
  if (!opt.trace) return;

  // Traced pass: same inputs, spans on.
  SpanLog::global().enable(true);
  const PassResult traced = run_pass(corpus_cfg, per_conn, queries, phase2_start_us, r);
  SpanLog::global().enable(false);
  r.attempted += trace.size();
  check_generator(traced, "traced");

  static const std::array<std::pair<HttpOpKind, const char*>, 3> kKinds = {
      {{HttpOpKind::search, "search"},
       {HttpOpKind::check_out, "check-out"},
       {HttpOpKind::fetch, "doc"}}};
  for (std::size_t p = 0; p < 2; ++p) {
    const std::string sfx = std::string("_") + kRateTags[p];
    for (const auto& [kind, name] : kKinds) {
      r.layer_pcts(std::string("http.handler_us.") + name, sfx,
                   gather(per_conn, traced.handler_us, p, kind), "us");
    }
    // Outside-handler time: each request's client latency minus its own
    // handler span, matched per connection in order.
    std::vector<double> outside;
    for (std::size_t c = 0; c < kConns; ++c) {
      std::vector<double> conn_outside;
      if (!outside_handler(traced.latency_us[c], traced.handler_us[c], conn_outside)) {
        r.invalid.push_back("handler spans do not match requests on connection " +
                            std::to_string(c));
        continue;
      }
      for (std::size_t i = 0; i < conn_outside.size(); ++i) {
        if (per_conn[c][i].phase == p) outside.push_back(conn_outside[i]);
      }
    }
    r.layer_pcts("http.outside_handler_us", sfx, outside, "us");
    r.layer_pcts("http.client_us", sfx, gather(per_conn, traced.latency_us, p), "us");
    const Percentile late = tail(gather(per_conn, traced.late_us, p));
    r.layer("workload.gen_late_us.p99" + sfx, late.value, "us", late.samples);
  }
  std::vector<double> fetch_us;
  for (const Span& s : SpanLog::global().spans()) {
    if (std::string_view(s.name) == "storage.doc_fetch") {
      fetch_us.push_back(ns_to_us(s.end_ns - s.start_ns));
    }
  }
  r.layer_pcts("storage.doc_fetch_us", "", fetch_us, "us");

  std::size_t searches = 0;
  for (const auto& conn : per_conn) {
    for (const Op& op : conn) searches += op.op.kind == HttpOpKind::search;
  }
  const double n = static_cast<double>(trace.size());
  r.layer("http.bytes_out_per_req", static_cast<double>(traced.bytes_out) / n, "B");
  r.layer("http.search.results_per_query",
          static_cast<double>(traced.search_results) / static_cast<double>(searches),
          "count");
  r.layer("http.overload_rejects", static_cast<double>(traced.overload_rejects), "count");
  r.layer("http.parse_errors", static_cast<double>(traced.parse_errors), "count");
  r.layer("obs.trace.promoted.head", static_cast<double>(traced.promoted_head), "count");
  r.layer("obs.trace.promoted.tail", static_cast<double>(traced.promoted_tail), "count");

  // Tracing overhead: the traced pass's client p50 at the lower rate over
  // the untraced one's.
  const double plain_p50 = median(gather(per_conn, plain.latency_us, 0)).value;
  const double traced_p50 = median(gather(per_conn, traced.latency_us, 0)).value;
  r.layer("obs.trace_overhead_frac.http", traced_p50 / plain_p50 - 1, "ratio");
}

}  // namespace perfbench
