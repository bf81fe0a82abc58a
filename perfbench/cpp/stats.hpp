// Summary statistics shared by every workload: the percentile rule, the
// per-request handler/outside-handler split, and span self time. Pure
// functions over plain vectors so tests/test_stats.cpp can pin them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile as reported: the value, the quantile it was taken at, how
// many samples it summarizes and how many lie strictly beyond it.
struct Percentile {
  double value = 0;
  double q = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

// Minimum samples beyond a reported tail percentile: fewer and the number
// is set by a handful of outliers.
inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank index of quantile q in a sorted sample of size n (n > 0).
inline std::size_t rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

// Nearest-rank quantile q of `sorted` (ascending).
inline Percentile at_quantile(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.q = q;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  const std::size_t i = rank_index(sorted.size(), q);
  p.value = sorted[i];
  p.beyond = sorted.size() - 1 - i;
  return p;
}

inline Percentile median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return at_quantile(v, 0.5);
}

// The tail percentile rule: the highest of `want`, 0.9 and 0.5 that still
// has at least kMinBeyond samples beyond it. A sample too small for even
// the median is reported at 0.5 with its (short) beyond count.
inline Percentile tail(std::vector<double> v, double want = 0.99) {
  std::sort(v.begin(), v.end());
  for (double q : {want, 0.9, 0.5}) {
    if (q > want) continue;
    Percentile p = at_quantile(v, q);
    if (p.beyond >= kMinBeyond) return p;
  }
  return at_quantile(v, 0.5);
}

// Median of per-window values; used to report one steady figure from a run
// cut into equal windows.
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Lowest value (0 for none): the best of repeats of identical work.
inline double min_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// Outside-handler time per request on one connection: the client-measured
// latency minus the server handler span of the same request. Requests on a
// keep-alive connection are handled in order by one worker, so the i-th
// handler span on the connection belongs to the i-th request. Returns
// false (and no output) when the counts differ, i.e. when the server
// answered some request without running the handler.
inline bool outside_handler(const std::vector<double>& client_us,
                            const std::vector<double>& handler_us,
                            std::vector<double>& out) {
  if (client_us.size() != handler_us.size()) return false;
  out.reserve(out.size() + client_us.size());
  for (std::size_t i = 0; i < client_us.size(); ++i) {
    out.push_back(client_us[i] - handler_us[i]);
  }
  return true;
}

// One recorded interval: what ran, when, and which span caused it.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t group = 0;   // shared by every span of one request/txn/push
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// True when no two spans share an id; self_times() needs that to find
// each child's parent.
inline bool unique_ids(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> ids;
  ids.reserve(spans.size());
  for (const Span& s : spans) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

// Self time of every span, in input order: its duration minus the part of
// that interval its direct children cover (overlapping children count
// once; a child sticking out of its parent counts only inside it).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Children grouped by parent id, each group sorted by start.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].parent != spans[b].parent) return spans[a].parent < spans[b].parent;
    return spans[a].start_ns < spans[b].start_ns;
  });
  std::vector<std::size_t> by_id(spans.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(),
            [&](std::size_t a, std::size_t b) { return spans[a].id < spans[b].id; });

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint64_t parent = spans[order[i]].parent;
    std::size_t j = i;
    while (j < order.size() && spans[order[j]].parent == parent) ++j;
    if (parent != 0) {
      auto it = std::lower_bound(by_id.begin(), by_id.end(), parent,
                                 [&](std::size_t k, std::uint64_t id) {
                                   return spans[k].id < id;
                                 });
      if (it != by_id.end() && spans[*it].id == parent) {
        const Span& p = spans[*it];
        std::int64_t covered = 0;
        std::int64_t run_start = 0;
        std::int64_t run_end = 0;
        bool open = false;
        for (std::size_t k = i; k < j; ++k) {
          const std::int64_t s = std::max(spans[order[k]].start_ns, p.start_ns);
          const std::int64_t e = std::min(spans[order[k]].end_ns, p.end_ns);
          if (e <= s) continue;
          if (open && s <= run_end) {
            run_end = std::max(run_end, e);
            continue;
          }
          if (open) covered += run_end - run_start;
          run_start = s;
          run_end = e;
          open = true;
        }
        if (open) covered += run_end - run_start;
        self[*it] -= covered;
      }
    }
    i = j;
  }
  return self;
}

}  // namespace perfbench
