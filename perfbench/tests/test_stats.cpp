// Pins the benchmark's own arithmetic: the percentile rule and its sample
// counts, the per-request handler/outside-handler match, and span self
// time.
#include <gtest/gtest.h>

#include <numeric>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(rank_index(100, 0.5), 49u);
  EXPECT_EQ(rank_index(100, 0.99), 98u);
  EXPECT_EQ(rank_index(1, 0.99), 0u);
  EXPECT_EQ(rank_index(10, 0.0), 0u);
  EXPECT_EQ(rank_index(10, 1.0), 9u);
}

TEST(Percentile, MedianCountsSamples) {
  const Percentile p = median({5, 1, 3});
  EXPECT_EQ(p.value, 3);
  EXPECT_EQ(p.samples, 3u);
  EXPECT_EQ(p.beyond, 1u);
}

TEST(Percentile, TailKeepsP99WithTenBeyond) {
  // 1000 samples: p99 is the 990th value, with exactly 10 beyond it.
  const Percentile p = tail(iota(1000));
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_EQ(p.value, 990);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.samples, 1000u);
}

TEST(Percentile, TailFallsBackWhenTooFewBeyond) {
  // 999 samples leave only 9 beyond p99, so p90 is the highest reportable.
  const Percentile p = tail(iota(999));
  EXPECT_DOUBLE_EQ(p.q, 0.9);
  EXPECT_EQ(p.value, 900);
  EXPECT_GE(p.beyond, kMinBeyond);
  // 50 samples: only the median has ten beyond it.
  const Percentile small = tail(iota(50));
  EXPECT_DOUBLE_EQ(small.q, 0.5);
  EXPECT_EQ(small.value, 25);
}

TEST(Percentile, TailIgnoresInputOrder) {
  std::vector<double> v = iota(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail(v).value, 1980);
}

TEST(Percentile, MedianOfWindows) {
  EXPECT_EQ(median_of({}), 0);
  EXPECT_EQ(median_of({3, 1, 2}), 2);
  EXPECT_EQ(median_of({4, 1, 3, 2}), 2.5);
}

TEST(OutsideHandler, SubtractsTheSameRequestsHandlerTime) {
  std::vector<double> out;
  ASSERT_TRUE(outside_handler({100, 250, 80}, {40, 200, 79}, out));
  EXPECT_EQ(out, (std::vector<double>{60, 50, 1}));
  // A second connection appends.
  ASSERT_TRUE(outside_handler({10}, {4}, out));
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(out.back(), 6);
}

TEST(OutsideHandler, RejectsCountMismatch) {
  std::vector<double> out;
  EXPECT_FALSE(outside_handler({100, 250}, {40}, out));
  EXPECT_TRUE(out.empty());
}

TEST(SelfTime, LeafIsItsDuration) {
  const std::vector<Span> spans = {{"a", 1, 0, 1, 100, 250}};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{150}));
}

TEST(SelfTime, SubtractsChildren) {
  // root [0,100) with children [10,30) and [50,60): self 70.
  const std::vector<Span> spans = {{"root", 1, 0, 1, 0, 100},
                                   {"c1", 2, 1, 1, 10, 30},
                                   {"c2", 3, 1, 1, 50, 60}};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{70, 20, 10}));
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10,40) and [30,50) cover [10,50): 40 of the root's 100.
  const std::vector<Span> spans = {{"c2", 3, 1, 1, 30, 50},
                                   {"root", 1, 0, 1, 0, 100},
                                   {"c1", 2, 1, 1, 10, 40}};
  EXPECT_EQ(self_times(spans)[1], 60);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  // The child runs [80,130) but only [80,100) lies inside the parent.
  const std::vector<Span> spans = {{"root", 1, 0, 1, 0, 100}, {"c", 2, 1, 1, 80, 130}};
  EXPECT_EQ(self_times(spans)[0], 80);
}

TEST(SelfTime, GrandchildrenOnlyReduceTheirParent) {
  // root [0,100) > mid [10,90) > leaf [20,80): root self 20, mid self 20.
  const std::vector<Span> spans = {{"root", 1, 0, 1, 0, 100},
                                   {"mid", 2, 1, 1, 10, 90},
                                   {"leaf", 3, 2, 1, 20, 80}};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{20, 20, 60}));
}

TEST(SpanIds, DuplicateIdIsDetected) {
  const std::vector<Span> ok = {{"request", 7, 0, 1, 0, 100}, {"handler", 8, 7, 1, 10, 90}};
  EXPECT_TRUE(unique_ids(ok));
  // Ids drawn from two numbering schemes (a request's group, the span
  // counter) can collide.
  const std::vector<Span> clash = {{"request", 1, 0, 1, 0, 100},
                                   {"handler", 2, 1, 1, 10, 90},
                                   {"request", 2, 0, 2, 100, 200}};
  EXPECT_FALSE(unique_ids(clash));
  EXPECT_TRUE(unique_ids({}));
}

}  // namespace
}  // namespace perfbench
