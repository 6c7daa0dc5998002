// Tests for src/common: Status/Result, RNG, time helpers, statistics,
// CompactArray and FlatMap.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/compact_array.h"
#include "common/flat_map.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"

namespace lazyrep {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_FALSE(st.IsAbort());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("item 7");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "item 7");
  EXPECT_EQ(st.ToString(), "NotFound: item 7");
}

TEST(StatusTest, AbortClassification) {
  EXPECT_TRUE(Status::DeadlockAbort().IsAbort());
  EXPECT_TRUE(Status::ExternalAbort().IsAbort());
  EXPECT_FALSE(Status::Internal("x").IsAbort());
  EXPECT_FALSE(Status::OK().IsAbort());
}

TEST(StatusTest, EqualityComparesCodes) {
  EXPECT_EQ(Status::DeadlockAbort("a"), Status::DeadlockAbort("b"));
  EXPECT_FALSE(Status::DeadlockAbort() == Status::ExternalAbort());
}

TEST(StatusTest, CopyIsCheap) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
}

Status FailingHelper() { return Status::InvalidArgument("bad"); }
Status Propagates() {
  LAZYREP_RETURN_IF_ERROR(FailingHelper());
  return Status::Internal("unreached");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 5;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(*r, 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}
Result<int> QuarterOf(int x) {
  LAZYREP_ASSIGN_OR_RETURN(int h, HalfOf(x));
  return HalfOf(h);
}

TEST(ResultTest, AssignOrReturnThreadsValues) {
  EXPECT_EQ(QuarterOf(8).value(), 2);
  EXPECT_EQ(QuarterOf(6).status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next32() == b.Next32());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
  }
}

TEST(RngTest, UniformCoversInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(3, 7));
  EXPECT_EQ(seen, (std::set<int64_t>{3, 4, 5, 6, 7}));
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyUnbiased) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng a = parent.Split();
  Rng b = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next32() == b.Next32());
  EXPECT_LT(same, 4);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(SimTimeTest, UnitConversions) {
  EXPECT_EQ(Millis(1.0), kMillisecond);
  EXPECT_EQ(Micros(1.0), kMicrosecond);
  EXPECT_EQ(Seconds(1.0), kSecond);
  EXPECT_EQ(Millis(0.15), 150 * kMicrosecond);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
}

TEST(SimTimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(Seconds(1.5)), "1.500s");
  EXPECT_EQ(FormatDuration(Millis(12.5)), "12.500ms");
  EXPECT_EQ(FormatDuration(Micros(3)), "3.000us");
  EXPECT_EQ(FormatDuration(7), "7ns");
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, MergeMatchesCombinedStream) {
  Summary all, a, b;
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    double x = rng.NextDouble() * 10;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryTest, MergeWithEmpty) {
  Summary a, empty;
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(PercentileTest, ExactPercentiles) {
  PercentileTracker t;
  for (int i = 100; i >= 1; --i) t.Add(i);
  EXPECT_DOUBLE_EQ(t.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.Percentile(100), 100.0);
  EXPECT_NEAR(t.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(t.Percentile(90), 90.1, 0.2);
}

TEST(PercentileTest, EmptyReturnsZero) {
  PercentileTracker t;
  EXPECT_EQ(t.Percentile(50), 0.0);
}

TEST(LogHistogramTest, BucketBoundaries) {
  LogHistogram h(1.0, 8);
  EXPECT_DOUBLE_EQ(h.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BucketLow(3), 4.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(3), 8.0);
}

TEST(LogHistogramTest, ValuesLandInTheRightBuckets) {
  LogHistogram h(1.0, 8);
  h.Add(0.5);   // [0,1)
  h.Add(1.0);   // [1,2)
  h.Add(1.9);   // [1,2)
  h.Add(5.0);   // [4,8)
  h.Add(1e9);   // Clamped to the last bucket.
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.bucket_count(7), 1);
}

TEST(LogHistogramTest, ApproxQuantileWithinBucketResolution) {
  LogHistogram h(0.1, 24);
  Rng rng(5);
  PercentileTracker exact;
  for (int i = 0; i < 20000; ++i) {
    double x = rng.Exponential(10.0);
    h.Add(x);
    exact.Add(x);
  }
  // The approximation returns a bucket upper edge: within 2x of exact.
  double approx = h.ApproxQuantile(0.95);
  double truth = exact.Percentile(95);
  EXPECT_GE(approx, truth * 0.99);
  EXPECT_LE(approx, truth * 2.1);
}

TEST(LogHistogramTest, ToStringShowsNonEmptyBuckets) {
  LogHistogram h(1.0, 8);
  h.Add(0.5);
  h.Add(3.0);
  std::string s = h.ToString();
  EXPECT_NE(s.find("#"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
}

TEST(LogHistogramTest, EmptyQuantileIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.ApproxQuantile(0.5), 0.0);
  EXPECT_EQ(h.ApproxQuantile(0.0), 0.0);
  EXPECT_EQ(h.ApproxQuantile(1.0), 0.0);
}

// Satellite regression: q=0 mirrors PercentileTracker::Percentile(0) (the
// minimum sample's bucket) instead of falling through to the cumulative
// scan, which reported the first occupied bucket's *upper* edge.
TEST(LogHistogramTest, QuantileBoundarySemantics) {
  LogHistogram h(1.0, 8);  // Bucket 0 = [0,1), 1 = [1,2), 2 = [2,4)...
  h.Add(2.5);
  h.Add(3.0);
  h.Add(3.5);
  // q=0 -> lower edge of the first occupied bucket (here [2,4)): the
  // minimum is >= 2, matching Percentile(0)'s "smallest sample" reading.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 2.0);
  // q in (0,1] -> upper edge of the covering bucket.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 4.0);
  // Out-of-range q clamps rather than misindexing.
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(-0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(2.0), 4.0);
}

TEST(LogHistogramTest, SingleSampleQuantiles) {
  LogHistogram h(1.0, 8);
  h.Add(0.5);  // Bucket 0 = [0,1).
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(1.0), 1.0);
}

TEST(StringsTest, StrPrintf) {
  EXPECT_EQ(StrPrintf("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrPrintf("%s", ""), "");
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(StringsTest, StrJoin) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(StrJoin(v, ", "), "1, 2, 3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
}

TEST(CompactArrayTest, EmptyArrayAllocatesNothing) {
  CompactArray<int> a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.begin(), a.end());
  EXPECT_EQ(CompactArray<int>(std::vector<int>{}).begin(), nullptr);
  EXPECT_EQ(sizeof(CompactArray<int>), sizeof(void*));
}

TEST(CompactArrayTest, KeepsElementsInOrder) {
  CompactArray<int> a = {4, 1, 4};
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(std::vector<int>(a.begin(), a.end()), (std::vector<int>{4, 1, 4}));
  EXPECT_EQ(a, (std::vector<int>{4, 1, 4}));
  EXPECT_FALSE(a == (std::vector<int>{4, 1}));
}

TEST(CompactArrayTest, CopiesAreDeepAndMovesSteal) {
  CompactArray<std::pair<int, int64_t>> a = {{1, 10}, {2, 20}};
  CompactArray<std::pair<int, int64_t>> copy = a;
  EXPECT_EQ(copy, a);
  EXPECT_NE(copy.begin(), a.begin());
  CompactArray<std::pair<int, int64_t>> moved = std::move(a);
  EXPECT_EQ(moved, copy);
  EXPECT_TRUE(a.empty());  // NOLINT: moved-from is empty by contract.
  moved = CompactArray<std::pair<int, int64_t>>{{3, 30}};
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.begin()->second, 30);
  moved = moved;  // Self-assignment keeps the contents.
  EXPECT_EQ(moved.begin()->first, 3);
}

TEST(FlatMapTest, EmptyMapFindsNothing) {
  FlatMap<int, int64_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(3), m.end());
  EXPECT_EQ(m.count(3), 0u);
}

TEST(FlatMapTest, FindAndCountOnPresentAndMissingKeys) {
  FlatMap<int, int64_t> m = {{5, 50}, {1, 10}, {9, 90}};
  ASSERT_EQ(m.size(), 3u);
  auto it = m.find(5);
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->second, 50);
  EXPECT_EQ(m.count(1), 1u);
  EXPECT_EQ(m.at(9), 90);
  // Below, between and above the stored keys.
  for (int missing : {0, 2, 6, 10}) {
    EXPECT_EQ(m.find(missing), m.end()) << missing;
    EXPECT_EQ(m.count(missing), 0u) << missing;
  }
}

TEST(FlatMapTest, IteratesInAscendingKeyOrder) {
  FlatMap<int, int64_t> m = {{7, 1}, {-2, 2}, {4, 3}};
  std::vector<int> keys;
  for (const auto& [key, value] : m) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<int>{-2, 4, 7}));
}

TEST(FlatMapTest, DuplicateKeysKeepTheFirstLikeStdMap) {
  FlatMap<int, int64_t> m = {{3, 30}, {1, 10}, {3, 31}, {1, 11}, {3, 32}};
  std::map<int, int64_t> reference = {
      {3, 30}, {1, 10}, {3, 31}, {1, 11}, {3, 32}};
  using Entries = std::vector<std::pair<int, int64_t>>;
  EXPECT_EQ(Entries(m.begin(), m.end()),
            Entries(reference.begin(), reference.end()));
  EXPECT_EQ(m.at(3), 30);
  EXPECT_EQ(m.at(1), 10);
}

TEST(FlatMapTest, BuildsFromAStdMapRange) {
  std::map<int, int64_t> source = {{2, 20}, {8, 80}};
  FlatMap<int, int64_t> m(source.begin(), source.end());
  using Entries = std::vector<std::pair<int, int64_t>>;
  EXPECT_EQ(Entries(m.begin(), m.end()),
            Entries(source.begin(), source.end()));
  EXPECT_EQ(m, (FlatMap<int, int64_t>{{8, 80}, {2, 20}}));
}

}  // namespace
}  // namespace lazyrep
