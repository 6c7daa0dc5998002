// Tests for the metrics collector (src/core/metrics.*): propagation
// bookkeeping, per-site counters, percentile plumbing.

#include <thread>

#include <gtest/gtest.h>

#include "core/metrics.h"

namespace lazyrep::core {
namespace {

GlobalTxnId Id(SiteId site, int64_t seq) { return GlobalTxnId{site, seq}; }

TEST(MetricsTest, CommitAndAbortCounters) {
  MetricsCollector m(3);
  m.OnPrimaryCommit(0, Millis(10));
  m.OnPrimaryCommit(0, Millis(20));
  m.OnPrimaryCommit(2, Millis(30));
  m.OnPrimaryAbort(1);
  EXPECT_EQ(m.committed_at(0), 2);
  EXPECT_EQ(m.committed_at(1), 0);
  EXPECT_EQ(m.committed_at(2), 1);
  EXPECT_EQ(m.aborted_at(1), 1);
  EXPECT_EQ(m.total_committed(), 3);
  EXPECT_EQ(m.total_aborted(), 1);
  EXPECT_DOUBLE_EQ(m.response_ms().mean(), 20.0);
}

TEST(MetricsTest, PropagationCompletesAfterExpectedApplications) {
  MetricsCollector m(3);
  m.RegisterPropagation(Id(0, 1), /*expected_sites=*/2,
                        /*commit_time=*/Millis(100));
  EXPECT_EQ(m.pending_propagations(), 1u);
  m.OnSecondaryApplied(Id(0, 1), Millis(150));
  EXPECT_EQ(m.pending_propagations(), 1u);  // One site left.
  EXPECT_EQ(m.full_propagation_ms().count(), 0);
  m.OnSecondaryApplied(Id(0, 1), Millis(300));
  EXPECT_EQ(m.pending_propagations(), 0u);
  EXPECT_EQ(m.full_propagation_ms().count(), 1);
  EXPECT_DOUBLE_EQ(m.full_propagation_ms().mean(), 200.0);  // 300-100.
  // Per-application delays: 50 and 200.
  EXPECT_EQ(m.per_site_apply_ms().count(), 2);
  EXPECT_DOUBLE_EQ(m.per_site_apply_ms().mean(), 125.0);
}

TEST(MetricsTest, ZeroExpectedSitesIsNotRegistered) {
  MetricsCollector m(1);
  m.RegisterPropagation(Id(0, 1), 0, 0);
  EXPECT_EQ(m.pending_propagations(), 0u);
}

TEST(MetricsTest, UnknownOriginApplicationsAreIgnored) {
  MetricsCollector m(1);
  m.OnSecondaryApplied(Id(0, 99), Millis(5));
  EXPECT_EQ(m.per_site_apply_ms().count(), 0);
}

TEST(MetricsTest, ResponsePercentilesTrackCommits) {
  MetricsCollector m(1);
  for (int i = 1; i <= 100; ++i) m.OnPrimaryCommit(0, Millis(i));
  EXPECT_NEAR(m.response_percentiles().Percentile(50), 50.5, 0.1);
  EXPECT_NEAR(m.response_percentiles().Percentile(99), 99.01, 0.1);
}

// Satellite regression: the snapshot accessors return copies taken under
// the collector's mutex. Pre-fix they returned const references to the
// live aggregates, so a "snapshot" bound before further commits silently
// tracked them (and raced under the threads runtime).
TEST(MetricsTest, SnapshotAccessorsAreStableCopies) {
  MetricsCollector m(1);
  m.OnPrimaryCommit(0, Millis(10));
  const Summary& snapshot = m.response_ms();  // Lifetime-extended copy.
  EXPECT_EQ(snapshot.count(), 1);
  m.OnPrimaryCommit(0, Millis(30));
  EXPECT_EQ(snapshot.count(), 1);  // Pre-fix: 2 (aliased live state).
  EXPECT_DOUBLE_EQ(snapshot.mean(), 10.0);
  EXPECT_EQ(m.response_ms().count(), 2);
}

// TSan coverage: concurrent committer vs. reader. Pre-fix the reader
// iterated live Summary/LogHistogram state while the writer mutated it.
TEST(MetricsTest, ConcurrentReadersAndWritersAreRaceFree) {
  MetricsCollector m(2);
  std::thread writer([&m] {
    for (int i = 1; i <= 2000; ++i) {
      m.OnPrimaryCommit(i % 2, Millis(i % 50 + 1));
      if (i % 3 == 0) m.OnPrimaryAbort(i % 2);
    }
  });
  std::thread reader([&m] {
    for (int i = 0; i < 500; ++i) {
      Summary response = m.response_ms();
      EXPECT_GE(response.count(), 0);
      LogHistogram hist = m.response_histogram();
      EXPECT_GE(hist.ApproxQuantile(0.5), 0.0);
      PercentileTracker pct = m.response_percentiles();
      EXPECT_GE(pct.Percentile(50), 0.0);
      (void)m.full_propagation_ms();
      (void)m.per_site_apply_ms();
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(m.response_ms().count(), 2000);
}

TEST(MetricsTest, RunMetricsToStringMentionsKeyNumbers) {
  RunMetrics metrics;
  metrics.avg_site_throughput = 12.34;
  metrics.abort_rate_pct = 5.6;
  metrics.checked = true;
  metrics.serializable = true;
  std::string s = metrics.ToString();
  EXPECT_NE(s.find("12.34"), std::string::npos);
  EXPECT_NE(s.find("SR"), std::string::npos);
}

}  // namespace
}  // namespace lazyrep::core
