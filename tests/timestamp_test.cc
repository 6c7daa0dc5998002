// Tests for the DAG(T) timestamps (src/core/timestamp.*): the examples
// given below Definition 3.3 in the paper, total-order properties over
// randomly generated timestamp sets, and the epoch extension of §3.3.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/timestamp.h"

namespace lazyrep::core {
namespace {

// Builds a timestamp from (site, lts) pairs at epoch `epoch`.
Timestamp Ts(std::initializer_list<std::pair<int, int64_t>> tuples,
             int64_t epoch = 0) {
  Timestamp out;
  for (auto [site, lts] : tuples) {
    out = out.ExtendedWith(site, lts, epoch);
  }
  return out;
}

TEST(TimestampTest, InitialTimestamp) {
  Timestamp ts = Timestamp::Initial(3);
  EXPECT_EQ(ts.epoch(), 0);
  ASSERT_EQ(ts.tuples().size(), 1u);
  EXPECT_EQ(ts.OwnTuple().site, 3);
  EXPECT_EQ(ts.OwnTuple().lts, 0);
}

TEST(TimestampTest, BumpOwnLts) {
  Timestamp ts = Timestamp::Initial(2);
  ts.BumpOwnLts();
  ts.BumpOwnLts();
  EXPECT_EQ(ts.OwnTuple().lts, 2);
}

TEST(TimestampTest, PaperExample1PrefixIsSmaller) {
  // (s1,1) < (s1,1)(s2,1)
  EXPECT_LT(Ts({{1, 1}}), Ts({{1, 1}, {2, 1}}));
}

TEST(TimestampTest, PaperExample2ReverseSiteOrderAtFirstDifference) {
  // (s1,1)(s3,1) < (s1,1)(s2,1): first difference has sites s3 vs s2, and
  // the LARGER site makes the timestamp SMALLER.
  EXPECT_LT(Ts({{1, 1}, {3, 1}}), Ts({{1, 1}, {2, 1}}));
}

TEST(TimestampTest, PaperExample3CounterBreaksTies) {
  // (s1,1)(s2,1) < (s1,1)(s2,2)
  EXPECT_LT(Ts({{1, 1}, {2, 1}}), Ts({{1, 1}, {2, 2}}));
}

TEST(TimestampTest, Example11Scenario) {
  // §3.2: T1 gets (s1,1); T2, committing at s2 after T1's update applied,
  // gets (s1,1)(s2,1). T1 must order first at s3.
  Timestamp t1 = Ts({{1, 1}});
  Timestamp t2 = Ts({{1, 1}, {2, 1}});
  EXPECT_LT(t1, t2);
  // The intervening T3 at s3 from §3.1's discussion: (s1,1)(s3,1) is
  // serialized before T2 even though s3 > s2.
  Timestamp t3 = Ts({{1, 1}, {3, 1}});
  EXPECT_LT(t1, t3);
  EXPECT_LT(t3, t2);
}

TEST(TimestampTest, EqualityAndSelfComparison) {
  Timestamp a = Ts({{1, 2}, {4, 7}});
  Timestamp b = Ts({{1, 2}, {4, 7}});
  EXPECT_EQ(Timestamp::Compare(a, b), 0);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a < b);
  EXPECT_TRUE(a <= b);
}

TEST(TimestampTest, EpochDominatesVectorComparison) {
  Timestamp small_vector_big_epoch = Ts({{1, 1}}, /*epoch=*/5);
  Timestamp big_vector_small_epoch = Ts({{1, 9}, {2, 9}}, /*epoch=*/4);
  EXPECT_LT(big_vector_small_epoch, small_vector_big_epoch);
}

TEST(TimestampTest, ExtendedWithAppendsOwnTuple) {
  Timestamp parent = Ts({{0, 3}});
  Timestamp child = parent.ExtendedWith(2, 5, 7);
  ASSERT_EQ(child.tuples().size(), 2u);
  EXPECT_EQ(child.OwnTuple().site, 2);
  EXPECT_EQ(child.OwnTuple().lts, 5);
  EXPECT_EQ(child.epoch(), 7);
  // Parent unchanged.
  EXPECT_EQ(parent.tuples().size(), 1u);
}

TEST(TimestampTest, InlineStorageSurvivesHeapSpill) {
  // The tuple vector stores up to 4 tuples inline and spills wholly to
  // the heap past that. Copy, extend, and compare must behave
  // identically on both sides of the 4 -> 5 boundary.
  Timestamp ts = Timestamp::Initial(0);  // 1 tuple, inline.
  for (SiteId s = 1; s <= 6; ++s) {
    Timestamp bigger = ts.ExtendedWith(s, s + 10, /*epoch=*/0);
    ASSERT_EQ(bigger.tuples().size(), static_cast<size_t>(s) + 1);
    // A strict prefix is strictly smaller — across the boundary too.
    EXPECT_LT(Timestamp::Compare(ts, bigger), 0);
    // Deep copy at every size: equal now, and still equal after the
    // original grows (no shared storage).
    Timestamp copy = bigger;
    EXPECT_EQ(Timestamp::Compare(copy, bigger), 0);
    EXPECT_TRUE(copy.tuples() == bigger.tuples());
    ts = bigger;  // Move-assign walks the boundary as well.
  }
  ASSERT_EQ(ts.tuples().size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(ts.tuples()[i].site, static_cast<SiteId>(i));
    EXPECT_EQ(ts.tuples()[i].lts, i == 0 ? 0 : static_cast<int64_t>(i) + 10);
  }
  // Equality against a plain tuple vector (the pre-small-vector
  // representation) works on the heap side.
  std::vector<TsTuple> plain(ts.tuples().begin(), ts.tuples().end());
  EXPECT_TRUE(ts.tuples() == plain);
  plain[5].lts = 999;
  EXPECT_FALSE(ts.tuples() == plain);
}

TEST(TimestampTest, SecondaryCommitRuleFromPaper) {
  // §3.2's walkthrough: when T1 (ts (s1,1)) commits at s2 whose LTS is 0,
  // the site timestamp becomes (s1,1)(s2,0).
  Timestamp t1 = Ts({{1, 1}});
  Timestamp site2 = t1.ExtendedWith(2, 0, 0);
  EXPECT_EQ(site2, Ts({{1, 1}, {2, 0}}));
  // T2 commits next at s2: bump s2's counter -> (s1,1)(s2,1).
  site2.BumpOwnLts();
  EXPECT_EQ(site2, Ts({{1, 1}, {2, 1}}));
}

TEST(TimestampTest, ToStringIsReadable) {
  EXPECT_EQ(Ts({{1, 1}, {2, 3}}, 4).ToString(), "e4:(s1,1)(s2,3)");
}

// Generates a random valid timestamp: a strictly increasing site chain
// with arbitrary counters and a small epoch.
Timestamp RandomTimestamp(Rng* rng, int max_sites) {
  Timestamp ts;
  int site = static_cast<int>(rng->Below(3));
  int64_t epoch = static_cast<int64_t>(rng->Below(3));
  int len = 1 + static_cast<int>(rng->Below(4));
  for (int i = 0; i < len && site < max_sites; ++i) {
    ts = ts.ExtendedWith(site, static_cast<int64_t>(rng->Below(4)), epoch);
    site += 1 + static_cast<int>(rng->Below(3));
  }
  return ts;
}

TEST(TimestampPropertyTest, CompareIsAntisymmetric) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    Timestamp a = RandomTimestamp(&rng, 12);
    Timestamp b = RandomTimestamp(&rng, 12);
    int ab = Timestamp::Compare(a, b);
    int ba = Timestamp::Compare(b, a);
    EXPECT_EQ(ab, -ba) << a.ToString() << " vs " << b.ToString();
  }
}

TEST(TimestampPropertyTest, CompareIsTransitiveViaSorting) {
  // Sorting with a non-strict-weak-order comparator is UB; validate the
  // order axioms by sorting many random sets and checking consistency.
  Rng rng(88);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Timestamp> v;
    for (int i = 0; i < 20; ++i) v.push_back(RandomTimestamp(&rng, 10));
    std::sort(v.begin(), v.end(),
              [](const Timestamp& a, const Timestamp& b) {
                return Timestamp::Compare(a, b) < 0;
              });
    for (size_t i = 0; i + 1 < v.size(); ++i) {
      EXPECT_LE(Timestamp::Compare(v[i], v[i + 1]), 0);
    }
    // Pairwise consistency across the sorted order (total order).
    for (size_t i = 0; i < v.size(); ++i) {
      for (size_t j = i + 1; j < v.size(); ++j) {
        EXPECT_LE(Timestamp::Compare(v[i], v[j]), 0);
      }
    }
  }
}

TEST(TimestampPropertyTest, ExtensionPreservesOrder) {
  // If A <= B (timestamps from the same ancestor universe) then
  // A+(own tuple) and B+(own tuple) never invert: the core reason DAG(T)
  // site timestamps stay monotone (§3.2).
  Rng rng(99);
  int own_site = 20;  // Larger than any generated ancestor site.
  for (int i = 0; i < 500; ++i) {
    Timestamp a = RandomTimestamp(&rng, 12);
    Timestamp b = RandomTimestamp(&rng, 12);
    if (a.epoch() != b.epoch()) continue;
    int cmp = Timestamp::Compare(a, b);
    int64_t lts = static_cast<int64_t>(rng.Below(5));
    Timestamp ax = a.ExtendedWith(own_site, lts, a.epoch());
    Timestamp bx = b.ExtendedWith(own_site, lts, b.epoch());
    if (cmp < 0) {
      EXPECT_LT(Timestamp::Compare(ax, bx), 0)
          << a.ToString() << " vs " << b.ToString();
    } else if (cmp == 0) {
      EXPECT_EQ(Timestamp::Compare(ax, bx), 0);
    }
  }
}

TEST(TimestampPropertyTest, SitePrimaryIsSmallerThanLaterSecondaries) {
  // The §3.1 motivation: a primary committed at site s with prefix X gets
  // X+(s,k); any real secondary arriving later extends X with a tuple of
  // a SMALLER site id and must compare larger.
  Rng rng(111);
  for (int i = 0; i < 300; ++i) {
    Timestamp x = RandomTimestamp(&rng, 8);
    int own = 15;
    int parent = 9 + static_cast<int>(rng.Below(4));  // 9..12 < 15
    Timestamp primary =
        x.ExtendedWith(own, static_cast<int64_t>(rng.Below(5)), x.epoch());
    Timestamp secondary = x.ExtendedWith(
        parent, static_cast<int64_t>(rng.Below(5)), x.epoch());
    EXPECT_LT(Timestamp::Compare(primary, secondary), 0)
        << primary.ToString() << " vs " << secondary.ToString();
  }
}

// Channel deltas (DagTEngine::PostToChild / OnMessage): the sender ships
// `next.Suffix(shared)` with `shared = SharedPrefix(sent, next)`; the
// receiver rebuilds from its copy of the channel's previous timestamp.
struct DeltaChannel {
  Timestamp sent;      // Sender's copy of the last timestamp posted.
  Timestamp received;  // Receiver's copy of the last timestamp rebuilt.

  Timestamp Ship(const Timestamp& next) {
    const size_t shared = Timestamp::SharedPrefix(sent, next);
    EXPECT_LE(shared, std::min(sent.tuples().size(), next.tuples().size()));
    Timestamp suffix = next.Suffix(shared);
    EXPECT_EQ(suffix.tuples().size(), next.tuples().size() - shared);
    EXPECT_EQ(suffix.epoch(), next.epoch());
    sent = next;
    received = Timestamp::Rebuild(received, shared, suffix);
    return received;
  }
};

// The next stamp on a channel, drawn from the cases DAG(T) produces and
// a few it never does: equal (a dummy resending the site timestamp), an
// epoch-only change, a bumped last tuple, a longer or shorter vector, a
// rewritten tail, or an unrelated stamp.
Timestamp NextStamp(Rng* rng, const Timestamp& prev) {
  const size_t n = prev.tuples().size();
  switch (rng->Below(7)) {
    case 0:
      return prev;
    case 1: {
      Timestamp out = prev;
      out.set_epoch(prev.epoch() + 1);
      return out;
    }
    case 2: {
      if (n == 0) break;
      Timestamp out = prev.Suffix(0);
      out.BumpOwnLts();
      return out;
    }
    case 3: {
      int site = n == 0 ? 0 : prev.tuples().back().site + 1;
      return prev.ExtendedWith(site + static_cast<int>(rng->Below(3)),
                               static_cast<int64_t>(rng->Below(4)),
                               prev.epoch());
    }
    case 4: {
      // A proper prefix of the previous stamp.
      Timestamp out;
      out.set_epoch(prev.epoch());
      size_t keep = n == 0 ? 0 : rng->Below(n);
      for (size_t i = 0; i < keep; ++i) {
        out = out.ExtendedWith(prev.tuples()[i].site, prev.tuples()[i].lts,
                               prev.epoch());
      }
      return out;
    }
    case 5: {
      // Keep a prefix, then a fresh tail of higher sites.
      size_t keep = n == 0 ? 0 : rng->Below(n + 1);
      Timestamp out;
      out.set_epoch(prev.epoch());
      for (size_t i = 0; i < keep; ++i) {
        out = out.ExtendedWith(prev.tuples()[i].site, prev.tuples()[i].lts,
                               prev.epoch());
      }
      int site = keep == 0 ? 0 : out.tuples().back().site + 1;
      int len = static_cast<int>(rng->Below(4));
      for (int i = 0; i < len; ++i) {
        site += static_cast<int>(rng->Below(2));
        out = out.ExtendedWith(site++, static_cast<int64_t>(rng->Below(9)),
                               prev.epoch());
      }
      return out;
    }
    default:
      break;
  }
  return RandomTimestamp(rng, 12);
}

TEST(TimestampDeltaTest, FirstMessageOnAChannelShipsWhole) {
  DeltaChannel ch;
  Timestamp first = Ts({{0, 3}, {2, 1}, {5, 7}}, /*epoch=*/2);
  EXPECT_EQ(Timestamp::SharedPrefix(ch.sent, first), 0u);
  EXPECT_EQ(first.Suffix(0).tuples(), first.tuples());
  Timestamp got = ch.Ship(first);
  EXPECT_EQ(got.tuples(), first.tuples());
  EXPECT_EQ(got.epoch(), 2);
}

TEST(TimestampDeltaTest, EqualAndEpochOnlyStampsShipNoTuples) {
  DeltaChannel ch;
  Timestamp stamp = Ts({{0, 3}, {2, 1}}, /*epoch=*/4);
  ch.Ship(stamp);
  // A dummy resending the same site timestamp.
  EXPECT_EQ(Timestamp::SharedPrefix(stamp, stamp), 2u);
  EXPECT_TRUE(stamp.Suffix(2).tuples().empty());
  EXPECT_EQ(ch.Ship(stamp).tuples(), stamp.tuples());
  // The source advanced its epoch: no tuple changed.
  Timestamp bumped = stamp;
  bumped.set_epoch(5);
  Timestamp got = ch.Ship(bumped);
  EXPECT_EQ(got.tuples(), stamp.tuples());
  EXPECT_EQ(got.epoch(), 5);
}

TEST(TimestampDeltaTest, ShorterVectorRebuildsFromThePrefixAlone) {
  DeltaChannel ch;
  ch.Ship(Ts({{0, 1}, {1, 1}, {3, 0}}));
  Timestamp shorter = Ts({{0, 1}, {1, 1}});
  EXPECT_EQ(Timestamp::SharedPrefix(ch.sent, shorter), 2u);
  EXPECT_EQ(ch.Ship(shorter).tuples(), shorter.tuples());
  Timestamp other = Ts({{0, 2}, {3, 0}});
  EXPECT_EQ(ch.Ship(other).tuples(), other.tuples());
}

TEST(TimestampDeltaTest, RandomSequencesRebuildExactly) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    DeltaChannel ch;
    Timestamp next = RandomTimestamp(&rng, 12);
    for (int step = 0; step < 40; ++step) {
      Timestamp got = ch.Ship(next);
      ASSERT_EQ(got.tuples(), next.tuples())
          << "trial " << trial << " step " << step << ": "
          << got.ToString() << " rebuilt for " << next.ToString();
      ASSERT_EQ(got.epoch(), next.epoch());
      next = NextStamp(&rng, next);
    }
  }
}

TEST(TimestampDeltaTest, MultiParentSiteKeepsOneStatePerParent) {
  // Site 3's parents 1 and 2 both descend from source 0, so their stamps
  // share the (s0, k) prefix with each other but differ after it. Each
  // channel must rebuild against its own previous stamp; rebuilding
  // against the other parent's would go wrong.
  Rng rng(7);
  DeltaChannel from1;
  DeltaChannel from2;
  bool cross_state_differs = false;
  int64_t k = 1;
  int64_t l1 = 0;
  int64_t l2 = 0;
  for (int step = 0; step < 300; ++step) {
    if (rng.Below(3) == 0) ++k;
    const bool one = rng.Below(2) == 0;
    DeltaChannel& ch = one ? from1 : from2;
    DeltaChannel& other = one ? from2 : from1;
    int64_t& lts = one ? l1 : l2;
    if (rng.Below(2) == 0) ++lts;
    Timestamp next = Ts({{0, k}, {one ? 1 : 2, lts}});
    const size_t shared = Timestamp::SharedPrefix(ch.sent, next);
    if (shared <= other.received.tuples().size()) {
      Timestamp wrong =
          Timestamp::Rebuild(other.received, shared, next.Suffix(shared));
      cross_state_differs |= !(wrong.tuples() == next.tuples());
    }
    ASSERT_EQ(ch.Ship(next).tuples(), next.tuples()) << "step " << step;
  }
  EXPECT_TRUE(cross_state_differs);
}

TEST(TimestampDeltaDeathTest, RebuildChecksCountAndOrder) {
  Timestamp prev = Ts({{0, 1}, {2, 1}});
  EXPECT_DEATH(Timestamp::Rebuild(prev, 3, Timestamp()), "");
  // (s0,1)(s2,1) then (s1,5): the join is not sorted by site.
  EXPECT_DEATH(Timestamp::Rebuild(prev, 2, Ts({{1, 5}})), "");
}

}  // namespace
}  // namespace lazyrep::core
