// Focused tests for the missing-value label semantics (DESIGN.md §5a),
// the search time limit, and cross-implementation invariants.
#include <gtest/gtest.h>

#include "core/label.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "tests/differential_harness.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

// A table with NULLs inside the label attributes:
//   x    y    z
//   a    p    k      (x3)
//   a    -    k      (x2)   <- NULL in y
//   b    p    -      (x1)   <- NULL in z
Table NullyTable() {
  auto b = TableBuilder::Create({"x", "y", "z"});
  PCBL_CHECK(b.ok());
  for (int i = 0; i < 3; ++i) PCBL_CHECK(b->AddRow({"a", "p", "k"}).ok());
  for (int i = 0; i < 2; ++i) PCBL_CHECK(b->AddRow({"a", "", "k"}).ok());
  PCBL_CHECK(b->AddRow({"b", "p", ""}).ok());
  return b->Build();
}

TEST(NullSemanticsTest, PatternCountsStoreArityTwoRestrictions) {
  Table t = NullyTable();
  // S = {x, y}: restrictions are (a,p) x3, (a,NULL) -> arity 1 dropped,
  // (b,p) x1.
  GroupCounts pc = ComputePatternCounts(t, AttrMask::FromIndices({0, 1}));
  EXPECT_EQ(pc.num_groups(), 2);
  int64_t total = pc.total_count();
  EXPECT_EQ(total, 4);  // 3 + 1; the two arity-1 rows carry no PC mass
}

TEST(NullSemanticsTest, RestrictionWithNullKeyStored) {
  Table t = NullyTable();
  // S = {y, z}: restrictions (p,k) x3, (NULL,k) arity 1 dropped,
  // (p,NULL) arity 1 dropped.
  GroupCounts pc = ComputePatternCounts(t, AttrMask::FromIndices({1, 2}));
  EXPECT_EQ(pc.num_groups(), 1);
  EXPECT_EQ(pc.count(0), 3);
  // S = {x, y, z}: (a,p,k) x3, (a,NULL,k) x2 arity 2 kept!, (b,p,NULL)
  // arity 2 kept.
  GroupCounts pc3 = ComputePatternCounts(t, AttrMask::All(3));
  EXPECT_EQ(pc3.num_groups(), 3);
}

TEST(NullSemanticsTest, ContainmentCountsFromLabel) {
  Table t = NullyTable();
  Label l = Label::Build(t, AttrMask::All(3));
  // c(p|S) for p = {x=a, z=k}: containment over PC entries (a,p,k) and
  // (a,NULL,k): 3 + 2 = 5 — which equals the true count.
  auto p = Pattern::Parse(t, {{"x", "a"}, {"z", "k"}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(l.RestrictedCount(*p), 5);
  EXPECT_EQ(CountMatches(t, *p), 5);
  // For p = {y=p}: entries (a,p,k) + (b,p,NULL) = 4 = true count.
  auto py = Pattern::Parse(t, {{"y", "p"}});
  ASSERT_TRUE(py.ok());
  EXPECT_EQ(l.RestrictedCount(*py), 4);
}

TEST(NullSemanticsTest, SingletonLabelsStoreNothing) {
  Table t = NullyTable();
  Label l = Label::Build(t, AttrMask::Single(0));
  EXPECT_EQ(l.size(), 0);
  EXPECT_EQ(CountDistinctPatterns(t, AttrMask::Single(0)), 0);
}

TEST(NullFreeEquivalenceTest, PatternCountsEqualGroupCounts) {
  // On NULL-free data ComputePatternCounts is the plain group-by, in the
  // same ascending key order, for every mask of size >= 2 (the Def. 2.9
  // regime).
  Rng rng(31337);
  auto b = TableBuilder::Create({"a", "b", "c", "d"});
  ASSERT_TRUE(b.ok());
  for (int a = 0; a < 4; ++a) {
    for (int v = 0; v < 3; ++v) {
      b->InternValue(a, std::string(1, static_cast<char>('A' + v)));
    }
  }
  std::vector<ValueId> codes(4);
  for (int r = 0; r < 500; ++r) {
    for (auto& c : codes) c = rng.UniformInt(3);
    ASSERT_TRUE(b->AddRowCodes(codes).ok());
  }
  Table t = b->Build();
  for (uint64_t bits = 0; bits < 16; ++bits) {
    AttrMask mask(bits);
    if (mask.Count() < 2) continue;
    GroupCounts a = ComputePatternCounts(t, mask);
    const auto groups = testing::OracleGroupBy(t, mask);
    ASSERT_EQ(a.num_groups(), static_cast<int64_t>(groups.size()))
        << mask.ToString();
    int64_t g = 0;
    for (const auto& [key, count] : groups) {
      EXPECT_EQ(a.count(g), count);
      EXPECT_EQ(std::vector<ValueId>(a.key(g), a.key(g) + a.key_width()),
                key);
      ++g;
    }
    EXPECT_EQ(CountDistinctPatterns(t, mask),
              static_cast<int64_t>(groups.size()));
  }
}

TEST(SearchTimeLimitTest, TimesOutAndStillReturns) {
  Table t = workload::MakeCreditCard(5000, 3).value();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = 100;
  options.time_limit_seconds = 1e-9;  // immediately exceeded
  SearchResult naive = search.Naive(options);
  EXPECT_TRUE(naive.stats.timed_out);
  // A (possibly degenerate) result is still produced and certified.
  EXPECT_GE(naive.error.max_abs, 0.0);
  SearchResult top_down = search.TopDown(options);
  EXPECT_TRUE(top_down.stats.timed_out);
}

TEST(SearchTimeLimitTest, GenerousLimitDoesNotTrigger) {
  Table t = workload::MakeFig2Demo();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = 5;
  options.time_limit_seconds = 3600;
  SearchResult r = search.TopDown(options);
  EXPECT_FALSE(r.stats.timed_out);
}

TEST(RandomPatternPropertyTest, EstimatesExactInsideSAndBounded) {
  Table t = workload::MakeCompas(3000, 23).value();
  AttrMask s = AttrMask::FromIndices({0, 1, 2});
  Label l = Label::Build(t, s);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    // Random pattern over 1-4 random attributes.
    std::vector<PatternTerm> terms;
    AttrMask used;
    int len = 1 + static_cast<int>(rng.UniformInt(4));
    for (int i = 0; i < len; ++i) {
      int attr = static_cast<int>(
          rng.UniformInt(static_cast<uint32_t>(t.num_attributes())));
      if (used.Test(attr)) continue;
      used.Set(attr);
      terms.push_back(
          PatternTerm{attr, rng.UniformInt(t.DomainSize(attr))});
    }
    auto p = Pattern::Create(terms);
    ASSERT_TRUE(p.ok());
    double est = l.EstimateCount(*p);
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, static_cast<double>(t.num_rows()) + 1e-9);
    if (p->attributes().IsSubsetOf(s)) {
      EXPECT_DOUBLE_EQ(est, static_cast<double>(CountMatches(t, *p)))
          << p->ToString(t);
    }
  }
}

}  // namespace
}  // namespace pcbl
