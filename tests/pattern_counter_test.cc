// Tests for the one-shot restriction counters: every strategy agrees
// with the plain group-by oracle on the NULL-free groups, PC sets carry
// the group semantics of Example 2.10, and NULL rows never produce full
// patterns.
#include "pattern/counter.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "pattern/full_pattern_index.h"
#include "tests/differential_harness.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "util/str.h"

namespace pcbl {
namespace {

using testing::OracleGroupBy;

// Random table with optional nulls for property sweeps.
Table RandomTable(int attrs, int64_t rows, int domain, double null_prob,
                  uint64_t seed) {
  std::vector<std::string> names;
  for (int a = 0; a < attrs; ++a) names.push_back(StrCat("a", a));
  auto b = TableBuilder::Create(names);
  PCBL_CHECK(b.ok());
  for (int a = 0; a < attrs; ++a) {
    for (int v = 0; v < domain; ++v) {
      b->InternValue(a, StrCat("v", v));
    }
  }
  Rng rng(seed);
  std::vector<ValueId> codes(static_cast<size_t>(attrs));
  for (int64_t r = 0; r < rows; ++r) {
    for (int a = 0; a < attrs; ++a) {
      codes[static_cast<size_t>(a)] =
          rng.Bernoulli(null_prob)
              ? kNullValue
              : rng.UniformInt(static_cast<uint32_t>(domain));
    }
    PCBL_CHECK(b->AddRowCodes(codes).ok());
  }
  return b->Build();
}

// The fully-bound groups of the PC set over `mask` under `strategy`
// must be the oracle's groups, in the oracle's (ascending key) order,
// and |P_S| must match the PC set's size.
void ExpectMatchesReference(const Table& t, AttrMask mask,
                            RestrictionStrategy strategy) {
  const GroupCounts gc = ComputePatternCounts(t, mask, strategy);
  EXPECT_EQ(CountDistinctPatterns(t, mask, -1, strategy), gc.num_groups());
  const auto ref = OracleGroupBy(t, mask);
  auto it = ref.begin();
  for (int64_t g = 0; g < gc.num_groups(); ++g) {
    std::vector<ValueId> key(gc.key(g), gc.key(g) + gc.key_width());
    if (std::any_of(key.begin(), key.end(), IsNull)) continue;
    ASSERT_NE(it, ref.end()) << "unexpected group";
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(gc.count(g), it->second);
    ++it;
  }
  EXPECT_EQ(it, ref.end()) << "missing groups";
}

TEST(GroupCountsTest, Fig2PairCountsMatchExample210) {
  Table t = workload::MakeFig2Demo();
  // S = {age group, marital status}: 3 patterns of count 6 each.
  GroupCounts gc = ComputePatternCounts(t, AttrMask::FromIndices({1, 3}));
  EXPECT_EQ(gc.num_groups(), 3);
  for (int64_t g = 0; g < gc.num_groups(); ++g) {
    EXPECT_EQ(gc.count(g), 6);
  }
  // S' = {gender, age group}: sizes 3,3,6,6.
  GroupCounts gc2 = ComputePatternCounts(t, AttrMask::FromIndices({0, 1}));
  EXPECT_EQ(gc2.num_groups(), 4);
  std::multiset<int64_t> counts;
  for (int64_t g = 0; g < gc2.num_groups(); ++g) {
    counts.insert(gc2.count(g));
  }
  EXPECT_EQ(counts, (std::multiset<int64_t>{3, 3, 6, 6}));
}

TEST(GroupCountsTest, TotalCountExcludesNullRows) {
  Table t = RandomTable(3, 500, 4, 0.2, 99);
  AttrMask mask = AttrMask::FromIndices({0, 2});
  // Over a pair, the stored restrictions are exactly the NULL-free rows.
  GroupCounts gc = ComputePatternCounts(t, mask);
  int64_t expected = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (!IsNull(t.value(r, 0)) && !IsNull(t.value(r, 2))) ++expected;
  }
  EXPECT_EQ(gc.total_count(), expected);
}

TEST(GroupCountsTest, ToPatternRoundTrip) {
  Table t = workload::MakeFig2Demo();
  GroupCounts gc = ComputePatternCounts(t, AttrMask::FromIndices({1, 3}));
  for (int64_t g = 0; g < gc.num_groups(); ++g) {
    Pattern p = gc.ToPattern(g);
    EXPECT_EQ(CountMatches(t, p), gc.count(g));
  }
}

// Property sweep over strategies x table shapes: every strategy matches
// the brute-force reference.
struct CounterCase {
  RestrictionStrategy strategy;
  int attrs;
  int64_t rows;
  int domain;
  double null_prob;
};

class CounterPropertyTest : public ::testing::TestWithParam<CounterCase> {};

TEST_P(CounterPropertyTest, MatchesBruteForce) {
  const CounterCase& c = GetParam();
  Table t = RandomTable(c.attrs, c.rows, c.domain, c.null_prob, 4242);
  // Masks of different arity; one attribute stores no restriction.
  EXPECT_EQ(ComputePatternCounts(t, AttrMask::Single(0), c.strategy)
                .num_groups(),
            0);
  std::vector<AttrMask> masks = {
      AttrMask::FromIndices({0, c.attrs - 1}),
      AttrMask::All(c.attrs),
  };
  for (AttrMask m : masks) {
    ExpectMatchesReference(t, m, c.strategy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CounterPropertyTest,
    ::testing::Values(
        CounterCase{RestrictionStrategy::kPacked, 3, 200, 3, 0.0},
        CounterCase{RestrictionStrategy::kPacked, 3, 200, 3, 0.3},
        CounterCase{RestrictionStrategy::kPacked, 5, 1000, 4, 0.05},
        CounterCase{RestrictionStrategy::kMixedRadix, 3, 200, 3, 0.0},
        CounterCase{RestrictionStrategy::kMixedRadix, 5, 1000, 4, 0.3},
        CounterCase{RestrictionStrategy::kMixedRadix, 2, 50, 8, 0.5},
        CounterCase{RestrictionStrategy::kSort, 3, 200, 3, 0.0},
        CounterCase{RestrictionStrategy::kSort, 5, 1000, 4, 0.3},
        CounterCase{RestrictionStrategy::kSort, 2, 50, 8, 0.5},
        CounterCase{RestrictionStrategy::kAuto, 6, 2000, 3, 0.1}));

TEST(FullPatternIndexTest, CountsAndOrder) {
  Table t = workload::MakeFig2Demo();
  FullPatternIndex idx = FullPatternIndex::Build(t);
  // 18 rows, all distinct? Check against reference.
  auto ref = OracleGroupBy(t, AttrMask::All(4));
  EXPECT_EQ(idx.num_patterns(), static_cast<int64_t>(ref.size()));
  EXPECT_EQ(idx.rows_indexed(), 18);
  EXPECT_EQ(idx.rows_skipped(), 0);
  // Descending count order.
  for (int64_t i = 1; i < idx.num_patterns(); ++i) {
    EXPECT_GE(idx.count(i - 1), idx.count(i));
  }
  // Each indexed pattern's count matches a full scan.
  int64_t total = 0;
  for (int64_t i = 0; i < idx.num_patterns(); ++i) {
    Pattern p = idx.ToPattern(i);
    EXPECT_EQ(CountMatches(t, p), idx.count(i));
    total += idx.count(i);
  }
  EXPECT_EQ(total, t.num_rows());
}

TEST(FullPatternIndexTest, NullRowsSkipped) {
  auto b = TableBuilder::Create({"x", "y"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"a", "b"}).ok());
  ASSERT_TRUE(b->AddRow({"a", ""}).ok());
  ASSERT_TRUE(b->AddRow({"a", "b"}).ok());
  Table t = b->Build();
  FullPatternIndex idx = FullPatternIndex::Build(t);
  EXPECT_EQ(idx.num_patterns(), 1);
  EXPECT_EQ(idx.count(0), 2);
  EXPECT_EQ(idx.rows_indexed(), 2);
  EXPECT_EQ(idx.rows_skipped(), 1);
}

}  // namespace
}  // namespace pcbl
