// Tests for group-by counting: the three strategies must agree, the
// early-exit distinct count must be exact within budget, and NULL rows
// must never produce patterns.
#include "pattern/counter.h"

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "pattern/full_pattern_index.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "util/str.h"

namespace pcbl {
namespace {

// Brute-force reference: counts distinct non-null combos via a std::map.
std::map<std::vector<ValueId>, int64_t> ReferenceGroupBy(const Table& t,
                                                         AttrMask mask) {
  std::map<std::vector<ValueId>, int64_t> ref;
  std::vector<int> attrs = mask.ToIndices();
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::vector<ValueId> key;
    bool ok = true;
    for (int a : attrs) {
      ValueId v = t.value(r, a);
      if (IsNull(v)) {
        ok = false;
        break;
      }
      key.push_back(v);
    }
    if (ok) ++ref[key];
  }
  return ref;
}

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

void ExpectMatchesReference(const Table& t, AttrMask mask,
                            GroupByStrategy strategy) {
  GroupCounts gc = ComputeGroupCounts(t, mask, strategy);
  auto ref = ReferenceGroupBy(t, mask);
  ASSERT_EQ(gc.num_groups(), static_cast<int64_t>(ref.size()));
  for (int64_t g = 0; g < gc.num_groups(); ++g) {
    std::vector<ValueId> key(gc.key(g), gc.key(g) + gc.key_width());
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "unexpected group";
    EXPECT_EQ(gc.count(g), it->second);
  }
}

TEST(GroupCountsTest, Fig2PairCountsMatchExample210) {
  Table t = workload::MakeFig2Demo();
  // S = {age group, marital status}: 3 patterns of count 6 each.
  GroupCounts gc = ComputeGroupCounts(t, AttrMask::FromIndices({1, 3}));
  EXPECT_EQ(gc.num_groups(), 3);
  for (int64_t g = 0; g < gc.num_groups(); ++g) {
    EXPECT_EQ(gc.count(g), 6);
  }
  // S' = {gender, age group}: sizes 3,3,6,6.
  GroupCounts gc2 = ComputeGroupCounts(t, AttrMask::FromIndices({0, 1}));
  EXPECT_EQ(gc2.num_groups(), 4);
  std::multiset<int64_t> counts;
  for (int64_t g = 0; g < gc2.num_groups(); ++g) {
    counts.insert(gc2.count(g));
  }
  EXPECT_EQ(counts, (std::multiset<int64_t>{3, 3, 6, 6}));
}

TEST(GroupCountsTest, EmptyMaskGivesOneGroup) {
  Table t = workload::MakeFig2Demo();
  GroupCounts gc = ComputeGroupCounts(t, AttrMask());
  EXPECT_EQ(gc.num_groups(), 1);
  EXPECT_EQ(gc.count(0), t.num_rows());
  EXPECT_EQ(gc.key_width(), 0);
}

TEST(GroupCountsTest, TotalCountExcludesNullRows) {
  Table t = RandomTable(3, 500, 4, 0.2, 99);
  AttrMask mask = AttrMask::FromIndices({0, 2});
  GroupCounts gc = ComputeGroupCounts(t, mask);
  int64_t expected = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (!IsNull(t.value(r, 0)) && !IsNull(t.value(r, 2))) ++expected;
  }
  EXPECT_EQ(gc.total_count(), expected);
}

TEST(GroupCountsTest, ToPatternRoundTrip) {
  Table t = workload::MakeFig2Demo();
  GroupCounts gc = ComputeGroupCounts(t, AttrMask::FromIndices({1, 3}));
  for (int64_t g = 0; g < gc.num_groups(); ++g) {
    Pattern p = gc.ToPattern(g);
    EXPECT_EQ(CountMatches(t, p), gc.count(g));
  }
}

TEST(GroupCountsTest, StrategiesAgreeOnOrderAndContent) {
  Table t = RandomTable(4, 800, 5, 0.1, 1234);
  AttrMask mask = AttrMask::FromIndices({0, 1, 3});
  GroupCounts dense = ComputeGroupCounts(t, mask, GroupByStrategy::kDense);
  GroupCounts hash = ComputeGroupCounts(t, mask, GroupByStrategy::kHash);
  GroupCounts sort = ComputeGroupCounts(t, mask, GroupByStrategy::kSort);
  ASSERT_EQ(dense.num_groups(), hash.num_groups());
  ASSERT_EQ(dense.num_groups(), sort.num_groups());
  for (int64_t g = 0; g < dense.num_groups(); ++g) {
    for (int j = 0; j < dense.key_width(); ++j) {
      EXPECT_EQ(dense.key(g)[j], hash.key(g)[j]);
      EXPECT_EQ(dense.key(g)[j], sort.key(g)[j]);
    }
    EXPECT_EQ(dense.count(g), hash.count(g));
    EXPECT_EQ(dense.count(g), sort.count(g));
  }
}

// Property sweep over strategies x table shapes: every strategy matches
// the brute-force reference.
struct CounterCase {
  GroupByStrategy strategy;
  int attrs;
  int64_t rows;
  int domain;
  double null_prob;
};

class CounterPropertyTest : public ::testing::TestWithParam<CounterCase> {};

TEST_P(CounterPropertyTest, MatchesBruteForce) {
  const CounterCase& c = GetParam();
  Table t = RandomTable(c.attrs, c.rows, c.domain, c.null_prob, 4242);
  // Try several masks of different arity.
  std::vector<AttrMask> masks = {
      AttrMask::Single(0),
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
        CounterCase{GroupByStrategy::kDense, 3, 200, 3, 0.0},
        CounterCase{GroupByStrategy::kDense, 3, 200, 3, 0.3},
        CounterCase{GroupByStrategy::kDense, 5, 1000, 4, 0.05},
        CounterCase{GroupByStrategy::kHash, 3, 200, 3, 0.0},
        CounterCase{GroupByStrategy::kHash, 5, 1000, 4, 0.3},
        CounterCase{GroupByStrategy::kHash, 2, 50, 8, 0.5},
        CounterCase{GroupByStrategy::kSort, 3, 200, 3, 0.0},
        CounterCase{GroupByStrategy::kSort, 5, 1000, 4, 0.3},
        CounterCase{GroupByStrategy::kSort, 2, 50, 8, 0.5},
        CounterCase{GroupByStrategy::kAuto, 6, 2000, 3, 0.1}));

TEST(CountDistinctTest, ExactWithoutBudget) {
  Table t = RandomTable(4, 500, 4, 0.1, 777);
  for (AttrMask m : {AttrMask::Single(1), AttrMask::FromIndices({0, 2}),
                     AttrMask::All(4)}) {
    auto ref = ReferenceGroupBy(t, m);
    EXPECT_EQ(CountDistinctCombos(t, m),
              static_cast<int64_t>(ref.size()));
  }
}

TEST(CountDistinctTest, EarlyExitNeverUnderBudget) {
  Table t = RandomTable(4, 2000, 6, 0.0, 888);
  AttrMask m = AttrMask::All(4);
  int64_t exact = CountDistinctCombos(t, m);
  ASSERT_GT(exact, 50);
  for (int64_t budget : {1, 10, 50}) {
    int64_t v = CountDistinctCombos(t, m, budget);
    EXPECT_GT(v, budget);  // correctly reports "over budget"
  }
  // Budget at or above the true count returns the exact value.
  EXPECT_EQ(CountDistinctCombos(t, m, exact), exact);
  EXPECT_EQ(CountDistinctCombos(t, m, exact + 100), exact);
}

TEST(CountDistinctTest, EmptyMask) {
  Table t = RandomTable(2, 10, 2, 0.0, 1);
  EXPECT_EQ(CountDistinctCombos(t, AttrMask()), 1);
  auto b = TableBuilder::Create({"x"});
  ASSERT_TRUE(b.ok());
  Table empty = b->Build();
  EXPECT_EQ(CountDistinctCombos(empty, AttrMask()), 0);
}

TEST(DenseKeySpaceTest, ProductAndOverflow) {
  Table t = RandomTable(3, 10, 4, 0.0, 2);
  EXPECT_EQ(DenseKeySpace(t, AttrMask::All(3)).value(), 64);
  EXPECT_EQ(DenseKeySpace(t, AttrMask()).value(), 1);
}

TEST(FullPatternIndexTest, CountsAndOrder) {
  Table t = workload::MakeFig2Demo();
  FullPatternIndex idx = FullPatternIndex::Build(t);
  // 18 rows, all distinct? Check against reference.
  auto ref = ReferenceGroupBy(t, AttrMask::All(4));
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
