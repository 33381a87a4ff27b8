// Tests for the extended baselines: the Count-Min sketch and the
// dependency-based pairwise histogram (related-work comparators, Sec. V).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/cm_sketch.h"
#include "baselines/independence.h"
#include "baselines/pairwise_histogram.h"
#include "pattern/full_pattern_index.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "util/str.h"

namespace pcbl {
namespace {

// x ∈ {0..3} drives two equal columns; z is a free uniform column. Every
// combination (x, x, z) appears exactly twice, so all counts are exact by
// construction.
Table ExactPairTable() {
  auto b = TableBuilder::Create({"a0", "a1", "a2"});
  PCBL_CHECK(b.ok());
  for (int a = 0; a < 3; ++a) {
    for (int v = 0; v < 4; ++v) {
      b->InternValue(a, StrCat("v", v));
    }
  }
  for (int rep = 0; rep < 2; ++rep) {
    for (ValueId x = 0; x < 4; ++x) {
      for (ValueId z = 0; z < 4; ++z) {
        PCBL_CHECK(b->AddRowCodes({x, x, z}).ok());
      }
    }
  }
  return b->Build();
}

TEST(CmSketchTest, ValidatesOptions) {
  Table t = workload::MakeFig2Demo();
  CmSketchOptions options;
  options.depth = 0;
  EXPECT_FALSE(CmSketchEstimator::Build(t, options).ok());
  options.depth = 3;
  options.width = 0;
  EXPECT_FALSE(CmSketchEstimator::Build(t, options).ok());
  EXPECT_FALSE(CmSketchEstimator::BuildForBudget(t, 0).ok());
}

TEST(CmSketchTest, NeverUnderestimatesFullPatterns) {
  Table t = workload::MakeCompas(3000, 7).value();
  FullPatternIndex index = FullPatternIndex::Build(t);
  for (int64_t width : {8, 64, 512}) {
    CmSketchOptions options;
    options.width = width;
    auto sketch = CmSketchEstimator::Build(t, options);
    ASSERT_TRUE(sketch.ok());
    for (int64_t i = 0; i < index.num_patterns(); ++i) {
      EXPECT_GE(sketch->EstimateFullPattern(index.codes(i), index.width()),
                static_cast<double>(index.count(i)))
          << "width=" << width << " i=" << i;
    }
  }
}

TEST(CmSketchTest, SingleCounterCountsEveryRow) {
  Table t = workload::MakeFig2Demo();
  FullPatternIndex index = FullPatternIndex::Build(t);
  CmSketchOptions options;
  options.depth = 1;
  options.width = 1;
  auto sketch = CmSketchEstimator::Build(t, options);
  ASSERT_TRUE(sketch.ok());
  EXPECT_DOUBLE_EQ(
      sketch->EstimateFullPattern(index.codes(0), index.width()),
      static_cast<double>(index.rows_indexed()));
}

TEST(CmSketchTest, DeterministicForSeed) {
  Table t = workload::MakeCompas(1000, 7).value();
  FullPatternIndex index = FullPatternIndex::Build(t);
  auto a = CmSketchEstimator::Build(t);
  auto b = CmSketchEstimator::Build(t);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    EXPECT_DOUBLE_EQ(a->EstimateFullPattern(index.codes(i), index.width()),
                     b->EstimateFullPattern(index.codes(i), index.width()));
  }
}

TEST(CmSketchTest, BudgetHelperRespectsFootprint) {
  Table t = workload::MakeFig2Demo();
  for (int64_t budget : {1, 2, 3, 10, 100, 1001}) {
    auto sketch = CmSketchEstimator::BuildForBudget(t, budget);
    ASSERT_TRUE(sketch.ok()) << budget;
    EXPECT_LE(sketch->FootprintEntries(), budget) << budget;
    EXPECT_GE(sketch->depth(), 1);
  }
}

TEST(CmSketchTest, PartialPatternFallsBackToIndependence) {
  Table t = workload::MakeFig2Demo();
  auto sketch = CmSketchEstimator::Build(t);
  ASSERT_TRUE(sketch.ok());
  IndependenceEstimator indep = IndependenceEstimator::Build(t);
  auto p = Pattern::Parse(t, {{"gender", "Female"}, {"race", "Hispanic"}});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(sketch->EstimateCount(*p), indep.EstimateCount(*p));
}

TEST(CmSketchTest, FullPatternPathsAgree) {
  Table t = workload::MakeFig2Demo();
  auto sketch = CmSketchEstimator::Build(t);
  ASSERT_TRUE(sketch.ok());
  FullPatternIndex index = FullPatternIndex::Build(t);
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    Pattern p = index.ToPattern(i);
    EXPECT_DOUBLE_EQ(sketch->EstimateCount(p),
                     sketch->EstimateFullPattern(index.codes(i),
                                                 index.width()));
  }
}

TEST(MutualInformationTest, IndependentAttributesScoreNearZero) {
  auto b = TableBuilder::Create({"a0", "a1"});
  PCBL_CHECK(b.ok());
  for (int a = 0; a < 2; ++a) {
    for (int v = 0; v < 4; ++v) b->InternValue(a, StrCat("v", v));
  }
  // Full cross product, uniform: exactly independent.
  for (int rep = 0; rep < 3; ++rep) {
    for (ValueId x = 0; x < 4; ++x) {
      for (ValueId y = 0; y < 4; ++y) {
        PCBL_CHECK(b->AddRowCodes({x, y}).ok());
      }
    }
  }
  Table t = b->Build();
  EXPECT_NEAR(MutualInformationBits(t, 0, 1), 0.0, 1e-9);
}

TEST(MutualInformationTest, IdenticalAttributesScoreEntropy) {
  Table t = ExactPairTable();
  // a0 == a1 uniform over 4 values: MI = H = 2 bits.
  EXPECT_NEAR(MutualInformationBits(t, 0, 1), 2.0, 1e-9);
  // a0 vs the free column: independent by construction.
  EXPECT_NEAR(MutualInformationBits(t, 0, 2), 0.0, 1e-9);
}

TEST(PairwiseHistogramTest, SelectsTheCorrelatedPairFirst) {
  Table t = ExactPairTable();
  PairwiseHistogramOptions options;
  options.budget = 100;
  auto hist = PairwiseHistogramEstimator::Build(t, options);
  ASSERT_TRUE(hist.ok());
  ASSERT_FALSE(hist->pairs().empty());
  EXPECT_EQ(hist->pairs()[0].attr_a, 0);
  EXPECT_EQ(hist->pairs()[0].attr_b, 1);
}

TEST(PairwiseHistogramTest, ExactWhenStructureIsPairwise) {
  Table t = ExactPairTable();
  auto hist = PairwiseHistogramEstimator::Build(t);
  ASSERT_TRUE(hist.ok());
  FullPatternIndex index = FullPatternIndex::Build(t);
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    EXPECT_NEAR(hist->EstimateFullPattern(index.codes(i), index.width()),
                static_cast<double>(index.count(i)), 1e-9);
  }
}

TEST(PairwiseHistogramTest, ZeroBudgetDegeneratesToIndependence) {
  Table t = workload::MakeFig2Demo();
  PairwiseHistogramOptions options;
  options.budget = 0;
  auto hist = PairwiseHistogramEstimator::Build(t, options);
  ASSERT_TRUE(hist.ok());
  EXPECT_TRUE(hist->pairs().empty());
  EXPECT_EQ(hist->FootprintEntries(), 0);
  IndependenceEstimator indep = IndependenceEstimator::Build(t);
  FullPatternIndex index = FullPatternIndex::Build(t);
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    EXPECT_DOUBLE_EQ(hist->EstimateFullPattern(index.codes(i), index.width()),
                     indep.EstimateFullPattern(index.codes(i), index.width()));
  }
}

TEST(PairwiseHistogramTest, BudgetIsRespected) {
  Table t = workload::MakeCompas(3000, 9).value();
  for (int64_t budget : {0, 10, 50, 200}) {
    PairwiseHistogramOptions options;
    options.budget = budget;
    auto hist = PairwiseHistogramEstimator::Build(t, options);
    ASSERT_TRUE(hist.ok()) << budget;
    EXPECT_LE(hist->FootprintEntries(), budget) << budget;
  }
  PairwiseHistogramOptions bad;
  bad.budget = -1;
  EXPECT_FALSE(PairwiseHistogramEstimator::Build(t, bad).ok());
}

TEST(PairwiseHistogramTest, DisjointModeYieldsAMatching) {
  Table t = workload::MakeCompas(3000, 9).value();
  PairwiseHistogramOptions options;
  options.budget = 500;
  auto hist = PairwiseHistogramEstimator::Build(t, options);
  ASSERT_TRUE(hist.ok());
  std::vector<bool> used(static_cast<size_t>(t.num_attributes()), false);
  for (const StoredPair& pair : hist->pairs()) {
    EXPECT_FALSE(used[static_cast<size_t>(pair.attr_a)]);
    EXPECT_FALSE(used[static_cast<size_t>(pair.attr_b)]);
    used[static_cast<size_t>(pair.attr_a)] = true;
    used[static_cast<size_t>(pair.attr_b)] = true;
  }
}

TEST(PairwiseHistogramTest, OverlappingModeCanShareAttributes) {
  // Three mutually equal columns: all three pairs carry maximal MI.
  auto b = TableBuilder::Create({"a0", "a1", "a2"});
  PCBL_CHECK(b.ok());
  for (int a = 0; a < 3; ++a) {
    for (int v = 0; v < 4; ++v) b->InternValue(a, StrCat("v", v));
  }
  Rng rng(7);
  for (int r = 0; r < 400; ++r) {
    ValueId x = rng.UniformInt(4);
    PCBL_CHECK(b->AddRowCodes({x, x, x}).ok());
  }
  Table t = b->Build();
  PairwiseHistogramOptions options;
  options.budget = 100;
  options.disjoint_pairs = false;
  auto hist = PairwiseHistogramEstimator::Build(t, options);
  ASSERT_TRUE(hist.ok());
  EXPECT_GE(hist->pairs().size(), 2u);
  // Estimation still applies at most one pair per attribute (greedy
  // matching), so estimates stay well-defined.
  FullPatternIndex index = FullPatternIndex::Build(t);
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    EXPECT_GT(hist->EstimateFullPattern(index.codes(i), index.width()), 0.0);
  }
}

TEST(PairwiseHistogramTest, UnseenPairCombinationEstimatesZero) {
  Table t = ExactPairTable();
  auto hist = PairwiseHistogramEstimator::Build(t);
  ASSERT_TRUE(hist.ok());
  // (a0=v0, a1=v1) never occurs (columns are equal-valued).
  auto p = Pattern::Parse(t, {{"a0", "v0"}, {"a1", "v1"}});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(hist->EstimateCount(*p), 0.0);
}

TEST(PairwiseHistogramTest, PartialPatternUsesPairWhenBothBound) {
  Table t = ExactPairTable();
  auto hist = PairwiseHistogramEstimator::Build(t);
  ASSERT_TRUE(hist.ok());
  auto p = Pattern::Parse(t, {{"a0", "v2"}, {"a1", "v2"}});
  ASSERT_TRUE(p.ok());
  // Joint (v2,v2) has count 8 out of 32 rows.
  EXPECT_NEAR(hist->EstimateCount(*p), 8.0, 1e-9);
  auto single = Pattern::Parse(t, {{"a2", "v1"}});
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(hist->EstimateCount(*single), 8.0, 1e-9);
}

}  // namespace
}  // namespace pcbl
