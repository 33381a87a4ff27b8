// Tests for PatternSet (Definition 2.15's user-chosen P), q-error-based
// optimization, and searches over custom pattern sets.
#include "core/pattern_set.h"

#include <gtest/gtest.h>

#include "core/search.h"
#include "tests/differential_harness.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

TEST(PatternSetTest, FromPatternsComputesCountsAndSorts) {
  Table t = workload::MakeFig2Demo();
  auto p1 = Pattern::Parse(t, {{"gender", "Female"}});              // 9
  auto p2 = Pattern::Parse(t, {{"age group", "20-39"}});            // 12
  auto p3 = Pattern::Parse(t, {{"gender", "Male"},
                               {"race", "Hispanic"}});              // 3
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
  PatternSet set = PatternSet::FromPatterns(t, {*p1, *p2, *p3});
  ASSERT_EQ(set.size(), 3);
  EXPECT_EQ(set.count(0), 12);
  EXPECT_EQ(set.count(1), 9);
  EXPECT_EQ(set.count(2), 3);
  // Counts descend.
  for (int64_t i = 1; i < set.size(); ++i) {
    EXPECT_GE(set.count(i - 1), set.count(i));
  }
}

TEST(PatternSetTest, FromPatternsAndCountsValidates) {
  Table t = workload::MakeFig2Demo();
  auto p = Pattern::Parse(t, {{"gender", "Female"}});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(
      PatternSet::FromPatternsAndCounts({*p}, {1, 2}).ok());
  auto set = PatternSet::FromPatternsAndCounts({*p}, {9});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->count(0), 9);
}

// The oracle's focus set (every value combination over the sensitive
// attributes) carries each pattern's true count; the searches below
// evaluate against it.
TEST(PatternSetTest, OverAttributesMatchesGroupCounts) {
  Table t = workload::MakeFig2Demo();
  AttrMask sensitive = AttrMask::FromIndices({0, 2});  // gender, race
  PatternSet set = testing::OraclePatternSet(t, sensitive);
  EXPECT_EQ(set.size(), 6);  // every gender x race combo appears
  int64_t total = 0;
  for (int64_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set.pattern(i).attributes(), sensitive);
    EXPECT_EQ(CountMatches(t, set.pattern(i)), set.count(i));
    total += set.count(i);
  }
  EXPECT_EQ(total, t.num_rows());
}

TEST(PatternSetEvaluateTest, ExactForCoveringLabel) {
  Table t = workload::MakeFig2Demo();
  AttrMask sensitive = AttrMask::FromIndices({0, 2});
  PatternSet set = testing::OraclePatternSet(t, sensitive);
  LabelEstimator est(Label::Build(t, sensitive));
  ErrorReport r = EvaluateOverPatternSet(set, est, ErrorMode::kExact);
  EXPECT_DOUBLE_EQ(r.max_abs, 0.0);
  EXPECT_EQ(r.evaluated, set.size());
}

TEST(PatternSetEvaluateTest, EarlyTerminationStopsOnDescendingCounts) {
  Table t = workload::MakeCompas(5000, 3).value();
  PatternSet set = testing::OraclePatternSet(
      t, AttrMask::FromIndices({0, 1, 2, 3}));
  // A weak label: VC only.
  LabelEstimator est(Label::Build(t, AttrMask()));
  ErrorReport exact = EvaluateOverPatternSet(set, est, ErrorMode::kExact);
  ErrorReport early =
      EvaluateOverPatternSet(set, est, ErrorMode::kEarlyTermination);
  EXPECT_LE(early.evaluated, exact.evaluated);
  EXPECT_NEAR(early.max_abs, exact.max_abs, 1e-9);
}

TEST(SearchWithPatternSetTest, SensitiveAttributesOnly) {
  // Search against P = patterns over the sensitive demographics only; the
  // optimal label then concentrates budget there, reaching error 0 with a
  // label that covers the sensitive set.
  Table t = workload::MakeCompas(5000, 3).value();
  AttrMask sensitive = AttrMask::FromIndices({0, 1, 2});
  auto set = std::make_shared<const PatternSet>(
      testing::OraclePatternSet(t, sensitive));
  LabelSearch search(t);
  search.SetEvaluationPatterns(set);
  SearchOptions options;
  options.size_bound = 100;
  SearchResult result = search.TopDown(options);
  // A bound of 100 admits the label over the sensitive set itself
  // (|gender x age x race| <= 32), so the error must be 0.
  EXPECT_DOUBLE_EQ(result.error.max_abs, 0.0);
  EXPECT_TRUE(sensitive.IsSubsetOf(result.best_attrs))
      << result.best_attrs.ToString();
}

TEST(MetricTest, MetricValueExtraction) {
  ErrorReport r;
  r.max_abs = 10;
  r.mean_abs = 2;
  r.max_q = 5;
  r.mean_q = 1.5;
  EXPECT_DOUBLE_EQ(MetricValue(r, OptimizationMetric::kMaxAbsolute), 10);
  EXPECT_DOUBLE_EQ(MetricValue(r, OptimizationMetric::kMeanAbsolute), 2);
  EXPECT_DOUBLE_EQ(MetricValue(r, OptimizationMetric::kMaxQError), 5);
  EXPECT_DOUBLE_EQ(MetricValue(r, OptimizationMetric::kMeanQError), 1.5);
  EXPECT_STREQ(MetricName(OptimizationMetric::kMaxQError), "max-q");
}

TEST(MetricTest, QErrorSearchRanksByQ) {
  Table t = workload::MakeCompas(4000, 5).value();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = 50;
  options.metric = OptimizationMetric::kMeanQError;
  SearchResult by_q = search.TopDown(options);
  options.metric = OptimizationMetric::kMaxAbsolute;
  SearchResult by_abs = search.TopDown(options);
  // The q-optimal label's mean q-error is <= the abs-optimal label's.
  EXPECT_LE(by_q.error.mean_q, by_abs.error.mean_q + 1e-9);
  // And vice versa for max absolute error.
  EXPECT_LE(by_abs.error.max_abs, by_q.error.max_abs + 1e-9);
}

TEST(MetricTest, NonAbsMetricForcesExactCandidateScan) {
  Table t = workload::MakeFig2Demo();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = 5;
  options.metric = OptimizationMetric::kMeanQError;
  options.candidate_error_mode = ErrorMode::kEarlyTermination;
  SearchResult r = search.TopDown(options);
  // The search must still be deterministic and exact.
  EXPECT_FALSE(r.error.early_terminated);
  EXPECT_LE(r.label.size(), 5);
}

}  // namespace
}  // namespace pcbl
