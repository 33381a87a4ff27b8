// Tests for Label construction and the estimation function, pinned to the
// paper's worked examples (2.6-2.8, 2.10, 2.12, 2.14) and the exactness /
// monotonicity properties of Sec. III-A.
#include "core/label.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/independence.h"
#include "pattern/full_pattern_index.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "util/str.h"

namespace pcbl {
namespace {

// Builds the n-binary-attribute database of Example 2.5: every value
// combination appears exactly once (2^n rows).
Table MakeBinaryCube(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back(StrCat("A", i + 1));
  auto b = TableBuilder::Create(names);
  PCBL_CHECK(b.ok());
  for (int a = 0; a < n; ++a) {
    b->InternValue(a, "0");
    b->InternValue(a, "1");
  }
  std::vector<ValueId> codes(static_cast<size_t>(n));
  for (uint64_t bits = 0; bits < (1ULL << n); ++bits) {
    for (int a = 0; a < n; ++a) {
      codes[static_cast<size_t>(a)] = (bits >> a) & 1;
    }
    PCBL_CHECK(b->AddRowCodes(codes).ok());
  }
  return b->Build();
}

TEST(LabelTest, SizeMatchesPatternCount) {
  Table t = workload::MakeFig2Demo();
  Label l = Label::Build(t, AttrMask::FromIndices({1, 3}));
  EXPECT_EQ(l.size(), 3);  // Example 2.10
  Label l2 = Label::Build(t, AttrMask::FromIndices({0, 1}));
  EXPECT_EQ(l2.size(), 4);
}

TEST(LabelTest, EmptyLabelEstimatesLikeIndependence) {
  Table t = workload::MakeFig2Demo();
  Label l = Label::Build(t, AttrMask());
  EXPECT_EQ(l.size(), 0);  // no joint counts beyond VC
  auto vc = l.shared_value_counts();
  IndependenceEstimator ind = IndependenceEstimator::Build(t, vc);
  FullPatternIndex idx = FullPatternIndex::Build(t);
  for (int64_t i = 0; i < idx.num_patterns(); ++i) {
    EXPECT_DOUBLE_EQ(l.EstimateFullPattern(idx.codes(i), idx.width()),
                     ind.EstimateFullPattern(idx.codes(i), idx.width()));
  }
}

TEST(LabelTest, Example26IndependenceEstimate) {
  // Example 2.6: n binary attrs, uniform cube; the VC-only estimate of
  // {A1=0, A2=0, A3=0} is 2^(n-3).
  const int n = 6;
  Table t = MakeBinaryCube(n);
  Label l = Label::Build(t, AttrMask());
  auto p = Pattern::Parse(t, {{"A1", "0"}, {"A2", "0"}, {"A3", "0"}});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(l.EstimateCount(*p), std::pow(2.0, n - 3));
}

TEST(LabelTest, Example27CorrelatedAttributeBreaksIndependence) {
  // Example 2.7: overwrite A1 with a copy of A2. True count of
  // {A1=0,A2=0,A3=0} becomes 2^(n-2); the VC-only estimate stays 2^(n-3).
  const int n = 6;
  Table base = MakeBinaryCube(n);
  std::vector<std::string> names = base.schema().names();
  auto b = TableBuilder::Create(names);
  ASSERT_TRUE(b.ok());
  for (int a = 0; a < n; ++a) {
    b->InternValue(a, "0");
    b->InternValue(a, "1");
  }
  std::vector<ValueId> codes(static_cast<size_t>(n));
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    for (int a = 0; a < n; ++a) codes[static_cast<size_t>(a)] = base.value(r, a);
    codes[0] = codes[1];  // A1 := A2
    ASSERT_TRUE(b->AddRowCodes(codes).ok());
  }
  Table t = b->Build();
  auto p = Pattern::Parse(t, {{"A1", "0"}, {"A2", "0"}, {"A3", "0"}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(CountMatches(t, *p), 1 << (n - 2));
  Label vc_only = Label::Build(t, AttrMask());
  EXPECT_DOUBLE_EQ(vc_only.EstimateCount(*p), std::pow(2.0, n - 3));
  // Example 2.8: adding {A1, A2} to the label gives the exact count.
  Label l12 = Label::Build(t, AttrMask::FromIndices({0, 1}));
  EXPECT_DOUBLE_EQ(l12.EstimateCount(*p), std::pow(2.0, n - 2));
}

TEST(LabelTest, Example212EstimatesWithBothLabels) {
  Table t = workload::MakeFig2Demo();
  auto p = Pattern::Parse(t, {{"gender", "Female"},
                              {"age group", "20-39"},
                              {"marital status", "married"}});
  ASSERT_TRUE(p.ok());
  // l = L_{age group, marital status}: Est = 6 * 9/18 = 3.
  Label l = Label::Build(t, AttrMask::FromIndices({1, 3}));
  EXPECT_DOUBLE_EQ(l.EstimateCount(*p), 3.0);
  // l' = L_{gender, age group}: Est = 6 * 6/18 = 2.
  Label lp = Label::Build(t, AttrMask::FromIndices({0, 1}));
  EXPECT_DOUBLE_EQ(lp.EstimateCount(*p), 2.0);
}

TEST(LabelTest, Example214Errors) {
  Table t = workload::MakeFig2Demo();
  auto p = Pattern::Parse(t, {{"gender", "Female"},
                              {"age group", "20-39"},
                              {"marital status", "married"}});
  ASSERT_TRUE(p.ok());
  int64_t actual = CountMatches(t, *p);
  EXPECT_EQ(actual, 3);
  Label l = Label::Build(t, AttrMask::FromIndices({1, 3}));
  Label lp = Label::Build(t, AttrMask::FromIndices({0, 1}));
  EXPECT_DOUBLE_EQ(l.AbsoluteError(*p, actual), 0.0);
  EXPECT_DOUBLE_EQ(lp.AbsoluteError(*p, actual), 1.0);
}

TEST(LabelTest, ExactWhenPatternAttrsInsideS) {
  // Sec. III-A: if Attr(p) ⊆ S the estimate is exact.
  Table t = workload::MakeFig2Demo();
  AttrMask s = AttrMask::FromIndices({0, 2});
  Label l = Label::Build(t, s);
  for (const char* gender : {"Female", "Male"}) {
    for (const char* race :
         {"African-American", "Caucasian", "Hispanic"}) {
      auto p = Pattern::Parse(t, {{"gender", gender}, {"race", race}});
      ASSERT_TRUE(p.ok());
      EXPECT_DOUBLE_EQ(l.EstimateCount(*p),
                       static_cast<double>(CountMatches(t, *p)))
          << p->ToString(t);
      // Also single-attribute restrictions (marginal lookups).
      auto pg = Pattern::Parse(t, {{"gender", gender}});
      ASSERT_TRUE(pg.ok());
      EXPECT_DOUBLE_EQ(l.EstimateCount(*pg),
                       static_cast<double>(CountMatches(t, *pg)));
    }
  }
}

TEST(LabelTest, RestrictedCountMarginalizesOverPc) {
  Table t = workload::MakeFig2Demo();
  Label l = Label::Build(t, AttrMask::FromIndices({1, 3}));
  // Pattern binding only age: c(p|S) must equal the age marginal.
  auto p = Pattern::Parse(t, {{"age group", "20-39"}, {"gender", "Male"}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(l.RestrictedCount(*p), 12);
  // Pattern binding nothing in S: |D|.
  auto pg = Pattern::Parse(t, {{"gender", "Male"}});
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(l.RestrictedCount(*pg), 18);
}

TEST(LabelTest, UnseenCombinationEstimatesZero) {
  Table t = workload::MakeFig2Demo();
  Label l = Label::Build(t, AttrMask::FromIndices({1, 3}));
  // {age=under 20, marital=married} never occurs.
  auto p = Pattern::Parse(
      t, {{"age group", "under 20"}, {"marital status", "married"}});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(l.EstimateCount(*p), 0.0);
}

TEST(LabelTest, FullPatternFastPathAgreesWithGeneralPath) {
  Table t = workload::MakeCompas(2000, 7).value();
  FullPatternIndex idx = FullPatternIndex::Build(t);
  Label l = Label::Build(t, AttrMask::FromIndices({0, 2, 12}));
  LabelEstimator est(l);
  int64_t limit = std::min<int64_t>(idx.num_patterns(), 200);
  for (int64_t i = 0; i < limit; ++i) {
    Pattern p = idx.ToPattern(i);
    EXPECT_NEAR(l.EstimateFullPattern(idx.codes(i), idx.width()),
                l.EstimateCount(p), 1e-9);
  }
}

TEST(LabelTest, SizeMonotoneUnderSubset) {
  // |P_{S1}| <= |P_{S2}| when S1 ⊆ S2.
  Table t = workload::MakeCompas(3000, 11).value();
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    AttrMask s2;
    int k = 2 + static_cast<int>(rng.UniformInt(4));
    while (s2.Count() < k) {
      s2.Set(static_cast<int>(
          rng.UniformInt(static_cast<uint32_t>(t.num_attributes()))));
    }
    AttrMask s1 = s2;
    s1.Clear(s1.ToIndices()[rng.UniformInt(
        static_cast<uint32_t>(s1.Count()))]);
    Label l1 = Label::Build(t, s1);
    Label l2 = Label::Build(t, s2);
    EXPECT_LE(l1.size(), l2.size())
        << s1.ToString() << " vs " << s2.ToString();
  }
}

TEST(LabelTest, EstimatesSumToTotalRowsOverFullPatterns) {
  // Σ_p Est(p) over all full patterns equals |D| when S-attributes
  // partition the data and the independence factors are complete:
  // the estimator distributes each PC group's mass over the non-S
  // attributes, so the grand total is conserved.
  Table t = workload::MakeBlueNile(3000, 3).value();
  FullPatternIndex idx = FullPatternIndex::Build(t);
  // Only exactly true when every non-S attribute is independent of the
  // rest *in the estimator's model*; the identity Σ Est = Σ_pc count *
  // Π(Σ_v freq) = |D| holds per PC group only when grouping covers all
  // full patterns of that group; validate numerically instead.
  Label l = Label::Build(t, AttrMask::FromIndices({1, 4}));
  double total = 0;
  for (int64_t i = 0; i < idx.num_patterns(); ++i) {
    total += l.EstimateFullPattern(idx.codes(i), idx.width());
  }
  // The sum cannot exceed |D| (mass conservation; it is below when some
  // full combination is absent from the data).
  EXPECT_LE(total, static_cast<double>(t.num_rows()) + 1e-6);
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace pcbl
