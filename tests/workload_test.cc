// Tests for the dataset generators: determinism, published marginals,
// correlation structure, augmentation, and the Fig. 2 demo.
#include "workload/datasets.h"

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/pairwise_histogram.h"
#include "core/multi_label.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "relation/stats.h"
#include "tests/differential_harness.h"
#include "workload/generator.h"

namespace pcbl {
namespace {

using workload::MakeBlueNile;
using workload::MakeCompas;
using workload::MakeCreditCard;
using workload::MakeFig2Demo;

double Fraction(const Table& t, const ValueCounts& vc, const char* attr,
                const char* value) {
  int a = t.schema().FindAttribute(attr).value();
  ValueId v = t.dictionary(a).Lookup(value);
  return static_cast<double>(vc.Count(a, v)) /
         static_cast<double>(t.num_rows());
}

TEST(GeneratorFrameworkTest, ValidatesSpecs) {
  DatasetSpec spec;
  spec.name = "bad";
  EXPECT_FALSE(GenerateDataset(spec, 10, 1).ok());  // no attributes

  AttributeSpec a;
  a.name = "a";
  a.values = {"x", "y"};
  a.marginal = {1.0};  // wrong arity
  spec.attributes = {a};
  EXPECT_FALSE(GenerateDataset(spec, 10, 1).ok());

  a.marginal = {1.0, 1.0};
  a.parent = 0;  // self/forward dependency
  spec.attributes = {a};
  EXPECT_FALSE(GenerateDataset(spec, 10, 1).ok());
}

TEST(GeneratorFrameworkTest, ConditionalDependencyRealized) {
  DatasetSpec spec;
  spec.name = "dep";
  AttributeSpec parent;
  parent.name = "p";
  parent.values = {"0", "1"};
  parent.marginal = {0.5, 0.5};
  AttributeSpec child;
  child.name = "c";
  child.values = {"0", "1"};
  child.parent = 0;
  child.conditional = {{1.0, 0.0}, {0.0, 1.0}};  // c == p exactly
  spec.attributes = {parent, child};
  Table t = GenerateDataset(spec, 2000, 3).value();
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.value(r, 0), t.value(r, 1));
  }
}

TEST(GeneratorFrameworkTest, NoiseSoftensDependency) {
  DatasetSpec spec;
  spec.name = "noisy";
  AttributeSpec parent;
  parent.name = "p";
  parent.values = {"0", "1"};
  parent.marginal = {0.5, 0.5};
  AttributeSpec child;
  child.name = "c";
  child.values = {"0", "1"};
  child.parent = 0;
  child.noise = 0.5;
  child.marginal = {0.5, 0.5};
  child.conditional = {{1.0, 0.0}, {0.0, 1.0}};
  spec.attributes = {parent, child};
  Table t = GenerateDataset(spec, 20000, 3).value();
  int64_t equal = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (t.value(r, 0) == t.value(r, 1)) ++equal;
  }
  double frac = static_cast<double>(equal) /
                static_cast<double>(t.num_rows());
  // 50% follow the parent exactly + 50% coin flip => ~75% agreement.
  EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(DatasetShapeTest, RowAndAttributeCountsMatchPaper) {
  Table bn = MakeBlueNile(5000, 1).value();
  EXPECT_EQ(bn.num_attributes(), 7);
  EXPECT_EQ(bn.num_rows(), 5000);
  Table cp = MakeCompas(5000, 1).value();
  EXPECT_EQ(cp.num_attributes(), 17);
  Table cc = MakeCreditCard(5000, 1).value();
  EXPECT_EQ(cc.num_attributes(), 24);
  EXPECT_EQ(workload::kBlueNileRows, 116300);
  EXPECT_EQ(workload::kCompasRows, 60843);
  EXPECT_EQ(workload::kCreditCardRows, 30000);
}

TEST(DatasetShapeTest, DeterministicPerSeed) {
  Table a = MakeCompas(500, 42).value();
  Table b = MakeCompas(500, 42).value();
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_attributes(); ++c) {
      ASSERT_EQ(a.value(r, c), b.value(r, c));
    }
  }
  Table c = MakeCompas(500, 43).value();
  bool any_diff = false;
  for (int64_t r = 0; r < a.num_rows() && !any_diff; ++r) {
    for (int col = 0; col < a.num_attributes(); ++col) {
      if (a.value(r, col) != c.value(r, col)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(CompasTest, Fig1MarginalsReproduced) {
  Table t = MakeCompas(60843, 2021).value();
  ValueCounts vc = ValueCounts::Compute(t);
  EXPECT_NEAR(Fraction(t, vc, "Gender", "Male"), 0.78, 0.01);
  EXPECT_NEAR(Fraction(t, vc, "Gender", "Female"), 0.22, 0.01);
  EXPECT_NEAR(Fraction(t, vc, "Race", "African-American"), 0.45, 0.01);
  EXPECT_NEAR(Fraction(t, vc, "Race", "Caucasian"), 0.36, 0.01);
  EXPECT_NEAR(Fraction(t, vc, "Race", "Hispanic"), 0.14, 0.01);
  EXPECT_NEAR(Fraction(t, vc, "AgeGroup", "20-39"), 0.66, 0.01);
  EXPECT_NEAR(Fraction(t, vc, "MaritalStatus", "Single"), 0.75, 0.03);
}

TEST(CompasTest, Fig1GenderRaceJointReproduced) {
  Table t = MakeCompas(60843, 2021).value();
  auto p = Pattern::Parse(
      t, {{"Gender", "Female"}, {"Race", "African-American"}});
  ASSERT_TRUE(p.ok());
  // Fig. 1: 5583 / 60843 ≈ 9%.
  double frac = static_cast<double>(CountMatches(t, *p)) /
                static_cast<double>(t.num_rows());
  EXPECT_NEAR(frac, 0.092, 0.01);
  auto p2 =
      Pattern::Parse(t, {{"Gender", "Male"}, {"Race", "Hispanic"}});
  ASSERT_TRUE(p2.ok());
  double frac2 = static_cast<double>(CountMatches(t, *p2)) /
                 static_cast<double>(t.num_rows());
  EXPECT_NEAR(frac2, 0.115, 0.01);
}

TEST(CompasTest, ScoreCliqueIsNearFunctional) {
  Table t = MakeCompas(20000, 2021).value();
  int scale = t.schema().FindAttribute("Scale_ID").value();
  int display = t.schema().FindAttribute("DisplayText").value();
  int rec = t.schema().FindAttribute("RecSupervisionLevel").value();
  int rec_text =
      t.schema().FindAttribute("RecSupervisionLevelText").value();
  // DisplayText is a function of Scale_ID: the pair has exactly
  // |Dom(Scale_ID)| combinations.
  EXPECT_EQ(testing::OracleGroupBy(
                t, AttrMask::FromIndices({scale, display})).size(),
            3u);
  EXPECT_EQ(testing::OracleGroupBy(
                t, AttrMask::FromIndices({rec, rec_text})).size(),
            4u);
  // The whole 6-attribute clique stays small (near-functional), which is
  // what lets the search pick it under a 100-pattern budget.
  int decile = t.schema().FindAttribute("DecileScore").value();
  int score_text = t.schema().FindAttribute("ScoreText").value();
  const int64_t clique = static_cast<int64_t>(
      testing::OracleGroupBy(
          t, AttrMask::FromIndices(
                 {scale, display, decile, score_text, rec, rec_text}))
          .size());
  EXPECT_LE(clique, 150);
  EXPECT_GE(clique, 30);
}

TEST(BlueNileTest, FinishingCliqueCorrelated) {
  Table t = MakeBlueNile(20000, 2021).value();
  int cut = t.schema().FindAttribute("cut").value();
  int polish = t.schema().FindAttribute("polish").value();
  int symmetry = t.schema().FindAttribute("symmetry").value();
  // Correlated pair: joint distinct combos exist but are skewed — compare
  // mutual agreement of top categories instead: P(polish=Excellent |
  // cut=Ideal) must far exceed P(polish=Excellent | cut=Good).
  auto frac_cond = [&](int attr, const char* val, int cond_attr,
                       const char* cond_val) {
    auto p_joint = Pattern::Create(
        {{attr, t.dictionary(attr).Lookup(val)},
         {cond_attr, t.dictionary(cond_attr).Lookup(cond_val)}});
    auto p_cond = Pattern::Create(
        {{cond_attr, t.dictionary(cond_attr).Lookup(cond_val)}});
    PCBL_CHECK(p_joint.ok() && p_cond.ok());
    return static_cast<double>(CountMatches(t, *p_joint)) /
           static_cast<double>(CountMatches(t, *p_cond));
  };
  double excellent_given_ideal =
      frac_cond(polish, "Excellent", cut, "Ideal");
  double excellent_given_good = frac_cond(polish, "Excellent", cut, "Good");
  EXPECT_GT(excellent_given_ideal, excellent_given_good + 0.3);
  // Symmetry correlates with polish the same way.
  double sym_given_excellent =
      frac_cond(symmetry, "Excellent", polish, "Excellent");
  double sym_given_good = frac_cond(symmetry, "Excellent", polish, "Good");
  EXPECT_GT(sym_given_excellent, sym_given_good + 0.3);
}

TEST(CreditCardTest, BucketizedDomainsAndCorrelation) {
  Table t = MakeCreditCard(10000, 2021).value();
  // Every numeric attribute has at most 5 buckets.
  for (const char* name :
       {"LIMIT_BAL", "AGE", "PAY_0", "BILL_AMT3", "PAY_AMT6"}) {
    int a = t.schema().FindAttribute(name).value();
    EXPECT_LE(t.DomainSize(a), 5u) << name;
    EXPECT_GE(t.DomainSize(a), 2u) << name;
  }
  // PAY chain is autocorrelated: distinct combos of (PAY_0, PAY_2) are
  // far fewer than the independent-worst-case 25 would suggest given the
  // mass concentration; check via joint vs product-of-marginal entropy
  // proxy: joint combos <= 25 but agreement probability is high.
  int p0 = t.schema().FindAttribute("PAY_0").value();
  int p2 = t.schema().FindAttribute("PAY_2").value();
  int64_t agree = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (t.value(r, p0) == t.value(r, p2)) ++agree;
  }
  double frac = static_cast<double>(agree) /
                static_cast<double>(t.num_rows());
  EXPECT_GT(frac, 0.5);  // same bucket more than half the time
}

TEST(CreditCardTest, DefaultRateSane) {
  Table t = MakeCreditCard(20000, 2021).value();
  ValueCounts vc = ValueCounts::Compute(t);
  double rate = Fraction(t, vc, "default_payment_next_month", "yes");
  EXPECT_GT(rate, 0.10);
  EXPECT_LT(rate, 0.40);
}

TEST(AugmentTest, PreservesOriginalAndAddsUniformRows) {
  Table t = MakeFig2Demo();
  Table big = AugmentWithRandomRows(t, 100, 9).value();
  EXPECT_EQ(big.num_rows(), 118);
  // Original rows intact.
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int a = 0; a < t.num_attributes(); ++a) {
      ASSERT_EQ(big.value(r, a), t.value(r, a));
    }
  }
  // Domains unchanged (augmentation only reuses existing values).
  for (int a = 0; a < t.num_attributes(); ++a) {
    EXPECT_EQ(big.DomainSize(a), t.DomainSize(a));
  }
}

TEST(AugmentTest, ZeroExtraRowsIsCopy) {
  Table t = MakeFig2Demo();
  Table same = AugmentWithRandomRows(t, 0, 1).value();
  EXPECT_EQ(same.num_rows(), t.num_rows());
  EXPECT_FALSE(AugmentWithRandomRows(t, -1, 1).ok());
}

TEST(Fig2DemoTest, ExactContent) {
  Table t = MakeFig2Demo();
  EXPECT_EQ(t.num_rows(), 18);
  EXPECT_EQ(t.num_attributes(), 4);
  EXPECT_EQ(t.ValueString(0, 0), "Female");
  EXPECT_EQ(t.ValueString(17, 2), "Hispanic");
  EXPECT_EQ(t.ValueString(3, 3), "married");
}

TEST(MakePaperDatasetsTest, ScaleApplies) {
  auto datasets = workload::MakePaperDatasets(0.01, 1).value();
  ASSERT_EQ(datasets.size(), 3u);
  EXPECT_EQ(datasets[0].name, "BlueNile");
  EXPECT_EQ(datasets[0].table.num_rows(), 1163);
  EXPECT_EQ(datasets[1].table.num_rows(), 608);
  EXPECT_EQ(datasets[2].table.num_rows(), 300);
  EXPECT_FALSE(workload::MakePaperDatasets(0.0, 1).ok());
}

TEST(TwoCliqueTest, ShapeAndDeterminism) {
  auto a = workload::MakeTwoClique(5000, 7);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->num_rows(), 5000);
  EXPECT_EQ(a->num_attributes(), 4);
  for (int attr = 0; attr < 4; ++attr) {
    EXPECT_EQ(a->DomainSize(attr), 4u);
  }
  auto b = workload::MakeTwoClique(5000, 7);
  ASSERT_TRUE(b.ok());
  for (int64_t r = 0; r < 100; ++r) {
    for (int attr = 0; attr < 4; ++attr) {
      EXPECT_EQ(a->value(r, attr), b->value(r, attr));
    }
  }
  EXPECT_FALSE(workload::MakeTwoClique(100, 1, 1.5).ok());
}

TEST(TwoCliqueTest, CliquesAreDependentAndMutuallyIndependent) {
  Table t = workload::MakeTwoClique(20000, 2021).value();
  // Within-clique dependence dominates cross-clique (near zero).
  EXPECT_GT(MutualInformationBits(t, 0, 1), 1.0);
  EXPECT_GT(MutualInformationBits(t, 2, 3), 1.0);
  EXPECT_LT(MutualInformationBits(t, 0, 2), 0.05);
  EXPECT_LT(MutualInformationBits(t, 1, 3), 0.05);
  // With 15% noise every value combination of a clique appears.
  EXPECT_EQ(CountDistinctPatterns(t, AttrMask::FromIndices({0, 1})), 16);
}

TEST(TwoCliqueTest, SplittingTheBudgetWins) {
  // The regime the bench records: one pair label fits in 20-40 entries;
  // covering both cliques in a single label needs |P_S| >= 64.
  Table t = workload::MakeTwoClique(20000, 2021).value();
  LabelSearch search(t);
  SearchOptions single;
  single.size_bound = 40;
  SearchResult one = search.TopDown(single);

  MultiSearchOptions multi_options;
  multi_options.total_bound = 40;
  multi_options.max_labels = 2;
  multi_options.strategy = CombineStrategy::kFactorized;
  auto multi = SearchLabelSet(t, multi_options);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->labels.size(), 2u);
  EXPECT_LT(multi->error.max_abs, one.error.max_abs);
  // The two labels cover the two cliques.
  AttrMask combined;
  for (AttrMask s : multi->label_attrs) combined = combined.Union(s);
  EXPECT_EQ(combined.Count(), 4);
}

}  // namespace
}  // namespace pcbl
