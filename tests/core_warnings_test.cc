// Tests for the fitness-for-use audit (core/warnings): the Sec. I
// workflow of turning a label into representation/skew/correlation
// warnings.
#include "core/warnings.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/label.h"
#include "core/portable_label.h"
#include "core/search.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "util/str.h"

namespace pcbl {
namespace {

PortableLabel LabelFor(const Table& t, AttrMask s) {
  return MakePortable(Label::Build(t, s), t, "test");
}

// gender(2) x race(3): "X"/"r2" is rare (2 rows), "Y" dominates, and
// gender is independent of race except for the rare cell.
Table AuditTable() {
  auto b = TableBuilder::Create({"gender", "race"});
  PCBL_CHECK(b.ok());
  for (int i = 0; i < 70; ++i) PCBL_CHECK(b->AddRow({"Y", "r0"}).ok());
  for (int i = 0; i < 20; ++i) PCBL_CHECK(b->AddRow({"Y", "r1"}).ok());
  for (int i = 0; i < 8; ++i) PCBL_CHECK(b->AddRow({"X", "r1"}).ok());
  for (int i = 0; i < 2; ++i) PCBL_CHECK(b->AddRow({"X", "r2"}).ok());
  return b->Build();
}

TEST(AuditLabelTest, FindsUnderrepresentedIntersections) {
  Table t = AuditTable();
  PortableLabel label = LabelFor(t, AttrMask::FromIndices({0, 1}));
  AuditOptions options;
  options.min_group_count = 5;
  options.correlation_factor = 1e9;  // disable correlation warnings
  auto warnings = AuditLabel(label, {}, options);
  ASSERT_TRUE(warnings.ok()) << warnings.status();
  // X/r2 (2 rows) and the never-seen Y/r2 and X/r0 cells fall below 5.
  bool found_rare = false;
  for (const FitnessWarning& w : *warnings) {
    if (w.kind != WarningKind::kUnderrepresented) continue;
    EXPECT_LT(w.estimated, 5.0);
    if (w.GroupString() == "gender=X, race=r2") found_rare = true;
  }
  EXPECT_TRUE(found_rare);
}

TEST(AuditLabelTest, UnderrepresentedSortedByEstimateAscending) {
  Table t = AuditTable();
  PortableLabel label = LabelFor(t, AttrMask::FromIndices({0, 1}));
  AuditOptions options;
  options.min_group_count = 25;
  options.correlation_factor = 1e9;
  options.max_group_share = 1.1;  // disable skew
  auto warnings = AuditLabel(label, {}, options);
  ASSERT_TRUE(warnings.ok());
  double prev = -1.0;
  for (const FitnessWarning& w : *warnings) {
    ASSERT_EQ(w.kind, WarningKind::kUnderrepresented);
    EXPECT_GE(w.estimated, prev);
    prev = w.estimated;
  }
}

TEST(AuditLabelTest, FindsSkewedGroups) {
  Table t = AuditTable();
  PortableLabel label = LabelFor(t, AttrMask::FromIndices({0, 1}));
  AuditOptions options;
  options.min_group_count = 0;
  options.max_group_share = 0.6;  // Y holds 90%, r0 70%
  options.correlation_factor = 1e9;
  auto warnings = AuditLabel(label, {}, options);
  ASSERT_TRUE(warnings.ok());
  std::vector<std::string> skewed;
  for (const FitnessWarning& w : *warnings) {
    if (w.kind == WarningKind::kSkewed) skewed.push_back(w.GroupString());
  }
  EXPECT_NE(std::find(skewed.begin(), skewed.end(), "gender=Y"),
            skewed.end());
  EXPECT_NE(std::find(skewed.begin(), skewed.end(), "race=r0"),
            skewed.end());
}

TEST(AuditLabelTest, CorrelationRequiresJointEvidence) {
  // a0 == a1 always: a label over {a0,a1} has the joint counts and must
  // flag the dependence; a label over other attributes estimates pairs by
  // independence and must stay silent.
  auto b = TableBuilder::Create({"a0", "a1", "a2"});
  PCBL_CHECK(b.ok());
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const std::string v = StrCat("v", rng.UniformInt(4));
    const std::string w = StrCat("w", rng.UniformInt(4));
    PCBL_CHECK(b->AddRow({v, v, w}).ok());
  }
  Table t = b->Build();

  AuditOptions options;
  options.min_group_count = 0;
  options.max_group_share = 1.1;
  options.correlation_factor = 2.0;

  PortableLabel informed = LabelFor(t, AttrMask::FromIndices({0, 1}));
  auto warnings = AuditLabel(informed, {"a0", "a1"}, options);
  ASSERT_TRUE(warnings.ok());
  int correlated = 0;
  for (const FitnessWarning& w : *warnings) {
    if (w.kind == WarningKind::kCorrelated) ++correlated;
  }
  // Every equal-valued pair deviates ~4x from independence.
  EXPECT_GE(correlated, 4);

  PortableLabel uninformed = LabelFor(t, AttrMask::FromIndices({1, 2}));
  auto silent = AuditLabel(uninformed, {"a0", "a1"}, options);
  ASSERT_TRUE(silent.ok());
  for (const FitnessWarning& w : *silent) {
    EXPECT_NE(w.kind, WarningKind::kCorrelated) << w.GroupString();
  }
}

TEST(AuditLabelTest, RespectsAttributeSubsetAndArity) {
  Table t = workload::MakeFig2Demo();
  PortableLabel label = LabelFor(t, AttrMask::FromIndices({1, 3}));
  AuditOptions options;
  options.min_group_count = 100;  // everything is underrepresented (18 rows)
  options.max_arity = 1;
  auto warnings = AuditLabel(label, {"gender", "race"}, options);
  ASSERT_TRUE(warnings.ok());
  for (const FitnessWarning& w : *warnings) {
    ASSERT_EQ(w.group.size(), 1u);
    EXPECT_TRUE(w.group[0].first == "gender" || w.group[0].first == "race");
  }
  // 2 gender values + 3 race values.
  EXPECT_EQ(warnings->size(), 5u);
}

TEST(AuditLabelTest, ValidatesInput) {
  Table t = workload::MakeFig2Demo();
  PortableLabel label = LabelFor(t, AttrMask::FromIndices({1, 3}));
  EXPECT_FALSE(AuditLabel(label, {"nosuch"}).ok());
  EXPECT_FALSE(AuditLabel(label, {"gender", "gender"}).ok());
  AuditOptions options;
  options.max_arity = 0;
  EXPECT_FALSE(AuditLabel(label, {}, options).ok());
}

TEST(AuditLabelTest, CrossProductCapSkipsWideCombinations) {
  Table t = workload::MakeFig2Demo();
  PortableLabel label = LabelFor(t, AttrMask::FromIndices({1, 3}));
  AuditOptions options;
  options.min_group_count = 100;
  options.max_groups_per_combination = 2;  // only 2-value domains fit
  options.max_arity = 2;
  auto warnings = AuditLabel(label, {}, options);
  ASSERT_TRUE(warnings.ok());
  for (const FitnessWarning& w : *warnings) {
    // gender and age group have 2 values; race/marital (3) and every
    // 2-attribute cross-product (>= 4) exceed the cap.
    ASSERT_EQ(w.group.size(), 1u);
    EXPECT_TRUE(w.group[0].first == "gender" ||
                w.group[0].first == "age group")
        << w.group[0].first;
  }
}

TEST(AuditLabelTest, WarningsAreMostlyTrueOnCompas) {
  // Quantitative version of the paper's motivating scenario: audit
  // demographic intersections from the label alone, then check each
  // warning against the (normally unavailable) ground truth. With a
  // searched label the estimates are good enough that most warnings are
  // real, and no sufficiently-extreme group is missed.
  Table t = workload::MakeCompas(30000, 2021).value();
  LabelSearch search(t);
  SearchOptions search_options;
  search_options.size_bound = 100;
  SearchResult built = search.TopDown(search_options);
  PortableLabel label = MakePortable(built.label, t, "compas");

  AuditOptions options;
  options.min_group_count = 150;
  options.correlation_factor = 1e9;
  options.max_group_share = 1.1;
  auto warnings =
      AuditLabel(label, {"Gender", "Race", "MaritalStatus"}, options);
  ASSERT_TRUE(warnings.ok());
  ASSERT_FALSE(warnings->empty());

  int64_t confirmed = 0;
  for (const FitnessWarning& w : *warnings) {
    std::vector<std::pair<std::string, std::string>> named(w.group.begin(),
                                                           w.group.end());
    auto p = Pattern::Parse(t, named);
    ASSERT_TRUE(p.ok()) << w.GroupString();
    // Allow slack 2x around the threshold for estimate noise.
    if (CountMatches(t, *p) < 2 * options.min_group_count) ++confirmed;
  }
  EXPECT_GE(static_cast<double>(confirmed) /
                static_cast<double>(warnings->size()),
            0.9)
      << confirmed << "/" << warnings->size();

  // Recall at the extreme end: every group with true count < half the
  // threshold must have been flagged.
  const std::vector<std::string> genders = {"Male", "Female"};
  const std::vector<std::string> races = {"African-American", "Caucasian",
                                          "Hispanic", "Other"};
  for (const std::string& g : genders) {
    for (const std::string& r : races) {
      auto p = Pattern::Parse(t, {{"Gender", g}, {"Race", r}});
      ASSERT_TRUE(p.ok());
      if (CountMatches(t, *p) >= options.min_group_count / 2) continue;
      bool flagged = false;
      for (const FitnessWarning& w : *warnings) {
        if (w.GroupString() == "Gender=" + g + ", Race=" + r) {
          flagged = true;
          break;
        }
      }
      EXPECT_TRUE(flagged) << g << "/" << r;
    }
  }
}

TEST(AuditLabelTest, CompasScenarioFlagsSparseIntersections) {
  // The paper's motivating example: sparse demographic intersections in a
  // COMPAS-like dataset surface from the label alone.
  Table t = workload::MakeCompas(20000, 2021).value();
  Label native = Label::Build(t, AttrMask::FromIndices({0, 2}));
  PortableLabel label = MakePortable(native, t, "compas");
  AuditOptions options;
  options.min_group_count = 200;
  options.max_arity = 2;
  auto warnings = AuditLabel(label, {"Gender", "Race", "MaritalStatus"},
                             options);
  ASSERT_TRUE(warnings.ok()) << warnings.status();
  // Fig. 1's marginals guarantee sparse intersections (e.g. widowed
  // minorities) at this threshold.
  EXPECT_FALSE(warnings->empty());
  for (const FitnessWarning& w : *warnings) {
    if (w.kind == WarningKind::kUnderrepresented) {
      EXPECT_LT(w.estimated, 200.0);
    }
  }
}

}  // namespace
}  // namespace pcbl
