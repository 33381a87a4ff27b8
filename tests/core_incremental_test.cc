// Tests for IncrementalLabel: maintaining a label under appends must be
// indistinguishable from rebuilding it on the extended table.
#include "core/incremental.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/label.h"
#include "pattern/counting_service.h"
#include "pattern/full_pattern_index.h"
#include "tests/differential_harness.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

// Rebuilds the combined table (base rows then delta rows, by string) so
// its dictionary codes coincide with the incremental label's.
Table Combined(const Table& base, const Table& delta) {
  auto b = TableBuilder::Create(base.schema().names());
  PCBL_CHECK(b.ok());
  for (int a = 0; a < base.num_attributes(); ++a) {
    for (const std::string& v : base.dictionary(a).values()) {
      b->InternValue(a, v);
    }
  }
  for (const Table* t : {&base, &delta}) {
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      std::vector<std::string> row;
      for (int a = 0; a < t->num_attributes(); ++a) {
        const ValueId v = t->value(r, a);
        row.push_back(IsNull(v) ? "" : t->dictionary(a).GetString(v));
      }
      PCBL_CHECK(b->AddRow(row).ok());
    }
  }
  return b->Build();
}

void ExpectMatchesRebuild(const IncrementalLabel& inc, const Table& combined,
                          AttrMask s) {
  Label rebuilt = Label::Build(combined, s);
  ASSERT_EQ(inc.total_rows(), combined.num_rows());
  EXPECT_EQ(inc.FootprintEntries(), rebuilt.size());
  FullPatternIndex index = FullPatternIndex::Build(combined);
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    ASSERT_NEAR(inc.EstimateFullPattern(index.codes(i), index.width()),
                rebuilt.EstimateFullPattern(index.codes(i), index.width()),
                1e-9)
        << "pattern " << i;
  }
}

TEST(IncrementalLabelTest, ValidatesCreation) {
  Table t = workload::MakeFig2Demo();
  EXPECT_FALSE(
      IncrementalLabel::Create(t, AttrMask::FromIndices({0, 1}), -1).ok());
  EXPECT_FALSE(
      IncrementalLabel::Create(t, AttrMask::FromIndices({0, 63}), 10).ok());
  EXPECT_TRUE(
      IncrementalLabel::Create(t, AttrMask::FromIndices({0, 1}), 10).ok());
}

TEST(IncrementalLabelTest, FreshLabelMatchesNative) {
  Table t = workload::MakeCompas(2000, 7).value();
  AttrMask s = AttrMask::FromIndices({0, 2, 12});
  auto inc = IncrementalLabel::Create(t, s, 100);
  ASSERT_TRUE(inc.ok());
  ExpectMatchesRebuild(*inc, t, s);
  EXPECT_FALSE(inc->drift().SuggestRebuild());
}

TEST(IncrementalLabelTest, AppendRowsMatchesRebuild) {
  Table base = workload::MakeFig2Demo();
  AttrMask s = AttrMask::FromIndices({1, 3});
  auto inc = IncrementalLabel::Create(base, s, 10);
  ASSERT_TRUE(inc.ok());

  // Append rows including a brand-new value ("over 60").
  const std::vector<std::vector<std::string>> rows = {
      {"Female", "over 60", "Caucasian", "widowed"},
      {"Male", "20-39", "Hispanic", "single"},
      {"Female", "over 60", "Hispanic", "widowed"},
  };
  auto b = TableBuilder::Create(base.schema().names());
  PCBL_CHECK(b.ok());
  for (const auto& row : rows) {
    ASSERT_TRUE(inc->AppendRow(row).ok());
    PCBL_CHECK(b->AddRow(row).ok());
  }
  Table delta = b->Build();
  ExpectMatchesRebuild(*inc, Combined(base, delta), s);
  EXPECT_EQ(inc->drift().appended_rows, 3);
  EXPECT_GT(inc->drift().new_patterns, 0);
}

TEST(IncrementalLabelTest, AppendTableMatchesRebuild) {
  Table base = workload::MakeCompas(1500, 7).value();
  Table delta = workload::MakeCompas(700, 99).value();
  AttrMask s = AttrMask::FromIndices({0, 2});
  auto inc = IncrementalLabel::Create(base, s, 50);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->AppendTable(delta).ok());
  ExpectMatchesRebuild(*inc, Combined(base, delta), s);
}

TEST(IncrementalLabelTest, AppendTableChecksSchema) {
  Table base = workload::MakeFig2Demo();
  auto inc = IncrementalLabel::Create(base, AttrMask::FromIndices({0, 1}), 10);
  ASSERT_TRUE(inc.ok());

  auto b = TableBuilder::Create({"wrong", "names", "here", "now"});
  PCBL_CHECK(b.ok());
  PCBL_CHECK(b->AddRow({"a", "b", "c", "d"}).ok());
  Table bad = b->Build();
  EXPECT_FALSE(inc->AppendTable(bad).ok());

  auto narrow = TableBuilder::Create({"gender"});
  PCBL_CHECK(narrow.ok());
  Table bad2 = narrow->Build();
  EXPECT_FALSE(inc->AppendTable(bad2).ok());
}

TEST(IncrementalLabelTest, AppendRowChecksWidth) {
  Table base = workload::MakeFig2Demo();
  auto inc = IncrementalLabel::Create(base, AttrMask::FromIndices({0, 1}), 10);
  ASSERT_TRUE(inc.ok());
  EXPECT_FALSE(inc->AppendRow({"too", "few"}).ok());
}

TEST(IncrementalLabelTest, NullsNeverEnterVcOrPc) {
  Table base = workload::MakeFig2Demo();
  AttrMask s = AttrMask::FromIndices({1, 3});
  auto inc = IncrementalLabel::Create(base, s, 10);
  ASSERT_TRUE(inc.ok());
  const int64_t pc_before = inc->FootprintEntries();
  // NULL inside S: the restriction binds < 2 attributes, so no PC entry.
  ASSERT_TRUE(inc->AppendRow({"Female", "", "Hispanic", "single"}).ok());
  EXPECT_EQ(inc->FootprintEntries(), pc_before);
  EXPECT_EQ(inc->ValueCount(0, "Female"), 10);  // 9 in fig2 + 1
  EXPECT_EQ(inc->ValueCount(1, ""), 0);
}

TEST(IncrementalLabelTest, PartialRestrictionsWithNullsMatchRebuild) {
  // |S| = 3 and appended rows with exactly one NULL inside S: the arity-2
  // partial restriction must enter PC with a NULL-marked key, exactly as
  // ComputePatternCounts stores it.
  Table base = workload::MakeFig2Demo();
  AttrMask s = AttrMask::FromIndices({0, 1, 3});
  auto inc = IncrementalLabel::Create(base, s, 1000);
  ASSERT_TRUE(inc.ok());

  const std::vector<std::vector<std::string>> rows = {
      {"Female", "", "Hispanic", "single"},     // NULL in S (age group)
      {"", "under 20", "Caucasian", "married"}, // NULL in S (gender)
      {"Male", "20-39", "", "divorced"},        // NULL outside S
      {"", "", "Other", "single"},              // arity 1 in S: no PC entry
  };
  auto b = TableBuilder::Create(base.schema().names());
  PCBL_CHECK(b.ok());
  for (const auto& row : rows) {
    ASSERT_TRUE(inc->AppendRow(row).ok());
    PCBL_CHECK(b->AddRow(row).ok());
  }
  Table combined = Combined(base, b->Build());
  Label rebuilt = Label::Build(combined, s);
  EXPECT_EQ(inc->FootprintEntries(), rebuilt.size());
  FullPatternIndex index = FullPatternIndex::Build(combined);
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    EXPECT_NEAR(inc->EstimateFullPattern(index.codes(i), index.width()),
                rebuilt.EstimateFullPattern(index.codes(i), index.width()),
                1e-9);
  }
  // Partial patterns exercise the containment path over NULL-marked keys.
  for (const auto& named :
       std::vector<std::vector<std::pair<std::string, std::string>>>{
           {{"gender", "Female"}},
           {{"gender", "Female"}, {"marital status", "single"}},
           {{"age group", "under 20"}, {"marital status", "married"}},
       }) {
    auto p = Pattern::Parse(combined, named);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(inc->EstimateCount(*p), rebuilt.EstimateCount(*p), 1e-9);
  }
}

TEST(IncrementalLabelTest, BoundViolationIsReported) {
  Table base = workload::MakeFig2Demo();
  AttrMask s = AttrMask::FromIndices({1, 3});
  // The fig2 {age group, marital status} label has exactly 3 patterns.
  auto inc = IncrementalLabel::Create(base, s, 3);
  ASSERT_TRUE(inc.ok());
  EXPECT_TRUE(inc->within_bound());
  ASSERT_TRUE(inc->AppendRow({"Male", "under 20", "Other", "married"}).ok());
  EXPECT_FALSE(inc->within_bound());
  LabelDrift drift = inc->drift();
  EXPECT_TRUE(drift.bound_exceeded);
  EXPECT_TRUE(drift.SuggestRebuild());
}

TEST(IncrementalLabelTest, GrowthThresholdTriggersRebuild) {
  Table base = workload::MakeCompas(1000, 7).value();
  AttrMask s = AttrMask::FromIndices({0, 2});
  auto inc = IncrementalLabel::Create(base, s, 1000000);
  ASSERT_TRUE(inc.ok());
  Table delta = workload::MakeCompas(300, 5).value();
  ASSERT_TRUE(inc->AppendTable(delta).ok());
  LabelDrift drift = inc->drift();
  EXPECT_FALSE(drift.bound_exceeded);
  EXPECT_TRUE(drift.SuggestRebuild(0.2));   // 30% growth > 20%
  EXPECT_FALSE(drift.SuggestRebuild(0.5));  // but not > 50%
}

TEST(IncrementalLabelTest, ServiceBackedAppendsSurviveTheDifferentialGrid) {
  // An incremental session attached to the dataset's counting service:
  // the appends it forwards must leave the *service* byte-identical to a
  // rebuilt table in every configuration — engine on/off, warm/cold
  // cache, patch/invalidate arm, delta block or compacted base. The
  // harness also cross-checks the label's own PC footprint per config.
  testing::DifferentialHarness harness(testing::RandomWorkload(
      /*seed=*/31, /*attrs=*/4, /*base_rows=*/180, /*append_rows=*/45,
      /*domain=*/5, /*append_domain=*/7, /*null_percent=*/20));
  harness.CheckAll();
}

// Appends are transactional across the label and its service: the
// service commits first, so an append it refuses leaves the label
// exactly as it was — row count, drift, and every estimate.
TEST(IncrementalLabelTest, RefusedServiceAppendLeavesLabelUnchanged) {
  Table base = workload::MakeCompas(400, 43).value();
  const int n = base.num_attributes();
  auto service = std::make_shared<CountingService>(base);
  auto inc = IncrementalLabel::Create(base, AttrMask::FromIndices({0, 1, 2}),
                                      int64_t{1} << 20, service);
  ASSERT_TRUE(inc.ok()) << inc.status();

  const FullPatternIndex index = FullPatternIndex::Build(base);
  const auto estimates = [&] {
    std::vector<double> out;
    for (int64_t i = 0; i < index.num_patterns(); ++i) {
      out.push_back(inc->EstimateFullPattern(index.codes(i), index.width()));
    }
    return out;
  };
  const std::vector<double> estimates_before = estimates();
  const LabelDrift drift_before = inc->drift();

  const std::vector<std::string> row(static_cast<size_t>(n), "fresh");
  auto delta_builder = TableBuilder::Create(base.schema().names());
  ASSERT_TRUE(delta_builder.ok());
  ASSERT_TRUE(delta_builder->AddRow(row).ok());
  ASSERT_TRUE(delta_builder->AddRow(row).ok());
  const Table delta = delta_builder->Build();

  service->SetAppendFaultHookForTest(
      [](int64_t) { return InternalError("injected append fault"); });
  EXPECT_EQ(inc->AppendRow(row).code(), StatusCode::kInternal);
  EXPECT_EQ(inc->AppendTable(delta).code(), StatusCode::kInternal);

  EXPECT_EQ(inc->total_rows(), base.num_rows());
  const LabelDrift drift = inc->drift();
  EXPECT_EQ(drift.base_rows, drift_before.base_rows);
  EXPECT_EQ(drift.appended_rows, drift_before.appended_rows);
  EXPECT_EQ(drift.base_patterns, drift_before.base_patterns);
  EXPECT_EQ(drift.new_patterns, drift_before.new_patterns);
  EXPECT_EQ(drift.bound_exceeded, drift_before.bound_exceeded);
  EXPECT_EQ(estimates(), estimates_before);
  EXPECT_EQ(inc->ValueCount(0, "fresh"), 0);
  EXPECT_EQ(service->total_rows(), base.num_rows());

  // Once the service accepts, the same appends land in both.
  service->SetAppendFaultHookForTest(nullptr);
  ASSERT_TRUE(inc->AppendRow(row).ok());
  ASSERT_TRUE(inc->AppendTable(delta).ok());
  EXPECT_EQ(inc->total_rows(), base.num_rows() + 3);
  EXPECT_EQ(inc->ValueCount(0, "fresh"), 3);
  EXPECT_EQ(service->total_rows(), base.num_rows() + 3);
}

TEST(IncrementalLabelTest, RandomizedDifferentialAgainstRebuild) {
  Rng rng(4242);
  for (int trial = 0; trial < 5; ++trial) {
    Table base = workload::MakeBlueNile(800, 100 + trial).value();
    Table delta = workload::MakeBlueNile(400, 200 + trial).value();
    // Random attribute pair/triple as S.
    std::vector<int> idx;
    while (idx.size() < static_cast<size_t>(2 + trial % 2)) {
      int a = static_cast<int>(rng.UniformInt(
          static_cast<uint32_t>(base.num_attributes())));
      if (std::find(idx.begin(), idx.end(), a) == idx.end()) {
        idx.push_back(a);
      }
    }
    AttrMask s = AttrMask::FromIndices(idx);
    auto inc = IncrementalLabel::Create(base, s, 1 << 20);
    ASSERT_TRUE(inc.ok());
    ASSERT_TRUE(inc->AppendTable(delta).ok());
    ExpectMatchesRebuild(*inc, Combined(base, delta), s);
  }
}

TEST(IncrementalLabelTest, PartialPatternEstimatesMatchRebuild) {
  Table base = workload::MakeFig2Demo();
  AttrMask s = AttrMask::FromIndices({1, 3});
  auto inc = IncrementalLabel::Create(base, s, 100);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->AppendRow({"Female", "under 20", "Other", "married"}).ok());

  auto b = TableBuilder::Create(base.schema().names());
  PCBL_CHECK(b.ok());
  PCBL_CHECK(b->AddRow({"Female", "under 20", "Other", "married"}).ok());
  Table combined = Combined(base, b->Build());
  Label rebuilt = Label::Build(combined, s);

  const std::vector<std::vector<std::pair<std::string, std::string>>> cases =
      {
          {{"gender", "Female"}},
          {{"age group", "under 20"}, {"marital status", "married"}},
          {{"gender", "Female"}, {"race", "Other"}},
          {{"age group", "under 20"}},
      };
  for (const auto& named : cases) {
    auto p = Pattern::Parse(combined, named);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(inc->EstimateCount(*p), rebuilt.EstimateCount(*p), 1e-9);
  }
}

}  // namespace
}  // namespace pcbl
