#include "tests/differential_harness.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "pattern/lattice.h"
#include "pattern/packed_codec.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/str.h"

namespace pcbl {
namespace testing {

namespace {

Table BuildTable(const std::vector<std::string>& names,
                 const std::vector<const std::vector<std::vector<std::string>>*>&
                     row_blocks) {
  auto builder = TableBuilder::Create(names);
  PCBL_CHECK(builder.ok());
  for (const auto* rows : row_blocks) {
    for (const auto& row : *rows) {
      PCBL_CHECK(builder->AddRow(row).ok());
    }
  }
  return builder->Build();
}

// The reference one-shot PC set, cross-checked across every eligible
// forced strategy so a codec divergence fails here, loudly, rather than
// biasing the comparison below.
GroupCounts ReferencePatternCounts(const Table& table, AttrMask mask,
                                   const std::string& context) {
  GroupCounts reference = ComputePatternCounts(table, mask);
  const std::vector<int> attrs = mask.ToIndices();
  if (attrs.size() >= 2) {
    if (counting::MakePackedLayout(table, attrs).ok) {
      ExpectSameGroupCounts(
          ComputePatternCounts(table, mask, RestrictionStrategy::kPacked),
          reference, context + " packed-vs-auto " + mask.ToString());
    }
    if (MixedRadixEncodable(table, mask)) {
      ExpectSameGroupCounts(
          ComputePatternCounts(table, mask,
                               RestrictionStrategy::kMixedRadix),
          reference, context + " mixed-vs-auto " + mask.ToString());
    }
    ExpectSameGroupCounts(
        ComputePatternCounts(table, mask, RestrictionStrategy::kSort),
        reference, context + " sort-vs-auto " + mask.ToString());
  }
  return reference;
}

}  // namespace

std::map<std::vector<ValueId>, int64_t> OracleGroupBy(const Table& table,
                                                      AttrMask mask) {
  std::map<std::vector<ValueId>, int64_t> groups;
  const std::vector<int> attrs = mask.ToIndices();
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    std::vector<ValueId> key;
    for (int a : attrs) {
      const ValueId v = table.value(r, a);
      if (IsNull(v)) break;
      key.push_back(v);
    }
    if (key.size() == attrs.size()) ++groups[key];
  }
  return groups;
}

PatternSet OraclePatternSet(const Table& table, AttrMask mask) {
  const std::vector<int> attrs = mask.ToIndices();
  std::vector<Pattern> patterns;
  std::vector<int64_t> counts;
  for (const auto& [key, count] : OracleGroupBy(table, mask)) {
    std::vector<PatternTerm> terms;
    for (size_t j = 0; j < attrs.size(); ++j) {
      terms.push_back(PatternTerm{attrs[j], key[j]});
    }
    auto pattern = Pattern::Create(std::move(terms));
    PCBL_CHECK(pattern.ok()) << pattern.status();
    patterns.push_back(std::move(pattern).value());
    counts.push_back(count);
  }
  auto set = PatternSet::FromPatternsAndCounts(std::move(patterns),
                                               std::move(counts));
  PCBL_CHECK(set.ok()) << set.status();
  return std::move(set).value();
}

bool MixedRadixEncodable(const Table& table, AttrMask mask) {
  int64_t space = 1;
  for (int a : mask.ToIndices()) {
    const int64_t slots = static_cast<int64_t>(table.DomainSize(a)) + 1;
    if (space > std::numeric_limits<int64_t>::max() / slots) return false;
    space *= slots;
  }
  return true;
}

DifferentialWorkload RandomWorkload(uint64_t seed, int attrs,
                                    int64_t base_rows, int64_t append_rows,
                                    int domain, int append_domain,
                                    int null_percent) {
  Rng rng(seed);
  DifferentialWorkload workload;
  for (int a = 0; a < attrs; ++a) {
    workload.attribute_names.push_back(StrCat("a", a));
  }
  auto make_rows = [&](int64_t count, int dom) {
    std::vector<std::vector<std::string>> rows;
    for (int64_t r = 0; r < count; ++r) {
      std::vector<std::string> row;
      for (int a = 0; a < attrs; ++a) {
        if (rng.UniformInt(100) < static_cast<uint32_t>(null_percent)) {
          row.push_back("");
        } else {
          row.push_back(
              StrCat("v", rng.UniformInt(static_cast<uint32_t>(dom))));
        }
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };
  workload.base_rows = make_rows(base_rows, domain);
  workload.append_rows = make_rows(append_rows, append_domain);
  return workload;
}

std::vector<DifferentialConfig> StandardConfigs() {
  std::vector<DifferentialConfig> configs;
  {
    DifferentialConfig c;
    c.name = "warm-patch-delta";
    c.warm_cache_first = true;
    configs.push_back(c);
  }
  {
    DifferentialConfig c;
    c.name = "cold-bulk-delta";
    c.bulk_append = true;
    configs.push_back(c);
  }
  {
    DifferentialConfig c;
    c.name = "warm-invalidate-bulk";
    c.warm_cache_first = true;
    c.invalidate_before_appends = true;
    c.bulk_append = true;
    configs.push_back(c);
  }
  {
    DifferentialConfig c;
    c.name = "warm-compacted";
    c.warm_cache_first = true;
    c.compact_after_appends = true;
    configs.push_back(c);
  }
  {
    DifferentialConfig c;
    c.name = "auto-compact-threshold-1";
    c.compact_threshold = 1;  // every append folds immediately
    configs.push_back(c);
  }
  {
    DifferentialConfig c;
    c.name = "engine-off-delta";
    c.engine_enabled = false;
    configs.push_back(c);
  }
  {
    DifferentialConfig c;
    c.name = "engine-off-compacted";
    c.engine_enabled = false;
    c.compact_after_appends = true;
    c.bulk_append = true;
    configs.push_back(c);
  }
  {
    DifferentialConfig c;
    c.name = "tiny-cache-threaded";
    c.warm_cache_first = true;
    c.cache_budget = 64;
    c.num_threads = 4;
    configs.push_back(c);
  }
  return configs;
}

void ExpectSameGroupCounts(const GroupCounts& got, const GroupCounts& want,
                           const std::string& context) {
  ASSERT_EQ(got.num_groups(), want.num_groups()) << context;
  ASSERT_EQ(got.key_width(), want.key_width()) << context;
  EXPECT_EQ(got.attrs(), want.attrs()) << context;
  for (int64_t g = 0; g < got.num_groups(); ++g) {
    EXPECT_EQ(got.count(g), want.count(g))
        << context << " group " << g;
    for (int j = 0; j < got.key_width(); ++j) {
      EXPECT_EQ(got.key(g)[j], want.key(g)[j])
          << context << " group " << g << " pos " << j;
    }
  }
}

DifferentialHarness::DifferentialHarness(DifferentialWorkload workload)
    : workload_(std::move(workload)),
      base_(BuildTable(workload_.attribute_names, {&workload_.base_rows})),
      reference_(BuildTable(workload_.attribute_names,
                            {&workload_.base_rows,
                             &workload_.append_rows})) {}

void DifferentialHarness::CheckServiceAgainst(CountingService& service,
                                              const Table& reference,
                                              const std::string& context) {
  std::lock_guard<std::mutex> lock(service.mutex());
  CountingEngine& engine = service.engine();
  ASSERT_EQ(engine.total_rows(), reference.num_rows()) << context;
  const AttrMask universe = AttrMask::All(reference.num_attributes());
  ForEachSubsetOf(universe, [&](AttrMask s) {
    const std::string ctx = context + " " + s.ToString();
    const GroupCounts want = ReferencePatternCounts(reference, s, ctx);
    // Budgeted sizing first, before the exact query below warms the
    // cache — this is the path the searches hammer.
    const int64_t exact = want.num_groups();
    const int64_t budget = exact > 1 ? exact / 2 : 0;
    const int64_t sized = engine.CountPatterns(s, budget);
    if (exact <= budget) {
      EXPECT_EQ(sized, exact) << ctx << " budget " << budget;
    } else {
      EXPECT_GT(sized, budget) << ctx << " budget " << budget;
    }
    EXPECT_EQ(engine.CountPatterns(s), exact) << ctx;
    ExpectSameGroupCounts(*engine.PatternCounts(s), want, ctx);
  });
}

std::shared_ptr<CountingService> DifferentialHarness::Run(
    const DifferentialConfig& config) const {
  const std::string context = "config " + config.name;
  CountingEngineOptions options;
  options.enabled = config.engine_enabled;
  options.num_threads = config.num_threads;
  options.cache_budget = config.cache_budget;
  options.delta_compact_threshold = config.compact_threshold;
  auto service = std::make_shared<CountingService>(base_, options);

  if (config.warm_cache_first) {
    std::lock_guard<std::mutex> lock(service->mutex());
    ForEachSubsetOf(AttrMask::All(base_.num_attributes()), [&](AttrMask s) {
      if (s.Count() >= 2) service->engine().PatternCounts(s);
    });
  }

  if (!workload_.append_rows.empty()) {
    // Appends flow through IncrementalLabel, which commits each one
    // through the service's group commit (AppendStrings / AppendTable —
    // the write path api::Session uses too) before applying it to its
    // own state.
    auto label = IncrementalLabel::Create(
        base_, AttrMask::FromIndices({0, 1}), int64_t{1} << 20, service);
    if (!label.ok()) {
      ADD_FAILURE() << context << ": " << label.status().ToString();
      return service;
    }
    if (config.invalidate_before_appends) service->Invalidate();
    if (config.bulk_append) {
      Table delta =
          BuildTable(workload_.attribute_names, {&workload_.append_rows});
      EXPECT_TRUE(label->AppendTable(delta).ok()) << context;
    } else {
      for (const auto& row : workload_.append_rows) {
        EXPECT_TRUE(label->AppendRow(row).ok()) << context;
      }
    }
    // The incremental label itself must agree with a rebuilt one.
    EXPECT_EQ(label->FootprintEntries(),
              ReferencePatternCounts(reference_,
                                     AttrMask::FromIndices({0, 1}), context)
                  .num_groups())
        << context;
  }

  if (config.compact_after_appends) {
    std::lock_guard<std::mutex> lock(service->mutex());
    service->engine().CompactDeltas();
    EXPECT_EQ(service->engine().num_delta_rows(), 0) << context;
  }

  CheckServiceAgainst(*service, reference_, context);
  return service;
}

void DifferentialHarness::CheckAll() const {
  for (const DifferentialConfig& config : StandardConfigs()) {
    Run(config);
  }
}

}  // namespace testing
}  // namespace pcbl
