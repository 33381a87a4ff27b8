// Tests for the fully general append path: the sort-fallback delta
// route for subsets whose nullable key space overflows 64 bits (through
// an incremental label and straight through the service's group
// commit), delta compaction into the engine-owned columnar base,
// appends against a disabled engine, and compaction firing in the
// middle of a sizing sweep — all byte-identical to a from-scratch
// rebuild under the differential harness.
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "pattern/counter.h"
#include "pattern/counting_service.h"
#include "pattern/lattice.h"
#include "pattern/restriction_codec.h"
#include "tests/differential_harness.h"
#include "util/rng.h"

namespace pcbl {
namespace {

using testing::DifferentialConfig;
using testing::DifferentialHarness;
using testing::DifferentialWorkload;
using testing::ExpectSameGroupCounts;
using testing::RandomWorkload;

// High-cardinality workload: 8 attributes drawing from a 1000-value pool
// over 500 rows intern ~350 distinct values per attribute, so the full
// mask's nullable key space overflows int64 (351^8 >> 2^63) and its
// packed width exceeds 63 bits — wide subsets must take the sort
// fallback, with and without deltas (asserted below).
DifferentialWorkload HighCardinalityWorkload(uint64_t seed,
                                             int64_t append_rows) {
  return RandomWorkload(seed, /*attrs=*/8, /*base_rows=*/500, append_rows,
                        /*domain=*/1000, /*append_domain=*/1100,
                        /*null_percent=*/12);
}

TEST(AppendPathTest, NonEncodableSubsetsExistInTheWorkload) {
  DifferentialHarness harness(HighCardinalityWorkload(3, 20));
  const Table& t = harness.reference();
  ASSERT_FALSE(
      testing::MixedRadixEncodable(t, AttrMask::All(t.num_attributes())))
      << "the workload no longer exercises the sort fallback";
}

TEST(AppendPathTest, SortFallbackDeltaMatchesRebuildAcrossConfigs) {
  // The full standard grid on the non-encodable workload: every config
  // (warm patch, bulk invalidate, compacted, engine-off, tiny cache)
  // must agree with the rebuilt reference on *every* subset, including
  // the sort-fallback ones. NULL-bearing appends and fresh values are
  // part of the workload.
  DifferentialHarness harness(HighCardinalityWorkload(5, 30));
  harness.CheckAll();
}

TEST(AppendPathTest, SortFallbackDeltaThroughServiceGroupCommit) {
  // The same non-encodable workload appended straight through the
  // service's string-level group commit: row-at-a-time (the patch arm),
  // as one AppendStrings batch, and as one AppendTable delta — against a
  // warm cache so the patch-or-invalidate pivot sees real entries.
  DifferentialWorkload workload = HighCardinalityWorkload(7, 30);
  DifferentialHarness harness(workload);
  const int n = harness.base().num_attributes();
  auto delta_builder = TableBuilder::Create(workload.attribute_names);
  ASSERT_TRUE(delta_builder.ok());
  for (const auto& row : workload.append_rows) {
    ASSERT_TRUE(delta_builder->AddRow(row).ok());
  }
  const Table delta = delta_builder->Build();

  for (const char* arm : {"row-at-a-time", "strings-batch", "table"}) {
    auto service = std::make_shared<CountingService>(harness.base());
    {
      std::lock_guard<std::mutex> lock(service->mutex());
      ForEachSubsetOf(AttrMask::All(n), [&](AttrMask s) {
        if (s.Count() >= 2) service->engine().PatternCounts(s);
      });
    }
    const std::string name = arm;
    if (name == "row-at-a-time") {
      for (const auto& row : workload.append_rows) {
        ASSERT_TRUE(service->AppendStrings({row}).ok()) << arm;
      }
    } else if (name == "strings-batch") {
      ASSERT_TRUE(service->AppendStrings(workload.append_rows).ok()) << arm;
    } else {
      ASSERT_TRUE(service->AppendTable(delta).ok()) << arm;
    }
    DifferentialHarness::CheckServiceAgainst(*service, harness.reference(),
                                             name);
  }
}

TEST(AppendPathTest, NullOnlyAppendsStayExact) {
  // Appended rows that are entirely / mostly NULL: restrictions of
  // arity < 2 must vanish from every patched PC set, in both the delta
  // and the compacted regime.
  DifferentialWorkload workload =
      RandomWorkload(11, /*attrs=*/4, /*base_rows=*/200, /*append_rows=*/0,
                     /*domain=*/5, /*append_domain=*/5,
                     /*null_percent=*/15);
  workload.append_rows = {
      {"", "", "", ""},
      {"v0", "", "", ""},
      {"", "v1", "v2", ""},
      {"v9", "", "", "v9"},  // fresh values through a NULL-heavy row
  };
  DifferentialHarness harness(std::move(workload));
  harness.CheckAll();
}

TEST(AppendPathTest, DisabledEngineAcceptsAppendsAndStaysExact) {
  // PR 2 rejected ApplyAppend on a disabled engine; now the delegate
  // becomes the engine's own delta-aware scan.
  DifferentialWorkload workload =
      RandomWorkload(13, /*attrs=*/4, /*base_rows=*/250, /*append_rows=*/40,
                     /*domain=*/6, /*append_domain=*/8,
                     /*null_percent=*/10);
  DifferentialHarness harness(std::move(workload));
  DifferentialConfig config;
  config.name = "disabled-appends";
  config.engine_enabled = false;
  auto service = harness.Run(config);
  // Nothing was cached along the way: reference behaviour.
  EXPECT_EQ(service->stats().cached_groups, 0);
  EXPECT_EQ(service->stats().cache_hits, 0);
}

TEST(AppendPathTest, ThresholdTriggersCompactionAndClearsDelta) {
  DifferentialWorkload workload =
      RandomWorkload(17, /*attrs=*/4, /*base_rows=*/150, /*append_rows=*/25,
                     /*domain=*/5, /*append_domain=*/7,
                     /*null_percent=*/10);
  DifferentialHarness harness(std::move(workload));
  DifferentialConfig config;
  config.name = "threshold-10";
  config.warm_cache_first = true;
  config.compact_threshold = 10;
  auto service = harness.Run(config);
  std::lock_guard<std::mutex> lock(service->mutex());
  // 25 single-row appends with a threshold of 10: the block folded at
  // rows 10 and 20, leaving 5 rows in the delta.
  EXPECT_EQ(service->stats().compactions, 2);
  EXPECT_EQ(service->engine().num_delta_rows(), 5);
  EXPECT_EQ(service->engine().num_appended_rows(), 25);
}

TEST(AppendPathTest, CompactionFiringMidSweepStaysExact) {
  // A sizing sweep is underway (half the lattice sized, cache warm) when
  // appends arrive and cross the compaction threshold; the remainder of
  // the sweep — rollups from patched ancestors, budgeted sizings — must
  // keep answering exactly against the extended data.
  DifferentialWorkload workload =
      RandomWorkload(23, /*attrs=*/5, /*base_rows=*/300, /*append_rows=*/18,
                     /*domain=*/6, /*append_domain=*/8,
                     /*null_percent=*/10);
  DifferentialHarness harness(workload);

  CountingEngineOptions options;
  options.delta_compact_threshold = 8;
  auto service = std::make_shared<CountingService>(harness.base(), options);

  // First half of the sweep over the base data.
  const int n = harness.base().num_attributes();
  std::vector<AttrMask> all_masks;
  ForEachSubsetOf(AttrMask::All(n),
                  [&](AttrMask s) { all_masks.push_back(s); });
  {
    std::lock_guard<std::mutex> lock(service->mutex());
    for (size_t i = 0; i < all_masks.size() / 2; ++i) {
      service->engine().PatternCounts(all_masks[i]);
    }
  }

  // Appends land mid-sweep; the threshold fires inside this loop.
  auto label = IncrementalLabel::Create(
      harness.base(), AttrMask::FromIndices({0, 1}), int64_t{1} << 20,
      service);
  ASSERT_TRUE(label.ok());
  for (const auto& row : workload.append_rows) {
    ASSERT_TRUE(label->AppendRow(row).ok());
  }
  {
    std::lock_guard<std::mutex> lock(service->mutex());
    EXPECT_GT(service->stats().compactions, 0);
    EXPECT_LT(service->engine().num_delta_rows(), 8);
  }

  // Second half of the sweep — and then the full differential check.
  {
    std::lock_guard<std::mutex> lock(service->mutex());
    for (size_t i = all_masks.size() / 2; i < all_masks.size(); ++i) {
      service->engine().PatternCounts(all_masks[i]);
    }
  }
  DifferentialHarness::CheckServiceAgainst(*service, harness.reference(),
                                           "mid-sweep");
}

TEST(AppendPathTest, CompactionIsIdempotentAndCheapWhenEmpty) {
  DifferentialHarness harness(RandomWorkload(29, 3, 100, 0, 4, 4, 5));
  CountingService service(harness.base());
  std::lock_guard<std::mutex> lock(service.mutex());
  service.engine().CompactDeltas();  // no deltas: no-op
  EXPECT_EQ(service.stats().compactions, 0);
  service.engine().ApplyAppend({{0, 1, 2}, {1, 1, 1}});
  service.engine().CompactDeltas();
  EXPECT_EQ(service.stats().compactions, 1);
  EXPECT_EQ(service.engine().num_delta_rows(), 0);
  EXPECT_EQ(service.engine().num_appended_rows(), 2);
  service.engine().CompactDeltas();  // nothing left to fold
  EXPECT_EQ(service.stats().compactions, 1);
}

}  // namespace
}  // namespace pcbl
