// Tests for the dataset-scoped CountingService: warm-cache reuse across
// searches (the acceptance criterion: a second search performs zero
// full-table scans for candidates the first one sized), the
// invalidate-or-patch append hook (driven through the shared
// differential harness), and reconfiguration semantics.
#include "pattern/counting_service.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/lattice.h"
#include "tests/differential_harness.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

using testing::DifferentialConfig;
using testing::DifferentialHarness;
using testing::RandomWorkload;

TEST(CountingServiceTest, WarmSecondSearchPerformsZeroFullScans) {
  Table t = workload::MakeCompas(3000, 9).value();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = 60;

  const SearchResult first = search.TopDown(options);
  const CountingEngineStats& stats = search.counting_service()->stats();
  const int64_t full_scans_after_first = stats.full_scans;
  const int64_t hits_after_first = stats.cache_hits;
  EXPECT_GT(full_scans_after_first, 0);

  const SearchResult second = search.TopDown(options);
  // Every candidate the first search sized within budget is served from
  // the warm cache: not a single full-table materializing scan repeats.
  EXPECT_EQ(stats.full_scans, full_scans_after_first)
      << "the warm second search rescanned the table";
  EXPECT_GT(stats.cache_hits, hits_after_first);
  EXPECT_EQ(second.best_attrs, first.best_attrs);
  EXPECT_EQ(second.label.size(), first.label.size());
  EXPECT_DOUBLE_EQ(second.error.max_abs, first.error.max_abs);

  // The naive algorithm over the same service also rides the warm cache
  // for every subset the top-down search already counted.
  const SearchResult naive = search.Naive(options);
  EXPECT_EQ(naive.best_attrs, first.best_attrs);
}

TEST(CountingServiceTest, SearchesShareOneServiceAcrossInstances) {
  Table t = workload::MakeCompas(1500, 7).value();
  LabelSearch a(t);
  SearchOptions options;
  options.size_bound = 50;
  a.TopDown(options);
  const int64_t full_scans = a.counting_service()->stats().full_scans;

  LabelSearch b(t);
  b.SetCountingService(a.counting_service());
  b.TopDown(options);
  EXPECT_EQ(a.counting_service()->stats().full_scans, full_scans)
      << "a second LabelSearch over the shared service rescanned";
}

TEST(CountingServiceTest, AppendRowPatchesCachedEntriesExactly) {
  // The harness's warm-patch config: every subset's PC set is primed,
  // then rows — some with fresh values, some NULL-bearing — arrive one
  // by one through the patch arm, and every engine answer (patched
  // cache, rollup from a patched ancestor, delta-aware scan) must be
  // byte-identical to the one-shot counters on a rebuilt table.
  DifferentialHarness harness(
      RandomWorkload(/*seed=*/11, /*attrs=*/5, /*base_rows=*/250,
                     /*append_rows=*/40, /*domain=*/6, /*append_domain=*/9,
                     /*null_percent=*/15));
  DifferentialConfig config;
  config.name = "warm-patch";
  config.warm_cache_first = true;
  auto service = harness.Run(config);
  EXPECT_GT(service->stats().patched_entries, 0);
  EXPECT_EQ(service->total_rows(), harness.reference().num_rows());
}

TEST(CountingServiceTest, BulkAppendStaysExactThroughEitherArm) {
  DifferentialHarness harness(
      RandomWorkload(/*seed=*/5, /*attrs=*/4, /*base_rows=*/300,
                     /*append_rows=*/120, /*domain=*/5, /*append_domain=*/7,
                     /*null_percent=*/10));
  for (bool force_invalidate : {false, true}) {
    DifferentialConfig config;
    config.name = force_invalidate ? "bulk-invalidate" : "bulk-patch";
    config.warm_cache_first = true;
    config.bulk_append = true;
    config.invalidate_before_appends = force_invalidate;
    auto service = harness.Run(config);
    if (force_invalidate) {
      EXPECT_GT(service->stats().invalidations, 0);
    }
  }
}

TEST(CountingServiceTest, StandardDifferentialGridHolds) {
  // The full engine-on/off × warm/cold × delta/compacted grid on a
  // mid-size NULL-bearing workload.
  DifferentialHarness harness(
      RandomWorkload(/*seed=*/21, /*attrs=*/5, /*base_rows=*/220,
                     /*append_rows=*/35, /*domain=*/5, /*append_domain=*/8,
                     /*null_percent=*/12));
  harness.CheckAll();
}

TEST(CountingServiceTest, IncrementalSeedReusesWarmCache) {
  Table t = workload::MakeCompas(2000, 8).value();
  LabelSearch search(t);
  SearchOptions options;
  options.size_bound = 60;
  const SearchResult result = search.TopDown(options);
  if (result.best_attrs.Count() < 2) GTEST_SKIP();

  auto service = search.counting_service();
  const int64_t full_scans = service->stats().full_scans;
  auto label = IncrementalLabel::Create(t, result.best_attrs,
                                        options.size_bound, service);
  ASSERT_TRUE(label.ok());
  // The winning candidate's PC set was cached by the search: seeding the
  // incremental label costs zero additional table scans.
  EXPECT_EQ(service->stats().full_scans, full_scans);
  EXPECT_EQ(label->FootprintEntries(), result.label.size());
}

TEST(CountingServiceTest, ReconfigureShrinksToBudgetWithoutGoingStale) {
  Table t = workload::MakeCompas(1000, 7).value();
  CountingService service(t);
  std::lock_guard<std::mutex> lock(service.mutex());
  ForEachSubsetOfSize(7, 2, [&](AttrMask s) {
    service.engine().PatternCounts(s);
  });
  EXPECT_GT(service.stats().cached_groups, 0);
  CountingEngineOptions tight;
  tight.cache_budget = 0;
  service.engine().Reconfigure(tight);
  EXPECT_EQ(service.stats().cached_groups, 0);
  // Still exact after the purge.
  ForEachSubsetOfSize(7, 2, [&](AttrMask s) {
    EXPECT_EQ(service.engine().CountPatterns(s),
              CountDistinctPatterns(t, s));
  });
}

}  // namespace
}  // namespace pcbl
