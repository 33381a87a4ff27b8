// Differential battery for warm-start restore (src/persist/,
// docs/PERSISTENCE.md): a registry that restores a spilled warm state
// must be indistinguishable — byte-for-byte in every count — from the
// service that exported it, across engine on/off, thread counts, and
// post-restore appends; the first search over a restored service must
// perform zero full-table scans; a diverged (appended-to) state must
// round-trip at the service level but be refused by the registry's
// base-only acquire path; and two registries sharing one spill
// directory must race safely (atomic rename: every concurrent load is
// valid-or-miss, never garbage — the `Race` test runs under TSan in
// CI).
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/counting_service.h"
#include "pattern/lattice.h"
#include "pattern/service_registry.h"
#include "persist/spill_store.h"
#include "tests/differential_harness.h"
#include "util/attr_mask.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pcbl_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Sizes every arity-2 subset through the service's engine — a
// deterministic warm cache whose masks any later consumer can probe.
void WarmAllPairs(CountingService& service) {
  std::lock_guard<std::mutex> lock(service.mutex());
  ForEachSubsetOfSize(service.table().num_attributes(), 2,
                      [&](AttrMask mask) {
                        service.engine().PatternCounts(mask);
                      });
}

TEST(WarmStartTest, RestoredRegistryAnswersFirstSearchWithoutFullScans) {
  const std::string dir = FreshDir("warm_first_search");
  Table table = workload::MakeCompas(1500, 31).value();
  SearchOptions options;
  options.size_bound = 60;
  options.num_threads = 2;

  // Cold reference: a private search, and the scan count it paid.
  LabelSearch cold(table);
  const SearchResult want = cold.TopDown(options);
  ASSERT_GT(cold.counting_service()->stats().full_scans, 0);

  // First lifetime: search through a spilling registry, then shut down
  // in an orderly way (SpillResident — what `pcbl serve` does).
  {
    ServiceRegistry registry;
    registry.SetSpillDirectory(dir);
    auto service = registry.Acquire(table);
    EXPECT_EQ(registry.stats().spill_misses, 1);  // cold directory
    LabelSearch search(table, service);
    search.TopDown(options);
    EXPECT_EQ(registry.SpillResident(), 1);
    EXPECT_EQ(registry.stats().spills, 1);
    EXPECT_GT(registry.stats().spilled_bytes, 0);
  }

  // Second lifetime: the acquire restores from the spill, and the same
  // search runs without a single full-table scan — the PR's acceptance
  // criterion — returning the cold search's exact result.
  ServiceRegistry registry;
  registry.SetSpillDirectory(dir);
  auto service = registry.Acquire(table);
  EXPECT_EQ(registry.stats().spill_hits, 1);
  EXPECT_EQ(service->stats().full_scans, 0);
  LabelSearch search(table, service);
  const SearchResult got = search.TopDown(options);
  EXPECT_EQ(service->stats().full_scans, 0)
      << "the restored cache missed a mask the exporter had sized";
  EXPECT_EQ(got.best_attrs, want.best_attrs);
  EXPECT_EQ(got.label.size(), want.label.size());
  EXPECT_DOUBLE_EQ(got.error.max_abs, want.error.max_abs);
  EXPECT_DOUBLE_EQ(got.error.mean_abs, want.error.mean_abs);
}

TEST(WarmStartTest, DifferentialGridAcrossEngineThreadsAndAppends) {
  // The restored service must answer byte-identically to the one-shot
  // counters under every configuration, before and after post-restore
  // appends — CheckServiceAgainst asserts every subset's PC set and
  // |P_S| (budgeted and exact).
  const testing::DifferentialWorkload workload = testing::RandomWorkload(
      /*seed=*/23, /*attrs=*/4, /*base_rows=*/300, /*append_rows=*/40,
      /*domain=*/5, /*append_domain=*/8, /*null_percent=*/10);
  const testing::DifferentialHarness harness(workload);
  const Table& base = harness.base();
  const std::string dir = FreshDir("warm_grid");

  {
    ServiceRegistry registry;
    registry.SetSpillDirectory(dir);
    auto service = registry.Acquire(base);
    WarmAllPairs(*service);
    ASSERT_EQ(registry.SpillResident(), 1);
  }

  for (const bool engine : {true, false}) {
    for (const int threads : {1, 3}) {
      for (const bool append : {false, true}) {
        const std::string name =
            std::string("engine=") + (engine ? "on" : "off") +
            " threads=" + std::to_string(threads) +
            " append=" + (append ? "yes" : "no");
        SCOPED_TRACE(name);
        ServiceRegistry registry;
        registry.SetSpillDirectory(dir);
        auto service = registry.Acquire(base);
        ASSERT_EQ(registry.stats().spill_hits, 1);

        // The search arm of the grid: identical results to a cold
        // private search under the same configuration.
        SearchOptions options;
        options.size_bound = 50;
        options.use_counting_engine = engine;
        options.num_threads = threads;
        LabelSearch cold(base);
        const SearchResult want = cold.TopDown(options);
        LabelSearch warm(base, service);
        const SearchResult got = warm.TopDown(options);
        EXPECT_EQ(got.best_attrs, want.best_attrs);
        EXPECT_EQ(got.label.size(), want.label.size());
        EXPECT_DOUBLE_EQ(got.error.max_abs, want.error.max_abs);

        if (append) {
          ASSERT_TRUE(service->AppendStrings(workload.append_rows).ok());
          testing::DifferentialHarness::CheckServiceAgainst(
              *service, harness.reference(), name);
        } else {
          testing::DifferentialHarness::CheckServiceAgainst(
              *service, base, name);
        }
      }
    }
  }
}

TEST(WarmStartTest, DivergedStateRoundTripsAtServiceLevel) {
  // A service that absorbed string-level appends (fresh dictionary
  // values included) exports a diverged state; the full restore path
  // replays it onto a fresh service over the *base* table and every
  // answer matches the ground-truth rebuild over base + appends.
  const testing::DifferentialWorkload workload = testing::RandomWorkload(
      /*seed=*/29, /*attrs=*/4, /*base_rows=*/250, /*append_rows=*/30,
      /*domain=*/5, /*append_domain=*/9, /*null_percent=*/15);
  const testing::DifferentialHarness harness(workload);
  auto base_table = std::make_shared<const Table>(harness.base());

  auto exporter = std::make_shared<CountingService>(base_table);
  WarmAllPairs(*exporter);
  ASSERT_TRUE(exporter->AppendStrings(workload.append_rows).ok());
  ASSERT_TRUE(exporter->has_absorbed_appends());
  const ServiceWarmState exported = exporter->ExportWarmState();

  // Through the byte codec, base_only off (the direct restore path).
  const TableFingerprint fp = FingerprintTable(*base_table);
  const std::string bytes =
      persist::SpillStore::EncodeWarmState(fp, *base_table, exported);
  const std::optional<ServiceWarmState> decoded =
      persist::SpillStore::DecodeWarmState(bytes, fp, *base_table,
                                           /*base_only=*/false);
  ASSERT_TRUE(decoded.has_value());

  auto restored = std::make_shared<CountingService>(base_table);
  restored->RestoreWarmState(*decoded);
  EXPECT_EQ(restored->total_rows(), exporter->total_rows());
  EXPECT_TRUE(restored->has_absorbed_appends());
  // The replayed cache is warm: a pair the exporter sized is answered
  // without re-scanning (patch-at-append already folded the rows in).
  {
    std::lock_guard<std::mutex> lock(restored->mutex());
    restored->engine().PatternCounts(AttrMask::FromIndices({0, 1}));
  }
  EXPECT_EQ(restored->stats().full_scans, 0);
  testing::DifferentialHarness::CheckServiceAgainst(
      *restored, harness.reference(), "diverged restore");
}

TEST(WarmStartTest, RegistryRefusesDivergedSpillAndStartsCold) {
  // A spill directory holding a *diverged* record (written through the
  // service-level path above) must not warm the registry's acquire —
  // base_only validation refuses it — and the cold service stays exact.
  const testing::DifferentialWorkload workload = testing::RandomWorkload(
      /*seed=*/31, /*attrs=*/3, /*base_rows=*/200, /*append_rows=*/20,
      /*domain=*/4, /*append_domain=*/6, /*null_percent=*/10);
  const testing::DifferentialHarness harness(workload);
  auto base_table = std::make_shared<const Table>(harness.base());
  const std::string dir = FreshDir("warm_diverged_refuse");

  {
    auto service = std::make_shared<CountingService>(base_table);
    WarmAllPairs(*service);
    ASSERT_TRUE(service->AppendStrings(workload.append_rows).ok());
    persist::SpillStoreOptions options;
    options.directory = dir;
    persist::SpillStore store(options);
    ASSERT_TRUE(store.PutWarmState(FingerprintTable(*base_table),
                                   *base_table,
                                   service->ExportWarmState()));
  }

  ServiceRegistry registry;
  registry.SetSpillDirectory(dir);
  auto service = registry.Acquire(harness.base());
  EXPECT_EQ(registry.stats().spill_rejects, 1);
  EXPECT_EQ(registry.stats().spill_hits, 0);
  EXPECT_EQ(service->total_rows(), harness.base().num_rows());
  testing::DifferentialHarness::CheckServiceAgainst(*service,
                                                    harness.base(),
                                                    "cold fallback");
}

TEST(WarmStartTest, EvictionSpillsWarmStateOnTheWayOut) {
  // The other spill trigger: a cold service evicted by the memory
  // accountant writes its warm state first, so eviction downgrades a
  // restart from "rebuild everything" to "reload from disk".
  const std::string dir = FreshDir("warm_evict");
  Table table = workload::MakeCompas(900, 37).value();
  ServiceRegistry registry;
  registry.SetSpillDirectory(dir);
  {
    auto service = registry.Acquire(table);
    WarmAllPairs(*service);
  }  // dropped: cold, evictable
  registry.SetMemoryBudget(1);
  registry.Trim();
  ASSERT_EQ(registry.stats().evictions, 1);
  EXPECT_EQ(registry.stats().spills, 1);

  registry.SetMemoryBudget(0);
  auto service = registry.Acquire(table);
  EXPECT_EQ(registry.stats().spill_hits, 1);
  // The evicted warmth is back without a scan.
  {
    std::lock_guard<std::mutex> lock(service->mutex());
    service->engine().PatternCounts(AttrMask::FromIndices({0, 1}));
  }
  EXPECT_EQ(service->stats().full_scans, 0);
}

// Two registries over one spill directory: concurrent spills (atomic
// rename, last writer wins) race concurrent restores. Every load must
// be valid-or-miss — a torn read would surface as a spill reject and a
// wrong count as a differential failure. Runs under TSan in CI.
TEST(WarmStartTest, SharedSpillDirRaceStaysValidOrMiss) {
  const std::string dir = FreshDir("warm_race");
  Table table = workload::MakeCompas(500, 41).value();
  const GroupCounts want =
      ComputePatternCounts(table, AttrMask::FromIndices({0, 1}));

  ServiceRegistry a;
  a.SetSpillDirectory(dir);
  ServiceRegistry b;
  b.SetSpillDirectory(dir);
  auto service_a = a.Acquire(table);
  auto service_b = b.Acquire(table);
  WarmAllPairs(*service_a);
  WarmAllPairs(*service_b);

  constexpr int kIters = 12;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < kIters; ++i) a.SpillResident();
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kIters; ++i) b.SpillResident();
  });
  std::atomic<int64_t> rejects{0};
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        ServiceRegistry fresh;
        fresh.SetSpillDirectory(dir);
        auto service = fresh.Acquire(table);
        {
          std::lock_guard<std::mutex> lock(service->mutex());
          const auto got =
              service->engine().PatternCounts(AttrMask::FromIndices({0, 1}));
          testing::ExpectSameGroupCounts(*got, want, "raced restore");
        }
        rejects.fetch_add(fresh.stats().spill_rejects);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Atomic publication: no reader ever saw a torn or half-written file.
  EXPECT_EQ(rejects.load(), 0);
}

}  // namespace
}  // namespace pcbl
