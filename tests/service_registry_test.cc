// Tests for the process-wide ServiceRegistry: content fingerprinting,
// cross-consumer cache sharing (the acceptance criterion: two concurrent
// searches over the same dataset perform exactly one set of full-table
// scans), memory accounting with cold-service eviction, and a
// concurrency stress where acquires, appends and evictions race
// (TSan-clean; one engine built once).
#include "pattern/service_registry.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/lattice.h"
#include "tests/differential_harness.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

TEST(TableFingerprintTest, EqualContentEqualFingerprint) {
  Table a = workload::MakeCompas(500, 7).value();
  Table b = workload::MakeCompas(500, 7).value();
  EXPECT_EQ(FingerprintTable(a), FingerprintTable(b));
  // Copies too, trivially.
  Table c = a;
  EXPECT_EQ(FingerprintTable(a), FingerprintTable(c));
}

TEST(TableFingerprintTest, DataSchemaAndDictionaryChangesAllRegister) {
  Table base = workload::MakeCompas(500, 7).value();
  // Different rows.
  EXPECT_NE(FingerprintTable(base),
            FingerprintTable(workload::MakeCompas(500, 8).value()));
  // Different row count.
  EXPECT_NE(FingerprintTable(base),
            FingerprintTable(workload::MakeCompas(499, 7).value()));
  // Different schema names over identical data.
  auto b1 = TableBuilder::Create({"x", "y"});
  auto b2 = TableBuilder::Create({"x", "z"});
  PCBL_CHECK(b1.ok() && b2.ok());
  PCBL_CHECK(b1->AddRow({"a", "b"}).ok());
  PCBL_CHECK(b2->AddRow({"a", "b"}).ok());
  EXPECT_NE(FingerprintTable(b1->Build()), FingerprintTable(b2->Build()));
  // Same column codes, different dictionary strings.
  auto b3 = TableBuilder::Create({"x", "y"});
  PCBL_CHECK(b3.ok());
  PCBL_CHECK(b3->AddRow({"a", "c"}).ok());
  auto b4 = TableBuilder::Create({"x", "y"});
  PCBL_CHECK(b4.ok());
  PCBL_CHECK(b4->AddRow({"a", "b"}).ok());
  EXPECT_NE(FingerprintTable(b3->Build()), FingerprintTable(b4->Build()));
  // NULL vs a value.
  auto b5 = TableBuilder::Create({"x", "y"});
  PCBL_CHECK(b5.ok());
  PCBL_CHECK(b5->AddRow({"a", ""}).ok());
  EXPECT_NE(FingerprintTable(b4->Build()), FingerprintTable(b5->Build()));
}

TEST(ServiceRegistryTest, ContentEqualTablesShareOneService) {
  ServiceRegistry registry;
  Table a = workload::MakeCompas(800, 3).value();
  Table b = workload::MakeCompas(800, 3).value();  // distinct instance
  auto s1 = registry.Acquire(a);
  auto s2 = registry.Acquire(b);
  EXPECT_EQ(s1.get(), s2.get());
  const ServiceRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.acquires, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.services, 1);
  // The service survives both acquirers' tables: it scans its own copy.
  EXPECT_NE(&s1->table(), &a);
  EXPECT_NE(&s1->table(), &b);
  EXPECT_EQ(s1->table().num_rows(), a.num_rows());

  Table other = workload::MakeCompas(800, 4).value();
  auto s3 = registry.Acquire(other);
  EXPECT_NE(s3.get(), s1.get());
  EXPECT_EQ(registry.stats().services, 2);
}

// The acceptance criterion: two concurrent searches over the same
// dataset through the registry perform exactly one set of full-table
// scans between them.
TEST(ServiceRegistryTest, ConcurrentSearchesShareOneSetOfFullScans) {
  SearchOptions options;
  options.size_bound = 60;

  // Expected scan count: one cold search over a private service.
  Table cold_table = workload::MakeCompas(2500, 11).value();
  LabelSearch cold(cold_table);
  const SearchResult cold_result = cold.TopDown(options);
  const int64_t cold_full_scans = cold.counting_service()->stats().full_scans;
  ASSERT_GT(cold_full_scans, 0);

  // Two consumers, each with its own content-equal table instance and
  // its own LabelSearch, racing through one registry.
  ServiceRegistry registry;
  std::vector<Table> tables;
  tables.push_back(workload::MakeCompas(2500, 11).value());
  tables.push_back(workload::MakeCompas(2500, 11).value());
  std::vector<SearchResult> results(2);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      LabelSearch search(tables[static_cast<size_t>(i)],
                         registry.Acquire(tables[static_cast<size_t>(i)]));
      results[static_cast<size_t>(i)] = search.TopDown(options);
    });
  }
  for (auto& t : threads) t.join();

  auto service = registry.Acquire(tables[0]);
  EXPECT_EQ(registry.stats().misses, 1) << "the engine was built twice";
  {
    std::lock_guard<std::mutex> lock(service->mutex());
    EXPECT_EQ(service->stats().full_scans, cold_full_scans)
        << "the second concurrent search rescanned the table";
  }
  // Both searches returned the cold search's exact result.
  for (const SearchResult& r : results) {
    EXPECT_EQ(r.best_attrs, cold_result.best_attrs);
    EXPECT_EQ(r.label.size(), cold_result.label.size());
    EXPECT_DOUBLE_EQ(r.error.max_abs, cold_result.error.max_abs);
  }
}

TEST(ServiceRegistryTest, IncrementalSessionSeedsFromRegistryService) {
  ServiceRegistry registry;
  Table t = workload::MakeCompas(1200, 5).value();
  auto service = registry.Acquire(t);
  {
    LabelSearch search(t, service);
    SearchOptions options;
    options.size_bound = 50;
    SearchResult result = search.TopDown(options);
    if (result.best_attrs.Count() < 2) GTEST_SKIP();
    const int64_t full_scans = service->stats().full_scans;
    // The label is created against the *caller's* table instance; the
    // registry service wraps its own content-equal copy.
    auto label = IncrementalLabel::Create(t, result.best_attrs,
                                          options.size_bound, service);
    ASSERT_TRUE(label.ok()) << label.status().ToString();
    EXPECT_EQ(service->stats().full_scans, full_scans);
    EXPECT_EQ(label->FootprintEntries(), result.label.size());
  }
}

TEST(ServiceRegistryTest, MemoryBudgetEvictsColdServicesLruFirst) {
  ServiceRegistry registry;
  Table a = workload::MakeCompas(1500, 21).value();
  Table b = workload::MakeCompas(1500, 22).value();

  auto warm = [&](const Table& t) {
    auto service = registry.Acquire(t);
    std::lock_guard<std::mutex> lock(service->mutex());
    ForEachSubsetOfSize(t.num_attributes(), 2, [&](AttrMask s) {
      service->engine().PatternCounts(s);
    });
    return service->resident_bytes();
  };
  const int64_t cache_a = warm(a);  // service cold again after return
  ASSERT_GT(cache_a, 0);
  warm(b);
  EXPECT_EQ(registry.stats().services, 2);
  const int64_t total = registry.ResidentBytes();  // caches + table copies
  EXPECT_GT(total, cache_a);

  // One byte under the total: evicting the LRU entry (a) suffices.
  registry.SetMemoryBudget(total - 1);
  EXPECT_EQ(registry.stats().evictions, 1);
  EXPECT_EQ(registry.stats().services, 1);
  EXPECT_LE(registry.ResidentBytes(), total - 1);
  // a is gone (re-acquire misses), b survived (hit).
  registry.SetMemoryBudget(0);  // unbounded, so the probes do not evict
  const int64_t misses = registry.stats().misses;
  registry.Acquire(b);
  EXPECT_EQ(registry.stats().misses, misses);
  registry.Acquire(a);
  EXPECT_EQ(registry.stats().misses, misses + 1);
}

TEST(ServiceRegistryTest, AcquireAfterAppendsRebuildsForBaseContent) {
  // A service that absorbed appends no longer matches its fingerprint's
  // content: the next acquire must hand out a fresh base-content
  // service (counted as a miss) while the grown one stays valid for its
  // holders.
  ServiceRegistry registry;
  Table t = workload::MakeCompas(900, 13).value();
  auto grown = registry.Acquire(t);
  auto label = IncrementalLabel::Create(grown->table(),
                                        AttrMask::FromIndices({0, 1}), 1000,
                                        grown);
  ASSERT_TRUE(label.ok()) << label.status().ToString();
  ASSERT_TRUE(label->AppendRow(std::vector<std::string>(
                  static_cast<size_t>(t.num_attributes()), "fresh"))
                  .ok());
  ASSERT_TRUE(grown->has_absorbed_appends());

  auto fresh = registry.Acquire(t);
  EXPECT_NE(fresh.get(), grown.get());
  EXPECT_EQ(registry.stats().misses, 2);
  EXPECT_EQ(fresh->total_rows(), t.num_rows());
  EXPECT_EQ(grown->total_rows(), t.num_rows() + 1);
  // The rebuilt service works for a full search; the grown one still
  // answers (no dangling table after its entry was replaced).
  LabelSearch search(t, fresh);
  SearchOptions options;
  options.size_bound = 40;
  search.TopDown(options);
  std::lock_guard<std::mutex> lock(grown->mutex());
  EXPECT_GT(grown->engine().CountPatterns(AttrMask::FromIndices({0, 1})),
            0);
}

TEST(ServiceRegistryTest, AppendedDataCountsTowardResidentBytes) {
  // The accountant must see the delta block and the compacted base
  // copy, not just the cache — otherwise a streaming append workload
  // blows through --service-budget unnoticed.
  ServiceRegistry registry;
  Table t = workload::MakeCompas(400, 19).value();
  auto service = registry.Acquire(t);
  const int64_t before = registry.ResidentBytes();
  const int n = t.num_attributes();
  {
    // Sixteen copies of a row of already-interned values: the commit
    // grows the delta block and nothing else.
    std::vector<std::string> row;
    for (int a = 0; a < n; ++a) row.push_back(t.dictionary(a).GetString(0));
    ASSERT_TRUE(service->AppendStrings(
                           std::vector<std::vector<std::string>>(16, row))
                    .ok());
  }
  const int64_t with_delta = registry.ResidentBytes();
  EXPECT_EQ(with_delta - before,
            16 * n * static_cast<int64_t>(sizeof(ValueId)));
  {
    std::lock_guard<std::mutex> lock(service->mutex());
    service->engine().CompactDeltas();
  }
  // The columnar copy of the base table is new resident data.
  EXPECT_EQ(registry.ResidentBytes() - with_delta,
            static_cast<int64_t>(n) * t.num_rows() *
                static_cast<int64_t>(sizeof(ValueId)));
}

TEST(ServiceRegistryTest, ClearLeavesOutstandingServicesValid) {
  ServiceRegistry registry;
  Table t = workload::MakeCompas(600, 17).value();
  auto held = registry.Acquire(t);
  registry.Clear();
  EXPECT_EQ(registry.stats().services, 0);
  // The service owns its table: scanning after Clear() is safe.
  std::lock_guard<std::mutex> lock(held->mutex());
  EXPECT_EQ(held->engine().CountPatterns(AttrMask::FromIndices({0, 1})),
            CountDistinctPatterns(t, AttrMask::FromIndices({0, 1})));
}

TEST(ServiceRegistryTest, HotServicesSurviveTrim) {
  ServiceRegistry registry;
  Table t = workload::MakeCompas(1000, 9).value();
  auto held = registry.Acquire(t);  // hot: we hold a reference
  {
    std::lock_guard<std::mutex> lock(held->mutex());
    ForEachSubsetOfSize(t.num_attributes(), 2, [&](AttrMask s) {
      held->engine().PatternCounts(s);
    });
  }
  ASSERT_GT(held->resident_bytes(), 0);
  registry.SetMemoryBudget(1);  // far below resident
  EXPECT_EQ(registry.stats().evictions, 0);
  EXPECT_EQ(registry.stats().services, 1);
  // Releasing the holder makes it cold; the next trim collects it.
  held.reset();
  registry.Trim();
  EXPECT_EQ(registry.stats().evictions, 1);
  EXPECT_EQ(registry.stats().services, 0);
}

// The spill counters surfaced by `pcbl serve` kStats replies and the
// CLI registry: line (cli::FormatRegistryStats): zero without a
// directory, miss → spill → hit across two registry lifetimes over one
// directory, and disabled again when the directory is unset.
TEST(ServiceRegistryTest, SpillCountersFlowThroughStats) {
  const std::string dir = ::testing::TempDir() + "pcbl_registry_counters";
  std::filesystem::remove_all(dir);
  Table t = workload::MakeCompas(700, 13).value();

  // Without a directory every spill counter stays zero whatever the
  // traffic — the stats block must not invent a disabled subsystem.
  ServiceRegistry registry;
  {
    auto service = registry.Acquire(t);
    EXPECT_EQ(registry.SpillResident(), 0);
    const ServiceRegistryStats stats = registry.stats();
    EXPECT_EQ(stats.spill_hits, 0);
    EXPECT_EQ(stats.spill_misses, 0);
    EXPECT_EQ(stats.spill_rejects, 0);
    EXPECT_EQ(stats.spills, 0);
    EXPECT_EQ(stats.spilled_bytes, 0);
    registry.Clear();
  }

  registry.SetSpillDirectory(dir);
  {
    auto service = registry.Acquire(t);
    EXPECT_EQ(registry.stats().spill_misses, 1);  // cold directory
    std::lock_guard<std::mutex> lock(service->mutex());
    ForEachSubsetOfSize(t.num_attributes(), 2, [&](AttrMask s) {
      service->engine().PatternCounts(s);
    });
  }
  EXPECT_EQ(registry.SpillResident(), 1);
  EXPECT_EQ(registry.stats().spills, 1);
  EXPECT_GT(registry.stats().spilled_bytes, 0);

  ServiceRegistry fresh;
  fresh.SetSpillDirectory(dir);
  auto warmed = fresh.Acquire(t);
  EXPECT_EQ(fresh.stats().spill_hits, 1);
  EXPECT_EQ(fresh.stats().spill_misses, 0);
  {
    std::lock_guard<std::mutex> lock(warmed->mutex());
    warmed->engine().PatternCounts(AttrMask::FromIndices({0, 1}));
  }
  EXPECT_EQ(warmed->stats().full_scans, 0);

  // Unsetting the directory turns the subsystem back off.
  fresh.SetSpillDirectory("");
  EXPECT_EQ(fresh.SpillResident(), 0);
}

// Concurrency stress: N threads acquire the same fingerprint and size
// random subsets while one thread appends rows through *another*
// fingerprint's service hook (appends retire a fingerprint's entry, so
// the built-once assertion needs an append-free fingerprint) and a
// trimmer forces evictions against decoy services. The readers' engine
// must be built exactly once, the appender's answers must stay exact
// against a rebuilt reference, and the run must be TSan-clean.
TEST(ServiceRegistryTest, StressSharedAcquireWithAppendsAndTrims) {
  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 40;
  constexpr int kAppendBatches = 25;

  testing::DifferentialWorkload workload = testing::RandomWorkload(
      /*seed=*/91, /*attrs=*/5, /*base_rows=*/400,
      /*append_rows=*/kAppendBatches * 2, /*domain=*/6,
      /*append_domain=*/6, /*null_percent=*/10);
  testing::DifferentialHarness harness(std::move(workload));
  Table reader_table = workload::MakeCompas(1200, 51).value();

  ServiceRegistry registry;
  // The appended rows as strings, read off the rebuilt reference; the
  // service interns them centrally in commit order, exactly as the
  // rebuild did.
  std::vector<std::vector<std::string>> append_rows;
  {
    const Table& reference = harness.reference();
    const int n = reference.num_attributes();
    for (int64_t r = harness.base().num_rows(); r < reference.num_rows();
         ++r) {
      std::vector<std::string> row(static_cast<size_t>(n));
      for (int a = 0; a < n; ++a) {
        row[static_cast<size_t>(a)] = reference.ValueString(r, a);
      }
      append_rows.push_back(std::move(row));
    }
  }

  // Decoy datasets give the trimmer something genuinely evictable, so
  // evictions and acquires really race without threatening the shared
  // (always-hot: see the anchor) service under test.
  std::vector<Table> decoys;
  for (int i = 0; i < 3; ++i) {
    decoys.push_back(workload::MakeCompas(200, 70 + i).value());
  }

  // The anchor keeps the readers' service hot for the whole stress —
  // the one-engine-built-once assertion is on *this* fingerprint.
  auto anchor = registry.Acquire(reader_table);
  CountingService* const expected = anchor.get();
  // The appender's own fingerprint; held hot for the whole stress too.
  auto append_service = registry.Acquire(harness.base());

  const int num_attrs = reader_table.num_attributes();
  std::atomic<int> started{0};
  std::atomic<int> wrong_service{0};
  std::vector<std::thread> threads;
  // Readers: acquire + size random subsets under the service lock, with
  // occasional decoy acquires for the trimmer to collect.
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(1000 + static_cast<uint64_t>(i));
      started.fetch_add(1);
      while (started.load() < kThreads + 2) {
      }
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        auto service = registry.Acquire(reader_table);
        if (service.get() != expected) wrong_service.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(service->mutex());
          AttrMask s(rng.UniformInt(1u << std::min(num_attrs, 10)));
          service->engine().CountPatterns(s, /*budget=*/32);
        }
        if (iter % 4 == 0) {
          auto decoy = registry.Acquire(decoys[static_cast<size_t>(
              rng.UniformInt(static_cast<uint32_t>(decoys.size())))]);
          std::lock_guard<std::mutex> lock(decoy->mutex());
          decoy->engine().CountPatterns(AttrMask::FromIndices({0, 1}));
        }  // dropped: cold, fair game for the trimmer
      }
    });
  }
  // Appender: feed its service's delta block in batches of two rows
  // while the readers and the trimmer hammer the registry.
  threads.emplace_back([&] {
    started.fetch_add(1);
    while (started.load() < kThreads + 2) {
    }
    for (int b = 0; b < kAppendBatches; ++b) {
      PCBL_CHECK(append_service
                     ->AppendStrings(
                         {append_rows[static_cast<size_t>(2 * b)],
                          append_rows[static_cast<size_t>(2 * b + 1)]})
                     .ok());
    }
  });
  // Trimmer: flip the budget so evictions race the acquires. The
  // accountant's lock-free resident-bytes polling runs against engines
  // other threads are actively mutating.
  threads.emplace_back([&] {
    started.fetch_add(1);
    while (started.load() < kThreads + 2) {
    }
    for (int i = 0; i < 200; ++i) {
      registry.SetMemoryBudget(1);
      registry.Trim();
    }
  });
  for (auto& t : threads) t.join();
  registry.Trim();  // budget still 1: every now-cold decoy goes
  registry.SetMemoryBudget(0);  // unbounded again

  // One engine, built once: every acquire of the readers' fingerprint
  // returned the anchored service (the trimmer could never evict it).
  EXPECT_EQ(wrong_service.load(), 0) << "the shared engine was rebuilt";
  EXPECT_GT(registry.stats().evictions, 0)
      << "the trimmer never actually evicted a cold decoy";

  // And the appends stayed exact under the racing trims: every answer
  // matches the one-shot counters over a from-scratch rebuild.
  testing::DifferentialHarness::CheckServiceAgainst(
      *append_service, harness.reference(), "stress");
}

}  // namespace
}  // namespace pcbl
