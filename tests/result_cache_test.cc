// Tests for the two-level query-result tier (PR 6, DESIGN.md §5.7):
//
//  * the differential arm — cache on/off × 1..8 concurrent sessions,
//    every label byte-identical to a solo cache-disabled reference, with
//    the tier's hit/miss/join accounting consistent on the cached arm;
//  * deterministic in-flight dedup — K identical queries wedged behind a
//    held engine mutex must produce exactly one leader, K-1 parked
//    joiners, and no more engine work than one cold solo search;
//  * staleness — a cached result can never be served after an append
//    (every append arm invalidates before the data grows), on the
//    appending session and on a sibling alike;
//  * eviction under pressure — a byte budget sized for one entry evicts
//    LRU-first, keeps answers exact, and accounts the bytes;
//  * dedup-only mode — budget 0 parks concurrent identicals but caches
//    no completed results;
//  * true-count and profile queries ride the tier like searches do.
#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "core/search.h"
#include "pattern/counting_service.h"
#include "pattern/service_registry.h"
#include "tests/differential_harness.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

using api::Dataset;
using api::DatasetOptions;
using api::QueryFuture;
using api::QueryResult;
using api::QuerySpec;
using api::Session;
using api::SessionOptions;
using testing::DifferentialHarness;
using testing::DifferentialWorkload;
using testing::RandomWorkload;

Dataset PrivateDataset(const Table& table) {
  DatasetOptions options;
  options.private_service = true;
  auto dataset = Dataset::FromTable(table, options);
  PCBL_CHECK(dataset.ok()) << dataset.status();
  return *dataset;
}

std::unique_ptr<Session> OpenSession(Dataset dataset,
                                     SessionOptions options = {}) {
  auto session = Session::Open(std::move(dataset), options);
  PCBL_CHECK(session.ok()) << session.status();
  return std::move(*session);
}

void ExpectSameSearchResult(const SearchResult& got,
                            const SearchResult& want,
                            const std::string& context) {
  EXPECT_EQ(got.best_attrs.bits(), want.best_attrs.bits()) << context;
  EXPECT_EQ(got.label.size(), want.label.size()) << context;
  EXPECT_EQ(got.label.total_rows(), want.label.total_rows()) << context;
  testing::ExpectSameGroupCounts(got.label.pattern_counts(),
                                 want.label.pattern_counts(), context);
  EXPECT_EQ(got.error.max_abs, want.error.max_abs) << context;
  EXPECT_EQ(got.error.mean_abs, want.error.mean_abs) << context;
  EXPECT_EQ(got.error.max_q, want.error.max_q) << context;
  EXPECT_EQ(got.error.evaluated, want.error.evaluated) << context;
}

// The differential arm: cache on/off × 1..8 concurrent sessions, every
// label byte-identical to the solo cache-disabled reference. On the
// cached arm each tier visit is exactly one of hit / join / miss, and a
// repeat query after completion is a pure cache hit (zero extra scans).
TEST(ResultCacheTest, CacheGridMatchesDisabledReferenceAcrossSessions) {
  constexpr int64_t kBound = 60;
  Table table = workload::MakeCompas(1600, 101).value();

  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  LabelSearch reference(table);
  const SearchResult want = reference.TopDown(reference_options);

  for (const bool cache_on : {true, false}) {
    for (const int num_sessions : {1, 2, 4, 8}) {
      const std::string arm =
          std::string(cache_on ? "cache" : "nocache") + "/x" +
          std::to_string(num_sessions);
      Dataset dataset = PrivateDataset(table);
      SessionOptions options;
      options.num_threads = 1;
      options.use_result_cache = cache_on;
      std::vector<std::unique_ptr<Session>> sessions;
      std::vector<QueryFuture> futures;
      for (int i = 0; i < num_sessions; ++i) {
        sessions.push_back(OpenSession(dataset, options));
        auto future =
            sessions.back()->Submit(QuerySpec::LabelSearch(kBound));
        ASSERT_TRUE(future.ok()) << arm << ": " << future.status();
        futures.push_back(*future);
      }
      for (int i = 0; i < num_sessions; ++i) {
        const QueryResult& r = futures[static_cast<size_t>(i)].Get();
        ASSERT_TRUE(r.status.ok()) << arm << ": " << r.status;
        ExpectSameSearchResult(r.search, want,
                               arm + "/s" + std::to_string(i));
      }

      const ResultTierStats stats =
          dataset.service()->result_tier_stats();
      if (cache_on) {
        // Every tier visit resolved exactly one way, and the identical
        // specs shared a single cache slot.
        EXPECT_GE(stats.misses, 1) << arm;
        EXPECT_EQ(stats.hits + stats.misses + stats.inflight_joins,
                  num_sessions)
            << arm;
        EXPECT_EQ(stats.entries, 1) << arm;
        EXPECT_GT(stats.bytes, 0) << arm;

        // A repeat on a fresh session is a completed-cache hit: no new
        // engine work at all.
        const int64_t scans_before =
            dataset.service()->StatsSnapshot().full_scans;
        auto repeat = OpenSession(dataset, options);
        const QueryResult warm = repeat->Run(QuerySpec::LabelSearch(kBound));
        ASSERT_TRUE(warm.status.ok()) << arm;
        ExpectSameSearchResult(warm.search, want, arm + "/repeat");
        EXPECT_EQ(dataset.service()->StatsSnapshot().full_scans,
                  scans_before)
            << arm;
        EXPECT_GE(dataset.service()->result_tier_stats().hits, 1) << arm;
      } else {
        // The disabled arm never touches the tier.
        EXPECT_EQ(stats.hits, 0) << arm;
        EXPECT_EQ(stats.misses, 0) << arm;
        EXPECT_EQ(stats.inflight_joins, 0) << arm;
        EXPECT_EQ(stats.entries, 0) << arm;
      }
    }
  }
}

// Deterministic in-flight dedup: K identical queries submitted while the
// engine mutex is held must coalesce into one leader and K-1 joiners —
// observable in the stats before the leader can finish — and the whole
// batch costs exactly one cold solo search of engine work.
TEST(ResultCacheTest, ConcurrentIdenticalQueriesShareOneExecution) {
  constexpr int64_t kBound = 50;
  constexpr int kQueries = 4;
  Table table = workload::MakeCompas(1200, 103).value();

  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  LabelSearch reference(table);
  const SearchResult want = reference.TopDown(reference_options);
  const int64_t cold_full_scans =
      reference.counting_service()->stats().full_scans;
  ASSERT_GT(cold_full_scans, 0);

  Dataset dataset = PrivateDataset(table);
  SessionOptions options;
  options.num_threads = 1;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<QueryFuture> futures;
  {
    // Hold the engine mutex: the leader blocks inside its first sizing
    // wave, so every later identical query must find it in flight and
    // park — the join count is exact, not timing-dependent.
    std::unique_lock<std::mutex> engine_lock(dataset.service()->mutex());
    for (int i = 0; i < kQueries; ++i) {
      sessions.push_back(OpenSession(dataset, options));
      auto future = sessions.back()->Submit(QuerySpec::LabelSearch(kBound));
      ASSERT_TRUE(future.ok()) << future.status();
      futures.push_back(*future);
    }
    while (dataset.service()->result_tier_stats().inflight_joins <
           kQueries - 1) {
      std::this_thread::yield();
    }
  }
  for (int i = 0; i < kQueries; ++i) {
    const QueryResult& r = futures[static_cast<size_t>(i)].Get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    ExpectSameSearchResult(r.search, want, "query " + std::to_string(i));
  }

  const ResultTierStats stats = dataset.service()->result_tier_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inflight_joins, kQueries - 1);
  EXPECT_EQ(stats.hits, 0);
  // K identical queries, at most one execution's worth of engine work
  // (the single run may even roll up below the solo count).
  EXPECT_GT(dataset.service()->StatsSnapshot().full_scans, 0);
  EXPECT_LE(dataset.service()->StatsSnapshot().full_scans,
            cold_full_scans);
}

// Staleness is impossible by construction: every append arm invalidates
// the completed cache before the data grows, so a query after an append
// recomputes against the extended data — for the appending session and
// for a read-only sibling that had already warmed the cache.
TEST(ResultCacheTest, AppendInvalidatesBeforeAnyStaleReadCanHappen) {
  constexpr int64_t kBound = 40;
  DifferentialWorkload workload = RandomWorkload(
      /*seed=*/211, /*attrs=*/4, /*base_rows=*/300, /*append_rows=*/50,
      /*domain=*/5, /*append_domain=*/7, /*null_percent=*/10);
  DifferentialHarness harness(std::move(workload));
  DifferentialWorkload rows = RandomWorkload(211, 4, 300, 50, 5, 7, 10);

  SearchOptions base_options;
  base_options.size_bound = kBound;
  LabelSearch base_search(harness.base());
  const SearchResult base_want = base_search.TopDown(base_options);
  LabelSearch extended_search(harness.reference());
  const SearchResult extended_want = extended_search.TopDown(base_options);

  Dataset dataset = PrivateDataset(harness.base());
  auto appender = OpenSession(dataset);
  auto sibling = OpenSession(dataset);

  // Warm the cache on the base data through the sibling.
  const QueryResult cold = sibling->Run(QuerySpec::LabelSearch(kBound));
  ASSERT_TRUE(cold.status.ok()) << cold.status;
  ExpectSameSearchResult(cold.search, base_want, "base");
  ASSERT_GE(dataset.service()->result_tier_stats().entries, 1);

  for (const auto& row : rows.append_rows) {
    ASSERT_TRUE(appender->AppendRow(row).ok());
  }

  // The append dropped every cached result; nothing to serve stale.
  const ResultTierStats after_append =
      dataset.service()->result_tier_stats();
  EXPECT_EQ(after_append.entries, 0);
  EXPECT_EQ(after_append.bytes, 0);
  EXPECT_GE(after_append.invalidations, 1);

  for (const bool through_appender : {true, false}) {
    Session& session = through_appender ? *appender : *sibling;
    const QueryResult fresh = session.Run(QuerySpec::LabelSearch(kBound));
    ASSERT_TRUE(fresh.status.ok()) << fresh.status;
    EXPECT_EQ(fresh.total_rows, harness.reference().num_rows());
    ExpectSameSearchResult(fresh.search, extended_want,
                           through_appender ? "appender" : "sibling");
  }
}

// Eviction under pressure: a budget that fits either result alone but
// not both forces LRU eviction when the second lands; answers stay
// exact and the byte accounting follows the survivors.
TEST(ResultCacheTest, TightBudgetEvictsLruAndStaysExact) {
  constexpr int64_t kBound = 50;
  Table table = workload::MakeCompas(900, 107).value();
  SessionOptions options;
  options.num_threads = 1;

  // Measure each result's cached footprint on throwaway services.
  const auto bytes_of = [&](const QuerySpec& spec) {
    Dataset throwaway = PrivateDataset(table);
    auto probe = OpenSession(throwaway, options);
    EXPECT_TRUE(probe->Run(spec).status.ok());
    return throwaway.service()->result_tier_stats().bytes;
  };
  const int64_t search_bytes = bytes_of(QuerySpec::LabelSearch(kBound));
  const int64_t profile_bytes = bytes_of(QuerySpec::Profile());
  ASSERT_GT(search_bytes, 0);
  ASSERT_GT(profile_bytes, 0);
  // Fits either alone, never both.
  const int64_t budget = std::max(search_bytes, profile_bytes);

  Dataset dataset = PrivateDataset(table);
  auto session = OpenSession(dataset, options);
  const QueryResult first = session->Run(QuerySpec::LabelSearch(kBound));
  ASSERT_TRUE(first.status.ok()) << first.status;

  QuerySpec profile = QuerySpec::Profile();
  profile.result_cache_budget = budget;
  const QueryResult pairs = session->Run(profile);
  ASSERT_TRUE(pairs.status.ok()) << pairs.status;

  ResultTierStats stats = dataset.service()->result_tier_stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_LE(stats.bytes, budget);
  EXPECT_EQ(stats.entries, 1);  // the profile survived, the search went

  // The profile answers from cache; the evicted search recomputes and is
  // still exact.
  const int64_t hits_before = stats.hits;
  const QueryResult pairs_again = session->Run(profile);
  ASSERT_TRUE(pairs_again.status.ok());
  ASSERT_EQ(pairs_again.pairs.size(), pairs.pairs.size());
  for (size_t i = 0; i < pairs.pairs.size(); ++i) {
    EXPECT_EQ(pairs_again.pairs[i].size, pairs.pairs[i].size) << i;
  }
  EXPECT_GT(dataset.service()->result_tier_stats().hits, hits_before);

  const QueryResult again = session->Run(QuerySpec::LabelSearch(kBound));
  ASSERT_TRUE(again.status.ok());
  ExpectSameSearchResult(again.search, first.search, "recomputed");
}

// Budget 0: in-flight dedup stays, the completed cache stores nothing.
TEST(ResultCacheTest, ZeroBudgetDedupsButCachesNothing) {
  Table table = workload::MakeCompas(700, 109).value();
  Dataset dataset = PrivateDataset(table);
  SessionOptions options;
  options.num_threads = 1;
  options.result_cache_budget = 0;
  auto session = OpenSession(dataset, options);

  const QueryResult a = session->Run(QuerySpec::LabelSearch(40));
  const QueryResult b = session->Run(QuerySpec::LabelSearch(40));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  ExpectSameSearchResult(b.search, a.search, "repeat");

  const ResultTierStats stats = dataset.service()->result_tier_stats();
  EXPECT_EQ(stats.misses, 2);  // both executed: nothing was stored
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.insertions, 0);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
}

// True counts and profiles ride the tier exactly like searches.
TEST(ResultCacheTest, TrueCountAndProfileRepeatFromCache) {
  Table table = workload::MakeCompas(600, 127).value();
  Dataset dataset = PrivateDataset(table);
  SessionOptions options;
  options.num_threads = 1;
  auto session = OpenSession(dataset, options);

  const QuerySpec count = QuerySpec::TrueCount(
      {{table.schema().name(0), table.dictionary(0).GetString(0)}});
  const QueryResult cold_count = session->Run(count);
  ASSERT_TRUE(cold_count.status.ok()) << cold_count.status;
  const QueryResult warm_count = session->Run(count);
  ASSERT_TRUE(warm_count.status.ok());
  EXPECT_EQ(warm_count.true_count, cold_count.true_count);

  const QueryResult cold_pairs = session->Run(QuerySpec::Profile());
  ASSERT_TRUE(cold_pairs.status.ok());
  const QueryResult warm_pairs = session->Run(QuerySpec::Profile());
  ASSERT_TRUE(warm_pairs.status.ok());
  ASSERT_EQ(warm_pairs.pairs.size(), cold_pairs.pairs.size());
  for (size_t i = 0; i < cold_pairs.pairs.size(); ++i) {
    EXPECT_EQ(warm_pairs.pairs[i].size, cold_pairs.pairs[i].size) << i;
  }

  const ResultTierStats stats = dataset.service()->result_tier_stats();
  EXPECT_GE(stats.hits, 2);  // one per repeated kind
  // Term order canonicalizes: the reversed pattern is the same query.
  if (table.num_attributes() >= 2) {
    const std::string a0 = table.schema().name(0);
    const std::string v0 = table.dictionary(0).GetString(0);
    const std::string a1 = table.schema().name(1);
    const std::string v1 = table.dictionary(1).GetString(0);
    const QueryResult fwd =
        session->Run(QuerySpec::TrueCount({{a0, v0}, {a1, v1}}));
    const int64_t hits_before =
        dataset.service()->result_tier_stats().hits;
    const QueryResult rev =
        session->Run(QuerySpec::TrueCount({{a1, v1}, {a0, v0}}));
    ASSERT_TRUE(fwd.status.ok());
    ASSERT_TRUE(rev.status.ok());
    EXPECT_EQ(rev.true_count, fwd.true_count);
    EXPECT_GT(dataset.service()->result_tier_stats().hits, hits_before);
  }
}

}  // namespace
}  // namespace pcbl
