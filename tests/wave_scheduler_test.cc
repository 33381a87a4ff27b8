// Tests for the cross-query wave scheduler (PR 5):
//
//  * the differential arm of the concurrency model — 1..8 concurrent
//    sessions over one shared service, byte-identical labels against a
//    solo search on a fresh private LabelSearch, and a full_scans
//    ceiling (concurrent sessions never scan more than one cold solo
//    search);
//  * merged budgets: concurrent searches with different size bounds stay
//    byte-identical to their solo references (a wave folded into a more
//    generous budget may return exact values above a requester's bound —
//    still "> bound", so candidate sets cannot shift);
//  * the appended arm: an appender grows the shared service, then N
//    sessions search concurrently and every label matches a from-scratch
//    rebuild of the extended table;
//  * a deterministic forced merge: requests queued while the engine
//    mutex is held must coalesce into (at most two) merged waves with
//    deduped masks, every answer exact;
//  * eviction: a query on a service the registry evicted comes back as a
//    retryable kUnavailable and is logged in the registry stats.
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/counting_service.h"
#include "pattern/service_registry.h"
#include "tests/differential_harness.h"
#include "workload/datasets.h"
#include "util/str.h"

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

// The differential arm: 1..8 concurrent sessions over one shared
// (private) service, every label byte-identical to a solo search on a
// fresh private LabelSearch, full_scans bounded by that cold solo search.
TEST(WaveSchedulerTest, SchedulerGridMatchesSoloReferenceAcrossSessions) {
  constexpr int64_t kRows = 1800;
  constexpr uint64_t kSeed = 67;
  constexpr int64_t kBound = 60;
  Table table = workload::MakeCompas(kRows, kSeed).value();

  // Solo reference + the cold scan count that is the ceiling.
  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  LabelSearch reference(table);
  const SearchResult want = reference.TopDown(reference_options);
  const int64_t cold_full_scans =
      reference.counting_service()->stats().full_scans;
  ASSERT_GT(cold_full_scans, 0);

  for (const int num_sessions : {1, 2, 4, 8}) {
    const std::string arm = StrCat("x", num_sessions);
    Dataset dataset = PrivateDataset(table);  // one service per arm
    SessionOptions options;
    options.num_threads = 1;
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<QueryFuture> futures;
    for (int i = 0; i < num_sessions; ++i) {
      sessions.push_back(OpenSession(dataset, options));
      auto future = sessions.back()->Submit(QuerySpec::LabelSearch(kBound));
      ASSERT_TRUE(future.ok()) << arm << ": " << future.status();
      futures.push_back(*future);
    }
    for (int i = 0; i < num_sessions; ++i) {
      const QueryResult& r = futures[static_cast<size_t>(i)].Get();
      ASSERT_TRUE(r.status.ok()) << arm << ": " << r.status;
      ExpectSameSearchResult(r.search, want, StrCat(arm, "/s", i));
    }
    // Merged waves + the warm cache: never more work than one cold solo
    // search (out-of-phase queries may even roll up and do less).
    const int64_t full_scans = dataset.service()->StatsSnapshot().full_scans;
    EXPECT_LE(full_scans, cold_full_scans) << arm;
    EXPECT_GT(full_scans, 0) << arm;
  }
}

// Concurrent searches with different bounds: a merged wave runs under
// the most generous budget, which may turn early-exit abort values into
// exact ones — candidate sets, and therefore labels, must not move.
TEST(WaveSchedulerTest, MixedBoundsStayByteIdenticalUnderMerging) {
  Table table = workload::MakeCompas(1500, 71).value();
  const std::vector<int64_t> bounds = {30, 60, 120, 240};

  std::vector<SearchResult> want;
  for (const int64_t bound : bounds) {
    LabelSearch solo(table);
    SearchOptions options;
    options.size_bound = bound;
    want.push_back(solo.TopDown(options));
  }

  for (int round = 0; round < 3; ++round) {
    Dataset dataset = PrivateDataset(table);
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<QueryFuture> futures;
    for (const int64_t bound : bounds) {
      sessions.push_back(OpenSession(dataset));
      auto future = sessions.back()->Submit(QuerySpec::LabelSearch(bound));
      ASSERT_TRUE(future.ok()) << future.status();
      futures.push_back(*future);
    }
    for (size_t i = 0; i < bounds.size(); ++i) {
      const QueryResult& r = futures[i].Get();
      ASSERT_TRUE(r.status.ok()) << r.status;
      ExpectSameSearchResult(r.search, want[i],
                             StrCat("bound ", bounds[i], " round ", round));
    }
  }
}

// The appended arm of the differential grid: an appender grows the
// shared service, then N concurrent sessions (the appender among them)
// search and every label must match a from-scratch rebuild of the
// extended table.
TEST(WaveSchedulerTest, ConcurrentSearchesAfterAppendMatchRebuild) {
  DifferentialWorkload workload = RandomWorkload(
      /*seed=*/203, /*attrs=*/4, /*base_rows=*/320, /*append_rows=*/60,
      /*domain=*/5, /*append_domain=*/8, /*null_percent=*/10);
  DifferentialHarness harness(std::move(workload));
  DifferentialWorkload rows = RandomWorkload(203, 4, 320, 60, 5, 8, 10);
  constexpr int64_t kBound = 40;

  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  LabelSearch rebuilt(harness.reference());
  const SearchResult want = rebuilt.TopDown(reference_options);

  Dataset dataset = PrivateDataset(harness.base());
  auto appender = OpenSession(dataset);
  for (const auto& row : rows.append_rows) {
    ASSERT_TRUE(appender->AppendRow(row).ok());
  }

  constexpr int kSiblings = 4;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<QueryFuture> futures;
  for (int i = 0; i < kSiblings; ++i) {
    sessions.push_back(OpenSession(dataset));
    auto future = sessions.back()->Submit(QuerySpec::LabelSearch(kBound));
    ASSERT_TRUE(future.ok()) << future.status();
    futures.push_back(*future);
  }
  auto own = appender->Submit(QuerySpec::LabelSearch(kBound));
  ASSERT_TRUE(own.ok()) << own.status();
  for (int i = 0; i < kSiblings; ++i) {
    const QueryResult& r = futures[static_cast<size_t>(i)].Get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.total_rows, harness.reference().num_rows());
    ExpectSameSearchResult(r.search, want, StrCat("sibling ", i));
  }
  const QueryResult& r = own->Get();
  ASSERT_TRUE(r.status.ok()) << r.status;
  ExpectSameSearchResult(r.search, want, "appender");
}

// Deterministic merge: requests queued while the engine mutex is held
// must coalesce — at most two waves run (the first coordinator's batch
// and one merged batch of everything that queued behind it), masks are
// deduped across requests, and every answer is exact.
TEST(WaveSchedulerTest, ForcedMergeDedupesInFlightRequests) {
  Table table = workload::MakeCompas(800, 73).value();
  CountingService service(table);
  const AttrMask a = AttrMask::FromIndices({0, 1});
  const AttrMask b = AttrMask::FromIndices({1, 2});
  const AttrMask c = AttrMask::FromIndices({0, 2});
  const std::vector<std::vector<AttrMask>> requests = {
      {a, b}, {b, c}, {a, c}};

  std::vector<std::vector<int64_t>> sizes(requests.size());
  std::vector<std::thread> threads;
  {
    // Hold the engine mutex: the first coordinator blocks inside its
    // wave, everything else queues behind it.
    std::unique_lock<std::mutex> engine_lock(service.mutex());
    for (size_t i = 0; i < requests.size(); ++i) {
      threads.emplace_back([&, i] {
        sizes[i] = service.WaveCountPatterns(requests[i], /*budget=*/-1,
                                             CountingEngineOptions{});
      });
    }
    // All three requests admitted (the counter bumps at enqueue).
    while (service.wave_stats().requests < 3) {
      std::this_thread::yield();
    }
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(sizes[i].size(), requests[i].size());
    for (size_t j = 0; j < requests[i].size(); ++j) {
      EXPECT_EQ(sizes[i][j], CountDistinctPatterns(table, requests[i][j]))
          << "request " << i << " mask " << j;
    }
  }
  const WaveSchedulerStats stats = service.wave_stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_LE(stats.waves, 2);
  EXPECT_GE(stats.merged_waves, 1);
  EXPECT_EQ(stats.request_masks, 6);
  EXPECT_LT(stats.executed_masks, stats.request_masks)
      << "in-flight duplicates were not deduped";
}

// Losing the race with registry eviction: the session's service stays
// exact for anything already running, but new queries are refused with a
// retryable kUnavailable (re-open the Dataset) and counted in the
// registry stats — not silently served from a detached service.
TEST(WaveSchedulerTest, EvictedServiceQueryReturnsRetryableUnavailable) {
  ServiceRegistry::Global().Clear();
  Table table = workload::MakeCompas(500, 79).value();
  auto dataset = Dataset::FromTable(table);  // registry-shared service
  ASSERT_TRUE(dataset.ok());
  auto session = OpenSession(*dataset);
  ASSERT_TRUE(session->Run(QuerySpec::LabelSearch(40)).status.ok());

  const int64_t rejections_before =
      ServiceRegistry::Global().stats().evicted_rejections;
  ServiceRegistry::Global().Clear();  // evicts + drains the held service
  ASSERT_TRUE(dataset->service()->evicted());

  QueryResult refused = session->Run(QuerySpec::LabelSearch(40));
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable)
      << refused.status;
  QueryResult refused_count = session->Run(QuerySpec::TrueCount(
      {{table.schema().name(0), table.dictionary(0).GetString(0)}}));
  EXPECT_EQ(refused_count.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(ServiceRegistry::Global().stats().evicted_rejections,
            rejections_before + 2);

  // Re-opening the Dataset acquires a fresh, findable service — the
  // retry the Status asks for.
  auto fresh = Dataset::FromTable(table);
  ASSERT_TRUE(fresh.ok());
  ASSERT_FALSE(fresh->service()->evicted());
  auto retried = OpenSession(*fresh);
  EXPECT_TRUE(retried->Run(QuerySpec::LabelSearch(40)).status.ok());
  ServiceRegistry::Global().Clear();
}

}  // namespace
}  // namespace pcbl
