// Multi-appender group commit (docs/CONCURRENCY.md §3): N sessions
// appending concurrently to one shared CountingService while M sessions
// search, with every outcome differentially checked against a
// from-scratch TableBuilder rebuild of the rows the service actually
// committed. Covers:
//
//  * the appender x searcher grid (1/2/4 appenders, 1/4 searchers,
//    single-row and bulk tickets) — labels, true counts and profiles
//    byte-identical to the rebuilt table's;
//  * deterministic group-commit merging: concurrent requests parked
//    behind a held query admission commit as ONE batch;
//  * delta compaction mid-stream under concurrent string appends;
//  * transactional failure: a fault-injected or schema-mismatched
//    ticket leaves no trace — no rows, no interned values, siblings in
//    the same batch unaffected;
//  * the solo (group-commit off) arm, same differential contract.
//
// The whole file must be TSan- and ASan-clean (see .github/workflows).
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "core/pattern_set.h"
#include "core/search.h"
#include "pattern/counting_engine.h"
#include "pattern/counting_service.h"
#include "relation/table.h"
#include "tests/differential_harness.h"
#include "util/logging.h"
#include "util/str.h"

namespace pcbl {
namespace {

using api::Dataset;
using api::DatasetOptions;
using api::QueryResult;
using api::QuerySpec;
using api::Session;
using api::SessionOptions;

// Rows appender `k` submits: every cell value is unique to the
// appender, most are fresh (never in the base dictionaries), some NULL.
std::vector<std::vector<std::string>> AppenderRows(int k, int64_t rows,
                                                   int attrs) {
  std::vector<std::vector<std::string>> out;
  out.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<std::string> row(static_cast<size_t>(attrs));
    for (int a = 0; a < attrs; ++a) {
      if ((r + a + k) % 7 == 0) {
        row[static_cast<size_t>(a)] = "NULL";
      } else {
        // Small per-appender domains so patterns repeat.
        row[static_cast<size_t>(a)] =
            StrCat("a", k, "-v", (r + a) % 4);
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<std::vector<std::string>> BaseRows(int64_t rows, int attrs) {
  std::vector<std::vector<std::string>> out;
  out.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<std::string> row(static_cast<size_t>(attrs));
    for (int a = 0; a < attrs; ++a) {
      row[static_cast<size_t>(a)] =
          (r + a) % 11 == 0 ? "NULL" : StrCat("base-", (r + a) % 5);
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<std::string> AttributeNames(int attrs) {
  std::vector<std::string> names;
  for (int a = 0; a < attrs; ++a) names.push_back(StrCat("attr", a));
  return names;
}

Table BuildTable(const std::vector<std::string>& names,
                 const std::vector<std::vector<std::string>>& rows) {
  auto builder = TableBuilder::Create(names);
  PCBL_CHECK(builder.ok()) << builder.status();
  for (const auto& row : rows) PCBL_CHECK(builder->AddRow(row).ok());
  return builder->Build();
}

// Decodes the service's appended rows — in the order the group commits
// actually applied them — back to strings, via the shared interner for
// codes past the base dictionaries.
std::vector<std::vector<std::string>> DecodeAppendedRows(
    const CountingService& service, const Table& base) {
  const CountingEngine& engine = service.engine();
  const int n = base.num_attributes();
  const int64_t appended = engine.total_rows() - base.num_rows();
  std::vector<ValueId> flat(static_cast<size_t>(appended * n));
  if (appended > 0) engine.CopyAppendedRows(0, appended, flat.data());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(static_cast<size_t>(appended));
  for (int64_t r = 0; r < appended; ++r) {
    std::vector<std::string> row(static_cast<size_t>(n));
    for (int a = 0; a < n; ++a) {
      const ValueId v = flat[static_cast<size_t>(r * n + a)];
      row[static_cast<size_t>(a)] =
          IsNull(v) ? "NULL" : service.interner().GetString(a, v);
    }
    rows.push_back(std::move(row));
  }
  return rows;
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
  EXPECT_EQ(got.error.total, want.error.total) << context;
}

// After all appenders drain, every session must agree byte-for-byte
// with a from-scratch rebuild over (base rows + committed rows in
// commit order): label search, focus search, profile and true counts.
void ExpectMatchesRebuild(Session& session, const Dataset& dataset,
                          const std::vector<std::string>& names,
                          std::vector<std::vector<std::string>> base_rows,
                          const std::string& context) {
  const Table& base = dataset.table();
  const std::vector<std::vector<std::string>> appended =
      DecodeAppendedRows(*dataset.service(), base);
  std::vector<std::vector<std::string>> all = std::move(base_rows);
  all.insert(all.end(), appended.begin(), appended.end());
  const Table rebuilt = BuildTable(names, all);
  ASSERT_EQ(session.total_rows(), rebuilt.num_rows()) << context;

  constexpr int64_t kBound = 30;
  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  LabelSearch reference(rebuilt);
  const SearchResult want = reference.TopDown(reference_options);
  QueryResult got = session.Run(QuerySpec::LabelSearch(kBound));
  ASSERT_TRUE(got.status.ok()) << context << ": " << got.status;
  EXPECT_EQ(got.total_rows, rebuilt.num_rows()) << context;
  ExpectSameSearchResult(got.search, want, context + "/search");

  // Focus search over appended data — the carried-over bug this PR
  // fixes; the session derives the set from the engine's PC sets.
  const AttrMask focus = AttrMask::FromIndices({0, 1});
  LabelSearch focused(rebuilt);
  focused.SetEvaluationPatterns(std::make_shared<const PatternSet>(
      testing::OraclePatternSet(rebuilt, focus)));
  const SearchResult want_focus = focused.TopDown(reference_options);
  QuerySpec focus_spec = QuerySpec::LabelSearch(kBound);
  focus_spec.focus = focus;
  QueryResult got_focus = session.Run(focus_spec);
  ASSERT_TRUE(got_focus.status.ok()) << context << ": "
                                     << got_focus.status;
  ExpectSameSearchResult(got_focus.search, want_focus,
                         context + "/focus");

  // True counts of appended-only values, against a rebuilt-table scan.
  for (const auto& row : appended) {
    if (row.empty() || row[0] == "NULL") continue;
    int64_t want_count = 0;
    for (const auto& other : all) want_count += other[0] == row[0];
    QueryResult count =
        session.Run(QuerySpec::TrueCount({{names[0], row[0]}}));
    ASSERT_TRUE(count.status.ok()) << context << ": " << count.status;
    EXPECT_EQ(count.true_count, want_count) << context << " value "
                                            << row[0];
    break;  // one appended-only predicate per session suffices
  }
}

struct GridConfig {
  int appenders;
  int searchers;
  int64_t rows_per_appender;
  bool bulk;          // one AppendRows ticket vs an AppendRow loop
  bool group_commit;  // off = solo commits (the reference arm)
};

void RunGrid(const GridConfig& config) {
  const std::string context =
      StrCat(config.appenders, "x", config.searchers,
             config.bulk ? "/bulk" : "/rows",
             config.group_commit ? "" : "/solo");
  const int kAttrs = 4;
  const std::vector<std::string> names = AttributeNames(kAttrs);
  std::vector<std::vector<std::string>> base_rows = BaseRows(200, kAttrs);
  DatasetOptions options;
  options.private_service = true;
  auto dataset = Dataset::FromTable(BuildTable(names, base_rows), options);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  dataset->service()->set_append_group_commit(config.group_commit);

  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < config.appenders + config.searchers; ++i) {
    auto session = Session::Open(*dataset);
    ASSERT_TRUE(session.ok()) << session.status();
    sessions.push_back(std::move(*session));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < config.appenders; ++k) {
    threads.emplace_back([&, k] {
      Session& session = *sessions[static_cast<size_t>(k)];
      const auto rows =
          AppenderRows(k, config.rows_per_appender, kAttrs);
      if (config.bulk) {
        if (!session.AppendRows(rows).ok()) failures.fetch_add(1);
      } else {
        for (const auto& row : rows) {
          if (!session.AppendRow(row).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (int s = 0; s < config.searchers; ++s) {
    threads.emplace_back([&, s] {
      Session& session =
          *sessions[static_cast<size_t>(config.appenders + s)];
      const int64_t base = dataset->table().num_rows();
      const int64_t ceiling =
          base + config.appenders * config.rows_per_appender;
      while (!stop.load(std::memory_order_acquire)) {
        // Snapshot isolation: a query admitted at row-count R reports
        // exactly R rows, never a torn in-between state.
        QueryResult got = session.Run(QuerySpec::LabelSearch(30));
        if (!got.status.ok() || got.total_rows < base ||
            got.total_rows > ceiling) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int k = 0; k < config.appenders; ++k) threads[k].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = config.appenders; i < threads.size(); ++i) {
    threads[i].join();
  }
  ASSERT_EQ(failures.load(), 0) << context;

  const AppendBatchStats stats = dataset->service()->append_stats();
  EXPECT_EQ(stats.committed_rows,
            config.appenders * config.rows_per_appender)
      << context;
  EXPECT_EQ(stats.failed_requests, 0) << context;
  EXPECT_EQ(stats.pending, 0) << context;
  if (!config.group_commit) {
    EXPECT_EQ(stats.batches, stats.requests) << context;
  }

  // Every session — appender or searcher — agrees with the rebuild.
  for (size_t i = 0; i < sessions.size(); ++i) {
    ExpectMatchesRebuild(*sessions[i], *dataset, names, base_rows,
                         StrCat(context, "/session", i));
  }
}

TEST(MultiAppenderTest, AppenderSearcherGridMatchesRebuild) {
  for (int appenders : {1, 2, 4}) {
    for (int searchers : {1, 4}) {
      for (bool bulk : {false, true}) {
        RunGrid({appenders, searchers, /*rows_per_appender=*/24, bulk,
                 /*group_commit=*/true});
      }
    }
  }
}

TEST(MultiAppenderTest, SoloCommitArmMatchesRebuild) {
  RunGrid({/*appenders=*/2, /*searchers=*/1, /*rows_per_appender=*/24,
           /*bulk=*/false, /*group_commit=*/false});
}

// Concurrent requests parked behind a held query admission must commit
// as ONE merged batch: the leader's AppendAdmission wait is the merge
// window, and the batch runs one engine hook / one invalidation.
TEST(MultiAppenderTest, ParkedAppendersMergeIntoOneBatch) {
  const int kAttrs = 3;
  const std::vector<std::string> names = AttributeNames(kAttrs);
  const Table base = BuildTable(names, BaseRows(60, kAttrs));
  CountingService service(base);

  constexpr int kAppenders = 3;
  std::vector<std::thread> threads;
  {
    // Hold the gate in shared (query) mode: the elected append leader
    // blocks in BeginAppend while every sibling enqueues behind it.
    CountingService::QueryAdmission admission(service);
    for (int k = 0; k < kAppenders; ++k) {
      threads.emplace_back([&service, &names, k] {
        const auto rows = AppenderRows(k, 4, static_cast<int>(names.size()));
        PCBL_CHECK(service.AppendStrings(rows).ok());
      });
    }
    while (service.append_stats().pending < kAppenders) {
      std::this_thread::yield();
    }
  }  // release: the leader wakes and drains all three tickets at once
  for (auto& thread : threads) thread.join();

  const AppendBatchStats stats = service.append_stats();
  EXPECT_EQ(stats.requests, kAppenders);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.merged_batches, 1);
  EXPECT_EQ(stats.committed_rows, kAppenders * 4);
  EXPECT_EQ(service.engine().total_rows(), base.num_rows() + 12);
}

// Delta compaction triggered mid-stream by concurrent string appends:
// the engine folds its delta block into columnar base storage while
// sibling appenders keep committing; codes and rows stay exact.
TEST(MultiAppenderTest, CompactionMidStreamStaysExact) {
  const int kAttrs = 3;
  const std::vector<std::string> names = AttributeNames(kAttrs);
  std::vector<std::vector<std::string>> base_rows = BaseRows(50, kAttrs);
  const Table base = BuildTable(names, base_rows);
  CountingEngineOptions options;
  options.delta_compact_threshold = 8;  // compact many times mid-stream
  CountingService service(base, options);

  constexpr int kAppenders = 3;
  constexpr int64_t kRowsEach = 40;
  std::vector<std::thread> threads;
  for (int k = 0; k < kAppenders; ++k) {
    threads.emplace_back([&service, k] {
      const auto rows = AppenderRows(k, kRowsEach, 3);
      for (const auto& row : rows) {
        std::vector<std::vector<std::string>> one{row};
        PCBL_CHECK(service.AppendStrings(one).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(service.engine().total_rows(),
            base.num_rows() + kAppenders * kRowsEach);

  // The grown engine's PC sets equal a fresh engine's over the rebuilt
  // extended table — compaction and interning were invisible.
  std::vector<std::vector<std::string>> all = base_rows;
  const auto appended = DecodeAppendedRows(service, base);
  all.insert(all.end(), appended.begin(), appended.end());
  const Table rebuilt = BuildTable(names, all);
  CountingEngine reference(rebuilt);
  for (const AttrMask& mask :
       {AttrMask::FromIndices({0}), AttrMask::FromIndices({0, 1}),
        AttrMask::FromIndices({0, 1, 2})}) {
    auto got = service.engine().PatternCounts(mask);
    auto want = reference.PatternCounts(mask);
    testing::ExpectSameGroupCounts(*got, *want,
                                   StrCat("mask ", mask.bits()));
  }
  // Every interned code round-trips through the shared interner.
  for (int a = 0; a < kAttrs; ++a) {
    EXPECT_EQ(service.interner().NextCode(a),
              service.engine().EffectiveDomainSize(a));
  }
}

// A ticket that fails mid-batch — fault-injected or schema-mismatched —
// must leave no trace: no rows, no interned values, no VC/P_A drift;
// sibling tickets in the same group commit land untouched.
TEST(MultiAppenderTest, FailedTicketIsTransactional) {
  const int kAttrs = 3;
  const std::vector<std::string> names = AttributeNames(kAttrs);
  std::vector<std::vector<std::string>> base_rows = BaseRows(80, kAttrs);
  DatasetOptions options;
  options.private_service = true;
  auto dataset = Dataset::FromTable(BuildTable(names, base_rows), options);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  CountingService& service = *dataset->service();

  // Fault hook: refuse exactly the 5-row ticket, after its rows were
  // staged in the interner — the rollback must unpublish them.
  constexpr int64_t kPoisonRows = 5;
  service.SetAppendFaultHookForTest([](int64_t rows) {
    return rows == kPoisonRows
               ? InternalError("injected append fault")
               : Status::Ok();
  });

  auto session = Session::Open(*dataset);
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<std::vector<std::string>> poison;
  for (int64_t r = 0; r < kPoisonRows; ++r) {
    poison.push_back(std::vector<std::string>(
        static_cast<size_t>(kAttrs), StrCat("poison-", r)));
  }
  const Status faulted = (*session)->AppendRows(poison);
  EXPECT_EQ(faulted.code(), StatusCode::kInternal) << faulted;
  EXPECT_EQ((*session)->total_rows(), dataset->table().num_rows());
  // Nothing of the failed ticket was interned.
  EXPECT_TRUE(IsNull(service.interner().Lookup(0, "poison-0")));
  EXPECT_EQ(service.append_stats().failed_requests, 1);
  EXPECT_EQ(service.append_stats().committed_rows, 0);

  // A schema-mismatched row mid-ticket fails the whole ticket too.
  std::vector<std::vector<std::string>> ragged;
  ragged.push_back({"x", "y", "z"});
  ragged.push_back({"short-row"});  // width 1, schema has 3
  const Status mismatched = (*session)->AppendRows(ragged);
  EXPECT_EQ(mismatched.code(), StatusCode::kInvalidArgument)
      << mismatched;
  EXPECT_EQ((*session)->total_rows(), dataset->table().num_rows());
  EXPECT_TRUE(IsNull(service.interner().Lookup(0, "x")));

  service.SetAppendFaultHookForTest(nullptr);

  // After the failures, appends (reusing the once-rolled-back values)
  // succeed and the session still matches a from-scratch rebuild.
  ASSERT_TRUE((*session)->AppendRows(poison).ok());
  ASSERT_TRUE((*session)->AppendRow(ragged[0]).ok());
  ExpectMatchesRebuild(**session, *dataset, names, base_rows,
                       "after rollback");
}

// Transactionality under concurrency: a faulted ticket and healthy
// sibling tickets merged into the same group commit — the siblings
// land, the faulted one vanishes, and the result equals a rebuild over
// exactly the healthy rows.
TEST(MultiAppenderTest, FaultedTicketInMergedBatchSparesSiblings) {
  const int kAttrs = 3;
  const std::vector<std::string> names = AttributeNames(kAttrs);
  std::vector<std::vector<std::string>> base_rows = BaseRows(60, kAttrs);
  const Table base = BuildTable(names, base_rows);
  CountingService service(base);
  constexpr int64_t kPoisonRows = 7;
  service.SetAppendFaultHookForTest([](int64_t rows) {
    return rows == kPoisonRows
               ? InternalError("injected append fault")
               : Status::Ok();
  });

  std::vector<std::thread> threads;
  std::atomic<int> injected_failures{0};
  {
    CountingService::QueryAdmission admission(service);
    // One poisoned ticket (7 rows), two healthy ones (4 rows each),
    // all parked into the same merge window.
    threads.emplace_back([&] {
      std::vector<std::vector<std::string>> rows;
      for (int64_t r = 0; r < kPoisonRows; ++r) {
        rows.push_back(std::vector<std::string>(
            static_cast<size_t>(kAttrs), StrCat("bad-", r)));
      }
      if (service.AppendStrings(rows).code() == StatusCode::kInternal) {
        injected_failures.fetch_add(1);
      }
    });
    for (int k = 0; k < 2; ++k) {
      threads.emplace_back([&service, k] {
        PCBL_CHECK(service.AppendStrings(AppenderRows(k, 4, 3)).ok());
      });
    }
    while (service.append_stats().pending < 3) std::this_thread::yield();
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(injected_failures.load(), 1);
  const AppendBatchStats stats = service.append_stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.failed_requests, 1);
  EXPECT_EQ(stats.committed_rows, 8);
  EXPECT_EQ(service.engine().total_rows(), base.num_rows() + 8);
  EXPECT_TRUE(IsNull(service.interner().Lookup(0, "bad-0")));

  // The committed state equals a rebuild over the healthy rows only.
  std::vector<std::vector<std::string>> all = base_rows;
  const auto appended = DecodeAppendedRows(service, base);
  all.insert(all.end(), appended.begin(), appended.end());
  const Table rebuilt = BuildTable(names, all);
  CountingEngine reference(rebuilt);
  auto got = service.engine().PatternCounts(AttrMask::FromIndices({0, 1}));
  auto want = reference.PatternCounts(AttrMask::FromIndices({0, 1}));
  testing::ExpectSameGroupCounts(*got, *want, "post-fault PC set");
}

}  // namespace
}  // namespace pcbl
