// Tests for the pcbl::api façade (Dataset / Session / QuerySpec):
//
//  * an API conformance suite asserting every façade query is
//    byte-identical to the direct LabelSearch / one-shot-counter path,
//    across engine/thread/budget configurations and — the PR's
//    acceptance criterion — after Session::Append, against a
//    from-scratch rebuild of the extended table;
//  * central validation: nonsense specs and options come back as Status;
//  * concurrency: two concurrent sessions over content-equal data
//    perform exactly one set of full scans between them (asserted via
//    the shared service's stats), and a submit/append/evict stress that
//    must be TSan-clean.
#include "api/session.h"

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/artifact.h"
#include "api/dataset.h"
#include "api/query.h"
#include "core/pattern_set.h"
#include "core/portable_label.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/pattern.h"
#include "pattern/service_registry.h"
#include "server/wire.h"
#include "tests/differential_harness.h"
#include "util/str.h"
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

// Byte-identity between two search results: attribute set, PC set, |D|,
// and the full exact error report. Stats are allowed to differ (cache
// temperature is not part of the contract).
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
  EXPECT_EQ(got.error.std_abs, want.error.std_abs) << context;
  EXPECT_EQ(got.error.max_q, want.error.max_q) << context;
  EXPECT_EQ(got.error.mean_q, want.error.mean_q) << context;
  EXPECT_EQ(got.error.evaluated, want.error.evaluated) << context;
  EXPECT_EQ(got.error.total, want.error.total) << context;
  EXPECT_EQ(got.error.early_terminated, want.error.early_terminated)
      << context;
}

// One façade configuration of the conformance grid.
struct ApiConfig {
  std::string name;
  bool use_engine = true;
  int num_threads = 1;
  int64_t cache_budget = -1;  // -1 = default
  bool bulk_append = false;   // Append(Table) instead of AppendRow loop
};

std::vector<ApiConfig> ConformanceConfigs() {
  return {
      {"engine_serial", true, 1, -1, false},
      {"engine_threads", true, 3, -1, true},
      {"engine_budget0", true, 2, 0, false},
      {"no_engine", false, 1, -1, true},
      {"no_engine_threads", false, 2, -1, false},
  };
}

SessionOptions ToSessionOptions(const ApiConfig& config) {
  SessionOptions options;
  options.num_threads = config.num_threads;
  options.use_counting_engine = config.use_engine;
  options.counting_cache_budget = config.cache_budget;
  return options;
}

TEST(ApiConformanceTest, SearchMatchesDirectLabelSearch) {
  Table table = workload::MakeCompas(1500, 23).value();
  constexpr int64_t kBound = 60;
  // The reference: the direct low-level path, whose own config
  // independence is covered by the engine/service suites.
  LabelSearch direct(table);
  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  const SearchResult want_topdown = direct.TopDown(reference_options);
  const SearchResult want_naive = direct.Naive(reference_options);

  for (const ApiConfig& config : ConformanceConfigs()) {
    auto session =
        OpenSession(PrivateDataset(table), ToSessionOptions(config));
    QueryResult topdown =
        session->Run(QuerySpec::LabelSearch(kBound));
    ASSERT_TRUE(topdown.status.ok()) << topdown.status;
    ExpectSameSearchResult(topdown.search, want_topdown,
                           config.name + "/topdown");
    QueryResult naive = session->Run(QuerySpec::LabelSearch(
        kBound, QuerySpec::Algorithm::kNaive));
    ASSERT_TRUE(naive.status.ok()) << naive.status;
    ExpectSameSearchResult(naive.search, want_naive,
                           config.name + "/naive");
    EXPECT_EQ(topdown.total_rows, table.num_rows());
  }
}

TEST(ApiConformanceTest, FocusSearchMatchesDirectLabelSearch) {
  Table table = workload::MakeCompas(900, 29).value();
  const AttrMask focus = AttrMask::FromIndices({0, 1, 2});
  constexpr int64_t kBound = 80;

  LabelSearch direct(table);
  direct.SetEvaluationPatterns(std::make_shared<const PatternSet>(
      testing::OraclePatternSet(table, focus)));
  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  const SearchResult want = direct.TopDown(reference_options);

  auto session = OpenSession(PrivateDataset(table));
  QuerySpec spec = QuerySpec::LabelSearch(kBound);
  spec.focus = focus;
  QueryResult got = session->Run(spec);
  ASSERT_TRUE(got.status.ok()) << got.status;
  ExpectSameSearchResult(got.search, want, "focus");
}

// The PR's acceptance criterion: a search submitted after
// Session::Append succeeds, and its label, error and PC sets are
// byte-identical to a LabelSearch run on a from-scratch extended table.
TEST(ApiConformanceTest, AppendThenSearchMatchesFromScratchRebuild) {
  DifferentialWorkload workload = RandomWorkload(
      /*seed=*/177, /*attrs=*/4, /*base_rows=*/350, /*append_rows=*/80,
      /*domain=*/5, /*append_domain=*/8, /*null_percent=*/10);
  DifferentialHarness harness(std::move(workload));
  constexpr int64_t kBound = 40;

  // Reference: the full search over the rebuilt extended table.
  LabelSearch rebuilt(harness.reference());
  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  const SearchResult want = rebuilt.TopDown(reference_options);
  const SearchResult want_naive = rebuilt.Naive(reference_options);

  // Append rows as the workload's string rows (fresh values intern
  // beyond the base code space).
  DifferentialWorkload rows = RandomWorkload(177, 4, 350, 80, 5, 8, 10);

  for (const ApiConfig& config : ConformanceConfigs()) {
    auto session = OpenSession(PrivateDataset(harness.base()),
                               ToSessionOptions(config));
    // Warm the cache first in some configs so the patch arm is
    // exercised against real entries.
    if (config.use_engine) {
      ASSERT_TRUE(
          session->Run(QuerySpec::LabelSearch(kBound)).status.ok());
    }
    if (config.bulk_append) {
      auto builder =
          TableBuilder::Create(rows.attribute_names);
      ASSERT_TRUE(builder.ok());
      for (const auto& row : rows.append_rows) {
        ASSERT_TRUE(builder->AddRow(row).ok());
      }
      const Table delta = builder->Build();
      ASSERT_TRUE(session->Append(delta).ok()) << config.name;
    } else {
      for (const auto& row : rows.append_rows) {
        ASSERT_TRUE(session->AppendRow(row).ok()) << config.name;
      }
    }
    EXPECT_EQ(session->appended_rows(),
              static_cast<int64_t>(rows.append_rows.size()));
    EXPECT_EQ(session->total_rows(), harness.reference().num_rows());

    QueryResult got = session->Run(QuerySpec::LabelSearch(kBound));
    ASSERT_TRUE(got.status.ok()) << config.name << ": " << got.status;
    EXPECT_EQ(got.total_rows, harness.reference().num_rows());
    ExpectSameSearchResult(got.search, want, config.name + "/topdown");

    QueryResult naive = session->Run(
        QuerySpec::LabelSearch(kBound, QuerySpec::Algorithm::kNaive));
    ASSERT_TRUE(naive.status.ok()) << naive.status;
    ExpectSameSearchResult(naive.search, want_naive,
                           config.name + "/naive");

    // And the search keeps matching after *more* appends interleaved
    // with queries (append -> search -> append -> search).
    ASSERT_TRUE(session
                    ->AppendRow(std::vector<std::string>(
                        rows.attribute_names.size(), "late-value"))
                    .ok());
    auto builder = TableBuilder::Create(rows.attribute_names);
    ASSERT_TRUE(builder.ok());
    for (const auto& row : rows.base_rows) {
      ASSERT_TRUE(builder->AddRow(row).ok());
    }
    for (const auto& row : rows.append_rows) {
      ASSERT_TRUE(builder->AddRow(row).ok());
    }
    ASSERT_TRUE(builder
                    ->AddRow(std::vector<std::string>(
                        rows.attribute_names.size(), "late-value"))
                    .ok());
    const Table extended_again = builder->Build();
    LabelSearch rebuilt_again(extended_again);
    const SearchResult want_again = rebuilt_again.TopDown(reference_options);
    QueryResult again = session->Run(QuerySpec::LabelSearch(kBound));
    ASSERT_TRUE(again.status.ok()) << again.status;
    ExpectSameSearchResult(again.search, want_again,
                           config.name + "/after-second-append");
  }
}

// A delta table's dictionary may carry values its rows never use (e.g.
// a delta produced by FilterRows keeps its parent's full dictionary).
// Append must intern only row-used values, in row-major first-seen
// order, or fresh ids shift against the from-scratch rebuild and the
// byte-identity above silently breaks.
TEST(ApiConformanceTest, AppendedDeltaWithUnusedDictionaryEntriesStaysExact) {
  const std::vector<std::string> names = {"a", "b"};
  auto base_builder = TableBuilder::Create(names);
  ASSERT_TRUE(base_builder.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        base_builder->AddRow({"x" + std::to_string(i % 3), "y"}).ok());
  }
  const Table base = base_builder->Build();

  // Delta whose dictionary interns decoy values no row uses, *before*
  // the genuinely fresh row values.
  auto delta_builder = TableBuilder::Create(names);
  ASSERT_TRUE(delta_builder.ok());
  delta_builder->InternValue(0, "unused-0");
  delta_builder->InternValue(0, "unused-1");
  delta_builder->InternValue(1, "unused-2");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(delta_builder
                    ->AddRow({"fresh" + std::to_string(i % 4),
                              i % 2 == 0 ? "y" : "fresh-b"})
                    .ok());
  }
  const Table delta = delta_builder->Build();
  ASSERT_GT(delta.DomainSize(0), 4);  // the decoys really are interned

  // Reference: rebuild base + delta rows through one TableBuilder.
  auto rebuilt_builder = TableBuilder::Create(names);
  ASSERT_TRUE(rebuilt_builder.ok());
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    ASSERT_TRUE(rebuilt_builder
                    ->AddRow({base.ValueString(r, 0),
                              base.ValueString(r, 1)})
                    .ok());
  }
  for (int64_t r = 0; r < delta.num_rows(); ++r) {
    ASSERT_TRUE(rebuilt_builder
                    ->AddRow({delta.ValueString(r, 0),
                              delta.ValueString(r, 1)})
                    .ok());
  }
  const Table rebuilt = rebuilt_builder->Build();
  LabelSearch reference(rebuilt);
  SearchOptions reference_options;
  reference_options.size_bound = 50;
  const SearchResult want = reference.TopDown(reference_options);

  auto session = OpenSession(PrivateDataset(base));
  ASSERT_TRUE(session->Append(delta).ok());
  QueryResult got = session->Run(QuerySpec::LabelSearch(50));
  ASSERT_TRUE(got.status.ok()) << got.status;
  ExpectSameSearchResult(got.search, want, "unused-dictionary-entries");
  // The decoys were never interned into the session's code space: the
  // effective domains match the rebuilt table's exactly.
  {
    std::lock_guard<std::mutex> lock(
        session->dataset().service()->mutex());
    const CountingEngine& engine = session->dataset().service()->engine();
    EXPECT_EQ(engine.EffectiveDomainSize(0),
              static_cast<int64_t>(rebuilt.DomainSize(0)));
    EXPECT_EQ(engine.EffectiveDomainSize(1),
              static_cast<int64_t>(rebuilt.DomainSize(1)));
  }
}

TEST(ApiConformanceTest, TrueCountMatchesOneShotCountersAfterAppends) {
  DifferentialWorkload workload = RandomWorkload(
      /*seed=*/55, /*attrs=*/3, /*base_rows=*/220, /*append_rows=*/40,
      /*domain=*/4, /*append_domain=*/6, /*null_percent=*/15);
  DifferentialHarness harness(std::move(workload));
  DifferentialWorkload rows = RandomWorkload(55, 3, 220, 40, 4, 6, 15);

  auto session = OpenSession(PrivateDataset(harness.base()));
  for (const auto& row : rows.append_rows) {
    ASSERT_TRUE(session->AppendRow(row).ok());
  }

  const Table& reference = harness.reference();
  // Probe arity-1, -2 and -3 patterns over values drawn from the
  // *extended* table (including values the base table never saw).
  for (int64_t r = 0; r < reference.num_rows(); r += 37) {
    for (int arity = 1; arity <= reference.num_attributes(); ++arity) {
      std::vector<std::pair<std::string, std::string>> terms;
      std::vector<PatternTerm> code_terms;
      for (int a = 0; a < arity; ++a) {
        const ValueId v = reference.value(r, a);
        if (IsNull(v)) continue;
        terms.emplace_back(reference.schema().name(a),
                           reference.dictionary(a).GetString(v));
        code_terms.push_back(PatternTerm{a, v});
      }
      if (terms.empty()) continue;
      auto pattern = Pattern::Create(code_terms);
      ASSERT_TRUE(pattern.ok());
      const int64_t want = CountMatches(reference, *pattern);
      QueryResult got = session->Run(QuerySpec::TrueCount(terms));
      ASSERT_TRUE(got.status.ok()) << got.status;
      EXPECT_EQ(got.true_count, want)
          << "row " << r << " arity " << arity;
      EXPECT_EQ(got.total_rows, reference.num_rows());
    }
  }
}

TEST(ApiConformanceTest, TrueCountCarriesLabelEstimate) {
  Table table = workload::MakeCompas(600, 31).value();
  auto session = OpenSession(PrivateDataset(table));
  QueryResult built = session->Run(QuerySpec::LabelSearch(50));
  ASSERT_TRUE(built.status.ok());
  auto label = std::make_shared<const PortableLabel>(
      MakePortable(built.search.label, table, "conformance"));

  std::vector<std::pair<std::string, std::string>> terms = {
      {table.schema().name(0), table.dictionary(0).GetString(0)},
      {table.schema().name(1), table.dictionary(1).GetString(0)},
  };
  QuerySpec spec = QuerySpec::TrueCount(terms);
  spec.label = label;
  QueryResult got = session->Run(spec);
  ASSERT_TRUE(got.status.ok()) << got.status;
  ASSERT_TRUE(got.estimate.has_value());
  auto direct = api::EstimateFromLabel(*label, terms);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*got.estimate, *direct);
}

TEST(ApiConformanceTest, ProfileMatchesOneShotCountersAfterAppends) {
  DifferentialWorkload workload = RandomWorkload(
      /*seed=*/88, /*attrs=*/4, /*base_rows=*/180, /*append_rows=*/30,
      /*domain=*/4, /*append_domain=*/5, /*null_percent=*/10);
  DifferentialHarness harness(std::move(workload));
  DifferentialWorkload rows = RandomWorkload(88, 4, 180, 30, 4, 5, 10);

  auto session = OpenSession(PrivateDataset(harness.base()));
  QueryResult before = session->Run(QuerySpec::Profile());
  ASSERT_TRUE(before.status.ok());
  for (const auto& row : rows.append_rows) {
    ASSERT_TRUE(session->AppendRow(row).ok());
  }
  QueryResult after = session->Run(QuerySpec::Profile());
  ASSERT_TRUE(after.status.ok());

  const Table& reference = harness.reference();
  const int n = reference.num_attributes();
  ASSERT_EQ(static_cast<int>(after.pairs.size()), n * (n - 1) / 2);
  for (const api::PairwiseSize& p : after.pairs) {
    const AttrMask mask =
        AttrMask::Single(p.attr_a).Union(AttrMask::Single(p.attr_b));
    EXPECT_EQ(p.size, CountDistinctPatterns(reference, mask))
        << p.attr_a << "x" << p.attr_b;
  }
}

TEST(ApiSessionTest, SubmitIsAsynchronousAndFuturesShare) {
  Table table = workload::MakeCompas(1200, 37).value();
  SessionOptions options;
  options.executor_threads = 2;
  auto session = OpenSession(PrivateDataset(table), options);
  std::vector<QueryFuture> futures;
  for (int i = 0; i < 6; ++i) {
    auto future = session->Submit(QuerySpec::LabelSearch(50));
    ASSERT_TRUE(future.ok()) << future.status();
    futures.push_back(*future);
  }
  const QueryResult& first = futures[0].Get();
  ASSERT_TRUE(first.status.ok());
  for (QueryFuture& f : futures) {
    const QueryResult& r = f.Get();
    ASSERT_TRUE(r.status.ok());
    ExpectSameSearchResult(r.search, first.search, "async");
  }
  // A copied future shares the result.
  QueryFuture copy = futures[1];
  EXPECT_TRUE(copy.Ready());
  EXPECT_EQ(copy.Get().search.best_attrs.bits(),
            first.search.best_attrs.bits());
}

TEST(ApiSessionTest, ValidationRejectsNonsenseCentrally) {
  Table table = workload::MakeCompas(200, 41).value();
  // Session-level options.
  {
    SessionOptions options;
    options.num_threads = -2;
    EXPECT_FALSE(Session::Open(PrivateDataset(table), options).ok());
  }
  {
    SessionOptions options;
    options.executor_threads = 0;
    EXPECT_FALSE(Session::Open(PrivateDataset(table), options).ok());
  }
  {
    SessionOptions options;
    options.use_counting_engine = false;
    options.counting_cache_budget = 1024;  // conflicting engine flags
    EXPECT_FALSE(Session::Open(PrivateDataset(table), options).ok());
  }

  auto session = OpenSession(PrivateDataset(table));
  auto expect_invalid = [&](QuerySpec spec, const std::string& what) {
    auto future = session->Submit(std::move(spec));
    ASSERT_FALSE(future.ok()) << what;
    EXPECT_EQ(future.status().code(), StatusCode::kInvalidArgument)
        << what;
  };
  expect_invalid(QuerySpec::LabelSearch(-1), "negative bound");
  {
    QuerySpec spec = QuerySpec::LabelSearch(10);
    spec.num_threads = 0;
    expect_invalid(std::move(spec), "zero threads");
  }
  {
    QuerySpec spec = QuerySpec::LabelSearch(10);
    spec.time_limit_seconds = -1.0;
    expect_invalid(std::move(spec), "negative time limit");
  }
  {
    QuerySpec spec = QuerySpec::LabelSearch(10);
    spec.use_counting_engine = false;
    spec.counting_cache_budget = 4096;
    expect_invalid(std::move(spec), "conflicting engine flags");
  }
  {
    QuerySpec spec = QuerySpec::LabelSearch(10);
    spec.counting_cache_budget = -7;
    expect_invalid(std::move(spec), "negative budget");
  }
  {
    QuerySpec spec = QuerySpec::LabelSearch(10);
    spec.focus = AttrMask::FromIndices(
        {table.num_attributes() + 3});
    expect_invalid(std::move(spec), "focus beyond schema");
  }
  expect_invalid(QuerySpec::TrueCount({}), "empty pattern");
  {
    QuerySpec spec = QuerySpec::Profile();
    spec.pattern = {{"a", "b"}};
    expect_invalid(std::move(spec), "pattern on profile");
  }
  // Execution-time failures surface in QueryResult::status.
  QueryResult unknown =
      session->Run(QuerySpec::TrueCount({{"nosuch", "x"}}));
  EXPECT_FALSE(unknown.status.ok());
  EXPECT_NE(unknown.status.code(), StatusCode::kInvalidArgument);
}

// Build the reference extended table from the same string rows the
// session consumes — byte-identity requires matching code assignment,
// so both sides must intern in row-major first-seen order.
Table RebuildExtended(const DifferentialWorkload& workload,
                      const std::vector<std::vector<std::string>>& extra) {
  auto builder = TableBuilder::Create(workload.attribute_names);
  PCBL_CHECK(builder.ok()) << builder.status();
  for (const auto& row : workload.base_rows) {
    PCBL_CHECK(builder->AddRow(row).ok());
  }
  for (const auto& row : workload.append_rows) {
    PCBL_CHECK(builder->AddRow(row).ok());
  }
  for (const auto& row : extra) {
    PCBL_CHECK(builder->AddRow(row).ok());
  }
  return builder->Build();
}

Table BaseTable(const DifferentialWorkload& workload) {
  auto builder = TableBuilder::Create(workload.attribute_names);
  PCBL_CHECK(builder.ok()) << builder.status();
  for (const auto& row : workload.base_rows) {
    PCBL_CHECK(builder->AddRow(row).ok());
  }
  return builder->Build();
}

// Carried-over bug, fixed by this PR: a focus (custom-PatternSet)
// search after Session::Append used to refuse with FailedPrecondition
// because its pattern set was built from the base table only. The
// session now derives the focus pattern set from the engine's PC sets
// over the extended data — byte-identical to a from-scratch rebuild.
TEST(ApiSessionTest, FocusSearchAfterAppendMatchesRebuild) {
  DifferentialWorkload workload = RandomWorkload(
      /*seed=*/431, /*attrs=*/4, /*base_rows=*/300, /*append_rows=*/60,
      /*domain=*/5, /*append_domain=*/8, /*null_percent=*/10);
  auto session = OpenSession(PrivateDataset(BaseTable(workload)));
  for (const auto& row : workload.append_rows) {
    ASSERT_TRUE(session->AppendRow(row).ok());
  }

  const Table extended = RebuildExtended(workload, {});
  for (const auto& indices :
       {std::vector<int>{0}, std::vector<int>{0, 1},
        std::vector<int>{1, 2, 3}}) {
    const AttrMask focus = AttrMask::FromIndices(indices);
    LabelSearch rebuilt(extended);
    rebuilt.SetEvaluationPatterns(std::make_shared<const PatternSet>(
        testing::OraclePatternSet(extended, focus)));
    SearchOptions reference_options;
    reference_options.size_bound = 40;
    const SearchResult want = rebuilt.TopDown(reference_options);

    QuerySpec spec = QuerySpec::LabelSearch(40);
    spec.focus = focus;
    QueryResult got = session->Run(spec);
    ASSERT_TRUE(got.status.ok()) << got.status;
    ExpectSameSearchResult(got.search, want,
                           StrCat("focus arity ", indices.size()));
  }
}

// The wire bytes of a search result with its timing and the engine's
// service-global counters zeroed: the part of a reply that must not
// depend on how the session counted.
std::string CanonicalBytes(const QueryResult& result, const Table& table) {
  server::wire::WireQueryResult wire =
      server::wire::ToWireResult(result, table);
  wire.search.stats.total_seconds = 0.0;
  wire.search.stats.candidate_seconds = 0.0;
  wire.search.stats.error_eval_seconds = 0.0;
  wire.search.stats.counting = CountingEngineStats{};
  server::wire::Writer writer;
  server::wire::EncodeQueryResult(wire, &writer);
  return writer.Take();
}

// One focus path for base and appended data alike: on base data the
// session's focus set comes from the engine's PC set (the synced VC for
// one attribute), and the search over it must be byte-identical on the
// wire — ErrorReport and candidates included — to a direct search over
// the plain group-by oracle's pattern set. Every cell takes one of three
// values or NULL over a full grid (a quarter of the cells are NULL, and
// every combination ties), and two skew rows lift a few combinations off
// the grid: count ties remain at every focus width, and their order
// decides what the early-termination scan evaluates.
TEST(SessionFocusPathTest, BaseDataMatchesOraclePatternSet) {
  DifferentialWorkload workload;
  workload.attribute_names = {"a0", "a1", "a2", "a3", "a4"};
  const std::vector<std::string> cells = {"x", "y", "z", ""};
  for (int code = 0; code < 4 * 4 * 4 * 4 * 4; ++code) {
    std::vector<std::string> row;
    for (int a = 0, rest = code; a < 5; ++a, rest /= 4) {
      row.push_back(cells[static_cast<size_t>(rest % 4)]);
    }
    workload.base_rows.push_back(std::move(row));
  }
  for (int copy = 0; copy < 40; ++copy) {
    workload.base_rows.push_back({"x", "x", "x", "x", "x"});
    workload.base_rows.push_back({"y", "", "y", "", "y"});
  }
  const Table table = BaseTable(workload);
  auto session = OpenSession(PrivateDataset(table));
  constexpr int64_t kBound = 30;
  for (const auto& indices :
       {std::vector<int>{2}, std::vector<int>{0, 3},
        std::vector<int>{0, 1, 3, 4}}) {
    const AttrMask focus = AttrMask::FromIndices(indices);
    const std::string context = StrCat("focus width ", indices.size());
    auto oracle = std::make_shared<const PatternSet>(
        testing::OraclePatternSet(table, focus));
    bool tie = false;
    for (int64_t i = 1; i < oracle->size(); ++i) {
      tie = tie || oracle->count(i - 1) == oracle->count(i);
    }
    ASSERT_TRUE(tie) << context << ": the workload has no count tie";

    for (auto algorithm :
         {QuerySpec::Algorithm::kTopDown, QuerySpec::Algorithm::kNaive}) {
      LabelSearch direct(table);
      direct.SetEvaluationPatterns(oracle);
      SearchOptions options;
      options.size_bound = kBound;
      QueryResult want;
      want.kind = QuerySpec::Kind::kLabelSearch;
      want.total_rows = table.num_rows();
      want.search = algorithm == QuerySpec::Algorithm::kNaive
                        ? direct.Naive(options)
                        : direct.TopDown(options);

      QuerySpec spec = QuerySpec::LabelSearch(kBound, algorithm);
      spec.focus = focus;
      const QueryResult got = session->Run(spec);
      ASSERT_TRUE(got.status.ok()) << context << ": " << got.status;
      ExpectSameSearchResult(got.search, want.search, context);
      EXPECT_EQ(CanonicalBytes(got, table), CanonicalBytes(want, table))
          << context;
    }
  }
}

// The one-appender rule is lifted: sibling sessions on one shared
// service may all append, codes are interned centrally, and everyone's
// queries (including string predicates naming appended-only values)
// agree with a from-scratch rebuild of the extended table.
TEST(ApiSessionTest, SiblingAppendersOnSharedService) {
  DifferentialWorkload workload = RandomWorkload(
      /*seed=*/433, /*attrs=*/4, /*base_rows=*/400, /*append_rows=*/0,
      /*domain=*/6, /*append_domain=*/6, /*null_percent=*/10);
  Table table = BaseTable(workload);
  Dataset dataset = PrivateDataset(table);
  auto appender = OpenSession(dataset);
  auto sibling = OpenSession(dataset);
  const std::vector<std::string> row_a(
      static_cast<size_t>(table.num_attributes()), "fresh");
  const std::vector<std::string> row_b(
      static_cast<size_t>(table.num_attributes()), "fresher");
  ASSERT_TRUE(appender->AppendRow(row_a).ok());
  ASSERT_TRUE(sibling->AppendRow(row_b).ok());
  EXPECT_EQ(appender->appended_rows(), 1);
  EXPECT_EQ(sibling->appended_rows(), 1);
  EXPECT_EQ(appender->total_rows(), table.num_rows() + 2);
  EXPECT_EQ(sibling->total_rows(), table.num_rows() + 2);

  // Both sessions' searches match the rebuilt extended table.
  const Table extended = RebuildExtended(workload, {row_a, row_b});
  LabelSearch rebuilt(extended);
  SearchOptions reference_options;
  reference_options.size_bound = 50;
  const SearchResult want = rebuilt.TopDown(reference_options);
  QueryResult from_appender = appender->Run(QuerySpec::LabelSearch(50));
  ASSERT_TRUE(from_appender.status.ok()) << from_appender.status;
  ExpectSameSearchResult(from_appender.search, want, "appender");
  QueryResult from_sibling = sibling->Run(QuerySpec::LabelSearch(50));
  ASSERT_TRUE(from_sibling.status.ok()) << from_sibling.status;
  ExpectSameSearchResult(from_sibling.search, want, "sibling");
  EXPECT_EQ(from_sibling.total_rows, table.num_rows() + 2);

  // Carried-over bug, fixed by this PR: each session can resolve string
  // predicates over values only the *other* session appended — codes
  // live in the shared interner, not per-session dictionaries.
  const std::string attr0 = table.schema().name(0);
  QueryResult count_b = appender->Run(
      QuerySpec::TrueCount({{attr0, "fresher"}}));
  ASSERT_TRUE(count_b.status.ok()) << count_b.status;
  EXPECT_EQ(count_b.true_count, 1);
  QueryResult count_a = sibling->Run(
      QuerySpec::TrueCount({{attr0, "fresh"}}));
  ASSERT_TRUE(count_a.status.ok()) << count_a.status;
  EXPECT_EQ(count_a.true_count, 1);
}

// Acceptance criterion: two concurrent sessions over content-equal data
// perform at most one set of full scans between them — the wave
// scheduler may even do less (an out-of-phase merged wave can answer a
// subset by rolling up a concurrently cached superset instead of
// scanning).
TEST(ApiSessionTest, ConcurrentSessionsShareOneSetOfFullScans) {
  constexpr int64_t kRows = 2200;
  constexpr uint64_t kSeed = 53;
  constexpr int64_t kBound = 60;

  // Expected scan count: one cold session over a private service.
  SearchOptions reference_options;
  reference_options.size_bound = kBound;
  Table cold_table = workload::MakeCompas(kRows, kSeed).value();
  LabelSearch cold(cold_table);
  const SearchResult cold_result = cold.TopDown(reference_options);
  const int64_t cold_full_scans =
      cold.counting_service()->stats().full_scans;
  ASSERT_GT(cold_full_scans, 0);

  // Two sessions, each over its own content-equal table instance,
  // racing through the process-wide registry.
  ServiceRegistry::Global().Clear();
  std::vector<Table> tables;
  tables.push_back(workload::MakeCompas(kRows, kSeed).value());
  tables.push_back(workload::MakeCompas(kRows, kSeed).value());
  auto d1 = Dataset::FromTable(tables[0]);
  auto d2 = Dataset::FromTable(tables[1]);
  ASSERT_TRUE(d1.ok() && d2.ok());
  ASSERT_EQ(d1->service().get(), d2->service().get())
      << "content-equal datasets must share one registry service";
  ASSERT_EQ(d1->fingerprint().lo, d2->fingerprint().lo);

  auto s1 = OpenSession(*d1);
  auto s2 = OpenSession(*d2);
  auto f1 = s1->Submit(QuerySpec::LabelSearch(kBound));
  auto f2 = s2->Submit(QuerySpec::LabelSearch(kBound));
  ASSERT_TRUE(f1.ok() && f2.ok());
  const QueryResult& r1 = f1->Get();
  const QueryResult& r2 = f2->Get();
  ASSERT_TRUE(r1.status.ok() && r2.status.ok());

  const int64_t full_scans = d1->service()->StatsSnapshot().full_scans;
  EXPECT_LE(full_scans, cold_full_scans)
      << "a concurrent session rescanned the table";
  EXPECT_GT(full_scans, 0);
  ExpectSameSearchResult(r1.search, cold_result, "session 1");
  ExpectSameSearchResult(r2.search, cold_result, "session 2");
  ServiceRegistry::Global().Clear();
}

// Concurrency stress: reader sessions racing submits over one shared
// fingerprint while an appender session grows its own dataset and a
// trimmer forces registry evictions against decoys. Must be TSan-clean;
// the readers' service must be built exactly once.
TEST(ApiSessionTest, StressSubmitAppendEvict) {
  constexpr int kReaders = 3;
  constexpr int kItersPerReader = 6;
  constexpr int64_t kBound = 30;

  ServiceRegistry::Global().Clear();
  Table reader_table = workload::MakeCompas(700, 59).value();
  Table appender_table = workload::MakeCompas(500, 61).value();
  std::vector<Table> decoys;
  for (int i = 0; i < 3; ++i) {
    decoys.push_back(workload::MakeCompas(150, 80 + i).value());
  }

  // Anchor keeps the readers' service hot (never evictable).
  auto anchor = Dataset::FromTable(reader_table);
  ASSERT_TRUE(anchor.ok());
  CountingService* const expected = anchor->service().get();

  std::vector<std::thread> threads;
  std::vector<std::string> errors(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      for (int iter = 0; iter < kItersPerReader; ++iter) {
        auto dataset = Dataset::FromTable(reader_table);
        if (!dataset.ok() || dataset->service().get() != expected) {
          errors[static_cast<size_t>(i)] = "reader service rebuilt";
          return;
        }
        auto session = Session::Open(*dataset);
        if (!session.ok()) {
          errors[static_cast<size_t>(i)] = "open failed";
          return;
        }
        QueryResult r = (*session)->Run(QuerySpec::LabelSearch(kBound));
        if (!r.status.ok()) {
          errors[static_cast<size_t>(i)] = r.status.ToString();
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    auto dataset = Dataset::FromTable(appender_table);
    PCBL_CHECK(dataset.ok());
    auto session = Session::Open(*dataset);
    PCBL_CHECK(session.ok());
    const std::vector<std::string> row(
        static_cast<size_t>(appender_table.num_attributes()), "grow");
    for (int i = 0; i < 20; ++i) {
      PCBL_CHECK((*session)->AppendRow(row).ok());
      if (i % 5 == 4) {
        QueryResult r = (*session)->Run(QuerySpec::LabelSearch(kBound));
        PCBL_CHECK(r.status.ok()) << r.status;
      }
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 12; ++i) {
      auto decoy = Dataset::FromTable(decoys[static_cast<size_t>(i % 3)]);
      PCBL_CHECK(decoy.ok());
      (*Session::Open(*decoy))->Run(QuerySpec::Profile());
      ServiceRegistry::Global().SetMemoryBudget(1);
      ServiceRegistry::Global().SetMemoryBudget(0);
    }
  });
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "") << e;

  // Restore the registry defaults for whoever runs next.
  ServiceRegistry::Global().SetMemoryBudget(
      ServiceRegistryOptions{}.memory_budget_bytes);
  ServiceRegistry::Global().Clear();
}

}  // namespace
}  // namespace pcbl
