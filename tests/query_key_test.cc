// Tests for the canonical query keys of the result tier (DESIGN.md §5.7):
//
//  * canonicalization — attribute sets key order-insensitively, defaults
//    left implicit key identically to the same values spelled out, and
//    knobs that cannot change result bytes (threads, engine flags,
//    scheduler, the result-cache flags themselves, a true count's
//    consumer-side label) are excluded from the key;
//  * stability — a golden-constant key pins the hash construction, so a
//    process cannot disagree with another (or with its past self) about
//    which results are "the same query";
//  * sensitivity — every result-affecting field moves the key, and so
//    does the table fingerprint;
//  * cacheability — wall-clock-limited searches are excluded from the
//    tier;
//  * validation — the result-cache spec fields go through the central
//    ValidateQuerySpec / Session::Open checks like every other knob.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "pattern/service_registry.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

using api::CanonicalQueryKey;
using api::Dataset;
using api::DatasetOptions;
using api::QuerySpec;
using api::QuerySpecCacheable;
using api::Session;
using api::SessionOptions;
using api::ValidateQuerySpec;

const TableFingerprint kFingerprint{0x0123456789abcdefULL,
                                    0xfedcba9876543210ULL};

TEST(QueryKeyTest, TrueCountTermOrderDoesNotMoveTheKey) {
  QuerySpec forward = QuerySpec::TrueCount(
      {{"race", "Hispanic"}, {"gender", "Female"}, {"age", "25"}});
  QuerySpec backward = QuerySpec::TrueCount(
      {{"age", "25"}, {"gender", "Female"}, {"race", "Hispanic"}});
  EXPECT_EQ(CanonicalQueryKey(forward, kFingerprint),
            CanonicalQueryKey(backward, kFingerprint));
}

TEST(QueryKeyTest, DefaultsLeftImplicitKeyLikeDefaultsSpelledOut) {
  const QuerySpec implicit = QuerySpec::LabelSearch(100);

  QuerySpec explicit_spec = QuerySpec::LabelSearch(100);
  explicit_spec.algorithm = QuerySpec::Algorithm::kTopDown;
  explicit_spec.metric = OptimizationMetric::kMaxAbsolute;
  explicit_spec.time_limit_seconds = 0.0;
  explicit_spec.record_candidates = false;
  EXPECT_EQ(CanonicalQueryKey(implicit, kFingerprint),
            CanonicalQueryKey(explicit_spec, kFingerprint));
}

TEST(QueryKeyTest, ResultNeutralKnobsAreExcludedFromTheKey) {
  const QuerySpec plain = QuerySpec::LabelSearch(80);

  QuerySpec tuned = QuerySpec::LabelSearch(80);
  tuned.num_threads = 7;
  tuned.use_counting_engine = false;
  tuned.counting_cache_budget = 0;
  tuned.use_result_cache = false;
  tuned.result_cache_budget = 12345;
  EXPECT_EQ(CanonicalQueryKey(plain, kFingerprint),
            CanonicalQueryKey(tuned, kFingerprint));

  // A true count's consumer-side label only feeds the per-caller
  // estimate; the data-backed count is label-independent.
  QuerySpec bare = QuerySpec::TrueCount({{"a", "x"}});
  QuerySpec labeled = QuerySpec::TrueCount({{"a", "x"}});
  labeled.label = std::make_shared<const PortableLabel>();
  EXPECT_EQ(CanonicalQueryKey(bare, kFingerprint),
            CanonicalQueryKey(labeled, kFingerprint));
}

// Golden constants: the key of a fixed spec over a fixed fingerprint.
// If this test moves, every previously persisted or cross-process
// assumption about key identity silently breaks — change the constants
// only with the hash construction itself.
TEST(QueryKeyTest, KeyConstructionIsStable) {
  QuerySpec search = QuerySpec::LabelSearch(64);
  search.metric = OptimizationMetric::kMeanQError;
  const QueryResultKey search_key =
      CanonicalQueryKey(search, kFingerprint);
  EXPECT_EQ(search_key.lo, 0x37b8e84f3c3d704bULL);
  EXPECT_EQ(search_key.hi, 0x44fc8cb045a9815aULL);

  const QuerySpec count =
      QuerySpec::TrueCount({{"gender", "Female"}, {"race", "Hispanic"}});
  const QueryResultKey count_key = CanonicalQueryKey(count, kFingerprint);
  EXPECT_EQ(count_key.lo, 0xad2f244bfad61277ULL);
  EXPECT_EQ(count_key.hi, 0x9d137c465361f68dULL);

  const QueryResultKey profile_key =
      CanonicalQueryKey(QuerySpec::Profile(), kFingerprint);
  EXPECT_EQ(profile_key.lo, 0x27877537fc7b1a59ULL);
  EXPECT_EQ(profile_key.hi, 0x85d695f3ba902d9eULL);
}

TEST(QueryKeyTest, ResultAffectingFieldsMoveTheKey) {
  const QuerySpec base = QuerySpec::LabelSearch(100);
  const QueryResultKey base_key = CanonicalQueryKey(base, kFingerprint);

  QuerySpec bound = base;
  bound.size_bound = 101;
  EXPECT_NE(CanonicalQueryKey(bound, kFingerprint), base_key);

  QuerySpec algorithm = base;
  algorithm.algorithm = QuerySpec::Algorithm::kNaive;
  EXPECT_NE(CanonicalQueryKey(algorithm, kFingerprint), base_key);

  QuerySpec metric = base;
  metric.metric = OptimizationMetric::kMaxQError;
  EXPECT_NE(CanonicalQueryKey(metric, kFingerprint), base_key);

  QuerySpec candidates = base;
  candidates.record_candidates = true;
  EXPECT_NE(CanonicalQueryKey(candidates, kFingerprint), base_key);

  QuerySpec focus = base;
  focus.focus.Set(2);
  EXPECT_NE(CanonicalQueryKey(focus, kFingerprint), base_key);

  // Kind separates even when the shared numeric fields agree.
  EXPECT_NE(CanonicalQueryKey(QuerySpec::Profile(), kFingerprint),
            base_key);

  // Different pattern values are different queries.
  EXPECT_NE(
      CanonicalQueryKey(QuerySpec::TrueCount({{"a", "x"}}), kFingerprint),
      CanonicalQueryKey(QuerySpec::TrueCount({{"a", "y"}}), kFingerprint));
  // (name, value) concatenation must not alias across the boundary.
  EXPECT_NE(
      CanonicalQueryKey(QuerySpec::TrueCount({{"ab", "x"}}), kFingerprint),
      CanonicalQueryKey(QuerySpec::TrueCount({{"a", "bx"}}), kFingerprint));

  // And the same spec over different data is a different key.
  const TableFingerprint other{kFingerprint.lo + 1, kFingerprint.hi};
  EXPECT_NE(CanonicalQueryKey(base, other), base_key);
}

TEST(QueryKeyTest, WallClockLimitedSearchesAreNotCacheable) {
  QuerySpec limited = QuerySpec::LabelSearch(100);
  EXPECT_TRUE(QuerySpecCacheable(limited));
  limited.time_limit_seconds = 1.5;
  EXPECT_FALSE(QuerySpecCacheable(limited));
  EXPECT_TRUE(QuerySpecCacheable(QuerySpec::TrueCount({{"a", "x"}})));
  EXPECT_TRUE(QuerySpecCacheable(QuerySpec::Profile()));
}

TEST(QueryKeyTest, ResultCacheSpecFieldsAreValidatedCentrally) {
  QuerySpec negative = QuerySpec::LabelSearch(50);
  negative.result_cache_budget = -1;
  EXPECT_EQ(ValidateQuerySpec(negative).code(),
            StatusCode::kInvalidArgument);

  QuerySpec conflicting = QuerySpec::LabelSearch(50);
  conflicting.use_result_cache = false;
  conflicting.result_cache_budget = 1024;
  EXPECT_EQ(ValidateQuerySpec(conflicting).code(),
            StatusCode::kInvalidArgument);

  QuerySpec fine = QuerySpec::LabelSearch(50);
  fine.use_result_cache = false;
  fine.result_cache_budget = 0;  // dedup-only is not a conflict
  EXPECT_TRUE(ValidateQuerySpec(fine).ok());
}

TEST(QueryKeyTest, SessionOpenValidatesResultCacheOptions) {
  Table table = workload::MakeCompas(200, 91).value();
  DatasetOptions dataset_options;
  dataset_options.private_service = true;
  auto dataset = Dataset::FromTable(table, dataset_options);
  ASSERT_TRUE(dataset.ok());

  SessionOptions negative;
  negative.result_cache_budget = -2;
  EXPECT_EQ(Session::Open(*dataset, negative).status().code(),
            StatusCode::kInvalidArgument);

  SessionOptions conflicting;
  conflicting.use_result_cache = false;
  conflicting.result_cache_budget = 4096;
  EXPECT_EQ(Session::Open(*dataset, conflicting).status().code(),
            StatusCode::kInvalidArgument);

  // The per-query conflict surfaces through Submit's validation even
  // when the session-level options are consistent.
  auto session = Session::Open(*dataset, SessionOptions{});
  ASSERT_TRUE(session.ok());
  QuerySpec conflicting_spec = QuerySpec::LabelSearch(40);
  conflicting_spec.use_result_cache = false;
  conflicting_spec.result_cache_budget = 4096;
  EXPECT_EQ((*session)->Submit(conflicting_spec).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pcbl
