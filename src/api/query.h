// Query descriptions and results of the pcbl public API (api/session.h).
//
// A Session executes three kinds of queries, all described by one
// QuerySpec and answered by one QueryResult:
//
//   * kLabelSearch — the optimal-label search (Sec. III / Algorithm 1),
//   * kTrueCount   — the exact count of one pattern, optionally paired
//                    with a portable label's estimate (the consumer-side
//                    spot check of Definition 2.11),
//   * kProfile     — the pairwise label sizes |P_S| over all attribute
//                    pairs (the candidate seeds of a bound-B_s search).
//
// Specs are validated *centrally* (ValidateQuerySpec plus the session's
// schema-dependent checks) and nonsense inputs — a negative size bound,
// zero worker threads, a disabled engine combined with a positive
// memoization budget — come back as Status instead of being clamped
// silently at each call site.
//
// Every kind executes the same way: admitted shared through the shared
// counting service's gate, its engine work submitted as wave-scheduler
// batches that may merge with concurrent queries' (docs/CONCURRENCY.md).
// The per-query engine overrides tune cost only, never result bytes.
#ifndef PCBL_API_QUERY_H_
#define PCBL_API_QUERY_H_

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/portable_label.h"
#include "core/search.h"
#include "pattern/service_registry.h"
#include "util/attr_mask.h"
#include "util/status.h"

namespace pcbl {
namespace api {

/// One query against a Session.
struct QuerySpec {
  enum class Kind { kLabelSearch, kTrueCount, kProfile };
  enum class Algorithm { kTopDown, kNaive };

  Kind kind = Kind::kLabelSearch;

  // --- kLabelSearch ------------------------------------------------------
  Algorithm algorithm = Algorithm::kTopDown;
  /// B_s: maximal label size |PC| (Definition 2.15).
  int64_t size_bound = 100;
  OptimizationMetric metric = OptimizationMetric::kMaxAbsolute;
  /// Cap on candidate generation (0 = unlimited), as in SearchOptions.
  double time_limit_seconds = 0.0;
  bool record_candidates = false;
  /// Rank against the patterns over these attributes instead of P_A
  /// (Definition 2.15's custom pattern set). Empty = P_A. Works on
  /// appended data too: the session derives the focus pattern set from
  /// the engine's PC sets over the extended rows, byte-identical to a
  /// from-scratch rebuild.
  AttrMask focus;

  // --- kTrueCount --------------------------------------------------------
  /// (attribute name, value string) terms of the pattern to count.
  std::vector<std::pair<std::string, std::string>> pattern;
  /// Optional: also answer the pattern from this label (the estimate the
  /// true count is checked against).
  std::shared_ptr<const PortableLabel> label;

  // --- per-query engine overrides (unset = session defaults) ------------
  std::optional<int> num_threads;
  std::optional<bool> use_counting_engine;
  std::optional<int64_t> counting_cache_budget;
  /// Minimum rows per morsel for morsel-parallel exact sizing scans
  /// (0 disables intra-subset parallelism). Result-neutral — excluded
  /// from the result-cache key like num_threads.
  std::optional<int64_t> min_rows_per_morsel;
  /// Route the query through the service's result tier: identical
  /// in-flight queries collapse onto one execution, identical repeats
  /// answer from the bounded completed-result cache. Byte-identical
  /// results either way (the key covers every result-affecting field).
  /// See DESIGN.md §5.7.
  std::optional<bool> use_result_cache;
  /// Byte budget of the service's completed-result cache (last writer
  /// wins on the shared service; 0 keeps in-flight dedup but caches no
  /// completed results). Unset = session default.
  std::optional<int64_t> result_cache_budget;

  /// Convenience factories for the common shapes.
  static QuerySpec LabelSearch(int64_t size_bound,
                               Algorithm algorithm = Algorithm::kTopDown) {
    QuerySpec spec;
    spec.kind = Kind::kLabelSearch;
    spec.size_bound = size_bound;
    spec.algorithm = algorithm;
    return spec;
  }
  static QuerySpec TrueCount(
      std::vector<std::pair<std::string, std::string>> pattern) {
    QuerySpec spec;
    spec.kind = Kind::kTrueCount;
    spec.pattern = std::move(pattern);
    return spec;
  }
  static QuerySpec Profile() {
    QuerySpec spec;
    spec.kind = Kind::kProfile;
    return spec;
  }
};

/// |P_S| of one attribute pair, as reported by a kProfile query.
struct PairwiseSize {
  int attr_a = 0;
  int attr_b = 0;
  int64_t size = 0;
};

/// Outcome of one query. `status` carries execution-time failures (an
/// unknown attribute name, a pattern value no session ever interned);
/// spec-shape problems are rejected earlier, by Session::Submit.
struct QueryResult {
  Status status = Status::Ok();
  QuerySpec::Kind kind = QuerySpec::Kind::kLabelSearch;
  /// |D| the query ran against — base rows plus every append the shared
  /// service had absorbed when the query executed.
  int64_t total_rows = 0;

  /// kLabelSearch: the full search outcome (label, error report, stats).
  SearchResult search;

  /// kTrueCount: c_D(p) over the current (possibly extended) data, and
  /// the label's estimate when QuerySpec::label was supplied.
  int64_t true_count = 0;
  std::optional<double> estimate;

  /// kProfile: |P_S| of every attribute pair, in (i, j), i < j order.
  std::vector<PairwiseSize> pairs;
};

/// Handle on an asynchronously executing query (std::shared_future
/// semantics: copyable, Get() blocks until the result is ready and then
/// returns the shared result).
class QueryFuture {
 public:
  QueryFuture() = default;

  /// Blocks until the query finished; the result stays valid for the
  /// future's lifetime.
  const QueryResult& Get() const { return future_.get(); }

  /// True when Get() would return without blocking.
  bool Ready() const {
    return future_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  bool valid() const { return future_.valid(); }

 private:
  friend class Session;
  explicit QueryFuture(std::shared_future<QueryResult> future)
      : future_(std::move(future)) {}

  std::shared_future<QueryResult> future_;
};

/// Spec-intrinsic validation: the rules that need no session context.
/// Session::Submit runs this plus the schema- and option-dependent
/// checks; exposed so callers can pre-validate a spec they assemble.
Status ValidateQuerySpec(const QuerySpec& spec);

/// True when `spec`'s result is a pure function of (table content,
/// canonicalized spec) — the precondition for riding the result tier.
/// Wall-clock-limited searches are excluded: where their candidate
/// generation is cut off depends on elapsed time, not on content.
bool QuerySpecCacheable(const QuerySpec& spec);

/// Canonical, stable 128-bit key of (table content, result-affecting
/// spec fields). Attribute sets are order-insensitive — true-count
/// terms are sorted by (name, value), the focus set hashes by mask
/// bits — and a default left implicit keys identically to the same
/// value spelled out. Knobs that cannot change result bytes (threads,
/// engine/memoization flags, the result-cache flags themselves) and kTrueCount's consumer-side `label` (the data-backed
/// count is label-independent; the estimate is merged per caller) are
/// excluded. Deterministic across processes: no pointers, no
/// container-iteration order. Precondition: QuerySpecCacheable(spec).
QueryResultKey CanonicalQueryKey(const QuerySpec& spec,
                                 const TableFingerprint& fingerprint);

/// Approximate heap footprint of one QueryResult, for the result
/// cache's byte accounting (the shared VC set is excluded — labels of
/// one dataset share it, so the engine side already pays for it).
int64_t ApproxQueryResultBytes(const QueryResult& result);

}  // namespace api
}  // namespace pcbl

#endif  // PCBL_API_QUERY_H_
