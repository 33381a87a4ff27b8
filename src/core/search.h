// Optimal-label search (Sec. III).
//
// Given D, a pattern set P (here: P_A via FullPatternIndex) and a size
// bound B_s, find S minimizing Err(L_S(D), P) subject to |P_S| <= B_s
// (Definition 2.15). The decision version is NP-hard (Theorem 2.17), so
// the paper gives:
//
//  * NaiveSearch  — level-wise enumeration of all attribute subsets of
//    size 2, 3, ...; stops after the first level where every subset's
//    label exceeds the bound (Sec. III, first paragraph).
//  * TopDownSearch — Algorithm 1: a top-down lattice traversal driven by
//    gen(S) (Definition 3.5) that only expands within-budget subsets,
//    prunes dominated parents from the candidate set (Proposition 3.2),
//    and evaluates the error only on the surviving candidates.
//
// Both pick the minimal-max-error candidate; ties break toward the smaller
// label, then the lexicographically smaller attribute set, so the two
// algorithms are deterministically comparable.
//
// Both size their candidates the same way: admitted shared through the
// dataset's CountingService gate, in waves submitted to its wave
// scheduler (docs/CONCURRENCY.md). How the sizing work is scheduled —
// solo, or merged with concurrent queries' waves — never changes the
// label.
#ifndef PCBL_CORE_SEARCH_H_
#define PCBL_CORE_SEARCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/error.h"
#include "core/label.h"
#include "core/pattern_set.h"
#include "pattern/counting_engine.h"
#include "pattern/counting_service.h"
#include "pattern/full_pattern_index.h"
#include "relation/stats.h"
#include "relation/table.h"
#include "util/attr_mask.h"
#include "util/status.h"

namespace pcbl {

/// Tuning knobs of the label search.
struct SearchOptions {
  /// B_s: maximal label size |PC|.
  int64_t size_bound = 100;

  /// Error-scan mode used while ranking candidates. The paper uses the
  /// early-termination scan (Sec. IV-C); the final reported label is always
  /// re-evaluated exactly. Ignored (exact is used) when `metric` is not
  /// kMaxAbsolute — the early cut is only sound for the max-abs scan.
  ErrorMode candidate_error_mode = ErrorMode::kEarlyTermination;

  /// The scalar the search minimizes (Definition 2.15 uses the maximal
  /// absolute error; Sec. II-B notes q-error works identically).
  OptimizationMetric metric = OptimizationMetric::kMaxAbsolute;

  /// Record per-candidate sizes/errors in SearchResult::candidates.
  bool record_candidates = false;

  /// Worker threads for the candidate-sizing and candidate-ranking phases
  /// (independent read-only work over the immutable table). 1 = serial.
  /// The result is bit-identical for any thread count; only wall-clock
  /// changes. See bench_ablation_parallel and
  /// bench_micro_counting_engine.
  int num_threads = 1;

  /// Candidate sizing goes through the CountingEngine: lattice levels are
  /// sized in parallel batches, within-bound PC sets are memoized and
  /// reused by the ranking phase (and rolled up where possible) instead
  /// of rescanning the table per subset. Disabling reverts to the serial
  /// one-shot counters; results are byte-identical either way.
  bool use_counting_engine = true;

  /// Memoization budget of the counting engine, in cached group entries
  /// summed over all cached PC sets (0 disables memoization; batched
  /// sizing still applies). See CountingEngineOptions::cache_budget.
  int64_t counting_cache_budget = int64_t{1} << 20;

  /// Minimum rows per morsel when an exact packed scan splits one subset
  /// across threads (<= 0 disables intra-subset parallelism). Results are
  /// byte-identical for any value. See
  /// CountingEngineOptions::min_rows_per_morsel.
  int64_t min_rows_per_morsel = 32768;

  /// Abort candidate generation after this many seconds (0 = unlimited)
  /// and fall through to ranking whatever was collected; SearchStats::
  /// timed_out is set. Mirrors the paper's 30-minute cap on the naive
  /// algorithm (Sec. IV-C).
  double time_limit_seconds = 0.0;
};

/// Counters describing the work one search performed (Figs. 6-9).
struct SearchStats {
  /// Attribute subsets whose label size was computed ("# cands generated"
  /// in Fig. 9 — every subset the algorithm examined).
  int64_t subsets_examined = 0;
  /// Subsets whose label fit within the bound.
  int64_t within_bound = 0;
  /// Labels whose error was evaluated (the final candidate set).
  int64_t error_evaluations = 0;
  /// Total patterns touched across all error evaluations.
  int64_t patterns_scanned = 0;
  /// Levels fully enumerated (naive only).
  int levels_completed = 0;
  /// Wall-clock seconds: total, candidate generation, error ranking.
  double total_seconds = 0.0;
  double candidate_seconds = 0.0;
  double error_eval_seconds = 0.0;
  /// True when candidate generation hit SearchOptions::time_limit_seconds.
  bool timed_out = false;
  /// Counting-engine observability (cache hits, rollups, direct scans):
  /// the *service-global* counters at the time the search finished —
  /// concurrent queries' work included — since the engine is shared
  /// mid-search by design.
  CountingEngineStats counting;
};

/// One surviving candidate (for ablation/debugging output).
struct CandidateInfo {
  AttrMask attrs;
  int64_t label_size = 0;
  /// Value of SearchOptions::metric for this candidate (max absolute
  /// error under the default metric).
  double max_error = 0.0;
};

/// Outcome of a search.
struct SearchResult {
  /// Arg-min attribute set; empty when no subset of size >= 2 fits the
  /// bound (the label then degenerates to the independence estimator).
  AttrMask best_attrs;
  /// The label built on best_attrs.
  Label label;
  /// Exact error report of `label` over P_A.
  ErrorReport error;
  SearchStats stats;
  /// Present when SearchOptions::record_candidates is set.
  std::vector<CandidateInfo> candidates;
};

/// Shared context for running searches over one dataset: the table, its VC
/// set, the evaluation pattern set P_A, and the dataset's CountingService.
/// Construct once, search many times (the figure harness sweeps bounds
/// this way) — the service keeps candidate PC sets warm across searches,
/// so a repeated or refined query sizes its candidates from the cache
/// instead of rescanning the table.
///
/// This is the *low-level engine* behind the public API: pcbl::api's
/// Dataset/Session (api/session.h) wire the registry-shared service,
/// the async executor, central option validation, and the append-aware
/// VC / P_A maintenance for you — prefer them in new code and reach for
/// LabelSearch directly only when you need this exact control surface.
class LabelSearch {
 public:
  /// Builds VC and P_A eagerly (one scan + one sort).
  explicit LabelSearch(const Table& table);

  /// Builds VC / P_A but sizes through `service` — e.g. the shared
  /// service of ServiceRegistry::Global().Acquire(table), so concurrent
  /// searches over content-equal tables share one warm cache. The
  /// service must describe a table content-equal to `table` (equal
  /// fingerprints imply interchangeable code spaces).
  LabelSearch(const Table& table, std::shared_ptr<CountingService> service);

  /// Reuses precomputed VC / P_A (they must describe `table`). When
  /// `service` is supplied it is adopted as-is (the registry-shared
  /// form); otherwise a private service is built over `table`.
  LabelSearch(const Table& table,
              std::shared_ptr<const ValueCounts> vc,
              std::shared_ptr<const FullPatternIndex> patterns,
              std::shared_ptr<CountingService> service = nullptr);

  /// Append-aware mode: replaces VC / P_A with instances maintained over
  /// the service's *extended* dataset (base table + rows appended
  /// through the service hook) and records the row count they describe.
  /// Searches then run against the extended data instead of refusing:
  /// Naive/TopDown check that the engine holds exactly `described_rows`
  /// rows, and the ranking phase materializes every candidate PC set
  /// through the delta-aware engine instead of rescanning the base
  /// table, so the certified label is byte-identical to a from-scratch
  /// search over the rebuilt extended table (asserted by the API
  /// conformance suite). api::Session maintains this state
  /// incrementally — prefer it over calling this directly.
  void SetExtendedState(std::shared_ptr<const ValueCounts> vc,
                        std::shared_ptr<const FullPatternIndex> patterns,
                        int64_t described_rows);

  /// The dataset-scoped counting service the searches size through.
  /// Share it (SetCountingService) to keep one warm cache across several
  /// LabelSearch instances over the same table.
  std::shared_ptr<CountingService> counting_service() const {
    return service_;
  }
  void SetCountingService(std::shared_ptr<CountingService> service) {
    PCBL_CHECK(service != nullptr);
    service_ = std::move(service);
  }

  /// Drops the warm cache (e.g. to benchmark cold searches).
  void InvalidateCountingCache() const { service_->Invalidate(); }

  /// Ranks candidates against an explicit pattern set instead of P_A —
  /// Definition 2.15's "patterns that include only sensitive attributes"
  /// use case. The final ErrorReport is then over `patterns` too.
  /// `described_rows` is the row count the set's counts describe (-1 =
  /// the base table's): a set built for extended data must match
  /// SetExtendedState's described_rows — checked at search entry, so a
  /// base-table set can never silently rank an extended-data search.
  void SetEvaluationPatterns(std::shared_ptr<const PatternSet> patterns,
                             int64_t described_rows = -1) {
    eval_patterns_ = std::move(patterns);
    eval_patterns_rows_ = described_rows;
  }

  /// The naive level-wise algorithm (Sec. III). Self-admitting: holds a
  /// CountingService::QueryAdmission for the whole search, so appends
  /// are excluded while its waves run.
  SearchResult Naive(const SearchOptions& options) const;

  /// Algorithm 1, the optimized top-down heuristic. Self-admitting.
  SearchResult TopDown(const SearchOptions& options) const;

  /// The same searches for a caller that already holds a QueryAdmission
  /// on the service — api::Session's query executor does, so the engine
  /// data it validated its VC / P_A snapshot against cannot shift before
  /// the search runs. Sizing waves go to the scheduler (merging with
  /// concurrent queries' waves), the ranking phase runs on the search's
  /// own memo of the returned PC-set handles, and nothing holds the
  /// service mutex across waves.
  SearchResult NaiveAdmitted(const SearchOptions& options) const;
  SearchResult TopDownAdmitted(const SearchOptions& options) const;

  const Table& table() const { return *table_; }
  const ValueCounts& value_counts() const { return *vc_; }
  const FullPatternIndex& full_patterns() const { return *patterns_; }

 private:
  // How a search talks to the counting layer: waves through the
  // service's scheduler, plus a memo of the PC-set handles they return,
  // so the ranking phase builds labels from the search's own snapshot
  // instead of probing a cache that concurrent queries may be mutating.
  class WaveMemo;

  // Ranks `cands` by (exactness-ordered) max error and assembles the
  // SearchResult; shared tail of both algorithms. `memo` supplies the
  // memoized PC sets so candidate labels skip the recount; in
  // append-aware mode (described_rows_ beyond the base table) it
  // additionally materializes every candidate against the extended data.
  SearchResult Finish(const std::vector<AttrMask>& cands,
                      const SearchOptions& options, SearchStats stats,
                      double candidate_seconds, WaveMemo& memo) const;

  // Entry check of both searches: the engine must hold exactly the rows
  // vc_/patterns_ describe.
  void CheckDescribedRows() const;

  // True when vc_/patterns_ describe data beyond the base table.
  bool extended() const { return described_rows_ != table_->num_rows(); }

  // Evaluates one estimator against the active pattern set (P_A or the
  // user-supplied one).
  ErrorReport Evaluate(const CardinalityEstimator& estimator,
                       ErrorMode mode) const;

  const Table* table_;
  std::shared_ptr<const ValueCounts> vc_;
  std::shared_ptr<const FullPatternIndex> patterns_;
  std::shared_ptr<const PatternSet> eval_patterns_;  // optional
  // Rows eval_patterns_'s counts describe; -1 = the base table's.
  int64_t eval_patterns_rows_ = -1;
  std::shared_ptr<CountingService> service_;
  // Rows vc_/patterns_ describe: the base table's until SetExtendedState.
  int64_t described_rows_ = 0;
};

}  // namespace pcbl

#endif  // PCBL_CORE_SEARCH_H_
