#include "core/search.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "pattern/counter.h"
#include "pattern/counting_engine.h"
#include "pattern/lattice.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pcbl {

namespace {

// Candidate masks are sized through the engine in batches of this many;
// the time limit is checked between batches (the seed checked every 1024
// serial sizings — same cadence).
constexpr size_t kSizingChunk = 1024;

CountingEngineOptions EngineOptions(const SearchOptions& options) {
  CountingEngineOptions engine_options;
  engine_options.enabled = options.use_counting_engine;
  engine_options.num_threads = options.num_threads;
  engine_options.cache_budget = options.counting_cache_budget;
  engine_options.min_rows_per_morsel = options.min_rows_per_morsel;
  return engine_options;
}

}  // namespace

// How the algorithm bodies reach the counting layer. Every batch goes
// through the service's wave scheduler (the caller holds a shared
// QueryAdmission) and may merge with concurrent queries' waves. The memo
// keeps every materialized PC-set handle the waves return: the ranking
// phase then builds candidate labels from the search's own snapshot,
// which stays valid (shared_ptr) even if the shared cache evicts the
// entry or concurrent queries mutate it mid-ranking. The engine's *data*
// observables (effective domains, row counts) are stable under the gate;
// its cache is never touched directly.
class LabelSearch::WaveMemo {
 public:
  WaveMemo(CountingService& service, const CountingEngineOptions& config)
      : service_(service), config_(config) {}

  /// Sizes one wave (CountPatterns semantics per mask) and memoizes the
  /// materialized PC sets of within-budget masks.
  std::vector<int64_t> SizeWave(const std::vector<AttrMask>& masks,
                                int64_t budget) {
    std::vector<std::shared_ptr<const GroupCounts>> counts;
    std::vector<int64_t> sizes =
        service_.WaveCountPatterns(masks, budget, config_, &counts);
    Memoize(masks, counts);
    return sizes;
  }

  /// Exact, materialized PC sets for `masks` (the append-aware ranking
  /// phase and the final label); memoized too.
  std::vector<std::shared_ptr<const GroupCounts>> CountsFor(
      const std::vector<AttrMask>& masks) {
    std::vector<std::shared_ptr<const GroupCounts>> counts =
        service_.WavePatternCounts(masks, config_);
    Memoize(masks, counts);
    return counts;
  }

  /// The memoized PC set of `mask`, nullptr when this search never
  /// materialized it. Thread-safe once sizing is done (the memo is
  /// read-only during ranking).
  std::shared_ptr<const GroupCounts> Lookup(AttrMask mask) const {
    auto it = memo_.find(mask.bits());
    return it == memo_.end() ? nullptr : it->second;
  }

  int64_t EffectiveDomainSize(int attr) const {
    return service_.engine().EffectiveDomainSize(attr);
  }
  CountingEngineStats Stats() const { return service_.StatsSnapshot(); }

 private:
  void Memoize(const std::vector<AttrMask>& masks,
               const std::vector<std::shared_ptr<const GroupCounts>>& counts) {
    for (size_t i = 0; i < masks.size(); ++i) {
      if (counts[i] != nullptr) {
        memo_.emplace(masks[i].bits(), counts[i]);
      }
    }
  }

  CountingService& service_;
  CountingEngineOptions config_;
  std::unordered_map<uint64_t, std::shared_ptr<const GroupCounts>> memo_;
};

LabelSearch::LabelSearch(const Table& table)
    : table_(&table),
      vc_(std::make_shared<const ValueCounts>(ValueCounts::Compute(table))),
      patterns_(std::make_shared<const FullPatternIndex>(
          FullPatternIndex::Build(table))),
      service_(std::make_shared<CountingService>(table)),
      described_rows_(table.num_rows()) {}

LabelSearch::LabelSearch(const Table& table,
                         std::shared_ptr<CountingService> service)
    : table_(&table),
      vc_(std::make_shared<const ValueCounts>(ValueCounts::Compute(table))),
      patterns_(std::make_shared<const FullPatternIndex>(
          FullPatternIndex::Build(table))),
      service_(std::move(service)),
      described_rows_(table.num_rows()) {
  PCBL_CHECK(service_ != nullptr);
}

LabelSearch::LabelSearch(const Table& table,
                         std::shared_ptr<const ValueCounts> vc,
                         std::shared_ptr<const FullPatternIndex> patterns,
                         std::shared_ptr<CountingService> service)
    : table_(&table),
      vc_(std::move(vc)),
      patterns_(std::move(patterns)),
      service_(service != nullptr
                   ? std::move(service)
                   : std::make_shared<CountingService>(table)),
      described_rows_(table.num_rows()) {
  PCBL_CHECK(vc_ != nullptr);
  PCBL_CHECK(patterns_ != nullptr);
}

void LabelSearch::SetExtendedState(
    std::shared_ptr<const ValueCounts> vc,
    std::shared_ptr<const FullPatternIndex> patterns,
    int64_t described_rows) {
  PCBL_CHECK(vc != nullptr);
  PCBL_CHECK(patterns != nullptr);
  PCBL_CHECK(described_rows >= table_->num_rows());
  vc_ = std::move(vc);
  patterns_ = std::move(patterns);
  described_rows_ = described_rows;
}

void LabelSearch::CheckDescribedRows() const {
  PCBL_CHECK(service_->engine().total_rows() == described_rows_)
      << "VC / P_A describe " << described_rows_
      << " rows but the counting service holds "
      << service_->engine().total_rows()
      << "; searching after appends requires extended VC / P_A "
         "(SetExtendedState — api::Session maintains them incrementally) "
         "or a LabelSearch rebuilt on the extended table";
  // A user-supplied pattern set carries counts over a specific row
  // count (the base table's unless the caller said otherwise); ranking
  // a search over different data with it would certify the label
  // against the wrong ground truth.
  if (eval_patterns_ != nullptr) {
    const int64_t eval_rows = eval_patterns_rows_ < 0
                                  ? table_->num_rows()
                                  : eval_patterns_rows_;
    PCBL_CHECK(eval_rows == described_rows_)
        << "custom evaluation patterns describe " << eval_rows
        << " rows but this search runs over " << described_rows_
        << "; rebuild the pattern set over the extended data "
           "(api::Session derives it from the engine's PC sets)";
  }
}

ErrorReport LabelSearch::Evaluate(const CardinalityEstimator& estimator,
                                  ErrorMode mode) const {
  if (eval_patterns_ != nullptr) {
    return EvaluateOverPatternSet(*eval_patterns_, estimator, mode);
  }
  return EvaluateOverFullPatterns(*patterns_, estimator, mode);
}

SearchResult LabelSearch::Finish(const std::vector<AttrMask>& cands,
                                 const SearchOptions& options,
                                 SearchStats stats,
                                 double candidate_seconds,
                                 WaveMemo& memo) const {
  Stopwatch eval_watch;
  SearchResult result;

  // The count-descending early cut only bounds the max-abs metric; other
  // metrics require the exact scan.
  ErrorMode mode = options.metric == OptimizationMetric::kMaxAbsolute
                       ? options.candidate_error_mode
                       : ErrorMode::kExact;

  // Append-aware mode: the base table alone can no longer build a
  // candidate label (Label::Build would miss the appended rows), so every
  // candidate's PC set is materialized up front through the delta-aware
  // engine — the sizing waves' memo already holds most of them; the rest
  // are fetched in one batch before the read-only ranking loop — and
  // labels carry the extended row count / effective domains.
  std::vector<std::shared_ptr<const GroupCounts>> extended_pcs;
  std::vector<int64_t> extended_domains;
  if (extended()) {
    extended_pcs.resize(cands.size());
    std::vector<AttrMask> missing;
    std::vector<size_t> missing_at;
    for (size_t i = 0; i < cands.size(); ++i) {
      extended_pcs[i] = memo.Lookup(cands[i]);
      if (extended_pcs[i] == nullptr) {
        missing.push_back(cands[i]);
        missing_at.push_back(i);
      }
    }
    if (!missing.empty()) {
      std::vector<std::shared_ptr<const GroupCounts>> fetched =
          memo.CountsFor(missing);
      for (size_t i = 0; i < missing.size(); ++i) {
        extended_pcs[missing_at[i]] = fetched[i];
      }
    }
    extended_domains.resize(static_cast<size_t>(table_->num_attributes()));
    for (int a = 0; a < table_->num_attributes(); ++a) {
      extended_domains[static_cast<size_t>(a)] =
          memo.EffectiveDomainSize(a);
    }
  }

  // Every within-bound candidate was just counted by the generation
  // phase; with the engine on, its PC set rides the search's memo
  // and the label builds without touching the table again (the memo is
  // read-only here — safe under the ParallelFor even while concurrent
  // queries mutate the shared cache). Unmemoized candidates (a disabled
  // engine materializes nothing) fall back to the direct recount.
  auto build_label = [&](AttrMask s, const GroupCounts* extended_pc) {
    if (extended()) {
      PCBL_CHECK(extended_pc != nullptr);
      return Label::BuildFromCountsExtended(*table_, s, *extended_pc, vc_,
                                            described_rows_,
                                            extended_domains);
    }
    std::shared_ptr<const GroupCounts> pc = memo.Lookup(s);
    if (pc != nullptr) {
      return Label::BuildFromCounts(*table_, s, *pc, vc_);
    }
    return Label::Build(*table_, s, vc_);
  };

  // Each candidate's evaluation is independent, read-only work over the
  // immutable table/VC/P_A, so the ranking loop runs under ParallelFor.
  // The reduction below is serial and order-based, so the outcome is
  // identical for any thread count.
  struct Ranked {
    int64_t size = 0;
    double metric_value = 0.0;
    int64_t patterns_scanned = 0;
  };
  std::vector<Ranked> ranked(cands.size());
  ParallelFor(static_cast<int64_t>(cands.size()), options.num_threads,
              [&](int64_t i) {
                const size_t s = static_cast<size_t>(i);
                Label label = build_label(
                    cands[s],
                    extended_pcs.empty() ? nullptr : extended_pcs[s].get());
                LabelEstimator estimator(std::move(label));
                ErrorReport report = Evaluate(estimator, mode);
                ranked[static_cast<size_t>(i)] =
                    Ranked{estimator.label().size(),
                           MetricValue(report, options.metric),
                           report.evaluated};
              });

  bool have_best = false;
  AttrMask best_attrs;
  double best_error = 0.0;
  int64_t best_size = 0;

  for (size_t i = 0; i < cands.size(); ++i) {
    const AttrMask s = cands[i];
    ++stats.error_evaluations;
    stats.patterns_scanned += ranked[i].patterns_scanned;
    const int64_t size = ranked[i].size;
    const double metric_value = ranked[i].metric_value;
    if (options.record_candidates) {
      result.candidates.push_back(CandidateInfo{s, size, metric_value});
    }
    bool better = false;
    if (!have_best) {
      better = true;
    } else if (metric_value != best_error) {
      better = metric_value < best_error;
    } else if (size != best_size) {
      better = size < best_size;
    } else {
      better = s.bits() < best_attrs.bits();
    }
    if (better) {
      have_best = true;
      best_attrs = s;
      best_error = metric_value;
      best_size = size;
    }
  }

  result.best_attrs = best_attrs;  // empty mask when no candidate fit
  // In append-aware mode the best mask's PC set comes from the memo (it
  // was materialized for the ranking above; the empty no-candidate mask
  // yields the trivial empty set, fetched here).
  std::shared_ptr<const GroupCounts> best_pc;
  if (extended()) {
    best_pc = memo.Lookup(best_attrs);
    if (best_pc == nullptr) best_pc = memo.CountsFor({best_attrs})[0];
  }
  result.label = build_label(best_attrs, best_pc.get());
  stats.error_eval_seconds = eval_watch.ElapsedSeconds();
  stats.candidate_seconds = candidate_seconds;
  stats.total_seconds = candidate_seconds + stats.error_eval_seconds;
  stats.counting = memo.Stats();
  // The final label is always certified with an exact scan.
  LabelEstimator final_estimator(result.label);
  result.error = Evaluate(final_estimator, ErrorMode::kExact);
  result.stats = stats;
  return result;
}

SearchResult LabelSearch::Naive(const SearchOptions& options) const {
  // Shared admission: concurrent searches' waves merge through the
  // service's scheduler, candidates sized by an earlier search over this
  // table are answered from the warm cache, and appends are excluded
  // until we leave.
  CountingService::QueryAdmission admission(*service_);
  return NaiveAdmitted(options);
}

SearchResult LabelSearch::NaiveAdmitted(const SearchOptions& options) const {
  CheckDescribedRows();
  WaveMemo memo(*service_, EngineOptions(options));
  Stopwatch watch;
  SearchStats stats;
  std::vector<AttrMask> cands;
  const int n = table_->num_attributes();

  // Level-wise enumeration, starting with subsets of size 2 (Sec. III):
  // singleton labels carry no information beyond VC. A level with no
  // within-bound label terminates the scan: supersets only grow labels.
  // Each level streams through the engine in sizing batches; the masks of
  // a chunk are counted concurrently, then accounted serially in
  // enumeration order, so the candidate set matches the serial algorithm
  // exactly.
  std::vector<AttrMask> chunk;
  std::vector<int64_t> sizes;
  for (int level = 2; level <= n && !stats.timed_out; ++level) {
    bool any_within_bound = false;
    SubsetOfSizeEnumerator subsets(n, level);
    bool exhausted = false;
    while (!exhausted && !stats.timed_out) {
      chunk.clear();
      while (chunk.size() < kSizingChunk) {
        AttrMask s;
        if (!subsets.Next(&s)) {
          exhausted = true;
          break;
        }
        chunk.push_back(s);
      }
      if (chunk.empty()) break;
      sizes = memo.SizeWave(chunk, options.size_bound);
      for (size_t i = 0; i < chunk.size(); ++i) {
        ++stats.subsets_examined;
        if (sizes[i] <= options.size_bound) {
          any_within_bound = true;
          ++stats.within_bound;
          cands.push_back(chunk[i]);
        }
      }
      if (options.time_limit_seconds > 0 &&
          watch.ElapsedSeconds() > options.time_limit_seconds) {
        stats.timed_out = true;
      }
    }
    stats.levels_completed = level - 1;  // levels beyond the start size
    if (!any_within_bound) break;
  }
  return Finish(cands, options, stats, watch.ElapsedSeconds(), memo);
}

SearchResult LabelSearch::TopDown(const SearchOptions& options) const {
  CountingService::QueryAdmission admission(*service_);
  return TopDownAdmitted(options);
}

SearchResult LabelSearch::TopDownAdmitted(
    const SearchOptions& options) const {
  CheckDescribedRows();
  WaveMemo memo(*service_, EngineOptions(options));
  Stopwatch watch;
  SearchStats stats;
  const int n = table_->num_attributes();

  // Algorithm 1, batched: the frontier holds the within-budget subsets of
  // the current wave (the FIFO queue of the serial formulation processes
  // them in exactly this order); their gen() children are sized in
  // parallel chunks, then accounted serially in generation order. cands
  // collects the within-budget subsets with dominated parents removed
  // (Proposition 3.2: a superset's label is at least as accurate). Every
  // child is generated exactly once (Proposition 3.8), so no dedup is
  // needed before sizing.
  std::vector<AttrMask> frontier;
  for (AttrMask s : Gen(AttrMask(), n)) frontier.push_back(s);

  std::unordered_set<uint64_t> cand_set;
  std::vector<AttrMask> cand_order;  // insertion order, for determinism

  std::vector<AttrMask> chunk;
  std::vector<int64_t> sizes;
  std::vector<AttrMask> next_frontier;
  while (!frontier.empty() && !stats.timed_out) {
    next_frontier.clear();
    size_t f = 0;                   // frontier cursor
    std::vector<AttrMask> gen;      // children of frontier[f], buffered
    size_t g = 0;                   // cursor into gen
    bool exhausted = false;
    while (!exhausted && !stats.timed_out) {
      chunk.clear();
      while (chunk.size() < kSizingChunk) {
        if (g == gen.size()) {
          if (f == frontier.size()) {
            exhausted = true;
            break;
          }
          gen = Gen(frontier[f++], n);
          g = 0;
          continue;
        }
        chunk.push_back(gen[g++]);
      }
      if (chunk.empty()) break;
      sizes = memo.SizeWave(chunk, options.size_bound);
      for (size_t i = 0; i < chunk.size(); ++i) {
        ++stats.subsets_examined;
        if (sizes[i] > options.size_bound) continue;
        const AttrMask c = chunk[i];
        ++stats.within_bound;
        next_frontier.push_back(c);
        // removeParents(cands, c): drop every parent of c from cands.
        for (AttrMask parent : Parents(c)) {
          cand_set.erase(parent.bits());
        }
        cand_set.insert(c.bits());
        cand_order.push_back(c);
      }
      if (options.time_limit_seconds > 0 &&
          watch.ElapsedSeconds() > options.time_limit_seconds) {
        stats.timed_out = true;
      }
    }
    frontier.swap(next_frontier);
  }

  std::vector<AttrMask> cands;
  cands.reserve(cand_set.size());
  for (AttrMask s : cand_order) {
    if (cand_set.contains(s.bits())) {
      cands.push_back(s);
      cand_set.erase(s.bits());  // deduplicate while preserving order
    }
  }
  return Finish(cands, options, stats, watch.ElapsedSeconds(), memo);
}

}  // namespace pcbl
