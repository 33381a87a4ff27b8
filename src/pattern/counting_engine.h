// CountingEngine: the memoized, parallel candidate-sizing subsystem of the
// label search.
//
// The search algorithms (Sec. III / Algorithm 1) are dominated by sizing
// candidate attribute subsets: every examined subset S needs |P_S|, and
// every surviving candidate additionally needs its full PC set to build
// the label. Calling the one-shot counters in counter.h performs a serial
// full-table row scan per subset. This engine removes that bottleneck
// along five axes, while keeping results *byte-identical* to the one-shot
// counters for any thread count and cache budget:
//
//  1. Batching — a lattice level's candidate masks are sized together via
//     CountPatternsBatch, spreading the independent scans over a
//     ParallelFor.
//  2. Kernels — the engine counts on packed codes (packed_codec.h) only:
//     subsets are sized by the tiled bit-packed kernels of
//     packed_kernels.h (shift/OR encoding, arity-2/3 specializations,
//     dense-bitmap distinctness), and rollups re-encode ancestor groups
//     with the child's packed layout.
//  3. Memoization — sizing a subset within budget materializes its full
//     PC set as a by-product (same pass, same cost regime), and the
//     result is cached per AttrMask in a size-bounded cache with
//     deterministic FIFO eviction. Label::BuildFromCounts then reuses the
//     cached counts, so the ranking phase of the search never rescans the
//     table for a candidate the generation phase already counted.
//  4. Rollup — when a cached entry for a *superset* T ⊇ S exists, the
//     PC set of S is derived by aggregating T's groups (projecting each
//     group key onto S and re-grouping) instead of rescanning the table.
//     The best (fewest-groups) cached ancestor is found through a
//     SubsetTrie in near-constant time. Group counts are far smaller than
//     row counts on the paper's skewed datasets, and exactness is
//     preserved: a tuple's restriction to S is the projection of its
//     restriction to T, and any restriction dropped from T's PC set
//     (arity < 2 over T) projects to arity < 2 over S.
//  5. Sibling refinement — Algorithm 1 only expands within-bound parents,
//     so a budgeted gen() child S ∪ {a} (a > max(S)) usually finds the
//     PC set of S cached. When S is NULL-free, every row falls in exactly
//     one of its groups, and the child's groups are (parent group, value
//     of a) pairs: a batch's children of one parent are sized together
//     in one tile scan that encodes the parent once per tile and feeds
//     every sibling (counting::RefineSiblings). Ascending (group, slot)
//     is already the child's canonical order. Exact (unbudgeted) calls,
//     pairs, NULL-bearing and uncached parents keep the direct scan.
//
// Fallbacks keep the engine total: a mask too wide to pack (more than 63
// bits over the effective domains) is sized by the one-shot counters of
// counter.h, or, once rows were appended, by the sort fallback over the
// engine's own base and delta rows (counting::SortRestrictionCounts).
//
// The engine outlives a single search: CountingService (counting_service.h)
// keeps one engine per dataset so that repeated queries hit warm PC sets,
// and ApplyAppend lets a growing dataset patch the cached entries in
// place instead of discarding them (appended rows are tracked as a
// row-major delta block included by every scan, so answers stay exact
// against the extended data). Once the delta block outgrows
// options().delta_compact_threshold, CompactDeltas folds it into an
// engine-owned columnar base (byte-exact vs. a from-scratch rebuild of
// the extended table), so steady appends never degenerate into a
// row-major scan tax.
//
// Thread-safety: the const probes (CachedPatternCounts, stats, table) are
// safe to call concurrently with each other; the mutating calls
// (CountPatterns*, PatternCounts, ApplyAppend, Reconfigure)
// must be externally serialized (CountingService provides the lock).
// CountPatternsBatch parallelizes internally and commits cache updates in
// deterministic input order, so cache contents never depend on thread
// scheduling.
#ifndef PCBL_PATTERN_COUNTING_ENGINE_H_
#define PCBL_PATTERN_COUNTING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pattern/counter.h"
#include "pattern/subset_trie.h"
#include "relation/table.h"
#include "util/attr_mask.h"

namespace pcbl {

namespace counting {
struct PackedLayout;
struct SubsetColumns;
}  // namespace counting

/// Tuning knobs of the counting engine.
struct CountingEngineOptions {
  /// Master switch: when false every call delegates to the one-shot
  /// counters in counter.h (no batching, no cache) — the byte-identical
  /// reference behaviour. A disabled engine still accepts appends: once
  /// rows were appended (the one-shot counters cannot see them) the
  /// delegate becomes the engine's own uncached delta-aware scan, which
  /// stays byte-identical to the one-shot counters over a rebuilt table.
  bool enabled = true;

  /// Worker threads for CountPatternsBatch (1 = serial). Results are
  /// identical for any value; only wall-clock changes.
  int num_threads = 1;

  /// Minimum rows per morsel for morsel-parallel exact scans
  /// (packed_kernels.h): a single subset's row range splits across
  /// threads only when every piece keeps at least this many rows, so
  /// small subsets never pay thread-spawn overhead. <= 0 disables
  /// intra-subset parallelism. Like num_threads, results are identical
  /// for any value — the per-morsel partials merge with order-insensitive
  /// operations and every materialization sorts.
  int64_t min_rows_per_morsel = 32768;

  /// Memoization budget in cached *group entries* summed over all cached
  /// PC sets (each entry also costs one slot of overhead). 0 disables
  /// caching entirely; sizing and counting still work, just without
  /// reuse. Eviction is FIFO by insertion order — deterministic.
  int64_t cache_budget = int64_t{1} << 20;

  /// Appended-row count beyond which ApplyAppend folds the delta block
  /// into the engine's columnar base storage (CompactDeltas). <= 0
  /// disables the automatic trigger; CompactDeltas can still be called
  /// explicitly. Results are byte-identical either way — compaction is a
  /// physical reorganization, not a semantic one.
  int64_t delta_compact_threshold = 4096;
};

/// Observability counters (bench/debug output; not part of the exactness
/// contract).
struct CountingEngineStats {
  int64_t sizings = 0;       ///< CountPatterns answers (incl. batched).
  int64_t cache_hits = 0;    ///< answered from an exact cached entry
  int64_t rollups = 0;       ///< derived by aggregating a cached superset
  int64_t direct_scans = 0;  ///< table scans attempted (incl. aborted)
  int64_t full_scans = 0;    ///< direct scans that ran to completion and
                             ///< materialized a PC set (the expensive
                             ///< regime a warm cache eliminates)
  int64_t evictions = 0;     ///< cache entries evicted
  int64_t cached_groups = 0; ///< current cache load (group entries)
  int64_t cached_bytes = 0;  ///< resident cache bytes (pinned included)
  int64_t patched_entries = 0;  ///< cached PC sets patched by appends
  int64_t invalidations = 0;    ///< whole-cache invalidations
  int64_t compactions = 0;      ///< delta blocks folded into the base
};

/// Owns all candidate sizing for one table (plus any rows appended through
/// ApplyAppend). The cache keys assume the base table never changes
/// underneath.
class CountingEngine {
 public:
  explicit CountingEngine(const Table& table,
                          CountingEngineOptions options = {});

  /// |P_S| of `mask` with the early-exit budget contract of
  /// CountDistinctPatterns: exact when <= budget, otherwise any value >
  /// budget (budget < 0 = exact). Within-budget results are cached with
  /// their full PC set.
  int64_t CountPatterns(AttrMask mask, int64_t budget = -1);

  /// Sizes `masks` concurrently over options.num_threads; element i is
  /// CountPatterns(masks[i], budget). Cache commits happen serially in
  /// input order after the parallel section.
  std::vector<int64_t> CountPatternsBatch(const std::vector<AttrMask>& masks,
                                          int64_t budget);

  /// CountPatternsBatch that additionally hands back each mask's
  /// materialized PC set: counts_out->at(i) is non-null exactly when the
  /// sizing materialized one (always when sizes[i] <= budget and the
  /// engine is enabled; never while disabled — nothing materializes
  /// there). This is the merged-batch entry point of the service's wave
  /// scheduler: each waiting query keeps the handles as its own memo
  /// view, so its ranking phase never has to re-probe a cache that other
  /// queries keep mutating. Sizes, cache contents and stats are
  /// byte-identical to CountPatternsBatch.
  std::vector<int64_t> CountPatternsBatchCollect(
      const std::vector<AttrMask>& masks, int64_t budget,
      std::vector<std::shared_ptr<const GroupCounts>>* counts_out);

  /// The full PC set of `mask`, identical to ComputePatternCounts.
  /// Served from the cache when possible; inserted into it otherwise.
  std::shared_ptr<const GroupCounts> PatternCounts(AttrMask mask);

  /// PatternCounts over a batch: element i is the PC set of masks[i],
  /// planned serially against the cache, executed in parallel over
  /// options.num_threads, and committed serially in input order (cache
  /// contents and stats are identical for any thread count, like
  /// CountPatternsBatch). The append-aware ranking phase of LabelSearch
  /// materializes every candidate through this — with appended rows the
  /// one-shot counters are out of play, so each returned set reflects
  /// base + delta exactly.
  std::vector<std::shared_ptr<const GroupCounts>> PatternCountsBatch(
      const std::vector<AttrMask>& masks);

  /// PatternCounts, but the entry is *pinned*: exempt from eviction and
  /// from the cache budget. Use to prime a rollup ancestor (e.g. the
  /// full attribute set) ahead of a subset sweep that would otherwise
  /// cycle it out of a FIFO cache.
  std::shared_ptr<const GroupCounts> PinnedPatternCounts(AttrMask mask);

  /// Read-only cache probe: the PC set of exactly `mask` if currently
  /// cached, nullptr otherwise. Safe to call concurrently (e.g. from the
  /// ranking ParallelFor) as long as no mutating call runs.
  std::shared_ptr<const GroupCounts> CachedPatternCounts(
      AttrMask mask) const;

  /// Applies new options in place without discarding warm cache entries.
  /// Shrinking the budget evicts FIFO down to the new limit (a budget of
  /// 0 clears every unpinned entry); pinned entries are untouched.
  /// Disabling the engine leaves cached entries in place for a later
  /// re-enable (they stay exact: appends keep patching them), but no
  /// call serves from or inserts into the cache while disabled.
  void Reconfigure(const CountingEngineOptions& options);

  /// Drops every cached entry (pinned included) — the invalidate arm of
  /// the append hook. Appended rows are data, not cache, and survive.
  void InvalidateCache();

  /// Extends the counted dataset by `rows` (row-major, one ValueId per
  /// attribute in schema order; kNullValue for missing; codes beyond the
  /// base table's domain denote freshly interned values — ids must extend
  /// the base code space the way TableBuilder would). Every cached PC set
  /// is *patched* with the new rows' restrictions, so warm entries stay
  /// exact against the extended data; subsequent scans include the rows.
  /// Fully general: works with a disabled engine (scans then route
  /// through the engine's uncached delta-aware paths) and with subsets
  /// too wide to pack over the extended domains (sort fallback).
  /// Once the delta block exceeds options().delta_compact_threshold the
  /// call finishes by folding it into the columnar base (CompactDeltas).
  void ApplyAppend(const std::vector<std::vector<ValueId>>& rows);

  /// Folds the row-major delta block into engine-owned columnar base
  /// storage: subsequent scans stream columns exactly as over a table
  /// rebuilt with the appended rows, and the per-scan delta tax is gone.
  /// Byte-exact: effective domains, codecs, and cached entries are
  /// unchanged — only the physical layout moves. No-op without deltas.
  void CompactDeltas();

  /// Base rows (table or compacted storage) plus uncompacted delta rows.
  int64_t total_rows() const { return base_rows() + num_delta_rows(); }

  /// Rows appended through ApplyAppend since construction, compacted or
  /// not. Non-zero means the engine describes more data than table().
  int64_t num_appended_rows() const {
    return total_rows() - table_->num_rows();
  }

  /// Appended rows still sitting in the row-major delta block.
  int64_t num_delta_rows() const {
    const int n = table_->num_attributes();
    return n == 0 ? 0
                  : static_cast<int64_t>(delta_rows_.size()) / n;
  }

  /// Effective domain size of `attr`: the base table's, grown by fresh
  /// codes interned through appended rows — the domains every codec (and
  /// a rebuilt extended table) would use. Equals Table::DomainSize until
  /// the first append.
  int64_t EffectiveDomainSize(int attr) const { return DomSizeOf(attr); }

  /// Copies appended row `i` (0-based over the num_appended_rows() rows,
  /// in append order) into `out[0 .. num_attributes)`. Valid before and
  /// after compaction — this is how a consumer that missed the append
  /// notifications (e.g. a sibling api::Session over the same shared
  /// service) catches its VC / P_A maintenance up to the engine's data.
  void CopyAppendedRow(int64_t i, ValueId* out) const;

  /// Batched CopyAppendedRow: copies appended rows [first, first+count)
  /// row-major into `out[0 .. count * num_attributes)`. The delta-block
  /// suffix is one contiguous copy, so a sibling session syncing a large
  /// backlog avoids the per-row call and per-row allocation entirely.
  void CopyAppendedRows(int64_t first, int64_t count, ValueId* out) const;

  /// One cache entry as seen by the warm-start spill store
  /// (src/persist/): the mask, whether it is pinned, and a handle on the
  /// immutable PC set.
  struct CacheSnapshotEntry {
    uint64_t mask_bits = 0;
    bool pinned = false;
    std::shared_ptr<const GroupCounts> counts;
  };

  /// Exports every cached PC set: unpinned entries first in FIFO
  /// insertion order (so replaying them through ImportCacheSnapshot
  /// reproduces the eviction order), then pinned entries in ascending
  /// mask order (deterministic — pinned_ is an unordered set). Requires
  /// the same external serialization as the mutating calls.
  std::vector<CacheSnapshotEntry> ExportCacheSnapshot() const;

  /// Replays a snapshot through the normal insert path, in order: the
  /// budget, FIFO order, the rollup trie, and the resident-bytes
  /// accountant all see the entries exactly as if scans had
  /// materialized them — under a smaller budget the oldest entries
  /// simply evict again. Entries must describe this engine's current
  /// data (base table plus any appends already applied); already-cached
  /// masks are skipped.
  void ImportCacheSnapshot(const std::vector<CacheSnapshotEntry>& entries);

  /// Resident cache bytes (keys + counts + per-entry overhead, pinned
  /// included). Safe to read without external serialization — this is
  /// one of the two engine observables the process-wide registry polls
  /// while other threads hold the service lock (its memory accountant).
  int64_t ResidentBytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  /// num_appended_rows(), readable without external serialization (the
  /// registry's divergence check on the acquire path).
  int64_t AppendedRowsRelaxed() const {
    return appended_rows_relaxed_.load(std::memory_order_relaxed);
  }

  /// Bytes of appended data resident in the engine — the row-major
  /// delta block plus, once compacted, the engine-owned columnar copy
  /// of the base table. Lock-free like ResidentBytes; the registry's
  /// accountant charges these alongside the cache bytes.
  int64_t AppendedBytesRelaxed() const {
    return appended_bytes_relaxed_.load(std::memory_order_relaxed);
  }

  const CountingEngineStats& stats() const { return stats_; }
  const CountingEngineOptions& options() const { return options_; }
  const Table& table() const { return *table_; }

 private:
  // How a sizing was answered (for stats attribution). kTrivial covers
  // |mask| < 2: the PC set is empty by definition, no table work happens.
  enum class Path { kHit, kRollup, kDirect, kTrivial };

  // Outcome of one sizing attempt: `counts` is engaged when the full PC
  // set was materialized (always when `size` is within the budget);
  // otherwise `size` is some value > budget.
  struct Sizing {
    std::shared_ptr<const GroupCounts> counts;
    int64_t size = 0;
    Path path = Path::kDirect;
    bool full_scan = false;  // a direct scan ran to completion
  };

  // How a mask will be sized, decided serially against the cache. The
  // handles keep their entries alive even if the cache evicts them
  // before the plan executes.
  struct Plan {
    std::shared_ptr<const GroupCounts> hit;       // exact cache entry
    std::shared_ptr<const GroupCounts> ancestor;  // strict-superset entry
    // PC set of mask \ {max}: set only for budgeted masks of width >= 3
    // with no hit and no ancestor, when the parent is cached, within the
    // budget, NULL-free and packable (the sibling-refinement input).
    std::shared_ptr<const GroupCounts> parent;
  };

  // `budget` < 0 (exact) never plans a refinement parent.
  Plan MakePlan(AttrMask mask, int64_t budget) const;

  // Packed layout of `mask` over the effective domains (DomSizeOf).
  counting::PackedLayout LayoutOf(AttrMask mask) const;

  // Column view of `attrs` over the effective base plus any uncompacted
  // delta rows — what every scan streams.
  counting::SubsetColumns ScanView(const std::vector<int>& attrs) const;

  // Executes a plan (thread-safe: touches only the table and the plan's
  // shared entries). `morsel_threads` is the thread budget a direct
  // scan's exact packed passes may spend on intra-subset morsels: solo
  // entry points pass options_.num_threads, batch entry points pass the
  // per-mask share left over after spreading masks across the batch
  // ParallelFor.
  Sizing ExecutePlan(AttrMask mask, const Plan& plan, int64_t budget,
                     int morsel_threads = 1) const;

  // Full-scan sizing with budget abort; materializes counts on success.
  // Packed subsets run the packed kernels; the rest go to the one-shot
  // counters, or to the sort fallback once rows were appended.
  // `materialize = false` skips the PC-set materialization (and, on the
  // packed path, its second scan) for callers that only need the size —
  // the disabled-engine delegate, which cannot cache the counts anyway.
  Sizing DirectSizing(AttrMask mask, int64_t budget,
                      bool materialize = true,
                      int morsel_threads = 1) const;

  // Sizes the gen() children `masks` (each parent.mask() plus one larger
  // attribute) from the parent's groups in one shared scan
  // (counting::RefineSiblings); element i answers masks[i]. Requires a
  // plan-eligible parent and budget >= 0.
  std::vector<Sizing> SiblingSizings(const GroupCounts& parent,
                                     const std::vector<AttrMask>& masks,
                                     int64_t budget) const;

  // Aggregates `ancestor` groups down to `mask` over packed codes in
  // `layout` (LayoutOf(mask), which must be ok); exact. Aborts past
  // `budget` like DirectSizing.
  Sizing RollupSizing(const GroupCounts& ancestor, AttrMask mask,
                      const counting::PackedLayout& layout,
                      int64_t budget) const;

  // Updates stats for one answered sizing and caches its counts.
  void Commit(AttrMask mask, const Sizing& sizing);

  // Inserts a materialized PC set into the cache (FIFO eviction; pinned
  // entries bypass eviction and the budget).
  void CacheInsert(AttrMask mask, std::shared_ptr<const GroupCounts> counts,
                   bool pinned = false);

  // Evicts the FIFO-oldest unpinned entry (insertion_order_ non-empty).
  void EvictFront();

  // Evicts FIFO until the unpinned load fits options_.cache_budget.
  void EvictToBudget();

  // Effective domain size of `attr`: the base table's, grown by appended
  // rows' fresh codes. Every packed layout runs over these so delta codes
  // encode/decode exactly as a rebuilt table would.
  int64_t DomSizeOf(int attr) const {
    return eff_dom_.empty()
               ? static_cast<int64_t>(table_->DomainSize(attr))
               : eff_dom_[static_cast<size_t>(attr)];
  }

  // Returns a new GroupCounts equal to `entry` with the delta rows in
  // [first_row, end) applied, or nullptr when no row contributes.
  std::shared_ptr<const GroupCounts> PatchedEntry(
      const GroupCounts& entry,
      const std::vector<std::vector<ValueId>>& rows) const;

  // True once ApplyAppend extended the dataset beyond table() — the
  // one-shot counters (which only see the table) are then out of play.
  bool has_appended_state() const {
    return base_rows_ >= 0 || !delta_rows_.empty();
  }

  // Columnar base the scans stream: the table until the first
  // compaction, the engine-owned compacted columns afterwards.
  int64_t base_rows() const {
    return base_rows_ >= 0 ? base_rows_ : table_->num_rows();
  }
  const ValueId* BaseColumn(int attr) const {
    return base_rows_ >= 0 ? base_cols_[static_cast<size_t>(attr)].data()
                           : table_->column(attr).data();
  }
  bool BaseHasNulls(int attr) const {
    return base_rows_ >= 0 ? base_has_nulls_[static_cast<size_t>(attr)]
                           : table_->HasNulls(attr);
  }
  // Whether any row, base or appended, holds NULL in `attr`.
  bool AttrHasNulls(int attr) const {
    return BaseHasNulls(attr) ||
           (!appended_nulls_.empty() &&
            appended_nulls_[static_cast<size_t>(attr)]);
  }

  // Resident-bytes cost of one cached entry; tracked in stats_ and the
  // lock-free resident_bytes_ mirror on every insert/evict/patch.
  static int64_t EntryBytes(const GroupCounts& counts);
  void AddResidentBytes(int64_t delta) {
    stats_.cached_bytes += delta;
    resident_bytes_.fetch_add(delta, std::memory_order_relaxed);
  }

  const Table* table_;
  CountingEngineOptions options_;
  CountingEngineStats stats_;

  // mask bits -> cached PC set; insertion_order_ drives FIFO eviction
  // (pinned entries are absent from it and from the budget). ancestors_
  // indexes every cached mask for the rollup planner's best-superset
  // query.
  std::unordered_map<uint64_t, std::shared_ptr<const GroupCounts>> cache_;
  std::deque<uint64_t> insertion_order_;
  std::unordered_set<uint64_t> pinned_;
  SubsetTrie ancestors_;

  // Rows appended after construction (row-major, num_attributes stride)
  // and the effective per-attribute domains and NULL presence they imply
  // (empty until the first append).
  std::vector<ValueId> delta_rows_;
  std::vector<int64_t> eff_dom_;
  std::vector<bool> appended_nulls_;

  // Compacted base storage: columnar copy of the table plus every delta
  // folded so far. base_rows_ < 0 until the first compaction (scans then
  // stream the table's own columns).
  std::vector<std::vector<ValueId>> base_cols_;
  std::vector<bool> base_has_nulls_;
  int64_t base_rows_ = -1;

  // Lock-free mirrors of stats_.cached_bytes, num_appended_rows(), and
  // the appended-data footprint for the registry's accountant and
  // divergence check.
  std::atomic<int64_t> resident_bytes_{0};
  std::atomic<int64_t> appended_rows_relaxed_{0};
  std::atomic<int64_t> appended_bytes_relaxed_{0};
};

}  // namespace pcbl

#endif  // PCBL_PATTERN_COUNTING_ENGINE_H_
