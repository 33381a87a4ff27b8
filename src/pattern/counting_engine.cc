#include "pattern/counting_engine.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "pattern/packed_codec.h"
#include "pattern/packed_kernels.h"
#include "pattern/restriction_codec.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pcbl {

using counting::CodeCountMap;
using counting::MakePackedLayout;
using counting::MaterializeFromPackedCodes;
using counting::PackedCountDistinct;
using counting::PackedCountGroups;
using counting::PackedLayout;
using counting::SizingReserve;
using counting::SubsetColumns;

namespace {

// Canonical group order on raw keys: kNullValue is the numerically
// largest ValueId, so plain lexicographic comparison sorts NULL last per
// attribute — exactly the emission order of the codecs.
inline bool KeyLess(const ValueId* a, const ValueId* b, int width) {
  return std::lexicographical_compare(a, a + width, b, b + width);
}

// Fixed per-entry overhead charged by the memory accountant on top of
// the key/count payload: map node, FIFO slot, trie node, shared_ptr
// control block.
constexpr int64_t kCacheEntryOverheadBytes = 64;

}  // namespace

int64_t CountingEngine::EntryBytes(const GroupCounts& counts) {
  return counts.num_groups() *
             (counts.key_width() * static_cast<int64_t>(sizeof(ValueId)) +
              static_cast<int64_t>(sizeof(int64_t))) +
         kCacheEntryOverheadBytes;
}

CountingEngine::CountingEngine(const Table& table,
                               CountingEngineOptions options)
    : table_(&table), options_(options) {}

CountingEngine::Plan CountingEngine::MakePlan(AttrMask mask,
                                              int64_t budget) const {
  Plan plan;
  auto it = cache_.find(mask.bits());
  if (it != cache_.end()) {
    plan.hit = it->second;
    return plan;
  }
  // Best strict superset: fewest groups, found through the subset trie in
  // near-constant time. Aggregating the ancestor's groups must beat a row
  // scan, so anything with >= total_rows groups is not worth using. Ties
  // are broken deterministically by the trie's DFS order — and every
  // ancestor yields the same exact counts, so results do not depend on
  // the choice.
  auto best = ancestors_.BestStrictSuperset(mask, total_rows());
  if (best.has_value()) {
    auto anc = cache_.find(best->mask.bits());
    PCBL_DCHECK(anc != cache_.end());
    plan.ancestor = anc->second;
    return plan;
  }
  // Sibling refinement: a budgeted gen() child S ∪ {a}, a = max, is sized
  // from the cached PC set of S when S is within the budget (as every
  // parent Algorithm 1 expands is), every row maps to exactly one of its
  // groups (NULL-free attributes) and S packs into one code.
  if (budget < 0 || mask.Count() < 3) return plan;
  const AttrMask parent = mask.Without(mask.MaxIndex());
  auto par = cache_.find(parent.bits());
  if (par == cache_.end() || par->second->num_groups() > budget) return plan;
  for (uint64_t b = parent.bits(); b != 0; b &= b - 1) {
    if (AttrHasNulls(std::countr_zero(b))) return plan;
  }
  if (LayoutOf(parent).ok) plan.parent = par->second;
  return plan;
}

PackedLayout CountingEngine::LayoutOf(AttrMask mask) const {
  int64_t doms[kMaxAttributes];
  int width = 0;
  for (uint64_t b = mask.bits(); b != 0; b &= b - 1) {
    doms[width++] = DomSizeOf(std::countr_zero(b));
  }
  return MakePackedLayout(doms, width);
}

SubsetColumns CountingEngine::ScanView(const std::vector<int>& attrs) const {
  // The effective base columns (the table, or the compacted storage once
  // deltas were folded) plus any uncompacted delta rows.
  SubsetColumns view;
  view.width = static_cast<int>(attrs.size());
  view.rows = base_rows();
  for (size_t j = 0; j < attrs.size(); ++j) {
    view.cols[j] = BaseColumn(attrs[j]);
    view.nullable[j] = BaseHasNulls(attrs[j]);
  }
  if (!delta_rows_.empty()) {
    view.delta = delta_rows_.data();
    view.delta_rows = num_delta_rows();
    view.delta_stride = table_->num_attributes();
    for (size_t j = 0; j < attrs.size(); ++j) {
      view.delta_attr[j] = attrs[j];
    }
  }
  return view;
}

CountingEngine::Sizing CountingEngine::DirectSizing(
    AttrMask mask, int64_t budget, bool materialize,
    int morsel_threads) const {
  Sizing out;
  out.path = Path::kDirect;
  // Exact packed passes may split this one subset across threads
  // (packed_kernels.h); budgeted passes ignore the config, so the
  // early-exit contract is untouched.
  const counting::MorselConfig morsel{morsel_threads,
                                      options_.min_rows_per_morsel};
  std::vector<int> attrs = mask.ToIndices();
  const size_t width = attrs.size();
  if (width < 2) {
    // Arity-1 information lives in VC; the PC set is empty (but carries
    // the attribute layout, matching ComputePatternCounts). No table
    // work happens.
    out.path = Path::kTrivial;
    out.counts = std::make_shared<const GroupCounts>(
        ComputePatternCounts(*table_, mask));
    return out;
  }
  const SubsetColumns view = ScanView(attrs);
  const PackedLayout layout = LayoutOf(mask);
  if (layout.ok) {
    if (counting::PackedDenseCountEligible(layout, total_rows())) {
      // Small key space: one direct-addressing pass counts and
      // materializes together, and its ascending-code sweep is already
      // the canonical emission order.
      std::vector<std::pair<int64_t, int64_t>> items;
      out.size = counting::PackedCountGroupsDense(view, layout, budget,
                                                  &items, morsel);
      if (budget >= 0 && out.size > budget) return out;
      if (!materialize) return out;
      out.counts = std::make_shared<const GroupCounts>(
          MaterializeFromPackedCodes(mask, std::move(attrs), layout,
                                     std::move(items)));
      out.full_scan = true;
      return out;
    }
    // Sizing pass over packed codes (dense bitmap or open addressing);
    // over-budget subsets — the common case — stop here. Within-budget
    // ones materialize in a second pass whose map is reserved at the now
    // exact group count, so it never rehashes.
    out.size = PackedCountDistinct(view, layout, budget, morsel);
    if ((budget >= 0 && out.size > budget) || !materialize) return out;
    out.counts =
        std::make_shared<const GroupCounts>(MaterializeFromPackedCodes(
            mask, std::move(attrs), layout,
            PackedCountGroups(view, layout, /*groups_hint=*/out.size,
                              morsel)));
    out.full_scan = true;
    return out;
  }

  // A subset that does not pack. Without appended state the one-shot
  // counters (mixed-radix, then sort) see every row; with it, the sort
  // fallback runs over the engine's own base and delta rows.
  GroupCounts counts;
  out.size = has_appended_state()
                 ? counting::SortRestrictionCounts(
                       view, mask, budget, materialize ? &counts : nullptr)
                 : CountDistinctPatterns(*table_, mask, budget);
  if ((budget >= 0 && out.size > budget) || !materialize) return out;
  if (!has_appended_state()) counts = ComputePatternCounts(*table_, mask);
  out.counts = std::make_shared<const GroupCounts>(std::move(counts));
  out.full_scan = true;
  return out;
}

CountingEngine::Sizing CountingEngine::RollupSizing(
    const GroupCounts& ancestor, AttrMask mask, const PackedLayout& layout,
    int64_t budget) const {
  Sizing out;
  out.path = Path::kRollup;
  std::vector<int> attrs = mask.ToIndices();
  const size_t width = attrs.size();
  // Position of each mask attribute inside the ancestor's (ascending)
  // attribute list.
  const std::vector<int>& anc_attrs = ancestor.attrs();
  int pos[kMaxAttributes];
  size_t a = 0;
  for (size_t j = 0; j < width; ++j) {
    while (a < anc_attrs.size() && anc_attrs[a] < attrs[j]) ++a;
    PCBL_DCHECK(a < anc_attrs.size() && anc_attrs[a] == attrs[j]);
    pos[j] = static_cast<int>(a);
  }
  // Aggregate ancestor groups instead of table rows, keyed by the child's
  // packed code. Exact because every tuple's restriction to `mask` is the
  // projection of its restriction to the ancestor set, and tuples absent
  // from the ancestor's PC set (arity < 2 there) project to arity < 2
  // here as well.
  CodeCountMap counts(SizingReserve(budget, ancestor.num_groups()));
  const int64_t groups = ancestor.num_groups();
  for (int64_t g = 0; g < groups; ++g) {
    const ValueId* key = ancestor.key(g);
    uint64_t code = 0;
    int arity = 0;
    for (size_t j = 0; j < width; ++j) {
      const ValueId v = key[pos[j]];
      uint64_t slot = layout.null_slot[j];
      if (!IsNull(v)) {
        slot = static_cast<uint64_t>(v);
        ++arity;
      }
      code |= slot << layout.shift[j];
    }
    if (arity < 2) continue;
    counts.Add(static_cast<int64_t>(code), ancestor.count(g));
    if (budget >= 0 && counts.size() > budget) {
      out.size = counts.size();
      return out;
    }
  }
  out.size = counts.size();
  out.counts = std::make_shared<const GroupCounts>(MaterializeFromPackedCodes(
      mask, std::move(attrs), layout, counts.Items()));
  return out;
}

CountingEngine::Sizing CountingEngine::ExecutePlan(AttrMask mask,
                                                   const Plan& plan,
                                                   int64_t budget,
                                                   int morsel_threads) const {
  if (plan.hit != nullptr) {
    Sizing out;
    out.path = Path::kHit;
    out.counts = plan.hit;
    out.size = plan.hit->num_groups();
    return out;
  }
  if (plan.parent != nullptr) {
    return std::move(SiblingSizings(*plan.parent, {mask}, budget)[0]);
  }
  if (plan.ancestor != nullptr && mask.Count() >= 2) {
    // A child that does not pack is sized directly.
    const PackedLayout layout = LayoutOf(mask);
    if (layout.ok) return RollupSizing(*plan.ancestor, mask, layout, budget);
  }
  return DirectSizing(mask, budget, /*materialize=*/true, morsel_threads);
}

std::vector<CountingEngine::Sizing> CountingEngine::SiblingSizings(
    const GroupCounts& parent, const std::vector<AttrMask>& masks,
    int64_t budget) const {
  const std::vector<int>& attrs = parent.attrs();
  const PackedLayout layout = LayoutOf(parent.mask());
  std::vector<counting::RefineChild> children(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    const int a = masks[i].MaxIndex();
    children[i] = counting::RefineChild{a, BaseColumn(a), DomSizeOf(a)};
  }
  std::vector<counting::RefinedSizing> refined;
  std::vector<Sizing> out(masks.size());
  if (!counting::RefineSiblings(ScanView(attrs), layout, parent, children,
                                budget, &refined)) {
    // The cached parent does not describe the rows (a corrupt restored
    // entry): scan every child directly.
    for (size_t i = 0; i < masks.size(); ++i) {
      out[i] = DirectSizing(masks[i], budget, /*materialize=*/true,
                            /*morsel_threads=*/1);
    }
    return out;
  }
  // A refined sizing is a direct scan, and a full scan when it completes.
  for (size_t i = 0; i < masks.size(); ++i) {
    out[i].size = refined[i].size;
    if (!refined[i].complete) continue;
    out[i].counts =
        std::make_shared<const GroupCounts>(std::move(refined[i].counts));
    out[i].full_scan = true;
  }
  return out;
}

namespace {

// Per-mask morsel-thread share of one batch: the batch ParallelFor
// spreads `masks` over num_threads workers, so each concurrently
// executing scan may spend the leftover factor on intra-subset morsels.
// A solo-mask batch (the wave scheduler's degenerate case) gets the
// whole thread budget; a batch saturating the workers gets 1.
int BatchMorselThreads(size_t masks, int num_threads) {
  const int concurrent =
      std::max(1, std::min(static_cast<int>(masks), num_threads));
  return std::max(1, num_threads / concurrent);
}

}  // namespace

void CountingEngine::Commit(AttrMask mask, const Sizing& sizing) {
  ++stats_.sizings;
  switch (sizing.path) {
    case Path::kHit:
      ++stats_.cache_hits;
      return;  // already cached
    case Path::kRollup:
      ++stats_.rollups;
      break;
    case Path::kDirect:
      ++stats_.direct_scans;
      if (sizing.full_scan) ++stats_.full_scans;
      break;
    case Path::kTrivial:
      break;
  }
  if (sizing.counts != nullptr && mask.Count() >= 2 && options_.enabled) {
    CacheInsert(mask, sizing.counts);
  }
}

void CountingEngine::EvictFront() {
  uint64_t victim = insertion_order_.front();
  insertion_order_.pop_front();
  auto it = cache_.find(victim);
  PCBL_DCHECK(it != cache_.end());
  stats_.cached_groups -= it->second->num_groups() + 1;
  AddResidentBytes(-EntryBytes(*it->second));
  cache_.erase(it);
  ancestors_.Erase(AttrMask(victim));
  ++stats_.evictions;
}

void CountingEngine::EvictToBudget() {
  while (stats_.cached_groups > options_.cache_budget &&
         !insertion_order_.empty()) {
    EvictFront();
  }
}

void CountingEngine::CacheInsert(AttrMask mask,
                                 std::shared_ptr<const GroupCounts> counts,
                                 bool pinned) {
  if (!pinned && options_.cache_budget <= 0) return;
  const int64_t cost = counts->num_groups() + 1;
  if (!pinned && cost > options_.cache_budget) return;
  if (cache_.contains(mask.bits())) return;
  if (!pinned) {
    while (stats_.cached_groups + cost > options_.cache_budget &&
           !insertion_order_.empty()) {
      EvictFront();
    }
    insertion_order_.push_back(mask.bits());
    stats_.cached_groups += cost;
  } else {
    pinned_.insert(mask.bits());
  }
  AddResidentBytes(EntryBytes(*counts));
  ancestors_.Insert(mask, counts->num_groups());
  cache_.emplace(mask.bits(), std::move(counts));
}

std::vector<CountingEngine::CacheSnapshotEntry>
CountingEngine::ExportCacheSnapshot() const {
  std::vector<CacheSnapshotEntry> out;
  out.reserve(cache_.size());
  for (uint64_t bits : insertion_order_) {
    auto it = cache_.find(bits);
    PCBL_DCHECK(it != cache_.end());
    if (it != cache_.end()) out.push_back({bits, false, it->second});
  }
  std::vector<uint64_t> pinned(pinned_.begin(), pinned_.end());
  std::sort(pinned.begin(), pinned.end());
  for (uint64_t bits : pinned) {
    auto it = cache_.find(bits);
    PCBL_DCHECK(it != cache_.end());
    if (it != cache_.end()) out.push_back({bits, true, it->second});
  }
  return out;
}

void CountingEngine::ImportCacheSnapshot(
    const std::vector<CacheSnapshotEntry>& entries) {
  for (const CacheSnapshotEntry& entry : entries) {
    if (entry.counts == nullptr) continue;
    CacheInsert(AttrMask(entry.mask_bits), entry.counts, entry.pinned);
  }
}

void CountingEngine::Reconfigure(const CountingEngineOptions& options) {
  options_ = options;
  EvictToBudget();
}

void CountingEngine::InvalidateCache() {
  cache_.clear();
  insertion_order_.clear();
  pinned_.clear();
  ancestors_.Clear();
  stats_.cached_groups = 0;
  AddResidentBytes(-stats_.cached_bytes);
  ++stats_.invalidations;
}

std::shared_ptr<const GroupCounts> CountingEngine::PatchedEntry(
    const GroupCounts& entry,
    const std::vector<std::vector<ValueId>>& rows) const {
  const std::vector<int>& attrs = entry.attrs();
  const int width = entry.key_width();
  // Restrictions of arity >= 2 contributed by the new rows.
  std::vector<ValueId> fresh;
  for (const std::vector<ValueId>& row : rows) {
    int arity = 0;
    const size_t base = fresh.size();
    fresh.resize(base + static_cast<size_t>(width));
    for (int j = 0; j < width; ++j) {
      const ValueId v = row[static_cast<size_t>(attrs[j])];
      fresh[base + static_cast<size_t>(j)] = v;
      arity += static_cast<int>(!IsNull(v));
    }
    if (arity < 2) fresh.resize(base);
  }
  if (fresh.empty()) return nullptr;

  auto patched = std::make_shared<GroupCounts>(entry);
  std::vector<ValueId>& keys = GroupCountsAccess::keys(*patched);
  std::vector<int64_t>& counts = GroupCountsAccess::counts(*patched);
  const size_t n_fresh = fresh.size() / static_cast<size_t>(width);
  for (size_t i = 0; i < n_fresh; ++i) {
    const ValueId* key = fresh.data() + i * static_cast<size_t>(width);
    // Binary search for the canonical position of the key.
    int64_t lo = 0;
    int64_t hi = static_cast<int64_t>(counts.size());
    while (lo < hi) {
      const int64_t mid = (lo + hi) / 2;
      if (KeyLess(keys.data() + mid * width, key, width)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < static_cast<int64_t>(counts.size()) &&
        std::equal(key, key + width, keys.data() + lo * width)) {
      ++counts[static_cast<size_t>(lo)];
    } else {
      keys.insert(keys.begin() + lo * width, key, key + width);
      counts.insert(counts.begin() + lo, 1);
    }
  }
  return patched;
}

void CountingEngine::ApplyAppend(
    const std::vector<std::vector<ValueId>>& rows) {
  if (rows.empty()) return;
  const int n = table_->num_attributes();
  if (eff_dom_.empty()) {
    eff_dom_.resize(static_cast<size_t>(n));
    for (int a = 0; a < n; ++a) {
      eff_dom_[static_cast<size_t>(a)] =
          static_cast<int64_t>(table_->DomainSize(a));
    }
    appended_nulls_.assign(static_cast<size_t>(n), false);
  }
  for (const std::vector<ValueId>& row : rows) {
    PCBL_CHECK(static_cast<int>(row.size()) == n)
        << "appended row width mismatches the schema";
    for (int a = 0; a < n; ++a) {
      const ValueId v = row[static_cast<size_t>(a)];
      if (IsNull(v)) {
        appended_nulls_[static_cast<size_t>(a)] = true;
      } else if (static_cast<int64_t>(v) >=
                 eff_dom_[static_cast<size_t>(a)]) {
        eff_dom_[static_cast<size_t>(a)] = static_cast<int64_t>(v) + 1;
      }
    }
    delta_rows_.insert(delta_rows_.end(), row.begin(), row.end());
  }
  appended_rows_relaxed_.store(num_appended_rows(),
                               std::memory_order_relaxed);
  appended_bytes_relaxed_.fetch_add(
      static_cast<int64_t>(rows.size()) * n *
          static_cast<int64_t>(sizeof(ValueId)),
      std::memory_order_relaxed);
  // Patch every cached entry in place (copy-on-write: probes may hold
  // references to the old shared state).
  for (auto& [bits, entry] : cache_) {
    std::shared_ptr<const GroupCounts> patched = PatchedEntry(*entry, rows);
    if (patched == nullptr) continue;
    const int64_t grown = patched->num_groups() - entry->num_groups();
    AddResidentBytes(EntryBytes(*patched) - EntryBytes(*entry));
    entry = std::move(patched);
    ++stats_.patched_entries;
    ancestors_.Insert(AttrMask(bits), entry->num_groups());
    if (grown != 0 && !pinned_.contains(bits)) {
      stats_.cached_groups += grown;
    }
  }
  EvictToBudget();
  if (options_.delta_compact_threshold > 0 &&
      num_delta_rows() >= options_.delta_compact_threshold) {
    CompactDeltas();
  }
}

void CountingEngine::CompactDeltas() {
  const int64_t deltas = num_delta_rows();
  if (deltas == 0) return;
  const int n = table_->num_attributes();
  if (base_rows_ < 0) {
    // First compaction: take a columnar copy of the table. From here on
    // the engine owns the base storage and the table is only consulted
    // for schema/domain metadata.
    base_cols_.resize(static_cast<size_t>(n));
    base_has_nulls_.resize(static_cast<size_t>(n));
    for (int a = 0; a < n; ++a) {
      base_cols_[static_cast<size_t>(a)] = table_->column(a);
      base_has_nulls_[static_cast<size_t>(a)] = table_->HasNulls(a);
    }
    base_rows_ = table_->num_rows();
    // The columnar copy of the table is new resident data; the folded
    // delta bytes are already charged and merely change layout.
    appended_bytes_relaxed_.fetch_add(
        static_cast<int64_t>(n) * table_->num_rows() *
            static_cast<int64_t>(sizeof(ValueId)),
        std::memory_order_relaxed);
  }
  for (int a = 0; a < n; ++a) {
    std::vector<ValueId>& col = base_cols_[static_cast<size_t>(a)];
    col.reserve(col.size() + static_cast<size_t>(deltas));
    bool nulls = base_has_nulls_[static_cast<size_t>(a)];
    for (int64_t r = 0; r < deltas; ++r) {
      const ValueId v = delta_rows_[static_cast<size_t>(r * n + a)];
      col.push_back(v);
      nulls = nulls || IsNull(v);
    }
    base_has_nulls_[static_cast<size_t>(a)] = nulls;
  }
  base_rows_ += deltas;
  delta_rows_.clear();
  delta_rows_.shrink_to_fit();
  ++stats_.compactions;
}

int64_t CountingEngine::CountPatterns(AttrMask mask, int64_t budget) {
  if (!options_.enabled) {
    if (!has_appended_state()) {
      return CountDistinctPatterns(*table_, mask, budget);
    }
    // Disabled engine over appended data: the one-shot counters cannot
    // see it, so run the uncached direct scan. Size-only — nothing can
    // cache the PC set while disabled, so materializing it (and the
    // packed path's second scan) would be pure waste.
    Sizing sizing = DirectSizing(mask, budget, /*materialize=*/false,
                                 options_.num_threads);
    Commit(mask, sizing);
    return sizing.counts != nullptr ? sizing.counts->num_groups()
                                    : sizing.size;
  }
  Sizing sizing = ExecutePlan(mask, MakePlan(mask, budget), budget,
                              options_.num_threads);
  Commit(mask, sizing);
  return sizing.counts != nullptr ? sizing.counts->num_groups()
                                  : sizing.size;
}

std::vector<int64_t> CountingEngine::CountPatternsBatch(
    const std::vector<AttrMask>& masks, int64_t budget) {
  return CountPatternsBatchCollect(masks, budget, /*counts_out=*/nullptr);
}

std::vector<int64_t> CountingEngine::CountPatternsBatchCollect(
    const std::vector<AttrMask>& masks, int64_t budget,
    std::vector<std::shared_ptr<const GroupCounts>>* counts_out) {
  std::vector<int64_t> sizes(masks.size(), 0);
  if (counts_out != nullptr) {
    counts_out->assign(masks.size(), nullptr);
  }
  if (!options_.enabled) {
    for (size_t i = 0; i < masks.size(); ++i) {
      sizes[i] = CountPatterns(masks[i], budget);
    }
    return sizes;
  }
  // Plans are decided serially against the current cache, executed in
  // parallel (read-only work over the table and the planned entries), and
  // committed serially in input order — cache contents and stats are
  // therefore identical for any thread count.
  std::vector<Plan> plans(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    plans[i] = MakePlan(masks[i], budget);
  }
  // Work units: the masks refined from one cached parent share a single
  // scan (grouped in first-seen order); every other mask is its own unit.
  std::vector<std::vector<size_t>> units;
  std::unordered_map<uint64_t, size_t> unit_of_parent;
  for (size_t i = 0; i < masks.size(); ++i) {
    if (plans[i].parent == nullptr) {
      units.push_back({i});
      continue;
    }
    auto [it, fresh] =
        unit_of_parent.emplace(plans[i].parent->mask().bits(), units.size());
    if (fresh) units.emplace_back();
    units[it->second].push_back(i);
  }
  std::vector<Sizing> outcomes(masks.size());
  const int morsel_threads =
      BatchMorselThreads(masks.size(), options_.num_threads);
  ParallelFor(static_cast<int64_t>(units.size()), options_.num_threads,
              [&](int64_t u) {
                const std::vector<size_t>& unit =
                    units[static_cast<size_t>(u)];
                if (unit.size() == 1) {
                  const size_t s = unit[0];
                  outcomes[s] =
                      ExecutePlan(masks[s], plans[s], budget, morsel_threads);
                  return;
                }
                std::vector<AttrMask> siblings;
                siblings.reserve(unit.size());
                for (size_t s : unit) siblings.push_back(masks[s]);
                std::vector<Sizing> sized =
                    SiblingSizings(*plans[unit[0]].parent, siblings, budget);
                for (size_t k = 0; k < unit.size(); ++k) {
                  outcomes[unit[k]] = std::move(sized[k]);
                }
              });
  for (size_t i = 0; i < masks.size(); ++i) {
    // A mask repeated within one batch commits once; later copies become
    // plain hits against the entry the first copy inserted.
    if (outcomes[i].path != Path::kHit &&
        cache_.contains(masks[i].bits())) {
      outcomes[i].path = Path::kHit;
    }
    Commit(masks[i], outcomes[i]);
    sizes[i] = outcomes[i].counts != nullptr
                   ? outcomes[i].counts->num_groups()
                   : outcomes[i].size;
    if (counts_out != nullptr) {
      (*counts_out)[i] = outcomes[i].counts;
    }
  }
  return sizes;
}

std::shared_ptr<const GroupCounts> CountingEngine::PatternCounts(
    AttrMask mask) {
  if (!options_.enabled) {
    if (!has_appended_state()) {
      return std::make_shared<const GroupCounts>(
          ComputePatternCounts(*table_, mask));
    }
    Sizing sizing = DirectSizing(mask, /*budget=*/-1, /*materialize=*/true,
                                 options_.num_threads);
    Commit(mask, sizing);
    PCBL_CHECK(sizing.counts != nullptr);
    return sizing.counts;
  }
  Sizing sizing = ExecutePlan(mask, MakePlan(mask, /*budget=*/-1),
                              /*budget=*/-1, options_.num_threads);
  Commit(mask, sizing);
  PCBL_CHECK(sizing.counts != nullptr);  // unbudgeted sizing materializes
  return sizing.counts;
}

std::vector<std::shared_ptr<const GroupCounts>>
CountingEngine::PatternCountsBatch(const std::vector<AttrMask>& masks) {
  std::vector<std::shared_ptr<const GroupCounts>> out(masks.size());
  if (!options_.enabled) {
    for (size_t i = 0; i < masks.size(); ++i) {
      out[i] = PatternCounts(masks[i]);
    }
    return out;
  }
  // Same discipline as CountPatternsBatch: serial plans, parallel
  // execution, serial input-order commits.
  std::vector<Plan> plans(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    plans[i] = MakePlan(masks[i], /*budget=*/-1);
  }
  std::vector<Sizing> outcomes(masks.size());
  const int morsel_threads =
      BatchMorselThreads(masks.size(), options_.num_threads);
  ParallelFor(static_cast<int64_t>(masks.size()), options_.num_threads,
              [&](int64_t i) {
                const size_t s = static_cast<size_t>(i);
                outcomes[s] = ExecutePlan(masks[s], plans[s],
                                          /*budget=*/-1, morsel_threads);
              });
  for (size_t i = 0; i < masks.size(); ++i) {
    if (outcomes[i].path != Path::kHit &&
        cache_.contains(masks[i].bits())) {
      outcomes[i].path = Path::kHit;  // a duplicate already committed
    }
    Commit(masks[i], outcomes[i]);
    PCBL_CHECK(outcomes[i].counts != nullptr);
    out[i] = outcomes[i].counts;
  }
  return out;
}

void CountingEngine::CopyAppendedRow(int64_t i, ValueId* out) const {
  PCBL_DCHECK(i >= 0 && i < num_appended_rows());
  const int n = table_->num_attributes();
  const int64_t global = table_->num_rows() + i;
  if (base_rows_ >= 0 && global < base_rows_) {
    // Compacted into the engine-owned columnar base.
    for (int a = 0; a < n; ++a) {
      out[a] = base_cols_[static_cast<size_t>(a)]
                         [static_cast<size_t>(global)];
    }
    return;
  }
  const int64_t d = global - base_rows();  // index into the delta block
  for (int a = 0; a < n; ++a) {
    out[a] = delta_rows_[static_cast<size_t>(d * n + a)];
  }
}

void CountingEngine::CopyAppendedRows(int64_t first, int64_t count,
                                      ValueId* out) const {
  PCBL_DCHECK(first >= 0 && count >= 0 &&
              first + count <= num_appended_rows());
  const int n = table_->num_attributes();
  int64_t global = table_->num_rows() + first;
  const int64_t end = global + count;
  // Prefix compacted into the engine-owned columnar base: gather
  // column-wise values back into rows.
  while (global < end && base_rows_ >= 0 && global < base_rows_) {
    for (int a = 0; a < n; ++a) {
      *out++ = base_cols_[static_cast<size_t>(a)]
                         [static_cast<size_t>(global)];
    }
    ++global;
  }
  if (global >= end) return;
  // Delta-block suffix: already row-major — one contiguous copy.
  const int64_t d = global - base_rows();
  std::copy_n(delta_rows_.data() + static_cast<size_t>(d * n),
              static_cast<size_t>((end - global) * n), out);
}

std::shared_ptr<const GroupCounts> CountingEngine::PinnedPatternCounts(
    AttrMask mask) {
  if (!options_.enabled) return PatternCounts(mask);
  // Promote an existing evictable entry: pull it out of the FIFO and the
  // budget so the sweep it anchors cannot cycle it out.
  auto it = cache_.find(mask.bits());
  if (it != cache_.end()) {
    auto pos = std::find(insertion_order_.begin(), insertion_order_.end(),
                         mask.bits());
    if (pos != insertion_order_.end()) {
      insertion_order_.erase(pos);
      stats_.cached_groups -= it->second->num_groups() + 1;
      pinned_.insert(mask.bits());
    }
    return it->second;
  }
  Sizing sizing = ExecutePlan(mask, MakePlan(mask, /*budget=*/-1),
                              /*budget=*/-1, options_.num_threads);
  ++stats_.sizings;
  if (sizing.path == Path::kRollup) ++stats_.rollups;
  if (sizing.path == Path::kDirect) {
    ++stats_.direct_scans;
    if (sizing.full_scan) ++stats_.full_scans;
  }
  PCBL_CHECK(sizing.counts != nullptr);
  if (mask.Count() >= 2) {
    CacheInsert(mask, sizing.counts, /*pinned=*/true);
  }
  return sizing.counts;
}

std::shared_ptr<const GroupCounts> CountingEngine::CachedPatternCounts(
    AttrMask mask) const {
  auto it = cache_.find(mask.bits());
  return it == cache_.end() ? nullptr : it->second;
}

}  // namespace pcbl
