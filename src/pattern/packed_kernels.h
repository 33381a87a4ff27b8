// Tiled, bit-packed candidate-sizing kernels (see packed_codec.h for the
// code layout and its order-isomorphism with the mixed-radix codec).
//
// These kernels are what makes sizing bandwidth-bound instead of
// compute-bound on packed-eligible subsets:
//
//  * restrictions are encoded with shifts/ORs instead of per-attribute
//    int64 multiplies,
//  * arity-2 and arity-3 subsets (the bulk of every searched lattice
//    wave) get branch-lean specializations with no inner attribute loop,
//  * wider subsets gather columns in row tiles so each column's slice is
//    streamed exactly once per tile while the tile's codes accumulate in
//    L1,
//  * distinctness checks use a dense bitmap over the packed key space
//    when it is small enough (one load+OR per row, no hashing), falling
//    back to the open-addressing CodeSet otherwise.
//
// Two further accelerations sit behind the same entry points:
//
//  * the inner encode loops run through the runtime-dispatched SIMD
//    kernel table (kernel_dispatch.h) — AVX2 on capable x86-64 hosts,
//    NEON on arm64, the portable scalar reference otherwise,
//  * exact (unbudgeted) scans can be split into cache-sized morsels
//    executed on several threads (MorselConfig): each morsel sizes its
//    contiguous row range into a thread-local partial (bitmap, count
//    array, CodeSet, or CodeCountMap), and the partials merge with
//    order-insensitive operations (OR / elementwise add / hash-merge).
//    Because every downstream materialization sorts by packed code, the
//    merged result is byte-identical to the serial scan for every
//    thread count — enforced by the differential grid in
//    pattern_packed_kernels_test.cc.
//
// Sibling refinement (RefineSiblings) sizes the gen() children of a
// cached parent PC set from the parent's groups instead of raw columns:
// one tile scan encodes the parent once and feeds every sibling.
//
// Budgeted scans (budget >= 0) always run serially: the early-exit
// contract ("stop as soon as the count exceeds the budget") is a
// sequential property, and splitting it would change how much work an
// over-budget subset performs.
//
// Counts are byte-identical to the mixed-radix path for every input —
// the differential suites in pattern_packed_kernels_test.cc and
// pattern_counting_engine_test.cc enforce this.
#ifndef PCBL_PATTERN_PACKED_KERNELS_H_
#define PCBL_PATTERN_PACKED_KERNELS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "pattern/packed_codec.h"
#include "relation/table.h"
#include "util/attr_mask.h"

namespace pcbl {
namespace counting {

/// Column-major view of one attribute subset, plus an optional block of
/// appended rows (row-major, `delta_stride` ValueIds per row) that the
/// CountingEngine maintains for datasets grown after construction.
struct SubsetColumns {
  const ValueId* cols[kMaxAttributes];
  int width = 0;
  int64_t rows = 0;
  /// Whether position j can hold NULLs (from Table::NullCount, O(1));
  /// all-false lets the kernels run their branch-free NULL-free loops —
  /// the common case on the paper's datasets.
  bool nullable[kMaxAttributes];
  /// Appended rows; position j of the subset reads
  /// delta[r * delta_stride + delta_attr[j]].
  const ValueId* delta = nullptr;
  int64_t delta_rows = 0;
  int delta_stride = 0;
  int delta_attr[kMaxAttributes];

  bool any_nullable() const {
    for (int j = 0; j < width; ++j) {
      if (nullable[j]) return true;
    }
    return false;
  }
};

/// View over `attrs` of `table` (no appended rows).
SubsetColumns MakeSubsetColumns(const Table& table,
                                const std::vector<int>& attrs);

/// Morsel-parallelism knobs for one exact subset scan. The row range
/// (base rows followed by appended delta rows) is split into up to
/// `threads` contiguous morsels of at least `min_rows_per_morsel` rows
/// each; a subset too small to yield two such morsels scans serially.
/// `threads <= 1` or `min_rows_per_morsel <= 0` disables splitting.
/// Budgeted scans ignore the config entirely (see the header comment).
struct MorselConfig {
  int threads = 1;
  int64_t min_rows_per_morsel = 32768;
};

/// Number of morsels an exact scan over `total_rows` rows would use:
/// min(threads, total_rows / min_rows_per_morsel), at least 1.
int64_t MorselCount(int64_t total_rows, const MorselConfig& morsel);

/// |P_S| with the early-exit budget contract of CountDistinctPatterns:
/// exact when <= budget, otherwise any value > budget (budget < 0 =
/// exact). `layout.ok` must hold.
int64_t PackedCountDistinct(const SubsetColumns& view,
                            const PackedLayout& layout, int64_t budget,
                            const MorselConfig& morsel = {});

/// The full (packed code, count) group list of the subset, unsorted.
/// `groups_hint` pre-sizes the count map (pass the exact group count when
/// known — e.g. from a preceding PackedCountDistinct — to make the pass
/// rehash-free on every path, including each morsel-local partial; pass a
/// negative value when unknown).
std::vector<std::pair<int64_t, int64_t>> PackedCountGroups(
    const SubsetColumns& view, const PackedLayout& layout,
    int64_t groups_hint, const MorselConfig& morsel = {});

/// True when PackedCountDistinct would use the dense-bitmap path: the
/// packed key space is small enough that a bitmap probe (one load+OR)
/// beats hashing and its memset is amortized by the scan.
bool PackedDenseEligible(const PackedLayout& layout, int64_t rows);

/// True when PackedCountGroupsDense applies: the packed key space fits a
/// direct-addressing count array whose memset is amortized by the scan.
bool PackedDenseCountEligible(const PackedLayout& layout, int64_t rows);

/// One-pass budgeted count-and-materialize over a dense count array
/// (requires PackedDenseCountEligible). Returns the distinct count with
/// the usual early-exit contract; when it is within the budget, *items
/// receives the (packed code, count) groups in ascending code order —
/// already the canonical emission order, no sort needed.
int64_t PackedCountGroupsDense(const SubsetColumns& view,
                               const PackedLayout& layout, int64_t budget,
                               std::vector<std::pair<int64_t, int64_t>>* items,
                               const MorselConfig& morsel = {});

/// One gen() child S ∪ {a} (a > max(S)) sized by RefineSiblings.
struct RefineChild {
  int attr = 0;                  ///< a; also its position in a delta row
  const ValueId* col = nullptr;  ///< a's base column (view.rows values)
  int64_t dom = 0;               ///< effective |Dom(a)|, NULL's slot
};

/// Outcome of one refined child.
struct RefinedSizing {
  /// Distinct restrictions with the early-exit contract: exact when
  /// <= budget, otherwise budget + 1.
  int64_t size = 0;
  /// True when the size is within the budget; `counts` then holds the
  /// child's full PC set in canonical order.
  bool complete = false;
  GroupCounts counts;
};

/// Sibling refinement (partition refinement over a cached parent PC set):
/// sizes every child S ∪ {a_i} of `parent` (the PC set of S over the
/// view's rows) in one shared row scan. Per row tile, the parent's packed
/// code is encoded once and mapped to its group id g (its position in the
/// parent's canonical order); every child still within budget then counts
/// the code (g << bits(a) | slot(a)), NULL taking slot |Dom(a)|. Because
/// a > max(S), ascending (g, slot) is the child's canonical order, so a
/// complete child materializes as parent.key(g) ++ value with no sort.
/// A child drops out at its budget + 1-th distinct code; the scan ends
/// when none is left. Sinks are a dense count array when the (g, slot)
/// space passes the dense count gate, a budget-reserved CodeCountMap
/// otherwise.
///
/// Requires: `view` covers exactly S, has width >= 2, and holds no NULL
/// in any row (base or delta); `layout` is its packed layout (ok);
/// budget >= 0. The parent itself is checked, not trusted (it may have
/// been restored from a spill file): a key cell that is NULL or outside
/// its field, keys out of canonical order, or a scanned row whose code
/// matches no group make the call return false with *out unspecified,
/// and the caller sizes the children another way. Otherwise returns true
/// and element i of *out answers children[i].
bool RefineSiblings(const SubsetColumns& view, const PackedLayout& layout,
                    const GroupCounts& parent,
                    const std::vector<RefineChild>& children, int64_t budget,
                    std::vector<RefinedSizing>* out);

}  // namespace counting
}  // namespace pcbl

#endif  // PCBL_PATTERN_PACKED_KERNELS_H_
