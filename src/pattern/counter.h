// One-shot restriction counting over attribute subsets — the reference
// counters behind both label construction (the PC set of Definition 2.9)
// and label sizing (|P_S|, the budget check of the search algorithms).
// The memoizing CountingEngine (counting_engine.h) answers the same
// questions byte-identically and delegates here for subsets that do not
// pack.
//
// Three strategies are provided and picked automatically:
//   * packed:      shift/OR codes (packed_codec.h) through the tiled
//                  kernels of packed_kernels.h, when the subset packs
//                  into 63 bits,
//   * mixed-radix: one int64 code per restriction over radix |Dom| + 1,
//                  when ∏(|Dom| + 1) still fits an int64,
//   * sort:        lexicographic sort-and-run-count of raw keys, always
//                  applicable.
// Mixed-radix stays only here, for subsets too wide to pack but still
// encodable. CreditCard's full width (69 packed bits, the P_A build) is
// one; there it is about three times faster than the sort (DESIGN.md
// §5.1).
//
// Rows group by their *non-NULL restriction* to the subset (NULL never
// satisfies an equality term, Definition 2.3), and only restrictions
// binding at least two attributes are stored.
#ifndef PCBL_PATTERN_COUNTER_H_
#define PCBL_PATTERN_COUNTER_H_

#include <cstdint>
#include <vector>

#include "pattern/pattern.h"
#include "relation/table.h"
#include "util/attr_mask.h"

namespace pcbl {

/// The exact pattern counts over one attribute subset: the PC set of
/// L_S(D), restricted to patterns with positive count.
class GroupCounts {
 public:
  /// Attributes of S in increasing index order.
  const std::vector<int>& attrs() const { return attrs_; }
  AttrMask mask() const { return mask_; }

  /// Number of distinct patterns |P_S|.
  int64_t num_groups() const {
    return static_cast<int64_t>(counts_.size());
  }

  /// Key of group `g`: one ValueId per attribute, in attrs() order.
  const ValueId* key(int64_t g) const {
    return keys_.data() + static_cast<size_t>(g) * attrs_.size();
  }

  /// Count of group `g`.
  int64_t count(int64_t g) const {
    return counts_[static_cast<size_t>(g)];
  }

  /// Width of a key (number of grouped attributes).
  int key_width() const { return static_cast<int>(attrs_.size()); }

  /// Sum of all group counts (rows with no NULL in the grouped attributes).
  int64_t total_count() const;

  /// Materializes group `g` as a Pattern.
  Pattern ToPattern(int64_t g) const;

 private:
  friend struct GroupCountsAccess;
  std::vector<int> attrs_;
  AttrMask mask_;
  std::vector<ValueId> keys_;    // flat, num_groups * key_width
  std::vector<int64_t> counts_;  // per group
};

/// Which restriction-counting implementation to use. kAuto picks the
/// packed kernels whenever the subset's packed width fits in 63 bits,
/// then mixed-radix when the nullable key space fits an int64, then the
/// sort fallback. All three produce byte-identical GroupCounts / counts
/// — the forced values exist for differential tests and the sizing
/// micro-benchmarks.
enum class RestrictionStrategy {
  kAuto,
  kPacked,
  kMixedRadix,
  kSort,
};

/// The PC set of L_S(D) under the missing-value semantics implied by the
/// paper's appendix A: tuples are grouped by their *non-NULL restriction*
/// to `mask`, and only restrictions binding at least two attributes are
/// stored (arity-0/1 information is already carried by |D| and VC). Keys
/// have width |mask| with kNullValue marking unbound attributes, and are
/// emitted in canonical order: lexicographic over the keys, NULL sorting
/// last per attribute.
///
/// On NULL-free data this is the plain group-by over `mask` for
/// |mask| >= 2, and empty for smaller masks. This is the semantics under
/// which Lemma A.8's label sizes and the Theorem 2.17 reduction are sound;
/// see DESIGN.md §5a.
GroupCounts ComputePatternCounts(const Table& table, AttrMask mask,
                                 RestrictionStrategy strategy =
                                     RestrictionStrategy::kAuto);

/// |P_S| under the same semantics. Stops early once the count exceeds
/// `budget` (when budget >= 0): returns the exact count when it is
/// <= budget, otherwise any value > budget. This is the quantity the
/// search algorithms bound by B_s, and the early exit is what makes them
/// feasible: most candidate subsets blow past the bound within a few
/// hundred rows.
int64_t CountDistinctPatterns(const Table& table, AttrMask mask,
                              int64_t budget = -1,
                              RestrictionStrategy strategy =
                                  RestrictionStrategy::kAuto);

}  // namespace pcbl

#endif  // PCBL_PATTERN_COUNTER_H_
