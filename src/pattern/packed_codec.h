// Bit-packed restriction codec: the code the CountingEngine counts on.
//
// A restriction over an attribute subset S is a tuple of *slots*, one per
// attribute: slot = the ValueId for a bound attribute, |Dom| for NULL
// (unbound). The packed codec gives each attribute a fixed bit field of
// ceil(log2(|Dom|+1)) bits and combines slots with shifts and ORs; the
// per-attribute field extraction on decode is a shift+mask.
//
// Packed codes are strictly monotone in the lexicographic order of the
// slot tuple (attrs[0] most significant, NULL sorting last per attribute,
// because the NULL slot |Dom| is the largest slot value). Sorting packed
// codes therefore yields exactly the canonical PC-set emission order —
// the order the one-shot counters' mixed-radix codes and the sort
// fallback's raw keys also produce — which keeps GroupCounts built from
// packed codes byte-identical to every other path (differential-tested
// in pattern_packed_kernels_test.cc).
//
// Eligibility: the packed width Σ ceil(log2(|Dom|+1)) must fit in 63 bits
// so codes remain non-negative int64s (the open-addressing containers use
// -1 as the empty sentinel). Wider subsets go to the one-shot counters or
// the sort fallback; the 63/64/65-bit boundary is covered by tests.
#ifndef PCBL_PATTERN_PACKED_CODEC_H_
#define PCBL_PATTERN_PACKED_CODEC_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "pattern/restriction_codec.h"
#include "relation/table.h"
#include "util/attr_mask.h"

namespace pcbl {
namespace counting {

/// Field layout of the packed restriction code over one attribute subset.
/// Position 0 (attrs[0], the smallest attribute index) is the most
/// significant field, matching the mixed-radix significance order.
struct PackedLayout {
  /// True when every field fits and the total width is <= 63 bits.
  bool ok = false;
  int width = 0;
  int total_bits = 0;
  /// Left shift of field j.
  int shift[kMaxAttributes];
  /// (1 << bits_j) - 1, for decode.
  uint64_t field_mask[kMaxAttributes];
  /// The NULL slot of field j (= |Dom(A_j)|).
  uint64_t null_slot[kMaxAttributes];
};

/// Builds the layout from explicit per-attribute domain sizes (in subset
/// position order). Domain sizes may exceed the table's when the engine
/// tracks appended rows with fresh values ("effective domains").
inline PackedLayout MakePackedLayout(const int64_t* dom_sizes, int width) {
  PackedLayout layout;
  layout.width = width;
  int total = 0;
  for (int j = 0; j < width; ++j) {
    const uint64_t null_slot = static_cast<uint64_t>(dom_sizes[j]);
    const int bits = std::bit_width(null_slot);  // slots span [0, |Dom|]
    layout.field_mask[j] = bits == 0 ? 0 : (uint64_t{1} << bits) - 1;
    layout.null_slot[j] = null_slot;
    total += bits;
  }
  layout.total_bits = total;
  if (total > 63) return layout;  // ok stays false
  // Assign shifts most-significant-first.
  int shift = total;
  for (int j = 0; j < width; ++j) {
    const int bits = std::bit_width(layout.null_slot[j]);
    shift -= bits;
    layout.shift[j] = shift;
  }
  layout.ok = true;
  return layout;
}

/// Layout over `attrs` of `table`.
inline PackedLayout MakePackedLayout(const Table& table,
                                     const std::vector<int>& attrs) {
  int64_t doms[kMaxAttributes];
  for (size_t j = 0; j < attrs.size(); ++j) {
    doms[j] = static_cast<int64_t>(table.DomainSize(attrs[j]));
  }
  return MakePackedLayout(doms, static_cast<int>(attrs.size()));
}

/// True when the subset's restrictions can be packed into one int64.
inline bool PackedEligible(const Table& table, AttrMask mask) {
  std::vector<int> attrs = mask.ToIndices();
  return MakePackedLayout(table, attrs).ok;
}

/// Decodes a packed code back into per-attribute ValueIds (kNullValue for
/// unbound positions).
inline void DecodePacked(int64_t code, const PackedLayout& layout,
                         ValueId* out) {
  const uint64_t bits = static_cast<uint64_t>(code);
  for (int j = 0; j < layout.width; ++j) {
    const uint64_t slot = (bits >> layout.shift[j]) & layout.field_mask[j];
    out[j] = slot == layout.null_slot[j] ? kNullValue
                                         : static_cast<ValueId>(slot);
  }
}

/// Materializes (packed code, count) items as a GroupCounts. Sorting by
/// packed code is sorting by the canonical emission order (see the header
/// comment), so the result is byte-identical to every other counting
/// path over the same groups.
inline GroupCounts MaterializeFromPackedCodes(
    AttrMask mask, std::vector<int> attrs, const PackedLayout& layout,
    std::vector<std::pair<int64_t, int64_t>> items) {
  std::sort(items.begin(), items.end());
  GroupCounts out;
  GroupCountsAccess::mask(out) = mask;
  GroupCountsAccess::attrs(out) = std::move(attrs);
  std::vector<ValueId>& keys = GroupCountsAccess::keys(out);
  std::vector<int64_t>& counts = GroupCountsAccess::counts(out);
  const size_t width = static_cast<size_t>(layout.width);
  keys.reserve(items.size() * width);
  counts.reserve(items.size());
  for (const auto& [code, c] : items) {
    const size_t base = keys.size();
    keys.resize(base + width);
    DecodePacked(code, layout, keys.data() + base);
    counts.push_back(c);
  }
  return out;
}

}  // namespace counting
}  // namespace pcbl

#endif  // PCBL_PATTERN_PACKED_CODEC_H_
