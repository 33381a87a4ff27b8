#include "pattern/counter.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "pattern/packed_codec.h"
#include "pattern/packed_kernels.h"
#include "pattern/restriction_codec.h"
#include "util/logging.h"

namespace pcbl {

using counting::CodeCountMap;
using counting::CodeSet;

namespace {

using Access = GroupCountsAccess;

// The mixed-radix restriction codec. Each attribute contributes |Dom| + 1
// slots, the last marking NULL, and attrs[0] is the most significant, so
// ascending codes are the canonical order. Returns the multipliers; sets
// *ok to false (with a partial vector) when the key space overflows int64.
std::vector<int64_t> NullableRadixMultipliers(const Table& table,
                                              const std::vector<int>& attrs,
                                              bool* ok) {
  std::vector<int64_t> mult(attrs.size());
  int64_t m = 1;
  *ok = true;
  for (size_t j = attrs.size(); j-- > 0;) {
    mult[j] = m;
    const int64_t dom = static_cast<int64_t>(table.DomainSize(attrs[j])) + 1;
    if (m > std::numeric_limits<int64_t>::max() / dom) {
      *ok = false;
      return mult;
    }
    m *= dom;
  }
  return mult;
}

// Streams the mixed-radix code of every row's restriction of arity >= 2
// through `fn`, stopping when it returns false. Column pointers and NULL
// slots are hoisted out of the row loop; Table::value() would pay a
// double indirection per cell.
template <typename Fn>
void ForEachRadixCode(const Table& table, const std::vector<int>& attrs,
                      const std::vector<int64_t>& mult, Fn&& fn) {
  const size_t width = attrs.size();
  const ValueId* cols[kMaxAttributes];
  int64_t null_slot[kMaxAttributes];
  for (size_t j = 0; j < width; ++j) {
    cols[j] = table.column(attrs[j]).data();
    null_slot[j] = static_cast<int64_t>(table.DomainSize(attrs[j]));
  }
  const int64_t rows = table.num_rows();
  for (int64_t r = 0; r < rows; ++r) {
    int64_t code = 0;
    int arity = 0;
    for (size_t j = 0; j < width; ++j) {
      const ValueId v = cols[j][r];
      int64_t slot;
      if (IsNull(v)) {
        slot = null_slot[j];
      } else {
        slot = static_cast<int64_t>(v);
        ++arity;
      }
      code += slot * mult[j];
    }
    if (arity >= 2 && !fn(code)) return;
  }
}

// Sorts (code, count) items and decodes each code into a key: the
// mixed-radix counterpart of MaterializeFromPackedCodes.
GroupCounts MaterializeFromRadixCodes(
    const Table& table, AttrMask mask, std::vector<int> attrs,
    const std::vector<int64_t>& mult,
    std::vector<std::pair<int64_t, int64_t>> items) {
  std::sort(items.begin(), items.end());
  const size_t width = attrs.size();
  int64_t doms[kMaxAttributes];
  for (size_t j = 0; j < width; ++j) {
    doms[j] = static_cast<int64_t>(table.DomainSize(attrs[j]));
  }
  GroupCounts out;
  Access::mask(out) = mask;
  std::vector<ValueId>& keys = Access::keys(out);
  std::vector<int64_t>& counts = Access::counts(out);
  keys.reserve(items.size() * width);
  counts.reserve(items.size());
  for (const auto& [code, c] : items) {
    for (size_t j = 0; j < width; ++j) {
      const int64_t slot = (code / mult[j]) % (doms[j] + 1);
      keys.push_back(slot == doms[j] ? kNullValue
                                     : static_cast<ValueId>(slot));
    }
    counts.push_back(c);
  }
  Access::attrs(out) = std::move(attrs);
  return out;
}

}  // namespace

namespace counting {

int64_t SortRestrictionCounts(const SubsetColumns& view, AttrMask mask,
                              int64_t budget, GroupCounts* out) {
  const size_t width = static_cast<size_t>(view.width);
  std::vector<ValueId> keys;
  keys.reserve(static_cast<size_t>(view.rows + view.delta_rows) * width);
  const auto add = [&](auto value_at) {
    const size_t base = keys.size();
    keys.resize(base + width);
    int arity = 0;
    for (size_t j = 0; j < width; ++j) {
      const ValueId v = value_at(j);
      keys[base + j] = v;
      arity += static_cast<int>(!IsNull(v));
    }
    if (arity < 2) keys.resize(base);  // low arity: not stored
  };
  for (int64_t r = 0; r < view.rows; ++r) {
    add([&](size_t j) { return view.cols[j][r]; });
  }
  for (int64_t r = 0; r < view.delta_rows; ++r) {
    const ValueId* row = view.delta + r * view.delta_stride;
    add([&](size_t j) { return row[view.delta_attr[j]]; });
  }

  const size_t n = width == 0 ? 0 : keys.size() / width;
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), int64_t{0});
  const ValueId* data = keys.data();
  const auto key_of = [&](size_t i) {
    return data + static_cast<size_t>(order[i]) * width;
  };
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const ValueId* ka = data + static_cast<size_t>(a) * width;
    const ValueId* kb = data + static_cast<size_t>(b) * width;
    return std::lexicographical_compare(ka, ka + width, kb, kb + width);
  });
  if (out != nullptr) {
    *out = GroupCounts();
    Access::mask(*out) = mask;
    Access::attrs(*out) = mask.ToIndices();
  }
  int64_t distinct = 0;
  for (size_t i = 0; i < n;) {
    const ValueId* run = key_of(i);
    size_t j = i + 1;
    while (j < n && std::equal(run, run + width, key_of(j))) ++j;
    ++distinct;
    if (out != nullptr) {
      Access::keys(*out).insert(Access::keys(*out).end(), run, run + width);
      Access::counts(*out).push_back(static_cast<int64_t>(j - i));
    }
    if (budget >= 0 && distinct > budget) break;
    i = j;
  }
  return distinct;
}

}  // namespace counting

int64_t GroupCounts::total_count() const {
  int64_t total = 0;
  for (int64_t c : counts_) total += c;
  return total;
}

Pattern GroupCounts::ToPattern(int64_t g) const {
  std::vector<PatternTerm> terms;
  terms.reserve(attrs_.size());
  const ValueId* k = key(g);
  for (size_t j = 0; j < attrs_.size(); ++j) {
    terms.push_back(PatternTerm{attrs_[j], k[j]});
  }
  auto result = Pattern::Create(std::move(terms));
  PCBL_CHECK(result.ok()) << result.status();
  return std::move(result).value();
}

GroupCounts ComputePatternCounts(const Table& table, AttrMask mask,
                                 RestrictionStrategy strategy) {
  std::vector<int> attrs = mask.ToIndices();
  if (attrs.size() < 2) {
    // Arity-1 info lives in VC; nothing to store beyond the layout.
    GroupCounts out;
    Access::mask(out) = mask;
    Access::attrs(out) = std::move(attrs);
    return out;
  }

  const counting::PackedLayout layout =
      counting::MakePackedLayout(table, attrs);
  if (strategy == RestrictionStrategy::kAuto && layout.ok) {
    strategy = RestrictionStrategy::kPacked;
  }
  if (strategy == RestrictionStrategy::kPacked) {
    PCBL_CHECK(layout.ok) << "subset is not packed-eligible";
    const counting::SubsetColumns view =
        counting::MakeSubsetColumns(table, attrs);
    return counting::MaterializeFromPackedCodes(
        mask, std::move(attrs), layout,
        counting::PackedCountGroups(view, layout, /*groups_hint=*/-1));
  }

  bool encodable = false;
  const std::vector<int64_t> mult =
      NullableRadixMultipliers(table, attrs, &encodable);
  if (strategy == RestrictionStrategy::kSort ||
      (strategy == RestrictionStrategy::kAuto && !encodable)) {
    GroupCounts out;
    counting::SortRestrictionCounts(counting::MakeSubsetColumns(table, attrs),
                                    mask, /*budget=*/-1, &out);
    return out;
  }
  PCBL_CHECK(encodable) << "key space is not 64-bit-encodable";
  CodeCountMap counts(counting::SizingReserve(-1, table.num_rows()));
  ForEachRadixCode(table, attrs, mult, [&](int64_t code) {
    counts.Increment(code);
    return true;
  });
  return MaterializeFromRadixCodes(table, mask, std::move(attrs), mult,
                                   counts.Items());
}

int64_t CountDistinctPatterns(const Table& table, AttrMask mask,
                              int64_t budget,
                              RestrictionStrategy strategy) {
  const std::vector<int> attrs = mask.ToIndices();
  if (attrs.size() < 2) return 0;

  const counting::PackedLayout layout =
      counting::MakePackedLayout(table, attrs);
  if (strategy == RestrictionStrategy::kAuto && layout.ok) {
    strategy = RestrictionStrategy::kPacked;
  }
  if (strategy == RestrictionStrategy::kPacked) {
    PCBL_CHECK(layout.ok) << "subset is not packed-eligible";
    return counting::PackedCountDistinct(
        counting::MakeSubsetColumns(table, attrs), layout, budget);
  }

  bool encodable = false;
  const std::vector<int64_t> mult =
      NullableRadixMultipliers(table, attrs, &encodable);
  if (strategy == RestrictionStrategy::kSort ||
      (strategy == RestrictionStrategy::kAuto && !encodable)) {
    return counting::SortRestrictionCounts(
        counting::MakeSubsetColumns(table, attrs), mask, budget,
        /*out=*/nullptr);
  }
  PCBL_CHECK(encodable) << "key space is not 64-bit-encodable";
  CodeSet seen(counting::SizingReserve(budget, table.num_rows()));
  ForEachRadixCode(table, attrs, mult, [&](int64_t code) {
    return !(seen.Insert(code) && budget >= 0 && seen.size() > budget);
  });
  return seen.size();
}

}  // namespace pcbl
