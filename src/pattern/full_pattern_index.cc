#include "pattern/full_pattern_index.h"

#include <algorithm>

#include "pattern/counter.h"
#include "pattern/packed_codec.h"
#include "util/logging.h"

namespace pcbl {

namespace {

// One P_A group while the index is assembled. `key` is whatever the
// caller can turn back into codes: a GroupCounts group index, a packed
// code, or an index into a key-pointer array.
struct Group {
  uint64_t key;
  int64_t count;
};

// Writes `groups`, given in ascending key order, into P_A's canonical
// order: count descending, ties keeping the key order (the sort is
// stable). `write_key(key, out)` writes one key's `width` codes.
template <typename WriteKey>
void EmitCanonical(std::vector<Group> groups, size_t width,
                   const WriteKey& write_key, std::vector<ValueId>* codes,
                   std::vector<int64_t>* counts) {
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& a, const Group& b) {
                     return a.count > b.count;
                   });
  codes->resize(groups.size() * width);
  counts->resize(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    write_key(groups[i].key, codes->data() + i * width);
    (*counts)[i] = groups[i].count;
  }
}

// Sorts `groups` by key (`less`), sums the counts of equal keys and
// writes the result as EmitCanonical does.
template <typename Less, typename WriteKey>
void MergeAndEmit(std::vector<Group> groups, size_t width, const Less& less,
                  const WriteKey& write_key, std::vector<ValueId>* codes,
                  std::vector<int64_t>* counts) {
  std::sort(groups.begin(), groups.end(), less);
  size_t kept = 0;
  for (const Group& g : groups) {
    if (kept > 0 && !less(groups[kept - 1], g)) {
      groups[kept - 1].count += g.count;
    } else {
      groups[kept++] = g;
    }
  }
  groups.resize(kept);
  EmitCanonical(std::move(groups), width, write_key, codes, counts);
}

bool HasNull(const ValueId* key, size_t width) {
  return std::any_of(key, key + width, IsNull);
}

}  // namespace

FullPatternIndex FullPatternIndex::Build(const Table& table) {
  FullPatternIndex idx;
  idx.width_ = table.num_attributes();
  const size_t width = static_cast<size_t>(idx.width_);
  if (width == 0) {
    // Every row is complete over the empty schema; no pattern binds it.
    idx.rows_indexed_ = table.num_rows();
    return idx;
  }

  std::vector<Group> groups;
  if (width == 1) {
    // ComputePatternCounts stores nothing below arity 2; a one-attribute
    // P_A is the column's non-NULL value counts, keyed by the value.
    std::vector<int64_t> per_value(static_cast<size_t>(table.DomainSize(0)),
                                   0);
    for (ValueId v : table.column(0)) {
      if (!IsNull(v)) ++per_value[v];
    }
    for (size_t v = 0; v < per_value.size(); ++v) {
      if (per_value[v] == 0) continue;
      groups.push_back(Group{v, per_value[v]});
      idx.rows_indexed_ += per_value[v];
    }
    idx.rows_skipped_ = table.num_rows() - idx.rows_indexed_;
    EmitCanonical(
        std::move(groups), width,
        [](uint64_t v, ValueId* out) { *out = static_cast<ValueId>(v); },
        &idx.codes_, &idx.counts_);
    return idx;
  }

  // The full-width PC set: restrictions of NULL-free rows bind every
  // attribute, so its NULL-free keys are exactly the full patterns.
  const GroupCounts pc =
      ComputePatternCounts(table, AttrMask::All(idx.width_));
  groups.reserve(static_cast<size_t>(pc.num_groups()));
  for (int64_t g = 0; g < pc.num_groups(); ++g) {
    if (HasNull(pc.key(g), width)) continue;
    groups.push_back(Group{static_cast<uint64_t>(g), pc.count(g)});
    idx.rows_indexed_ += pc.count(g);
  }
  idx.rows_skipped_ = table.num_rows() - idx.rows_indexed_;
  EmitCanonical(
      std::move(groups), width,
      [&](uint64_t g, ValueId* out) {
        std::copy_n(pc.key(static_cast<int64_t>(g)), width, out);
      },
      &idx.codes_, &idx.counts_);
  return idx;
}

void FullPatternIndex::ApplyAppend(const ValueId* rows, int64_t num_rows) {
  const size_t width = static_cast<size_t>(width_);
  // NULL-free appended rows (NULL rows are skipped like in Build).
  std::vector<const ValueId*> fresh;
  for (int64_t r = 0; r < num_rows; ++r) {
    const ValueId* row = rows + static_cast<size_t>(r) * width;
    if (HasNull(row, width)) {
      ++rows_skipped_;
    } else {
      fresh.push_back(row);
    }
  }
  rows_indexed_ += static_cast<int64_t>(fresh.size());
  if (width == 0 || fresh.empty()) return;

  // Effective domains: appended rows can mint codes past the table's
  // domain sizes, so each field holds the largest code present plus one.
  int64_t doms[kMaxAttributes] = {};
  const auto widen = [&](const ValueId* key) {
    for (size_t a = 0; a < width; ++a) {
      doms[a] = std::max(doms[a], static_cast<int64_t>(key[a]) + 1);
    }
  };
  for (int64_t g = 0; g < num_patterns(); ++g) widen(codes(g));
  for (const ValueId* row : fresh) widen(row);
  const counting::PackedLayout layout =
      counting::MakePackedLayout(doms, width_);

  // Merge the existing groups with the fresh rows (count 1 each): sort
  // by key, sum equal keys, then restore the canonical order.
  std::vector<Group> groups;
  groups.reserve(counts_.size() + fresh.size());
  if (layout.ok) {
    // Packed codes sort in lexicographic key order.
    const auto pack = [&](const ValueId* key) {
      uint64_t code = 0;
      for (size_t a = 0; a < width; ++a) {
        code |= static_cast<uint64_t>(key[a]) << layout.shift[a];
      }
      return code;
    };
    for (int64_t g = 0; g < num_patterns(); ++g) {
      groups.push_back(Group{pack(codes(g)), count(g)});
    }
    for (const ValueId* row : fresh) groups.push_back(Group{pack(row), 1});
    MergeAndEmit(
        std::move(groups), width,
        [](const Group& a, const Group& b) { return a.key < b.key; },
        [&](uint64_t code, ValueId* out) {
          counting::DecodePacked(static_cast<int64_t>(code), layout, out);
        },
        &codes_, &counts_);
    return;
  }

  // Wider than 63 bits: the same merge over key pointers, compared
  // lexicographically. The keys live in codes_ and `rows`, so the result
  // goes to fresh vectors before it replaces codes_.
  std::vector<const ValueId*> keys;
  keys.reserve(counts_.size() + fresh.size());
  for (int64_t g = 0; g < num_patterns(); ++g) {
    keys.push_back(codes(g));
    groups.push_back(Group{keys.size() - 1, count(g)});
  }
  for (const ValueId* row : fresh) {
    keys.push_back(row);
    groups.push_back(Group{keys.size() - 1, 1});
  }
  std::vector<ValueId> merged_codes;
  std::vector<int64_t> merged_counts;
  MergeAndEmit(
      std::move(groups), width,
      [&](const Group& a, const Group& b) {
        return std::lexicographical_compare(keys[a.key], keys[a.key] + width,
                                            keys[b.key], keys[b.key] + width);
      },
      [&](uint64_t k, ValueId* out) { std::copy_n(keys[k], width, out); },
      &merged_codes, &merged_counts);
  codes_ = std::move(merged_codes);
  counts_ = std::move(merged_counts);
}

Pattern FullPatternIndex::ToPattern(int64_t i) const {
  PCBL_CHECK(i >= 0 && i < num_patterns());
  std::vector<PatternTerm> terms;
  terms.reserve(static_cast<size_t>(width_));
  const ValueId* k = codes(i);
  for (int a = 0; a < width_; ++a) {
    terms.push_back(PatternTerm{a, k[a]});
  }
  auto result = Pattern::Create(std::move(terms));
  PCBL_CHECK(result.ok()) << result.status();
  return std::move(result).value();
}

}  // namespace pcbl
