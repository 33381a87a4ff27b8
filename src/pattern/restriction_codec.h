// Shared internals of the pattern-counting layer: build-time access to
// GroupCounts, the open-addressing code containers used by the packed
// kernels, the one-shot counters (counter.cc) and the CountingEngine, and
// the sort fallback. Not part of the public API surface — include only
// from src/pattern.
//
// A *restriction* is one tuple's non-NULL restriction to an attribute
// subset S: one slot per attribute, the ValueId when bound and |Dom| when
// NULL. The engine encodes restrictions as packed codes (packed_codec.h);
// the one-shot counters keep a mixed-radix code, private to counter.cc,
// for subsets too wide to pack. Every code order is the lexicographic
// order of the slot tuple (NULL last per attribute) — the canonical
// PC-set emission order — and the sort fallback sorts raw keys in that
// same order, which keeps every path's output byte-identical.
#ifndef PCBL_PATTERN_RESTRICTION_CODEC_H_
#define PCBL_PATTERN_RESTRICTION_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "pattern/counter.h"
#include "relation/table.h"
#include "util/attr_mask.h"
#include "util/hash.h"

namespace pcbl {

/// Build-time access to GroupCounts internals, shared by the counting
/// implementations (counter.cc, counting_engine.cc).
struct GroupCountsAccess {
  static std::vector<int>& attrs(GroupCounts& g) { return g.attrs_; }
  static AttrMask& mask(GroupCounts& g) { return g.mask_; }
  static std::vector<ValueId>& keys(GroupCounts& g) { return g.keys_; }
  static std::vector<int64_t>& counts(GroupCounts& g) { return g.counts_; }
};

namespace counting {

struct SubsetColumns;  // packed_kernels.h

/// The sort fallback, and the counting layer's one sort-and-count-runs
/// routine: gathers the arity >= 2 restrictions of `view`'s rows (base
/// rows, then delta rows) to `mask` as row-major raw keys, sorts them
/// lexicographically — the canonical order, kNullValue being the largest
/// ValueId — and counts runs. Returns |P_S| with the early-exit contract
/// of CountDistinctPatterns. With `out`, the runs are also written to it
/// as the PC set of `mask` (complete only when the count is within the
/// budget). Needs no code space, so it covers subsets of any width.
int64_t SortRestrictionCounts(const SubsetColumns& view, AttrMask mask,
                              int64_t budget, GroupCounts* out);

/// Reservation hint for the code containers of one sizing pass. When a
/// budget early-exit hint is present the pass inserts at most budget + 1
/// distinct codes before aborting, so reserving budget + 2 makes it
/// rehash-free; without a budget the row count bounds the distinct count
/// (clamped so near-unique subsets of huge tables do not pre-touch a
/// gigantic empty map).
inline size_t SizingReserve(int64_t budget, int64_t rows) {
  if (budget >= 0) return static_cast<size_t>(budget) + 2;
  return static_cast<size_t>(
      std::clamp<int64_t>(rows, 256, int64_t{1} << 16));
}

/// Open-addressing set of 64-bit codes for the sizing hot loop: the search
/// algorithms call the distinct counters millions of times, so the
/// std::unordered_set allocation/probing cost dominates without this.
class CodeSet {
 public:
  explicit CodeSet(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
  }

  /// Returns true when the code was newly inserted.
  bool Insert(int64_t code) {
    if (size_ * 2 >= slots_.size()) Grow();
    size_t i = static_cast<size_t>(Mix64(static_cast<uint64_t>(code))) &
               mask_;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == code) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = code;
    ++size_;
    return true;
  }

  int64_t size() const { return static_cast<int64_t>(size_); }

  /// Visits every inserted code, in table order (capacity-dependent —
  /// callers needing a deterministic order must sort downstream, which
  /// every materialization path already does). Used by the morsel-merge
  /// in packed_kernels.cc to fold thread-local partials together.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int64_t code : slots_) {
      if (code != kEmpty) fn(code);
    }
  }

  /// Number of growth rehashes since construction. A correctly sized
  /// reservation (SizingReserve) keeps this at 0 for budgeted passes —
  /// asserted by a regression check in bench_micro_counting_engine.
  int64_t rehashes() const { return rehashes_; }

 private:
  // An improbable sentinel; real codes are non-negative (packed codes
  // fit 63 bits, mixed-radix codes an int64), so kEmpty can never
  // collide.
  static constexpr int64_t kEmpty = -1;

  void Grow() {
    ++rehashes_;
    std::vector<int64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    mask_ = slots_.size() - 1;
    for (int64_t code : old) {
      if (code == kEmpty) continue;
      size_t i = static_cast<size_t>(Mix64(static_cast<uint64_t>(code))) &
                 mask_;
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = code;
    }
  }

  std::vector<int64_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  int64_t rehashes_ = 0;
};

/// Open-addressing code -> count map for the counting hot paths (the
/// search builds thousands of candidate labels per run). Code and count
/// are stored interleaved so a probe touches one cache line — the
/// increment costs the same memory traffic as a CodeSet insert.
class CodeCountMap {
 public:
  explicit CodeCountMap(size_t expected) {
    size_t cap = 32;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, Slot{kEmpty, 0});
    mask_ = cap - 1;
  }

  /// Adds `delta` to the count of `code`; returns true when the code was
  /// newly inserted.
  bool Add(int64_t code, int64_t delta) {
    if (size_ * 2 >= slots_.size()) Grow();
    size_t i = static_cast<size_t>(Mix64(static_cast<uint64_t>(code))) &
               mask_;
    while (slots_[i].code != kEmpty && slots_[i].code != code) {
      i = (i + 1) & mask_;
    }
    bool fresh = slots_[i].code == kEmpty;
    if (fresh) {
      slots_[i].code = code;
      ++size_;
    }
    slots_[i].count += delta;
    return fresh;
  }

  void Increment(int64_t code) { Add(code, 1); }

  /// Number of distinct codes inserted so far.
  int64_t size() const { return static_cast<int64_t>(size_); }

  /// Number of growth rehashes since construction (see CodeSet).
  int64_t rehashes() const { return rehashes_; }

  /// Visits every (code, count) pair, in table order (see
  /// CodeSet::ForEach for the ordering caveat).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.code != kEmpty) fn(s.code, s.count);
    }
  }

  /// The (code, count) pairs in table order (callers sort for
  /// determinism).
  std::vector<std::pair<int64_t, int64_t>> Items() const {
    std::vector<std::pair<int64_t, int64_t>> items;
    items.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.code != kEmpty) items.emplace_back(s.code, s.count);
    }
    return items;
  }

 private:
  static constexpr int64_t kEmpty = -1;  // codes are non-negative

  struct Slot {
    int64_t code;
    int64_t count;
  };

  void Grow() {
    ++rehashes_;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{kEmpty, 0});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.code == kEmpty) continue;
      size_t j = static_cast<size_t>(
                     Mix64(static_cast<uint64_t>(s.code))) &
                 mask_;
      while (slots_[j].code != kEmpty) j = (j + 1) & mask_;
      slots_[j] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  int64_t rehashes_ = 0;
};

}  // namespace counting
}  // namespace pcbl

#endif  // PCBL_PATTERN_RESTRICTION_CODEC_H_
