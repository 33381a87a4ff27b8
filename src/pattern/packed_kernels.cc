#include "pattern/packed_kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <optional>

#include "pattern/kernel_dispatch.h"
#include "pattern/restriction_codec.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pcbl {
namespace counting {

namespace {

// Encode tile: large enough to amortize the per-tile setup, small enough
// that codes + arity stay in L1 (~9 KiB).
constexpr int64_t kTileRows = 1024;

// Dense-bitmap ceiling: 2^26 bits = 8 MiB. The relative gate in
// PackedDenseEligible keeps small tables from paying a memset larger
// than their scan.
constexpr int kDenseBitsLimit = 26;

// Dense count-array ceiling: 2^22 slots.
constexpr int kDenseCountBitsLimit = 22;

// The dense count gate on a code space of `space` slots: the array's
// clear + sweep must stay small next to the row scan (mirrors the dense
// group-by gate in counter.cc).
inline bool DenseCountSpaceEligible(int64_t space, int64_t rows) {
  return space <= (int64_t{1} << kDenseCountBitsLimit) &&
         space <= 2 * rows + 1024;
}

// Dropped rows (NULL / arity < 2) encode to this code, one past the top
// of the packed key space, so the SIMD encoders can run branch-free and
// downstream consumers either skip it (emit loops) or give it a bit that
// is cleared before counting (dense bitmap).
inline uint64_t SentinelCode(const PackedLayout& layout) {
  return uint64_t{1} << layout.total_bits;
}

// Encodes base rows [base, base + n) of an arity-2 view through the
// active kernel table. NULL-free columns take the pure shift/OR kernel.
inline void EncodeBaseTileA2(const SubsetColumns& view,
                             const PackedLayout& layout,
                             const SizingKernels& k, uint64_t sentinel,
                             int64_t base, int64_t n, uint64_t* out) {
  const ValueId* c0 = view.cols[0] + base;
  const ValueId* c1 = view.cols[1] + base;
  if (!view.nullable[0] && !view.nullable[1]) {
    k.encode_a2(c0, c1, layout.shift[0], n, out);
  } else {
    k.encode_a2_nullable(c0, c1, layout.shift[0], sentinel, n, out);
  }
}

// Arity-3 equivalent; the nullable kernel substitutes layout null slots
// for single-NULL rows and routes >1-NULL rows to the sentinel.
inline void EncodeBaseTileA3(const SubsetColumns& view,
                             const PackedLayout& layout,
                             const SizingKernels& k, uint64_t sentinel,
                             int64_t base, int64_t n, uint64_t* out) {
  const ValueId* c0 = view.cols[0] + base;
  const ValueId* c1 = view.cols[1] + base;
  const ValueId* c2 = view.cols[2] + base;
  if (!view.nullable[0] && !view.nullable[1] && !view.nullable[2]) {
    k.encode_a3(c0, c1, c2, layout.shift[0], layout.shift[1], n, out);
  } else {
    k.encode_a3_nullable(c0, c1, c2, layout.shift[0], layout.shift[1],
                         layout.null_slot[0], layout.null_slot[1],
                         layout.null_slot[2], sentinel, n, out);
  }
}

// Delta rows are row-major and few (the engine compacts them into the
// base columns past a threshold), so they encode scalar, any width.
inline uint64_t EncodeDeltaRow(const SubsetColumns& view,
                               const PackedLayout& layout,
                               uint64_t sentinel, int64_t r) {
  const ValueId* row = view.delta + r * view.delta_stride;
  uint64_t code = 0;
  int bound = 0;
  for (int j = 0; j < view.width; ++j) {
    const ValueId v = row[view.delta_attr[j]];
    const bool nn = !IsNull(v);
    code |= (nn ? static_cast<uint64_t>(v) : layout.null_slot[j])
            << layout.shift[j];
    bound += static_cast<int>(nn);
  }
  return bound >= 2 ? code : sentinel;
}

// Encodes base rows [base, base + n) of the view into `codes`, dropped
// rows (NULL / arity < 2) as the sentinel. Arity-2/3 tiles go through
// the dispatched SIMD kernels; wider subsets through the per-column
// gather (a tight shift/OR loop with no cross-row dependencies), for
// which `arity` is scratch. Codes and arities stay in L1.
inline void EncodeBaseTile(const SubsetColumns& view,
                           const PackedLayout& layout, const SizingKernels& k,
                           uint64_t sentinel, int64_t base, int64_t n,
                           uint64_t* codes, uint8_t* arity) {
  if (view.width == 2) {
    EncodeBaseTileA2(view, layout, k, sentinel, base, n, codes);
    return;
  }
  if (view.width == 3) {
    EncodeBaseTileA3(view, layout, k, sentinel, base, n, codes);
    return;
  }
  std::memset(codes, 0, static_cast<size_t>(n) * sizeof(codes[0]));
  std::memset(arity, 0, static_cast<size_t>(n) * sizeof(arity[0]));
  for (int j = 0; j < view.width; ++j) {
    k.gather_accum(view.cols[j] + base, layout.shift[j],
                   layout.null_slot[j], n, codes, arity);
  }
  for (int64_t r = 0; r < n; ++r) {
    codes[r] = arity[r] >= 2 ? codes[r] : sentinel;
  }
}

// Streams every arity>=2 restriction code of the view through `emit`
// (bool emit(uint64_t): return false to abort the scan), base rows tile
// by tile, then delta rows. Dropped rows are skipped, so emission order
// and the budget early-exit contract are those of a row-at-a-time scan
// (an abort merely wastes the rest of one already-encoded tile).
template <typename Emit>
void ForEachPackedCode(const SubsetColumns& view, const PackedLayout& layout,
                       Emit&& emit) {
  PCBL_DCHECK(view.width >= 2 && layout.ok);
  const SizingKernels& k = ActiveKernels();
  const uint64_t sentinel = SentinelCode(layout);
  uint64_t codes[kTileRows];
  uint8_t arity[kTileRows];
  for (int64_t base = 0; base < view.rows; base += kTileRows) {
    const int64_t n = std::min(kTileRows, view.rows - base);
    EncodeBaseTile(view, layout, k, sentinel, base, n, codes, arity);
    for (int64_t r = 0; r < n; ++r) {
      const uint64_t code = codes[r];
      if (code == sentinel) continue;
      if (!emit(code)) return;
    }
  }
  for (int64_t r = 0; r < view.delta_rows; ++r) {
    const uint64_t code = EncodeDeltaRow(view, layout, sentinel, r);
    if (code == sentinel) continue;
    if (!emit(code)) return;
  }
}

// Parent packed code -> group id (the group's position in the parent's
// canonical order): open addressing sized to the parent's groups, so it
// stays L1-resident for within-bound parents. The parent is checked, not
// trusted — a cached PC set may have been restored from a spill file.
// Building the index requires every key cell to be a non-NULL code
// inside its field and the codes to ascend strictly (canonical order,
// hence distinct), and a lookup reports a code with no group instead of
// assuming one. A parent that does not describe the scanned rows thus
// costs its children a fallback scan, never a wrong index.
class GroupIndex {
 public:
  GroupIndex(const GroupCounts& parent, const PackedLayout& layout,
             int64_t rows) {
    const int64_t groups = parent.num_groups();
    if (groups > rows) return;  // every group counts at least one row
    // Load <= 1/8: almost every key sits in its home slot, so the probe
    // loop's branch predicts (at load 1/2 the collisions cost the
    // CreditCard build about twice the cycles per mapped row).
    int log_cap = 4;
    while ((int64_t{1} << log_cap) < groups * 8) ++log_cap;
    shift_ = 64 - log_cap;
    mask_ = (size_t{1} << log_cap) - 1;
    slots_.assign(mask_ + 1, Slot{kEmpty, 0});
    uint64_t prev = 0;
    for (int64_t g = 0; g < groups; ++g) {
      const ValueId* key = parent.key(g);
      uint64_t code = 0;
      for (int j = 0; j < layout.width; ++j) {
        if (static_cast<uint64_t>(key[j]) >= layout.null_slot[j]) return;
        code |= static_cast<uint64_t>(key[j]) << layout.shift[j];
      }
      if (g > 0 && code <= prev) return;
      prev = code;
      size_t i = Slot0(code);
      while (slots_[i].code != kEmpty) i = (i + 1) & mask_;
      slots_[i] = Slot{code, static_cast<uint32_t>(g)};
    }
    ok_ = true;
  }

  // Whether the parent passed the checks above.
  bool ok() const { return ok_; }

  // Maps n parent codes to their group ids; false when some code has no
  // group (the parent does not describe the scanned rows).
  bool Map(const uint64_t* codes, int64_t n, uint32_t* gids) const {
    const Slot* slots = slots_.data();
    for (int64_t r = 0; r < n; ++r) {
      const uint64_t code = codes[r];
      size_t i = Slot0(code);
      while (slots[i].code != code) {
        if (slots[i].code == kEmpty) return false;
        i = (i + 1) & mask_;
      }
      gids[r] = slots[i].gid;
    }
    return true;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};  // codes are < 2^63

  struct Slot {
    uint64_t code;
    uint32_t gid;
  };

  // Fibonacci hashing: the top bits of one multiply.
  size_t Slot0(uint64_t code) const {
    return static_cast<size_t>((code * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  bool ok_ = false;
};

// One sibling's distinct-code sink: a dense count array over the
// (group, slot) space, or a budget-reserved hash map.
struct SiblingSink {
  int bits = 0;       // bit width of the child's slots [0, dom]
  uint64_t dom = 0;   // NULL's slot
  bool live = true;   // still within budget
  int64_t distinct = 0;
  std::vector<uint32_t> dense;
  std::optional<CodeCountMap> map;
};

// Counts one tile of n rows into a live sibling; value_at(r) reads the
// child attribute of row r. Returns false at the budget + 1-th distinct
// code.
template <typename ValueAt>
bool FeedSibling(SiblingSink& s, const uint32_t* gids, int64_t n,
                 int64_t budget, ValueAt&& value_at) {
  const int bits = s.bits;
  const uint64_t dom = s.dom;
  auto code_at = [&](int64_t r) {
    const ValueId v = value_at(r);
    return (static_cast<uint64_t>(gids[r]) << bits) |
           (IsNull(v) ? dom : static_cast<uint64_t>(v));
  };
  if (!s.dense.empty()) {
    uint32_t* c = s.dense.data();
    int64_t distinct = s.distinct;
    for (int64_t r = 0; r < n; ++r) {
      distinct += static_cast<int64_t>(c[code_at(r)]++ == 0);
      if (distinct > budget) break;
    }
    s.distinct = distinct;
    return distinct <= budget;
  }
  CodeCountMap& m = *s.map;
  for (int64_t r = 0; r < n; ++r) {
    if (m.Add(static_cast<int64_t>(code_at(r)), 1) && m.size() > budget) {
      s.distinct = m.size();
      return false;
    }
  }
  s.distinct = m.size();
  return true;
}

// The [lo, hi) slice of the view's concatenated row range (base rows
// first, then delta rows) as another SubsetColumns — what one morsel
// scans. Slicing is pure pointer arithmetic; column/attr metadata is
// shared with the parent view.
SubsetColumns MorselSlice(const SubsetColumns& view, int64_t lo,
                          int64_t hi) {
  SubsetColumns s = view;
  const int64_t blo = std::min(lo, view.rows);
  const int64_t bhi = std::min(hi, view.rows);
  for (int j = 0; j < view.width; ++j) s.cols[j] = view.cols[j] + blo;
  s.rows = bhi - blo;
  const int64_t dlo = std::max<int64_t>(0, lo - view.rows);
  const int64_t dhi = std::max<int64_t>(0, hi - view.rows);
  s.delta = view.delta == nullptr ? nullptr
                                  : view.delta + dlo * view.delta_stride;
  s.delta_rows = dhi - dlo;
  return s;
}

// Equal contiguous ranges; morsel m of nm covers
// [total * m / nm, total * (m + 1) / nm).
inline int64_t MorselBound(int64_t total_rows, int64_t nm, int64_t m) {
  return total_rows * m / nm;
}

// OR-fills `bm` (words incl. the sentinel word) with one bit per
// distinct arity>=2 code of the view — plus the sentinel bit when any
// row dropped, which the caller clears before counting. NULL-free
// arity-2/3 base rows take the fused dense_fill kernels (the dominant
// shape: every implementation owns both the encode and the presence
// update, see kernel_dispatch.h). Nullable views encode through tiles
// and scatter into four interleaved accumulators: hot groups hammer the
// same word, and spreading consecutive rows across copies breaks that
// read-modify-write dependency chain.
void FillDenseBitmap(const SubsetColumns& view, const PackedLayout& layout,
                     uint64_t* bm, size_t words) {
  const uint64_t sentinel = SentinelCode(layout);
  if (view.width == 2 || view.width == 3) {
    const SizingKernels& k = ActiveKernels();
    const bool null_free =
        !view.nullable[0] && !view.nullable[1] &&
        (view.width == 2 || !view.nullable[2]);
    if (null_free) {
      if (view.width == 2) {
        k.dense_fill_a2(view.cols[0], view.cols[1], layout.shift[0],
                        layout.total_bits, view.rows, bm);
      } else {
        k.dense_fill_a3(view.cols[0], view.cols[1], view.cols[2],
                        layout.shift[0], layout.shift[1], layout.total_bits,
                        view.rows, bm);
      }
      for (int64_t r = 0; r < view.delta_rows; ++r) {
        const uint64_t code = EncodeDeltaRow(view, layout, sentinel, r);
        bm[code >> 6] |= uint64_t{1} << (code & 63);
      }
      return;
    }
    std::vector<uint64_t> shadow(words * 3, 0);
    uint64_t* bs1 = shadow.data();
    uint64_t* bs2 = bs1 + words;
    uint64_t* bs3 = bs2 + words;
    uint64_t codes[kTileRows];
    for (int64_t base = 0; base < view.rows; base += kTileRows) {
      const int64_t n = std::min(kTileRows, view.rows - base);
      if (view.width == 2) {
        EncodeBaseTileA2(view, layout, k, sentinel, base, n, codes);
      } else {
        EncodeBaseTileA3(view, layout, k, sentinel, base, n, codes);
      }
      int64_t r = 0;
      for (; r + 3 < n; r += 4) {
        const uint64_t a = codes[r];
        const uint64_t b = codes[r + 1];
        const uint64_t c = codes[r + 2];
        const uint64_t d = codes[r + 3];
        bm[a >> 6] |= uint64_t{1} << (a & 63);
        bs1[b >> 6] |= uint64_t{1} << (b & 63);
        bs2[c >> 6] |= uint64_t{1} << (c & 63);
        bs3[d >> 6] |= uint64_t{1} << (d & 63);
      }
      for (; r < n; ++r) {
        const uint64_t a = codes[r];
        bm[a >> 6] |= uint64_t{1} << (a & 63);
      }
    }
    for (size_t w = 0; w < words; ++w) {
      bm[w] |= bs1[w] | bs2[w] | bs3[w];
    }
    for (int64_t r = 0; r < view.delta_rows; ++r) {
      const uint64_t code = EncodeDeltaRow(view, layout, sentinel, r);
      bm[code >> 6] |= uint64_t{1} << (code & 63);
    }
    return;
  }
  ForEachPackedCode(view, layout, [&](uint64_t code) {
    bm[code >> 6] |= uint64_t{1} << (code & 63);
    return true;
  });
}

}  // namespace

SubsetColumns MakeSubsetColumns(const Table& table,
                                const std::vector<int>& attrs) {
  SubsetColumns view;
  view.width = static_cast<int>(attrs.size());
  view.rows = table.num_rows();
  for (size_t j = 0; j < attrs.size(); ++j) {
    view.cols[j] = table.column(attrs[j]).data();
    view.nullable[j] = table.HasNulls(attrs[j]);
  }
  return view;
}

int64_t MorselCount(int64_t total_rows, const MorselConfig& morsel) {
  if (morsel.threads <= 1 || morsel.min_rows_per_morsel <= 0) return 1;
  const int64_t by_rows = total_rows / morsel.min_rows_per_morsel;
  return std::max<int64_t>(
      1, std::min<int64_t>(morsel.threads, by_rows));
}

bool PackedDenseCountEligible(const PackedLayout& layout, int64_t rows) {
  return layout.ok && layout.total_bits <= kDenseCountBitsLimit &&
         DenseCountSpaceEligible(int64_t{1} << layout.total_bits, rows);
}

int64_t PackedCountGroupsDense(
    const SubsetColumns& view, const PackedLayout& layout, int64_t budget,
    std::vector<std::pair<int64_t, int64_t>>* items,
    const MorselConfig& morsel) {
  PCBL_DCHECK(
      PackedDenseCountEligible(layout, view.rows + view.delta_rows));
  const size_t space = size_t{1} << layout.total_bits;
  const int64_t total_rows = view.rows + view.delta_rows;
  const int64_t nm = budget < 0 ? MorselCount(total_rows, morsel) : 1;
  std::vector<uint32_t> counts(space, 0);
  uint32_t* c = counts.data();
  if (nm > 1) {
    // Exact scan: each morsel counts into its own direct-addressing
    // array, merged by elementwise addition — commutative, so the merged
    // array (and the ascending sweep below) is identical for every
    // morsel split.
    std::vector<std::vector<uint32_t>> parts(static_cast<size_t>(nm - 1));
    ParallelFor(nm, static_cast<int>(nm), [&](int64_t m) {
      const SubsetColumns slice =
          MorselSlice(view, MorselBound(total_rows, nm, m),
                      MorselBound(total_rows, nm, m + 1));
      uint32_t* part = c;
      if (m > 0) {
        parts[static_cast<size_t>(m - 1)].assign(space, 0);
        part = parts[static_cast<size_t>(m - 1)].data();
      }
      ForEachPackedCode(slice, layout, [&](uint64_t code) {
        ++part[code];
        return true;
      });
    });
    for (const std::vector<uint32_t>& part : parts) {
      const uint32_t* p = part.data();
      for (size_t w = 0; w < space; ++w) c[w] += p[w];
    }
    int64_t distinct = 0;
    items->clear();
    for (size_t code = 0; code < space; ++code) {
      if (c[code] != 0) {
        ++distinct;
        items->emplace_back(static_cast<int64_t>(code),
                            static_cast<int64_t>(c[code]));
      }
    }
    return distinct;
  }
  int64_t distinct = 0;
  bool aborted = false;
  ForEachPackedCode(view, layout, [&](uint64_t code) {
    distinct += static_cast<int64_t>(c[code]++ == 0);
    if (budget >= 0 && distinct > budget) {
      aborted = true;
      return false;
    }
    return true;
  });
  if (aborted) return distinct;
  items->clear();
  items->reserve(static_cast<size_t>(distinct));
  for (size_t code = 0; code < space; ++code) {
    if (c[code] != 0) {
      items->emplace_back(static_cast<int64_t>(code),
                          static_cast<int64_t>(c[code]));
    }
  }
  return distinct;
}

bool PackedDenseEligible(const PackedLayout& layout, int64_t rows) {
  if (!layout.ok || layout.total_bits > kDenseBitsLimit) return false;
  const int64_t words = (int64_t{1} << layout.total_bits) / 64 + 1;
  // The memset of `words` must stay small next to the row scan.
  return words <= rows + 8192;
}

int64_t PackedCountDistinct(const SubsetColumns& view,
                            const PackedLayout& layout, int64_t budget,
                            const MorselConfig& morsel) {
  const int64_t total_rows = view.rows + view.delta_rows;
  const int64_t nm = budget < 0 ? MorselCount(total_rows, morsel) : 1;
  if (PackedDenseEligible(layout, total_rows)) {
    // One extra word holds the encoders' NULL sentinel bit (code
    // 2^total_bits), which lets the fill loops run branch-free.
    const size_t words =
        static_cast<size_t>((int64_t{1} << layout.total_bits) / 64 + 2);
    const uint64_t sentinel = SentinelCode(layout);
    if (budget < 0) {
      // Exact counting: fill without testing (a pure OR-store per row —
      // no read-test dependency, no running counter), then popcount.
      // With morsels, each thread fills a private bitmap over its row
      // range; OR is commutative, so the merged bitmap is split-
      // independent.
      std::vector<uint64_t> bitmap(words, 0);
      uint64_t* bm = bitmap.data();
      if (nm > 1) {
        std::vector<std::vector<uint64_t>> parts(
            static_cast<size_t>(nm - 1));
        ParallelFor(nm, static_cast<int>(nm), [&](int64_t m) {
          const SubsetColumns slice =
              MorselSlice(view, MorselBound(total_rows, nm, m),
                          MorselBound(total_rows, nm, m + 1));
          uint64_t* part = bm;
          if (m > 0) {
            parts[static_cast<size_t>(m - 1)].assign(words, 0);
            part = parts[static_cast<size_t>(m - 1)].data();
          }
          FillDenseBitmap(slice, layout, part, words);
        });
        for (const std::vector<uint64_t>& part : parts) {
          const uint64_t* p = part.data();
          for (size_t w = 0; w < words; ++w) bm[w] |= p[w];
        }
      } else {
        FillDenseBitmap(view, layout, bm, words);
      }
      bm[sentinel >> 6] &= ~(uint64_t{1} << (sentinel & 63));
      int64_t distinct = 0;
      for (uint64_t word : bitmap) distinct += std::popcount(word);
      return distinct;
    }
    std::vector<uint64_t> bitmap(words, 0);
    uint64_t* bm = bitmap.data();
    int64_t distinct = 0;
    ForEachPackedCode(view, layout, [&](uint64_t code) {
      const uint64_t bit = uint64_t{1} << (code & 63);
      uint64_t& word = bm[code >> 6];
      if ((word & bit) == 0) {
        word |= bit;
        if (++distinct > budget) return false;
      }
      return true;
    });
    return distinct;
  }
  if (nm > 1) {
    // Exact hash path: per-morsel CodeSets merged pairwise into the
    // first. The union's size is split-independent, and each partial
    // reserves for its own row count so the merge stays cheap.
    std::vector<std::unique_ptr<CodeSet>> parts(static_cast<size_t>(nm));
    ParallelFor(nm, static_cast<int>(nm), [&](int64_t m) {
      const SubsetColumns slice =
          MorselSlice(view, MorselBound(total_rows, nm, m),
                      MorselBound(total_rows, nm, m + 1));
      auto seen = std::make_unique<CodeSet>(
          SizingReserve(-1, slice.rows + slice.delta_rows));
      ForEachPackedCode(slice, layout, [&](uint64_t code) {
        seen->Insert(static_cast<int64_t>(code));
        return true;
      });
      parts[static_cast<size_t>(m)] = std::move(seen);
    });
    CodeSet& merged = *parts[0];
    for (size_t m = 1; m < parts.size(); ++m) {
      parts[m]->ForEach([&](int64_t code) { merged.Insert(code); });
    }
    return merged.size();
  }
  CodeSet seen(SizingReserve(budget, total_rows));
  ForEachPackedCode(view, layout, [&](uint64_t code) {
    return !(seen.Insert(static_cast<int64_t>(code)) && budget >= 0 &&
             seen.size() > budget);
  });
  return seen.size();
}

std::vector<std::pair<int64_t, int64_t>> PackedCountGroups(
    const SubsetColumns& view, const PackedLayout& layout,
    int64_t groups_hint, const MorselConfig& morsel) {
  const int64_t total_rows = view.rows + view.delta_rows;
  // A morsel's distinct-group count is bounded by the subset's, so the
  // hint pre-sizes each partial (and the merge target) the same way —
  // every hinted pass is rehash-free, asserted below.
  auto reserve = [&](int64_t rows) {
    return groups_hint >= 0 ? static_cast<size_t>(groups_hint) + 1
                            : SizingReserve(-1, rows);
  };
  const int64_t nm = MorselCount(total_rows, morsel);
  if (nm > 1) {
    std::vector<std::unique_ptr<CodeCountMap>> parts(
        static_cast<size_t>(nm));
    ParallelFor(nm, static_cast<int>(nm), [&](int64_t m) {
      const SubsetColumns slice =
          MorselSlice(view, MorselBound(total_rows, nm, m),
                      MorselBound(total_rows, nm, m + 1));
      auto counts = std::make_unique<CodeCountMap>(
          reserve(slice.rows + slice.delta_rows));
      ForEachPackedCode(slice, layout, [&](uint64_t code) {
        counts->Increment(static_cast<int64_t>(code));
        return true;
      });
      parts[static_cast<size_t>(m)] = std::move(counts);
    });
    CodeCountMap& merged = *parts[0];
    for (size_t m = 1; m < parts.size(); ++m) {
      parts[m]->ForEach(
          [&](int64_t code, int64_t count) { merged.Add(code, count); });
    }
    PCBL_DCHECK(groups_hint < 0 || merged.rehashes() == 0);
    return merged.Items();
  }
  CodeCountMap counts(reserve(total_rows));
  ForEachPackedCode(view, layout, [&](uint64_t code) {
    counts.Increment(static_cast<int64_t>(code));
    return true;
  });
  PCBL_DCHECK(groups_hint < 0 || counts.rehashes() == 0);
  return counts.Items();
}

bool RefineSiblings(const SubsetColumns& view, const PackedLayout& layout,
                    const GroupCounts& parent,
                    const std::vector<RefineChild>& children, int64_t budget,
                    std::vector<RefinedSizing>* out) {
  PCBL_DCHECK(view.width >= 2 && layout.ok && budget >= 0);
  PCBL_DCHECK(!view.any_nullable());
  const int64_t groups = parent.num_groups();
  const int64_t total_rows = view.rows + view.delta_rows;
  const GroupIndex index(parent, layout, total_rows);
  if (!index.ok()) return false;
  std::vector<SiblingSink> sinks(children.size());
  for (size_t c = 0; c < children.size(); ++c) {
    SiblingSink& s = sinks[c];
    s.dom = static_cast<uint64_t>(children[c].dom);
    s.bits = std::bit_width(s.dom);
    PCBL_DCHECK(std::bit_width(static_cast<uint64_t>(groups)) + s.bits <=
                63);
    if (s.bits <= kDenseCountBitsLimit &&
        DenseCountSpaceEligible(groups << s.bits, total_rows)) {
      s.dense.assign(static_cast<size_t>(groups << s.bits), 0);
    } else {
      s.map.emplace(SizingReserve(budget, total_rows));
    }
  }

  // One tile at a time: encode the parent once, map each row to its
  // group, then let every live sibling count the tile.
  const SizingKernels& k = ActiveKernels();
  const uint64_t sentinel = SentinelCode(layout);
  size_t live = children.size();
  uint64_t codes[kTileRows];
  uint32_t gids[kTileRows];
  uint8_t arity[kTileRows];
  for (int64_t base = 0; base < view.rows && live > 0; base += kTileRows) {
    const int64_t n = std::min(kTileRows, view.rows - base);
    EncodeBaseTile(view, layout, k, sentinel, base, n, codes, arity);
    if (!index.Map(codes, n, gids)) return false;
    for (size_t c = 0; c < children.size(); ++c) {
      SiblingSink& s = sinks[c];
      if (!s.live) continue;
      const ValueId* col = children[c].col + base;
      s.live = FeedSibling(s, gids, n, budget,
                           [col](int64_t r) { return col[r]; });
      live -= static_cast<size_t>(!s.live);
    }
  }
  for (int64_t base = 0; base < view.delta_rows && live > 0;
       base += kTileRows) {
    const int64_t n = std::min(kTileRows, view.delta_rows - base);
    for (int64_t r = 0; r < n; ++r) {
      codes[r] = EncodeDeltaRow(view, layout, sentinel, base + r);
    }
    if (!index.Map(codes, n, gids)) return false;
    const ValueId* rows = view.delta + base * view.delta_stride;
    for (size_t c = 0; c < children.size(); ++c) {
      SiblingSink& s = sinks[c];
      if (!s.live) continue;
      const ValueId* at = rows + children[c].attr;
      const int64_t stride = view.delta_stride;
      s.live = FeedSibling(s, gids, n, budget,
                           [at, stride](int64_t r) { return at[r * stride]; });
      live -= static_cast<size_t>(!s.live);
    }
  }

  out->clear();
  out->resize(children.size());
  const size_t width = parent.attrs().size();
  for (size_t c = 0; c < children.size(); ++c) {
    const SiblingSink& s = sinks[c];
    RefinedSizing& o = (*out)[c];
    o.size = s.distinct;
    if (!s.live) continue;
    o.complete = true;
    // Ascending (group, slot) codes are the child's canonical order:
    // the child attribute sorts after every parent attribute.
    GroupCounts& pc = o.counts;
    GroupCountsAccess::mask(pc) = parent.mask().With(children[c].attr);
    std::vector<int>& attrs = GroupCountsAccess::attrs(pc);
    attrs = parent.attrs();
    attrs.push_back(children[c].attr);
    std::vector<ValueId>& keys = GroupCountsAccess::keys(pc);
    std::vector<int64_t>& counts = GroupCountsAccess::counts(pc);
    keys.reserve(static_cast<size_t>(s.distinct) * (width + 1));
    counts.reserve(static_cast<size_t>(s.distinct));
    const uint64_t slot_mask = (uint64_t{1} << s.bits) - 1;
    auto emit = [&](uint64_t code, int64_t count) {
      const ValueId* key = parent.key(static_cast<int64_t>(code >> s.bits));
      keys.insert(keys.end(), key, key + width);
      const uint64_t slot = code & slot_mask;
      keys.push_back(slot == s.dom ? kNullValue : static_cast<ValueId>(slot));
      counts.push_back(count);
    };
    if (!s.dense.empty()) {
      for (size_t code = 0; code < s.dense.size(); ++code) {
        if (s.dense[code] != 0) emit(code, s.dense[code]);
      }
    } else {
      std::vector<std::pair<int64_t, int64_t>> items = s.map->Items();
      std::sort(items.begin(), items.end());
      for (const auto& [code, count] : items) {
        emit(static_cast<uint64_t>(code), count);
      }
    }
  }
  return true;
}

}  // namespace counting
}  // namespace pcbl
