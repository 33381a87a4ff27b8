// Differential tests for the bit-packed sizing kernels, focused on the
// packed <-> mixed-radix transcoding boundary: domain sizes at exactly
// 2^k - 1 and 2^k (where the per-attribute field width steps), subsets
// whose packed width lands on 63/64/65 bits (63 is the last eligible
// width; 64/65 engage the fallback), and NULL-slot packing. Every
// strategy must produce byte-identical GroupCounts and identical
// (budgeted) distinct counts.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pattern/counter.h"
#include "pattern/counting_engine.h"
#include "pattern/kernel_dispatch.h"
#include "pattern/lattice.h"
#include "pattern/packed_codec.h"
#include "pattern/packed_kernels.h"
#include "util/rng.h"
#include "util/str.h"

namespace pcbl {
namespace {

void ExpectSameGroupCounts(const GroupCounts& got, const GroupCounts& want,
                           AttrMask mask) {
  ASSERT_EQ(got.num_groups(), want.num_groups()) << mask.ToString();
  ASSERT_EQ(got.key_width(), want.key_width()) << mask.ToString();
  EXPECT_EQ(got.attrs(), want.attrs()) << mask.ToString();
  EXPECT_EQ(got.mask(), want.mask()) << mask.ToString();
  for (int64_t g = 0; g < got.num_groups(); ++g) {
    EXPECT_EQ(got.count(g), want.count(g))
        << mask.ToString() << " group " << g;
    for (int j = 0; j < got.key_width(); ++j) {
      EXPECT_EQ(got.key(g)[j], want.key(g)[j])
          << mask.ToString() << " group " << g << " pos " << j;
    }
  }
}

// A table whose attribute domains are exactly `dom_sizes` (pre-interned),
// filled with `rows` random rows at the given NULL percentage.
Table MakeDomainTable(const std::vector<ValueId>& dom_sizes, int64_t rows,
                      int null_percent, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (size_t a = 0; a < dom_sizes.size(); ++a) {
    names.push_back(StrCat("a", a));
  }
  auto b = TableBuilder::Create(names);
  PCBL_CHECK(b.ok());
  for (size_t a = 0; a < dom_sizes.size(); ++a) {
    for (ValueId v = 0; v < dom_sizes[a]; ++v) {
      b->InternValue(static_cast<int>(a), StrCat("v", v));
    }
  }
  std::vector<ValueId> codes(dom_sizes.size());
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < dom_sizes.size(); ++a) {
      // Skew low so groups repeat.
      ValueId v = rng.UniformInt(dom_sizes[a]);
      if (rng.UniformInt(2) == 0) v = rng.UniformInt(1 + dom_sizes[a] / 8);
      if (null_percent > 0 &&
          rng.UniformInt(100) < static_cast<uint32_t>(null_percent)) {
        v = kNullValue;
      }
      codes[a] = v;
    }
    PCBL_CHECK(b->AddRowCodes(codes).ok());
  }
  return b->Build();
}

// Checks that every forced strategy agrees with every other on all
// subsets of `t`, for both the PC sets and the budgeted sizes.
void CheckStrategiesAgree(const Table& t) {
  const AttrMask universe = AttrMask::All(t.num_attributes());
  ForEachSubsetOf(universe, [&](AttrMask s) {
    if (s.Count() < 2) return;
    const GroupCounts sorted =
        ComputePatternCounts(t, s, RestrictionStrategy::kSort);
    const GroupCounts autod = ComputePatternCounts(t, s);
    ExpectSameGroupCounts(autod, sorted, s);
    if (counting::PackedEligible(t, s)) {
      ExpectSameGroupCounts(
          ComputePatternCounts(t, s, RestrictionStrategy::kPacked), sorted,
          s);
    }
    const int64_t exact =
        CountDistinctPatterns(t, s, -1, RestrictionStrategy::kSort);
    EXPECT_EQ(CountDistinctPatterns(t, s), exact) << s.ToString();
    for (int64_t budget : {int64_t{0}, int64_t{2}, exact - 1, exact,
                           exact + 7}) {
      const int64_t got = CountDistinctPatterns(t, s, budget);
      if (exact <= budget) {
        EXPECT_EQ(got, exact) << s.ToString() << " budget " << budget;
      } else {
        EXPECT_GT(got, budget) << s.ToString() << " budget " << budget;
      }
    }
  });
}

TEST(PackedKernelsTest, PowerOfTwoBoundaryDomains) {
  // |Dom| = 2^k - 1 packs into k bits (the NULL slot is 2^k - 1);
  // |Dom| = 2^k needs k + 1. Both sides of the step, with NULLs.
  for (uint64_t seed : {1u, 2u}) {
    Table t = MakeDomainTable({7, 8, 15, 16, 3}, 400, 20, seed);
    CheckStrategiesAgree(t);
  }
}

TEST(PackedKernelsTest, NullSlotPacking) {
  // NULL-heavy data: the NULL slot |Dom| must round-trip through the
  // packed fields exactly like the mixed-radix codec's last slot.
  Table t = MakeDomainTable({4, 4, 4, 4}, 300, 45, 99);
  CheckStrategiesAgree(t);
}

TEST(PackedKernelsTest, SixtyThreeBitWidthIsEligible) {
  // Nine attributes of 7 bits each (|Dom| = 64 -> slots 0..64): 63 bits,
  // the widest packed-eligible subset.
  std::vector<ValueId> doms(9, 64);
  Table t = MakeDomainTable(doms, 500, 10, 7);
  const AttrMask all = AttrMask::All(9);
  std::vector<int> attrs = all.ToIndices();
  const auto layout = counting::MakePackedLayout(t, attrs);
  ASSERT_TRUE(layout.ok);
  EXPECT_EQ(layout.total_bits, 63);
  ExpectSameGroupCounts(
      ComputePatternCounts(t, all, RestrictionStrategy::kPacked),
      ComputePatternCounts(t, all, RestrictionStrategy::kSort), all);
  EXPECT_EQ(CountDistinctPatterns(t, all, -1, RestrictionStrategy::kPacked),
            CountDistinctPatterns(t, all, -1, RestrictionStrategy::kSort));
}

TEST(PackedKernelsTest, SixtyFourAndSixtyFiveBitWidthsFallBack) {
  // One attribute widened to 8 bits (|Dom| = 128) -> 64 bits; two -> 65.
  for (int wide : {1, 2}) {
    std::vector<ValueId> doms(9, 64);
    for (int i = 0; i < wide; ++i) doms[static_cast<size_t>(i)] = 128;
    Table t = MakeDomainTable(doms, 400, 10, 31 + static_cast<uint64_t>(wide));
    const AttrMask all = AttrMask::All(9);
    std::vector<int> attrs = all.ToIndices();
    const auto layout = counting::MakePackedLayout(t, attrs);
    EXPECT_FALSE(layout.ok);
    EXPECT_EQ(layout.total_bits, 63 + wide);
    EXPECT_FALSE(counting::PackedEligible(t, all));
    // kAuto engages the fallback and still agrees with the sort path.
    ExpectSameGroupCounts(
        ComputePatternCounts(t, all),
        ComputePatternCounts(t, all, RestrictionStrategy::kSort), all);
    EXPECT_EQ(CountDistinctPatterns(t, all),
              CountDistinctPatterns(t, all, -1, RestrictionStrategy::kSort));
    // The engine's direct path crosses the same boundary.
    CountingEngine engine(t);
    EXPECT_EQ(engine.CountPatterns(all),
              CountDistinctPatterns(t, all, -1, RestrictionStrategy::kSort));
  }
}

TEST(PackedKernelsTest, PackedOrderMatchesMixedRadixOrder) {
  // The order-isomorphism claim behind the transcoding: sorting packed
  // codes must yield the exact mixed-radix emission order, including NULL
  // slots and boundary domains.
  Table t = MakeDomainTable({3, 8, 7}, 250, 25, 17);
  const AttrMask all = AttrMask::All(3);
  ExpectSameGroupCounts(
      ComputePatternCounts(t, all, RestrictionStrategy::kPacked),
      ComputePatternCounts(t, all, RestrictionStrategy::kMixedRadix), all);
}

TEST(PackedKernelsTest, WideGenericKernelMatchesSpecializations) {
  // Arity 2 and 3 take the specialized loops, arity >= 4 the tiled
  // generic kernel; all must agree with the reference on the same table,
  // including across tile boundaries (rows > 1024).
  Table t = MakeDomainTable({5, 3, 6, 4, 7, 2}, 3000, 15, 23);
  CheckStrategiesAgree(t);
}

// ---------------------------------------------------------------------------
// SIMD-vs-scalar and morsel-vs-serial differentials. Every available ISA
// and every morsel split must be byte-identical to the forced-scalar
// serial reference — the contract that lets the dispatch table and the
// intra-subset parallelism stay invisible to every caller.

/// Forces `isa` for the scope and restores auto-detection on exit.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(counting::KernelIsa isa) {
    PCBL_CHECK(counting::SetKernelIsa(isa).ok());
  }
  ~ScopedKernelIsa() {
    PCBL_CHECK(counting::SetKernelIsaByName("auto").ok());
  }
};

std::vector<counting::KernelIsa> AvailableIsas() {
  std::vector<counting::KernelIsa> isas;
  for (counting::KernelIsa isa :
       {counting::KernelIsa::kScalar, counting::KernelIsa::kAvx2,
        counting::KernelIsa::kNeon}) {
    if (counting::KernelIsaAvailable(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Raw column data behind a SubsetColumns view: base columns plus an
/// optional row-major delta block, values drawn from `doms` (with
/// `null_percent` NULLs when > 0).
struct RawSubset {
  std::vector<std::vector<ValueId>> cols;
  std::vector<ValueId> delta;
  counting::SubsetColumns view;
  counting::PackedLayout layout;
};

RawSubset MakeRawSubset(const std::vector<int64_t>& doms, int64_t rows,
                        int64_t delta_rows, int null_percent, Rng& rng) {
  RawSubset raw;
  const int width = static_cast<int>(doms.size());
  auto draw = [&](int j) -> ValueId {
    if (null_percent > 0 &&
        rng.UniformInt(100) < static_cast<uint32_t>(null_percent)) {
      return kNullValue;
    }
    // Skew low so groups repeat across morsels.
    ValueId v = rng.UniformInt(static_cast<uint32_t>(doms[static_cast<size_t>(j)]));
    if (rng.UniformInt(2) == 0) {
      v = rng.UniformInt(
          1 + static_cast<uint32_t>(doms[static_cast<size_t>(j)]) / 8);
    }
    return v;
  };
  raw.cols.resize(static_cast<size_t>(width));
  for (int j = 0; j < width; ++j) {
    raw.cols[static_cast<size_t>(j)].resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      raw.cols[static_cast<size_t>(j)][static_cast<size_t>(r)] = draw(j);
    }
  }
  raw.delta.resize(static_cast<size_t>(delta_rows * width));
  for (int64_t r = 0; r < delta_rows; ++r) {
    for (int j = 0; j < width; ++j) {
      raw.delta[static_cast<size_t>(r * width + j)] = draw(j);
    }
  }
  raw.view.width = width;
  raw.view.rows = rows;
  for (int j = 0; j < width; ++j) {
    raw.view.cols[j] = raw.cols[static_cast<size_t>(j)].data();
    raw.view.nullable[j] = null_percent > 0;
    raw.view.delta_attr[j] = j;
  }
  if (delta_rows > 0) {
    raw.view.delta = raw.delta.data();
    raw.view.delta_rows = delta_rows;
    raw.view.delta_stride = width;
  }
  raw.layout = counting::MakePackedLayout(doms.data(), width);
  return raw;
}

std::vector<std::pair<int64_t, int64_t>> SortedGroups(
    const RawSubset& raw, int64_t groups_hint,
    const counting::MorselConfig& morsel) {
  auto groups =
      counting::PackedCountGroups(raw.view, raw.layout, groups_hint, morsel);
  std::sort(groups.begin(), groups.end());
  return groups;
}

/// Checks every available ISA x morsel split of `raw` against the
/// forced-scalar serial reference: identical sorted groups, identical
/// exact distinct counts, and the same early-exit budget behavior (which
/// must ignore the morsel config entirely).
void CheckIsaAndMorselGrid(const RawSubset& raw, const std::string& what) {
  std::vector<std::pair<int64_t, int64_t>> reference;
  int64_t exact = 0;
  {
    ScopedKernelIsa scalar(counting::KernelIsa::kScalar);
    reference = SortedGroups(raw, -1, {});
    exact = counting::PackedCountDistinct(raw.view, raw.layout, -1, {});
  }
  ASSERT_EQ(exact, static_cast<int64_t>(reference.size())) << what;
  const int64_t total = raw.view.rows + raw.view.delta_rows;
  for (counting::KernelIsa isa : AvailableIsas()) {
    ScopedKernelIsa forced(isa);
    const std::string where =
        what + " isa " + counting::KernelIsaName(isa);
    for (int threads : {1, 2, 3, 5, 8}) {
      // min_rows_per_morsel = 1 forces real splits even on small inputs.
      const counting::MorselConfig morsel{threads, 1};
      EXPECT_EQ(counting::PackedCountDistinct(raw.view, raw.layout, -1,
                                              morsel),
                exact)
          << where << " threads " << threads;
      EXPECT_EQ(SortedGroups(raw, -1, morsel), reference)
          << where << " threads " << threads;
      // A correct hint must not change anything (and makes the pass
      // rehash-free, DCHECK-asserted inside PackedCountGroups).
      EXPECT_EQ(SortedGroups(raw, exact, morsel), reference)
          << where << " threads " << threads << " hinted";
      if (counting::PackedDenseCountEligible(raw.layout, total)) {
        std::vector<std::pair<int64_t, int64_t>> items;
        EXPECT_EQ(counting::PackedCountGroupsDense(raw.view, raw.layout, -1,
                                                   &items, morsel),
                  exact)
            << where << " threads " << threads;
        EXPECT_EQ(items, reference) << where << " threads " << threads;
      }
      // Budgeted scans ignore the morsel config: byte-identical returns
      // to the serial budgeted call, early-exit contract intact.
      for (int64_t budget : {int64_t{0}, int64_t{2}, exact - 1, exact}) {
        const int64_t serial =
            counting::PackedCountDistinct(raw.view, raw.layout, budget, {});
        const int64_t got = counting::PackedCountDistinct(
            raw.view, raw.layout, budget, morsel);
        EXPECT_EQ(got, serial)
            << where << " threads " << threads << " budget " << budget;
        if (exact <= budget) {
          EXPECT_EQ(got, exact) << where << " budget " << budget;
        } else {
          EXPECT_GT(got, budget) << where << " budget " << budget;
        }
      }
    }
  }
}

TEST(KernelDispatchTest, ScalarTableIsTheReference) {
  // The scalar table is always compiled in and always available; the
  // probe never reports an ISA the binary cannot run.
  EXPECT_TRUE(counting::KernelIsaAvailable(counting::KernelIsa::kScalar));
  for (counting::KernelIsa isa : AvailableIsas()) {
    ScopedKernelIsa forced(isa);
    EXPECT_EQ(counting::ActiveKernelIsa(), isa);
    EXPECT_TRUE(counting::KernelIsaForced());
  }
  EXPECT_FALSE(counting::KernelIsaForced());
  EXPECT_EQ(counting::ActiveKernelIsa(), counting::BestKernelIsa());
}

TEST(KernelDispatchTest, SetByNameValidatesCentrally) {
  EXPECT_TRUE(counting::SetKernelIsaByName("scalar").ok());
  EXPECT_TRUE(counting::SetKernelIsaByName("AUTO").ok());
  EXPECT_FALSE(counting::SetKernelIsaByName("sse9").ok());
  EXPECT_FALSE(counting::SetKernelIsaByName("").ok());
  if (!counting::KernelIsaAvailable(counting::KernelIsa::kNeon)) {
    EXPECT_FALSE(counting::SetKernelIsaByName("neon").ok());
  }
  PCBL_CHECK(counting::SetKernelIsaByName("auto").ok());
}

TEST(KernelDispatchTest, BoundaryDomainGrid) {
  // 2^k - 1 / 2^k / 2^k + 1 domains at every kernel width class
  // (arity-2, arity-3, generic), with and without NULLs and delta rows.
  Rng rng(101);
  const std::vector<std::vector<int64_t>> grids = {
      {7, 8},          {15, 16, 17},    {3, 4, 5, 7},
      {8, 9, 15, 16, 31, 32},
  };
  for (const auto& doms : grids) {
    for (int null_percent : {0, 25}) {
      for (int64_t delta_rows : {int64_t{0}, int64_t{77}}) {
        RawSubset raw = MakeRawSubset(doms, 350, delta_rows, null_percent, rng);
        ASSERT_TRUE(raw.layout.ok);
        CheckIsaAndMorselGrid(
            raw, StrCat("width ", doms.size(), " nulls ", null_percent,
                        " delta ", delta_rows));
      }
    }
  }
}

TEST(KernelDispatchTest, WidthSweepToPackedLimit) {
  // Prefix subsets of 31 two-value attributes: widths 2..31 walk the
  // generic gather kernel all the way to a 62-bit packed code, the
  // widest class the morsel merge must reproduce byte-identically.
  Rng rng(202);
  for (int width : {2, 3, 4, 8, 16, 31}) {
    const std::vector<int64_t> doms(static_cast<size_t>(width), 2);
    RawSubset raw = MakeRawSubset(doms, 400, 33, 15, rng);
    ASSERT_TRUE(raw.layout.ok) << width;
    CheckIsaAndMorselGrid(raw, StrCat("sweep width ", width));
  }
}

TEST(KernelDispatchTest, LargeSpaceDenseFillFallback) {
  // Code spaces past the AVX2 byte-presence limit (total_bits > 15 but
  // still dense-bitmap eligible): the fused dense_fill kernels must take
  // their large-space scatter branch and stay bit-identical, including
  // at morsel splits whose partial bitmaps merge by OR.
  Rng rng(303);
  const std::vector<std::vector<int64_t>> grids = {
      {260, 260},       // ~18 bits, arity-2 scatter fallback
      {300, 110},       // ~16 bits, just past the byte-table limit
      {70, 70, 17},     // ~19 bits, arity-3 scatter fallback
  };
  for (const auto& doms : grids) {
    for (int64_t delta_rows : {int64_t{0}, int64_t{61}}) {
      RawSubset raw = MakeRawSubset(doms, 5000, delta_rows, 0, rng);
      ASSERT_TRUE(raw.layout.ok);
      ASSERT_GT(raw.layout.total_bits, 15);
      CheckIsaAndMorselGrid(
          raw, StrCat("large-space width ", doms.size(), " delta ",
                        delta_rows));
    }
  }
}

TEST(KernelDispatchTest, RandomizedDifferential) {
  // 300 random trials over width, boundary-biased domains, NULL density,
  // delta rows, and morsel splits — the fuzz arm of the grid above.
  Rng rng(20260808);
  static constexpr int64_t kDomChoices[] = {2,  3,  4,  5,  7,  8,
                                            9,  15, 16, 17, 31, 33};
  for (int trial = 0; trial < 300; ++trial) {
    const int width = 2 + static_cast<int>(rng.UniformInt(7));
    std::vector<int64_t> doms(static_cast<size_t>(width));
    for (auto& d : doms) d = kDomChoices[rng.UniformInt(12)];
    const int64_t rows = 1 + rng.UniformInt(300);
    const int64_t delta_rows = rng.UniformInt(120);
    const int null_percent =
        rng.UniformInt(2) == 0 ? 0 : static_cast<int>(rng.UniformInt(40));
    RawSubset raw = MakeRawSubset(doms, rows, delta_rows, null_percent, rng);
    if (!raw.layout.ok) continue;  // random widths can exceed 63 bits
    std::vector<std::pair<int64_t, int64_t>> reference;
    int64_t exact = 0;
    {
      ScopedKernelIsa scalar(counting::KernelIsa::kScalar);
      reference = SortedGroups(raw, -1, {});
      exact = counting::PackedCountDistinct(raw.view, raw.layout, -1, {});
    }
    ASSERT_EQ(exact, static_cast<int64_t>(reference.size())) << trial;
    const counting::MorselConfig morsel{
        1 + static_cast<int>(rng.UniformInt(8)), 1};
    for (counting::KernelIsa isa : AvailableIsas()) {
      ScopedKernelIsa forced(isa);
      ASSERT_EQ(counting::PackedCountDistinct(raw.view, raw.layout, -1,
                                              morsel),
                exact)
          << "trial " << trial << " isa " << counting::KernelIsaName(isa);
      ASSERT_EQ(SortedGroups(raw, exact, morsel), reference)
          << "trial " << trial << " isa " << counting::KernelIsaName(isa);
    }
  }
}

TEST(KernelDispatchTest, MorselCountRespectsConfig) {
  using counting::MorselCount;
  EXPECT_EQ(MorselCount(1000, {1, 1}), 1);       // one thread: serial
  EXPECT_EQ(MorselCount(1000, {4, 0}), 1);       // disabled threshold
  EXPECT_EQ(MorselCount(1000, {4, 2000}), 1);    // too small to split
  EXPECT_EQ(MorselCount(1000, {4, 500}), 2);     // rows bound the split
  EXPECT_EQ(MorselCount(100000, {4, 500}), 4);   // threads bound it
  EXPECT_EQ(MorselCount(0, {8, 1}), 1);          // empty scan stays sane
}

TEST(KernelDispatchTest, EngineMorselPlumbingIsResultNeutral) {
  // The engine-level knob (CountingEngineOptions::min_rows_per_morsel)
  // must be invisible in results: byte-identical GroupCounts for every
  // thread count and threshold.
  Table t = MakeDomainTable({7, 8, 15, 5}, 2000, 20, 77);
  const AttrMask universe = AttrMask::All(t.num_attributes());
  CountingEngine reference(t);
  for (int threads : {2, 4}) {
    CountingEngineOptions options;
    options.num_threads = threads;
    options.min_rows_per_morsel = 64;
    CountingEngine engine(t, options);
    ForEachSubsetOf(universe, [&](AttrMask s) {
      if (s.Count() < 2) return;
      ExpectSameGroupCounts(*engine.PatternCounts(s),
                            *reference.PatternCounts(s), s);
      EXPECT_EQ(engine.CountPatterns(s), reference.CountPatterns(s))
          << s.ToString();
    });
  }
}

}  // namespace
}  // namespace pcbl
