// Differential and golden tests for FullPatternIndex (P_A, the pattern
// set every candidate label is ranked against).
//
// The oracle below is the direct definition of P_A: copy the NULL-free
// rows, sort them lexicographically, count runs, order by count
// descending with ties in key order; appends merge the existing groups
// with the fresh rows the same way. FullPatternIndex builds P_A through
// the counting layer's PC-set kernels (packed, mixed-radix or sort) and
// merges appends over packed codes, so every case here pins one of those
// routes — including the 63/64-bit packed boundary, key spaces past
// int64, and appends whose fresh codes widen a field — to the oracle
// byte for byte. The golden digests pin P_A of three synthetic datasets
// to the bytes the lexicographic build produced.
#include "pattern/full_pattern_index.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pattern/packed_codec.h"
#include "relation/table.h"
#include "tests/differential_harness.h"
#include "util/str.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

// --- the oracle -------------------------------------------------------------

struct OracleIndex {
  int width = 0;
  std::vector<ValueId> codes;  // flat, num_patterns * width
  std::vector<int64_t> counts;
  int64_t rows_indexed = 0;
  int64_t rows_skipped = 0;
};

// Sorts (key, count) entries lexicographically, sums equal keys and
// emits them count-descending, ties in key order.
void OracleEmit(std::vector<std::pair<const ValueId*, int64_t>> entries,
                size_t width, OracleIndex* out) {
  std::sort(entries.begin(), entries.end(),
            [width](const auto& a, const auto& b) {
              return std::lexicographical_compare(
                  a.first, a.first + width, b.first, b.first + width);
            });
  std::vector<std::pair<const ValueId*, int64_t>> merged;
  for (const auto& e : entries) {
    if (!merged.empty() &&
        std::equal(merged.back().first, merged.back().first + width,
                   e.first)) {
      merged.back().second += e.second;
    } else {
      merged.push_back(e);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::vector<ValueId> codes;
  std::vector<int64_t> counts;
  for (const auto& [key, count] : merged) {
    codes.insert(codes.end(), key, key + width);
    counts.push_back(count);
  }
  out->codes = std::move(codes);
  out->counts = std::move(counts);
}

bool RowHasNull(const ValueId* row, size_t width) {
  return std::any_of(row, row + width, IsNull);
}

// Folds row-major `rows` into `index`.
void OracleAppend(const ValueId* rows, int64_t num_rows,
                  OracleIndex* index) {
  const size_t width = static_cast<size_t>(index->width);
  std::vector<std::pair<const ValueId*, int64_t>> entries;
  for (size_t g = 0; g < index->counts.size(); ++g) {
    entries.emplace_back(index->codes.data() + g * width, index->counts[g]);
  }
  bool fresh = false;
  for (int64_t r = 0; r < num_rows; ++r) {
    const ValueId* row = rows + static_cast<size_t>(r) * width;
    if (RowHasNull(row, width)) {
      ++index->rows_skipped;
      continue;
    }
    ++index->rows_indexed;
    if (width > 0) entries.emplace_back(row, 1);
    fresh = true;
  }
  if (fresh) OracleEmit(std::move(entries), width, index);
}

std::vector<ValueId> RowMajor(const Table& table, int64_t from, int64_t to) {
  std::vector<ValueId> rows;
  for (int64_t r = from; r < to; ++r) {
    for (int a = 0; a < table.num_attributes(); ++a) {
      rows.push_back(table.value(r, a));
    }
  }
  return rows;
}

OracleIndex OracleBuild(const Table& table) {
  OracleIndex index;
  index.width = table.num_attributes();
  const std::vector<ValueId> rows = RowMajor(table, 0, table.num_rows());
  OracleAppend(rows.data(), table.num_rows(), &index);
  return index;
}

void ExpectSame(const FullPatternIndex& got, const OracleIndex& want,
                const std::string& context) {
  ASSERT_EQ(got.width(), want.width) << context;
  EXPECT_EQ(got.rows_indexed(), want.rows_indexed) << context;
  EXPECT_EQ(got.rows_skipped(), want.rows_skipped) << context;
  ASSERT_EQ(got.num_patterns(), static_cast<int64_t>(want.counts.size()))
      << context;
  const size_t width = static_cast<size_t>(want.width);
  for (int64_t i = 0; i < got.num_patterns(); ++i) {
    const size_t g = static_cast<size_t>(i);
    ASSERT_EQ(got.count(i), want.counts[g]) << context << " pattern " << i;
    ASSERT_TRUE(std::equal(got.codes(i), got.codes(i) + width,
                           want.codes.data() + g * width))
        << context << " pattern " << i;
  }
}

void ExpectSame(const FullPatternIndex& got, const FullPatternIndex& want,
                const std::string& context) {
  OracleIndex flat;
  flat.width = want.width();
  flat.rows_indexed = want.rows_indexed();
  flat.rows_skipped = want.rows_skipped();
  for (int64_t i = 0; i < want.num_patterns(); ++i) {
    flat.codes.insert(flat.codes.end(), want.codes(i),
                      want.codes(i) + want.width());
    flat.counts.push_back(want.count(i));
  }
  ExpectSame(got, flat, context);
}

// --- table helpers ----------------------------------------------------------

// A table over `doms.size()` attributes whose dictionaries hold exactly
// doms[a] values (so DomainSize, and with it the kernel the counting
// layer picks, is fixed by the caller), filled with `rows` of codes.
Table TableFromCodes(const std::vector<int64_t>& doms,
                     const std::vector<std::vector<ValueId>>& rows) {
  std::vector<std::string> names;
  for (size_t a = 0; a < doms.size(); ++a) {
    names.push_back(StrCat("a", a));
  }
  auto builder = TableBuilder::Create(names);
  PCBL_CHECK(builder.ok());
  for (size_t a = 0; a < doms.size(); ++a) {
    for (int64_t v = 0; v < doms[a]; ++v) {
      builder->InternValue(static_cast<int>(a), StrCat("v", v));
    }
  }
  for (const auto& row : rows) PCBL_CHECK(builder->AddRowCodes(row).ok());
  return builder->Build();
}

// Rows [from, to) of `table` as a table over the same code space.
Table Slice(const Table& table, int64_t from, int64_t to) {
  std::vector<int64_t> doms;
  for (int a = 0; a < table.num_attributes(); ++a) {
    doms.push_back(table.DomainSize(a));
  }
  std::vector<std::vector<ValueId>> rows;
  for (int64_t r = from; r < to; ++r) {
    std::vector<ValueId> row;
    for (int a = 0; a < table.num_attributes(); ++a) {
      row.push_back(table.value(r, a));
    }
    rows.push_back(std::move(row));
  }
  return TableFromCodes(doms, rows);
}

// Seeded rows: attribute a draws from [0, doms[a]), skewed towards small
// codes so full patterns repeat and counts tie, and is NULL with
// probability null_percent[a] / 100.
std::vector<std::vector<ValueId>> RandomRows(
    uint64_t seed, int64_t num_rows, const std::vector<int64_t>& doms,
    const std::vector<int>& null_percent) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<ValueId>> rows;
  for (int64_t r = 0; r < num_rows; ++r) {
    std::vector<ValueId> row;
    for (size_t a = 0; a < doms.size(); ++a) {
      if (static_cast<int>(rng() % 100) < null_percent[a]) {
        row.push_back(kNullValue);
      } else {
        const uint64_t d = static_cast<uint64_t>(doms[a]);
        row.push_back(static_cast<ValueId>(std::min(rng() % d, rng() % d)));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

int PackedBits(const Table& table) {
  std::vector<int> attrs;
  for (int a = 0; a < table.num_attributes(); ++a) attrs.push_back(a);
  return counting::MakePackedLayout(table, attrs).total_bits;
}

bool MixedRadixFits(const Table& table) {
  return testing::MixedRadixEncodable(
      table, AttrMask::All(table.num_attributes()));
}

void CheckBuild(const Table& table, const std::string& context) {
  ExpectSame(FullPatternIndex::Build(table), OracleBuild(table), context);
}

// Build(base) + ApplyAppend over `steps` chunks of the remaining rows of
// `full` must equal Build(full) and the oracle's merge.
void CheckAppend(const Table& full, int64_t base_rows, int steps,
                 const std::string& context) {
  FullPatternIndex index = FullPatternIndex::Build(Slice(full, 0, base_rows));
  OracleIndex oracle = OracleBuild(Slice(full, 0, base_rows));
  const int64_t delta = full.num_rows() - base_rows;
  int64_t at = base_rows;
  for (int s = 0; s < steps; ++s) {
    const int64_t to = s + 1 == steps ? full.num_rows()
                                      : base_rows + delta * (s + 1) / steps;
    const std::vector<ValueId> rows = RowMajor(full, at, to);
    index.ApplyAppend(rows.data(), to - at);
    OracleAppend(rows.data(), to - at, &oracle);
    ExpectSame(index, oracle,
               context + " step " + std::to_string(s) + " vs oracle");
    at = to;
  }
  ExpectSame(index, FullPatternIndex::Build(full), context + " vs rebuild");
}

// --- Build ------------------------------------------------------------------

TEST(FullPatternIndexDifferentialTest, RandomTablesMatchOracle) {
  for (const int width : {0, 1, 2, 3, 17}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      std::vector<int64_t> doms;
      std::vector<int> nulls;
      for (int a = 0; a < width; ++a) {
        doms.push_back(a < 3 ? 2 + a : 5 + (a * 7) % 13);
        // Every other column NULL-heavy; some NULL-free.
        nulls.push_back(a % 2 == 0 ? 0 : static_cast<int>(10 * seed));
      }
      const Table table =
          TableFromCodes(doms, RandomRows(seed * 31 + width, 300, doms,
                                          nulls));
      CheckBuild(table, "width " + std::to_string(width) + " seed " +
                            std::to_string(seed));
    }
  }
}

TEST(FullPatternIndexDifferentialTest, EmptyAndAllNullTables) {
  for (const int width : {0, 1, 2, 5}) {
    const std::vector<int64_t> doms(static_cast<size_t>(width), 3);
    CheckBuild(TableFromCodes(doms, {}), "empty width " +
                                             std::to_string(width));
    if (width == 0) continue;
    std::vector<std::vector<ValueId>> rows(
        4, std::vector<ValueId>(static_cast<size_t>(width), 1));
    for (size_t r = 0; r < rows.size(); ++r) {
      rows[r][r % rows[r].size()] = kNullValue;
    }
    const Table table = TableFromCodes(doms, rows);
    CheckBuild(table, "every row NULL width " + std::to_string(width));
    EXPECT_EQ(FullPatternIndex::Build(table).num_patterns(), 0);
  }
}

TEST(FullPatternIndexDifferentialTest, PackedBoundaryDomains) {
  // 21 attributes of domain 4: 3 bits each (the NULL slot is 4), 63 bits,
  // the widest packed layout. 16 attributes of domain 8: 4 bits each, 64
  // bits, one past it — mixed-radix (9^16 fits an int64).
  struct Case {
    int attrs;
    int64_t dom;
    int bits;
    bool packed;
  };
  for (const Case c : {Case{21, 4, 63, true}, Case{16, 8, 64, false}}) {
    const std::vector<int64_t> doms(static_cast<size_t>(c.attrs), c.dom);
    std::vector<int> nulls(static_cast<size_t>(c.attrs), 0);
    nulls[3] = 20;
    const Table table = TableFromCodes(doms, RandomRows(7, 500, doms, nulls));
    ASSERT_EQ(PackedBits(table), c.bits);
    ASSERT_EQ(c.bits <= 63, c.packed);
    ASSERT_TRUE(MixedRadixFits(table));
    CheckBuild(table, std::to_string(c.bits) + "-bit layout");
  }
}

TEST(FullPatternIndexDifferentialTest, KeySpacePastInt64UsesSortFallback) {
  // 24 attributes of domain 7: 72 packed bits and 8^24 = 2^72 nullable
  // keys, so neither the packed nor the mixed-radix kernel applies.
  const std::vector<int64_t> doms(24, 7);
  std::vector<int> nulls(24, 0);
  nulls[0] = 15;
  const Table table = TableFromCodes(doms, RandomRows(11, 400, doms, nulls));
  ASSERT_GT(PackedBits(table), 63);
  ASSERT_FALSE(MixedRadixFits(table));
  CheckBuild(table, "sort fallback");
}

// --- ApplyAppend ------------------------------------------------------------

TEST(FullPatternIndexDifferentialTest, AppendEqualsRebuild) {
  // Base rows draw from 3 values per attribute; the delta draws from 9,
  // so fresh codes 3..8 cross the 2-bit field boundary of codes 0..2.
  // NULL cells in both.
  const std::vector<int64_t> base_doms = {3, 3, 3, 3};
  const std::vector<int64_t> full_doms = {9, 9, 9, 9};
  const std::vector<int> nulls = {10, 0, 5, 0};
  std::vector<std::vector<ValueId>> rows =
      RandomRows(3, 400, base_doms, nulls);
  const std::vector<std::vector<ValueId>> delta =
      RandomRows(4, 200, full_doms, nulls);
  rows.insert(rows.end(), delta.begin(), delta.end());
  const Table full = TableFromCodes(full_doms, rows);
  for (const int steps : {1, 2, 7}) {
    CheckAppend(full, 400, steps, std::to_string(steps) + " steps");
  }
}

TEST(FullPatternIndexDifferentialTest, AppendOfOnlyNullRows) {
  const std::vector<int64_t> doms = {4, 4, 4};
  std::vector<std::vector<ValueId>> rows =
      RandomRows(5, 100, doms, {0, 0, 0});
  for (int r = 0; r < 10; ++r) rows.push_back({1, kNullValue, 2});
  CheckAppend(TableFromCodes(doms, rows), 100, 2, "NULL delta");
}

TEST(FullPatternIndexDifferentialTest, AppendPastSixtyThreeBits) {
  // 21 attributes whose base codes stay below 4 (3 bits per field, 63
  // bits): the packed merge runs. A delta with code 7 in one attribute
  // needs 4 bits there, 64 in total, so that merge goes lexicographic;
  // later deltas then start from a 64-bit P_A.
  const std::vector<int64_t> base_doms(21, 4);
  std::vector<int64_t> full_doms(21, 4);
  full_doms[5] = 8;
  const std::vector<int> nulls(21, 0);
  std::vector<std::vector<ValueId>> rows =
      RandomRows(9, 300, base_doms, nulls);
  const std::vector<std::vector<ValueId>> tail =
      RandomRows(10, 60, base_doms, nulls);
  rows.insert(rows.end(), tail.begin(), tail.begin() + 30);
  std::vector<ValueId> wide = rows.front();
  wide[5] = 7;
  rows.push_back(wide);
  rows.push_back(wide);
  rows.insert(rows.end(), tail.begin() + 30, tail.end());
  const Table full = TableFromCodes(full_doms, rows);
  ASSERT_EQ(PackedBits(full), 64);
  for (const int steps : {1, 3}) {
    CheckAppend(full, 300, steps, std::to_string(steps) + " steps");
  }
}

TEST(FullPatternIndexDifferentialTest, AppendOntoSortFallbackIndex) {
  const std::vector<int64_t> doms(24, 7);
  std::vector<int> nulls(24, 0);
  nulls[2] = 10;
  const Table full = TableFromCodes(doms, RandomRows(12, 500, doms, nulls));
  CheckAppend(full, 350, 2, "sort fallback");
}

// --- goldens ----------------------------------------------------------------

// FNV-1a 64 over width, |P_A|, rows indexed and skipped, then every code
// (4 bytes) and count (8 bytes), little-endian, in index order.
uint64_t Digest(const FullPatternIndex& index) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<uint64_t>(index.width()), 4);
  mix(static_cast<uint64_t>(index.num_patterns()), 8);
  mix(static_cast<uint64_t>(index.rows_indexed()), 8);
  mix(static_cast<uint64_t>(index.rows_skipped()), 8);
  for (int64_t i = 0; i < index.num_patterns(); ++i) {
    for (int a = 0; a < index.width(); ++a) mix(index.codes(i)[a], 4);
    mix(static_cast<uint64_t>(index.count(i)), 8);
  }
  return h;
}

struct Golden {
  std::string name;
  Table table;
  int64_t num_patterns;
  uint64_t digest;
};

std::vector<Golden> Goldens() {
  return {
      {"Compas8000", workload::MakeCompas(8000, 2021).value(), 6578,
       0xc593cf1503db0bd2ULL},
      {"CreditCard1000", workload::MakeCreditCard(1000, 2021).value(), 939,
       0xe38a200551921175ULL},
      {"BlueNile",
       workload::MakeBlueNile(workload::kBlueNileRows, 2021).value(), 23446,
       0x3666d585b7fba32aULL},
  };
}

TEST(FullPatternIndexGoldenTest, DigestsMatchLexicographicBuild) {
  for (const Golden& g : Goldens()) {
    const FullPatternIndex index = FullPatternIndex::Build(g.table);
    EXPECT_EQ(index.num_patterns(), g.num_patterns) << g.name;
    EXPECT_EQ(Digest(index), g.digest)
        << g.name << " digest 0x" << std::hex << Digest(index);
    // The append catch-up path reaches the same bytes: the first 60% of
    // the rows built, the rest appended in two steps.
    const int64_t n = g.table.num_rows();
    FullPatternIndex caught_up =
        FullPatternIndex::Build(Slice(g.table, 0, n * 6 / 10));
    for (const auto& [from, to] : {std::pair{n * 6 / 10, n * 8 / 10},
                                   std::pair{n * 8 / 10, n}}) {
      const std::vector<ValueId> rows = RowMajor(g.table, from, to);
      caught_up.ApplyAppend(rows.data(), to - from);
    }
    EXPECT_EQ(Digest(caught_up), g.digest) << g.name << " append catch-up";
  }
}

}  // namespace
}  // namespace pcbl
