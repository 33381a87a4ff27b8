// Differential tests for the CountingEngine: every answer — exact or
// budgeted, direct-scan or rollup, serial or parallel, under any cache
// budget including 0 — must be byte-identical to the one-shot counters of
// counter.h. Exercised on NULL-heavy and high-cardinality (including
// non-64-bit-encodable) tables.
#include "pattern/counting_engine.h"

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/lattice.h"
#include "tests/differential_harness.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "util/str.h"

namespace pcbl {
namespace {

// A random categorical table with a tunable NULL rate (percent) and
// mild correlation between attribute 0 and the others.
Table RandomTable(uint64_t seed, int null_percent) {
  Rng rng(seed);
  const int attrs = 3 + static_cast<int>(rng.UniformInt(4));
  const int64_t rows = 100 + static_cast<int64_t>(rng.UniformInt(400));
  std::vector<std::string> names;
  for (int a = 0; a < attrs; ++a) names.push_back(StrCat("a", a));
  auto b = TableBuilder::Create(names);
  PCBL_CHECK(b.ok());
  std::vector<ValueId> domains(static_cast<size_t>(attrs));
  for (int a = 0; a < attrs; ++a) {
    domains[static_cast<size_t>(a)] = 2 + rng.UniformInt(5);
    for (ValueId v = 0; v < domains[static_cast<size_t>(a)]; ++v) {
      b->InternValue(a, StrCat("v", v));
    }
  }
  const uint32_t correlated = rng.UniformInt(70);
  std::vector<ValueId> codes(static_cast<size_t>(attrs));
  for (int64_t r = 0; r < rows; ++r) {
    for (int a = 0; a < attrs; ++a) {
      const ValueId dom = domains[static_cast<size_t>(a)];
      ValueId v = rng.UniformInt(dom);
      if (a > 0 && rng.UniformInt(100) < correlated) {
        v = std::min<ValueId>(codes[0], dom - 1);
      }
      if (null_percent > 0 &&
          rng.UniformInt(100) < static_cast<uint32_t>(null_percent)) {
        v = kNullValue;
      }
      codes[static_cast<size_t>(a)] = v;
    }
    PCBL_CHECK(b->AddRowCodes(codes).ok());
  }
  return b->Build();
}

// A high-cardinality table whose nullable key space overflows 64 bits
// (4 attributes with 60000-value domains): forces the sort-based
// fallback paths.
Table WideDomainTable(uint64_t seed) {
  Rng rng(seed);
  const int attrs = 4;
  constexpr ValueId kDomain = 60000;
  auto b = TableBuilder::Create({"w0", "w1", "w2", "w3"});
  PCBL_CHECK(b.ok());
  for (int a = 0; a < attrs; ++a) {
    for (ValueId v = 0; v < kDomain; ++v) {
      b->InternValue(a, std::to_string(v));
    }
  }
  std::vector<ValueId> codes(static_cast<size_t>(attrs));
  for (int64_t r = 0; r < 1500; ++r) {
    for (int a = 0; a < attrs; ++a) {
      // Half the rows share a small hot set of values so some groups
      // repeat; the rest are near-unique. A NULL sprinkle keeps the
      // restriction semantics honest.
      ValueId v = rng.UniformInt(2) == 0 ? rng.UniformInt(8)
                                         : rng.UniformInt(kDomain);
      if (rng.UniformInt(25) == 0) v = kNullValue;
      codes[static_cast<size_t>(a)] = v;
    }
    PCBL_CHECK(b->AddRowCodes(codes).ok());
  }
  return b->Build();
}

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

// Every mask of the table, through a fresh engine configured with
// `options`, must agree with the one-shot counters under several budgets.
void CheckAllMasks(const Table& t, const CountingEngineOptions& options,
                   bool prime_with_universe) {
  const AttrMask universe = AttrMask::All(t.num_attributes());
  CountingEngine engine(t, options);
  if (prime_with_universe) {
    ExpectSameGroupCounts(*engine.PatternCounts(universe),
                          ComputePatternCounts(t, universe), universe);
  }
  ForEachSubsetOf(universe, [&](AttrMask s) {
    const int64_t exact = CountDistinctPatterns(t, s);
    EXPECT_EQ(engine.CountPatterns(s), exact) << s.ToString();
    for (int64_t budget : {int64_t{0}, int64_t{3}, exact, exact + 10}) {
      const int64_t got = engine.CountPatterns(s, budget);
      if (exact <= budget) {
        EXPECT_EQ(got, exact) << s.ToString() << " budget " << budget;
      } else {
        EXPECT_GT(got, budget) << s.ToString() << " budget " << budget;
      }
    }
    ExpectSameGroupCounts(*engine.PatternCounts(s),
                          ComputePatternCounts(t, s), s);
  });
}

class CountingEngineDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountingEngineDifferentialTest, MatchesOneShotCountersNullHeavy) {
  Table t = RandomTable(GetParam(), /*null_percent=*/20);
  for (int64_t cache_budget : {int64_t{0}, int64_t{4}, int64_t{1} << 20}) {
    CountingEngineOptions options;
    options.cache_budget = cache_budget;
    CheckAllMasks(t, options, /*prime_with_universe=*/false);
    CheckAllMasks(t, options, /*prime_with_universe=*/true);
  }
}

TEST_P(CountingEngineDifferentialTest, MatchesOneShotCountersNullFree) {
  Table t = RandomTable(GetParam() + 1000, /*null_percent=*/0);
  CountingEngineOptions options;
  CheckAllMasks(t, options, /*prime_with_universe=*/true);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CountingEngineDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(CountingEngineTest, BatchMatchesSerialForAnyThreadCount) {
  Table t = RandomTable(77, /*null_percent=*/10);
  const int n = t.num_attributes();
  std::vector<AttrMask> masks;
  ForEachSubsetOf(AttrMask::All(n), [&](AttrMask s) { masks.push_back(s); });
  std::vector<int64_t> expected;
  for (AttrMask s : masks) {
    expected.push_back(CountDistinctPatterns(t, s, 25));
  }
  for (int threads : {1, 2, 8}) {
    CountingEngineOptions options;
    options.num_threads = threads;
    CountingEngine engine(t, options);
    EXPECT_EQ(engine.CountPatternsBatch(masks, 25), expected)
        << threads << " threads";
  }
}

TEST(CountingEngineTest, RollupPathIsExercisedAndExact) {
  // With the universe's PC set cached, subsets must be answered by group
  // rollup, not table rescans.
  Table t = RandomTable(123, /*null_percent=*/15);
  CountingEngine engine(t);
  engine.PatternCounts(AttrMask::All(t.num_attributes()));
  const int64_t scans_after_prime = engine.stats().direct_scans;
  ForEachSubsetOf(AttrMask::All(t.num_attributes()), [&](AttrMask s) {
    EXPECT_EQ(engine.CountPatterns(s), CountDistinctPatterns(t, s))
        << s.ToString();
  });
  EXPECT_GT(engine.stats().rollups, 0);
  EXPECT_EQ(engine.stats().direct_scans, scans_after_prime)
      << "a subset of the cached universe fell back to a table scan";
}

TEST(CountingEngineTest, ZeroCacheBudgetNeverCaches) {
  Table t = RandomTable(9, /*null_percent=*/10);
  CountingEngineOptions options;
  options.cache_budget = 0;
  CountingEngine engine(t, options);
  const AttrMask universe = AttrMask::All(t.num_attributes());
  engine.PatternCounts(universe);
  EXPECT_EQ(engine.CachedPatternCounts(universe), nullptr);
  EXPECT_EQ(engine.stats().cached_groups, 0);
  ForEachSubsetOf(universe, [&](AttrMask s) {
    EXPECT_EQ(engine.CountPatterns(s), CountDistinctPatterns(t, s));
  });
  EXPECT_EQ(engine.stats().cache_hits, 0);
  EXPECT_EQ(engine.stats().rollups, 0);
}

TEST(CountingEngineTest, EvictionIsDeterministicAndBounded) {
  Table t = RandomTable(42, /*null_percent=*/5);
  CountingEngineOptions options;
  options.cache_budget = 32;  // tiny: forces steady eviction
  CountingEngine a(t, options);
  CountingEngine b(t, options);
  ForEachSubsetOf(AttrMask::All(t.num_attributes()), [&](AttrMask s) {
    EXPECT_EQ(a.CountPatterns(s), b.CountPatterns(s));
    EXPECT_LE(a.stats().cached_groups, options.cache_budget);
  });
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
  EXPECT_EQ(a.stats().cached_groups, b.stats().cached_groups);
}

TEST(CountingEngineTest, PinnedAncestorSurvivesEvictionPressure) {
  // A pinned universe must keep serving rollups even when the sweep's
  // own inserts cycle the FIFO cache (the ExistsZeroErrorLabel pattern).
  Table t = RandomTable(55, /*null_percent=*/10);
  const AttrMask universe = AttrMask::All(t.num_attributes());
  CountingEngineOptions options;
  options.cache_budget = 16;  // far smaller than the sweep's footprint
  CountingEngine engine(t, options);
  engine.PinnedPatternCounts(universe);
  EXPECT_EQ(engine.stats().cached_groups, 0);  // pinned: budget-exempt
  const int64_t scans_after_prime = engine.stats().direct_scans;
  ForEachSubsetOf(universe, [&](AttrMask s) {
    EXPECT_EQ(engine.PatternCounts(s)->num_groups(),
              CountDistinctPatterns(t, s))
        << s.ToString();
  });
  EXPECT_NE(engine.CachedPatternCounts(universe), nullptr)
      << "the pinned entry was evicted";
  EXPECT_EQ(engine.stats().direct_scans, scans_after_prime)
      << "a subset lost its rollup ancestor and rescanned the table";
}

TEST(CountingEngineTest, DisabledEngineDelegates) {
  Table t = RandomTable(7, /*null_percent=*/10);
  CountingEngineOptions options;
  options.enabled = false;
  CountingEngine engine(t, options);
  ForEachSubsetOf(AttrMask::All(t.num_attributes()), [&](AttrMask s) {
    EXPECT_EQ(engine.CountPatterns(s), CountDistinctPatterns(t, s));
    ExpectSameGroupCounts(*engine.PatternCounts(s),
                          ComputePatternCounts(t, s), s);
  });
  EXPECT_EQ(engine.stats().sizings, 0);
}

TEST(CountingEngineTest, WideDomainsUseSortFallbackAndStayExact) {
  Table t = WideDomainTable(2021);
  const AttrMask all = AttrMask::All(4);
  // The nullable key space of all four attributes overflows 64 bits.
  ASSERT_FALSE(testing::MixedRadixEncodable(t, all));
  CountingEngine engine(t);
  ForEachSubsetOf(all, [&](AttrMask s) {
    EXPECT_EQ(engine.CountPatterns(s), CountDistinctPatterns(t, s))
        << s.ToString();
    ExpectSameGroupCounts(*engine.PatternCounts(s),
                          ComputePatternCounts(t, s), s);
  });
  // Budgeted sizing on the non-encodable mask takes the sort fallback's
  // early exit and must honour the same contract.
  const int64_t exact = CountDistinctPatterns(t, all);
  for (int64_t budget : {int64_t{0}, int64_t{10}, exact, exact + 5}) {
    const int64_t got = CountDistinctPatterns(t, all, budget);
    if (exact <= budget) {
      EXPECT_EQ(got, exact) << "budget " << budget;
    } else {
      EXPECT_GT(got, budget) << "budget " << budget;
    }
    CountingEngine fresh(t);
    const int64_t via_engine = fresh.CountPatterns(all, budget);
    if (exact <= budget) {
      EXPECT_EQ(via_engine, exact) << "budget " << budget;
    } else {
      EXPECT_GT(via_engine, budget) << "budget " << budget;
    }
  }
}

TEST(CountingEngineTest, SearchResultsIdenticalWithEngineOnAndOff) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    Table t = RandomTable(seed, /*null_percent=*/10);
    LabelSearch search(t);
    SearchOptions on;
    on.size_bound = 40;
    SearchOptions off = on;
    off.use_counting_engine = false;
    SearchOptions on_parallel = on;
    on_parallel.num_threads = 4;
    SearchOptions on_no_cache = on;
    on_no_cache.counting_cache_budget = 0;
    for (auto algo : {&LabelSearch::Naive, &LabelSearch::TopDown}) {
      const SearchResult want = (search.*algo)(off);
      for (const SearchOptions& options :
           {on, on_parallel, on_no_cache}) {
        const SearchResult got = (search.*algo)(options);
        EXPECT_EQ(got.best_attrs, want.best_attrs);
        EXPECT_EQ(got.label.size(), want.label.size());
        EXPECT_DOUBLE_EQ(got.error.max_abs, want.error.max_abs);
        EXPECT_EQ(got.stats.subsets_examined, want.stats.subsets_examined);
        EXPECT_EQ(got.stats.within_bound, want.stats.within_bound);
      }
    }
  }
}

TEST(CountingEngineTest, Fig2DemoAgreesThroughEveryPath) {
  // The paper's Fig. 2 fragment: direct, cached, and rolled-up answers
  // must all equal the one-shot counter for every attribute pair.
  Table t = workload::MakeFig2Demo();
  CountingEngine primed(t);
  primed.PatternCounts(AttrMask::All(t.num_attributes()));
  CountingEngine cold(t);
  ForEachSubsetOfSize(t.num_attributes(), 2, [&](AttrMask s) {
    const int64_t want = CountDistinctPatterns(t, s);
    EXPECT_EQ(cold.CountPatterns(s), want) << s.ToString();
    EXPECT_EQ(cold.CountPatterns(s), want) << s.ToString();  // cache hit
    EXPECT_EQ(primed.CountPatterns(s), want) << s.ToString();  // rollup
  });
}

// --- Packed-only counting ------------------------------------------------
//
// The engine counts on packed codes only: a rollup re-encodes the cached
// ancestor's groups with the child's packed layout over the effective
// domains, and a subset too wide to pack is sized directly (one-shot
// counters, or the sort fallback over base + delta rows once rows were
// appended). Every answer must equal the one-shot counters over a table
// rebuilt with the appended rows.

// Interns exactly doms[a] values per attribute, so domain sizes (and with
// them packed field widths) are chosen by the test, then adds `rows`.
Table CodesTable(const std::vector<int64_t>& doms,
                 const std::vector<std::vector<ValueId>>& rows) {
  std::vector<std::string> names;
  for (size_t a = 0; a < doms.size(); ++a) names.push_back(StrCat("a", a));
  auto b = TableBuilder::Create(names);
  PCBL_CHECK(b.ok());
  for (size_t a = 0; a < doms.size(); ++a) {
    for (int64_t v = 0; v < doms[a]; ++v) {
      b->InternValue(static_cast<int>(a), StrCat("v", v));
    }
  }
  for (const std::vector<ValueId>& row : rows) {
    PCBL_CHECK(b->AddRowCodes(row).ok());
  }
  return b->Build();
}

// `rows` rows drawn from `templates` random rows, so groups repeat and a
// cached wide subset is a useful rollup ancestor. Cells are NULL with
// `null_percent` probability; otherwise the top code of the domain with
// probability 1/4, which fills the highest bits of each packed field.
std::vector<std::vector<ValueId>> TemplateRows(
    Rng& rng, const std::vector<int64_t>& doms, int templates, int64_t rows,
    int null_percent) {
  std::vector<std::vector<ValueId>> pool;
  for (int t = 0; t < templates; ++t) {
    std::vector<ValueId> row;
    for (int64_t dom : doms) {
      ValueId v = rng.UniformInt(4) == 0
                      ? static_cast<ValueId>(dom - 1)
                      : rng.UniformInt(static_cast<uint32_t>(dom));
      if (rng.UniformInt(100) < static_cast<uint32_t>(null_percent)) {
        v = kNullValue;
      }
      row.push_back(v);
    }
    pool.push_back(std::move(row));
  }
  std::vector<std::vector<ValueId>> out;
  for (int64_t r = 0; r < rows; ++r) {
    out.push_back(pool[rng.UniformInt(static_cast<uint32_t>(templates))]);
  }
  return out;
}

// Domain sizes a table rebuilt with `rows` would get: each grown past the
// largest code present.
std::vector<int64_t> GrownDomains(
    std::vector<int64_t> doms, const std::vector<std::vector<ValueId>>& rows) {
  for (const std::vector<ValueId>& row : rows) {
    for (size_t a = 0; a < doms.size(); ++a) {
      if (!IsNull(row[a])) {
        doms[a] = std::max<int64_t>(doms[a], int64_t{row[a]} + 1);
      }
    }
  }
  return doms;
}

// Packed width of `mask` over the engine's effective domains.
int EffectiveBits(const CountingEngine& engine, AttrMask mask) {
  int bits = 0;
  for (int a : mask.ToIndices()) {
    bits += std::bit_width(
        static_cast<uint64_t>(engine.EffectiveDomainSize(a)));
  }
  return bits;
}

// Sizes `mask` once at `budget` and checks the budget contract against
// `exact`, and that the sizing took the rollup path exactly when the mask
// packs (a direct scan otherwise).
void ExpectSizing(CountingEngine& engine, AttrMask mask, int64_t budget,
                  int64_t exact, const std::string& context) {
  const CountingEngineStats before = engine.stats();
  const int64_t got = engine.CountPatterns(mask, budget);
  const std::string ctx =
      StrCat(context, " ", mask.ToString(), " budget ", budget);
  if (budget < 0 || exact <= budget) {
    EXPECT_EQ(got, exact) << ctx;
  } else {
    EXPECT_GT(got, budget) << ctx;
  }
  const bool packs = EffectiveBits(engine, mask) <= 63;
  EXPECT_EQ(engine.stats().rollups - before.rollups, packs ? 1 : 0) << ctx;
  EXPECT_EQ(engine.stats().direct_scans - before.direct_scans, packs ? 0 : 1)
      << ctx;
}

TEST(CountingEnginePackedOnlyTest, RollupMatchesRebuildAcrossFieldBounds) {
  // Base domains put fields at 2, 3, 1, 4, 2 and 3 bits. The appended
  // rows mint the next code of a0, a1 and a3 (3, 7 and 15), so those
  // effective domains cross a power of two and their fields widen by one
  // bit: a rollup layout sized from the base table would read the fresh
  // codes as NULL. 40% NULL cells make the ancestors NULL-heavy.
  Rng rng(20);
  const std::vector<int64_t> doms = {3, 7, 1, 15, 2, 5};
  const auto base_rows = TemplateRows(rng, doms, 30, 400, 40);
  auto appended = TemplateRows(rng, doms, 8, 60, 40);
  for (size_t r = 0; r < appended.size(); r += 2) {
    appended[r][0] = 3;
    appended[r][1] = 7;
    if (r % 4 == 0) appended[r][3] = 15;
  }
  const Table base = CodesTable(doms, base_rows);
  std::vector<std::vector<ValueId>> all = base_rows;
  all.insert(all.end(), appended.begin(), appended.end());
  const Table rebuilt = CodesTable(GrownDomains(doms, appended), all);
  const AttrMask universe = AttrMask::All(static_cast<int>(doms.size()));

  for (bool prime_before_append : {true, false}) {
    for (bool compact : {false, true}) {
      const std::string context =
          StrCat(prime_before_append ? "patched" : "scanned", "/",
                 compact ? "compacted" : "delta");
      CountingEngine engine(base);
      // The pinned universe is every subset's rollup ancestor: patched
      // by the append, or scanned over base + delta rows.
      if (prime_before_append) engine.PinnedPatternCounts(universe);
      engine.ApplyAppend(appended);
      if (compact) engine.CompactDeltas();
      if (!prime_before_append) engine.PinnedPatternCounts(universe);
      ASSERT_EQ(EffectiveBits(engine, universe), 18) << context;
      ExpectSameGroupCounts(*engine.PinnedPatternCounts(universe),
                            ComputePatternCounts(rebuilt, universe),
                            universe);
      ForEachSubsetOf(universe, [&](AttrMask s) {
        if (s.Count() < 2 || s == universe) return;
        const GroupCounts want = ComputePatternCounts(rebuilt, s);
        const int64_t exact = want.num_groups();
        if (exact > 0) ExpectSizing(engine, s, exact - 1, exact, context);
        ExpectSizing(engine, s, exact, exact, context);
        ExpectSameGroupCounts(*engine.PatternCounts(s), want, s);
      });
    }
  }
}

TEST(CountingEnginePackedOnlyTest, ChildrenAcrossThePackedWidthLimit) {
  // Six 10-bit fields plus one of 2, 3 or 4 bits put children of the
  // (70-bit, unpackable) universe at 62, 63 and 64 bits; adding a9 gives
  // 65 and 66. Packed children roll up from the universe; wider ones are
  // sized directly, by the one-shot counters on the base table and by
  // the sort fallback once rows were appended (a9's fresh code widens
  // its field to 2 bits there).
  Rng rng(21);
  const std::vector<int64_t> doms = {1023, 1023, 1023, 1023, 1023,
                                     1023, 3,    7,    15,   1};
  const auto base_rows = TemplateRows(rng, doms, 25, 300, 15);
  auto appended = TemplateRows(rng, doms, 6, 40, 15);
  for (size_t r = 0; r < appended.size(); r += 3) appended[r][9] = 1;
  const AttrMask wide = AttrMask::FromIndices({0, 1, 2, 3, 4, 5});
  const std::vector<AttrMask> children = {
      wide.With(6), wide.With(7), wide.With(8), wide.With(8).With(9),
      wide.With(7).With(9)};
  const AttrMask universe = AttrMask::All(static_cast<int>(doms.size()));
  const Table base = CodesTable(doms, base_rows);

  for (bool append : {false, true}) {
    std::vector<std::vector<ValueId>> all = base_rows;
    if (append) all.insert(all.end(), appended.begin(), appended.end());
    const Table rebuilt =
        CodesTable(append ? GrownDomains(doms, appended) : doms, all);
    const std::string context = append ? "appended" : "base";
    std::set<int> widths;
    for (AttrMask child : children) {
      const GroupCounts want = ComputePatternCounts(rebuilt, child);
      const int64_t exact = want.num_groups();
      ASSERT_GT(exact, 1) << context;
      for (int64_t budget : {int64_t{-1}, int64_t{0}, exact - 1, exact}) {
        CountingEngine engine(base);
        if (append) engine.ApplyAppend(appended);
        engine.PinnedPatternCounts(universe);
        ASSERT_GT(EffectiveBits(engine, universe), 63) << context;
        widths.insert(EffectiveBits(engine, child));
        ExpectSizing(engine, child, budget, exact, context);
        if (budget < 0 || budget == exact) {
          ExpectSameGroupCounts(*engine.PatternCounts(child), want, child);
        }
      }
    }
    for (int bits : {62, 63, 64, 65}) {
      EXPECT_TRUE(widths.contains(bits)) << context << ": no " << bits
                                         << "-bit child";
    }
  }
}

}  // namespace
}  // namespace pcbl
