// Differential tests for sibling refinement: a budgeted gen() child
// S ∪ {a} whose parent S is cached and NULL-free is sized from the
// parent's groups in one tile scan shared with its siblings
// (counting::RefineSiblings). Every answer must equal the one-shot
// counters over a from-scratch table — over-budget sizes included — and
// the engine's stats must not depend on the thread count.
//
// The workload covers each planning branch: NULLs in the child
// attribute; child domains too wide for the dense (group, slot) sink,
// so the hash sink runs, for children over budget and for children that
// complete; parents with NULLs (in the base rows or only in
// appended rows), which must take the direct scan — refining them would
// miss rows whose parent restriction has arity < 2; parents evicted or
// never cached under tiny cache budgets; appended rows, both in the
// delta block and compacted; exact budgets, and parents over the budget
// (most parents at budgets 0-2), which never refine.
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "pattern/counter.h"
#include "pattern/counting_engine.h"
#include "pattern/counting_service.h"
#include "pattern/lattice.h"
#include "tests/differential_harness.h"
#include "util/rng.h"
#include "util/str.h"

namespace pcbl {
namespace {

using testing::DifferentialHarness;
using testing::DifferentialWorkload;
using testing::ExpectSameGroupCounts;

// The workload shapes of the grid.
enum class Shape {
  kNullFreeParents,      // every cached parent refines its children
  kBaseNullParents,      // p1 holds NULLs in the base rows
  kAppendedNullParents,  // p1 holds NULLs only in appended rows
  kFunctionalChild,      // a hash-sink child completes within budget
};

// Attributes p0..p3 form the parents (tiny domains, NULL-free unless the
// shape puts NULLs into p1); `child` is a nullable 5-value attribute
// (dense sink); `wide` is a nullable ~4000-value attribute whose
// (group, slot) space fails the dense gate (hash sink, always over
// budget). Appended rows draw one fresh value per attribute.
DifferentialWorkload NullShapeWorkload(uint64_t seed, Shape shape) {
  Rng rng(seed);
  DifferentialWorkload workload;
  workload.attribute_names = {"p0", "p1", "p2", "p3", "child", "wide"};
  const uint32_t parent_domains[4] = {2, 3, 2, 4};
  auto make_rows = [&](int64_t count, bool appended) {
    const uint32_t fresh = appended ? 1 : 0;
    const uint32_t p1_null_percent =
        shape == Shape::kBaseNullParents && !appended       ? 10
        : shape == Shape::kAppendedNullParents && appended ? 30
                                                           : 0;
    std::vector<std::vector<std::string>> rows;
    for (int64_t r = 0; r < count; ++r) {
      std::vector<std::string> row;
      for (int a = 0; a < 4; ++a) {
        const bool null_here =
            a == 1 && rng.UniformInt(100) < p1_null_percent;
        row.push_back(null_here
                          ? ""
                          : StrCat("v", rng.UniformInt(parent_domains[a] +
                                                       fresh)));
      }
      row.push_back(rng.UniformInt(100) < 15
                        ? ""
                        : StrCat("c", rng.UniformInt(5 + fresh)));
      row.push_back(rng.UniformInt(100) < 10
                        ? ""
                        : StrCat("w", rng.UniformInt(4000 + fresh)));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  workload.base_rows = make_rows(1200, false);
  workload.append_rows = make_rows(60, true);
  return workload;
}

// q0 x q1 give 30 parent groups; `fd` is a function of the group except
// in a few rows (about 40 values, so 6 slot bits: 30 x 64 slots fail the
// dense gate at 300 rows) and is NULL in a few more, so (q0, q1, fd)
// completes within budget 60 on the hash sink; `noise` is a nullable
// 3-value attribute.
DifferentialWorkload FunctionalWorkload(uint64_t seed) {
  Rng rng(seed);
  DifferentialWorkload workload;
  workload.attribute_names = {"q0", "q1", "fd", "noise"};
  auto make_rows = [&](int64_t count, bool appended) {
    const uint32_t fresh = appended ? 1 : 0;
    std::vector<std::vector<std::string>> rows;
    for (int64_t r = 0; r < count; ++r) {
      const uint32_t q0 = rng.UniformInt(5 + fresh);
      const uint32_t q1 = rng.UniformInt(6);
      const uint32_t dice = rng.UniformInt(100);
      std::string fd = dice < 2   ? ""
                       : dice < 6 ? StrCat("x", rng.UniformInt(20))
                                  : StrCat("f", (q0 * 6 + q1) * 7 % 50);
      rows.push_back({StrCat("v", q0), StrCat("v", q1), std::move(fd),
                      rng.UniformInt(10) == 0
                          ? ""
                          : StrCat("n", rng.UniformInt(3))});
    }
    return rows;
  };
  workload.base_rows = make_rows(300, false);
  workload.append_rows = make_rows(20, true);
  return workload;
}

enum class Appends { kNone, kDelta, kCompacted };

// One-shot answers over a table, per mask.
struct Reference {
  int64_t rows = 0;
  std::unordered_map<uint64_t, GroupCounts> counts;
  // (mask bits, budget) -> CountDistinctPatterns.
  std::unordered_map<uint64_t, std::unordered_map<int64_t, int64_t>> sizes;
};

constexpr int64_t kBudgets[] = {-1, 0, 1, 2, 60};

Reference ComputeReference(const Table& t) {
  Reference ref;
  ref.rows = t.num_rows();
  ForEachSubsetOf(AttrMask::All(t.num_attributes()), [&](AttrMask s) {
    ref.counts.emplace(s.bits(), ComputePatternCounts(t, s));
    for (int64_t budget : kBudgets) {
      ref.sizes[s.bits()][budget] = CountDistinctPatterns(t, s, budget);
    }
  });
  return ref;
}

// Sizes `masks` in one batch and checks every answer. A mask cached
// before the batch answers with its exact size; every other one must
// match CountDistinctPatterns, over-budget answers included.
void SizeAndCheck(CountingEngine& engine, const std::vector<AttrMask>& masks,
                  int64_t budget, const Reference& ref,
                  const std::string& context, std::vector<int64_t>* sizes) {
  std::vector<bool> cached;
  for (AttrMask m : masks) {
    cached.push_back(engine.CachedPatternCounts(m) != nullptr);
  }
  std::vector<std::shared_ptr<const GroupCounts>> counts;
  *sizes = engine.CountPatternsBatchCollect(masks, budget, &counts);
  ASSERT_EQ(sizes->size(), masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    const std::string ctx = StrCat(context, " ", masks[i].ToString());
    const GroupCounts& want = ref.counts.at(masks[i].bits());
    EXPECT_EQ((*sizes)[i], cached[i]
                               ? want.num_groups()
                               : ref.sizes.at(masks[i].bits()).at(budget))
        << ctx;
    if (budget < 0 || want.num_groups() <= budget) {
      ASSERT_NE(counts[i], nullptr) << ctx;
    }
    if (counts[i] != nullptr) ExpectSameGroupCounts(*counts[i], want, ctx);
  }
}

// Drives one configuration: search-shaped waves (the children of every
// within-budget mask of the previous wave, as TopDown generates them),
// then a sweep that caches each parent exactly and sizes all of its
// children in one batch. Returns the engine's final stats.
CountingEngineStats RunConfig(const DifferentialHarness& harness,
                              const DifferentialWorkload& workload,
                              const Reference& ref, Appends appends,
                              int64_t budget, int threads,
                              int64_t cache_budget,
                              const std::string& context) {
  CountingEngineOptions options;
  options.num_threads = threads;
  options.cache_budget = cache_budget;
  options.delta_compact_threshold = 0;
  auto service = std::make_shared<CountingService>(harness.base(), options);
  if (appends != Appends::kNone) {
    EXPECT_TRUE(service->AppendStrings(workload.append_rows).ok());
  }
  std::lock_guard<std::mutex> lock(service->mutex());
  CountingEngine& engine = service->engine();
  if (appends == Appends::kCompacted) engine.CompactDeltas();
  EXPECT_EQ(engine.total_rows(), ref.rows) << context;
  const int n = harness.reference().num_attributes();

  std::vector<int64_t> sizes;
  std::vector<AttrMask> frontier = Gen(AttrMask(), n);
  for (int wave = 1; !frontier.empty(); ++wave) {
    std::vector<AttrMask> masks;
    for (AttrMask s : frontier) {
      for (AttrMask c : Gen(s, n)) masks.push_back(c);
    }
    SizeAndCheck(engine, masks, budget, ref,
                 StrCat(context, " wave ", wave), &sizes);
    frontier.clear();
    for (size_t i = 0; i < masks.size(); ++i) {
      if (budget < 0 || sizes[i] <= budget) frontier.push_back(masks[i]);
    }
  }

  ForEachSubsetOf(AttrMask::All(n), [&](AttrMask parent) {
    const std::vector<AttrMask> children = Gen(parent, n);
    if (parent.Count() < 2 || children.empty()) return;
    engine.PatternCounts(parent);
    SizeAndCheck(engine, children, budget, ref,
                 StrCat(context, " children of ", parent.ToString()),
                 &sizes);
  });
  return engine.stats();
}

void ExpectSameStats(const CountingEngineStats& got,
                     const CountingEngineStats& want,
                     const std::string& context) {
  EXPECT_EQ(got.sizings, want.sizings) << context;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << context;
  EXPECT_EQ(got.rollups, want.rollups) << context;
  EXPECT_EQ(got.direct_scans, want.direct_scans) << context;
  EXPECT_EQ(got.full_scans, want.full_scans) << context;
  EXPECT_EQ(got.evictions, want.evictions) << context;
  EXPECT_EQ(got.cached_groups, want.cached_groups) << context;
  EXPECT_EQ(got.cached_bytes, want.cached_bytes) << context;
}

class CountingEngineRefineTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, Shape>> {};

TEST_P(CountingEngineRefineTest, MatchesOneShotCountersAcrossConfigs) {
  const auto [seed, shape] = GetParam();
  const DifferentialWorkload workload =
      shape == Shape::kFunctionalChild ? FunctionalWorkload(seed)
                                       : NullShapeWorkload(seed, shape);
  const DifferentialHarness harness(workload);
  if (shape == Shape::kFunctionalChild) {
    // (q0, q1, fd) must complete within budget 60 on the hash sink.
    const Table& t = harness.base();
    const int64_t groups =
        CountDistinctPatterns(t, AttrMask::FromIndices({0, 1}));
    ASSERT_GT(groups << std::bit_width(t.DomainSize(2)),
              2 * t.num_rows() + 1024);
    ASSERT_LE(CountDistinctPatterns(t, AttrMask::FromIndices({0, 1, 2})), 60);
  }
  const Reference base_ref = ComputeReference(harness.base());
  const Reference full_ref = ComputeReference(harness.reference());
  for (Appends appends :
       {Appends::kNone, Appends::kDelta, Appends::kCompacted}) {
    const Reference& ref = appends == Appends::kNone ? base_ref : full_ref;
    for (int64_t budget : kBudgets) {
      for (int64_t cache_budget : {int64_t{1} << 20, int64_t{24},
                                   int64_t{4}}) {
        const std::string context =
            StrCat("appends ", static_cast<int>(appends), " budget ", budget,
                   " cache ", cache_budget);
        auto run = [&](int threads, const std::string& arm) {
          return RunConfig(harness, workload, ref, appends, budget, threads,
                           cache_budget, StrCat(context, " ", arm));
        };
        const CountingEngineStats serial = run(1, "threads 1");
        ExpectSameStats(run(4, "threads 4"), serial,
                        StrCat(context, " threads 4"));
        // A repeated run (fresh service, same batches) repeats the stats.
        ExpectSameStats(run(4, "repeat"), serial,
                        StrCat(context, " repeat"));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CountingEngineRefineTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2}),
                       ::testing::Values(Shape::kNullFreeParents,
                                         Shape::kBaseNullParents,
                                         Shape::kAppendedNullParents,
                                         Shape::kFunctionalChild)));

}  // namespace
}  // namespace pcbl
