// Randomized differential tests over small tables: the two search
// algorithms, the two error-scan modes, and the estimation invariants the
// paper's definitions imply must agree with each other (and with brute
// force) on arbitrary data, not just the curated workloads.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/label.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/full_pattern_index.h"
#include "pattern/pattern.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "util/str.h"

namespace pcbl {
namespace {

// A random categorical table: 3-6 attributes, domains of 2-5 values,
// mildly correlated (attribute i copies attribute 0 with probability
// correlated/100), optional NULL sprinkle.
Table RandomTable(uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  const int attrs = 3 + static_cast<int>(rng.UniformInt(4));
  const int64_t rows = 50 + static_cast<int64_t>(rng.UniformInt(450));
  std::vector<std::string> names;
  for (int a = 0; a < attrs; ++a) names.push_back(StrCat("a", a));
  auto b = TableBuilder::Create(names);
  PCBL_CHECK(b.ok());
  std::vector<ValueId> domains(static_cast<size_t>(attrs));
  for (int a = 0; a < attrs; ++a) {
    domains[static_cast<size_t>(a)] = 2 + rng.UniformInt(4);
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
      if (with_nulls && rng.UniformInt(20) == 0) v = kNullValue;
      codes[static_cast<size_t>(a)] = v;
    }
    PCBL_CHECK(b->AddRowCodes(codes).ok());
  }
  return b->Build();
}

class DifferentialTest : public testing::TestWithParam<uint64_t> {};

// The naive algorithm enumerates every within-bound subset; the top-down
// heuristic must discover exactly the same within-bound set (it prunes
// only the *candidate list*, not the exploration of fitting subsets).
TEST_P(DifferentialTest, WithinBoundSubsetCountsAgree) {
  for (bool with_nulls : {false, true}) {
    Table t = RandomTable(GetParam(), with_nulls);
    LabelSearch search(t);
    for (int64_t bound : {5, 20, 80}) {
      SearchOptions options;
      options.size_bound = bound;
      SearchResult naive = search.Naive(options);
      SearchResult top_down = search.TopDown(options);
      EXPECT_EQ(naive.stats.within_bound, top_down.stats.within_bound)
          << "bound=" << bound << " nulls=" << with_nulls;
      EXPECT_LE(top_down.stats.subsets_examined,
                naive.stats.subsets_examined);
    }
  }
}

// The naive algorithm ranks a superset of the heuristic's candidates, so
// its optimum can only be at least as good; and both must return labels
// within the bound.
TEST_P(DifferentialTest, NaiveNeverWorseThanTopDown) {
  Table t = RandomTable(GetParam() ^ 0xabcdef, false);
  LabelSearch search(t);
  for (int64_t bound : {5, 20, 80}) {
    SearchOptions options;
    options.size_bound = bound;
    SearchResult naive = search.Naive(options);
    SearchResult top_down = search.TopDown(options);
    EXPECT_LE(naive.error.max_abs, top_down.error.max_abs + 1e-9)
        << "bound=" << bound;
    EXPECT_LE(naive.label.size(), bound);
    EXPECT_LE(top_down.label.size(), bound);
  }
}

// Definition 2.11 degenerates to an exact count whenever Attr(p) ⊆ S
// (Sec. III-A) — on NULL-free data, for every stored pattern.
TEST_P(DifferentialTest, ExactWhenPatternInsideS) {
  Table t = RandomTable(GetParam() ^ 0x5a5a5a, false);
  Rng rng(GetParam());
  const int n = t.num_attributes();
  for (int trial = 0; trial < 5; ++trial) {
    // Random S of size 2..n.
    std::vector<int> idx;
    for (int a = 0; a < n; ++a) {
      if (rng.UniformInt(2) == 0 || static_cast<int>(idx.size()) + n - a <= 2) {
        idx.push_back(a);
      }
    }
    if (idx.size() < 2) idx = {0, 1};
    AttrMask s = AttrMask::FromIndices(idx);
    Label label = Label::Build(t, s);
    // Every stored PC pattern must estimate exactly.
    const GroupCounts& pc = label.pattern_counts();
    for (int64_t g = 0; g < pc.num_groups(); ++g) {
      Pattern p = pc.ToPattern(g);
      EXPECT_DOUBLE_EQ(label.EstimateCount(p),
                       static_cast<double>(CountMatches(t, p)))
          << p.ToString(t);
    }
  }
}

// Restricting to sub-patterns of S: the containment sum must equal the
// true marginal count on NULL-free data.
TEST_P(DifferentialTest, MarginalCountsMatchBruteForce) {
  Table t = RandomTable(GetParam() ^ 0x123456, false);
  AttrMask s = AttrMask::FromIndices({0, 1, 2});
  Label label = Label::Build(t, s);
  Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 20; ++trial) {
    // A random 1- or 2-term pattern inside S.
    std::vector<PatternTerm> terms;
    const int k = 1 + static_cast<int>(rng.UniformInt(2));
    std::vector<int> attrs = {0, 1, 2};
    for (int j = 0; j < k; ++j) {
      const size_t pick = rng.UniformInt(static_cast<uint32_t>(attrs.size()));
      const int attr = attrs[pick];
      attrs.erase(attrs.begin() + static_cast<int64_t>(pick));
      terms.push_back(
          {attr, rng.UniformInt(t.DomainSize(attr))});
    }
    auto p = Pattern::Create(terms);
    ASSERT_TRUE(p.ok());
    EXPECT_DOUBLE_EQ(label.EstimateCount(*p),
                     static_cast<double>(CountMatches(t, *p)))
        << p->ToString(t);
  }
}

// The early-terminated max-error scan reports a max over a prefix, so it
// can never exceed the exact max.
TEST_P(DifferentialTest, EarlyTerminationNeverExceedsExact) {
  Table t = RandomTable(GetParam() ^ 0x777, true);
  FullPatternIndex index = FullPatternIndex::Build(t);
  for (uint64_t mask_bits : {0b011ULL, 0b110ULL, 0b111ULL}) {
    Label label = Label::Build(t, AttrMask(mask_bits));
    LabelEstimator est(label);
    ErrorReport exact =
        EvaluateOverFullPatterns(index, est, ErrorMode::kExact);
    ErrorReport early =
        EvaluateOverFullPatterns(index, est, ErrorMode::kEarlyTermination);
    EXPECT_LE(early.max_abs, exact.max_abs + 1e-9);
    EXPECT_LE(early.evaluated, exact.evaluated);
  }
}

// |P_S| is monotone under subset inclusion — the property both search
// algorithms' termination arguments rely on.
TEST_P(DifferentialTest, LabelSizeMonotoneUnderInclusion) {
  Table t = RandomTable(GetParam() ^ 0xbeef, true);
  const int n = t.num_attributes();
  Rng rng(GetParam() + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const uint64_t all = AttrMask::All(n).bits();
    const AttrMask big(rng.UniformInt(static_cast<uint32_t>(all)) | 3ULL);
    AttrMask small = big;
    small.Clear(big.MaxIndex());
    EXPECT_LE(CountDistinctPatterns(t, small),
              CountDistinctPatterns(t, big))
        << small.ToString() << " vs " << big.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace pcbl
