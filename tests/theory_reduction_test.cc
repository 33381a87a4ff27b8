// Tests for the NP-hardness reduction (Theorem 2.17 / appendix A):
// structural lemmas A.5 and A.8, the end-to-end equivalence of
// Proposition A.4 on exhaustive families of small graphs, and the
// decision sweep running concurrently with sessions on its shared
// registry service.
#include "theory/reduction.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "core/label.h"
#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/service_registry.h"
#include "relation/stats.h"
#include "theory/graph.h"

namespace pcbl {
namespace theory {
namespace {

Graph PathGraph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) {
    PCBL_CHECK(g.AddEdge(i, i + 1).ok());
  }
  return g;
}

Graph TriangleGraph() {
  Graph g(3);
  PCBL_CHECK(g.AddEdge(0, 1).ok());
  PCBL_CHECK(g.AddEdge(1, 2).ok());
  PCBL_CHECK(g.AddEdge(0, 2).ok());
  return g;
}

TEST(GraphTest, BasicInvariants) {
  Graph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(2, 1).ok());
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.AddEdge(0, 0).ok());   // self-loop
  EXPECT_FALSE(g.AddEdge(0, 1).ok());   // duplicate
  EXPECT_FALSE(g.AddEdge(1, 0).ok());   // duplicate reversed
  EXPECT_FALSE(g.AddEdge(0, 9).ok());   // out of range
}

TEST(VertexCoverTest, KnownCovers) {
  // Path v0-v1-v2: min cover {v1}.
  EXPECT_EQ(MinVertexCoverSize(PathGraph(3)), 1);
  // Triangle: min cover size 2.
  EXPECT_EQ(MinVertexCoverSize(TriangleGraph()), 2);
  // Path of 5: covers {v1, v3}.
  EXPECT_EQ(MinVertexCoverSize(PathGraph(5)), 2);
  EXPECT_TRUE(HasVertexCoverOfSize(TriangleGraph(), 2));
  EXPECT_FALSE(HasVertexCoverOfSize(TriangleGraph(), 1));
  EXPECT_TRUE(IsVertexCover(PathGraph(3), 0b010));
  EXPECT_FALSE(IsVertexCover(PathGraph(3), 0b001));
}

TEST(ReductionTest, RejectsDegenerateInputs) {
  Graph no_edges(3);
  EXPECT_FALSE(BuildReduction(no_edges).ok());
  Graph tiny(1);
  EXPECT_FALSE(BuildReduction(tiny).ok());
  Graph one_edge(2);
  ASSERT_TRUE(one_edge.AddEdge(0, 1).ok());
  EXPECT_FALSE(BuildReduction(one_edge).ok());
}

TEST(ReductionTest, Fig12ExampleStructure) {
  // The appendix's example: path v1-v2-v3 (edges e1={v1,v2}, e2={v2,v3}).
  Graph g = PathGraph(3);
  auto inst = BuildReduction(g);
  ASSERT_TRUE(inst.ok()) << inst.status();
  const Table& t = inst->table;
  EXPECT_EQ(t.num_attributes(), 4);  // A1, A2, A3, AE
  // |D| = edge blocks 2*4*2 = 16, edge pair blocks 2*2*8 = 32,
  // non-edge pair (v1,v3) 4*2 = 8; total 56.
  EXPECT_EQ(t.num_rows(), 56);
  EXPECT_EQ(inst->patterns.size(), 2u);

  // Lemma A.5 premises: c_D(p) = |E| for each pattern in P.
  for (size_t i = 0; i < inst->patterns.size(); ++i) {
    EXPECT_EQ(CountMatches(t, inst->patterns[i]), 2);
    EXPECT_EQ(inst->pattern_counts[i], 2);
  }
  // Vertex attributes are balanced: sel(x1) = 1/2.
  ValueCounts vc = ValueCounts::Compute(t);
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(vc.Count(a, 0), vc.Count(a, 1)) << "A" << a + 1;
  }
  // Each A_E value occurs 4|E| = 8 times.
  for (ValueId v = 0; v < t.DomainSize(3); ++v) {
    EXPECT_EQ(vc.Count(3, v), 8);
  }
}

TEST(ReductionTest, LemmaA5CoverDirection) {
  // S = {A_E, A_i} with v_i covering the edge gives exact (error 0)
  // estimates; S missing A_E or missing both endpoints does not.
  Graph g = PathGraph(3);
  auto inst = BuildReduction(g);
  ASSERT_TRUE(inst.ok());
  const Table& t = inst->table;
  auto vc = std::make_shared<const ValueCounts>(ValueCounts::Compute(t));
  const int ae = inst->edge_attribute;

  // v_1 (attr 1) covers both edges of the path.
  Label cover_label = Label::Build(t, AttrMask::FromIndices({1, ae}), vc);
  for (size_t i = 0; i < inst->patterns.size(); ++i) {
    EXPECT_NEAR(cover_label.EstimateCount(inst->patterns[i]),
                static_cast<double>(inst->pattern_counts[i]), 1e-9);
  }

  // {A_1, A_2} without A_E over-estimates (Lemma A.5's second case:
  // error |E| + 1).
  Label no_ae = Label::Build(t, AttrMask::FromIndices({0, 1}), vc);
  double est = no_ae.EstimateCount(inst->patterns[0]);
  EXPECT_NEAR(est, 2.0 * 2 + 1, 1e-9);  // 2|E| + 1 with |E| = 2
  // VC-only estimate is |E|^2 + something > |E| (third case).
  Label vc_only = Label::Build(t, AttrMask(), vc);
  EXPECT_GT(vc_only.EstimateCount(inst->patterns[0]),
            static_cast<double>(inst->pattern_counts[0]));
}

TEST(ReductionTest, LemmaA8LabelSize) {
  // |L_S(D)| = 2|E'| + 4*Σ_{i=1}^{k-1} i for S = {A_E} ∪ k vertex attrs,
  // where E' is the set of edges covered by S's vertices.
  Graph g = TriangleGraph();
  auto inst = BuildReduction(g);
  ASSERT_TRUE(inst.ok());
  const Table& t = inst->table;
  const int ae = inst->edge_attribute;
  // k = 1: S = {AE, A0}; A0 covers edges {0,1} and {0,2} -> |E'| = 2.
  EXPECT_EQ(CountDistinctPatterns(t, AttrMask::FromIndices({ae, 0})),
            2 * 2);
  // k = 2: S = {AE, A0, A1}; covers all 3 edges -> 2*3 + 4*1 = 10.
  EXPECT_EQ(
      CountDistinctPatterns(t, AttrMask::FromIndices({ae, 0, 1})), 10);
  // k = 3: all edges covered -> 2*3 + 4*(1+2) = 18.
  EXPECT_EQ(
      CountDistinctPatterns(t, AttrMask::FromIndices({ae, 0, 1, 2})), 18);
}

TEST(ReductionTest, SizeBoundFormula) {
  Graph g = TriangleGraph();
  EXPECT_EQ(ReductionSizeBound(g, 1), 6);   // 2*3 + 0
  EXPECT_EQ(ReductionSizeBound(g, 2), 10);  // 2*3 + 4*1
  EXPECT_EQ(ReductionSizeBound(g, 3), 18);  // 2*3 + 4*3
}

// Proposition A.4 — both directions, on an exhaustive family of graphs.
struct GraphCase {
  const char* name;
  Graph (*make)();
  int k;
  bool expect_cover;
};

Graph MakePath3() { return PathGraph(3); }
Graph MakePath4() { return PathGraph(4); }
Graph MakeTriangle() { return TriangleGraph(); }
Graph MakeStar4() {
  Graph g(4);
  PCBL_CHECK(g.AddEdge(0, 1).ok());
  PCBL_CHECK(g.AddEdge(0, 2).ok());
  PCBL_CHECK(g.AddEdge(0, 3).ok());
  return g;
}
Graph MakeSquare() {
  Graph g(4);
  PCBL_CHECK(g.AddEdge(0, 1).ok());
  PCBL_CHECK(g.AddEdge(1, 2).ok());
  PCBL_CHECK(g.AddEdge(2, 3).ok());
  PCBL_CHECK(g.AddEdge(0, 3).ok());
  return g;
}
Graph MakeTwoEdges() {
  Graph g(4);
  PCBL_CHECK(g.AddEdge(0, 1).ok());
  PCBL_CHECK(g.AddEdge(2, 3).ok());
  return g;
}

class PropositionA4Test : public ::testing::TestWithParam<GraphCase> {};

TEST_P(PropositionA4Test, LabelExistsIffVertexCoverExists) {
  const GraphCase& c = GetParam();
  Graph g = c.make();
  ASSERT_EQ(HasVertexCoverOfSize(g, c.k), c.expect_cover) << c.name;
  auto inst = BuildReduction(g);
  ASSERT_TRUE(inst.ok()) << inst.status();
  bool label_exists =
      ExistsZeroErrorLabel(*inst, ReductionSizeBound(g, c.k));
  EXPECT_EQ(label_exists, c.expect_cover) << c.name << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropositionA4Test,
    ::testing::Values(
        GraphCase{"path3-k1", &MakePath3, 1, true},
        GraphCase{"path4-k1", &MakePath4, 1, false},
        GraphCase{"path4-k2", &MakePath4, 2, true},
        GraphCase{"triangle-k1", &MakeTriangle, 1, false},
        GraphCase{"triangle-k2", &MakeTriangle, 2, true},
        GraphCase{"star4-k1", &MakeStar4, 1, true},
        GraphCase{"square-k1", &MakeSquare, 1, false},
        GraphCase{"square-k2", &MakeSquare, 2, true},
        GraphCase{"two-edges-k1", &MakeTwoEdges, 1, false},
        GraphCase{"two-edges-k2", &MakeTwoEdges, 2, true}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The sweep is admitted like any query on the instance's registry
// service: four concurrent sweeps beside a Session search on that same
// service must each answer exactly as they do solo.
TEST(TheoryReductionTest, ConcurrentSweepsBesideASessionMatchSolo) {
  ServiceRegistry::Global().Clear();
  const Graph g = MakeSquare();
  auto inst = BuildReduction(g);
  ASSERT_TRUE(inst.ok()) << inst.status();
  const std::vector<int64_t> bounds = {ReductionSizeBound(g, 1),
                                       ReductionSizeBound(g, 2),
                                       ReductionSizeBound(g, 3)};
  std::vector<bool> solo;
  for (const int64_t bound : bounds) {
    solo.push_back(ExistsZeroErrorLabel(*inst, bound));
  }
  ASSERT_EQ(solo, (std::vector<bool>{false, true, true}));

  const int64_t search_bound = ReductionSizeBound(g, 2);
  LabelSearch reference(inst->table);  // a fresh private service
  SearchOptions reference_options;
  reference_options.size_bound = search_bound;
  const SearchResult want = reference.TopDown(reference_options);

  // Cold again, so the concurrent sweeps really size through waves.
  ServiceRegistry::Global().Clear();
  auto dataset = api::Dataset::FromTable(inst->table);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  ASSERT_EQ(dataset->service().get(),
            ServiceRegistry::Global().Acquire(inst->table).get())
      << "the session and the sweeps must share one registry service";
  auto session = api::Session::Open(*dataset);
  ASSERT_TRUE(session.ok()) << session.status();

  constexpr int kSweepers = 4;
  std::atomic<int> ready{0};
  std::vector<std::vector<bool>> got(
      kSweepers, std::vector<bool>(bounds.size(), false));
  std::vector<std::thread> threads;
  for (int t = 0; t < kSweepers; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kSweepers + 1) {
      }
      // Staggered bound order, so different sweeps overlap.
      for (size_t i = 0; i < bounds.size(); ++i) {
        const size_t b = (i + static_cast<size_t>(t)) % bounds.size();
        got[static_cast<size_t>(t)][b] =
            ExistsZeroErrorLabel(*inst, bounds[b]);
      }
    });
  }
  ready.fetch_add(1);
  while (ready.load() < kSweepers + 1) {
  }
  const api::QueryResult searched =
      (*session)->Run(api::QuerySpec::LabelSearch(search_bound));
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kSweepers; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], solo) << "sweeper " << t;
  }
  ASSERT_TRUE(searched.status.ok()) << searched.status;
  EXPECT_EQ(searched.search.best_attrs.bits(), want.best_attrs.bits());
  EXPECT_EQ(searched.search.label.size(), want.label.size());
  EXPECT_EQ(searched.search.error.max_abs, want.error.max_abs);
  EXPECT_EQ(searched.search.error.mean_abs, want.error.mean_abs);
  EXPECT_EQ(searched.search.error.evaluated, want.error.evaluated);
  ServiceRegistry::Global().Clear();
}

}  // namespace
}  // namespace theory
}  // namespace pcbl
