#include "theory/reduction.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/label.h"
#include "pattern/counter.h"
#include "pattern/counting_engine.h"
#include "pattern/counting_service.h"
#include "pattern/lattice.h"
#include "pattern/service_registry.h"
#include "relation/stats.h"
#include "util/logging.h"
#include "util/str.h"

namespace pcbl {
namespace theory {

Result<ReductionInstance> BuildReduction(const Graph& graph) {
  const int n = graph.num_vertices();
  const int m = graph.num_edges();
  if (n < 2) return InvalidArgumentError("reduction needs >= 2 vertices");
  // Single-edge graphs are among the "easy cases" Theorem A.2 omits; the
  // error separation of Lemma A.5 needs |E| >= 2 (with |E| = 1 a label
  // over one endpoint plus a non-adjacent vertex also reaches error 0).
  if (m < 2) return InvalidArgumentError("reduction needs >= 2 edges");

  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n) + 1);
  for (int i = 0; i < n; ++i) names.push_back(StrCat("A", i + 1));
  names.push_back("AE");
  PCBL_ASSIGN_OR_RETURN(TableBuilder builder,
                        TableBuilder::Create(std::move(names)));

  // Fix value-id order: vertex attributes get {x1, x2}; A_E gets e1..em.
  for (int i = 0; i < n; ++i) {
    builder.InternValue(i, "x1");
    builder.InternValue(i, "x2");
  }
  for (int r = 0; r < m; ++r) {
    builder.InternValue(n, StrCat("e", r + 1));
  }
  const ValueId kX1 = 0;
  const ValueId kX2 = 1;

  std::vector<ValueId> row(static_cast<size_t>(n) + 1);
  auto clear_row = [&] {
    std::fill(row.begin(), row.end(), kNullValue);
  };
  auto add_copies = [&](int64_t copies) -> Status {
    for (int64_t c = 0; c < copies; ++c) {
      PCBL_RETURN_IF_ERROR(builder.AddRowCodes(row));
    }
    return Status::Ok();
  };

  // Block 1 — per edge e_r = {v_i, v_j}: for each p, q in {1,2}, |E|
  // tuples with A_i = x_p, A_j = x_q, A_E = e_r.
  for (int r = 0; r < m; ++r) {
    auto [i, j] = graph.edges()[static_cast<size_t>(r)];
    for (ValueId p : {kX1, kX2}) {
      for (ValueId q : {kX1, kX2}) {
        clear_row();
        row[static_cast<size_t>(i)] = p;
        row[static_cast<size_t>(j)] = q;
        row[static_cast<size_t>(n)] = static_cast<ValueId>(r);
        PCBL_RETURN_IF_ERROR(add_copies(m));
      }
    }
  }

  // Block 2 — per unordered vertex pair {v_i, v_j}, i < j:
  //   non-edge: for each p, q, |E| tuples with A_i = x_p, A_j = x_q;
  //   edge:     for each p, 2|E|^2 tuples with A_i = x_p, A_j = x_p.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!graph.HasEdge(i, j)) {
        for (ValueId p : {kX1, kX2}) {
          for (ValueId q : {kX1, kX2}) {
            clear_row();
            row[static_cast<size_t>(i)] = p;
            row[static_cast<size_t>(j)] = q;
            PCBL_RETURN_IF_ERROR(add_copies(m));
          }
        }
      } else {
        for (ValueId p : {kX1, kX2}) {
          clear_row();
          row[static_cast<size_t>(i)] = p;
          row[static_cast<size_t>(j)] = p;
          PCBL_RETURN_IF_ERROR(add_copies(2 * static_cast<int64_t>(m) * m));
        }
      }
    }
  }

  ReductionInstance instance;
  instance.table = builder.Build();
  instance.edge_attribute = n;

  // P: per edge e_r = {v_i, v_j}, pattern {A_i=x1, A_j=x1, A_E=e_r}.
  for (int r = 0; r < m; ++r) {
    auto [i, j] = graph.edges()[static_cast<size_t>(r)];
    PCBL_ASSIGN_OR_RETURN(
        Pattern p,
        Pattern::Create({PatternTerm{i, kX1}, PatternTerm{j, kX1},
                         PatternTerm{n, static_cast<ValueId>(r)}}));
    instance.patterns.push_back(std::move(p));
    // Lemma A.5: c_D(p) = |E| (from the edge block with p = q = x1).
    instance.pattern_counts.push_back(m);
  }
  return instance;
}

int64_t ReductionSizeBound(const Graph& graph, int k) {
  // 2|E| + 4 * (1 + 2 + ... + (k-1)).
  int64_t m = graph.num_edges();
  int64_t tri = static_cast<int64_t>(k - 1) * k / 2;
  return 2 * m + 4 * tri;
}

bool ExistsZeroErrorLabel(const ReductionInstance& instance,
                          int64_t size_bound) {
  const Table& table = instance.table;
  auto vc =
      std::make_shared<const ValueCounts>(ValueCounts::Compute(table));
  const int total_attrs = table.num_attributes();
  // The brute-force sweep sizes every attribute subset. The reduction
  // database is massively duplicated (every BuildReduction tuple is added
  // in >= |E| >= 2 copies, so distinct restrictions number at most half
  // the rows); priming the engine with the full attribute set's PC set
  // therefore always yields a usable rollup ancestor, and every subset is
  // sized by aggregating those groups instead of rescanning the table —
  // the sweep scales with distinct restrictions, not rows. The service
  // comes from the process-wide registry: bound sweeps call this
  // repeatedly on the same instance (and concurrent sessions may probe
  // the same graph), so the primed universe PC set and every cached
  // subset survive across calls instead of being rebuilt per bound. The
  // sweep is admitted like any query, and its waves merge with those of
  // concurrent sweeps and sessions over the same instance.
  std::shared_ptr<CountingService> service =
      ServiceRegistry::Global().Acquire(table);
  CountingService::QueryAdmission admission(*service);
  const CountingEngineOptions config = service->EngineOptionsSnapshot();
  const AttrMask universe = AttrMask::All(total_attrs);
  service->PinPatternCounts(universe);  // pinned: the exponential sweep
                                        // must not evict its ancestor
  std::vector<AttrMask> subsets;
  ForEachSubsetOf(universe, [&](AttrMask s) { subsets.push_back(s); });
  // Sized a chunk at a time, scanned in ForEachSubsetOf order, so the
  // sweep still stops early once a zero-error label turns up.
  constexpr size_t kSweepChunk = 256;
  std::vector<AttrMask> chunk;
  std::vector<std::shared_ptr<const GroupCounts>> counts;
  for (size_t begin = 0; begin < subsets.size(); begin += kSweepChunk) {
    const size_t end = std::min(subsets.size(), begin + kSweepChunk);
    chunk.assign(subsets.begin() + static_cast<std::ptrdiff_t>(begin),
                 subsets.begin() + static_cast<std::ptrdiff_t>(end));
    const std::vector<int64_t> sizes =
        service->WaveCountPatterns(chunk, size_bound, config, &counts);
    for (size_t c = 0; c < chunk.size(); ++c) {
      if (sizes[c] > size_bound) continue;
      // A disabled engine materializes nothing while sizing.
      std::shared_ptr<const GroupCounts> pc = counts[c];
      if (pc == nullptr) {
        pc = service->WavePatternCounts({chunk[c]}, config)[0];
      }
      const Label label = Label::BuildFromCounts(table, chunk[c], *pc, vc);
      bool zero_error = true;
      for (size_t i = 0; zero_error && i < instance.patterns.size(); ++i) {
        zero_error = !(label.AbsoluteError(instance.patterns[i],
                                           instance.pattern_counts[i]) >
                       1e-9);
      }
      if (zero_error) return true;
    }
  }
  return false;
}

}  // namespace theory
}  // namespace pcbl
