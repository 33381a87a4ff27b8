// Micro-benchmark (DESIGN.md §5.1): the one-shot PC-set counter across
// group cardinalities, plus the full-pattern index P_A that every search
// ranks against: its build from the full-width PC set and its append
// catch-up.
#include <benchmark/benchmark.h>

#include <vector>

#include "pattern/counter.h"
#include "pattern/full_pattern_index.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

const Table& CompasTable() {
  static const Table* table = [] {
    auto t = workload::MakeCompas(20000, 7);
    PCBL_CHECK(t.ok());
    return new Table(std::move(t).value());
  }();
  return *table;
}

// Masks of increasing joint cardinality: a near-functional pair, a
// demographic pair, and a wide demographic triple.
AttrMask MaskForArg(int64_t arg) {
  switch (arg) {
    case 0:
      return AttrMask::FromIndices({10, 11});  // Scale_ID x DisplayText
    case 1:
      return AttrMask::FromIndices({0, 2});  // Gender x Race
    case 2:
      return AttrMask::FromIndices({1, 2, 3});  // Age x Race x Marital
    default:
      return AttrMask::FromIndices({0, 1, 2, 3, 4});
  }
}

void BM_PatternCounts(benchmark::State& state) {
  const Table& t = CompasTable();
  AttrMask mask = MaskForArg(state.range(0));
  for (auto _ : state) {
    GroupCounts gc = ComputePatternCounts(t, mask);
    benchmark::DoNotOptimize(gc.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_PatternCounts)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// P_A builds at the shapes the paper's datasets give it: COMPAS at the
// 200k rows of the end-to-end build benchmark (45 packed bits), the
// 30k-row CreditCard (69 bits, so the mixed-radix kernel) and BlueNile
// (21 bits).
const Table& FullPatternTable(int64_t arg) {
  static const Table* tables[3] = {};
  if (tables[arg] == nullptr) {
    Result<Table> t = arg == 0   ? workload::MakeCompas(200000, 1)
                      : arg == 1 ? workload::MakeCreditCard(30000, 1)
                                 : workload::MakeBlueNile(
                                       workload::kBlueNileRows, 1);
    PCBL_CHECK(t.ok());
    tables[arg] = new Table(std::move(t).value());
  }
  return *tables[arg];
}

void BM_FullPatternIndexBuild(benchmark::State& state) {
  const Table& t = FullPatternTable(state.range(0));
  for (auto _ : state) {
    FullPatternIndex index = FullPatternIndex::Build(t);
    benchmark::DoNotOptimize(index.num_patterns());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_FullPatternIndexBuild)
    ->ArgName("compas200k_creditcard30k_bluenile")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// A session's P_A catch-up after one append commit: copy the index over
// the 60,843-row COMPAS base, then fold in a 1,000-row batch.
void BM_FullPatternIndexApplyAppend(benchmark::State& state) {
  constexpr int64_t kBatch = 1000;
  static const Table* full = [] {
    auto t = workload::MakeCompas(workload::kCompasRows + kBatch, 1);
    PCBL_CHECK(t.ok());
    return new Table(std::move(t).value());
  }();
  static const FullPatternIndex* base = [] {
    auto builder = TableBuilder::Create(full->schema().names());
    PCBL_CHECK(builder.ok());
    const int n = full->num_attributes();
    for (int a = 0; a < n; ++a) {
      for (const std::string& v : full->dictionary(a).values()) {
        builder->InternValue(a, v);
      }
    }
    std::vector<ValueId> row(static_cast<size_t>(n));
    for (int64_t r = 0; r < workload::kCompasRows; ++r) {
      for (int a = 0; a < n; ++a) {
        row[static_cast<size_t>(a)] = full->value(r, a);
      }
      PCBL_CHECK(builder->AddRowCodes(row).ok());
    }
    return new FullPatternIndex(FullPatternIndex::Build(builder->Build()));
  }();
  const int n = full->num_attributes();
  std::vector<ValueId> batch;
  for (int64_t r = workload::kCompasRows; r < full->num_rows(); ++r) {
    for (int a = 0; a < n; ++a) batch.push_back(full->value(r, a));
  }
  for (auto _ : state) {
    FullPatternIndex index = *base;
    index.ApplyAppend(batch.data(), kBatch);
    benchmark::DoNotOptimize(index.num_patterns());
  }
  state.counters["groups"] = static_cast<double>(base->num_patterns());
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FullPatternIndexApplyAppend)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pcbl

BENCHMARK_MAIN();
