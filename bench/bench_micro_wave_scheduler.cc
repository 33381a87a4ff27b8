// Micro-benchmark for the cross-query wave scheduler: N concurrent
// identical searches over one shared CountingService (their in-flight
// sizing waves merge), against the same N searches run back to back on
// one session — the cost of queueing whole searches behind each other.
//
// The headline pair runs in the *constrained-cache* regime
// (cache_budget = 0, memoization off): there the warm cache cannot help
// a second search at all, so the back-to-back baseline pays the full
// sizing scans once per search while the concurrent searches dedup them
// — the acceptance criterion is >= 2x aggregate throughput for 4
// concurrent identical searches, and the saving is pure work
// elimination, visible even on a single core. The baseline runs with
// the result tier off so each of its searches really executes; the
// concurrent arms keep the session defaults, so an identical query that
// arrives while its twin is in flight may also park on it. The
// default-budget pair shows the steady-state regime (one cold set of
// scans either way; the concurrent win there is ranking overlap, which
// needs spare cores). The solo search tracks the scheduler's overhead:
// with one admitted query the admission window is skipped entirely.
//
// Byte-identity is not asserted here — that is the differential
// harness' job (wave_scheduler_test.cc).
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "util/logging.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

constexpr int64_t kBound = 60;
constexpr int kConcurrent = 4;

const Table& CompasTable() {
  static const Table* table = [] {
    auto t = workload::MakeCompas(8000, 17);
    PCBL_CHECK(t.ok());
    return new Table(std::move(t).value());
  }();
  return *table;
}

api::Dataset PrivateDataset(const Table& table) {
  api::DatasetOptions options;
  options.private_service = true;
  auto dataset = api::Dataset::FromTable(table, options);
  PCBL_CHECK(dataset.ok());
  return *dataset;
}

api::SessionOptions MakeOptions(int64_t cache_budget) {
  api::SessionOptions options;
  options.num_threads = 1;
  options.counting_cache_budget = cache_budget;
  return options;
}

// One iteration: a cold shared service, kConcurrent sessions each
// running the same search concurrently, joined. Reports the engine's
// full-scan count and the masks the scheduler deduped away.
void RunConcurrentSearches(benchmark::State& state, int64_t cache_budget) {
  int64_t full_scans = 0;
  int64_t saved_masks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    api::Dataset dataset = PrivateDataset(CompasTable());
    std::vector<std::unique_ptr<api::Session>> sessions;
    for (int i = 0; i < kConcurrent; ++i) {
      auto session = api::Session::Open(dataset, MakeOptions(cache_budget));
      PCBL_CHECK(session.ok());
      sessions.push_back(std::move(*session));
    }
    state.ResumeTiming();
    std::vector<std::thread> threads;
    threads.reserve(sessions.size());
    for (auto& session : sessions) {
      threads.emplace_back([&session] {
        api::QueryResult r =
            session->Run(api::QuerySpec::LabelSearch(kBound));
        PCBL_CHECK(r.status.ok()) << r.status;
        benchmark::DoNotOptimize(r.search.label.size());
      });
    }
    for (auto& t : threads) t.join();
    state.PauseTiming();
    full_scans = dataset.service()->StatsSnapshot().full_scans;
    const WaveSchedulerStats waves = dataset.service()->wave_stats();
    saved_masks = waves.request_masks - waves.executed_masks;
    sessions.clear();
    state.ResumeTiming();
  }
  state.counters["full_scans"] = static_cast<double>(full_scans);
  state.counters["saved_masks"] = static_cast<double>(saved_masks);
  state.counters["searches_per_iter"] = kConcurrent;
}

// The baseline: the same kConcurrent searches, one after another on one
// session over a cold shared service, result tier off so every search
// executes. Reports the engine's full-scan count.
void RunBackToBackSearches(benchmark::State& state, int64_t cache_budget) {
  int64_t full_scans = 0;
  for (auto _ : state) {
    state.PauseTiming();
    api::Dataset dataset = PrivateDataset(CompasTable());
    api::SessionOptions options = MakeOptions(cache_budget);
    options.use_result_cache = false;
    auto session = api::Session::Open(dataset, options);
    PCBL_CHECK(session.ok());
    state.ResumeTiming();
    for (int i = 0; i < kConcurrent; ++i) {
      api::QueryResult r =
          (*session)->Run(api::QuerySpec::LabelSearch(kBound));
      PCBL_CHECK(r.status.ok()) << r.status;
      benchmark::DoNotOptimize(r.search.label.size());
    }
    state.PauseTiming();
    full_scans = dataset.service()->StatsSnapshot().full_scans;
    session->reset();
    state.ResumeTiming();
  }
  state.counters["full_scans"] = static_cast<double>(full_scans);
  state.counters["searches_per_iter"] = kConcurrent;
}

// The acceptance pair: constrained cache (no memoization), where only
// in-flight merging can eliminate scans. scheduled >= 2x back-to-back.
void BM_FourSearchesBackToBackNoCache(benchmark::State& state) {
  RunBackToBackSearches(state, /*cache_budget=*/0);
}
BENCHMARK(BM_FourSearchesBackToBackNoCache)->Unit(benchmark::kMillisecond);

void BM_FourSearchesScheduledNoCache(benchmark::State& state) {
  RunConcurrentSearches(state, /*cache_budget=*/0);
}
BENCHMARK(BM_FourSearchesScheduledNoCache)->Unit(benchmark::kMillisecond);

// Steady-state regime: default memoization budget. Both arms do ~one
// cold set of scans; the concurrent searches additionally overlap their
// ranking phases (a wall-clock win wherever cores are spare).
void BM_FourSearchesBackToBackWarm(benchmark::State& state) {
  RunBackToBackSearches(state, /*cache_budget=*/-1);
}
BENCHMARK(BM_FourSearchesBackToBackWarm)->Unit(benchmark::kMillisecond);

void BM_FourSearchesScheduledWarm(benchmark::State& state) {
  RunConcurrentSearches(state, /*cache_budget=*/-1);
}
BENCHMARK(BM_FourSearchesScheduledWarm)->Unit(benchmark::kMillisecond);

// Solo overhead bound: one admitted query skips the admission window.
void BM_SoloSearchScheduled(benchmark::State& state) {
  api::Dataset dataset = PrivateDataset(CompasTable());
  auto session = api::Session::Open(dataset, MakeOptions(-1));
  PCBL_CHECK(session.ok());
  PCBL_CHECK(
      (*session)->Run(api::QuerySpec::LabelSearch(kBound)).status.ok());
  for (auto _ : state) {
    api::QueryResult r =
        (*session)->Run(api::QuerySpec::LabelSearch(kBound));
    PCBL_CHECK(r.status.ok());
    benchmark::DoNotOptimize(r.search.label.size());
  }
}
BENCHMARK(BM_SoloSearchScheduled)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pcbl

BENCHMARK_MAIN();
