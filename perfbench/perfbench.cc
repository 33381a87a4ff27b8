// Benchmark program of the pcbl label system: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Workloads (all closed loops; see README.md for the reasons and the
// metric map):
//   build_compas_200k    cold `pcbl build` of a 200,000-row COMPAS CSV
//   build_creditcard_30k cold `pcbl build` of a 30,000-row CreditCard CSV
//   serve_mixed          2 socket clients against an in-process server
//   ingest_append        1 appender session beside 2 reader sessions
//
// Inputs come from the seed alone; generated files go under --workdir.
// With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics,
// taken from spans recorded around calls into each layer.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "cli/args.h"
#include "cli/cli.h"
#include "cli/common.h"
#include "core/portable_label.h"
#include "core/search.h"
#include "pattern/full_pattern_index.h"
#include "pattern/service_registry.h"
#include "relation/csv.h"
#include "relation/stats.h"
#include "relation/table.h"
#include "server/catalog.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

using pcbl::Result;
using pcbl::Status;
using pcbl::Table;
using pcbl::api::QueryResult;
using pcbl::api::QuerySpec;
namespace api = pcbl::api;
namespace cli = pcbl::cli;
namespace server = pcbl::server;
namespace wire = pcbl::server::wire;

constexpr int kSetupRepeats = 3;
constexpr int64_t kBound = 60;
constexpr int kThreads = 4;
constexpr int kReaders = 2;
constexpr int64_t kCompasCatalogRows = 60843;
constexpr int64_t kIngestStreamRows = 12000;
constexpr int64_t kAppendBatchRows = 1000;
constexpr int kReadsPerBatch = 8;
const int64_t kSearchBounds[] = {20, 40, 60, 80, 100};

double Seconds(int64_t ns) { return ns / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

// Every workload's data is the synthetic paper dataset at generator seed
// 2021; --seed shuffles its rows (and seeds the request streams). Counts
// and labels depend only on the row multiset, so every seed has the same
// work to do and the same labels.
constexpr uint64_t kDataSeed = 2021;

template <typename T>
void Shuffle(std::vector<T>* items, pcbl::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1],
              (*items)[rng->UniformInt(static_cast<uint32_t>(i))]);
  }
}

// The table's CSV text split into the header line and the data lines.
// The generators emit no quoted newlines, so one line is one record.
std::pair<std::string, std::vector<std::string>> CsvLines(const Table& t) {
  const std::string text = pcbl::WriteCsvString(t);
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin + 1));
    begin = end + 1;
  }
  std::string header = std::move(lines.front());
  lines.erase(lines.begin());
  return {std::move(header), std::move(lines)};
}

std::string JoinLines(const std::string& header,
                      const std::vector<std::string>& lines) {
  std::string out = header;
  for (const std::string& line : lines) out += line;
  return out;
}

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void Attempt(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  // A human-readable line; never the last one.
  void Info(const std::string& line) { std::printf("%s\n", line.c_str()); }

  void Print() {
    std::printf("failed_ratio: %.6f (%lld failed of %lld attempted)\n",
                attempted_ > 0 ? static_cast<double>(failed_) / attempted_
                               : 0.0,
                static_cast<long long>(failed_),
                static_cast<long long>(attempted_));
    std::string json = "{\"correct\": ";
    json += correct_ && failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

struct Options {
  std::string workload;
  uint64_t seed = 2021;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

// One caller operation of a measured loop.
struct Op {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// The end-to-end metrics every workload reports (BENCHMARK.json).
struct EndToEnd {
  std::vector<double> setup_seconds;
  std::vector<Op> ops;             // the caller operations timed
  std::vector<double> pass_rates;  // ingest_append: rows/s of each pass
};

// Latency and throughput are taken over each fifth of the run's
// operations (in completion order) and the median over the fifths is
// reported: a few seconds of host contention then move one fifth, not the
// result.
constexpr int kWindows = 5;

void AddEndToEnd(EndToEnd e2e, Report* report) {
  std::vector<Op>& ops = e2e.ops;
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.end_ns < b.end_ns; });
  std::vector<double> p50, p99, rate;
  for (int w = 0; w < kWindows; ++w) {
    const size_t begin = ops.size() * w / kWindows;
    const size_t end = ops.size() * (w + 1) / kWindows;
    if (begin == end) continue;
    std::vector<double> ms;
    int64_t first_start = ops[begin].start_ns;
    for (size_t i = begin; i < end; ++i) {
      ms.push_back((ops[i].end_ns - ops[i].start_ns) / 1e6);
      first_start = std::min(first_start, ops[i].start_ns);
    }
    p50.push_back(Median(ms));
    p99.push_back(Percentile(ms, 0.99));
    rate.push_back((end - begin) / Seconds(ops[end - 1].end_ns - first_start));
  }
  report->Add("setup_s", Median(e2e.setup_seconds), "s");
  report->Add("latency_p50_ms", Median(p50), "ms");
  report->Add("latency_p99_ms", Median(p99), "ms");
  report->Add("throughput_per_s",
              e2e.pass_rates.empty() ? Median(rate) : Median(e2e.pass_rates),
              "1/s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// Per-layer metric names (BENCHMARK.json `per_layer`), in output order.
// A layer the workload does not call reads 0.
const char* const kLayerMetrics[][2] = {
    {"relation.file_read_ms", "ms"},
    {"relation.csv_parse_ms", "ms"},
    {"relation.csv_parse_mb_per_s", "MB/s"},
    {"relation.value_counts_ms", "ms"},
    {"pattern.fingerprint_ms", "ms"},
    {"pattern.registry_acquire_ms", "ms"},
    {"pattern.full_pattern_index_ms", "ms"},
    {"pattern.sizing_ms", "ms"},
    {"pattern.subsets_examined", "count"},
    {"pattern.direct_scans", "count"},
    {"pattern.rollups", "count"},
    {"pattern.cache_hits", "count"},
    {"pattern.full_scans", "count"},
    {"core.search_self_ms", "ms"},
    {"core.rank_ms", "ms"},
    {"core.error_evaluations", "count"},
    {"core.patterns_scanned", "count"},
    {"core.label_encode_ms", "ms"},
    {"cli.self_ms", "ms"},
    {"server.round_trip_us.count", "us"},
    {"server.round_trip_us.search", "us"},
    {"server.round_trip_us.profile", "us"},
    {"api.session_run_us.count", "us"},
    {"api.session_run_us.search", "us"},
    {"api.session_run_us.profile", "us"},
    {"server.wire_encode_us", "us"},
    {"server.wire_decode_us", "us"},
    {"server.reply_bytes", "bytes"},
    {"pattern.result_tier_hit_ratio", "ratio"},
    {"pattern.result_tier_lookups", "count"},
    {"pattern.result_tier_invalidations", "count"},
    {"api.append_batch_us.p50", "us"},
    {"api.append_batch_us.p99", "us"},
    {"pattern.append_requests_per_commit", "ratio"},
    {"trace.overhead_ms", "ms"},
};

void AddLayers(const std::map<std::string, double>& layers, Report* report) {
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = layers.find(name);
    report->Add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
}

// Repeats `setup` kSetupRepeats times (each from scratch) and records the
// wall time of each; the state of the last one is kept.
template <typename State>
Result<State> TimedSetup(const std::function<Result<State>()>& setup,
                         std::vector<double>* seconds) {
  std::optional<Result<State>> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    pcbl::ServiceRegistry::Global().Clear();
    const int64_t start = Tracer::NowNs();
    state.emplace(setup());
    if (!state->ok()) return state->status();
    seconds->push_back(Seconds(Tracer::NowNs() - start));
  }
  return std::move(*state);
}

// --- build workloads ----------------------------------------------------------

struct BuildInputs {
  std::string csv_path;
  std::string label_path;
  int64_t rows = 0;
  int attributes = 0;
  int64_t csv_bytes = 0;
  std::string reference_label;  // bytes of the warm-up build's label
};

std::vector<std::string> BuildArgv(const BuildInputs& in) {
  return {in.csv_path, "--bound",  std::to_string(kBound),
          "--threads", std::to_string(kThreads), "--binary",
          "--out",     in.label_path};
}

// One `pcbl build`, in-process; returns the label bytes written. The
// caller clears the registry first, so the build is cold.
Result<std::string> RunBuild(const BuildInputs& in) {
  std::vector<std::string> argv = BuildArgv(in);
  argv.insert(argv.begin(), "build");
  std::ostringstream out, err;
  const int code = cli::RunCli(argv, out, err);
  if (code != 0) {
    return pcbl::InternalError("pcbl build exited " + std::to_string(code) +
                               ": " + err.str());
  }
  return ReadFileBytes(in.label_path);
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

struct TracedBuild {
  std::string label;
  pcbl::SearchStats stats;
  std::map<std::string, double> self_ms;  // by span name
  double self_sum_ms = 0.0;               // the request's spans, summed
};

// The steps of `pcbl build` (cli/cmd_build.cc) as public calls, each in
// its own span: argument handling, read, parse, fingerprint, registry
// acquire, VC, P_A, the search (split into sizing and ranking by its own
// stats), report rendering, label encoding and the file write. Whatever
// is not in a child span is the cli layer's self time. The caller clears
// the registry first.
Result<TracedBuild> RunTracedBuild(const BuildInputs& in, Tracer* tracer) {
  const int64_t request = tracer->NewRequestId();
  TracedBuild out;
  {
    Tracer::Scope root(tracer, "cli.build", request);
    PCBL_ASSIGN_OR_RETURN(cli::Args args, cli::Args::Parse(BuildArgv(in)));
    PCBL_ASSIGN_OR_RETURN(cli::ServiceFlags flags,
                          cli::ParseServiceFlags(args));
    std::string text;
    {
      Tracer::Scope span(tracer, "relation.file_read", request);
      text = ReadFileBytes(args.positional()[0]);
    }
    std::shared_ptr<const Table> table;
    {
      Tracer::Scope span(tracer, "relation.csv_parse", request);
      PCBL_ASSIGN_OR_RETURN(Table parsed, pcbl::ReadCsvString(text));
      table = std::make_shared<const Table>(std::move(parsed));
    }
    {
      Tracer::Scope span(tracer, "pattern.fingerprint", request);
      (void)pcbl::FingerprintTable(*table);
    }
    std::shared_ptr<pcbl::CountingService> service;
    {
      Tracer::Scope span(tracer, "pattern.registry_acquire", request);
      service = pcbl::ServiceRegistry::Global().Acquire(table);
    }
    std::shared_ptr<const pcbl::ValueCounts> vc;
    {
      Tracer::Scope span(tracer, "relation.value_counts", request);
      vc = std::make_shared<const pcbl::ValueCounts>(
          pcbl::ValueCounts::Compute(*table));
    }
    std::shared_ptr<const pcbl::FullPatternIndex> fpi;
    {
      Tracer::Scope span(tracer, "pattern.full_pattern_index", request);
      fpi = std::make_shared<const pcbl::FullPatternIndex>(
          pcbl::FullPatternIndex::Build(*table));
    }
    pcbl::SearchResult result;
    {
      Tracer::Scope span(tracer, "core.search", request);
      pcbl::LabelSearch search(*table, vc, fpi, service);
      pcbl::SearchOptions options;
      options.size_bound = kBound;
      options.num_threads = kThreads;
      result = search.TopDown(options);
      // The search times its two phases itself; place them in its span.
      const int64_t sizing_ns =
          static_cast<int64_t>(result.stats.candidate_seconds * 1e9);
      const int64_t rank_ns =
          static_cast<int64_t>(result.stats.error_eval_seconds * 1e9);
      tracer->Add("pattern.sizing", span.id(), request, span.start_ns(),
                  span.start_ns() + sizing_ns);
      tracer->Add("core.rank", span.id(), request,
                  span.start_ns() + sizing_ns,
                  span.start_ns() + sizing_ns + rank_ns);
    }
    // Rendered like the command's report, so its cost is cli self time.
    std::ostringstream rendered;
    rendered << cli::FormatErrorReport(result.error, table->num_rows())
             << cli::FormatSizingConfig(flags) << cli::FormatRegistryStats();
    {
      Tracer::Scope span(tracer, "core.label_encode", request);
      out.label = pcbl::ToBinary(
          pcbl::MakePortable(result.label, *table, BaseName(in.csv_path)));
    }
    if (!WriteFileBytes(args.GetString("out"), out.label)) {
      return pcbl::IOError("cannot write " + args.GetString("out"));
    }
    out.stats = result.stats;
  }
  std::vector<Span> spans;
  for (const Span& s : tracer->Spans()) {
    if (s.request == request) spans.push_back(s);
  }
  out.self_ms = SelfMillisByName(spans);
  for (const auto& [name, ms] : out.self_ms) out.self_sum_ms += ms;
  return out;
}

// The labels of the synthetic data at generator seed 2021, bound 60.
struct PinnedLabel {
  std::set<std::string> attributes;
  int64_t size = 0;
};

bool CheckLabel(const std::string& workload, const std::string& bytes,
                Report* report) {
  Result<pcbl::PortableLabel> label = pcbl::PortableLabelFromBinary(bytes);
  report->Check(label.ok(), "label parses");
  if (!label.ok()) return false;
  std::set<std::string> attrs;
  for (int a : label->label_attributes) {
    attrs.insert(label->attribute_names.at(static_cast<size_t>(a)));
  }
  std::string names;
  for (const std::string& a : attrs) names += (names.empty() ? "" : ",") + a;
  report->Info("label: {" + names + "} |PC| " +
               std::to_string(label->size()));
  const PinnedLabel pinned =
      workload == "build_compas_200k"
          ? PinnedLabel{{"Scale_ID", "DisplayText", "DecileScore",
                         "RecSupervisionLevel", "RecSupervisionLevelText"},
                        48}
          : PinnedLabel{{"PAY_4", "PAY_5", "PAY_6", "PAY_AMT3"}, 56};
  const bool ok = attrs == pinned.attributes && label->size() == pinned.size;
  report->Check(ok, "label matches the pinned label");
  return ok;
}

int RunBuildWorkload(const Options& opts, Report* report) {
  const bool compas = opts.workload == "build_compas_200k";
  EndToEnd e2e;
  Result<BuildInputs> setup = TimedSetup<BuildInputs>(
      [&]() -> Result<BuildInputs> {
        BuildInputs in;
        in.csv_path = opts.workdir + "/" +
                      (compas ? "compas_200k.csv" : "creditcard_30k.csv");
        in.label_path = opts.workdir + "/label.bin";
        PCBL_ASSIGN_OR_RETURN(
            Table table,
            compas ? pcbl::workload::MakeCompas(200000, kDataSeed)
                   : pcbl::workload::MakeCreditCard(30000, kDataSeed));
        auto [header, lines] = CsvLines(table);
        pcbl::Rng rng(opts.seed);
        Shuffle(&lines, &rng);
        const std::string csv = JoinLines(header, lines);
        if (!WriteFileBytes(in.csv_path, csv)) {
          return pcbl::IOError("cannot write " + in.csv_path);
        }
        in.rows = table.num_rows();
        in.attributes = table.num_attributes();
        in.csv_bytes = static_cast<int64_t>(csv.size());
        // Warm-up: one untimed build (page cache, allocator, kernels).
        PCBL_ASSIGN_OR_RETURN(in.reference_label, RunBuild(in));
        return in;
      },
      &e2e.setup_seconds);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  const BuildInputs& in = *setup;
  report->Info("inputs: rows=" + std::to_string(in.rows) +
               " attributes=" + std::to_string(in.attributes) +
               " csv_bytes=" + std::to_string(in.csv_bytes) +
               " distinct_read_patterns=0");
  // Every build must write the warm-up build's bytes, and those must hold
  // the pinned label.
  const bool pinned = CheckLabel(opts.workload, in.reference_label, report);

  Tracer tracer(opts.trace);
  Tracer off(false);
  std::vector<double> untraced_ms, replay_ms, traced_ms;
  std::vector<Op> ops;
  std::vector<TracedBuild> traced;
  // Per iteration: the traced replay's layer self times over the wall
  // time of the untraced build just before it.
  std::vector<double> self_sum_ratios;
  int64_t attempted = 0, failed = 0;
  const int64_t deadline =
      Tracer::NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  // At least 5 builds, so the median has a base even on a slow host.
  while (Tracer::NowNs() < deadline || attempted < 5) {
    pcbl::ServiceRegistry::Global().Clear();
    const int64_t t0 = Tracer::NowNs();
    Result<std::string> label = RunBuild(in);
    ops.push_back({t0, Tracer::NowNs()});
    untraced_ms.push_back((ops.back().end_ns - t0) / 1e6);
    ++attempted;
    const bool same = pinned && label.ok() && *label == in.reference_label;
    if (!same) ++failed;
    report->Check(same, "build label identical to the warm-up build's");
    if (!opts.trace) continue;
    // Traced runs follow each untraced build (above) with the replay of
    // its steps, once untraced and once traced, in alternating order: the
    // replay pair gives the tracing overhead.
    const bool traced_first = untraced_ms.size() % 2 == 0;
    for (bool with_spans : {traced_first, !traced_first}) {
      pcbl::ServiceRegistry::Global().Clear();
      const int64_t t1 = Tracer::NowNs();
      Result<TracedBuild> tb =
          RunTracedBuild(in, with_spans ? &tracer : &off);
      (with_spans ? traced_ms : replay_ms)
          .push_back((Tracer::NowNs() - t1) / 1e6);
      ++attempted;
      const bool ok = pinned && tb.ok() && tb->label == in.reference_label;
      if (!ok) ++failed;
      report->Check(ok, "replayed build label identical to pcbl build's");
      if (with_spans && tb.ok()) {
        self_sum_ratios.push_back(tb->self_sum_ms / untraced_ms.back());
        traced.push_back(std::move(*tb));
      }
    }
  }
  report->Attempt(attempted, failed);
  std::string walls;
  for (double ms : untraced_ms) walls += " " + std::to_string(std::lround(ms));
  report->Info("build_p50_ms: " + std::to_string(Median(untraced_ms)) +
               " ms over " + std::to_string(untraced_ms.size()) +
               " builds; each (ms):" + walls);

  if (!opts.trace) {
    e2e.ops = std::move(ops);
    AddEndToEnd(std::move(e2e), report);
    return 0;
  }

  // Per-layer: median over traced builds of each span's self time.
  if (traced.empty()) {
    report->Check(false, "traced builds ran");
    return 1;
  }
  std::map<std::string, std::vector<double>> by_span;
  std::vector<double> self_sums;
  for (const TracedBuild& tb : traced) {
    for (const auto& [name, ms] : tb.self_ms) by_span[name].push_back(ms);
    self_sums.push_back(tb.self_sum_ms);
  }
  std::map<std::string, double> layers;
  const std::pair<const char*, const char*> span_metric[] = {
      {"relation.file_read", "relation.file_read_ms"},
      {"relation.csv_parse", "relation.csv_parse_ms"},
      {"relation.value_counts", "relation.value_counts_ms"},
      {"pattern.fingerprint", "pattern.fingerprint_ms"},
      {"pattern.registry_acquire", "pattern.registry_acquire_ms"},
      {"pattern.full_pattern_index", "pattern.full_pattern_index_ms"},
      {"pattern.sizing", "pattern.sizing_ms"},
      {"core.search", "core.search_self_ms"},
      {"core.rank", "core.rank_ms"},
      {"core.label_encode", "core.label_encode_ms"},
      {"cli.build", "cli.self_ms"},
  };
  for (const auto& [span, metric] : span_metric) {
    layers[metric] = Median(by_span[span]);
  }
  layers["relation.csv_parse_mb_per_s"] =
      in.csv_bytes / 1e6 / (layers["relation.csv_parse_ms"] / 1e3);
  const pcbl::SearchStats& stats = traced.back().stats;
  layers["pattern.subsets_examined"] = stats.subsets_examined;
  layers["pattern.direct_scans"] = stats.counting.direct_scans;
  layers["pattern.rollups"] = stats.counting.rollups;
  layers["pattern.cache_hits"] = stats.counting.cache_hits;
  layers["pattern.full_scans"] = stats.counting.full_scans;
  layers["core.error_evaluations"] = stats.error_evaluations;
  layers["core.patterns_scanned"] = stats.patterns_scanned;
  for (const TracedBuild& tb : traced) {
    report->Check(tb.stats.subsets_examined == stats.subsets_examined &&
                      tb.stats.counting.direct_scans ==
                          stats.counting.direct_scans,
                  "search counts repeat across builds");
  }
  // Reconcile: the layers' self times of one traced build against the
  // wall time of the untraced `pcbl build` measured just before it.
  const double untraced_p50 = Median(untraced_ms);
  const double self_sum = Median(self_sums);
  const double ratio = Median(self_sum_ratios);
  layers["trace.overhead_ms"] = Median(traced_ms) - Median(replay_ms);
  report->Info("reconcile: layer self times sum to " +
               std::to_string(self_sum) + " ms per traced build, base " +
               std::to_string(untraced_p50) +
               " ms untraced pcbl build wall (n=" +
               std::to_string(untraced_ms.size()) +
               "); median ratio per build pair " + std::to_string(ratio));
  report->Info("tracing overhead: traced replay p50 " +
               std::to_string(Median(traced_ms)) + " ms - untraced replay " +
               std::to_string(Median(replay_ms)) + " ms = " +
               std::to_string(layers["trace.overhead_ms"]) + " ms (n=" +
               std::to_string(traced_ms.size()) + ")");
  report->Check(std::fabs(ratio - 1.0) <= 0.10,
                "layer self times within 10% of the build's wall time");
  std::string largest;
  double largest_ms = -1.0;
  for (const auto& [span, metric] : span_metric) {
    if (layers[metric] > largest_ms) {
      largest_ms = layers[metric];
      largest = metric;
    }
  }
  report->Info("largest layer: " + largest + " (" +
               std::to_string(largest_ms) + " ms)");
  const std::string path = opts.workdir + "/trace.jsonl";
  report->Check(tracer.WriteJsonLines(path), "trace written");
  AddLayers(layers, report);
  return 0;
}

// --- the read mix ---------------------------------------------------------------

enum Kind { kCount = 0, kSearch = 1, kProfile = 2 };
const char* const kKindNames[] = {"count", "search", "profile"};

struct ReadMix {
  std::vector<QuerySpec> specs;  // counts first, then searches, profile
  std::vector<Kind> kinds;
  int num_counts = 0;
};

// True counts over 1-3 attribute patterns taken from random rows, so every
// pattern occurs; label searches at a handful of bounds; one profile.
ReadMix MakeReadMix(const Table& table, uint64_t seed) {
  ReadMix mix;
  pcbl::Rng rng(seed * 7919 + 17);
  std::set<std::vector<std::pair<std::string, std::string>>> seen;
  const int n = table.num_attributes();
  for (int draw = 0; draw < 16384; ++draw) {
    const int64_t row = rng.UniformRange(0, table.num_rows() - 1);
    const int arity = 1 + static_cast<int>(rng.UniformInt(3));
    std::set<int> attrs;
    while (static_cast<int>(attrs.size()) < arity) {
      attrs.insert(static_cast<int>(rng.UniformInt(n)));
    }
    std::vector<std::pair<std::string, std::string>> terms;
    for (int a : attrs) {
      if (table.value(row, a) == pcbl::kNullValue) break;
      terms.emplace_back(table.schema().name(a), table.ValueString(row, a));
    }
    if (terms.size() != attrs.size() || !seen.insert(terms).second) continue;
    mix.specs.push_back(QuerySpec::TrueCount(std::move(terms)));
    mix.kinds.push_back(kCount);
  }
  // Shuffle so the Zipf rank of a pattern is independent of its arity.
  for (size_t i = mix.specs.size(); i > 1; --i) {
    std::swap(mix.specs[i - 1],
              mix.specs[rng.UniformInt(static_cast<uint32_t>(i))]);
  }
  mix.num_counts = static_cast<int>(mix.specs.size());
  for (int64_t bound : kSearchBounds) {
    mix.specs.push_back(QuerySpec::LabelSearch(bound));
    mix.kinds.push_back(kSearch);
  }
  mix.specs.push_back(QuerySpec::Profile());
  mix.kinds.push_back(kProfile);
  return mix;
}

// One caller's seeded request sequence over a ReadMix: about 70% counts
// (Zipf-skewed over the patterns), 25% searches, 5% profiles.
class ReadStream {
 public:
  ReadStream(const ReadMix& mix, uint64_t seed)
      : mix_(mix), rng_(seed), zipf_(mix.num_counts, 1.0) {}

  int Next() {
    const double r = rng_.UniformDouble();
    if (r < 0.70) return zipf_.Sample(rng_);
    const int searches = static_cast<int>(std::size(kSearchBounds));
    if (r < 0.95) return mix_.num_counts + static_cast<int>(rng_.UniformInt(
                                               searches));
    return mix_.num_counts + searches;
  }

 private:
  const ReadMix& mix_;
  pcbl::Rng rng_;
  pcbl::ZipfDistribution zipf_;
};

// The parts of a result that must not depend on the path that produced
// it: timings and the service-global engine counters are zeroed.
std::string Canonical(wire::WireQueryResult result) {
  result.search.stats.total_seconds = 0.0;
  result.search.stats.candidate_seconds = 0.0;
  result.search.stats.error_eval_seconds = 0.0;
  result.search.stats.counting = pcbl::CountingEngineStats{};
  wire::Writer writer;
  wire::EncodeQueryResult(result, &writer);
  return writer.Take();
}

// Replies recorded during a run, checked after it: counts against a table
// scan, the sampled replies against the reference session.
struct ReplyLog {
  std::vector<std::pair<int, int64_t>> counts;  // (spec, true count)
  std::vector<std::pair<int, std::string>> sampled;  // (spec, Canonical)
};

// The reference arm for searches and profiles: a private service sized by
// serial one-shot scans, without the wave scheduler or the result tier.
Result<std::unique_ptr<api::Session>> ReferenceSession(
    std::shared_ptr<const Table> table) {
  api::DatasetOptions options;
  options.private_service = true;
  PCBL_ASSIGN_OR_RETURN(api::Dataset dataset,
                        api::Dataset::FromTable(std::move(table), options));
  api::SessionOptions session_options;
  session_options.num_threads = kThreads;
  session_options.use_counting_engine = false;
  session_options.use_wave_scheduler = false;
  session_options.use_result_cache = false;
  return api::Session::Open(std::move(dataset), session_options);
}

// The reference for true counts: every count pattern of the mix counted
// by a plain scan of `table`, one pass per attribute set. -1 marks a
// pattern whose attribute or value the table does not know.
std::vector<int64_t> ScanCounts(const ReadMix& mix, const Table& table) {
  std::vector<int64_t> counts(mix.num_counts, 0);
  std::vector<std::vector<pcbl::ValueId>> want(mix.num_counts);
  std::map<std::vector<int>, std::vector<int>> by_attrs;
  for (int i = 0; i < mix.num_counts; ++i) {
    std::vector<std::pair<int, pcbl::ValueId>> terms;
    for (const auto& [name, value] : mix.specs[i].pattern) {
      Result<int> attr = table.schema().FindAttribute(name);
      if (!attr.ok() || !table.dictionary(*attr).Contains(value)) {
        counts[i] = -1;
        break;
      }
      terms.emplace_back(*attr, table.dictionary(*attr).Lookup(value));
    }
    if (counts[i] < 0) continue;
    std::sort(terms.begin(), terms.end());
    std::vector<int> attrs;
    for (const auto& [attr, code] : terms) {
      attrs.push_back(attr);
      want[i].push_back(code);
    }
    by_attrs[attrs].push_back(i);
  }
  for (const auto& [attrs, members] : by_attrs) {
    for (int64_t row = 0; row < table.num_rows(); ++row) {
      for (int m : members) {
        size_t j = 0;
        while (j < attrs.size() && table.value(row, attrs[j]) == want[m][j]) {
          ++j;
        }
        if (j == attrs.size()) ++counts[m];
      }
    }
  }
  return counts;
}

void CheckReplies(const ReadMix& mix, const std::vector<ReplyLog>& logs,
                  std::shared_ptr<const Table> table, Report* report,
                  int64_t* wrong) {
  Result<std::unique_ptr<api::Session>> reference = ReferenceSession(table);
  report->Check(reference.ok(), "reference session opens");
  if (!reference.ok()) return;
  const std::vector<int64_t> true_counts = ScanCounts(mix, *table);
  std::set<int> counted;
  std::unordered_map<int, std::string> canonical;
  for (const ReplyLog& log : logs) {
    for (const auto& [spec, count] : log.counts) {
      counted.insert(spec);
      if (true_counts[spec] != count) ++*wrong;
    }
    for (const auto& [spec, bytes] : log.sampled) {
      auto it = canonical.find(spec);
      if (it == canonical.end()) {
        const QueryResult r = (*reference)->Run(mix.specs[spec]);
        it = canonical
                 .emplace(spec, Canonical(wire::ToWireResult(r, *table)))
                 .first;
      }
      if (it->second != bytes) ++*wrong;
    }
  }
  report->Info("checked: " + std::to_string(counted.size()) +
               " distinct counts against a table scan, " + std::to_string(canonical.size()) +
               " distinct sampled search/profile replies against a "
               "reference session");
  report->Check(*wrong == 0, "replies equal the reference session's");
}

// Latencies of one caller, by kind, in microseconds.
struct KindLatencies {
  std::vector<double> us[3];

  void Merge(const KindLatencies& other) {
    for (int k = 0; k < 3; ++k) {
      us[k].insert(us[k].end(), other.us[k].begin(), other.us[k].end());
    }
  }
  std::vector<double> AllMillis() const {
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      for (double v : us[k]) ms.push_back(v / 1e3);
    }
    return ms;
  }
  int64_t size() const { return us[0].size() + us[1].size() + us[2].size(); }
};

std::string LatencyLine(const std::string& prefix, const KindLatencies& lat,
                        double seconds) {
  const std::vector<double> ms = lat.AllMillis();
  return prefix + "query_qps=" + std::to_string(ms.size() / seconds) +
         " query_p50_us=" + std::to_string(Median(ms) * 1e3) +
         " query_p99_us=" + std::to_string(Percentile(ms, 0.99) * 1e3) +
         " (n=" + std::to_string(ms.size()) + "; count " +
         std::to_string(lat.us[kCount].size()) + ", search " +
         std::to_string(lat.us[kSearch].size()) + ", profile " +
         std::to_string(lat.us[kProfile].size()) + ")";
}

void AddTierStats(const pcbl::ResultTierStats& before,
                  const pcbl::ResultTierStats& after,
                  std::map<std::string, double>* layers) {
  const double hits = after.hits - before.hits;
  const double lookups = hits + (after.misses - before.misses);
  (*layers)["pattern.result_tier_hit_ratio"] =
      lookups > 0 ? hits / lookups : 0.0;
  (*layers)["pattern.result_tier_lookups"] = lookups;
  (*layers)["pattern.result_tier_invalidations"] =
      after.invalidations - before.invalidations;
}

// --- serve_mixed ---------------------------------------------------------------

struct ServeState {
  std::shared_ptr<const Table> table;
  ReadMix mix;
  int64_t csv_bytes = 0;
  std::unique_ptr<server::Catalog> catalog;
  std::unique_ptr<server::Server> server;
  std::vector<server::Client> clients;

  ~ServeState() {
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

int RunServeWorkload(const Options& opts, Report* report) {
  EndToEnd e2e;
  Result<std::shared_ptr<ServeState>> setup =
      TimedSetup<std::shared_ptr<ServeState>>(
          [&]() -> Result<std::shared_ptr<ServeState>> {
            auto state = std::make_shared<ServeState>();
            const std::string csv = opts.workdir + "/compas.csv";
            {
              PCBL_ASSIGN_OR_RETURN(
                  Table table,
                  pcbl::workload::MakeCompas(kCompasCatalogRows, kDataSeed));
              auto [header, lines] = CsvLines(table);
              pcbl::Rng rng(opts.seed);
              Shuffle(&lines, &rng);
              if (!WriteFileBytes(csv, JoinLines(header, lines))) {
                return pcbl::IOError("cannot write " + csv);
              }
            }
            state->catalog = std::make_unique<server::Catalog>();
            PCBL_RETURN_IF_ERROR(
                state->catalog->AddFromCsvFile("compas", csv));
            PCBL_ASSIGN_OR_RETURN(api::Dataset dataset,
                                  state->catalog->Lookup("compas"));
            state->table = dataset.shared_table();
            state->csv_bytes =
                static_cast<int64_t>(ReadFileBytes(csv).size());
            state->mix = MakeReadMix(*state->table, opts.seed);
            server::ServerOptions options;
            options.max_inflight = 256;
            options.tenant_max_inflight = 256;
            state->server =
                std::make_unique<server::Server>(state->catalog.get(),
                                                 options);
            PCBL_RETURN_IF_ERROR(state->server->Start());
            for (int c = 0; c < kReaders; ++c) {
              PCBL_ASSIGN_OR_RETURN(
                  server::Client client,
                  server::Client::Connect(state->server->bound_address()));
              state->clients.push_back(std::move(client));
            }
            // Warm-up: both connections at once (so the tenant's session
            // pool holds two warm sessions), on a stream of its own seed.
            std::vector<std::thread> threads;
            std::atomic<bool> ok{true};
            for (int c = 0; c < kReaders; ++c) {
              threads.emplace_back([&, c] {
                ReadStream warm(state->mix, opts.seed * 31 + 1000 + c);
                for (int i = 0; i < 100; ++i) {
                  auto reply = state->clients[c].Query(
                      "bench", "compas", state->mix.specs[warm.Next()]);
                  if (!reply.ok() || !reply->status.ok()) ok = false;
                }
              });
            }
            for (std::thread& t : threads) t.join();
            if (!ok) return pcbl::InternalError("warm-up query failed");
            return state;
          },
          &e2e.setup_seconds);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  ServeState& state = **setup;
  report->Info("inputs: rows=" + std::to_string(state.table->num_rows()) +
               " attributes=" +
               std::to_string(state.table->num_attributes()) +
               " csv_bytes=" + std::to_string(state.csv_bytes) +
               " distinct_read_patterns=" +
               std::to_string(state.mix.specs.size()) + " (" +
               std::to_string(state.mix.num_counts) + " counts)");

  // Traced runs also run every request in-process, on a session over a
  // private service whose result tier sees the same request sequence.
  Tracer tracer(opts.trace);
  std::vector<std::unique_ptr<api::Session>> inproc;
  if (opts.trace) {
    api::DatasetOptions private_service;
    private_service.private_service = true;
    Result<api::Dataset> dataset =
        api::Dataset::FromTable(state.table, private_service);
    for (int c = 0; c < kReaders && dataset.ok(); ++c) {
      auto session = api::Session::Open(*dataset);
      if (!session.ok()) return 1;
      inproc.push_back(std::move(*session));
    }
    if (!dataset.ok()) return 1;
  }
  std::shared_ptr<pcbl::CountingService> service =
      state.catalog->Lookup("compas")->service();
  const pcbl::ResultTierStats tier_before = service->result_tier_stats();

  std::vector<KindLatencies> latencies(kReaders), inproc_us(kReaders);
  std::vector<std::vector<Op>> ops(kReaders);
  std::vector<ReplyLog> logs(kReaders);
  std::vector<std::vector<double>> encode_us(kReaders), decode_us(kReaders),
      reply_bytes(kReaders);
  std::vector<int64_t> failed(kReaders, 0);
  const int64_t start = Tracer::NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opts.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      ReadStream stream(state.mix, opts.seed * 31 + c);
      pcbl::Rng sampler(opts.seed * 131 + c);
      while (Tracer::NowNs() < deadline) {
        const int index = stream.Next();
        const QuerySpec& spec = state.mix.specs[index];
        const Kind kind = state.mix.kinds[index];
        // Spans of one request in 16 are kept, which bounds the trace's
        // memory; every request is timed.
        const int64_t request = opts.trace ? tracer.NewRequestId() : 0;
        Tracer* const spans = request % 16 == 0 ? &tracer : nullptr;
        const int64_t t0 = Tracer::NowNs();
        Result<wire::WireQueryResult> reply = [&] {
          Tracer::Scope span(spans, "server.round_trip", request);
          return state.clients[c].Query("bench", "compas", spec);
        }();
        ops[c].push_back({t0, Tracer::NowNs()});
        latencies[c].us[kind].push_back((ops[c].back().end_ns - t0) / 1e3);
        if (!reply.ok() || !reply->status.ok()) {
          ++failed[c];
          continue;
        }
        if (kind == kCount) {
          logs[c].counts.emplace_back(index, reply->true_count);
        } else if (sampler.UniformInt(8) == 0) {
          logs[c].sampled.emplace_back(index, Canonical(*reply));
        }
        if (!opts.trace) continue;
        // Wire cost of this request and its reply, measured on the
        // bench's side: encode both, then decode both.
        std::string spec_bytes, result_bytes;
        {
          const int64_t e0 = Tracer::NowNs();
          Tracer::Scope span(spans, "server.wire_encode", request);
          wire::Writer spec_writer, result_writer;
          wire::EncodeQuerySpec(spec, &spec_writer);
          wire::EncodeQueryResult(*reply, &result_writer);
          spec_bytes = spec_writer.Take();
          result_bytes = result_writer.Take();
          encode_us[c].push_back((Tracer::NowNs() - e0) / 1e3);
        }
        {
          const int64_t d0 = Tracer::NowNs();
          Tracer::Scope span(spans, "server.wire_decode", request);
          wire::Reader spec_reader(spec_bytes), result_reader(result_bytes);
          const bool decoded = wire::DecodeQuerySpec(spec_reader).ok() &&
                               wire::DecodeQueryResult(result_reader).ok();
          decode_us[c].push_back((Tracer::NowNs() - d0) / 1e3);
          if (!decoded) ++failed[c];
        }
        reply_bytes[c].push_back(static_cast<double>(result_bytes.size()));
        const int64_t s0 = Tracer::NowNs();
        {
          Tracer::Scope span(spans, "api.session_run", request);
          if (!inproc[c]->Run(spec).status.ok()) ++failed[c];
        }
        inproc_us[c].us[kind].push_back((Tracer::NowNs() - s0) / 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = Seconds(Tracer::NowNs() - start);
  const pcbl::ResultTierStats tier_after = service->result_tier_stats();

  KindLatencies all;
  int64_t failures = 0;
  for (int c = 0; c < kReaders; ++c) {
    all.Merge(latencies[c]);
    failures += failed[c];
  }
  int64_t wrong = 0;
  CheckReplies(state.mix, logs, state.table, report, &wrong);
  report->Attempt(all.size(), failures + wrong);
  report->Info(LatencyLine(opts.trace ? "serve_mixed (traced): " : "serve_mixed: ",
                           all, elapsed));

  if (!opts.trace) {
    for (const std::vector<Op>& caller : ops) {
      e2e.ops.insert(e2e.ops.end(), caller.begin(), caller.end());
    }
    AddEndToEnd(std::move(e2e), report);
    return 0;
  }
  std::map<std::string, double> layers;
  KindLatencies session_all;
  std::vector<double> enc, dec, bytes;
  for (int c = 0; c < kReaders; ++c) {
    session_all.Merge(inproc_us[c]);
    enc.insert(enc.end(), encode_us[c].begin(), encode_us[c].end());
    dec.insert(dec.end(), decode_us[c].begin(), decode_us[c].end());
    bytes.insert(bytes.end(), reply_bytes[c].begin(), reply_bytes[c].end());
  }
  for (int k = 0; k < 3; ++k) {
    layers[std::string("server.round_trip_us.") + kKindNames[k]] =
        Median(all.us[k]);
    layers[std::string("api.session_run_us.") + kKindNames[k]] =
        Median(session_all.us[k]);
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / v.size();
  };
  layers["server.wire_encode_us"] = mean(enc);
  layers["server.wire_decode_us"] = mean(dec);
  layers["server.reply_bytes"] = mean(bytes);
  AddTierStats(tier_before, tier_after, &layers);
  report->Info("result tier: hit ratio " +
               std::to_string(layers["pattern.result_tier_hit_ratio"]) +
               " of " +
               std::to_string(static_cast<int64_t>(
                   layers["pattern.result_tier_lookups"])) +
               " lookups");
  report->Check(tracer.WriteJsonLines(opts.workdir + "/trace.jsonl"),
                "trace written");
  AddLayers(layers, report);
  return 0;
}

// --- ingest_append -------------------------------------------------------------

struct IngestState {
  std::shared_ptr<const Table> base;       // loaded from its CSV
  std::shared_ptr<const Table> reference;  // base rows + stream, rebuilt
  std::vector<std::vector<std::string>> stream;
  ReadMix mix;
  int64_t csv_bytes = 0;
};

struct RoundResult {
  KindLatencies reads;
  std::vector<Op> read_ops;
  std::vector<double> batch_us;
  double append_seconds = 0.0;
  int64_t rows = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  pcbl::ResultTierStats tier_before, tier_after;
  pcbl::AppendBatchStats appends;
};

// One pass of the append stream into a fresh service. Each batch commit
// runs beside kReadsPerBatch reads from each reader; the next batch starts
// when all three callers are done, so every pass does the same work
// whatever the interleaving. `survivor` receives a reader of the grown
// dataset for the checks.
Result<RoundResult> RunIngestRound(const IngestState& state,
                                   const Options& opts, int round,
                                   Tracer* tracer,
                                   std::unique_ptr<api::Session>* survivor) {
  pcbl::ServiceRegistry::Global().Clear();
  PCBL_ASSIGN_OR_RETURN(api::Dataset dataset,
                        api::Dataset::FromTable(state.base));
  PCBL_ASSIGN_OR_RETURN(std::unique_ptr<api::Session> appender,
                        api::Session::Open(dataset));
  std::vector<std::unique_ptr<api::Session>> readers;
  std::vector<ReadStream> streams;
  for (int r = 0; r < kReaders; ++r) {
    PCBL_ASSIGN_OR_RETURN(std::unique_ptr<api::Session> reader,
                          api::Session::Open(dataset));
    // Untimed warm-up: builds the session's VC / P_A.
    if (!reader->Run(QuerySpec::LabelSearch(kBound)).status.ok()) {
      return pcbl::InternalError("reader warm-up failed");
    }
    readers.push_back(std::move(reader));
    streams.emplace_back(state.mix, opts.seed * 31 + 977 * round + r);
  }
  RoundResult out;
  out.tier_before = dataset.service()->result_tier_stats();
  std::vector<KindLatencies> reads(kReaders);
  std::vector<std::vector<Op>> read_ops(kReaders);
  std::vector<int64_t> failed(kReaders, 0);
  auto read_loop = [&](int r) {
    for (int i = 0; i < kReadsPerBatch; ++i) {
      const int index = streams[r].Next();
      const int64_t request = tracer->enabled() ? tracer->NewRequestId() : 0;
      const int64_t t0 = Tracer::NowNs();
      bool ok;
      {
        Tracer::Scope span(tracer, "api.session_run", request);
        ok = readers[r]->Run(state.mix.specs[index]).status.ok();
      }
      read_ops[r].push_back({t0, Tracer::NowNs()});
      reads[r].us[state.mix.kinds[index]].push_back(
          (read_ops[r].back().end_ns - t0) / 1e3);
      if (!ok) ++failed[r];
    }
  };
  const int64_t start = Tracer::NowNs();
  for (size_t first = 0; first < state.stream.size();
       first += kAppendBatchRows) {
    const size_t last =
        std::min(state.stream.size(), first + kAppendBatchRows);
    const std::vector<std::vector<std::string>> batch(
        state.stream.begin() + first, state.stream.begin() + last);
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) threads.emplace_back(read_loop, r);
    const int64_t request = tracer->enabled() ? tracer->NewRequestId() : 0;
    const int64_t t0 = Tracer::NowNs();
    Status s;
    {
      Tracer::Scope span(tracer, "api.append_batch", request);
      s = appender->AppendRows(batch);
    }
    out.batch_us.push_back((Tracer::NowNs() - t0) / 1e3);
    ++out.attempted;
    if (s.ok()) {
      out.rows += static_cast<int64_t>(batch.size());
    } else {
      ++out.failed;
    }
    for (std::thread& t : threads) t.join();
  }
  out.append_seconds = Seconds(Tracer::NowNs() - start);
  for (int r = 0; r < kReaders; ++r) {
    out.reads.Merge(reads[r]);
    out.read_ops.insert(out.read_ops.end(), read_ops[r].begin(),
                        read_ops[r].end());
    out.attempted += kReadsPerBatch * static_cast<int64_t>(
                                          out.batch_us.size());
    out.failed += failed[r];
  }
  out.tier_after = dataset.service()->result_tier_stats();
  out.appends = dataset.service()->append_stats();
  *survivor = std::move(readers[0]);
  return out;
}

// After the stream: true counts, labels and the profile of the grown
// dataset equal a from-scratch session over the base rows plus the
// stream, and the counts equal a plain scan of those rows.
void CheckIngest(const IngestState& state, api::Session* grown,
                 Report* report, int64_t* wrong) {
  Result<std::unique_ptr<api::Session>> reference =
      ReferenceSession(state.reference);
  report->Check(reference.ok(), "reference session opens");
  if (!reference.ok()) return;
  report->Check(grown->total_rows() == state.reference->num_rows(),
                "grown dataset holds base rows plus the stream");
  const std::vector<int64_t> scanned =
      ScanCounts(state.mix, *state.reference);
  std::vector<int> specs;
  for (int i = 0; i < state.mix.num_counts; i += 16) specs.push_back(i);
  for (int i = state.mix.num_counts;
       i < static_cast<int>(state.mix.specs.size()); ++i) {
    specs.push_back(i);
  }
  for (int index : specs) {
    const QuerySpec& spec = state.mix.specs[index];
    const QueryResult got = grown->Run(spec);
    const QueryResult want = (*reference)->Run(spec);
    // Codes of appended values extend the base dictionaries in first-seen
    // order, as the rebuilt table assigns them, so both labels detach over
    // the rebuilt table's dictionaries.
    const bool same =
        got.status.ok() && want.status.ok() &&
        Canonical(wire::ToWireResult(got, *state.reference)) ==
            Canonical(wire::ToWireResult(want, *state.reference)) &&
        (spec.kind != QuerySpec::Kind::kTrueCount ||
         got.true_count == scanned[index]);
    if (!same) ++*wrong;
  }
  report->Info("checked: " + std::to_string(specs.size()) +
               " reads of the grown dataset against a from-scratch build");
  report->Check(*wrong == 0, "grown dataset equals a from-scratch build");
}

int RunIngestWorkload(const Options& opts, Report* report) {
  EndToEnd e2e;
  Result<std::shared_ptr<IngestState>> setup =
      TimedSetup<std::shared_ptr<IngestState>>(
          [&]() -> Result<std::shared_ptr<IngestState>> {
            auto state = std::make_shared<IngestState>();
            PCBL_ASSIGN_OR_RETURN(
                Table full,
                pcbl::workload::MakeCompas(
                    kCompasCatalogRows + kIngestStreamRows, kDataSeed));
            auto [header, lines] = CsvLines(full);
            std::vector<std::string> base(lines.begin(),
                                          lines.begin() + kCompasCatalogRows);
            std::vector<std::string> stream(
                lines.begin() + kCompasCatalogRows, lines.end());
            pcbl::Rng rng(opts.seed);
            Shuffle(&base, &rng);
            Shuffle(&stream, &rng);
            const std::string csv = opts.workdir + "/compas_base.csv";
            const std::string base_text = JoinLines(header, base);
            if (!WriteFileBytes(csv, base_text)) {
              return pcbl::IOError("cannot write " + csv);
            }
            PCBL_ASSIGN_OR_RETURN(Table loaded, pcbl::ReadCsvFile(csv));
            state->base = std::make_shared<const Table>(std::move(loaded));
            PCBL_ASSIGN_OR_RETURN(state->stream,
                                  pcbl::ParseCsvRecords(JoinLines("", stream)));
            // The from-scratch table: base rows, then the stream in commit
            // order, so its codes match the appends' first-seen codes.
            PCBL_ASSIGN_OR_RETURN(
                Table rebuilt,
                pcbl::ReadCsvString(base_text + JoinLines("", stream)));
            state->reference = std::make_shared<const Table>(std::move(rebuilt));
            state->csv_bytes = static_cast<int64_t>(base_text.size());
            state->mix = MakeReadMix(*state->base, opts.seed);
            return state;
          },
          &e2e.setup_seconds);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  const IngestState& state = **setup;
  report->Info("inputs: rows=" + std::to_string(state.base->num_rows()) +
               " attributes=" +
               std::to_string(state.base->num_attributes()) +
               " csv_bytes=" + std::to_string(state.csv_bytes) +
               " append_stream_rows=" + std::to_string(state.stream.size()) +
               " batch_rows=" + std::to_string(kAppendBatchRows) +
               " distinct_read_patterns=" +
               std::to_string(state.mix.specs.size()) + " (" +
               std::to_string(state.mix.num_counts) + " counts)");

  Tracer tracer(opts.trace);
  RoundResult total;
  std::unique_ptr<api::Session> grown;
  const int64_t deadline =
      Tracer::NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  int rounds = 0;
  while (Tracer::NowNs() < deadline || rounds < 2) {
    grown.reset();
    Result<RoundResult> round =
        RunIngestRound(state, opts, rounds, &tracer, &grown);
    if (!round.ok()) {
      std::fprintf(stderr, "round: %s\n", round.status().ToString().c_str());
      return 1;
    }
    total.reads.Merge(round->reads);
    total.read_ops.insert(total.read_ops.end(), round->read_ops.begin(),
                          round->read_ops.end());
    e2e.pass_rates.push_back(round->rows / round->append_seconds);
    total.batch_us.insert(total.batch_us.end(), round->batch_us.begin(),
                          round->batch_us.end());
    total.append_seconds += round->append_seconds;
    total.rows += round->rows;
    total.attempted += round->attempted;
    total.failed += round->failed;
    // Tier counters restart with each round's fresh service.
    total.tier_after.hits += round->tier_after.hits - round->tier_before.hits;
    total.tier_after.misses +=
        round->tier_after.misses - round->tier_before.misses;
    total.tier_after.invalidations +=
        round->tier_after.invalidations - round->tier_before.invalidations;
    total.appends.batches += round->appends.batches;
    total.appends.requests += round->appends.requests;
    ++rounds;
  }
  int64_t wrong = 0;
  CheckIngest(state, grown.get(), report, &wrong);
  grown.reset();
  report->Attempt(total.attempted, total.failed + wrong);
  report->Info(LatencyLine(opts.trace ? "ingest_append reads (traced): "
                                      : "ingest_append reads: ",
                           total.reads,
                           total.append_seconds));
  report->Info("append_rows_per_s=" +
               std::to_string(total.rows / total.append_seconds) +
               " over " + std::to_string(rounds) + " passes of the stream (" +
               std::to_string(total.batch_us.size()) + " batches)");

  if (!opts.trace) {
    e2e.ops = std::move(total.read_ops);
    AddEndToEnd(std::move(e2e), report);
    return 0;
  }
  std::map<std::string, double> layers;
  for (int k = 0; k < 3; ++k) {
    layers[std::string("api.session_run_us.") + kKindNames[k]] =
        Median(total.reads.us[k]);
  }
  layers["api.append_batch_us.p50"] = Median(total.batch_us);
  layers["api.append_batch_us.p99"] = Percentile(total.batch_us, 0.99);
  layers["pattern.append_requests_per_commit"] =
      total.appends.batches > 0
          ? static_cast<double>(total.appends.requests) /
                total.appends.batches
          : 0.0;
  pcbl::ResultTierStats zero;
  AddTierStats(zero, total.tier_after, &layers);
  report->Check(tracer.WriteJsonLines(opts.workdir + "/trace.jsonl"),
                "trace written");
  AddLayers(layers, report);
  return 0;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--workdir") {
      opts.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opts.workdir.empty() || opts.seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  Report report;
  int code;
  if (opts.workload == "build_compas_200k" ||
      opts.workload == "build_creditcard_30k") {
    code = RunBuildWorkload(opts, &report);
  } else if (opts.workload == "serve_mixed") {
    code = RunServeWorkload(opts, &report);
  } else if (opts.workload == "ingest_append") {
    code = RunIngestWorkload(opts, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  if (code != 0) return code;
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
