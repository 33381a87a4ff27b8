#include "api/session.h"

#include <algorithm>
#include <utility>

#include "core/pattern_set.h"
#include "core/search.h"
#include "pattern/service_registry.h"
#include "util/logging.h"
#include "util/str.h"

namespace pcbl {
namespace api {

namespace {

// The retryable refusal for a query whose shared service lost the race
// with registry eviction; every refusal is logged in the registry stats.
Status EvictedServiceStatus() {
  ServiceRegistry::Global().NoteEvictedRejection();
  return UnavailableError(
      "this dataset's shared counting service was evicted from the "
      "process-wide registry; re-open the Dataset (a fresh shared "
      "service is acquired) and retry the query");
}

// The post-admission half of every query kind's admission protocol
// (the caller holds a QueryAdmission): an eviction that raced the fast
// path in Session::Execute either drained this query (it was admitted
// first) or is visible here — the registry marks before it quiesces.
Status CheckAdmitted(const CountingService& service) {
  if (service.evicted()) return EvictedServiceStatus();
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<Session>> Session::Open(Dataset dataset,
                                               SessionOptions options) {
  if (options.num_threads < 0) {
    return InvalidArgumentError(
        StrCat("num_threads must be >= 0 (0 = all hardware threads), got ",
               options.num_threads));
  }
  if (options.executor_threads <= 0) {
    return InvalidArgumentError(
        StrCat("executor_threads must be positive, got ",
               options.executor_threads));
  }
  if (options.counting_cache_budget < -1) {
    return InvalidArgumentError(
        "counting_cache_budget must be >= 0 (or -1 for the engine "
        "default)");
  }
  if (!options.use_counting_engine && options.counting_cache_budget > 0) {
    return InvalidArgumentError(
        "conflicting engine flags: a disabled counting engine cannot "
        "honour a positive cache budget");
  }
  if (options.result_cache_budget < -1) {
    return InvalidArgumentError(
        "result_cache_budget must be >= 0 (or -1 for the service "
        "default)");
  }
  if (options.min_rows_per_morsel < -1) {
    return InvalidArgumentError(
        "min_rows_per_morsel must be >= 0 (0 disables intra-subset "
        "parallelism; -1 for the engine default)");
  }
  if (!options.use_result_cache && options.result_cache_budget > 0) {
    return InvalidArgumentError(
        "conflicting result-cache flags: a disabled result cache cannot "
        "honour a positive byte budget");
  }
  if (options.num_threads == 0) options.num_threads = DefaultThreadCount();
  return std::unique_ptr<Session>(
      new Session(std::move(dataset), options));
}

Session::Session(Dataset dataset, SessionOptions options)
    : dataset_(std::move(dataset)),
      options_(options),
      executor_(options.executor_threads) {}

Status Session::Validate(const QuerySpec& spec) const {
  PCBL_RETURN_IF_ERROR(ValidateQuerySpec(spec));
  // Engine-flag conflicts across the spec/session boundary: a query may
  // inherit the disabled engine from the session while requesting a
  // positive budget itself, or vice versa.
  const bool engine_on =
      spec.use_counting_engine.value_or(options_.use_counting_engine);
  const int64_t budget = spec.counting_cache_budget.has_value()
                             ? *spec.counting_cache_budget
                             : options_.counting_cache_budget;
  if (!engine_on && budget > 0) {
    return InvalidArgumentError(
        "conflicting engine flags: a disabled counting engine cannot "
        "honour a positive cache budget");
  }
  // Same cross-boundary check for the result tier: a spec may inherit
  // the disabled cache from the session while asking for a budget
  // itself, or vice versa.
  const bool result_cache_on =
      spec.use_result_cache.value_or(options_.use_result_cache);
  const int64_t result_budget = spec.result_cache_budget.has_value()
                                    ? *spec.result_cache_budget
                                    : options_.result_cache_budget;
  if (!result_cache_on && result_budget > 0) {
    return InvalidArgumentError(
        "conflicting result-cache flags: a disabled result cache cannot "
        "honour a positive byte budget");
  }
  if (!spec.focus.empty() &&
      !spec.focus.IsSubsetOf(
          AttrMask::All(dataset_.table().num_attributes()))) {
    return InvalidArgumentError("focus attributes exceed the schema");
  }
  return Status::Ok();
}

SearchOptions Session::ToSearchOptions(const QuerySpec& spec) const {
  SearchOptions options;
  options.size_bound = spec.size_bound;
  options.metric = spec.metric;
  options.time_limit_seconds = spec.time_limit_seconds;
  options.record_candidates = spec.record_candidates;
  options.num_threads = spec.num_threads.value_or(options_.num_threads);
  options.use_counting_engine =
      spec.use_counting_engine.value_or(options_.use_counting_engine);
  const int64_t budget = spec.counting_cache_budget.has_value()
                             ? *spec.counting_cache_budget
                             : options_.counting_cache_budget;
  if (budget >= 0) options.counting_cache_budget = budget;
  const int64_t morsel_rows = spec.min_rows_per_morsel.has_value()
                                  ? *spec.min_rows_per_morsel
                                  : options_.min_rows_per_morsel;
  if (morsel_rows >= 0) options.min_rows_per_morsel = morsel_rows;
  return options;
}

CountingEngineOptions Session::ToEngineOptions(const QuerySpec& spec) const {
  const SearchOptions search = ToSearchOptions(spec);
  CountingEngineOptions options;
  options.enabled = search.use_counting_engine;
  options.num_threads = search.num_threads;
  options.cache_budget = search.counting_cache_budget;
  options.min_rows_per_morsel = search.min_rows_per_morsel;
  return options;
}

Result<QueryFuture> Session::Submit(QuerySpec spec) {
  PCBL_RETURN_IF_ERROR(Validate(spec));
  // The packaged task lives in a shared_ptr so the executor's copyable
  // std::function can carry it; the future shares its state.
  auto task = std::make_shared<std::packaged_task<QueryResult()>>(
      [this, spec = std::move(spec)]() { return Execute(spec); });
  QueryFuture future(task->get_future().share());
  executor_.Submit([task]() { (*task)(); });
  return future;
}

QueryResult Session::Run(const QuerySpec& spec) {
  Result<QueryFuture> future = Submit(spec);
  if (!future.ok()) {
    QueryResult result;
    result.kind = spec.kind;
    result.status = future.status();
    return result;
  }
  return future->Get();
}

QueryResult Session::Execute(const QuerySpec& spec) {
  // A service the registry evicted (memory pressure or Clear) still
  // computes exactly for existing holders, but it is detached: no other
  // consumer can find it, so its cache warms nobody and nobody warms it.
  // Refuse retryably instead of silently degrading — re-opening the
  // Dataset acquires a fresh, findable shared service. This is the
  // cheap pre-admission fast path; the admitted bodies re-check, since
  // a Clear may mark-and-quiesce between this probe and the admission.
  if (dataset_.service()->evicted()) {
    QueryResult result;
    result.kind = spec.kind;
    result.status = EvictedServiceStatus();
    return result;
  }
  switch (spec.kind) {
    case QuerySpec::Kind::kLabelSearch:
      return ExecuteSearch(spec);
    case QuerySpec::Kind::kTrueCount:
      return ExecuteTrueCount(spec);
    case QuerySpec::Kind::kProfile:
      return ExecuteProfile(spec);
  }
  QueryResult result;
  result.status = InternalError("unknown query kind");
  return result;
}

QueryResult Session::ExecuteViaResultTier(
    const QuerySpec& spec, const std::function<QueryResult()>& body) {
  CountingService& service = *dataset_.service();
  const bool cache_on =
      spec.use_result_cache.value_or(options_.use_result_cache);
  // Stable for the whole call: the caller's admission excludes appends.
  // Every cacheable result is a pure function of (content, spec): value
  // strings resolve through the service's shared interner, so appends
  // grow every session's view identically — and each append arm clears
  // this cache eagerly, so no entry outlives the rows it describes.
  const int64_t rows = service.engine().total_rows();
  if (!cache_on || !QuerySpecCacheable(spec)) {
    return body();
  }
  const QueryResultKey key =
      CanonicalQueryKey(spec, dataset_.fingerprint());
  const int64_t budget = spec.result_cache_budget.has_value()
                             ? *spec.result_cache_budget
                             : options_.result_cache_budget;
  ResultProbe probe = service.ResultLookupOrBegin(key, rows, budget);
  if (probe.hit) {
    return *std::static_pointer_cast<const QueryResult>(probe.value);
  }
  if (probe.leader) {
    QueryResult result;
    try {
      result = body();
    } catch (...) {
      // Joiners rethrow from their future, exactly as executing the
      // query themselves would have thrown.
      service.ResultAbort(key, std::current_exception());
      throw;
    }
    auto shared = std::make_shared<const QueryResult>(std::move(result));
    // Error results still resolve the parked joiners (the error is
    // deterministic for an identical spec) but are not retained.
    service.ResultPublish(key, shared, ApproxQueryResultBytes(*shared),
                          /*cache=*/shared->status.ok());
    return *shared;
  }
  // An identical query is in flight: park on its leader. The leader
  // holds only its own shared admission, so it always makes progress.
  return *std::static_pointer_cast<const QueryResult>(probe.join.get());
}

QueryResult Session::ExecuteSearch(const QuerySpec& spec) {
  CountingService& service = *dataset_.service();
  // A shared admission pins the engine's data (appends are excluded) for
  // the whole query while sizing waves merge with concurrent queries'.
  CountingService::QueryAdmission admission(service);
  Status admitted = CheckAdmitted(service);
  if (!admitted.ok()) {
    QueryResult result;
    result.kind = spec.kind;
    result.status = admitted;
    return result;
  }
  return ExecuteViaResultTier(spec,
                              [&] { return ExecuteSearchAdmitted(spec); });
}

QueryResult Session::ExecuteSearchAdmitted(const QuerySpec& spec) {
  QueryResult result;
  result.kind = spec.kind;
  CountingService& service = *dataset_.service();
  const int64_t total = service.engine().total_rows();
  result.total_rows = total;
  const bool extended = total != dataset_.table().num_rows();
  std::shared_ptr<const ValueCounts> vc = SyncedVc();
  std::shared_ptr<const FullPatternIndex> fpi = SyncedFpi();
  LabelSearch search(dataset_.table(), vc, fpi, dataset_.service());
  if (extended) search.SetExtendedState(vc, fpi, total);
  if (!spec.focus.empty()) {
    Result<PatternSet> focus_set = FocusPatterns(spec, *vc);
    if (!focus_set.ok()) {
      result.status = focus_set.status();
      return result;
    }
    search.SetEvaluationPatterns(
        std::make_shared<const PatternSet>(std::move(*focus_set)), total);
  }
  const SearchOptions options = ToSearchOptions(spec);
  result.search = spec.algorithm == QuerySpec::Algorithm::kNaive
                      ? search.NaiveAdmitted(options)
                      : search.TopDownAdmitted(options);
  return result;
}

Result<PatternSet> Session::FocusPatterns(const QuerySpec& spec,
                                          const ValueCounts& vc) {
  CountingService& service = *dataset_.service();
  std::vector<Pattern> patterns;
  std::vector<int64_t> counts;
  if (spec.focus.Count() >= 2) {
    // The fully-bound groups of the PC set over the focus mask are
    // exactly the distinct non-NULL combinations with their counts, in
    // ascending key order (partially-bound groups carry kNullValue for
    // unbound attributes and are skipped).
    std::shared_ptr<const GroupCounts> pc =
        service.WavePatternCounts({spec.focus}, ToEngineOptions(spec))[0];
    const int width = pc->key_width();
    for (int64_t g = 0; g < pc->num_groups(); ++g) {
      const ValueId* key = pc->key(g);
      bool full = true;
      for (int j = 0; j < width; ++j) {
        if (IsNull(key[j])) {
          full = false;
          break;
        }
      }
      if (!full) continue;
      patterns.push_back(pc->ToPattern(g));
      counts.push_back(pc->count(g));
    }
  } else {
    // Arity 1: PC sets hold no single-attribute patterns; the synced VC
    // is the maintained ground truth, read in ascending ValueId order.
    const int attr = spec.focus.ToIndices()[0];
    const std::vector<int64_t>& per_value = vc.CountsFor(attr);
    for (size_t v = 0; v < per_value.size(); ++v) {
      if (per_value[v] == 0) continue;
      PCBL_ASSIGN_OR_RETURN(
          Pattern p,
          Pattern::Create({PatternTerm{attr, static_cast<ValueId>(v)}}));
      patterns.push_back(std::move(p));
      counts.push_back(per_value[v]);
    }
  }
  // A stable count-descending sort over keys in ascending order: count
  // ties land in key order, so the search's ErrorReport (evaluated /
  // early-terminated counts included) is the same whether the data was
  // appended to or rebuilt from scratch.
  return PatternSet::FromPatternsAndCounts(std::move(patterns),
                                           std::move(counts));
}

QueryResult Session::ExecuteTrueCount(const QuerySpec& spec) {
  QueryResult result;
  result.kind = spec.kind;
  // The label-side estimate needs no data access at all (the paper's
  // consumer-side story) — answer it before touching the service.
  if (spec.label != nullptr) {
    Result<double> estimate = spec.label->EstimateCount(spec.pattern);
    if (!estimate.ok()) {
      result.status = estimate.status();
      return result;
    }
    result.estimate = *estimate;
  }
  CountingService& service = *dataset_.service();
  CountingService::QueryAdmission admission(service);
  Status admitted = CheckAdmitted(service);
  if (!admitted.ok()) {
    result.status = admitted;
    return result;
  }
  // The tier caches the counted half only (ExecuteTrueCountAdmitted
  // never sets `estimate`): the data-backed count is label-independent,
  // so specs differing only in `label` share one cache entry and each
  // caller merges its own estimate below.
  QueryResult counted = ExecuteViaResultTier(
      spec, [&] { return ExecuteTrueCountAdmitted(spec); });
  counted.estimate = result.estimate;  // computed service-free above
  return counted;
}

QueryResult Session::ExecuteTrueCountAdmitted(const QuerySpec& spec) {
  QueryResult result;
  result.kind = spec.kind;
  CountingService& service = *dataset_.service();
  result.total_rows = service.engine().total_rows();
  Result<std::vector<std::pair<int, ValueId>>> terms =
      ResolvePatternLocked(spec.pattern);
  if (!terms.ok()) {
    result.status = terms.status();
    return result;
  }
  if (terms->size() >= 2) {
    // The fully-bound PC group over Attr(p) is exactly c_D(p); the
    // engine answers it from a warm PC set or one (delta-aware) scan.
    AttrMask mask;
    for (const auto& [attr, value] : *terms) mask.Set(attr);
    std::shared_ptr<const GroupCounts> pc =
        service.WavePatternCounts({mask}, ToEngineOptions(spec))[0];
    const int width = pc->key_width();
    for (int64_t g = 0; g < pc->num_groups(); ++g) {
      const ValueId* key = pc->key(g);
      bool match = true;
      for (int j = 0; j < width; ++j) {
        if (key[j] != (*terms)[static_cast<size_t>(j)].second) {
          match = false;
          break;
        }
      }
      if (match) {
        result.true_count = pc->count(g);
        break;
      }
    }
  } else {
    // Arity-1 counts are VC entries — maintained across appends.
    std::shared_ptr<const ValueCounts> vc = SyncedVc();
    result.true_count =
        vc->Count((*terms)[0].first, (*terms)[0].second);
  }
  return result;
}

QueryResult Session::ExecuteProfile(const QuerySpec& spec) {
  QueryResult result;
  result.kind = spec.kind;
  CountingService& service = *dataset_.service();
  // The profile is one wave: admit shared and let it merge.
  CountingService::QueryAdmission admission(service);
  Status admitted = CheckAdmitted(service);
  if (!admitted.ok()) {
    result.status = admitted;
    return result;
  }
  return ExecuteViaResultTier(spec,
                              [&] { return ExecuteProfileAdmitted(spec); });
}

QueryResult Session::ExecuteProfileAdmitted(const QuerySpec& spec) {
  QueryResult result;
  result.kind = spec.kind;
  CountingService& service = *dataset_.service();
  result.total_rows = service.engine().total_rows();
  const int n = dataset_.table().num_attributes();
  std::vector<AttrMask> masks;
  masks.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      masks.push_back(AttrMask::Single(i).Union(AttrMask::Single(j)));
    }
  }
  const std::vector<int64_t> sizes =
      service.WaveCountPatterns(masks, /*budget=*/-1, ToEngineOptions(spec));
  result.pairs.reserve(masks.size());
  size_t k = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j, ++k) {
      result.pairs.push_back(PairwiseSize{i, j, sizes[k]});
    }
  }
  return result;
}

Status Session::AppendRow(const std::vector<std::string>& values) {
  const int n = dataset_.table().num_attributes();
  if (static_cast<int>(values.size()) != n) {
    return InvalidArgumentError(
        StrCat("row has ", values.size(), " values, schema has ", n));
  }
  // The service owns the whole append: central interning, group commit
  // with concurrent appenders, one engine hook per merged batch. VC /
  // P_A are not patched here — queries lazily catch up from the
  // engine's rows, the same path a sibling session's appends take.
  std::vector<std::vector<std::string>> rows;
  rows.push_back(values);
  PCBL_RETURN_IF_ERROR(dataset_.service()->AppendStrings(rows));
  std::lock_guard<std::mutex> slock(state_mu_);
  session_appended_ += 1;
  return Status::Ok();
}

Status Session::AppendRows(
    const std::vector<std::vector<std::string>>& rows) {
  // Width validation happens transactionally inside the group commit: a
  // bad row fails the whole ticket and nothing of it becomes visible.
  PCBL_RETURN_IF_ERROR(dataset_.service()->AppendStrings(rows));
  std::lock_guard<std::mutex> slock(state_mu_);
  session_appended_ += static_cast<int64_t>(rows.size());
  return Status::Ok();
}

Status Session::Append(const Table& delta) {
  const Table& table = dataset_.table();
  const int n = table.num_attributes();
  // Fast-fail schema checks before queueing behind the admission; the
  // service re-validates inside the commit (same wording) for callers
  // that reach it directly.
  if (delta.num_attributes() != n) {
    return InvalidArgumentError("delta schema width differs");
  }
  for (int a = 0; a < n; ++a) {
    if (delta.schema().name(a) != table.schema().name(a)) {
      return InvalidArgumentError(
          StrCat("delta attribute ", a, " is \"", delta.schema().name(a),
                 "\", expected \"", table.schema().name(a), "\""));
    }
  }
  PCBL_RETURN_IF_ERROR(dataset_.service()->AppendTable(delta));
  std::lock_guard<std::mutex> slock(state_mu_);
  session_appended_ += delta.num_rows();
  return Status::Ok();
}

std::vector<ValueId> Session::EngineRows(int64_t from, int64_t to) const {
  const CountingEngine& engine = dataset_.service()->engine();
  const int64_t base = dataset_.table().num_rows();
  const int n = dataset_.table().num_attributes();
  std::vector<ValueId> rows(static_cast<size_t>((to - from) * n));
  if (to > from) engine.CopyAppendedRows(from - base, to - from, rows.data());
  return rows;
}

std::shared_ptr<const ValueCounts> Session::SyncedVc() {
  const CountingEngine& engine = dataset_.service()->engine();
  // Stable under the caller's admission: appenders are excluded.
  const int64_t total = engine.total_rows();
  // The whole check-compute-publish runs under state_mu_: two of this
  // session's queries may race here (shared admissions), and both must
  // observe a consistent (vc_, vc_rows_) pair. The catch-up itself is
  // per-session work — holding the lock across it serializes only
  // siblings of this session, never the service.
  std::lock_guard<std::mutex> slock(state_mu_);
  if (vc_ != nullptr && vc_rows_ == total) return vc_;
  std::shared_ptr<ValueCounts> next;
  int64_t have;
  if (vc_ == nullptr) {
    next = std::make_shared<ValueCounts>(
        ValueCounts::Compute(dataset_.table()));
    have = dataset_.table().num_rows();
  } else {
    next = std::make_shared<ValueCounts>(*vc_);
    have = vc_rows_;
  }
  const int n = dataset_.table().num_attributes();
  const std::vector<ValueId> flat = EngineRows(have, total);
  for (int64_t r = 0; r < total - have; ++r) {
    next->ApplyRow(flat.data() + r * n, n);
  }
  vc_ = std::move(next);
  vc_rows_ = total;
  return vc_;
}

std::shared_ptr<const FullPatternIndex> Session::SyncedFpi() {
  const CountingEngine& engine = dataset_.service()->engine();
  const int64_t total = engine.total_rows();
  std::lock_guard<std::mutex> slock(state_mu_);
  if (fpi_ != nullptr && fpi_rows_ == total) return fpi_;
  std::shared_ptr<FullPatternIndex> next;
  int64_t have;
  if (fpi_ == nullptr) {
    next = std::make_shared<FullPatternIndex>(
        FullPatternIndex::Build(dataset_.table()));
    have = dataset_.table().num_rows();
  } else {
    next = std::make_shared<FullPatternIndex>(*fpi_);
    have = fpi_rows_;
  }
  if (have < total) {
    const std::vector<ValueId> flat = EngineRows(have, total);
    next->ApplyAppend(flat.data(), total - have);
  }
  fpi_ = std::move(next);
  fpi_rows_ = total;
  return fpi_;
}

Result<std::vector<std::pair<int, ValueId>>> Session::ResolvePatternLocked(
    const std::vector<std::pair<std::string, std::string>>& terms) const {
  const Table& table = dataset_.table();
  std::vector<std::pair<int, ValueId>> out;
  out.reserve(terms.size());
  AttrMask seen;
  for (const auto& [name, value] : terms) {
    PCBL_ASSIGN_OR_RETURN(int attr, table.schema().FindAttribute(name));
    // The shared interner resolves values appended after the base table
    // was built — by this session or any sibling; wording mirrors
    // Pattern::Parse.
    const ValueId v = dataset_.service()->interner().Lookup(attr, value);
    if (IsNull(v)) {
      return NotFoundError(StrCat("value '", value,
                                  "' does not appear in attribute '",
                                  name, "'"));
    }
    if (seen.Test(attr)) {
      return InvalidArgumentError(
          StrCat("duplicate attribute ", attr, " in pattern"));
    }
    seen.Set(attr);
    out.emplace_back(attr, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int64_t Session::total_rows() const {
  // Lock-free snapshot of the shared service's growth: counts rows
  // appended by every session on this service, not just this one.
  return dataset_.table().num_rows() +
         dataset_.service()->engine().AppendedRowsRelaxed();
}

int64_t Session::appended_rows() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return session_appended_;
}

}  // namespace api
}  // namespace pcbl
