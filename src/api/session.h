// pcbl::api::Session — the mutable unit of the public API.
//
// A Session is opened over a Dataset and is the one blessed way to query
// and grow it:
//
//   auto dataset = pcbl::api::Dataset::FromCsvFile("data.csv");
//   auto session = pcbl::api::Session::Open(*dataset);
//   auto future  = (*session)->Submit(
//       pcbl::api::QuerySpec::LabelSearch(/*size_bound=*/100));
//   const pcbl::api::QueryResult& result = future->Get();
//
// Queries (QuerySpec: label search / true count / profile) are validated
// centrally at Submit — nonsense inputs come back as Status instead of
// being clamped — and execute asynchronously on the session's ThreadPool
// executor; Submit returns a QueryFuture immediately. N concurrent
// queries against content-equal datasets ride one warm registry-shared
// CountingService: each is admitted through the service's gate in
// shared mode and submits its sizing waves to the *wave scheduler*,
// which merges all in-flight queries' batches into single deduped
// engine calls — so concurrent sessions over equal data perform at most
// one set of full-table scans between them and their ranking phases
// overlap instead of queueing (docs/CONCURRENCY.md has the full model).
// A query whose shared service was evicted by the registry (memory
// pressure / Clear) is refused with a retryable kUnavailable instead of
// silently computing on a detached service — re-open the Dataset and
// retry.
//
// Appends. Session::Append / AppendRow / AppendRows route through the
// shared service's string-level append surface
// (CountingService::AppendStrings / AppendTable): values are interned
// centrally in the service's SharedInterner (ids extend the base code
// space in committed first-seen order, exactly as TableBuilder would
// assign them), concurrent appends — from this session or any sibling —
// group-commit into one critical section behind the exclusive append
// admission, and the rows join the engine's invalidate-or-patch delta
// block. Each append is transactional: on a non-ok status none of its
// rows or values is visible anywhere. A query submitted afterwards runs
// append-aware: it lazily catches the session's VC / P_A up to the
// engine's rows (CountingEngine::CopyAppendedRows) and certifies its
// label against the extended data byte-exactly versus a from-scratch
// rebuild — including focus (custom PatternSet) searches, whose pattern
// set is derived from the engine's delta-aware PC sets.
//
// Sharing and growth: any number of sessions append to one shared
// service concurrently, and the central interner means every sibling
// resolves appended *strings* too — a true-count query on a value only
// ever seen in a sibling's appended rows answers exactly. A *new*
// Dataset over the base content acquires a fresh base-content service
// (the registry retires diverged services), so appends never leak
// between datasets.
#ifndef PCBL_API_SESSION_H_
#define PCBL_API_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/dataset.h"
#include "api/query.h"
#include "core/pattern_set.h"
#include "pattern/counting_engine.h"
#include "pattern/full_pattern_index.h"
#include "relation/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pcbl {
namespace api {

/// Session-level defaults; per-query overrides live on QuerySpec.
struct SessionOptions {
  /// Worker threads for candidate sizing/ranking. 0 = all hardware
  /// threads (resolved at Open); negative is rejected. Results are
  /// byte-identical for any value.
  int num_threads = 0;

  /// Candidate sizing through the batched+memoized counting engine;
  /// disabling reverts to serial one-shot scans (byte-identical).
  bool use_counting_engine = true;

  /// Engine memoization budget in cached group entries; -1 = the
  /// engine's default, 0 disables memoization. A positive budget
  /// combined with a disabled engine is rejected as conflicting.
  int64_t counting_cache_budget = -1;

  /// Minimum rows per morsel for morsel-parallel exact sizing scans;
  /// -1 = the engine default, 0 disables intra-subset parallelism.
  /// Result-neutral: only wall-clock changes. See
  /// CountingEngineOptions::min_rows_per_morsel.
  int64_t min_rows_per_morsel = -1;

  /// Threads of the session's async query executor (Submit). Queries
  /// admitted concurrently merge their sizing waves and rank in
  /// parallel, so more executor threads buy real overlap.
  int executor_threads = 1;

  /// Ignored: every query rides the wave scheduler.
  bool use_wave_scheduler = true;

  /// Route queries through the service's two-level result tier:
  /// identical in-flight queries collapse onto one execution (later
  /// arrivals park on the leader's shared future), identical repeats
  /// answer from a bounded per-service cache of completed results.
  /// Byte-identical results either way — the key covers every
  /// result-affecting field; disabling is the differential harness'
  /// reference arm. See DESIGN.md §5.7 and docs/CONCURRENCY.md.
  bool use_result_cache = true;

  /// Byte budget of the shared service's completed-result cache; -1 =
  /// the service default (CountingService::kDefaultResultCacheBudget),
  /// 0 = in-flight dedup only. Applied on this session's queries (last
  /// writer wins across sessions sharing the service); the cached bytes
  /// are accounted in the process-wide registry budget alongside the
  /// engine's PC sets.
  int64_t result_cache_budget = -1;
};

class Session {
 public:
  /// Validates `options` (Status on nonsense — negative threads, a
  /// positive cache budget on a disabled engine, a non-positive
  /// executor) and opens the session.
  static Result<std::unique_ptr<Session>> Open(Dataset dataset,
                                               SessionOptions options = {});

  /// Drains in-flight queries, then closes.
  ~Session() = default;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Validates `spec` (spec shape, engine-flag conflicts, schema checks)
  /// and enqueues it on the executor. The returned future is shared;
  /// execution-time failures surface as QueryResult::status.
  Result<QueryFuture> Submit(QuerySpec spec);

  /// Submit + Get: the synchronous convenience form. Validation errors
  /// come back in QueryResult::status.
  QueryResult Run(const QuerySpec& spec);

  /// Appends one row of string values (empty / "NULL" = missing),
  /// exactly like TableBuilder::AddRow. Any number of sessions may
  /// append concurrently: the shared service interns values centrally
  /// and group-commits concurrent appends into one critical section.
  Status AppendRow(const std::vector<std::string>& values);

  /// Appends a batch of string rows in order — one group-commit ticket,
  /// so high-rate ingest pays the admission once per batch instead of
  /// once per row. Transactional: on a non-ok status (e.g. one row with
  /// the wrong width) none of the batch's rows or values is visible.
  Status AppendRows(const std::vector<std::vector<std::string>>& rows);

  /// Appends every row of `delta` (same attribute names in the same
  /// order; values remapped by string, so `delta` may use its own
  /// dictionaries).
  Status Append(const Table& delta);

  const Dataset& dataset() const { return dataset_; }
  const SessionOptions& options() const { return options_; }

  /// |D| of the shared dataset right now: base rows plus every row
  /// appended through the shared service — by this session or any
  /// sibling. Lock-free snapshot; a query's QueryResult::total_rows is
  /// the admission-pinned authoritative count.
  int64_t total_rows() const;

  /// Rows appended through *this* session.
  int64_t appended_rows() const;

 private:
  Session(Dataset dataset, SessionOptions options);

  // Full validation chain for one spec (ValidateQuerySpec + session
  // options interplay + schema-dependent checks).
  Status Validate(const QuerySpec& spec) const;

  // Executor-side entry: refuses evicted services (retryable
  // kUnavailable), then runs the query under a shared QueryAdmission,
  // its engine work submitted as scheduler waves.
  QueryResult Execute(const QuerySpec& spec);
  QueryResult ExecuteSearch(const QuerySpec& spec);
  QueryResult ExecuteTrueCount(const QuerySpec& spec);
  QueryResult ExecuteProfile(const QuerySpec& spec);
  // The bodies; the caller holds the QueryAdmission.
  QueryResult ExecuteSearchAdmitted(const QuerySpec& spec);
  QueryResult ExecuteTrueCountAdmitted(const QuerySpec& spec);
  QueryResult ExecuteProfileAdmitted(const QuerySpec& spec);

  // Routes one admitted query through the service's result tier (cache
  // hit / park on an identical in-flight leader / execute `body` and
  // publish). Falls through to `body` when the tier is off or the spec
  // is not cacheable. Every cacheable result is content-pure — string
  // resolution goes through the service's shared interner, so appends
  // never make a result session-dependent. The caller holds the
  // QueryAdmission for the whole call, which pins the engine rows the
  // cache entries are tagged with.
  QueryResult ExecuteViaResultTier(const QuerySpec& spec,
                                   const std::function<QueryResult()>& body);

  // Effective per-query knobs (spec overrides over session defaults).
  SearchOptions ToSearchOptions(const QuerySpec& spec) const;
  CountingEngineOptions ToEngineOptions(const QuerySpec& spec) const;

  // --- maintenance state (see locking note below) ----------------------
  // Lazily materializes VC / P_A, catches them up to every row the
  // engine holds (CopyAppendedRows), and returns the snapshot the
  // caller should use (reading the members again outside state_mu_
  // would race a sibling query's catch-up). Callers hold a
  // QueryAdmission, so the engine's data is stable.
  std::shared_ptr<const ValueCounts> SyncedVc();
  std::shared_ptr<const FullPatternIndex> SyncedFpi();
  // The engine's appended rows in [from, to), flat row-major.
  std::vector<ValueId> EngineRows(int64_t from, int64_t to) const;

  // The focus pattern set — every value combination over the focus
  // attributes with its count — over all the data the engine holds,
  // appended rows included: the fully-bound groups of the engine's PC
  // set over the focus mask (arity >= 2) or the synced VC (arity 1).
  // Ties keep ascending key order, so the ErrorReport is byte-identical
  // to a search over a from-scratch rebuild. Caller holds the
  // QueryAdmission.
  Result<PatternSet> FocusPatterns(const QuerySpec& spec,
                                   const ValueCounts& vc);

  // Resolves (attribute name, value string) terms against the service's
  // shared interner (base dictionaries plus the committed dictionary-
  // delta log — values appended by *any* session resolve), mirroring
  // Pattern::Parse including its error wording. Caller holds a query
  // admission (the interner only grows under an AppendAdmission).
  Result<std::vector<std::pair<int, ValueId>>> ResolvePatternLocked(
      const std::vector<std::pair<std::string, std::string>>& terms) const;

  Dataset dataset_;
  SessionOptions options_;

  // Locking: writes to the fields below happen under state_mu_ while
  // the writer additionally holds a query admission (VC / P_A catch-up,
  // which is idempotent — the admission pins the engine rows the state
  // is synced against). All reads take state_mu_ or receive a snapshot
  // from a Synced* call. Dictionaries live in the service's shared
  // interner, not here: a session holds no private string state.
  mutable std::mutex state_mu_;
  std::shared_ptr<const ValueCounts> vc_;          // null until needed
  int64_t vc_rows_ = 0;                            // rows vc_ describes
  std::shared_ptr<const FullPatternIndex> fpi_;    // null until needed
  int64_t fpi_rows_ = 0;                           // rows fpi_ describes
  int64_t session_appended_ = 0;  // rows appended through this session

  // Declared last: destroyed first, draining queries while every member
  // they touch is still alive.
  ThreadPool executor_;
};

}  // namespace api
}  // namespace pcbl

#endif  // PCBL_API_SESSION_H_
