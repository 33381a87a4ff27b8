// CountingService: one CountingEngine per dataset, shared by every
// consumer of that dataset's counts — plus the wave scheduler that lets
// concurrent consumers share not just the warm cache but the *in-flight*
// sizing work.
//
// PR 1's engine was constructed per LabelSearch call, so a second search
// over the same table — a bound sweep, a multi-label partition, a CLI
// re-run — rebuilt the PC-set cache from scratch. The service hoists the
// engine to dataset/session scope: LabelSearch, the theory-reduction
// sweep, and the CLI all size candidates through the same engine, so
// repeated queries hit warm PC sets (a warm second search performs zero
// full-table scans for the candidates the first one sized — asserted in
// pattern_counting_service_test.cc).
//
// Concurrency (the full model lives in docs/CONCURRENCY.md). There is
// one way in for queries and one way in for rows:
//
//  * Queries: gate admission plus waves. A query enters the service
//    through the admission gate in shared mode (QueryAdmission) and
//    submits its per-wave sizing batches to WaveCountPatterns /
//    WavePatternCounts. A coordinator — the first waiting thread, no
//    dedicated thread exists — drains the shared wave queue, merges all
//    waiting requests into single CountPatternsBatchCollect /
//    PatternCountsBatch engine calls (masks deduped, budgets folded to
//    the most generous), and routes each mask's size and materialized
//    PC-set handle back to every requester: the per-waiter memo view a
//    search ranks from without ever re-probing the shared cache. N
//    concurrent identical searches therefore perform ~one set of scans
//    — even with memoization off, where the cache cannot help — and
//    their ranking phases overlap instead of queueing
//    (bench_micro_wave_scheduler). Every engine answer is exact
//    regardless of cache state, and a request folded into a larger
//    budget still satisfies the early-exit contract ("any value >
//    budget" may simply be the exact one), so results do not depend on
//    what ran beside a query. The admission window
//    (set_wave_admission_window) gives near-simultaneous waves a brief
//    chance to land in one batch; it is skipped entirely when no other
//    query is admitted, so solo searches pay zero added latency.
//
//  * Rows: group commit. String-level appends (AppendStrings /
//    AppendTable) intern values centrally in the service's
//    SharedInterner, so *any* number of sessions may append concurrently
//    and every sibling resolves the appended strings on its next
//    admission. Concurrent appends group-commit: requests queue behind a
//    leader (elected exactly like the wave coordinator), the leader's
//    wait for the exclusive AppendAdmission is the merge window in which
//    later arrivals join its batch, and the whole batch commits in one
//    critical section — one result-cache invalidation, one engine hook,
//    one interner publication. Each request stays transactional inside
//    the batch: encoding runs against a staged interning transaction
//    with per-request savepoints, so a failed request (schema mismatch,
//    injected fault) rolls back exactly its staged values and rows and
//    the surviving requests commit with the codes a rebuild that never
//    saw the failed rows would assign. The engine hook is
//    invalidate-or-patch: a single row is folded into every cached PC
//    set, a batch invalidates first when per-entry patching would cost
//    more than the rescans it saves. Both arms stay exact — the engine
//    tracks appended rows in a delta block that every subsequent scan
//    includes (see CountingEngine::CompactDeltas).
//
//  * The admission gate ties the two together. Queries are admitted
//    shared; the append leader (AppendAdmission, which also takes
//    mutex()) is exclusive. That pins the engine's *data* (row count,
//    delta block, effective domains) for a query's whole lifetime —
//    reads are snapshot-isolated, a search validated against its VC /
//    P_A snapshot can never observe half an append — while engine
//    *cache* mutations (the coordinator's merged waves, under mutex())
//    proceed freely: they are physical, not semantic. In the library
//    only this class locks mutex(), for short engine sections (a merged
//    wave, a commit, a pin); lock order is always gate -> mutex().
//
//  * Registry eviction drains. MarkEvicted flips queries to a retryable
//    refusal (api::Session surfaces kUnavailable), Quiesce waits for
//    in-flight admissions and waves — ServiceRegistry::Clear runs both
//    before dropping an entry, so eviction never races a live wave.
//
// Services are usually obtained from the process-wide ServiceRegistry
// (service_registry.h), which shares one warm service per table
// *content* across sessions and enforces a process memory budget over
// all services' caches.
#ifndef PCBL_PATTERN_COUNTING_SERVICE_H_
#define PCBL_PATTERN_COUNTING_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pattern/counting_engine.h"
#include "pattern/interning.h"
#include "relation/table.h"
#include "util/status.h"

namespace pcbl {

/// Observability counters of the wave scheduler (not part of the
/// exactness contract).
struct WaveSchedulerStats {
  int64_t waves = 0;           ///< merged engine batches executed
  int64_t merged_waves = 0;    ///< waves that covered > 1 request
  int64_t requests = 0;        ///< wave requests admitted
  int64_t request_masks = 0;   ///< masks summed over all requests
  int64_t executed_masks = 0;  ///< deduped masks the engine actually ran
                               ///< (request_masks - executed_masks =
                               ///<  scans saved by in-flight merging)
};

/// Observability counters of the group-commit append path. `pending` is
/// the current queue depth; everything else is monotonic. Not part of
/// the exactness contract.
struct AppendBatchStats {
  int64_t batches = 0;          ///< group commits executed
  int64_t merged_batches = 0;   ///< commits that carried > 1 request
  int64_t requests = 0;         ///< string-level append requests
  int64_t request_rows = 0;     ///< rows summed over all requests
  int64_t committed_rows = 0;   ///< rows actually appended
  int64_t failed_requests = 0;  ///< requests refused transactionally
  int64_t pending = 0;          ///< queued-but-uncommitted requests now
  int64_t interned_values = 0;  ///< dictionary-delta log length
};

/// Key of one whole-query result in the service's result tier: the
/// table's 128-bit content fingerprint mixed with the canonicalized
/// result-affecting fields of the query spec (api::CanonicalQueryKey).
/// Deterministic across processes — no pointers, no iteration order.
struct QueryResultKey {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const QueryResultKey& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator!=(const QueryResultKey& other) const {
    return !(*this == other);
  }
};

/// Observability counters of the result tier. `entries` / `bytes` are
/// the completed-result cache's current occupancy; everything else is
/// monotonic. Not part of the exactness contract.
struct ResultTierStats {
  int64_t hits = 0;            ///< completed-result cache hits
  int64_t misses = 0;          ///< lookups that became leaders (executed)
  int64_t inflight_joins = 0;  ///< queries parked on a leader's future
  int64_t insertions = 0;      ///< results published into the cache
  int64_t evictions = 0;       ///< entries dropped by the byte budget
  int64_t invalidations = 0;   ///< whole-cache clears (append, eviction)
  int64_t entries = 0;         ///< cached results right now
  int64_t bytes = 0;           ///< cached bytes right now
};

/// A cached whole-query result, type-erased: pattern/ cannot depend on
/// api/, so api::Session stores a shared_ptr<const api::QueryResult>
/// here and casts it back on the way out.
using QueryResultHandle = std::shared_ptr<const void>;

/// Outcome of CountingService::ResultLookupOrBegin — exactly one of the
/// three shapes, checked in this order by the caller:
///   hit    — `value` holds the cached result; done.
///   leader — this caller owns the key: execute, then ResultPublish
///            (or ResultAbort if the execution threw).
///   join   — otherwise `join` is valid: park on it; get() returns the
///            leader's result (or rethrows its abort exception).
struct ResultProbe {
  bool hit = false;
  QueryResultHandle value;
  bool leader = false;
  std::shared_future<QueryResultHandle> join;
};

/// Everything a CountingService accumulates beyond its immutable base
/// table — the state worth carrying across a process restart. The spill
/// store (src/persist/) serializes this; ExportWarmState produces it and
/// RestoreWarmState replays it onto a freshly built service over a
/// content-identical base table, after which searches, true counts, and
/// profiles answer byte-identically to the service that exported it.
struct ServiceWarmState {
  /// Per-attribute interner delta logs: interner_deltas[a] holds the
  /// values appended beyond attribute a's base dictionary, in committed
  /// code order (code = base domain size + position).
  std::vector<std::vector<std::string>> interner_deltas;

  /// Appended rows, row-major with one ValueId per attribute in schema
  /// order (num_attributes stride), in append order. Codes beyond the
  /// base domain refer into interner_deltas.
  std::vector<ValueId> appended_rows;

  /// The engine's memoized PC sets, in CountingEngine::ExportCacheSnapshot
  /// order (FIFO first, pinned after). Entries reflect base + appended
  /// rows — they were patched at append time, so restore applies the
  /// rows first and imports the entries as-is.
  std::vector<CountingEngine::CacheSnapshotEntry> entries;

  bool empty() const {
    if (!appended_rows.empty() || !entries.empty()) return false;
    for (const std::vector<std::string>& log : interner_deltas) {
      if (!log.empty()) return false;
    }
    return true;
  }
};

class CountingService {
 public:
  /// Default byte budget of the completed-result cache.
  static constexpr int64_t kDefaultResultCacheBudget = int64_t{64} << 20;

  explicit CountingService(const Table& table,
                           CountingEngineOptions options = {})
      : engine_(table, options), interner_(table) {}

  /// Owning variant: the service keeps `table` alive for its own
  /// lifetime — the form the process-wide ServiceRegistry uses, so a
  /// service handed to a consumer never outlives the data it scans.
  explicit CountingService(std::shared_ptr<const Table> table,
                           CountingEngineOptions options = {})
      : owned_table_(std::move(table)),
        engine_(*owned_table_, options),
        interner_(*owned_table_) {}

  CountingService(const CountingService&) = delete;
  CountingService& operator=(const CountingService&) = delete;

  /// The shared engine. Its *data* observables (row counts, effective
  /// domains, appended rows) are stable under any admission; everything
  /// else — the cache, stats, options — is mutated by merged waves under
  /// mutex(), so read it through the snapshots below.
  CountingEngine& engine() { return engine_; }
  const CountingEngine& engine() const { return engine_; }

  /// The engine lock. The library takes it only inside this class; tests
  /// hold it to wedge a wave or to drive the engine directly.
  std::mutex& mutex() const { return mu_; }

  // --- admission gate ----------------------------------------------------

  /// Admits a query in shared mode for the guard's lifetime: any number
  /// of queries run concurrently, appenders are excluded, so the
  /// engine's *data* cannot change under the query. Do not nest (the
  /// gate is writer-preferring; re-entry can deadlock behind a waiting
  /// appender) and do not acquire while holding mutex().
  class QueryAdmission {
   public:
    explicit QueryAdmission(CountingService& service) : service_(service) {
      service_.BeginQuery();
    }
    ~QueryAdmission() { service_.EndQuery(); }
    QueryAdmission(const QueryAdmission&) = delete;
    QueryAdmission& operator=(const QueryAdmission&) = delete;

   private:
    CountingService& service_;
  };

  /// Admits an appender exclusively *and* locks mutex(): no query is in
  /// flight and no wave is executing — the one critical section in which
  /// engine data and the shared interner may grow. Taken by the group
  /// commit's leader.
  class AppendAdmission {
   public:
    explicit AppendAdmission(CountingService& service) : service_(service) {
      service_.BeginAppend();
      lock_ = std::unique_lock<std::mutex>(service_.mu_);
    }
    ~AppendAdmission() {
      lock_.unlock();
      service_.EndAppend();
    }
    AppendAdmission(const AppendAdmission&) = delete;
    AppendAdmission& operator=(const AppendAdmission&) = delete;

   private:
    CountingService& service_;
    std::unique_lock<std::mutex> lock_;
  };

  /// Queries currently admitted (shared holders of the gate).
  int64_t active_queries() const {
    return active_queries_relaxed_.load(std::memory_order_relaxed);
  }

  /// Admitted queries plus queued-but-unserved wave requests — the
  /// registry's "is anything running here" probe.
  int64_t in_flight() const;

  /// Blocks until nothing is in flight: no admitted query, no appender,
  /// no queued or executing wave. The registry quiesces an evicted
  /// service before dropping its entry, so eviction never races a live
  /// wave. Callers must not hold mutex() or the gate.
  void Quiesce();

  /// Marks the service as evicted from the process-wide registry. The
  /// service stays fully functional for existing holders (exactness is
  /// untouched), but api::Session refuses new queries on it with a
  /// retryable kUnavailable so callers re-acquire a shared, findable
  /// service instead of silently computing on a detached one. Sessions
  /// check once before admission (cheap fast path) and once after: the
  /// registry marks before it quiesces, and the gate/mutex acquisition
  /// orders the mark ahead of any admission Quiesce could have missed,
  /// so a query either drains under Quiesce or observes the mark. Also
  /// clears the result cache: a detached service answers no future
  /// queries, so holding its cached results would waste the bytes.
  void MarkEvicted();
  bool evicted() const { return evicted_.load(); }

  // --- result tier -------------------------------------------------------
  //
  // A two-level cache of whole-query results in front of the engine,
  // keyed by (content fingerprint, canonical spec) — see DESIGN.md §5.7.
  // Level 1 (in-flight table): the first arrival for a key becomes the
  // *leader* and executes; identical concurrent queries park on a shared
  // future and receive the leader's result. Level 2 (completed cache): a
  // bounded LRU of published results, so identical repeats are O(1).
  // All calls run under a shared QueryAdmission, so `rows` — the
  // engine's total_rows() at lookup — is pinned for the leader's whole
  // execution and tags each entry against staleness; belt-and-braces,
  // since every commit clears the cache eagerly while holding the gate
  // exclusively (no query, hence no lookup or publish, is concurrent
  // with an append). Parking is deadlock-free: the leader holds no lock
  // a joiner holds. results_mu_ is a leaf lock: nothing is acquired
  // under it.

  /// Probes both levels for `key` and registers this caller as leader on
  /// a miss, or hands it the in-flight leader's future to park on.
  /// `budget_bytes` >= 0 re-budgets the completed cache (last writer
  /// wins, evicting down immediately); -1 leaves it alone.
  ResultProbe ResultLookupOrBegin(const QueryResultKey& key, int64_t rows,
                                  int64_t budget_bytes = -1);

  /// Resolves the leader's key: wakes every parked joiner with `value`
  /// and, when `cache` is set (callers pass status-ok only — a
  /// deterministic error is still routed to joiners but not retained),
  /// inserts it into the completed cache at `bytes`, evicting LRU
  /// entries over budget.
  void ResultPublish(const QueryResultKey& key, QueryResultHandle value,
                     int64_t bytes, bool cache);

  /// Resolves the leader's key with an exception: parked joiners rethrow
  /// `error` from their future, exactly as executing the query
  /// themselves would have thrown. Nothing is cached.
  void ResultAbort(const QueryResultKey& key, std::exception_ptr error);

  /// Drops every completed result (the in-flight table is untouched —
  /// it is provably empty when a commit calls this, and a live leader
  /// resolves its joiners regardless). Called by every commit and by
  /// MarkEvicted.
  void InvalidateResults();

  ResultTierStats result_tier_stats() const;

  // --- wave scheduler ----------------------------------------------------

  /// Submits one sizing wave (the per-level / per-frontier batch of a
  /// search) to the scheduler and blocks until a coordinator has
  /// executed it, merged with whatever other requests were in flight.
  /// Element i of the result is CountPatterns(masks[i], budget) — with
  /// the early-exit caveat that an over-budget value may be the exact
  /// size when a merged sibling asked with a larger budget (still
  /// "> budget", so consumers' within-bound tests are unaffected).
  /// When `counts_out` is non-null it receives each mask's materialized
  /// PC-set handle (non-null whenever sizes[i] <= budget and the merged
  /// wave ran with the engine enabled): the caller's memo view for its
  /// ranking phase. `config` carries the query's engine knobs; a merged
  /// wave runs under the most capable fold of its requests' configs
  /// (enabled if any asks, max threads, max cache budget) — every
  /// answer is exact under any config, so the fold affects cost only.
  /// Callers hold the gate in shared mode (QueryAdmission).
  std::vector<int64_t> WaveCountPatterns(
      const std::vector<AttrMask>& masks, int64_t budget,
      const CountingEngineOptions& config,
      std::vector<std::shared_ptr<const GroupCounts>>* counts_out = nullptr);

  /// PatternCountsBatch through the scheduler: element i is the full PC
  /// set of masks[i], exact and materialized regardless of size. Same
  /// admission rules as WaveCountPatterns.
  std::vector<std::shared_ptr<const GroupCounts>> WavePatternCounts(
      const std::vector<AttrMask>& masks,
      const CountingEngineOptions& config);

  /// How long a coordinator holds a wave open for near-simultaneous
  /// requests to join (it stops waiting the moment every admitted query
  /// has a request queued, and never waits when this service has a
  /// single admitted query). Zero disables the window.
  void set_wave_admission_window(std::chrono::microseconds window) {
    std::lock_guard<std::mutex> lock(wave_mu_);
    admission_window_ = window;
  }

  WaveSchedulerStats wave_stats() const {
    std::lock_guard<std::mutex> lock(wave_mu_);
    return wave_stats_;
  }

  /// Engine stats snapshot under mutex() — the only race-free way to
  /// read them while queries are in flight.
  CountingEngineStats StatsSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return engine_.stats();
  }

  /// The engine's current knobs, snapshotted under mutex(). A query that
  /// has no knobs of its own (a theory sweep, an incremental label's
  /// seed) submits its waves with these, so it runs under whatever the
  /// service was built or last configured with.
  CountingEngineOptions EngineOptionsSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return engine_.options();
  }

  /// The PC set of `mask`, pinned in the cache: exempt from eviction and
  /// from the budget (CountingEngine::PinnedPatternCounts). Primes a
  /// rollup ancestor ahead of a subset sweep that would otherwise cycle
  /// it out of the FIFO cache. One short mutex() section; callers hold a
  /// QueryAdmission.
  std::shared_ptr<const GroupCounts> PinPatternCounts(AttrMask mask) {
    std::lock_guard<std::mutex> lock(mu_);
    return engine_.PinnedPatternCounts(mask);
  }

  // --- appends (shared interning + group commit) -------------------------
  //
  // The one way rows enter the service. Values are interned centrally in
  // the service's SharedInterner (codes extend the base code space in
  // committed first-seen order, exactly as a TableBuilder rebuild would
  // assign them), so any number of sessions or incremental labels
  // append concurrently and every sibling resolves the appended strings.
  // Concurrent calls group-commit: a leader's wait for the exclusive
  // AppendAdmission is the merge window, and the merged batch pays one
  // result-cache invalidation + one engine hook + one interner
  // publication. Each call is transactional — on a non-ok status nothing
  // of that call's rows or values is visible anywhere.

  /// Appends rows of string values over the full schema (empty / "NULL"
  /// = missing, exactly like TableBuilder::AddRow). Blocks until this
  /// request's group commit completes; the status is this request's
  /// alone (a sibling's failure in the same batch does not affect it).
  Status AppendStrings(const std::vector<std::vector<std::string>>& rows);

  /// Appends every row of `delta` (same attribute names in the same
  /// order; values remapped by string, so `delta` may use its own
  /// dictionaries). Same group-commit semantics as AppendStrings.
  Status AppendTable(const Table& delta);

  /// The shared interning surface. Reads require a QueryAdmission — the
  /// gate orders commits before them.
  const SharedInterner& interner() const { return interner_; }

  /// Disables (or re-enables) group commit: each request then takes its
  /// own AppendAdmission and commits solo. The bench's baseline arm;
  /// results are identical either way.
  void set_append_group_commit(bool on) {
    append_group_commit_.store(on, std::memory_order_relaxed);
  }

  /// Test-only fault injection: invoked once per request after its rows
  /// encoded, before anything becomes visible; a non-ok status fails
  /// that request transactionally. `rows` is the request's row count —
  /// enough to discriminate requests inside a merged batch.
  void SetAppendFaultHookForTest(std::function<Status(int64_t rows)> hook) {
    std::lock_guard<std::mutex> lock(mu_);
    append_fault_hook_ = std::move(hook);
  }

  AppendBatchStats append_stats() const;

  /// Drops every cached entry; appended rows (data) survive. Self-locks
  /// mutex(). Exactness is cache-independent, so this is safe mid-wave.
  void Invalidate() {
    std::lock_guard<std::mutex> lock(mu_);
    engine_.InvalidateCache();
  }

  const Table& table() const { return engine_.table(); }
  int64_t total_rows() const { return engine_.total_rows(); }
  const CountingEngineStats& stats() const { return engine_.stats(); }

  /// Resident bytes of this service: engine cache entries, any appended
  /// data (delta block / compacted base copy), and the completed-result
  /// cache — so the registry's process budget covers cached results
  /// alongside PC sets. Lock-free — the process-wide ServiceRegistry's
  /// memory accountant polls this while other threads may hold mutex()
  /// and mutate the engine.
  int64_t resident_bytes() const {
    return engine_.ResidentBytes() + engine_.AppendedBytesRelaxed() +
           result_bytes_relaxed_.load(std::memory_order_relaxed);
  }

  /// True once appends flowed through this service: it then describes
  /// more data than the table it was built on. Lock-free, for the
  /// registry's divergence check on the acquire path.
  bool has_absorbed_appends() const {
    return engine_.AppendedRowsRelaxed() > 0;
  }

  // -- warm-start persistence (src/persist/, docs/PERSISTENCE.md) -------

  /// Snapshots the state worth spilling across a restart: interner
  /// deltas, appended rows, and every cached PC set. Self-locks
  /// mutex(); safe concurrently with queries (their waves take the same
  /// lock).
  /// The completed-result tier is deliberately absent — results are
  /// type-erased api objects, and a warm engine cache rebuilds them
  /// without scans.
  ServiceWarmState ExportWarmState() const;

  /// Replays a warm state onto this service, which must be freshly
  /// built over a base table content-identical to the exporter's (and
  /// must not have served appends yet — the spill store's fingerprint
  /// key guarantees the former, the registry's acquire path the
  /// latter). Order matters and is handled here: interner deltas commit
  /// first, appended rows apply while the cache is still empty (so
  /// nothing is patched twice), then the cache entries — already
  /// delta-patched at export time — import through the normal insert
  /// path. Self-locks mutex().
  void RestoreWarmState(const ServiceWarmState& state);

 private:
  // One queued wave request; outputs (or `error`) are written by the
  // coordinator before `done` flips under wave_mu_ (the mutex publishes
  // them). A wave that threw — e.g. bad_alloc while materializing —
  // fails every merged request: each waiter rethrows `error` from
  // SubmitWave, exactly as a direct engine call would have thrown, and
  // the scheduler itself stays unwedged.
  struct WaveRequest {
    const std::vector<AttrMask>* masks = nullptr;
    int64_t budget = -1;
    bool want_counts = false;  // PatternCounts semantics (exact sets)
    bool collect = false;      // sizing: also return materialized sets
    CountingEngineOptions config;
    std::vector<int64_t> sizes;
    std::vector<std::shared_ptr<const GroupCounts>> counts;
    std::exception_ptr error;
    bool done = false;
  };

  // One queued string-level append request. `status` and `done` are
  // written by the committing leader under append_mu_ (the mutex
  // publishes them); the payload pointers are caller-owned and outlive
  // the request (the caller blocks in SubmitAppend until done).
  struct AppendTicket {
    const std::vector<std::vector<std::string>>* rows = nullptr;  // xor
    const Table* delta = nullptr;                                 // xor
    Status status;
    bool done = false;
  };

  // Gate primitives (QueryAdmission / AppendAdmission wrap these).
  void BeginQuery();
  void EndQuery();
  void BeginAppend();
  void EndAppend();

  // Blocks until `ticket` committed (or failed); the calling thread
  // volunteers as append leader whenever none is active — mirroring
  // SubmitWave. With group commit off, commits the ticket solo under
  // its own AppendAdmission.
  Status SubmitAppend(AppendTicket& ticket);
  // One leader stint: acquire the exclusive admission (the merge
  // window), snapshot the queue, commit the batch, publish statuses.
  void RunAppendLeader();
  // Commits one batch inside the caller's AppendAdmission: per-ticket
  // encode + savepoint rollback, one engine hook, one interner
  // publication.
  void CommitAppendBatch(const std::vector<AppendTicket*>& batch);
  // The engine hook of a commit (caller holds the AppendAdmission): one
  // result-cache invalidation, then invalidate-or-patch — a single row
  // always patches every cached PC set, a batch invalidates the cache
  // first when per-entry patching would cost more than the rescans it
  // saves. Both arms are exact.
  void ApplyRowsLocked(const std::vector<std::vector<ValueId>>& rows);
  // Validates + encodes one ticket's rows through the staged interning
  // transaction. Appends to `rows`; on error the caller rolls both back.
  Status EncodeTicket(const AppendTicket& ticket,
                      SharedInterner::Batch* stage,
                      std::vector<std::vector<ValueId>>* rows) const;
  static int64_t TicketRows(const AppendTicket& ticket);

  // Blocks until `req` is done; the calling thread volunteers as
  // coordinator whenever none is active.
  void SubmitWave(WaveRequest& req);

  // Drains the wave queue, one merged batch at a time, until it is
  // empty; entered and left holding `lock` (wave_mu_).
  void RunCoordinator(std::unique_lock<std::mutex>& lock);

  // Executes one merged batch against the engine (takes mutex()); fills
  // every request's outputs. Runs without wave_mu_ held.
  void ExecuteWave(const std::vector<WaveRequest*>& batch);

  // Declared before engine_: the engine scans this table when the
  // owning constructor was used (destruction runs in reverse order).
  std::shared_ptr<const Table> owned_table_;
  mutable std::mutex mu_;
  CountingEngine engine_;
  // Mutated only inside a group commit (exclusive gate + mu_); read
  // under any query admission. The test-only fault hook is guarded by
  // mu_ (set before threads start, read inside the commit section).
  SharedInterner interner_;
  std::function<Status(int64_t)> append_fault_hook_;

  // Admission gate: queries shared, appenders exclusive with writer
  // preference (a waiting appender blocks new queries, so a steady query
  // stream cannot starve appends).
  mutable std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  int64_t gate_queries_ = 0;       // admitted queries
  int64_t appenders_waiting_ = 0;  // appenders blocked on admission
  bool appender_active_ = false;
  std::atomic<int64_t> active_queries_relaxed_{0};
  std::atomic<bool> evicted_{false};

  // Group-commit append state. append_mu_ guards the queue, the leader
  // flag, and the stats; it is never held while acquiring the gate (a
  // leader releases it before its AppendAdmission and re-locks it only
  // to snapshot / publish), so the order is gate -> mu_ -> append_mu_
  // with append_mu_ a leaf on that path.
  std::atomic<bool> append_group_commit_{true};
  mutable std::mutex append_mu_;
  std::condition_variable append_cv_;
  std::deque<AppendTicket*> append_queue_;
  bool append_leader_active_ = false;
  AppendBatchStats append_stats_;

  // Wave scheduler state. Lock order: wave_mu_ -> (released) -> mu_;
  // wave_mu_ is never held across engine work.
  mutable std::mutex wave_mu_;
  std::condition_variable wave_cv_;
  std::deque<WaveRequest*> wave_queue_;
  bool coordinator_active_ = false;
  std::chrono::microseconds admission_window_{500};
  WaveSchedulerStats wave_stats_;

  // Result tier state, all under results_mu_ — a leaf lock (taken after
  // gate / mutex() / wave_mu_, never holding anything else under it).
  // Promise resolution happens outside it so a waking joiner never
  // contends with the publisher.
  struct QueryResultKeyHash {
    size_t operator()(const QueryResultKey& key) const {
      return static_cast<size_t>(key.lo ^
                                 (key.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct ResultEntry {
    QueryResultKey key;
    QueryResultHandle value;
    int64_t bytes = 0;
    int64_t rows = 0;  // engine rows the result describes
  };
  struct InFlightResult {
    std::promise<QueryResultHandle> promise;
    std::shared_future<QueryResultHandle> future;
    int64_t rows = 0;
  };
  // Drops LRU-tail entries until the cached bytes fit the budget and
  // refreshes the accountant's lock-free mirror.
  void EvictResultsLocked();

  mutable std::mutex results_mu_;
  std::list<ResultEntry> result_lru_;  // front = most recently used
  std::unordered_map<QueryResultKey, std::list<ResultEntry>::iterator,
                     QueryResultKeyHash>
      result_map_;
  std::unordered_map<QueryResultKey, std::shared_ptr<InFlightResult>,
                     QueryResultKeyHash>
      result_inflight_;
  int64_t result_budget_ = kDefaultResultCacheBudget;
  int64_t result_bytes_ = 0;
  ResultTierStats result_stats_;
  std::atomic<int64_t> result_bytes_relaxed_{0};
};

}  // namespace pcbl

#endif  // PCBL_PATTERN_COUNTING_SERVICE_H_
