#include "pattern/counting_service.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/str.h"

namespace pcbl {

namespace {

// Patch-vs-invalidate pivot: patching costs one binary search + insertion
// per (row, cached entry) pair, a rescan costs O(rows) per future sizing.
// Beyond this much patch work the cache is cheaper to rebuild than to
// repair.
constexpr int64_t kMaxPatchWork = int64_t{1} << 22;

// Folds one request's engine config into the merged wave config: the
// most capable of the waiting queries wins. Every engine answer is exact
// under any config, so the fold changes cost attribution, never results
// (a disabled-engine request merged with an enabled one simply gets its
// exact values from the warmer path).
void FoldConfig(const CountingEngineOptions& request,
                CountingEngineOptions* merged, bool first) {
  if (first) {
    *merged = request;
    return;
  }
  merged->enabled = merged->enabled || request.enabled;
  merged->num_threads = std::max(merged->num_threads, request.num_threads);
  merged->cache_budget =
      std::max(merged->cache_budget, request.cache_budget);
  merged->delta_compact_threshold = std::max(
      merged->delta_compact_threshold, request.delta_compact_threshold);
  // Smallest positive threshold wins (finer morsels = more intra-subset
  // parallelism); only if every waiting query disabled it stays off.
  if (request.min_rows_per_morsel > 0 &&
      (merged->min_rows_per_morsel <= 0 ||
       request.min_rows_per_morsel < merged->min_rows_per_morsel)) {
    merged->min_rows_per_morsel = request.min_rows_per_morsel;
  }
}

}  // namespace

// --- admission gate --------------------------------------------------------

void CountingService::BeginQuery() {
  std::unique_lock<std::mutex> lock(gate_mu_);
  // Writer preference: a waiting appender blocks new queries, so a
  // steady query stream cannot starve appends.
  gate_cv_.wait(lock, [this] {
    return !appender_active_ && appenders_waiting_ == 0;
  });
  ++gate_queries_;
  active_queries_relaxed_.store(gate_queries_, std::memory_order_relaxed);
}

void CountingService::EndQuery() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    --gate_queries_;
    active_queries_relaxed_.store(gate_queries_,
                                  std::memory_order_relaxed);
    if (gate_queries_ == 0) gate_cv_.notify_all();
  }
  // A coordinator idling in its admission window waits for the queue to
  // cover every admitted query; this query leaving shrinks that target,
  // so wake the coordinator to re-check instead of letting it burn the
  // window to the deadline.
  wave_cv_.notify_all();
}

void CountingService::BeginAppend() {
  std::unique_lock<std::mutex> lock(gate_mu_);
  ++appenders_waiting_;
  gate_cv_.wait(lock, [this] {
    return !appender_active_ && gate_queries_ == 0;
  });
  --appenders_waiting_;
  appender_active_ = true;
}

void CountingService::EndAppend() {
  std::lock_guard<std::mutex> lock(gate_mu_);
  appender_active_ = false;
  gate_cv_.notify_all();
}

int64_t CountingService::in_flight() const {
  int64_t n;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    n = gate_queries_ + (appender_active_ ? 1 : 0);
  }
  {
    std::lock_guard<std::mutex> lock(wave_mu_);
    n += static_cast<int64_t>(wave_queue_.size());
    n += coordinator_active_ ? 1 : 0;
  }
  return n;
}

void CountingService::Quiesce() {
  // Two condition systems (gate, waves) drained in sequence, then
  // re-checked: a wave only exists inside an admitted query, so once the
  // gate reads empty twice around an empty wave queue, nothing was in
  // flight in between.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      gate_cv_.wait(lock, [this] {
        return gate_queries_ == 0 && !appender_active_;
      });
    }
    {
      std::unique_lock<std::mutex> lock(wave_mu_);
      wave_cv_.wait(lock, [this] {
        return wave_queue_.empty() && !coordinator_active_;
      });
    }
    std::lock_guard<std::mutex> lock(gate_mu_);
    if (gate_queries_ == 0 && !appender_active_) return;
  }
}

void CountingService::MarkEvicted() {
  evicted_.store(true);
  // A detached service serves no future queries; free its cached results
  // now instead of when the last holder drops the service.
  InvalidateResults();
}

// --- result tier -----------------------------------------------------------

ResultProbe CountingService::ResultLookupOrBegin(const QueryResultKey& key,
                                                 int64_t rows,
                                                 int64_t budget_bytes) {
  ResultProbe probe;
  std::lock_guard<std::mutex> lock(results_mu_);
  if (budget_bytes >= 0 && budget_bytes != result_budget_) {
    result_budget_ = budget_bytes;
    EvictResultsLocked();
  }
  auto cached = result_map_.find(key);
  if (cached != result_map_.end()) {
    if (cached->second->rows == rows) {
      result_lru_.splice(result_lru_.begin(), result_lru_, cached->second);
      ++result_stats_.hits;
      probe.hit = true;
      probe.value = cached->second->value;
      return probe;
    }
    // Stale row count. Unreachable while every commit clears the cache
    // eagerly under its exclusive admission; dropped defensively so a
    // future append path that forgets to invalidate degrades to a miss
    // instead of a wrong answer.
    result_bytes_ -= cached->second->bytes;
    result_lru_.erase(cached->second);
    result_map_.erase(cached);
    result_bytes_relaxed_.store(result_bytes_, std::memory_order_relaxed);
  }
  auto in_flight = result_inflight_.find(key);
  if (in_flight != result_inflight_.end()) {
    ++result_stats_.inflight_joins;
    probe.join = in_flight->second->future;
    return probe;
  }
  auto entry = std::make_shared<InFlightResult>();
  entry->future = entry->promise.get_future().share();
  entry->rows = rows;
  result_inflight_.emplace(key, std::move(entry));
  ++result_stats_.misses;
  probe.leader = true;
  return probe;
}

void CountingService::ResultPublish(const QueryResultKey& key,
                                    QueryResultHandle value, int64_t bytes,
                                    bool cache) {
  std::shared_ptr<InFlightResult> leader;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    auto in_flight = result_inflight_.find(key);
    PCBL_CHECK(in_flight != result_inflight_.end());
    leader = in_flight->second;
    result_inflight_.erase(in_flight);
    if (cache && result_budget_ > 0 && bytes <= result_budget_) {
      result_lru_.push_front(
          ResultEntry{key, value, bytes, leader->rows});
      result_map_[key] = result_lru_.begin();
      result_bytes_ += bytes;
      ++result_stats_.insertions;
      EvictResultsLocked();
    }
  }
  // Outside results_mu_: set_value wakes every parked joiner.
  leader->promise.set_value(std::move(value));
}

void CountingService::ResultAbort(const QueryResultKey& key,
                                  std::exception_ptr error) {
  std::shared_ptr<InFlightResult> leader;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    auto in_flight = result_inflight_.find(key);
    PCBL_CHECK(in_flight != result_inflight_.end());
    leader = in_flight->second;
    result_inflight_.erase(in_flight);
  }
  leader->promise.set_exception(std::move(error));
}

void CountingService::InvalidateResults() {
  // Entry destruction (the cached results themselves) happens outside
  // the lock.
  std::list<ResultEntry> dropped;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    dropped.swap(result_lru_);
    result_map_.clear();
    result_bytes_ = 0;
    result_bytes_relaxed_.store(0, std::memory_order_relaxed);
    ++result_stats_.invalidations;
  }
}

void CountingService::EvictResultsLocked() {
  while (result_bytes_ > result_budget_ && !result_lru_.empty()) {
    const ResultEntry& tail = result_lru_.back();
    result_bytes_ -= tail.bytes;
    result_map_.erase(tail.key);
    result_lru_.pop_back();
    ++result_stats_.evictions;
  }
  result_bytes_relaxed_.store(result_bytes_, std::memory_order_relaxed);
}

ResultTierStats CountingService::result_tier_stats() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  ResultTierStats stats = result_stats_;
  stats.entries = static_cast<int64_t>(result_lru_.size());
  stats.bytes = result_bytes_;
  return stats;
}

// --- wave scheduler --------------------------------------------------------

std::vector<int64_t> CountingService::WaveCountPatterns(
    const std::vector<AttrMask>& masks, int64_t budget,
    const CountingEngineOptions& config,
    std::vector<std::shared_ptr<const GroupCounts>>* counts_out) {
  WaveRequest req;
  req.masks = &masks;
  req.budget = budget;
  req.want_counts = false;
  req.collect = counts_out != nullptr;
  req.config = config;
  SubmitWave(req);
  if (counts_out != nullptr) *counts_out = std::move(req.counts);
  return std::move(req.sizes);
}

std::vector<std::shared_ptr<const GroupCounts>>
CountingService::WavePatternCounts(const std::vector<AttrMask>& masks,
                                   const CountingEngineOptions& config) {
  WaveRequest req;
  req.masks = &masks;
  req.want_counts = true;
  req.config = config;
  SubmitWave(req);
  return std::move(req.counts);
}

void CountingService::SubmitWave(WaveRequest& req) {
  std::unique_lock<std::mutex> lock(wave_mu_);
  wave_queue_.push_back(&req);
  wave_stats_.requests += 1;
  wave_stats_.request_masks += static_cast<int64_t>(req.masks->size());
  // Wake a coordinator idling in its admission window — this request may
  // complete its batch.
  wave_cv_.notify_all();
  while (!req.done) {
    if (!coordinator_active_) {
      coordinator_active_ = true;
      // The stint must step down on every path — a throw that left
      // coordinator_active_ set would wedge the scheduler for good
      // (every later request would wait for a coordinator that no
      // longer exists). RunCoordinator already converts wave failures
      // into per-request `error`s; this guards the residual throws
      // (e.g. allocation inside the drain loop itself).
      try {
        RunCoordinator(lock);
      } catch (...) {
        coordinator_active_ = false;
        wave_cv_.notify_all();
        throw;
      }
      coordinator_active_ = false;
      wave_cv_.notify_all();
      // The coordinator stint drained the whole queue — our own request
      // included — so the loop exits on the next check.
      continue;
    }
    wave_cv_.wait(lock);
  }
  // A failed merged wave fails every rider the same way a direct engine
  // call would have failed its single caller.
  if (req.error != nullptr) std::rethrow_exception(req.error);
}

void CountingService::RunCoordinator(std::unique_lock<std::mutex>& lock) {
  while (!wave_queue_.empty()) {
    // Admission window: when other queries are admitted but have not
    // enqueued their next wave yet, hold the batch open briefly so
    // near-simultaneous waves merge instead of executing twice. The wait
    // ends the moment every admitted query has a request queued (the
    // common case for phase-locked identical searches — microseconds),
    // and is skipped entirely for a solo query.
    if (admission_window_.count() > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + admission_window_;
      while (static_cast<int64_t>(wave_queue_.size()) <
                 active_queries_relaxed_.load(std::memory_order_relaxed) &&
             wave_cv_.wait_until(lock, deadline) !=
                 std::cv_status::timeout) {
      }
    }
    std::vector<WaveRequest*> batch(wave_queue_.begin(), wave_queue_.end());
    wave_queue_.clear();
    wave_stats_.waves += 1;
    if (batch.size() > 1) wave_stats_.merged_waves += 1;
    lock.unlock();
    std::exception_ptr error;
    try {
      ExecuteWave(batch);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    for (WaveRequest* req : batch) {
      req->error = error;
      req->done = true;
    }
    wave_cv_.notify_all();
    // Later-queued requests get a fresh attempt: a transient failure
    // (allocation pressure) must not poison the whole queue.
  }
}

void CountingService::ExecuteWave(const std::vector<WaveRequest*>& batch) {
  // Merge the batch: one deduped mask list per engine entry point.
  // `counts` requests subsume sizing requests for the same mask — a full
  // PC set answers a sizing exactly (its group count is within any
  // budget contract).
  CountingEngineOptions merged;
  std::unordered_map<uint64_t, size_t> count_slot;  // mask -> counts index
  std::unordered_map<uint64_t, size_t> size_slot;   // mask -> sizing index
  std::vector<AttrMask> count_masks;
  std::vector<AttrMask> size_masks;
  int64_t size_budget = 0;
  bool any_sizing = false;
  bool any_collect = false;
  bool first = true;
  for (const WaveRequest* req : batch) {
    FoldConfig(req->config, &merged, first);
    first = false;
    for (const AttrMask mask : *req->masks) {
      if (req->want_counts) {
        if (!count_slot.contains(mask.bits())) {
          count_slot.emplace(mask.bits(), count_masks.size());
          count_masks.push_back(mask);
        }
      } else {
        if (!any_sizing) {
          size_budget = req->budget;
        } else if (size_budget >= 0) {
          // The most generous budget wins: -1 (exact) absorbs all.
          size_budget = req->budget < 0
                            ? -1
                            : std::max(size_budget, req->budget);
        }
        any_sizing = true;
        any_collect = any_collect || req->collect;
        if (!size_slot.contains(mask.bits())) {
          size_slot.emplace(mask.bits(), size_masks.size());
          size_masks.push_back(mask);
        }
      }
    }
  }
  // Sizing masks also requested as full counts are served from the
  // counts call alone.
  if (!count_slot.empty() && !size_masks.empty()) {
    std::vector<AttrMask> kept;
    kept.reserve(size_masks.size());
    std::unordered_map<uint64_t, size_t> kept_slot;
    for (const AttrMask mask : size_masks) {
      if (count_slot.contains(mask.bits())) continue;
      kept_slot.emplace(mask.bits(), kept.size());
      kept.push_back(mask);
    }
    size_masks.swap(kept);
    size_slot.swap(kept_slot);
  }

  std::vector<std::shared_ptr<const GroupCounts>> count_results;
  std::vector<int64_t> size_results;
  std::vector<std::shared_ptr<const GroupCounts>> size_counts;
  {
    std::lock_guard<std::mutex> engine_lock(mu_);
    // The most-capable fold extends across waves: while other queries
    // are admitted, a wave must not shrink the cache budget below what
    // the engine already runs with — otherwise a low-budget query's
    // solo waves would evict the shared warm entries once per wave. A
    // truly solo query applies its config verbatim.
    if (active_queries() > 1) {
      merged.cache_budget =
          std::max(merged.cache_budget, engine_.options().cache_budget);
    }
    engine_.Reconfigure(merged);
    if (!count_masks.empty()) {
      count_results = engine_.PatternCountsBatch(count_masks);
    }
    if (!size_masks.empty()) {
      size_results = engine_.CountPatternsBatchCollect(
          size_masks, size_budget, any_collect ? &size_counts : nullptr);
    }
  }
  {
    std::lock_guard<std::mutex> lock(wave_mu_);
    wave_stats_.executed_masks +=
        static_cast<int64_t>(count_masks.size() + size_masks.size());
  }

  // Route every mask's answers back to its requesters.
  for (WaveRequest* req : batch) {
    const size_t n = req->masks->size();
    if (req->want_counts) {
      req->counts.resize(n);
    } else {
      req->sizes.resize(n);
      if (req->collect) req->counts.resize(n);
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bits = (*req->masks)[i].bits();
      if (req->want_counts) {
        req->counts[i] = count_results[count_slot.at(bits)];
        continue;
      }
      auto from_counts = count_slot.find(bits);
      if (from_counts != count_slot.end()) {
        const std::shared_ptr<const GroupCounts>& pc =
            count_results[from_counts->second];
        req->sizes[i] = pc->num_groups();
        if (req->collect) req->counts[i] = pc;
        continue;
      }
      const size_t slot = size_slot.at(bits);
      req->sizes[i] = size_results[slot];
      if (req->collect && !size_counts.empty()) {
        req->counts[i] = size_counts[slot];
      }
    }
  }
}

// --- appends ---------------------------------------------------------------

void CountingService::ApplyRowsLocked(
    const std::vector<std::vector<ValueId>>& rows) {
  // Results describe the pre-append rows; clear before the data grows
  // (the exclusive admission excludes every lookup and publish, so the
  // order matters only for crash hygiene — an interrupted append leaves
  // an empty cache, never a stale one).
  InvalidateResults();
  const int64_t work =
      static_cast<int64_t>(rows.size()) * engine_.stats().cached_groups;
  if (rows.size() > 1 && work > kMaxPatchWork) {
    engine_.InvalidateCache();  // the invalidate arm
  }
  engine_.ApplyAppend(rows);
}

// --- appends (shared interning + group commit) -----------------------------

Status CountingService::AppendStrings(
    const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return Status::Ok();
  AppendTicket ticket;
  ticket.rows = &rows;
  return SubmitAppend(ticket);
}

Status CountingService::AppendTable(const Table& delta) {
  AppendTicket ticket;
  ticket.delta = &delta;
  return SubmitAppend(ticket);
}

int64_t CountingService::TicketRows(const AppendTicket& ticket) {
  if (ticket.rows != nullptr) {
    return static_cast<int64_t>(ticket.rows->size());
  }
  return ticket.delta->num_rows();
}

Status CountingService::SubmitAppend(AppendTicket& ticket) {
  if (!append_group_commit_.load(std::memory_order_relaxed)) {
    // Solo arm: this request is its own batch (the bench's baseline).
    {
      std::lock_guard<std::mutex> lock(append_mu_);
      append_stats_.requests += 1;
      append_stats_.request_rows += TicketRows(ticket);
    }
    AppendAdmission admission(*this);
    CommitAppendBatch({&ticket});
    return ticket.status;
  }
  std::unique_lock<std::mutex> lock(append_mu_);
  append_queue_.push_back(&ticket);
  append_stats_.requests += 1;
  append_stats_.request_rows += TicketRows(ticket);
  while (!ticket.done) {
    if (!append_leader_active_) {
      append_leader_active_ = true;
      lock.unlock();
      // The stint must step down on every path — a throw that left the
      // flag set would wedge every later append behind a leader that no
      // longer exists (the wave coordinator has the same guard).
      try {
        RunAppendLeader();
      } catch (...) {
        lock.lock();
        append_leader_active_ = false;
        append_cv_.notify_all();
        throw;
      }
      lock.lock();
      append_leader_active_ = false;
      append_cv_.notify_all();
      // The stint committed the batch our own ticket was in — the loop
      // exits on the next check.
      continue;
    }
    append_cv_.wait(lock);
  }
  return ticket.status;
}

void CountingService::RunAppendLeader() {
  // The admission wait *is* the merge window: while this leader waits
  // for in-flight queries to drain, every concurrent append enqueues its
  // ticket and joins this batch. No timer needed — the window is exactly
  // as long as the gate is busy, and zero for a solo append on an idle
  // service.
  AppendAdmission admission(*this);
  std::vector<AppendTicket*> batch;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    batch.assign(append_queue_.begin(), append_queue_.end());
    append_queue_.clear();
  }
  // Non-empty by construction: the leader's own ticket was enqueued
  // before it volunteered and only a leader dequeues.
  PCBL_CHECK(!batch.empty());
  try {
    CommitAppendBatch(batch);
  } catch (...) {
    // Fail the whole batch rather than leave siblings parked forever;
    // the statuses are best-effort (the exception itself propagates to
    // this leader's caller).
    std::lock_guard<std::mutex> lock(append_mu_);
    for (AppendTicket* t : batch) {
      if (!t->status.ok() || t->done) continue;
      t->status = InternalError("append group commit threw");
    }
    for (AppendTicket* t : batch) t->done = true;
    append_cv_.notify_all();
    throw;
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  for (AppendTicket* t : batch) t->done = true;
  append_cv_.notify_all();
}

void CountingService::CommitAppendBatch(
    const std::vector<AppendTicket*>& batch) {
  SharedInterner::Batch stage(interner_);
  std::vector<std::vector<ValueId>> rows;
  int64_t merged = 0;
  int64_t failed = 0;
  for (AppendTicket* t : batch) {
    ++merged;
    const SharedInterner::Batch::Savepoint save = stage.Save();
    const size_t rows_before = rows.size();
    Status s = EncodeTicket(*t, &stage, &rows);
    if (s.ok() && append_fault_hook_ != nullptr) {
      s = append_fault_hook_(TicketRows(*t));
    }
    if (!s.ok()) {
      // Transactional per ticket: drop exactly this ticket's rows and
      // staged values; later tickets re-intern from the savepoint, so
      // their codes match a rebuild that never saw the failed rows.
      stage.RollbackTo(save);
      rows.resize(rows_before);
      t->status = std::move(s);
      ++failed;
      continue;
    }
    t->status = Status::Ok();
  }
  if (!rows.empty()) {
    // One critical-section body for the whole batch: one result-cache
    // invalidation, one invalidate-or-patch engine hook. The interner
    // publishes last — if the engine hook ever threw, no phantom
    // dictionary entries would survive it.
    ApplyRowsLocked(rows);
    interner_.Commit(std::move(stage));
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  append_stats_.batches += 1;
  if (merged > 1) append_stats_.merged_batches += 1;
  append_stats_.committed_rows += static_cast<int64_t>(rows.size());
  append_stats_.failed_requests += failed;
}

Status CountingService::EncodeTicket(
    const AppendTicket& ticket, SharedInterner::Batch* stage,
    std::vector<std::vector<ValueId>>* rows) const {
  const Table& base = engine_.table();
  const int n = base.num_attributes();
  if (ticket.rows != nullptr) {
    rows->reserve(rows->size() + ticket.rows->size());
    for (const std::vector<std::string>& row : *ticket.rows) {
      if (static_cast<int>(row.size()) != n) {
        return InvalidArgumentError(
            StrCat("row has ", row.size(), " values, schema has ", n));
      }
      std::vector<ValueId> codes(static_cast<size_t>(n), kNullValue);
      for (int a = 0; a < n; ++a) {
        const std::string& v = row[static_cast<size_t>(a)];
        if (v.empty() || v == "NULL") continue;  // TableBuilder rules
        codes[static_cast<size_t>(a)] = stage->Intern(a, v);
      }
      rows->push_back(std::move(codes));
    }
    return Status::Ok();
  }
  const Table& delta = *ticket.delta;
  if (delta.num_attributes() != n) {
    return InvalidArgumentError("delta schema width differs");
  }
  for (int a = 0; a < n; ++a) {
    if (delta.schema().name(a) != base.schema().name(a)) {
      return InvalidArgumentError(
          StrCat("delta attribute ", a, " is \"", delta.schema().name(a),
                 "\", expected \"", base.schema().name(a), "\""));
    }
  }
  // Remap delta codes, interning fresh values lazily — only values that
  // actually appear in a delta row, in row-major first-seen order,
  // exactly as a TableBuilder rebuild would. (Interning the delta's
  // whole dictionary up front would also intern values its rows never
  // use — e.g. a delta produced by FilterRows keeps its parent's full
  // dictionary — shifting fresh ids versus the rebuilt extended table
  // and silently breaking byte-identity.)
  std::vector<std::vector<ValueId>> remap(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    remap[static_cast<size_t>(a)].assign(delta.dictionary(a).size(),
                                         kNullValue);  // = not yet mapped
  }
  rows->reserve(rows->size() + static_cast<size_t>(delta.num_rows()));
  for (int64_t r = 0; r < delta.num_rows(); ++r) {
    std::vector<ValueId> codes(static_cast<size_t>(n));
    for (int a = 0; a < n; ++a) {
      const ValueId v = delta.value(r, a);
      if (IsNull(v)) {
        codes[static_cast<size_t>(a)] = kNullValue;
        continue;
      }
      ValueId& mapped = remap[static_cast<size_t>(a)][v];
      if (IsNull(mapped)) {
        mapped = stage->Intern(a, delta.dictionary(a).GetString(v));
      }
      codes[static_cast<size_t>(a)] = mapped;
    }
    rows->push_back(std::move(codes));
  }
  return Status::Ok();
}

// --- warm-start persistence (docs/PERSISTENCE.md) --------------------------

ServiceWarmState CountingService::ExportWarmState() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceWarmState state;
  const Table& base = engine_.table();
  const int n = base.num_attributes();
  state.interner_deltas.resize(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    const int64_t base_domain = base.DomainSize(a);
    const int64_t added = interner_.AddedValues(a);
    std::vector<std::string>& log =
        state.interner_deltas[static_cast<size_t>(a)];
    log.reserve(static_cast<size_t>(added));
    for (int64_t i = 0; i < added; ++i) {
      log.push_back(
          interner_.GetString(a, static_cast<ValueId>(base_domain + i)));
    }
  }
  const int64_t appended = engine_.num_appended_rows();
  if (appended > 0 && n > 0) {
    state.appended_rows.resize(static_cast<size_t>(appended * n));
    engine_.CopyAppendedRows(0, appended, state.appended_rows.data());
  }
  state.entries = engine_.ExportCacheSnapshot();
  return state;
}

void CountingService::RestoreWarmState(const ServiceWarmState& state) {
  const int n = engine_.table().num_attributes();
  // Stage the interner deltas outside the lock (Batch reads only
  // committed state); everything else happens under it.
  SharedInterner::Batch batch(interner_);
  const size_t attrs =
      std::min(state.interner_deltas.size(), static_cast<size_t>(n));
  for (size_t a = 0; a < attrs; ++a) {
    for (const std::string& value : state.interner_deltas[a]) {
      (void)batch.Intern(static_cast<int>(a), value);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  interner_.Commit(std::move(batch));
  if (!state.appended_rows.empty() && n > 0) {
    const int64_t rows =
        static_cast<int64_t>(state.appended_rows.size()) / n;
    std::vector<std::vector<ValueId>> delta(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      const ValueId* row = state.appended_rows.data() + r * n;
      delta[static_cast<size_t>(r)].assign(row, row + n);
    }
    // The cache is still empty here, so ApplyAppend patches nothing —
    // the imported entries below already reflect these rows.
    engine_.ApplyAppend(delta);
  }
  engine_.ImportCacheSnapshot(state.entries);
}

AppendBatchStats CountingService::append_stats() const {
  AppendBatchStats stats;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    stats = append_stats_;
    stats.pending = static_cast<int64_t>(append_queue_.size());
  }
  stats.interned_values = interner_.AddedValuesRelaxed();
  return stats;
}

}  // namespace pcbl
