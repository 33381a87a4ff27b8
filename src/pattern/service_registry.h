// ServiceRegistry: one warm CountingService per dataset, process-wide.
//
// PR 2's CountingService scoped the counting cache to a dataset *handle*:
// every LabelSearch, CLI invocation, or incremental session that built its
// own Table — even over byte-identical data — also built its own engine
// and paid the full-table scans again. The registry closes that gap by
// keying services on a *content fingerprint* of the table (schema +
// dictionaries + column data): any consumer that acquires a service for
// equal data gets the same shared service, so the second consumer's
// candidates are answered from the first one's warm PC sets with zero
// full-table scans (asserted via CountingEngineStats::full_scans in
// service_registry_test.cc).
//
// Lifetime: each service *owns* the table it scans (the first
// acquirer's table is copied into shared ownership unless it arrives as
// a shared_ptr), so a handed-out service stays fully valid even after
// its entry is evicted or the registry cleared. Fingerprinted equality
// also makes code spaces interchangeable: dictionary ids are assigned
// in first-seen order, so content-equal tables encode every value
// identically and a caller may use its own codes against the shared
// service.
//
// Divergence: a service that absorbed appends (an incremental session
// grew it) no longer describes its fingerprint's content, so the next
// acquire of that fingerprint retires the entry — holders keep the
// grown service — and rebuilds a fresh service for the base content
// (counted as a miss).
//
// Memory accounting: every engine tracks its resident cache bytes
// (CountingEngineStats::cached_bytes, mirrored lock-free through
// CountingService::resident_bytes); each entry additionally charges the
// approximate footprint of its owned table copy. The registry sums both
// and, when the total exceeds the configurable process budget, evicts
// whole *cold* services — least-recently-acquired first, and only those
// no consumer currently holds (use_count == 1). Hot services are never
// torn down mid-search; an evicted service stays valid for any holder
// that still references it, it just stops being findable.
//
// Thread-safety: every method is safe to call concurrently. The registry
// lock is never held while engine work runs; consumers reach the engine
// through the service's admission gate and wave scheduler, exactly as
// with a hand-constructed CountingService.
#ifndef PCBL_PATTERN_SERVICE_REGISTRY_H_
#define PCBL_PATTERN_SERVICE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "pattern/counting_service.h"
#include "relation/table.h"

namespace pcbl {

namespace persist {
class SpillStore;
}  // namespace persist

/// 128-bit content hash of a table: schema names, per-attribute
/// dictionary contents, and column data (incl. NULL positions). Two
/// tables with equal fingerprints have identical code spaces.
struct TableFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const TableFingerprint& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator!=(const TableFingerprint& other) const {
    return !(*this == other);
  }
};

TableFingerprint FingerprintTable(const Table& table);

/// Tuning knobs of the registry.
struct ServiceRegistryOptions {
  /// Process-wide budget on the summed resident bytes (engine caches +
  /// owned table copies) of all registered services; crossing it evicts
  /// cold services (LRU by last acquire). <= 0 means unbounded.
  int64_t memory_budget_bytes = int64_t{256} << 20;
};

/// Observability counters of the registry (monotonic except residents).
struct ServiceRegistryStats {
  int64_t acquires = 0;       ///< Acquire calls
  int64_t hits = 0;           ///< served an existing service
  int64_t misses = 0;         ///< built a new service (engine constructed)
  int64_t evictions = 0;      ///< cold services dropped by the accountant
  int64_t services = 0;       ///< currently registered services
  int64_t resident_bytes = 0; ///< summed cache + table bytes right now
  /// Queries refused (retryable kUnavailable) because their session's
  /// service had been evicted — the "lost the race with eviction" count
  /// an operator watches to size the memory budget.
  int64_t evicted_rejections = 0;
  /// Result-tier counters summed over the currently resident services
  /// (an evicted service takes its counts with it): whole-query
  /// completed-cache hits, leader executions, queries that parked on an
  /// identical in-flight query, and the cache's current occupancy. The
  /// cached bytes are already part of resident_bytes — this breaks them
  /// out for the operator. See CountingService::result_tier_stats().
  int64_t result_hits = 0;
  int64_t result_misses = 0;
  int64_t result_inflight_joins = 0;
  int64_t result_entries = 0;
  int64_t result_bytes = 0;
  /// Append-path counters summed over the currently resident services:
  /// group commits executed, string-level append requests served, and
  /// values interned beyond the base dictionaries. The batches/requests
  /// ratio is the group-commit merge factor an operator watches under
  /// concurrent ingest. See CountingService::append_stats().
  int64_t append_batches = 0;
  int64_t append_requests = 0;
  int64_t interned_values = 0;
  /// Warm-start spill-store counters (docs/PERSISTENCE.md): zero until
  /// SetSpillDirectory points the registry at a cache directory. Loads
  /// that restored a warm service / found no spill file / refused one
  /// (corrupt, foreign version, diverged), records written, and the
  /// bytes they cost on disk.
  int64_t spill_hits = 0;
  int64_t spill_misses = 0;
  int64_t spill_rejects = 0;
  int64_t spills = 0;
  int64_t spilled_bytes = 0;
};

/// Folds one service's result-tier and append-path counters into
/// `stats` (the result_* / append_* / interned_values fields only).
/// Shared by ServiceRegistry::stats() and `pcbl serve`'s per-tenant
/// stats rows, so both views sum the same counters the same way.
void AccumulateServiceStats(const CountingService& service,
                            ServiceRegistryStats* stats);

class ServiceRegistry {
 public:
  explicit ServiceRegistry(ServiceRegistryOptions options = {})
      : options_(options) {}

  ServiceRegistry(const ServiceRegistry&) = delete;
  ServiceRegistry& operator=(const ServiceRegistry&) = delete;

  /// The process-wide instance shared by searches, the CLI, and the
  /// theory sweeps.
  static ServiceRegistry& Global();

  /// Returns the shared service for `table`'s content, creating it on
  /// first acquire (the table is copied into service ownership, so the
  /// result outlives both the caller's instance and the registry
  /// entry). On a hit, `options` are NOT applied — per-query knobs go
  /// through CountingService::Configure under the consumer's lock,
  /// exactly as LabelSearch does.
  std::shared_ptr<CountingService> Acquire(
      const Table& table, const CountingEngineOptions& options = {});

  /// Same, but shares ownership of the caller's table instead of
  /// copying it on a miss.
  std::shared_ptr<CountingService> Acquire(
      std::shared_ptr<const Table> table,
      const CountingEngineOptions& options = {});

  /// Same, for a caller that already holds the table's fingerprint
  /// (which must equal FingerprintTable(*table)): the table is not
  /// hashed a second time.
  std::shared_ptr<CountingService> Acquire(
      std::shared_ptr<const Table> table, const TableFingerprint& fingerprint,
      const CountingEngineOptions& options = {});

  /// Adjusts the process budget and immediately enforces it.
  void SetMemoryBudget(int64_t bytes);

  /// Evicts cold services until the resident total fits the budget.
  /// Called automatically by every Acquire.
  void Trim();

  /// Drops every entry regardless of temperature (outstanding
  /// shared_ptrs keep their services — and the tables those own —
  /// alive). Each dropped service is marked evicted (api::Session then
  /// refuses new queries on it with a retryable kUnavailable) and its
  /// in-flight admissions and waves are drained before the entry goes —
  /// eviction never races a live wave. Primarily for tests.
  void Clear();

  /// Points the registry at a spill directory (persist::SpillStore,
  /// docs/PERSISTENCE.md): acquire-misses then consult the store first
  /// (a validated warm-state record restores the new service's interner
  /// deltas, appended rows, and cached PC sets before it is handed
  /// out), and eviction spills a warm non-diverged service's state on
  /// the way out. An empty directory disables spilling; changing the
  /// directory replaces the store (counters restart from zero).
  void SetSpillDirectory(const std::string& directory);

  /// The active spill store (null while disabled). Consumers that
  /// persist their own artifacts — e.g. `pcbl build` spilling a
  /// completed label — go through this handle so everything lands in
  /// one directory under one budget.
  std::shared_ptr<persist::SpillStore> spill_store() const;

  /// Spills every resident warm non-diverged service's state now — the
  /// orderly-shutdown hook (`pcbl serve` calls it after the listener
  /// stops, the batch CLIs before exit). Returns the number of services
  /// spilled. No-op without a spill directory.
  int64_t SpillResident();

  /// Records one query refused because its service was evicted; called
  /// by api::Session, surfaced through stats().evicted_rejections (and
  /// the CLI's registry line).
  void NoteEvictedRejection() {
    evicted_rejections_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Summed resident bytes (engine caches + owned table copies) over
  /// all registered services.
  int64_t ResidentBytes() const;

  ServiceRegistryStats stats() const;

 private:
  struct Entry {
    // The base-content table. The service shares ownership; the entry's
    // handle exists to rebuild a fresh service when the current one
    // diverges (absorbed appends).
    std::shared_ptr<const Table> table;
    int64_t table_bytes = 0;  // accountant's charge for the copy
    std::shared_ptr<CountingService> service;
    uint64_t last_acquired = 0;  // registry clock ticks
  };

  struct FingerprintHash {
    size_t operator()(const TableFingerprint& f) const {
      return static_cast<size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  // All called under mu_.
  std::shared_ptr<CountingService> AcquireLocked(
      const TableFingerprint& fingerprint,
      const std::function<std::shared_ptr<const Table>()>& own_table,
      const CountingEngineOptions& options);
  void TrimLocked();
  int64_t ResidentBytesLocked() const;
  // Spills one entry's warm state (no-op when the store is off, the
  // service diverged, or there is nothing warm to keep). True when a
  // record was written.
  bool SpillEntryLocked(const TableFingerprint& fingerprint,
                        const Entry& entry);
  // Restores a just-built service from the spill store (no-op when the
  // store is off, the record is missing, or validation refuses it — the
  // service then simply starts cold).
  void RestoreFromSpillLocked(const TableFingerprint& fingerprint,
                              const Entry& entry);

  mutable std::mutex mu_;
  ServiceRegistryOptions options_;
  ServiceRegistryStats stats_;
  uint64_t clock_ = 0;
  std::unordered_map<TableFingerprint, Entry, FingerprintHash> services_;
  // Warm-start persistence; null while disabled. Guarded by mu_ (the
  // store itself is thread-safe — the shared_ptr lets spill_store()
  // hand out a stable handle).
  std::shared_ptr<persist::SpillStore> spill_;
  // Outside mu_: bumped on the query path (api::Session) while Clear may
  // be quiescing services under mu_ — an atomic avoids the lock cycle.
  std::atomic<int64_t> evicted_rejections_{0};
};

}  // namespace pcbl

#endif  // PCBL_PATTERN_SERVICE_REGISTRY_H_
