#include "pattern/service_registry.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "persist/spill_store.h"
#include "util/hash.h"
#include "util/logging.h"

namespace pcbl {

namespace {

// Two independently seeded accumulator lanes over the same byte stream
// give the fingerprint its 128 bits; a single 64-bit lane would make
// birthday collisions across a long-lived process merely improbable
// instead of unrealistic.
struct Lanes {
  uint64_t lo = 0x243f6a8885a308d3ULL;  // pi digits
  uint64_t hi = 0x13198a2e03707344ULL;

  void Mix(uint64_t v) {
    lo = HashCombine(lo, v);
    hi = HashCombine(hi, v ^ 0xa4093822299f31d0ULL);
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
};

}  // namespace

TableFingerprint FingerprintTable(const Table& table) {
  Lanes lanes;
  const int n = table.num_attributes();
  lanes.Mix(static_cast<uint64_t>(n));
  lanes.Mix(static_cast<uint64_t>(table.num_rows()));
  for (int a = 0; a < n; ++a) {
    lanes.MixString(table.schema().name(a));
    const Dictionary& dict = table.dictionary(a);
    lanes.Mix(static_cast<uint64_t>(dict.size()));
    for (const std::string& value : dict.values()) {
      lanes.MixString(value);
    }
  }
  // Column data: hash each column's raw code buffer in 64-bit strides
  // (NULL cells are the kNullValue code, so NULL positions are covered).
  for (int a = 0; a < n; ++a) {
    const std::vector<ValueId>& col = table.column(a);
    uint64_t acc = 0x452821e638d01377ULL ^ static_cast<uint64_t>(a);
    size_t i = 0;
    for (; i + 1 < col.size(); i += 2) {
      acc = HashCombine(acc, (static_cast<uint64_t>(col[i]) << 32) |
                                 static_cast<uint64_t>(col[i + 1]));
    }
    if (i < col.size()) {
      acc = HashCombine(acc, static_cast<uint64_t>(col[i]));
    }
    lanes.Mix(acc);
  }
  return TableFingerprint{lanes.lo, lanes.hi};
}

namespace {

// Approximate footprint of one registry-owned table copy: column codes
// plus each dictionary's strings and index slots. The accountant charges
// this alongside the engine's cache bytes so distinct-content acquires
// cannot grow process memory past the budget with empty caches.
int64_t ApproxTableBytes(const Table& table) {
  const int n = table.num_attributes();
  int64_t bytes = 64;
  bytes += static_cast<int64_t>(n) * table.num_rows() *
           static_cast<int64_t>(sizeof(ValueId));
  for (int a = 0; a < n; ++a) {
    bytes += table.dictionary(a).MemoryBytes();
  }
  return bytes;
}

}  // namespace

ServiceRegistry& ServiceRegistry::Global() {
  static ServiceRegistry* registry = new ServiceRegistry();
  return *registry;
}

std::shared_ptr<CountingService> ServiceRegistry::Acquire(
    const Table& table, const CountingEngineOptions& options) {
  const TableFingerprint fingerprint = FingerprintTable(table);
  std::lock_guard<std::mutex> lock(mu_);
  return AcquireLocked(
      fingerprint,
      [&table] { return std::make_shared<const Table>(table); }, options);
}

std::shared_ptr<CountingService> ServiceRegistry::Acquire(
    std::shared_ptr<const Table> table,
    const CountingEngineOptions& options) {
  PCBL_CHECK(table != nullptr);
  const TableFingerprint fingerprint = FingerprintTable(*table);
  return Acquire(std::move(table), fingerprint, options);
}

std::shared_ptr<CountingService> ServiceRegistry::Acquire(
    std::shared_ptr<const Table> table, const TableFingerprint& fingerprint,
    const CountingEngineOptions& options) {
  PCBL_CHECK(table != nullptr);
  PCBL_DCHECK(FingerprintTable(*table) == fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  return AcquireLocked(
      fingerprint, [&table] { return std::move(table); }, options);
}

std::shared_ptr<CountingService> ServiceRegistry::AcquireLocked(
    const TableFingerprint& fingerprint,
    const std::function<std::shared_ptr<const Table>()>& own_table,
    const CountingEngineOptions& options) {
  ++stats_.acquires;
  auto it = services_.find(fingerprint);
  if (it == services_.end()) {
    Entry entry;
    entry.table = own_table();
    entry.table_bytes = ApproxTableBytes(*entry.table);
    // The service owns the table handle: it stays valid for any holder
    // even after the entry is evicted or the registry cleared.
    entry.service =
        std::make_shared<CountingService>(entry.table, options);
    it = services_.emplace(fingerprint, std::move(entry)).first;
    ++stats_.misses;
    RestoreFromSpillLocked(fingerprint, it->second);
  } else if (it->second.service->has_absorbed_appends()) {
    // The cached service absorbed appends (an incremental session grew
    // it) and no longer describes this fingerprint's content. Retire it
    // — existing holders keep the grown service alive — and rebuild a
    // fresh one from the entry's base-content table.
    it->second.service =
        std::make_shared<CountingService>(it->second.table, options);
    ++stats_.misses;
    RestoreFromSpillLocked(fingerprint, it->second);
  } else {
    ++stats_.hits;
  }
  it->second.last_acquired = ++clock_;
  std::shared_ptr<CountingService> service = it->second.service;
  TrimLocked();
  return service;
}

void ServiceRegistry::RestoreFromSpillLocked(
    const TableFingerprint& fingerprint, const Entry& entry) {
  if (spill_ == nullptr) return;
  // Only a base-content record may warm an acquire: a record carrying
  // appended rows describes *grown* content, and restoring it here
  // would hand base-content callers counts over data they never
  // acquired. (Diverged round-trips still work — through
  // CountingService::RestoreWarmState directly, for a consumer that
  // wants the grown state back.)
  std::optional<ServiceWarmState> state =
      spill_->GetWarmState(fingerprint, *entry.table, /*base_only=*/true);
  if (state.has_value()) entry.service->RestoreWarmState(*state);
}

bool ServiceRegistry::SpillEntryLocked(const TableFingerprint& fingerprint,
                                       const Entry& entry) {
  if (spill_ == nullptr) return false;
  // A diverged service's PC sets describe base + appended rows; keyed
  // under the base fingerprint they would only ever be rejected by the
  // base-only acquire path, so skip the write.
  if (entry.service->has_absorbed_appends()) return false;
  const ServiceWarmState state = entry.service->ExportWarmState();
  if (state.empty()) return false;
  return spill_->PutWarmState(fingerprint, *entry.table, state);
}

void ServiceRegistry::SetSpillDirectory(const std::string& directory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (directory.empty()) {
    spill_ = nullptr;
    return;
  }
  if (spill_ != nullptr && spill_->directory() == directory) return;
  persist::SpillStoreOptions options;
  options.directory = directory;
  spill_ = std::make_shared<persist::SpillStore>(std::move(options));
}

std::shared_ptr<persist::SpillStore> ServiceRegistry::spill_store() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spill_;
}

int64_t ServiceRegistry::SpillResident() {
  std::lock_guard<std::mutex> lock(mu_);
  if (spill_ == nullptr) return 0;
  int64_t spilled = 0;
  for (const auto& [fingerprint, entry] : services_) {
    if (SpillEntryLocked(fingerprint, entry)) ++spilled;
  }
  return spilled;
}

void ServiceRegistry::SetMemoryBudget(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.memory_budget_bytes = bytes;
  TrimLocked();
}

void ServiceRegistry::Trim() {
  std::lock_guard<std::mutex> lock(mu_);
  TrimLocked();
}

int64_t ServiceRegistry::ResidentBytesLocked() const {
  int64_t resident = 0;
  for (const auto& [fp, entry] : services_) {
    resident += entry.table_bytes + entry.service->resident_bytes();
  }
  return resident;
}

void ServiceRegistry::TrimLocked() {
  if (options_.memory_budget_bytes <= 0) return;
  auto entry_bytes = [](const Entry& entry) {
    return entry.table_bytes + entry.service->resident_bytes();
  };
  int64_t resident = ResidentBytesLocked();
  if (resident <= options_.memory_budget_bytes) return;
  // Cold entries (no outside holder), least recently acquired first.
  std::vector<const TableFingerprint*> cold;
  for (const auto& [fp, entry] : services_) {
    if (entry.service.use_count() == 1) cold.push_back(&fp);
  }
  std::sort(cold.begin(), cold.end(),
            [&](const TableFingerprint* a, const TableFingerprint* b) {
              return services_.at(*a).last_acquired <
                     services_.at(*b).last_acquired;
            });
  for (const TableFingerprint* fp : cold) {
    if (resident <= options_.memory_budget_bytes) break;
    auto it = services_.find(*fp);
    // A cold entry (no outside holder) has no admitted queries or
    // in-flight waves by construction; the probe is belt-and-braces
    // against future acquire paths that might hand out references
    // without bumping use_count.
    if (it->second.service->in_flight() > 0) continue;
    // An eviction is exactly the "expensive state about to be lost"
    // moment: spill it first so the next acquire of this content —
    // this process or the next — starts warm instead of rescanning.
    SpillEntryLocked(*fp, it->second);
    it->second.service->MarkEvicted();
    resident -= entry_bytes(it->second);
    services_.erase(it);
    ++stats_.evictions;
  }
}

void ServiceRegistry::Clear() {
  // Detach the entries under the lock, then drain outside it: a query
  // refused on an evicted service reports back to the registry
  // (NoteEvictedRejection), and quiescing with mu_ held would also stall
  // every concurrent Acquire behind the slowest in-flight search.
  std::unordered_map<TableFingerprint, Entry, FingerprintHash> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped.swap(services_);
  }
  for (auto& [fp, entry] : dropped) {
    // Mark first so api::Session stops admitting new queries, then wait
    // out whatever is still running — eviction never races a live wave.
    entry.service->MarkEvicted();
    entry.service->Quiesce();
  }
}

int64_t ServiceRegistry::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ResidentBytesLocked();
}

ServiceRegistryStats ServiceRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceRegistryStats stats = stats_;
  stats.services = static_cast<int64_t>(services_.size());
  stats.resident_bytes = ResidentBytesLocked();
  stats.evicted_rejections =
      evicted_rejections_.load(std::memory_order_relaxed);
  for (const auto& [fp, entry] : services_) {
    // results_mu_ is a leaf lock, safe to take under mu_.
    AccumulateServiceStats(*entry.service, &stats);
  }
  if (spill_ != nullptr) {
    const persist::SpillStoreStats spill = spill_->stats();
    stats.spill_hits = spill.hits;
    stats.spill_misses = spill.misses;
    stats.spill_rejects = spill.rejects;
    stats.spills = spill.spills;
    stats.spilled_bytes = spill.spilled_bytes;
  }
  return stats;
}

void AccumulateServiceStats(const CountingService& service,
                            ServiceRegistryStats* stats) {
  const ResultTierStats tier = service.result_tier_stats();
  stats->result_hits += tier.hits;
  stats->result_misses += tier.misses;
  stats->result_inflight_joins += tier.inflight_joins;
  stats->result_entries += tier.entries;
  stats->result_bytes += tier.bytes;
  const AppendBatchStats appends = service.append_stats();
  stats->append_batches += appends.batches;
  stats->append_requests += appends.requests;
  stats->interned_values += appends.interned_values;
}

}  // namespace pcbl
