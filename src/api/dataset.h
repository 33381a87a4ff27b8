// pcbl::api::Dataset — the immutable handle of the public API.
//
// A Dataset loads (or adopts) one Table and acquires its shared
// CountingService through the process-wide ServiceRegistry: every
// Dataset over content-equal data — any number of processes' worth of
// sessions, CLI invocations, sweeps — rides the same warm service, so
// the second consumer's candidate sizings are answered from the first
// one's cache with zero full-table scans. The handle itself is cheap to
// copy (shared ownership of the table and service) and immutable:
// growth happens through a Session (api/session.h), never through the
// Dataset. Any number of sessions over this handle may append
// concurrently — the service owns a shared interner and group-commits
// their rows (see pattern/counting_service.h); the base Table never
// changes, only the service's delta grows.
//
// This is the blessed entry point of the library together with Session;
// LabelSearch / IncrementalLabel remain public as low-level engines.
#ifndef PCBL_API_DATASET_H_
#define PCBL_API_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "pattern/counting_service.h"
#include "pattern/service_registry.h"
#include "relation/table.h"
#include "util/status.h"

namespace pcbl {
namespace api {

/// Knobs of Dataset construction.
struct DatasetOptions {
  /// When >= 0: applied to the process-wide registry's memory budget
  /// (bytes; 0 = unbounded) before acquiring, the `--service-budget`
  /// semantics of the CLI. Negative = leave the budget unchanged.
  int64_t service_memory_budget = -1;

  /// Build a private CountingService instead of acquiring the shared
  /// one from ServiceRegistry::Global() — isolation for tests and
  /// benchmarks that must not observe (or warm) process-wide state.
  bool private_service = false;

  /// When non-empty: applied as the process-wide registry's spill
  /// directory (warm-start persistence, docs/PERSISTENCE.md) before
  /// acquiring — the `--spill-dir` semantics of the CLI. The acquire
  /// then restores the service from a spilled warm state when a valid
  /// record for this content exists. Empty = leave the registry's spill
  /// configuration unchanged. Ignored with private_service.
  std::string spill_directory;
};

class Dataset {
 public:
  /// Reads a CSV file and acquires the content's shared service.
  static Result<Dataset> FromCsvFile(const std::string& path,
                                     const DatasetOptions& options = {});

  /// Adopts an already-built table (moved into shared ownership).
  static Result<Dataset> FromTable(Table table,
                                   const DatasetOptions& options = {});

  /// Shares ownership of the caller's table — no copy on a registry
  /// miss.
  static Result<Dataset> FromTable(std::shared_ptr<const Table> table,
                                   const DatasetOptions& options = {});

  const Table& table() const { return *table_; }
  const std::shared_ptr<const Table>& shared_table() const { return table_; }

  /// The dataset's counting service (registry-shared unless
  /// DatasetOptions::private_service). Sessions reach the engine through
  /// its admission gate and waves; most callers never touch it directly.
  const std::shared_ptr<CountingService>& service() const {
    return service_;
  }

  int64_t num_rows() const { return table_->num_rows(); }
  int num_attributes() const { return table_->num_attributes(); }

  /// The 128-bit content fingerprint the registry keyed the service on.
  const TableFingerprint& fingerprint() const { return fingerprint_; }

 private:
  Dataset() = default;

  std::shared_ptr<const Table> table_;
  std::shared_ptr<CountingService> service_;
  TableFingerprint fingerprint_;
};

}  // namespace api
}  // namespace pcbl

#endif  // PCBL_API_DATASET_H_
