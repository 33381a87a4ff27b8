#include "api/dataset.h"

#include <utility>

#include "relation/csv.h"

namespace pcbl {
namespace api {

Result<Dataset> Dataset::FromCsvFile(const std::string& path,
                                     const DatasetOptions& options) {
  PCBL_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path));
  return FromTable(std::move(table), options);
}

Result<Dataset> Dataset::FromTable(Table table,
                                   const DatasetOptions& options) {
  return FromTable(std::make_shared<const Table>(std::move(table)),
                   options);
}

Result<Dataset> Dataset::FromTable(std::shared_ptr<const Table> table,
                                   const DatasetOptions& options) {
  if (table == nullptr) {
    return InvalidArgumentError("Dataset needs a table");
  }
  Dataset dataset;
  dataset.table_ = std::move(table);
  dataset.fingerprint_ = FingerprintTable(*dataset.table_);
  if (options.private_service) {
    dataset.service_ = std::make_shared<CountingService>(dataset.table_);
  } else {
    ServiceRegistry& registry = ServiceRegistry::Global();
    if (options.service_memory_budget >= 0) {
      registry.SetMemoryBudget(options.service_memory_budget);
    }
    if (!options.spill_directory.empty()) {
      registry.SetSpillDirectory(options.spill_directory);
    }
    dataset.service_ = registry.Acquire(dataset.table_, dataset.fingerprint_);
  }
  return dataset;
}

}  // namespace api
}  // namespace pcbl
