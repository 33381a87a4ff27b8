// DifferentialHarness: one workload, every configuration of the counting
// stack, byte-identical answers — the reusable fixture behind the
// counting-service, incremental, and append-path suites.
//
// The paper's labels are exact artifacts: the packed, mixed-radix and
// sort strategies, the engine's memoized/rollup/batched paths, and the
// append machinery (delta block, patched entries, compacted base) must
// all produce *byte-identical* PC sets and |P_S| values, or labels
// silently drift from the data they describe (the CM-sketch baselines
// show what silent divergence looks like). The harness drives
// the same base+append workload through a grid of configurations —
// engine on/off, warm/cold cache, patch/invalidate arm, row-at-a-time vs
// bulk appends, delta block vs compacted base — and asserts every
// answer against the one-shot counters over a from-scratch rebuild of
// the extended table, across every forced RestrictionStrategy.
//
// The plain group-by oracles live here too: the source tree counts only
// restrictions (PC sets), so a test needing "every non-NULL value
// combination over S with its count" builds it with a std::map.
#ifndef PCBL_TESTS_DIFFERENTIAL_HARNESS_H_
#define PCBL_TESTS_DIFFERENTIAL_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pattern_set.h"
#include "pattern/counter.h"
#include "pattern/counting_service.h"
#include "relation/table.h"
#include "util/attr_mask.h"

namespace pcbl {
namespace testing {

/// The plain group-by oracle: every value combination over `mask` in
/// rows with no NULL there, with its row count, in ascending key order.
/// The empty mask gives one empty key counting every row (none for an
/// empty table).
std::map<std::vector<ValueId>, int64_t> OracleGroupBy(const Table& table,
                                                      AttrMask mask);

/// The focus pattern set of a session query over `mask`, built from
/// OracleGroupBy: one pattern per combination, count-descending, ties in
/// key order. `mask` must be non-empty.
PatternSet OraclePatternSet(const Table& table, AttrMask mask);

/// True when ∏(|Dom| + 1) over `mask` fits an int64 — when the one-shot
/// counters' mixed-radix strategy applies.
bool MixedRadixEncodable(const Table& table, AttrMask mask);

/// A counting workload: attribute names, base rows, appended rows.
/// Values are strings ("" = NULL), interned exactly as TableBuilder /
/// IncrementalLabel would.
struct DifferentialWorkload {
  std::vector<std::string> attribute_names;
  std::vector<std::vector<std::string>> base_rows;
  std::vector<std::vector<std::string>> append_rows;
};

/// Seeded random workload: `domain` distinct values per attribute in the
/// base rows, `append_domain` (>= domain introduces fresh values) in the
/// appended ones, `null_percent` NULL cells in both.
DifferentialWorkload RandomWorkload(uint64_t seed, int attrs,
                                    int64_t base_rows, int64_t append_rows,
                                    int domain, int append_domain,
                                    int null_percent);

/// One configuration of the counting stack under test.
struct DifferentialConfig {
  std::string name;
  bool engine_enabled = true;
  int num_threads = 1;
  int64_t cache_budget = int64_t{1} << 20;
  /// Auto-compaction threshold while appending (<= 0 = never).
  int64_t compact_threshold = 0;
  /// Explicitly fold the delta block once every append landed.
  bool compact_after_appends = false;
  /// Drop the warm cache before appending (forces rebuild-from-scan).
  bool invalidate_before_appends = false;
  /// Prime every subset's PC set before the appends (exercises the
  /// patch arm on a full cache; otherwise the cache starts cold).
  bool warm_cache_first = false;
  /// Append through one bulk AppendTable call instead of row-at-a-time
  /// AppendRow calls (exercises the invalidate-or-patch cost pivot).
  bool bulk_append = false;
};

/// The standard grid: engine on/off × warm/cold × delta/compacted ×
/// single/bulk appends.
std::vector<DifferentialConfig> StandardConfigs();

/// Byte-identity assertion between two GroupCounts (attrs, group count,
/// every key cell, every count). `context` prefixes failure messages.
void ExpectSameGroupCounts(const GroupCounts& got, const GroupCounts& want,
                           const std::string& context);

class DifferentialHarness {
 public:
  explicit DifferentialHarness(DifferentialWorkload workload);

  /// The base table (workload.base_rows only).
  const Table& base() const { return base_; }

  /// The reference: base + append rows rebuilt from scratch through one
  /// TableBuilder — the ground truth every configuration must match.
  const Table& reference() const { return reference_; }

  /// Runs one configuration: builds a CountingService over base(),
  /// optionally warms it, replays the appends through the service's
  /// group commit, optionally compacts, then asserts that
  /// every attribute subset's PC set and |P_S| (budgeted and exact) are
  /// byte-identical to the one-shot counters over
  /// reference() — which are themselves cross-checked across every
  /// eligible RestrictionStrategy. Returns the service so callers can
  /// assert configuration-specific stats on top.
  std::shared_ptr<CountingService> Run(
      const DifferentialConfig& config) const;

  /// Run() over StandardConfigs().
  void CheckAll() const;

  /// Asserts every engine answer of `service` (whatever its history)
  /// against the one-shot counters on `reference`. Usable standalone for
  /// services the caller mutated in custom ways.
  static void CheckServiceAgainst(CountingService& service,
                                  const Table& reference,
                                  const std::string& context);

 private:
  DifferentialWorkload workload_;
  Table base_;
  Table reference_;
};

}  // namespace testing
}  // namespace pcbl

#endif  // PCBL_TESTS_DIFFERENTIAL_HARNESS_H_
