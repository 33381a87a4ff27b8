// IncrementalLabel — label maintenance under row appends.
//
// The paper ships labels as dataset metadata (Sec. I); found datasets
// grow. Rebuilding L_S(D) after every append costs a full scan, while the
// update induced by one appended row is local: bump |D|, bump one VC count
// per non-NULL cell, and bump (or create) the one PC entry for the row's
// restriction to S. This class maintains exactly the state of
// Label::Build(extended table, S) — same VC, same PC under the
// ComputePatternCounts semantics (restrictions of arity >= 2; see
// DESIGN.md §5a) — and therefore estimates identically to a rebuilt
// label, at O(|A|) per appended row.
//
// Appends can create patterns the original data lacked, so |PC| may
// outgrow the size bound the label was searched under; drift() reports
// that, plus how much the dataset has shifted, so callers know when to
// re-run the optimal-label search rather than keep patching.
//
// This is a *low-level engine* for maintaining one label artifact. For
// growing a dataset and re-searching it, prefer pcbl::api::Session
// (api/session.h): it keeps VC and the full-pattern index P_A in step
// with every row the shared counting service holds, so a post-append
// search stays byte-exact against a from-scratch rebuild.
#ifndef PCBL_CORE_INCREMENTAL_H_
#define PCBL_CORE_INCREMENTAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "core/estimator.h"
#include "pattern/counting_service.h"
#include "pattern/pattern.h"
#include "relation/dictionary.h"
#include "relation/table.h"
#include "util/attr_mask.h"
#include "util/status.h"

namespace pcbl {

/// How far an incrementally maintained label has drifted from the state
/// it was created in.
struct LabelDrift {
  /// |D| at creation / rows appended since.
  int64_t base_rows = 0;
  int64_t appended_rows = 0;
  /// |PC| at creation / entries created by appends.
  int64_t base_patterns = 0;
  int64_t new_patterns = 0;
  /// True when |PC| now exceeds the bound the label was searched under.
  bool bound_exceeded = false;

  /// A rebuild (re-running the optimal-label search) is advisable when
  /// the bound broke or the data grew by more than `growth_threshold`.
  bool SuggestRebuild(double growth_threshold = 0.2) const {
    if (bound_exceeded) return true;
    if (base_rows <= 0) return appended_rows > 0;
    return static_cast<double>(appended_rows) /
               static_cast<double>(base_rows) >
           growth_threshold;
  }
};

/// A mutable label over a growing dataset, estimating exactly like the
/// label rebuilt on the extended data.
class IncrementalLabel : public CardinalityEstimator {
 public:
  /// Seeds the state from `base` with attribute set `s`. `size_bound` is
  /// the B_s the label was searched under (used only for drift tracking).
  ///
  /// When `service` (the dataset's CountingService) is supplied, the
  /// initial PC set is read through its warm cache as one query wave —
  /// after a label search over the same table this costs zero table
  /// scans — and every append is committed through the service's group
  /// commit (AppendStrings / AppendTable) *before* this label applies
  /// it: the service interns the strings centrally and keeps the cached
  /// PC sets of other subsets exact, and a refused append leaves the
  /// label untouched. The label describes the base plus its own appends;
  /// rows other appenders commit to the service are not part of it.
  static Result<IncrementalLabel> Create(
      const Table& base, AttrMask s, int64_t size_bound,
      std::shared_ptr<CountingService> service = nullptr);

  /// Appends one row of string values (empty / "NULL" = missing), exactly
  /// like TableBuilder::AddRow. New values are interned; ids extend the
  /// base table's stable code space.
  Status AppendRow(const std::vector<std::string>& values);

  /// Appends every row of `delta`, which must have the same attribute
  /// names in the same order. Values are remapped by string, so `delta`
  /// may use its own dictionaries.
  Status AppendTable(const Table& delta);

  double EstimateCount(const Pattern& p) const override;
  double EstimateFullPattern(const ValueId* codes, int width) const override;
  std::string name() const override { return "PCBL-inc"; }
  int64_t FootprintEntries() const override {
    return static_cast<int64_t>(pc_.size());
  }

  /// Current |D| (base + appended).
  int64_t total_rows() const { return total_rows_; }
  AttrMask attributes() const { return attrs_; }
  int64_t size_bound() const { return size_bound_; }
  bool within_bound() const {
    return FootprintEntries() <= size_bound_;
  }
  LabelDrift drift() const;

  /// c_D({A_attr = value-string}) in the current state; 0 for unknown
  /// values.
  int64_t ValueCount(int attr, std::string_view value) const;

 private:
  IncrementalLabel() = default;

  // One row in this label's code space. Updates |D|, VC, and PC.
  void ApplyRow(const std::vector<ValueId>& codes);

  // c_D(p|S) from the PC map (exact lookup / containment / |D|).
  double RestrictedCount(const std::vector<ValueId>& bound) const;

  int width_ = 0;
  AttrMask attrs_;
  std::vector<int> s_attrs_;
  std::vector<std::string> attr_names_;  // for AppendTable schema checks
  int64_t size_bound_ = 0;
  int64_t total_rows_ = 0;

  std::vector<Dictionary> dictionaries_;       // grows with appends
  std::vector<std::vector<int64_t>> vc_;       // [attr][code]
  std::vector<int64_t> totals_;                // non-null totals per attr
  // Keys over s_attrs_ (kNullValue = the row was NULL there); only
  // restrictions binding >= 2 attributes are stored, mirroring
  // ComputePatternCounts.
  std::map<std::vector<ValueId>, int64_t> pc_;

  // Creation-time snapshot for drift().
  int64_t base_rows_ = 0;
  int64_t base_patterns_ = 0;

  // Optional dataset-scoped counting service every append is committed
  // to first.
  std::shared_ptr<CountingService> service_;
};

}  // namespace pcbl

#endif  // PCBL_CORE_INCREMENTAL_H_
