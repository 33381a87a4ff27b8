// FullPatternIndex: the pattern set P_A of all full patterns present in a
// dataset, with counts, sorted by count descending.
//
// The paper's experiments evaluate label error against P = P_A — every
// pattern that binds all attributes and appears in the data (Sec. IV-A).
// Those patterns are exactly the distinct complete rows; their counts are
// the row multiplicities. The descending count order enables the
// early-termination trick of Sec. IV-C when computing maximal error.
// Rows containing NULLs produce no full pattern and are excluded.
#ifndef PCBL_PATTERN_FULL_PATTERN_INDEX_H_
#define PCBL_PATTERN_FULL_PATTERN_INDEX_H_

#include <cstdint>
#include <vector>

#include "pattern/pattern.h"
#include "relation/table.h"

namespace pcbl {

/// Distinct complete rows of a table with their multiplicities, ordered by
/// multiplicity (count) descending.
class FullPatternIndex {
 public:
  /// Builds the index from the full-width PC set (ComputePatternCounts
  /// over every attribute, so the packed, mixed-radix or sort kernel the
  /// counting layer picks): its NULL-free keys are exactly the full
  /// patterns. A one-attribute schema uses the column's value counts; an
  /// empty schema indexes every row and holds no pattern.
  static FullPatternIndex Build(const Table& table);

  /// Extends the index by appended rows: `rows` is num_rows *
  /// num_attributes() codes, row-major (the layout
  /// CountingEngine::CopyAppendedRows produces), kNullValue = missing.
  /// Rows with a NULL produce no full pattern, exactly as in Build. The
  /// result is byte-identical to Build over the table extended by
  /// `rows`, with no table rescan: the existing groups and the fresh
  /// rows are packed into uint64 codes over the effective domains (the
  /// largest code present per attribute plus one, since appended rows
  /// can mint codes past the table's), sorted, summed per code and put
  /// back in canonical order (count descending, ties by lexicographic
  /// key). Layouts wider than 63 bits merge lexicographically instead.
  /// This is the P_A maintenance arm of the append-aware search path
  /// (api/session.h).
  void ApplyAppend(const ValueId* rows, int64_t num_rows);

  /// Number of distinct full patterns |P_A|.
  int64_t num_patterns() const {
    return static_cast<int64_t>(counts_.size());
  }

  /// Codes of pattern `i` (width = num_attributes, no NULLs).
  const ValueId* codes(int64_t i) const {
    return codes_.data() + static_cast<size_t>(i) * width_;
  }

  /// Count c_D(p_i).
  int64_t count(int64_t i) const { return counts_[static_cast<size_t>(i)]; }

  /// Number of attributes per pattern.
  int width() const { return width_; }

  /// Rows included (no NULLs) — equals the sum of all counts.
  int64_t rows_indexed() const { return rows_indexed_; }

  /// Rows skipped because of NULL cells.
  int64_t rows_skipped() const { return rows_skipped_; }

  /// Materializes pattern `i` as a Pattern object.
  Pattern ToPattern(int64_t i) const;

 private:
  int width_ = 0;
  std::vector<ValueId> codes_;   // flat, num_patterns * width
  std::vector<int64_t> counts_;  // descending
  int64_t rows_indexed_ = 0;
  int64_t rows_skipped_ = 0;
};

}  // namespace pcbl

#endif  // PCBL_PATTERN_FULL_PATTERN_INDEX_H_
