// Explicit pattern sets for the optimal-label problem.
//
// Definition 2.15 leaves the evaluated pattern set P as an input: "Our
// problem definition is more flexible, and allows the user to define a
// different pattern set, e.g., patterns that include only sensitive
// attributes." The experiments use P = P_A (FullPatternIndex), but the
// search also accepts a PatternSet built from any pattern list — e.g. all
// value combinations over a chosen (sensitive) attribute subset, which
// api::Session builds for a focus query from the counting engine's PC
// set.
// Patterns are kept sorted by true count descending so the Sec. IV-C
// early-termination scan applies.
#ifndef PCBL_CORE_PATTERN_SET_H_
#define PCBL_CORE_PATTERN_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "pattern/pattern.h"
#include "relation/table.h"
#include "util/attr_mask.h"
#include "util/status.h"

namespace pcbl {

/// A set of evaluation patterns with their true counts, ordered by count
/// descending.
class PatternSet {
 public:
  /// Builds from explicit patterns; counts are computed by scanning
  /// `table` (exact). Patterns with zero count are kept (their q-error is
  /// skipped during evaluation, mirroring EvaluateOverPatterns).
  static PatternSet FromPatterns(const Table& table,
                                 std::vector<Pattern> patterns);

  /// Builds from patterns with precomputed counts (sizes must match).
  static Result<PatternSet> FromPatternsAndCounts(
      std::vector<Pattern> patterns, std::vector<int64_t> counts);

  int64_t size() const { return static_cast<int64_t>(patterns_.size()); }
  const Pattern& pattern(int64_t i) const {
    return patterns_[static_cast<size_t>(i)];
  }
  int64_t count(int64_t i) const { return counts_[static_cast<size_t>(i)]; }

  const std::vector<Pattern>& patterns() const { return patterns_; }
  const std::vector<int64_t>& counts() const { return counts_; }

 private:
  std::vector<Pattern> patterns_;  // sorted by count descending
  std::vector<int64_t> counts_;
};

}  // namespace pcbl

#endif  // PCBL_CORE_PATTERN_SET_H_
