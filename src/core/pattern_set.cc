#include "core/pattern_set.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"
#include "util/str.h"

namespace pcbl {
namespace {

void SortByCountDescending(std::vector<Pattern>& patterns,
                           std::vector<int64_t>& counts) {
  std::vector<size_t> order(patterns.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return counts[a] > counts[b];
  });
  std::vector<Pattern> sorted_patterns;
  std::vector<int64_t> sorted_counts;
  sorted_patterns.reserve(patterns.size());
  sorted_counts.reserve(counts.size());
  for (size_t i : order) {
    sorted_patterns.push_back(std::move(patterns[i]));
    sorted_counts.push_back(counts[i]);
  }
  patterns = std::move(sorted_patterns);
  counts = std::move(sorted_counts);
}

}  // namespace

PatternSet PatternSet::FromPatterns(const Table& table,
                                    std::vector<Pattern> patterns) {
  PatternSet out;
  out.counts_.reserve(patterns.size());
  for (const Pattern& p : patterns) {
    out.counts_.push_back(CountMatches(table, p));
  }
  out.patterns_ = std::move(patterns);
  SortByCountDescending(out.patterns_, out.counts_);
  return out;
}

Result<PatternSet> PatternSet::FromPatternsAndCounts(
    std::vector<Pattern> patterns, std::vector<int64_t> counts) {
  if (patterns.size() != counts.size()) {
    return InvalidArgumentError(
        StrCat("pattern/count arity mismatch: ", patterns.size(), " vs ",
               counts.size()));
  }
  PatternSet out;
  out.patterns_ = std::move(patterns);
  out.counts_ = std::move(counts);
  SortByCountDescending(out.patterns_, out.counts_);
  return out;
}

}  // namespace pcbl
