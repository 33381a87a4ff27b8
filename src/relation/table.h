// In-memory, dictionary-encoded, columnar table of categorical attributes.
//
// This is the dataset substrate the paper's algorithms operate on. Values
// are stored column-major as ValueIds; each attribute has its own
// Dictionary. NULLs are allowed and never match a pattern.
#ifndef PCBL_RELATION_TABLE_H_
#define PCBL_RELATION_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relation/dictionary.h"
#include "relation/schema.h"
#include "relation/value.h"
#include "util/attr_mask.h"
#include "util/logging.h"
#include "util/status.h"

namespace pcbl {

class TableBuilder;

/// An immutable relational instance with categorical attributes.
class Table {
 public:
  Table() = default;

  int64_t num_rows() const {
    return columns_.empty() ? 0
                            : static_cast<int64_t>(columns_[0].size());
  }
  int num_attributes() const { return schema_.num_attributes(); }
  const Schema& schema() const { return schema_; }

  /// Dictionary of attribute `attr`.
  const Dictionary& dictionary(int attr) const {
    return *dictionaries_.at(static_cast<size_t>(attr));
  }

  /// The shared dictionary handle of `attr`. Tables are immutable once
  /// built, so projections alias these instead of deep-copying (several
  /// call sites project per candidate subset).
  std::shared_ptr<const Dictionary> shared_dictionary(int attr) const {
    return dictionaries_.at(static_cast<size_t>(attr));
  }

  /// Domain size |Dom(A_attr)| — the number of distinct non-null values
  /// interned for the attribute.
  ValueId DomainSize(int attr) const { return dictionary(attr).size(); }

  /// The code of cell (row, attr); kNullValue when missing.
  ValueId value(int64_t row, int attr) const {
    return columns_[static_cast<size_t>(attr)][static_cast<size_t>(row)];
  }

  /// Whole column of attribute `attr`.
  const std::vector<ValueId>& column(int attr) const {
    return columns_.at(static_cast<size_t>(attr));
  }

  /// String rendering of cell (row, attr); "NULL" when missing.
  std::string ValueString(int64_t row, int attr) const;

  /// Number of NULL cells in attribute `attr`. O(1): tracked during
  /// construction (the packed kernels pick branch-free NULL-free loops
  /// from this).
  int64_t NullCount(int attr) const {
    return null_counts_.at(static_cast<size_t>(attr));
  }
  bool HasNulls(int attr) const { return NullCount(attr) > 0; }

  /// Returns a new table with only the attributes in `mask` (schema order
  /// preserved). Dictionaries are shared content-wise (copied).
  Result<Table> Project(AttrMask mask) const;

  /// Returns a new table with only the first `k` attributes.
  Result<Table> ProjectPrefix(int k) const;

  /// Renders the first `max_rows` rows as an ASCII grid (debugging aid).
  std::string ToDebugString(int64_t max_rows = 20) const;

 private:
  friend class TableBuilder;

  Schema schema_;
  // Shared, not deep-copied, by Project/ProjectPrefix and table copies:
  // a built table never mutates its dictionaries (only TableBuilder
  // interns, and Build() severs its access).
  std::vector<std::shared_ptr<const Dictionary>> dictionaries_;
  std::vector<std::vector<ValueId>> columns_;  // [attr][row]
  std::vector<int64_t> null_counts_;           // per attr
};

/// Incrementally builds a Table from rows of strings or codes.
class TableBuilder {
 public:
  /// Starts a table with the given attribute names.
  static Result<TableBuilder> Create(std::vector<std::string> attribute_names);

  /// Appends a row of string values; empty string and "NULL" intern as
  /// missing. The row must have exactly num_attributes() entries.
  Status AddRow(const std::vector<std::string>& values);

  /// Appends a row of pre-encoded codes (must be valid ids or kNullValue).
  Status AddRowCodes(const std::vector<ValueId>& codes);

  /// Reserves column capacity for `rows` more rows (a hint; rows past
  /// it still append).
  void Reserve(int64_t rows);

  /// Interns `value` in the dictionary of `attr` without adding a row;
  /// useful for fixing domain contents (and therefore id order) up front.
  /// Defined here because CSV ingest calls it for every cell.
  ValueId InternValue(int attr, std::string_view value) {
    PCBL_CHECK(attr >= 0 && attr < num_attributes());
    return dicts_[static_cast<size_t>(attr)]->Intern(value);
  }

  int num_attributes() const { return table_.num_attributes(); }
  int64_t num_rows() const { return table_.num_rows(); }

  /// Finalizes and returns the table. The builder is left empty.
  Table Build();

 private:
  TableBuilder() = default;

  Table table_;
  // Mutable dictionary handles; Build() freezes them into the table as
  // shared const pointers and drops this write access.
  std::vector<std::shared_ptr<Dictionary>> dicts_;
};

}  // namespace pcbl

#endif  // PCBL_RELATION_TABLE_H_
