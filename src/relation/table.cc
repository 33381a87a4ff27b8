#include "relation/table.h"

#include <algorithm>
#include <sstream>

#include "util/str.h"

namespace pcbl {

std::string Table::ValueString(int64_t row, int attr) const {
  ValueId v = value(row, attr);
  if (IsNull(v)) return "NULL";
  return dictionary(attr).GetString(v);
}


Result<Table> Table::Project(AttrMask mask) const {
  std::vector<int> keep;
  for (int i : mask.ToIndices()) {
    if (i >= num_attributes()) {
      return OutOfRangeError(
          StrCat("projection attribute ", i, " out of range (table has ",
                 num_attributes(), " attributes)"));
    }
    keep.push_back(i);
  }
  std::vector<std::string> names;
  names.reserve(keep.size());
  for (int i : keep) names.push_back(schema_.name(i));
  PCBL_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(names)));
  Table out;
  out.schema_ = std::move(schema);
  for (int i : keep) {
    // Dictionaries are immutable once built: share the handle instead of
    // deep-copying the string table per projection.
    out.dictionaries_.push_back(dictionaries_[static_cast<size_t>(i)]);
    out.columns_.push_back(columns_[static_cast<size_t>(i)]);
    out.null_counts_.push_back(null_counts_[static_cast<size_t>(i)]);
  }
  return out;
}

Result<Table> Table::ProjectPrefix(int k) const {
  if (k < 0 || k > num_attributes()) {
    return OutOfRangeError(StrCat("prefix length ", k, " out of range"));
  }
  return Project(AttrMask::All(k));
}

std::string Table::ToDebugString(int64_t max_rows) const {
  std::ostringstream os;
  for (int a = 0; a < num_attributes(); ++a) {
    if (a > 0) os << " | ";
    os << schema_.name(a);
  }
  os << "\n";
  int64_t limit = std::min<int64_t>(max_rows, num_rows());
  for (int64_t r = 0; r < limit; ++r) {
    for (int a = 0; a < num_attributes(); ++a) {
      if (a > 0) os << " | ";
      os << ValueString(r, a);
    }
    os << "\n";
  }
  if (limit < num_rows()) {
    os << "... (" << (num_rows() - limit) << " more rows)\n";
  }
  return os.str();
}

Result<TableBuilder> TableBuilder::Create(
    std::vector<std::string> attribute_names) {
  PCBL_ASSIGN_OR_RETURN(Schema schema,
                        Schema::Create(std::move(attribute_names)));
  TableBuilder b;
  b.table_.schema_ = std::move(schema);
  const size_t n = static_cast<size_t>(b.table_.schema_.num_attributes());
  b.dicts_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    b.dicts_.push_back(std::make_shared<Dictionary>());
  }
  b.table_.columns_.resize(n);
  b.table_.null_counts_.assign(n, 0);
  return b;
}

Status TableBuilder::AddRow(const std::vector<std::string>& values) {
  if (static_cast<int>(values.size()) != num_attributes()) {
    return InvalidArgumentError(
        StrCat("row has ", values.size(), " values; expected ",
               num_attributes()));
  }
  for (int a = 0; a < num_attributes(); ++a) {
    const std::string& v = values[static_cast<size_t>(a)];
    ValueId id;
    if (v.empty() || v == "NULL") {
      id = kNullValue;
      ++table_.null_counts_[static_cast<size_t>(a)];
    } else {
      id = dicts_[static_cast<size_t>(a)]->Intern(v);
    }
    table_.columns_[static_cast<size_t>(a)].push_back(id);
  }
  return Status::Ok();
}

Status TableBuilder::AddRowCodes(const std::vector<ValueId>& codes) {
  if (static_cast<int>(codes.size()) != num_attributes()) {
    return InvalidArgumentError(
        StrCat("row has ", codes.size(), " codes; expected ",
               num_attributes()));
  }
  for (int a = 0; a < num_attributes(); ++a) {
    ValueId id = codes[static_cast<size_t>(a)];
    if (!IsNull(id) && id >= dicts_[static_cast<size_t>(a)]->size()) {
      return InvalidArgumentError(
          StrCat("code ", id, " out of range for attribute ",
                 table_.schema_.name(a), " (domain size ",
                 dicts_[static_cast<size_t>(a)]->size(), ")"));
    }
    table_.null_counts_[static_cast<size_t>(a)] +=
        static_cast<int64_t>(IsNull(id));
    table_.columns_[static_cast<size_t>(a)].push_back(id);
  }
  return Status::Ok();
}

void TableBuilder::Reserve(int64_t rows) {
  if (rows <= 0) return;
  for (std::vector<ValueId>& column : table_.columns_) {
    column.reserve(column.size() + static_cast<size_t>(rows));
  }
}

Table TableBuilder::Build() {
  // Freeze: the table takes const handles and the builder drops its
  // write access, so sharing them (Project, table copies) is safe.
  table_.dictionaries_.assign(dicts_.begin(), dicts_.end());
  dicts_.clear();
  Table out = std::move(table_);
  table_ = Table();
  return out;
}

}  // namespace pcbl
