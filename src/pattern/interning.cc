#include "pattern/interning.h"

#include <utility>

#include "util/logging.h"

namespace pcbl {

SharedInterner::SharedInterner(const Table& table)
    : table_(&table),
      added_(static_cast<size_t>(table.num_attributes())) {}

ValueId SharedInterner::Lookup(int attr, std::string_view value) const {
  const ValueId base = table_->dictionary(attr).Lookup(value);
  if (!IsNull(base)) return base;
  const AttrLog& log = added_[static_cast<size_t>(attr)];
  auto it = log.index.find(value);
  return it == log.index.end() ? kNullValue : it->second;
}

const std::string& SharedInterner::GetString(int attr, ValueId code) const {
  const ValueId base = table_->DomainSize(attr);
  if (code < base) return table_->dictionary(attr).GetString(code);
  const AttrLog& log = added_[static_cast<size_t>(attr)];
  const size_t pos = static_cast<size_t>(code - base);
  PCBL_CHECK(pos < log.values.size())
      << "code " << code << " exceeds attribute " << attr
      << "'s committed code space (" << NextCode(attr) << ")";
  return log.values[pos];
}

int64_t SharedInterner::NextCode(int attr) const {
  return static_cast<int64_t>(table_->DomainSize(attr)) +
         static_cast<int64_t>(added_[static_cast<size_t>(attr)].values.size());
}

int64_t SharedInterner::AddedValues(int attr) const {
  return static_cast<int64_t>(added_[static_cast<size_t>(attr)].values.size());
}

void SharedInterner::Commit(Batch&& batch) {
  PCBL_CHECK(batch.committed_ == this);
  int64_t published = 0;
  for (size_t a = 0; a < added_.size(); ++a) {
    Batch::AttrStage& stage = batch.staged_[a];
    if (stage.values.empty()) continue;
    AttrLog& log = added_[a];
    for (auto& [value, code] : stage.index) {
      log.index.emplace(value, code);
    }
    published += static_cast<int64_t>(stage.values.size());
    log.values.insert(log.values.end(),
                      std::make_move_iterator(stage.values.begin()),
                      std::make_move_iterator(stage.values.end()));
    stage.values.clear();
    stage.index.clear();
  }
  if (published > 0) {
    added_relaxed_.fetch_add(published, std::memory_order_relaxed);
  }
}

SharedInterner::Batch::Batch(const SharedInterner& committed)
    : committed_(&committed), staged_(committed.added_.size()) {}

ValueId SharedInterner::Batch::Intern(int attr, std::string_view value) {
  const ValueId known = committed_->Lookup(attr, value);
  if (!IsNull(known)) return known;
  AttrStage& stage = staged_[static_cast<size_t>(attr)];
  auto it = stage.index.find(value);
  if (it != stage.index.end()) return it->second;
  const ValueId code = static_cast<ValueId>(
      committed_->NextCode(attr) + static_cast<int64_t>(stage.values.size()));
  stage.index.emplace(value, code);
  stage.values.emplace_back(value);
  return code;
}

SharedInterner::Batch::Savepoint SharedInterner::Batch::Save() const {
  Savepoint sp;
  sp.staged.reserve(staged_.size());
  for (const AttrStage& stage : staged_) {
    sp.staged.push_back(stage.values.size());
  }
  return sp;
}

void SharedInterner::Batch::RollbackTo(const Savepoint& sp) {
  PCBL_CHECK(sp.staged.size() == staged_.size());
  for (size_t a = 0; a < staged_.size(); ++a) {
    AttrStage& stage = staged_[a];
    PCBL_CHECK(sp.staged[a] <= stage.values.size());
    while (stage.values.size() > sp.staged[a]) {
      stage.index.erase(stage.values.back());
      stage.values.pop_back();
    }
  }
}

int64_t SharedInterner::Batch::staged_values() const {
  int64_t n = 0;
  for (const AttrStage& stage : staged_) {
    n += static_cast<int64_t>(stage.values.size());
  }
  return n;
}

}  // namespace pcbl
