#include "core/incremental.h"

#include <utility>

#include "pattern/counter.h"
#include "pattern/service_registry.h"
#include "relation/stats.h"
#include "util/logging.h"
#include "util/str.h"

namespace pcbl {

Result<IncrementalLabel> IncrementalLabel::Create(
    const Table& base, AttrMask s, int64_t size_bound,
    std::shared_ptr<CountingService> service) {
  const int n = base.num_attributes();
  if (n == 0) return InvalidArgumentError("table has no attributes");
  if (!s.IsSubsetOf(AttrMask::All(n))) {
    return InvalidArgumentError("attribute set exceeds the schema");
  }
  if (size_bound < 0) {
    return InvalidArgumentError("size bound must be non-negative");
  }
  IncrementalLabel label;
  label.width_ = n;
  label.attrs_ = s;
  label.s_attrs_ = s.ToIndices();
  label.attr_names_ = base.schema().names();
  label.size_bound_ = size_bound;
  label.total_rows_ = base.num_rows();

  label.dictionaries_.reserve(static_cast<size_t>(n));
  label.vc_.resize(static_cast<size_t>(n));
  label.totals_.assign(static_cast<size_t>(n), 0);
  const ValueCounts vc = ValueCounts::Compute(base);
  for (int a = 0; a < n; ++a) {
    label.dictionaries_.push_back(base.dictionary(a));  // copy, will grow
    label.vc_[static_cast<size_t>(a)] = vc.CountsFor(a);
    label.totals_[static_cast<size_t>(a)] = vc.NonNullTotal(a);
  }

  if (service != nullptr) {
    // Pointer identity is the cheap common case (a LabelSearch's own
    // service); a registry-acquired service wraps its own copy of the
    // table, so fall back to content equality — equal fingerprints imply
    // identical code spaces. (The appended-rows check happens below,
    // under a query admission — other sessions may be appending
    // concurrently.)
    if (&service->table() != &base &&
        FingerprintTable(service->table()) != FingerprintTable(base)) {
      return InvalidArgumentError(
          "counting service describes a different table");
    }
  }

  // The PC seed: through the dataset's service when available (a warm
  // cache — e.g. after a label search that selected `s` — answers this
  // without a table scan), else a one-shot count.
  std::shared_ptr<const GroupCounts> shared_pc;
  const GroupCounts* pc_ptr;
  GroupCounts local_pc;
  if (service != nullptr) {
    // The seed is one query wave under the engine's current knobs (a
    // disabled engine still counts exactly, it just cannot serve the
    // seed from a warm cache).
    CountingService::QueryAdmission admission(*service);
    // Checked under the admission: a service another session already
    // grew describes more data than `base`, and this label would seed
    // stale.
    if (service->engine().num_appended_rows() != 0) {
      return InvalidArgumentError(
          "counting service has already absorbed appended rows");
    }
    shared_pc = service->WavePatternCounts(
        {s}, service->EngineOptionsSnapshot())[0];
    pc_ptr = shared_pc.get();
  } else {
    local_pc = ComputePatternCounts(base, s);
    pc_ptr = &local_pc;
  }
  const GroupCounts& pc = *pc_ptr;
  for (int64_t g = 0; g < pc.num_groups(); ++g) {
    const ValueId* key = pc.key(g);
    label.pc_.emplace(std::vector<ValueId>(key, key + pc.key_width()),
                      pc.count(g));
  }

  label.base_rows_ = label.total_rows_;
  label.base_patterns_ = static_cast<int64_t>(label.pc_.size());
  label.service_ = std::move(service);
  return label;
}

void IncrementalLabel::ApplyRow(const std::vector<ValueId>& codes) {
  ++total_rows_;
  for (int a = 0; a < width_; ++a) {
    const ValueId v = codes[static_cast<size_t>(a)];
    if (IsNull(v)) continue;
    auto& counts = vc_[static_cast<size_t>(a)];
    if (v >= counts.size()) counts.resize(v + 1, 0);
    ++counts[v];
    ++totals_[static_cast<size_t>(a)];
  }
  // The row's restriction to S, stored when it binds >= 2 attributes
  // (ComputePatternCounts semantics).
  if (s_attrs_.size() < 2) return;
  std::vector<ValueId> key(s_attrs_.size());
  int arity = 0;
  for (size_t j = 0; j < s_attrs_.size(); ++j) {
    key[j] = codes[static_cast<size_t>(s_attrs_[j])];
    if (!IsNull(key[j])) ++arity;
  }
  if (arity >= 2) ++pc_[std::move(key)];
}

Status IncrementalLabel::AppendRow(const std::vector<std::string>& values) {
  if (static_cast<int>(values.size()) != width_) {
    return InvalidArgumentError(
        StrCat("row has ", values.size(), " values, schema has ", width_));
  }
  // The service commits first (a single row takes its patch arm); a
  // refused append leaves this label untouched.
  if (service_ != nullptr) {
    PCBL_RETURN_IF_ERROR(service_->AppendStrings({values}));
  }
  std::vector<ValueId> codes(static_cast<size_t>(width_), kNullValue);
  for (int a = 0; a < width_; ++a) {
    const std::string& v = values[static_cast<size_t>(a)];
    if (v.empty() || v == "NULL") continue;  // TableBuilder::AddRow semantics
    codes[static_cast<size_t>(a)] = dictionaries_[static_cast<size_t>(a)]
                                        .Intern(v);
  }
  ApplyRow(codes);
  return Status::Ok();
}

Status IncrementalLabel::AppendTable(const Table& delta) {
  if (delta.num_attributes() != width_) {
    return InvalidArgumentError("delta schema width differs");
  }
  for (int a = 0; a < width_; ++a) {
    if (delta.schema().name(a) != attr_names_[static_cast<size_t>(a)]) {
      return InvalidArgumentError(
          StrCat("delta attribute ", a, " is \"", delta.schema().name(a),
                 "\", expected \"", attr_names_[static_cast<size_t>(a)],
                 "\""));
    }
  }
  // The service commits the whole delta as one request first (its
  // invalidate-or-patch hook picks the arm by cost); a refused append
  // leaves this label untouched.
  if (service_ != nullptr) {
    PCBL_RETURN_IF_ERROR(service_->AppendTable(delta));
  }
  // Remap delta codes to our codes, interning fresh values lazily —
  // only values a delta row actually uses, in row-major first-seen
  // order, exactly as a TableBuilder rebuild would assign them (a
  // delta's dictionary may carry values its rows never use, e.g. after
  // FilterRows; interning those would shift fresh ids vs. the rebuild).
  std::vector<std::vector<ValueId>> remap(static_cast<size_t>(width_));
  for (int a = 0; a < width_; ++a) {
    remap[static_cast<size_t>(a)].assign(delta.dictionary(a).size(),
                                         kNullValue);  // = not yet mapped
  }
  std::vector<ValueId> codes(static_cast<size_t>(width_));
  for (int64_t r = 0; r < delta.num_rows(); ++r) {
    for (int a = 0; a < width_; ++a) {
      const ValueId v = delta.value(r, a);
      if (IsNull(v)) {
        codes[static_cast<size_t>(a)] = kNullValue;
        continue;
      }
      ValueId& mapped = remap[static_cast<size_t>(a)][v];
      if (IsNull(mapped)) {
        mapped = dictionaries_[static_cast<size_t>(a)].Intern(
            delta.dictionary(a).GetString(v));
      }
      codes[static_cast<size_t>(a)] = mapped;
    }
    ApplyRow(codes);
  }
  return Status::Ok();
}

double IncrementalLabel::RestrictedCount(
    const std::vector<ValueId>& bound) const {
  bool all_bound = true;
  bool none_bound = true;
  for (int attr : s_attrs_) {
    if (IsNull(bound[static_cast<size_t>(attr)])) {
      all_bound = false;
    } else {
      none_bound = false;
    }
  }
  if (none_bound) return static_cast<double>(total_rows_);
  if (all_bound) {
    std::vector<ValueId> key(s_attrs_.size());
    for (size_t j = 0; j < s_attrs_.size(); ++j) {
      key[j] = bound[static_cast<size_t>(s_attrs_[j])];
    }
    const auto it = pc_.find(key);
    return it == pc_.end() ? 0.0 : static_cast<double>(it->second);
  }
  int64_t sum = 0;
  for (const auto& [key, count] : pc_) {
    bool agrees = true;
    for (size_t j = 0; j < s_attrs_.size(); ++j) {
      const ValueId want = bound[static_cast<size_t>(s_attrs_[j])];
      if (!IsNull(want) && key[j] != want) {
        agrees = false;
        break;
      }
    }
    if (agrees) sum += count;
  }
  return static_cast<double>(sum);
}

double IncrementalLabel::EstimateCount(const Pattern& p) const {
  std::vector<ValueId> bound(static_cast<size_t>(width_), kNullValue);
  for (const PatternTerm& t : p.terms()) {
    bound[static_cast<size_t>(t.attr)] = t.value;
  }
  double est = RestrictedCount(bound);
  for (const PatternTerm& t : p.terms()) {
    if (attrs_.Test(t.attr)) continue;
    const auto& counts = vc_[static_cast<size_t>(t.attr)];
    const int64_t numer = t.value < counts.size() ? counts[t.value] : 0;
    const int64_t denom = totals_[static_cast<size_t>(t.attr)];
    est *= denom > 0 ? static_cast<double>(numer) /
                           static_cast<double>(denom)
                     : 0.0;
  }
  return est;
}

double IncrementalLabel::EstimateFullPattern(const ValueId* codes,
                                             int width) const {
  if (width != width_) {
    return CardinalityEstimator::EstimateFullPattern(codes, width);
  }
  double est;
  if (s_attrs_.empty()) {
    est = static_cast<double>(total_rows_);
  } else {
    std::vector<ValueId> key(s_attrs_.size());
    for (size_t j = 0; j < s_attrs_.size(); ++j) {
      key[j] = codes[s_attrs_[j]];
    }
    const auto it = pc_.find(key);
    est = it == pc_.end() ? 0.0 : static_cast<double>(it->second);
  }
  if (est == 0.0) return 0.0;
  for (int a = 0; a < width_; ++a) {
    if (attrs_.Test(a)) continue;
    const auto& counts = vc_[static_cast<size_t>(a)];
    const int64_t numer = codes[a] < counts.size() ? counts[codes[a]] : 0;
    const int64_t denom = totals_[static_cast<size_t>(a)];
    est *= denom > 0 ? static_cast<double>(numer) /
                           static_cast<double>(denom)
                     : 0.0;
  }
  return est;
}

LabelDrift IncrementalLabel::drift() const {
  LabelDrift d;
  d.base_rows = base_rows_;
  d.appended_rows = total_rows_ - base_rows_;
  d.base_patterns = base_patterns_;
  d.new_patterns = static_cast<int64_t>(pc_.size()) - base_patterns_;
  d.bound_exceeded = !within_bound();
  return d;
}

int64_t IncrementalLabel::ValueCount(int attr, std::string_view value) const {
  if (attr < 0 || attr >= width_) return 0;
  const ValueId code = dictionaries_[static_cast<size_t>(attr)].Lookup(value);
  if (IsNull(code)) return 0;
  const auto& counts = vc_[static_cast<size_t>(attr)];
  return code < counts.size() ? counts[code] : 0;
}

}  // namespace pcbl
