// SharedInterner: the string-interning surface of one CountingService —
// the per-content dictionary-delta log that lets *any* session append
// string rows and any sibling session resolve the appended values.
//
// The base table's dictionaries stay immutable (they are shared by every
// content-equal Dataset); values first seen in appended rows live here,
// with codes extending the base code space exactly as TableBuilder would
// assign them — first-seen order across committed appends. Because the
// log is owned by the service (and therefore by the ServiceRegistry
// entry for this fingerprint), a value interned by one session resolves
// in every sibling on its next admission: the pre-PR-8 "sibling sessions
// cannot resolve appended strings" caveat is gone by construction.
//
// Concurrency: mutation happens only inside a group-commit under
// CountingService::AppendAdmission (exclusive gate + service mutex);
// reads happen under a query admission (gate-shared or the service
// mutex). The gate's exclusive/shared handoff orders every committed
// write before any subsequent read, so the log needs no internal lock —
// the same discipline as the engine's delta block.
#ifndef PCBL_PATTERN_INTERNING_H_
#define PCBL_PATTERN_INTERNING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "relation/table.h"

namespace pcbl {

class SharedInterner {
 public:
  explicit SharedInterner(const Table& table);

  SharedInterner(const SharedInterner&) = delete;
  SharedInterner& operator=(const SharedInterner&) = delete;

  /// Committed code of `value` in `attr`: the base dictionary first,
  /// then the delta log. kNullValue when the value appears nowhere.
  ValueId Lookup(int attr, std::string_view value) const;

  /// String of the committed code `code` (base or delta). CHECKs range.
  const std::string& GetString(int attr, ValueId code) const;

  /// The code the next commit would allocate for `attr` — the number of
  /// committed values (base dictionary + delta log). Equals the
  /// engine's EffectiveDomainSize while every append flows through the
  /// interner; a divergence means a code-level append bypassed it.
  int64_t NextCode(int attr) const;

  /// Delta-log length of `attr` (values beyond the base dictionary).
  int64_t AddedValues(int attr) const;

  /// Total delta-log length across attributes, readable lock-free (the
  /// registry's stats paths poll this without an admission).
  int64_t AddedValuesRelaxed() const {
    return added_relaxed_.load(std::memory_order_relaxed);
  }

  class Batch;

  /// Publishes a batch's staged values into the delta log, in staging
  /// order (codes were pre-allocated sequentially by the batch). Called
  /// after the engine hook succeeded, under the same AppendAdmission
  /// that staged the batch.
  void Commit(Batch&& batch);

 private:
  friend class Batch;

  // Hashes std::string keys and string_view probes alike, so index
  // lookups by view never build a temporary string.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view value) const {
      return std::hash<std::string_view>{}(value);
    }
  };
  using ValueIndex =
      std::unordered_map<std::string, ValueId, ViewHash, std::equal_to<>>;

  struct AttrLog {
    ValueIndex index;  // value -> code
    std::vector<std::string> values;  // code = base domain + position
  };

  const Table* table_;
  std::vector<AttrLog> added_;
  std::atomic<int64_t> added_relaxed_{0};
};

/// One group-commit's staged interning transaction. Lookups layer the
/// staged values over the committed state, codes are allocated
/// sequentially past NextCode, and a per-request savepoint rolls back
/// exactly the values that request staged — so a failed request leaves
/// no phantom dictionary entries, and the codes later requests receive
/// match what a from-scratch rebuild that never saw the failed rows
/// would assign.
class SharedInterner::Batch {
 public:
  explicit Batch(const SharedInterner& committed);

  /// Code of `value` in `attr`, staging a new value when it is unknown
  /// to both the committed state and this batch.
  ValueId Intern(int attr, std::string_view value);

  struct Savepoint {
    std::vector<size_t> staged;  // per-attr staged-value counts
  };
  Savepoint Save() const;
  void RollbackTo(const Savepoint& sp);

  /// Values staged so far (across attributes).
  int64_t staged_values() const;

 private:
  friend class SharedInterner;

  struct AttrStage {
    ValueIndex index;
    std::vector<std::string> values;  // code = committed NextCode + pos
  };

  const SharedInterner* committed_;
  std::vector<AttrStage> staged_;
};

}  // namespace pcbl

#endif  // PCBL_PATTERN_INTERNING_H_
