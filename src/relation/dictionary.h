// Per-attribute value dictionary: bijective mapping string <-> ValueId.
#ifndef PCBL_RELATION_DICTIONARY_H_
#define PCBL_RELATION_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relation/value.h"
#include "util/status.h"

namespace pcbl {

/// Maps the distinct string values of one attribute to dense ValueIds
/// [0, size()). Ids are assigned in first-seen order and are stable.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the id for `value`, interning it if previously unseen.
  /// Allocates only to store a new value.
  ValueId Intern(std::string_view value);

  /// Returns the id for `value`, or kNullValue when unknown (does not
  /// modify the dictionary, never allocates).
  ValueId Lookup(std::string_view value) const;

  /// True when `value` is interned.
  bool Contains(std::string_view value) const {
    return Lookup(value) != kNullValue;
  }

  /// The string for a (valid, non-null) id.
  const std::string& GetString(ValueId id) const;

  /// Number of distinct interned values.
  ValueId size() const { return static_cast<ValueId>(values_.size()); }

  /// All interned values, indexed by id.
  const std::vector<std::string>& values() const { return values_; }

  /// Approximate heap footprint: the value strings, their bytes, and the
  /// index slots.
  int64_t MemoryBytes() const;

 private:
  // One index slot: an id into values_ (kNullValue when empty) and 32
  // bits of the value's hash, which pick the home slot and screen out
  // most mismatches without touching the string.
  struct Slot {
    ValueId id = kNullValue;
    uint32_t hash = 0;
  };

  // The slot holding `value`, or the empty slot where it would go.
  // Requires a non-empty index.
  size_t FindSlot(std::string_view value, uint32_t hash) const;
  void Grow();

  std::vector<std::string> values_;
  // Open-addressing (linear probing) index over values_. Its capacity
  // is a power of two kept at most half full; the strings are stored
  // once, in values_.
  std::vector<Slot> slots_;
};

}  // namespace pcbl

#endif  // PCBL_RELATION_DICTIONARY_H_
