#include "relation/dictionary.h"

#include <cstring>

#include "util/hash.h"
#include "util/logging.h"

namespace pcbl {
namespace {

constexpr size_t kInitialSlots = 16;

// Hashing and comparing are written out here rather than left to the
// library: CSV ingest does both for every cell, and most cells are a
// word or two long.

uint64_t Word(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// The last `n` < 8 bytes of a run packed into one word. For a given `n`
// the packing is injective: two overlapping 4-byte loads cover 4-7
// bytes, and the first, middle and last byte cover 1-3.
uint64_t TailWord(const char* p, size_t n) {
  if (n >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }
  if (n == 0) return 0;
  return (static_cast<uint64_t>(static_cast<unsigned char>(p[0])) << 16) |
         (static_cast<uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8) |
         static_cast<unsigned char>(p[n - 1]);
}

uint32_t HashValue(std::string_view value) {
  const char* p = value.data();
  size_t n = value.size();
  uint64_t h = n * 0x9e3779b97f4a7c15ULL;
  for (; n >= 8; p += 8, n -= 8) h = Mix64(h ^ Word(p));
  h = Mix64(h ^ TailWord(p, n));
  return static_cast<uint32_t>(h ^ (h >> 32));
}

bool SameValue(const std::string& stored, std::string_view value) {
  size_t n = value.size();
  if (stored.size() != n) return false;
  const char* a = stored.data();
  const char* b = value.data();
  for (; n >= 8; a += 8, b += 8, n -= 8) {
    if (Word(a) != Word(b)) return false;
  }
  return TailWord(a, n) == TailWord(b, n);
}

}  // namespace

size_t Dictionary::FindSlot(std::string_view value, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (IsNull(slot.id) ||
        (slot.hash == hash && SameValue(values_[slot.id], value))) {
      return i;
    }
  }
}

void Dictionary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (IsNull(slot.id)) continue;
    size_t i = slot.hash & mask;
    while (!IsNull(slots_[i].id)) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

ValueId Dictionary::Intern(std::string_view value) {
  if (slots_.empty()) Grow();
  const uint32_t hash = HashValue(value);
  const size_t i = FindSlot(value, hash);
  if (!IsNull(slots_[i].id)) return slots_[i].id;
  const ValueId id = static_cast<ValueId>(values_.size());
  PCBL_CHECK(id != kNullValue) << "dictionary overflow";
  values_.emplace_back(value);
  slots_[i] = Slot{id, hash};
  if (values_.size() * 2 > slots_.size()) Grow();
  return id;
}

ValueId Dictionary::Lookup(std::string_view value) const {
  if (slots_.empty()) return kNullValue;
  return slots_[FindSlot(value, HashValue(value))].id;
}

const std::string& Dictionary::GetString(ValueId id) const {
  PCBL_CHECK(id < values_.size()) << "invalid dictionary id " << id;
  return values_[id];
}

int64_t Dictionary::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(values_.size() * sizeof(std::string) +
                                       slots_.size() * sizeof(Slot));
  for (const std::string& value : values_) {
    bytes += static_cast<int64_t>(value.size());
  }
  return bytes;
}

}  // namespace pcbl
