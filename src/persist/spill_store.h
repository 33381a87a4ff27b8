// SpillStore: warm-start persistence for the counting stack
// (docs/PERSISTENCE.md). A process restart — or a second process on the
// same host — repays full-table scans for state the previous process
// already computed: cached PC sets, interner dictionary deltas, appended
// rows, completed label artifacts. The spill store carries that state
// across process lifetimes as files in a cache directory, keyed by the
// 128-bit table content fingerprint and the on-disk format version.
//
// On-disk shape: every record is one file, `<envelope><payload>`.
// The fixed-size envelope is
//
//   u32  magic            "PCBS" (0x53424350 little-endian)
//   u16  format version   kFormatVersion
//   u16  record type      1 = warm state, 2 = label artifact
//   u64  fingerprint.lo   table content fingerprint
//   u64  fingerprint.hi
//   u64  payload size     bytes following the envelope
//   u64  payload checksum Checksum() over the payload bytes
//
// and every field is validated *before* any payload-sized allocation —
// the wire.cc discipline. The payload is record-type specific (see
// EncodeWarmState / EncodeLabelRecord); its internal lengths are each
// re-checked against the remaining bytes as decoding walks them. Any
// mismatch anywhere — wrong magic, foreign version, truncation, a
// flipped bit, an oversized declared length — makes the load return
// nothing and the caller fall back to a cold scan. A spill file can cost
// performance, never correctness.
//
// Crash consistency: writes go to a unique temp file in the same
// directory (payload fully written + fsync'd), then publish with one
// atomic rename, then fsync the directory. Readers therefore see either
// the old complete file or the new complete file, never a torn one —
// two processes sharing a spill directory race safely (last writer
// wins). Format evolution is by version bump: the version participates
// in the file name, so incompatible formats never even collide.
//
// Thread-safety: all methods are safe to call concurrently; the store's
// mutex only guards its counters and the temp-name sequence. It is a
// leaf lock — the store calls back into nothing.
#ifndef PCBL_PERSIST_SPILL_STORE_H_
#define PCBL_PERSIST_SPILL_STORE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "pattern/counting_service.h"
#include "pattern/service_registry.h"
#include "relation/table.h"

namespace pcbl {
namespace persist {

/// Tuning knobs of the spill store.
struct SpillStoreOptions {
  /// Cache directory (created on first use). Must be non-empty.
  std::string directory;

  /// Byte budget over all spill files in the directory. After every
  /// write the store deletes oldest-modified files until the total fits
  /// (the just-written file is kept). <= 0 means unbounded.
  int64_t budget_bytes = int64_t{1} << 30;
};

/// Observability counters (folded into ServiceRegistryStats and the CLI
/// `registry:` line). Monotonic; not part of the exactness contract.
struct SpillStoreStats {
  int64_t hits = 0;           ///< loads that validated and decoded
  int64_t misses = 0;         ///< loads with no spill file present
  int64_t rejects = 0;        ///< file present but refused (corrupt,
                              ///< foreign version, or diverged state
                              ///< where base-only was required)
  int64_t spills = 0;         ///< records written (warm states + labels)
  int64_t spilled_bytes = 0;  ///< bytes written by those records
  int64_t loaded_bytes = 0;   ///< bytes of validated records loaded
  int64_t trimmed_files = 0;  ///< files deleted by the byte budget
};

class SpillStore {
 public:
  static constexpr uint32_t kMagic = 0x53424350;  // "PCBS" little-endian
  static constexpr uint16_t kFormatVersion = 1;
  static constexpr uint16_t kWarmStateRecord = 1;
  static constexpr uint16_t kLabelRecord = 2;
  /// Envelope size: magic + version + type + fp.lo/hi + size + checksum.
  static constexpr int64_t kEnvelopeBytes = 4 + 2 + 2 + 8 + 8 + 8 + 8;

  explicit SpillStore(SpillStoreOptions options);

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  // --- pure byte codec (exposed for the format tests) ------------------

  /// Serializes a warm state under `fingerprint` (envelope + payload).
  /// `table` is the base table the state was exported over; its schema
  /// guards (attribute count, row count, per-attribute base domains)
  /// are embedded so the decoder can refuse a record that somehow got
  /// keyed under the wrong content.
  static std::string EncodeWarmState(const TableFingerprint& fingerprint,
                                     const Table& table,
                                     const ServiceWarmState& state);

  /// Validates and decodes a warm-state record. `table` is the base
  /// table the state would restore onto: the payload's schema guards
  /// (attribute count, base row count, per-attribute base domains) must
  /// match it exactly. Returns nothing on any mismatch. When
  /// `base_only` is set, a structurally valid record that carries
  /// appended rows or interner deltas is refused too (the registry's
  /// acquire path restores base-content services only).
  static std::optional<ServiceWarmState> DecodeWarmState(
      std::string_view bytes, const TableFingerprint& fingerprint,
      const Table& table, bool base_only);

  /// Serializes a completed label artifact (opaque `label_bytes`, e.g.
  /// PortableLabel::ToBinary output) under (fingerprint, query key).
  static std::string EncodeLabelRecord(const TableFingerprint& fingerprint,
                                       const QueryResultKey& key,
                                       std::string_view label_bytes);

  /// Validates a label record and returns the embedded label bytes.
  static std::optional<std::string> DecodeLabelRecord(
      std::string_view bytes, const TableFingerprint& fingerprint,
      const QueryResultKey& key);

  /// The payload checksum (seeded 64-bit chain over 8-byte strides —
  /// the fingerprint lanes' construction, one more lane).
  static uint64_t Checksum(std::string_view bytes);

  // --- file store ------------------------------------------------------

  /// Writes `state` as the warm-state record for `fingerprint`
  /// (atomic replace). False on I/O failure — never throws.
  bool PutWarmState(const TableFingerprint& fingerprint, const Table& table,
                    const ServiceWarmState& state);

  /// Loads and validates the warm-state record for `fingerprint`.
  /// Nothing on a missing file (a miss) or any validation failure (a
  /// reject); the caller proceeds cold either way.
  std::optional<ServiceWarmState> GetWarmState(
      const TableFingerprint& fingerprint, const Table& table,
      bool base_only);

  /// Writes a completed label artifact for (fingerprint, query key).
  bool PutLabelArtifact(const TableFingerprint& fingerprint,
                        const QueryResultKey& key,
                        std::string_view label_bytes);

  /// Loads a label artifact; nothing on miss or validation failure.
  std::optional<std::string> GetLabelArtifact(const TableFingerprint& fingerprint,
                                              const QueryResultKey& key);

  /// File paths (deterministic; exposed so tests can corrupt them).
  std::string WarmStatePath(const TableFingerprint& fingerprint) const;
  std::string LabelPath(const TableFingerprint& fingerprint,
                        const QueryResultKey& key) const;

  SpillStoreStats stats() const;
  const std::string& directory() const { return options_.directory; }

 private:
  // Reads a whole file; nothing if absent/unreadable. `missing` is set
  // when the path does not exist (miss vs reject attribution).
  static std::optional<std::string> ReadFile(const std::string& path,
                                             bool* missing);

  // Temp file + fsync + rename + directory fsync. False on any failure
  // (the temp file is unlinked).
  bool WriteAtomically(const std::string& path, std::string_view bytes);

  // Deletes oldest-modified spill files until the directory total fits
  // options_.budget_bytes; `keep` survives regardless.
  void TrimToBudget(const std::string& keep);

  mutable std::mutex mu_;
  SpillStoreOptions options_;
  SpillStoreStats stats_;
};

}  // namespace persist
}  // namespace pcbl

#endif  // PCBL_PERSIST_SPILL_STORE_H_
