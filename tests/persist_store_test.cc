// Format battery for the warm-start spill store (src/persist/,
// docs/PERSISTENCE.md):
//
//  * golden-bytes pinning — a handcrafted warm state and label record
//    encode to literal bytes checked hex-for-hex, and the pinned
//    literals decode back, so a v1 file written by any build of this
//    version stays readable by every later build (or the format bump is
//    a conscious kFormatVersion change);
//  * round-trips of every persisted structure, including a state
//    exported from a real appended-to service (interner deltas, delta
//    rows, pinned and unpinned cache entries);
//  * the hostile-file grid — truncation at every byte boundary, a
//    flipped bit at every position, wrong magic / version / record type
//    / fingerprint, oversized declared lengths with a *valid* checksum,
//    and semantically impossible values (out-of-domain keys, zero
//    counts, arity-1 masks, trailing bytes). Every load must return
//    nothing — the cold-fallback contract — and never crash or allocate
//    from an unvalidated length. CI runs this suite under ASan+UBSan.
#include "persist/spill_store.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "pattern/counter.h"
#include "pattern/counting_service.h"
#include "pattern/lattice.h"
#include "pattern/restriction_codec.h"
#include "pattern/service_registry.h"
#include "relation/table.h"
#include "tests/differential_harness.h"
#include "util/attr_mask.h"
#include "workload/datasets.h"

namespace pcbl {
namespace persist {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string FromHex(std::string_view hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> unsigned {
      return c <= '9' ? static_cast<unsigned>(c - '0')
                      : static_cast<unsigned>(c - 'a') + 10;
    };
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) |
                                    nibble(hex[i + 1])));
  }
  return out;
}

void PutU32(std::string* bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>(v >> (8 * i));
  }
}

void PutU64(std::string* bytes, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>(v >> (8 * i));
  }
}

// Envelope field offsets (see spill_store.h's format comment).
constexpr size_t kMagicOff = 0;
constexpr size_t kVersionOff = 4;
constexpr size_t kTypeOff = 6;
constexpr size_t kFpLoOff = 8;
constexpr size_t kSizeOff = 24;
constexpr size_t kChecksumOff = 32;
constexpr size_t kPayloadOff =
    static_cast<size_t>(SpillStore::kEnvelopeBytes);

// Recomputes the envelope's payload size and checksum over the (possibly
// patched or grown) payload, so a corruption lands with a *valid*
// envelope — the decoder's own validation has to catch it.
void Reseal(std::string* bytes) {
  const std::string_view payload(bytes->data() + kPayloadOff,
                                 bytes->size() - kPayloadOff);
  PutU64(bytes, kSizeOff, payload.size());
  PutU64(bytes, kChecksumOff, SpillStore::Checksum(payload));
}

// The handcrafted golden fixture: two attributes, two base rows, one
// interner delta, one appended row, one two-attribute cache entry that
// covers base and appended data. Small enough to pin byte-for-byte and
// to sweep every truncation length and bit position.
constexpr TableFingerprint kGoldenFp{0x0123456789abcdefULL,
                                     0xfedcba9876543210ULL};

Table TinyTable() {
  auto builder = TableBuilder::Create({"color", "shape"});
  PCBL_CHECK(builder.ok());
  PCBL_CHECK(builder->AddRow({"red", "circle"}).ok());
  PCBL_CHECK(builder->AddRow({"blue", "circle"}).ok());
  return builder->Build();
}

ServiceWarmState TinyState() {
  ServiceWarmState state;
  // "green" extends color's base dictionary {red, blue}: code 2.
  state.interner_deltas = {{"green"}, {}};
  state.appended_rows = {2, 0};  // one row: green circle
  auto counts = std::make_shared<GroupCounts>();
  GroupCountsAccess::mask(*counts) = AttrMask::FromIndices({0, 1});
  GroupCountsAccess::attrs(*counts) = {0, 1};
  GroupCountsAccess::keys(*counts) = {0, 0, 1, 0, 2, 0};
  GroupCountsAccess::counts(*counts) = {1, 1, 1};
  CountingEngine::CacheSnapshotEntry entry;
  entry.mask_bits = counts->mask().bits();
  entry.pinned = true;
  entry.counts = std::move(counts);
  state.entries.push_back(std::move(entry));
  return state;
}

std::string GoldenWarmRecord() {
  return SpillStore::EncodeWarmState(kGoldenFp, TinyTable(), TinyState());
}

// Payload offsets of the golden warm record, chained from the format
// definition so a format change breaks these loudly alongside the
// golden bytes.
constexpr size_t kNumAttrsOff = kPayloadOff;             // u32 = 2
constexpr size_t kBaseRowsOff = kNumAttrsOff + 4;        // u64 = 2
constexpr size_t kDom0Off = kBaseRowsOff + 8;            // u64 = 2
constexpr size_t kAdded0Off = kDom0Off + 8;              // u64 = 1
constexpr size_t kDelta0LenOff = kAdded0Off + 8;         // u32 = 5 "green"
constexpr size_t kDom1Off = kDelta0LenOff + 4 + 5;       // u64 = 1
constexpr size_t kAdded1Off = kDom1Off + 8;              // u64 = 0
constexpr size_t kRowCountOff = kAdded1Off + 8;          // u64 = 1
constexpr size_t kRowsOff = kRowCountOff + 8;            // 2 x u32
constexpr size_t kNumEntriesOff = kRowsOff + 2 * 4;      // u32 = 1
constexpr size_t kMaskOff = kNumEntriesOff + 4;          // u64 = 3
constexpr size_t kPinnedOff = kMaskOff + 8;              // u8 = 1
constexpr size_t kGroupsOff = kPinnedOff + 1;            // u64 = 3
constexpr size_t kKeysOff = kGroupsOff + 8;              // 6 x u32
constexpr size_t kCountsOff = kKeysOff + 6 * 4;          // 3 x i64
constexpr size_t kGoldenSize = kCountsOff + 3 * 8;

void ExpectSameState(const ServiceWarmState& got,
                     const ServiceWarmState& want,
                     const std::string& context) {
  EXPECT_EQ(got.interner_deltas, want.interner_deltas) << context;
  EXPECT_EQ(got.appended_rows, want.appended_rows) << context;
  ASSERT_EQ(got.entries.size(), want.entries.size()) << context;
  for (size_t i = 0; i < got.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].mask_bits, want.entries[i].mask_bits)
        << context << " entry " << i;
    EXPECT_EQ(got.entries[i].pinned, want.entries[i].pinned)
        << context << " entry " << i;
    ASSERT_NE(got.entries[i].counts, nullptr) << context << " entry " << i;
    ASSERT_NE(want.entries[i].counts, nullptr) << context << " entry " << i;
    testing::ExpectSameGroupCounts(*got.entries[i].counts,
                                   *want.entries[i].counts,
                                   context + " entry " +
                                       std::to_string(i));
  }
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pcbl_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- golden bytes -----------------------------------------------------------

// The v1 warm-state record of the golden fixture, hex, byte for byte.
// A mismatch means the on-disk format changed: readers of existing
// spill directories will silently reject every old file (safe, but all
// warmth is lost). If the change is intentional, bump
// SpillStore::kFormatVersion and repin.
constexpr char kWarmGoldenHex[] =
    "5043425301000100"                   // magic "PCBS", v1, warm record
    "efcdab8967452301" "1032547698badcfe"  // fingerprint lo, hi
    "8a00000000000000"                   // payload size 138
    "495f18c47f0ddc87"                   // payload checksum
    "02000000" "0200000000000000"        // 2 attrs, 2 base rows
    "0200000000000000" "0100000000000000"  // color: dom 2, 1 delta
    "05000000" "677265656e"              // "green"
    "0100000000000000" "0000000000000000"  // shape: dom 1, 0 deltas
    "0100000000000000" "02000000" "00000000"  // 1 appended row: 2, 0
    "01000000"                           // 1 cache entry
    "0300000000000000" "01"              // mask {0,1}, pinned
    "0300000000000000"                   // 3 groups
    "00000000" "00000000" "01000000" "00000000" "02000000" "00000000"
    "010000000000000001000000000000000100000000000000";  // counts 1,1,1

TEST(SpillFormatTest, WarmStateGoldenBytes) {
  const std::string bytes = GoldenWarmRecord();
  ASSERT_EQ(bytes.size(), kGoldenSize);
  EXPECT_EQ(Hex(bytes), kWarmGoldenHex)
      << "the v1 on-disk warm-state format changed; bump kFormatVersion "
         "and repin if intentional";
}

TEST(SpillFormatTest, PinnedGoldenBytesStillDecode) {
  // The other direction of the pin: the literal (i.e. a file written by
  // any build of v1) must keep decoding into the exact state.
  const std::string bytes = FromHex(kWarmGoldenHex);
  const std::optional<ServiceWarmState> state = SpillStore::DecodeWarmState(
      bytes, kGoldenFp, TinyTable(), /*base_only=*/false);
  ASSERT_TRUE(state.has_value());
  ExpectSameState(*state, TinyState(), "golden");
}

TEST(SpillFormatTest, LabelRecordGoldenBytes) {
  const QueryResultKey key{0x1111111111111111ULL, 0x2222222222222222ULL};
  const std::string bytes =
      SpillStore::EncodeLabelRecord(kGoldenFp, key, "label-bytes");
  EXPECT_EQ(Hex(bytes),
            "5043425301000200"                   // magic, v1, label record
            "efcdab8967452301" "1032547698badcfe"  // fingerprint lo, hi
            "1f00000000000000"                   // payload size 31
            "c33bebd4482019a6"                   // payload checksum
            "1111111111111111" "2222222222222222"  // query key lo, hi
            "0b000000" "6c6162656c2d6279746573")  // "label-bytes"
      << "the v1 label-record format changed; bump kFormatVersion and "
         "repin if intentional";
  const std::optional<std::string> label =
      SpillStore::DecodeLabelRecord(bytes, kGoldenFp, key);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(*label, "label-bytes");
}

// --- round-trips ------------------------------------------------------------

TEST(SpillFormatTest, EmptyWarmStateRoundTrips) {
  const Table table = TinyTable();
  ServiceWarmState empty;
  EXPECT_TRUE(empty.empty());
  const std::string bytes =
      SpillStore::EncodeWarmState(kGoldenFp, table, empty);
  const std::optional<ServiceWarmState> state = SpillStore::DecodeWarmState(
      bytes, kGoldenFp, table, /*base_only=*/true);
  ASSERT_TRUE(state.has_value());
  EXPECT_TRUE(state->empty());
}

TEST(SpillFormatTest, ServiceExportedStateRoundTrips) {
  // A state exported from a real service that absorbed string-level
  // appends with fresh values: interner deltas, delta rows, and a mix
  // of pinned and unpinned cache entries all survive the byte codec.
  const testing::DifferentialWorkload workload = testing::RandomWorkload(
      /*seed=*/17, /*attrs=*/4, /*base_rows=*/200, /*append_rows=*/30,
      /*domain=*/5, /*append_domain=*/8, /*null_percent=*/10);
  const testing::DifferentialHarness harness(workload);
  const Table& base = harness.base();
  auto service = std::make_shared<CountingService>(
      std::make_shared<const Table>(base));
  {
    std::lock_guard<std::mutex> lock(service->mutex());
    service->engine().PatternCounts(AttrMask::FromIndices({0, 1}));
    service->engine().PinnedPatternCounts(AttrMask::FromIndices({1, 2}));
    service->engine().PatternCounts(AttrMask::FromIndices({0, 2, 3}));
  }
  ASSERT_TRUE(service->AppendStrings(workload.append_rows).ok());

  const ServiceWarmState want = service->ExportWarmState();
  ASSERT_FALSE(want.empty());
  const TableFingerprint fp = FingerprintTable(base);
  const std::string bytes = SpillStore::EncodeWarmState(fp, base, want);
  const std::optional<ServiceWarmState> got = SpillStore::DecodeWarmState(
      bytes, fp, base, /*base_only=*/false);
  ASSERT_TRUE(got.has_value());
  ExpectSameState(*got, want, "service export");
}

// --- hostile files ----------------------------------------------------------

TEST(SpillHostileTest, TruncationAtEveryLengthRejects) {
  const Table table = TinyTable();
  const std::string bytes = GoldenWarmRecord();
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(SpillStore::DecodeWarmState(bytes.substr(0, len),
                                             kGoldenFp, table,
                                             /*base_only=*/false)
                     .has_value())
        << "truncated to " << len << " bytes";
  }
  const QueryResultKey key{7, 9};
  const std::string label =
      SpillStore::EncodeLabelRecord(kGoldenFp, key, "payload");
  for (size_t len = 0; len < label.size(); ++len) {
    EXPECT_FALSE(SpillStore::DecodeLabelRecord(label.substr(0, len),
                                               kGoldenFp, key)
                     .has_value())
        << "label truncated to " << len << " bytes";
  }
}

TEST(SpillHostileTest, EveryBitFlipRejects) {
  const Table table = TinyTable();
  const std::string bytes = GoldenWarmRecord();
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      EXPECT_FALSE(SpillStore::DecodeWarmState(flipped, kGoldenFp, table,
                                               /*base_only=*/false)
                       .has_value())
          << "bit " << bit << " of byte " << pos;
    }
  }
}

TEST(SpillHostileTest, WrongMagicVersionTypeOrFingerprintRejects) {
  const Table table = TinyTable();
  const std::string bytes = GoldenWarmRecord();
  {
    std::string wrong = bytes;
    PutU32(&wrong, kMagicOff, SpillStore::kMagic + 1);
    EXPECT_FALSE(SpillStore::DecodeWarmState(wrong, kGoldenFp, table, false)
                     .has_value());
  }
  {
    // A future format version never half-decodes through a v1 reader.
    std::string wrong = bytes;
    wrong[kVersionOff] =
        static_cast<char>(SpillStore::kFormatVersion + 1);
    EXPECT_FALSE(SpillStore::DecodeWarmState(wrong, kGoldenFp, table, false)
                     .has_value());
  }
  {
    // Record-type confusion: a warm state read as a label (and vice
    // versa) is refused by the type field, not by luck downstream.
    EXPECT_FALSE(
        SpillStore::DecodeLabelRecord(bytes, kGoldenFp, QueryResultKey{})
            .has_value());
    std::string wrong = bytes;
    wrong[kTypeOff] = static_cast<char>(SpillStore::kLabelRecord);
    EXPECT_FALSE(SpillStore::DecodeWarmState(wrong, kGoldenFp, table, false)
                     .has_value());
  }
  {
    std::string wrong = bytes;
    PutU64(&wrong, kFpLoOff, kGoldenFp.lo ^ 1);
    EXPECT_FALSE(SpillStore::DecodeWarmState(wrong, kGoldenFp, table, false)
                     .has_value());
  }
  // The right bytes under the wrong key: a record keyed for different
  // content never restores, even though it is internally valid.
  EXPECT_FALSE(SpillStore::DecodeWarmState(
                   bytes, TableFingerprint{1, 2}, table, false)
                   .has_value());
}

TEST(SpillHostileTest, OversizedDeclaredLengthsRejectBeforeAllocation) {
  // Every length field patched to an absurd value with the checksum
  // *resealed*: only the decoder's remaining-bytes validation stands
  // between the lie and a multi-gigabyte allocation. ASan would flag
  // the allocation; the assertion flags the acceptance.
  const Table table = TinyTable();
  const std::string bytes = GoldenWarmRecord();
  const struct {
    size_t offset;
    int width;
    const char* what;
  } kLies[] = {
      {kAdded0Off, 8, "interner delta count"},
      {kDelta0LenOff, 4, "delta string length"},
      {kRowCountOff, 8, "appended row count"},
      {kNumEntriesOff, 4, "cache entry count"},
      {kGroupsOff, 8, "group count"},
  };
  for (const auto& lie : kLies) {
    std::string evil = bytes;
    if (lie.width == 4) {
      PutU32(&evil, lie.offset, 0xffffffffu);
    } else {
      PutU64(&evil, lie.offset, uint64_t{1} << 60);
    }
    Reseal(&evil);
    EXPECT_FALSE(SpillStore::DecodeWarmState(evil, kGoldenFp, table, false)
                     .has_value())
        << "oversized " << lie.what << " was accepted";
  }
  // Same discipline on the label side.
  const QueryResultKey key{3, 4};
  std::string label = SpillStore::EncodeLabelRecord(kGoldenFp, key, "x");
  PutU32(&label, kPayloadOff + 16, 0xffffffffu);
  Reseal(&label);
  EXPECT_FALSE(SpillStore::DecodeLabelRecord(label, kGoldenFp, key)
                   .has_value());
}

TEST(SpillHostileTest, SemanticallyImpossibleValuesReject) {
  const Table table = TinyTable();
  const std::string bytes = GoldenWarmRecord();
  const auto rejects = [&](std::string evil, const char* what) {
    Reseal(&evil);
    EXPECT_FALSE(SpillStore::DecodeWarmState(evil, kGoldenFp, table, false)
                     .has_value())
        << what;
  };
  {
    // A cached key outside the attribute's effective domain would index
    // out of bounds the first time the engine patches the entry.
    std::string evil = bytes;
    PutU32(&evil, kKeysOff, 99);
    rejects(std::move(evil), "out-of-domain key code");
  }
  {
    std::string evil = bytes;
    PutU64(&evil, kCountsOff, 0);
    rejects(std::move(evil), "zero group count");
  }
  {
    // The cache never holds arity-0/1 subsets.
    std::string evil = bytes;
    PutU64(&evil, kMaskOff, 1);
    rejects(std::move(evil), "arity-1 mask");
  }
  {
    // Mask bits beyond the schema's attribute count.
    std::string evil = bytes;
    PutU64(&evil, kMaskOff, 0b111);
    rejects(std::move(evil), "mask beyond schema");
  }
  {
    // An appended code that skips over the next mintable code cannot
    // have come from a genuine export.
    std::string evil = bytes;
    PutU32(&evil, kRowsOff, 7);
    rejects(std::move(evil), "domain-skipping appended code");
  }
  {
    // Trailing bytes after a structurally complete payload (resealed,
    // so only the remaining()==0 check can catch the padding).
    std::string evil = bytes + std::string(3, '\0');
    rejects(std::move(evil), "trailing bytes");
  }
  {
    // Schema mismatch: the record is valid but describes another table.
    const Table other = workload::MakeCompas(50, 3).value();
    EXPECT_FALSE(SpillStore::DecodeWarmState(bytes, kGoldenFp, other, false)
                     .has_value());
  }
}

TEST(SpillHostileTest, InconsistentCachedParentsNeverMislead) {
  // Cached pairs that cannot describe the rows — a NULL key cell in a
  // NULL-free subset, a missing group, groups out of canonical order, a
  // duplicated key. The decoder refuses such a record (see
  // InconsistentPcSetsReject), but the engine must not trust a cached
  // PC set where it indexes by it either: restored straight into a
  // service, a budgeted child of such a pair is sized by sibling
  // refinement from the pair's groups, which has to detect the mismatch
  // and scan directly. With three values per attribute every triple
  // completes within budget 60, so the scan reaches the rows of the
  // missing group. Every child size must equal the one-shot counter,
  // and a search over the restored service must run (under ASan:
  // without a stray write).
  const testing::DifferentialWorkload workload = testing::RandomWorkload(
      /*seed=*/41, /*attrs=*/5, /*base_rows=*/400, /*append_rows=*/0,
      /*domain=*/3, /*append_domain=*/3, /*null_percent=*/0);
  const testing::DifferentialHarness harness(workload);
  auto table = std::make_shared<const Table>(harness.base());
  auto exporter = std::make_shared<CountingService>(table);
  {
    std::lock_guard<std::mutex> lock(exporter->mutex());
    ForEachSubsetOfSize(table->num_attributes(), 2, [&](AttrMask mask) {
      exporter->engine().PatternCounts(mask);
    });
  }
  ServiceWarmState state = exporter->ExportWarmState();
  int corrupted = 0;
  for (CountingEngine::CacheSnapshotEntry& entry : state.entries) {
    auto counts = std::make_shared<GroupCounts>(*entry.counts);
    std::vector<ValueId>& keys = GroupCountsAccess::keys(*counts);
    std::vector<int64_t>& group_counts = GroupCountsAccess::counts(*counts);
    ASSERT_GE(group_counts.size(), 3u);
    const size_t width = counts->attrs().size();
    if (entry.mask_bits == AttrMask::FromIndices({0, 1}).bits()) {
      keys[width] = kNullValue;  // second group's first cell
    } else if (entry.mask_bits == AttrMask::FromIndices({0, 2}).bits()) {
      keys.resize(keys.size() - width);
      group_counts.pop_back();
    } else if (entry.mask_bits == AttrMask::FromIndices({1, 2}).bits()) {
      std::swap_ranges(keys.begin(), keys.begin() + width,
                       keys.begin() + width);
    } else if (entry.mask_bits == AttrMask::FromIndices({2, 3}).bits()) {
      std::copy(keys.begin(), keys.begin() + width, keys.begin() + width);
    } else {
      continue;
    }
    entry.counts = std::move(counts);
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 4);

  const TableFingerprint fp = FingerprintTable(*table);
  EXPECT_FALSE(SpillStore::DecodeWarmState(
                   SpillStore::EncodeWarmState(fp, *table, state), fp, *table,
                   /*base_only=*/true)
                   .has_value());
  auto restored = std::make_shared<CountingService>(table);
  restored->RestoreWarmState(state);
  {
    std::lock_guard<std::mutex> lock(restored->mutex());
    CountingEngine& engine = restored->engine();
    std::vector<AttrMask> triples;
    ForEachSubsetOfSize(table->num_attributes(), 3,
                        [&](AttrMask mask) { triples.push_back(mask); });
    for (const int64_t budget : {int64_t{2}, int64_t{60}}) {
      std::vector<std::shared_ptr<const GroupCounts>> counts;
      const std::vector<int64_t> sizes =
          engine.CountPatternsBatchCollect(triples, budget, &counts);
      for (size_t i = 0; i < triples.size(); ++i) {
        const std::string ctx =
            triples[i].ToString() + " budget " + std::to_string(budget);
        EXPECT_EQ(sizes[i], CountDistinctPatterns(*table, triples[i], budget))
            << ctx;
        if (counts[i] != nullptr) {
          testing::ExpectSameGroupCounts(
              *counts[i], ComputePatternCounts(*table, triples[i]), ctx);
        }
      }
    }
  }
  SearchOptions options;
  options.size_bound = 60;
  LabelSearch search(*table, restored);
  EXPECT_GT(search.TopDown(options).best_attrs.Count(), 0);
}

TEST(SpillHostileTest, InconsistentPcSetsReject) {
  // Resealed records whose every cell and count is in range, but whose
  // cached PC set cannot count the rows the record describes (2 base
  // rows plus 1 appended, all NULL-free): the load must refuse the file
  // and count a reject.
  SpillStoreOptions options;
  options.directory = FreshDir("store_inconsistent");
  SpillStore store(options);
  const Table table = TinyTable();
  ASSERT_TRUE(store.PutWarmState(kGoldenFp, table, TinyState()));
  const std::string bytes = GoldenWarmRecord();
  const auto loads = [&](std::string record) {
    Reseal(&record);
    FILE* f = std::fopen(store.WarmStatePath(kGoldenFp).c_str(), "wb");
    PCBL_CHECK(f != nullptr);
    std::fwrite(record.data(), 1, record.size(), f);
    std::fclose(f);
    return store.GetWarmState(kGoldenFp, table, false).has_value();
  };
  int64_t rejects = 0;
  const auto rejects_with_count = [&](std::string record, const char* what) {
    EXPECT_FALSE(loads(std::move(record))) << what;
    EXPECT_EQ(store.stats().rejects, ++rejects) << what;
  };
  ASSERT_TRUE(loads(bytes));
  {
    std::string evil = bytes;  // keys (1,0) (0,0) (2,0)
    PutU32(&evil, kKeysOff, 1);
    PutU32(&evil, kKeysOff + 8, 0);
    rejects_with_count(std::move(evil), "keys out of canonical order");
  }
  {
    std::string evil = bytes;  // keys (0,0) (0,0) (2,0)
    PutU32(&evil, kKeysOff + 8, 0);
    rejects_with_count(std::move(evil), "repeated key");
  }
  {
    std::string evil = bytes;  // keys (0,0) (1,0) (2,NULL)
    PutU32(&evil, kKeysOff + 20, kNullValue);
    rejects_with_count(std::move(evil), "NULL cell in a NULL-free subset");
  }
  {
    // The last group dropped: two groups counting 2 of the 3 rows.
    std::string evil = bytes.substr(0, kKeysOff + 16) +
                       bytes.substr(kCountsOff, 16);
    PutU64(&evil, kGroupsOff, 2);
    rejects_with_count(std::move(evil), "NULL-free subset short of rows");
  }
  {
    std::string evil = bytes;
    PutU64(&evil, kCountsOff + 8, 2);
    rejects_with_count(std::move(evil), "NULL-free subset over its rows");
  }
  // With the appended row's shape NULL the subset is nullable: a NULL
  // cell and a count sum below the row total are then genuine, a sum
  // above it is not.
  std::string nullable = bytes;
  PutU32(&nullable, kRowsOff + 4, kNullValue);
  {
    std::string record = nullable;  // keys (0,0) (1,0) (2,NULL)
    PutU32(&record, kKeysOff + 20, kNullValue);
    EXPECT_TRUE(loads(std::move(record))) << "NULL cell, nullable subset";
  }
  {
    std::string evil = nullable;
    PutU64(&evil, kCountsOff, 2);
    rejects_with_count(std::move(evil), "nullable subset over its rows");
  }
  {
    std::string evil = nullable;
    PutU64(&evil, kCountsOff + 16, std::numeric_limits<int64_t>::max());
    rejects_with_count(std::move(evil), "count past every row total");
  }
  EXPECT_EQ(store.stats().rejects, 7);
}

TEST(SpillHostileTest, BaseOnlyRefusesDivergedRecords) {
  // The registry's acquire path restores base-content services only: a
  // structurally valid record carrying appended rows or interner deltas
  // must be refused there, while the full restore path accepts it.
  const Table table = TinyTable();
  const std::string bytes = GoldenWarmRecord();
  EXPECT_TRUE(SpillStore::DecodeWarmState(bytes, kGoldenFp, table,
                                          /*base_only=*/false)
                  .has_value());
  EXPECT_FALSE(SpillStore::DecodeWarmState(bytes, kGoldenFp, table,
                                           /*base_only=*/true)
                   .has_value());
  // Deltas alone (no rows) are already divergence.
  ServiceWarmState deltas_only;
  deltas_only.interner_deltas = {{"green"}, {}};
  const std::string delta_bytes =
      SpillStore::EncodeWarmState(kGoldenFp, table, deltas_only);
  EXPECT_FALSE(SpillStore::DecodeWarmState(delta_bytes, kGoldenFp, table,
                                           /*base_only=*/true)
                   .has_value());
}

// --- the file store ---------------------------------------------------------

TEST(SpillStoreTest, WarmStateRoundTripsThroughFiles) {
  SpillStoreOptions options;
  options.directory = FreshDir("store_roundtrip");
  SpillStore store(options);
  const Table table = TinyTable();

  // Cold directory: a miss, not a reject.
  EXPECT_FALSE(store.GetWarmState(kGoldenFp, table, false).has_value());
  EXPECT_EQ(store.stats().misses, 1);

  ASSERT_TRUE(store.PutWarmState(kGoldenFp, table, TinyState()));
  EXPECT_EQ(store.stats().spills, 1);
  EXPECT_GT(store.stats().spilled_bytes, 0);

  const std::optional<ServiceWarmState> state =
      store.GetWarmState(kGoldenFp, table, false);
  ASSERT_TRUE(state.has_value());
  ExpectSameState(*state, TinyState(), "file round trip");
  EXPECT_EQ(store.stats().hits, 1);
  EXPECT_EQ(store.stats().loaded_bytes, store.stats().spilled_bytes);

  // No temp file ever stays visible next to the published record.
  for (const auto& it :
       std::filesystem::directory_iterator(options.directory)) {
    EXPECT_EQ(it.path().extension(), ".pcbls") << it.path();
  }
}

TEST(SpillStoreTest, LabelArtifactRoundTripsThroughFiles) {
  SpillStoreOptions options;
  options.directory = FreshDir("store_label");
  SpillStore store(options);
  const QueryResultKey key{42, 43};
  EXPECT_FALSE(store.GetLabelArtifact(kGoldenFp, key).has_value());
  ASSERT_TRUE(store.PutLabelArtifact(kGoldenFp, key, "portable-label"));
  const std::optional<std::string> label =
      store.GetLabelArtifact(kGoldenFp, key);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(*label, "portable-label");
  // A different query key over the same content is its own record.
  EXPECT_FALSE(
      store.GetLabelArtifact(kGoldenFp, QueryResultKey{42, 44}).has_value());
}

TEST(SpillStoreTest, CorruptFileOnDiskFallsBackCold) {
  SpillStoreOptions options;
  options.directory = FreshDir("store_corrupt");
  SpillStore store(options);
  const Table table = TinyTable();
  ASSERT_TRUE(store.PutWarmState(kGoldenFp, table, TinyState()));

  // Overwrite the published record with garbage of plausible size.
  {
    std::string garbage(200, '\x5a');
    std::filesystem::path path = store.WarmStatePath(kGoldenFp);
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(garbage.data(), 1, garbage.size(), f);
    std::fclose(f);
  }
  EXPECT_FALSE(store.GetWarmState(kGoldenFp, table, false).has_value());
  EXPECT_EQ(store.stats().rejects, 1);
  EXPECT_EQ(store.stats().hits, 0);

  // A rewrite repairs the slot (atomic replace, last writer wins).
  ASSERT_TRUE(store.PutWarmState(kGoldenFp, table, TinyState()));
  EXPECT_TRUE(store.GetWarmState(kGoldenFp, table, false).has_value());
}

TEST(SpillStoreTest, OverwriteIsAtomicLastWriterWins) {
  SpillStoreOptions options;
  options.directory = FreshDir("store_overwrite");
  SpillStore store(options);
  const Table table = TinyTable();
  ASSERT_TRUE(store.PutWarmState(kGoldenFp, table, ServiceWarmState{}));
  ASSERT_TRUE(store.PutWarmState(kGoldenFp, table, TinyState()));
  const std::optional<ServiceWarmState> state =
      store.GetWarmState(kGoldenFp, table, false);
  ASSERT_TRUE(state.has_value());
  ExpectSameState(*state, TinyState(), "last writer");
}

TEST(SpillStoreTest, ByteBudgetTrimsOldestFiles) {
  SpillStoreOptions options;
  options.directory = FreshDir("store_budget");
  SpillStore store(options);
  const QueryResultKey old_key{1, 0};
  const std::string blob(512, 'x');
  ASSERT_TRUE(store.PutLabelArtifact(kGoldenFp, old_key, blob));
  // Age the first record well past any filesystem timestamp granularity.
  std::filesystem::last_write_time(
      store.LabelPath(kGoldenFp, old_key),
      std::filesystem::file_time_type::clock::now() -
          std::chrono::hours(1));

  // Shrink the budget to roughly one record and write two more: each
  // write trims oldest-first, so the aged record goes and the newest
  // always survives (TrimToBudget never deletes the file just written).
  // Mutating options after construction is not part of the API, so use
  // a second store over the same directory with the small budget.
  SpillStoreOptions tight = options;
  tight.budget_bytes = 700;
  SpillStore enforcer(tight);
  ASSERT_TRUE(enforcer.PutLabelArtifact(kGoldenFp, QueryResultKey{2, 0},
                                        blob));
  ASSERT_TRUE(enforcer.PutLabelArtifact(kGoldenFp, QueryResultKey{3, 0},
                                        blob));
  EXPECT_GE(enforcer.stats().trimmed_files, 1);
  EXPECT_FALSE(enforcer.GetLabelArtifact(kGoldenFp, old_key).has_value());
  EXPECT_TRUE(
      enforcer.GetLabelArtifact(kGoldenFp, QueryResultKey{3, 0}).has_value());
}

}  // namespace
}  // namespace persist
}  // namespace pcbl
