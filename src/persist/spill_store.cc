#include "persist/spill_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <system_error>
#include <utility>
#include <vector>

#include "pattern/restriction_codec.h"
#include "util/attr_mask.h"
#include "util/hash.h"
#include "util/str.h"

namespace pcbl {
namespace persist {

namespace {

// Little-endian byte writer for the spill format. Kept local: the wire
// protocol's Writer (server/wire.h) lives above the pattern layer, and
// the two formats must be free to evolve independently.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v));
    U8(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v));
    U16(static_cast<uint16_t>(v >> 16));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Sticky-error reader: every accessor validates the remaining length
// *before* touching bytes, and any failure latches — the wire.cc
// hostile-input discipline. Length-prefixed data is additionally checked
// against the remaining bytes before any allocation sized by it.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  bool ok() const { return ok_; }
  uint64_t remaining() const {
    return ok_ ? static_cast<uint64_t>(data_.size() - pos_) : 0;
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint16_t U16() {
    const uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(U8()) << 8));
  }
  uint32_t U32() {
    const uint32_t lo = U16();
    return lo | (static_cast<uint32_t>(U16()) << 16);
  }
  uint64_t U64() {
    const uint64_t lo = U32();
    return lo | (static_cast<uint64_t>(U32()) << 32);
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  // Length-prefixed string; the declared length is validated against the
  // remaining bytes before the allocation.
  bool Str(std::string* out) {
    const uint32_t n = U32();
    if (!Need(n)) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  // Declares intent to read `count` items of `item_bytes` each; fails
  // (sticky) unless that many bytes remain. Overflow-safe.
  bool Fits(uint64_t count, uint64_t item_bytes) {
    if (!ok_) return false;
    if (item_bytes != 0 && count > remaining() / item_bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

 private:
  bool Need(uint64_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void AppendEnvelope(ByteWriter* out, uint16_t record_type,
                    const TableFingerprint& fingerprint,
                    std::string_view payload) {
  out->U32(SpillStore::kMagic);
  out->U16(SpillStore::kFormatVersion);
  out->U16(record_type);
  out->U64(fingerprint.lo);
  out->U64(fingerprint.hi);
  out->U64(payload.size());
  out->U64(SpillStore::Checksum(payload));
}

// Validates the envelope of `bytes` against (record_type, fingerprint)
// and the payload checksum; returns the payload view or nothing. No
// allocation happens here or below on a record that fails any check.
std::optional<std::string_view> CheckEnvelope(
    std::string_view bytes, uint16_t record_type,
    const TableFingerprint& fingerprint) {
  if (bytes.size() < static_cast<size_t>(SpillStore::kEnvelopeBytes)) {
    return std::nullopt;
  }
  ByteReader reader(bytes.substr(
      0, static_cast<size_t>(SpillStore::kEnvelopeBytes)));
  if (reader.U32() != SpillStore::kMagic) return std::nullopt;
  if (reader.U16() != SpillStore::kFormatVersion) return std::nullopt;
  if (reader.U16() != record_type) return std::nullopt;
  if (reader.U64() != fingerprint.lo) return std::nullopt;
  if (reader.U64() != fingerprint.hi) return std::nullopt;
  const uint64_t payload_size = reader.U64();
  const uint64_t checksum = reader.U64();
  if (!reader.ok()) return std::nullopt;
  const std::string_view payload =
      bytes.substr(static_cast<size_t>(SpillStore::kEnvelopeBytes));
  if (payload_size != payload.size()) return std::nullopt;
  if (checksum != SpillStore::Checksum(payload)) return std::nullopt;
  return payload;
}

std::string HexKey(uint64_t lo, uint64_t hi) {
  char buf[34];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
  return std::string(buf);
}

bool IsSpillFile(const std::filesystem::path& path) {
  return path.extension() == ".pcbls";
}

}  // namespace

SpillStore::SpillStore(SpillStoreOptions options)
    : options_(std::move(options)) {
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  // A failure here surfaces naturally as write failures / load misses.
}

uint64_t SpillStore::Checksum(std::string_view bytes) {
  // Seeded 64-bit chain over 8-byte little-endian strides, tail padded
  // with zeros, length mixed last — the table-fingerprint construction
  // with its own lane seed, so a spill checksum never aliases a
  // fingerprint lane.
  uint64_t h = 0x082efa98ec4e6c89ULL;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = HashCombine(h, word);
  }
  if (i < bytes.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    h = HashCombine(h, tail);
  }
  return HashCombine(h, bytes.size());
}

// --- warm-state codec -------------------------------------------------------

std::string SpillStore::EncodeWarmState(const TableFingerprint& fingerprint,
                                        const Table& table,
                                        const ServiceWarmState& state) {
  ByteWriter payload;
  const int n = table.num_attributes();
  payload.U32(static_cast<uint32_t>(n));
  payload.U64(static_cast<uint64_t>(table.num_rows()));
  for (int a = 0; a < n; ++a) {
    payload.U64(static_cast<uint64_t>(table.DomainSize(a)));
    const size_t ai = static_cast<size_t>(a);
    const std::vector<std::string>* log =
        ai < state.interner_deltas.size() ? &state.interner_deltas[ai]
                                          : nullptr;
    payload.U64(log != nullptr ? log->size() : 0);
    if (log != nullptr) {
      for (const std::string& value : *log) payload.Str(value);
    }
  }
  const uint64_t row_count =
      n > 0 ? state.appended_rows.size() / static_cast<size_t>(n) : 0;
  payload.U64(row_count);
  for (uint64_t i = 0; i < row_count * static_cast<uint64_t>(n); ++i) {
    payload.U32(state.appended_rows[static_cast<size_t>(i)]);
  }
  payload.U32(static_cast<uint32_t>(state.entries.size()));
  for (const CountingEngine::CacheSnapshotEntry& entry : state.entries) {
    payload.U64(entry.mask_bits);
    payload.U8(entry.pinned ? 1 : 0);
    const GroupCounts& counts = *entry.counts;
    const int64_t groups = counts.num_groups();
    const int width = counts.key_width();
    payload.U64(static_cast<uint64_t>(groups));
    for (int64_t g = 0; g < groups; ++g) {
      const ValueId* key = counts.key(g);
      for (int j = 0; j < width; ++j) payload.U32(key[j]);
    }
    for (int64_t g = 0; g < groups; ++g) payload.I64(counts.count(g));
  }

  const std::string body = payload.Take();
  ByteWriter record;
  AppendEnvelope(&record, kWarmStateRecord, fingerprint, body);
  std::string out = record.Take();
  out += body;
  return out;
}

std::optional<ServiceWarmState> SpillStore::DecodeWarmState(
    std::string_view bytes, const TableFingerprint& fingerprint,
    const Table& table, bool base_only) {
  const std::optional<std::string_view> payload =
      CheckEnvelope(bytes, kWarmStateRecord, fingerprint);
  if (!payload.has_value()) return std::nullopt;
  ByteReader reader(*payload);

  const int n = table.num_attributes();
  if (reader.U32() != static_cast<uint32_t>(n)) return std::nullopt;
  if (reader.U64() != static_cast<uint64_t>(table.num_rows())) {
    return std::nullopt;
  }

  ServiceWarmState state;
  state.interner_deltas.resize(static_cast<size_t>(n));
  // Effective per-attribute domains, grown below exactly as the engine
  // would grow them — the bound every cached key must respect.
  std::vector<uint64_t> eff_dom(static_cast<size_t>(n));
  uint64_t total_deltas = 0;
  for (int a = 0; a < n; ++a) {
    if (reader.U64() != static_cast<uint64_t>(table.DomainSize(a))) {
      return std::nullopt;
    }
    const uint64_t added = reader.U64();
    // Each logged value costs at least its 4-byte length prefix.
    if (!reader.Fits(added, 4)) return std::nullopt;
    std::vector<std::string>& log =
        state.interner_deltas[static_cast<size_t>(a)];
    log.resize(static_cast<size_t>(added));
    for (uint64_t i = 0; i < added; ++i) {
      if (!reader.Str(&log[static_cast<size_t>(i)])) return std::nullopt;
    }
    total_deltas += added;
    eff_dom[static_cast<size_t>(a)] =
        static_cast<uint64_t>(table.DomainSize(a)) + added;
  }

  const uint64_t row_count = reader.U64();
  if (!reader.Fits(row_count, static_cast<uint64_t>(n) * 4)) {
    return std::nullopt;
  }
  if (row_count > 0 && n > 0) {
    state.appended_rows.resize(
        static_cast<size_t>(row_count) * static_cast<size_t>(n));
    for (ValueId& code : state.appended_rows) code = reader.U32();
    if (!reader.ok()) return std::nullopt;
    // Codes extend the base code space the way TableBuilder would:
    // beyond base domain + interner deltas, each appended row can mint
    // at most one fresh code per attribute. Anything larger cannot have
    // come from a genuine export over this table.
    for (uint64_t r = 0; r < row_count; ++r) {
      for (int a = 0; a < n; ++a) {
        const ValueId code =
            state.appended_rows[static_cast<size_t>(r) * n + a];
        if (code == kNullValue) continue;
        uint64_t& dom = eff_dom[static_cast<size_t>(a)];
        if (code > dom) return std::nullopt;
        if (code == dom) ++dom;
      }
    }
  }
  if (base_only && (row_count > 0 || total_deltas > 0)) return std::nullopt;

  // Every cached PC set counts these rows: base plus appended (a count
  // the payload size bounds only when n > 0). An attribute NULL in none
  // of them makes every subset of such attributes NULL-free, and the PC
  // set of a NULL-free subset has no NULL cell and counts every row.
  const int64_t base_rows = table.num_rows();
  if (row_count > static_cast<uint64_t>(
                      std::numeric_limits<int64_t>::max() - base_rows)) {
    return std::nullopt;
  }
  const int64_t total_rows = base_rows + static_cast<int64_t>(row_count);
  std::vector<bool> has_null(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    has_null[static_cast<size_t>(a)] = table.HasNulls(a);
  }
  for (size_t i = 0; i < state.appended_rows.size(); ++i) {
    if (state.appended_rows[i] == kNullValue) {
      has_null[i % static_cast<size_t>(n)] = true;
    }
  }

  const uint32_t num_entries = reader.U32();
  // Each entry costs at least mask + pinned + group count.
  if (!reader.Fits(num_entries, 8 + 1 + 8)) return std::nullopt;
  state.entries.reserve(num_entries);
  for (uint32_t e = 0; e < num_entries; ++e) {
    CountingEngine::CacheSnapshotEntry entry;
    entry.mask_bits = reader.U64();
    entry.pinned = reader.U8() != 0;
    if (!reader.ok()) return std::nullopt;
    const AttrMask mask(entry.mask_bits);
    // The cache only ever holds arity >= 2 subsets of the schema.
    if (mask.Count() < 2) return std::nullopt;
    if (n < static_cast<int>(kMaxAttributes) &&
        (entry.mask_bits >> n) != 0) {
      return std::nullopt;
    }
    const std::vector<int> attrs = mask.ToIndices();
    const uint64_t width = attrs.size();
    const uint64_t groups = reader.U64();
    if (!reader.Fits(groups, width * 4 + 8)) return std::nullopt;

    auto counts = std::make_shared<GroupCounts>();
    GroupCountsAccess::mask(*counts) = mask;
    GroupCountsAccess::attrs(*counts) = attrs;
    std::vector<ValueId>& keys = GroupCountsAccess::keys(*counts);
    std::vector<int64_t>& group_counts = GroupCountsAccess::counts(*counts);
    keys.resize(static_cast<size_t>(groups * width));
    for (size_t i = 0; i < keys.size(); ++i) {
      const ValueId code = reader.U32();
      // A key cell is either kNullValue (an unbound/NULL position of a
      // restriction) or a code inside the attribute's effective domain.
      const int attr = attrs[i % static_cast<size_t>(width)];
      if (code != kNullValue &&
          code >= eff_dom[static_cast<size_t>(attr)]) {
        return std::nullopt;
      }
      keys[i] = code;
    }
    group_counts.resize(static_cast<size_t>(groups));
    int64_t counted = 0;
    for (int64_t& c : group_counts) {
      c = reader.I64();
      // Every materialized group counts at least one row; zero or
      // negative can only be corruption. No PC set counts more rows than
      // there are.
      if (c <= 0 || c > total_rows - counted) return std::nullopt;
      counted += c;
    }
    if (!reader.ok()) return std::nullopt;
    // Keys strictly ascending in canonical order (lexicographic over
    // ValueIds, so kNullValue sorts last); this also rules out a
    // repeated key.
    for (size_t g = 1; g < groups; ++g) {
      const ValueId* prev = keys.data() + (g - 1) * width;
      const ValueId* key = prev + width;
      if (!std::lexicographical_compare(prev, key, key, key + width)) {
        return std::nullopt;
      }
    }
    const bool null_free = std::none_of(
        attrs.begin(), attrs.end(),
        [&](int a) { return has_null[static_cast<size_t>(a)]; });
    if (null_free &&
        (counted != total_rows ||
         std::find(keys.begin(), keys.end(), kNullValue) != keys.end())) {
      return std::nullopt;
    }
    entry.counts = std::move(counts);
    state.entries.push_back(std::move(entry));
  }
  if (reader.remaining() != 0) return std::nullopt;
  return state;
}

// --- label-artifact codec ---------------------------------------------------

std::string SpillStore::EncodeLabelRecord(const TableFingerprint& fingerprint,
                                          const QueryResultKey& key,
                                          std::string_view label_bytes) {
  ByteWriter payload;
  payload.U64(key.lo);
  payload.U64(key.hi);
  payload.Str(label_bytes);
  const std::string body = payload.Take();
  ByteWriter record;
  AppendEnvelope(&record, kLabelRecord, fingerprint, body);
  std::string out = record.Take();
  out += body;
  return out;
}

std::optional<std::string> SpillStore::DecodeLabelRecord(
    std::string_view bytes, const TableFingerprint& fingerprint,
    const QueryResultKey& key) {
  const std::optional<std::string_view> payload =
      CheckEnvelope(bytes, kLabelRecord, fingerprint);
  if (!payload.has_value()) return std::nullopt;
  ByteReader reader(*payload);
  if (reader.U64() != key.lo) return std::nullopt;
  if (reader.U64() != key.hi) return std::nullopt;
  std::string label;
  if (!reader.Str(&label)) return std::nullopt;
  if (reader.remaining() != 0) return std::nullopt;
  return label;
}

// --- file store -------------------------------------------------------------

std::string SpillStore::WarmStatePath(
    const TableFingerprint& fingerprint) const {
  return StrCat(options_.directory, "/", HexKey(fingerprint.lo,
                fingerprint.hi), "-v",
                static_cast<int64_t>(kFormatVersion), ".warm.pcbls");
}

std::string SpillStore::LabelPath(const TableFingerprint& fingerprint,
                                  const QueryResultKey& key) const {
  return StrCat(options_.directory, "/",
                HexKey(fingerprint.lo, fingerprint.hi), "-",
                HexKey(key.lo, key.hi), "-v",
                static_cast<int64_t>(kFormatVersion), ".label.pcbls");
}

std::optional<std::string> SpillStore::ReadFile(const std::string& path,
                                                bool* missing) {
  *missing = false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    *missing = (errno == ENOENT);
    return std::nullopt;
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

bool SpillStore::WriteAtomically(const std::string& path,
                                 std::string_view bytes) {
  // Process-wide, not per store: two stores over one directory in one
  // process (two registries) must never write the same temp file.
  static std::atomic<uint64_t> temp_sequence{0};
  const uint64_t sequence =
      temp_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string temp =
      StrCat(path, ".tmp.", static_cast<int64_t>(::getpid()), ".",
             static_cast<int64_t>(sequence));
  const int fd = ::open(temp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(temp.c_str());
      return false;
    }
    written += static_cast<size_t>(n);
  }
  // The data must be durable before the rename publishes it: a crash
  // between rename and flush must never expose a published-but-empty
  // file (the checksum would catch it, but the previous complete record
  // would be lost for nothing).
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(temp.c_str());
    return false;
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return false;
  }
  // Make the rename itself durable.
  const int dir_fd =
      ::open(options_.directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

void SpillStore::TrimToBudget(const std::string& keep) {
  if (options_.budget_bytes <= 0) return;
  struct File {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    int64_t bytes = 0;
  };
  std::vector<File> files;
  int64_t total = 0;
  std::error_code ec;
  for (const auto& it :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    if (!it.is_regular_file(ec) || !IsSpillFile(it.path())) continue;
    File file;
    file.path = it.path();
    file.mtime = it.last_write_time(ec);
    file.bytes = static_cast<int64_t>(it.file_size(ec));
    total += file.bytes;
    files.push_back(std::move(file));
  }
  if (total <= options_.budget_bytes) return;
  std::sort(files.begin(), files.end(), [](const File& a, const File& b) {
    return a.mtime < b.mtime || (a.mtime == b.mtime && a.path < b.path);
  });
  int64_t trimmed = 0;
  for (const File& file : files) {
    if (total <= options_.budget_bytes) break;
    if (file.path == keep) continue;
    if (std::filesystem::remove(file.path, ec)) {
      total -= file.bytes;
      ++trimmed;
    }
  }
  if (trimmed > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.trimmed_files += trimmed;
  }
}

bool SpillStore::PutWarmState(const TableFingerprint& fingerprint,
                              const Table& table,
                              const ServiceWarmState& state) {
  const std::string bytes = EncodeWarmState(fingerprint, table, state);
  const std::string path = WarmStatePath(fingerprint);
  if (!WriteAtomically(path, bytes)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.spills;
    stats_.spilled_bytes += static_cast<int64_t>(bytes.size());
  }
  TrimToBudget(path);
  return true;
}

std::optional<ServiceWarmState> SpillStore::GetWarmState(
    const TableFingerprint& fingerprint, const Table& table,
    bool base_only) {
  bool missing = false;
  const std::optional<std::string> bytes =
      ReadFile(WarmStatePath(fingerprint), &missing);
  std::lock_guard<std::mutex> lock(mu_);
  if (!bytes.has_value()) {
    ++(missing ? stats_.misses : stats_.rejects);
    return std::nullopt;
  }
  std::optional<ServiceWarmState> state =
      DecodeWarmState(*bytes, fingerprint, table, base_only);
  if (!state.has_value()) {
    ++stats_.rejects;
    return std::nullopt;
  }
  ++stats_.hits;
  stats_.loaded_bytes += static_cast<int64_t>(bytes->size());
  return state;
}

bool SpillStore::PutLabelArtifact(const TableFingerprint& fingerprint,
                                  const QueryResultKey& key,
                                  std::string_view label_bytes) {
  const std::string bytes =
      EncodeLabelRecord(fingerprint, key, label_bytes);
  const std::string path = LabelPath(fingerprint, key);
  if (!WriteAtomically(path, bytes)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.spills;
    stats_.spilled_bytes += static_cast<int64_t>(bytes.size());
  }
  TrimToBudget(path);
  return true;
}

std::optional<std::string> SpillStore::GetLabelArtifact(
    const TableFingerprint& fingerprint, const QueryResultKey& key) {
  bool missing = false;
  const std::optional<std::string> bytes =
      ReadFile(LabelPath(fingerprint, key), &missing);
  std::lock_guard<std::mutex> lock(mu_);
  if (!bytes.has_value()) {
    ++(missing ? stats_.misses : stats_.rejects);
    return std::nullopt;
  }
  std::optional<std::string> label =
      DecodeLabelRecord(*bytes, fingerprint, key);
  if (!label.has_value()) {
    ++stats_.rejects;
    return std::nullopt;
  }
  ++stats_.hits;
  stats_.loaded_bytes += static_cast<int64_t>(bytes->size());
  return label;
}

SpillStoreStats SpillStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace persist
}  // namespace pcbl
