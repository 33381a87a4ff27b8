#include "server/wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "util/str.h"

namespace pcbl {
namespace server {
namespace wire {

// --- primitives -------------------------------------------------------------

void Writer::U16(uint16_t v) {
  bytes_.push_back(static_cast<char>(v & 0xff));
  bytes_.push_back(static_cast<char>((v >> 8) & 0xff));
}

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Writer::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void Writer::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  bytes_.append(s.data(), s.size());
}

bool Reader::Need(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Reader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint16_t Reader::U16() {
  if (!Need(2)) return 0;
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

uint32_t Reader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

uint64_t Reader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

double Reader::F64() { return std::bit_cast<double>(U64()); }

std::string Reader::Str() {
  // The length is validated against the remaining payload *before* the
  // allocation: a corrupt length fails the read, it never reserves.
  const uint32_t len = U32();
  if (!Need(len)) return std::string();
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

Status Reader::Finish() const {
  if (!ok_) {
    return InvalidArgumentError(
        "malformed frame payload: a field overran the received bytes");
  }
  if (pos_ != data_.size()) {
    return InvalidArgumentError(
        StrCat("malformed frame payload: ", data_.size() - pos_,
               " trailing bytes after the last field"));
  }
  return Status::Ok();
}

// --- frames -----------------------------------------------------------------

std::string EncodeFrame(MessageType type, std::string_view payload) {
  Writer out;
  out.U32(kMagic);
  out.U16(kProtocolVersion);
  out.U16(static_cast<uint16_t>(type));
  out.U32(static_cast<uint32_t>(payload.size()));
  std::string frame = out.Take();
  frame.append(payload.data(), payload.size());
  return frame;
}

Result<FrameHeader> DecodeFrameHeader(const char* header,
                                      int64_t max_frame_bytes) {
  Reader in(std::string_view(header, kFrameHeaderBytes));
  const uint32_t magic = in.U32();
  const uint16_t version = in.U16();
  const uint16_t type = in.U16();
  const uint32_t payload = in.U32();
  if (magic != kMagic) {
    return InvalidArgumentError(
        StrFormat("bad frame magic 0x%08x (expected 0x%08x)", magic, kMagic));
  }
  if (version != kProtocolVersion) {
    return InvalidArgumentError(
        StrFormat("unsupported protocol version %u (this build speaks %u)",
                  version, kProtocolVersion));
  }
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello:
    case MessageType::kQuery:
    case MessageType::kRegister:
    case MessageType::kStats:
    case MessageType::kShutdown:
    case MessageType::kReply:
      break;
    default:
      return InvalidArgumentError(StrFormat("unknown message type %u", type));
  }
  if (static_cast<int64_t>(payload) > max_frame_bytes) {
    // Refused before any allocation: the length field is
    // attacker-controlled and must never size a buffer unchecked.
    return InvalidArgumentError(
        StrFormat("frame payload of %u bytes exceeds the %lld-byte limit",
                  payload, static_cast<long long>(max_frame_bytes)));
  }
  FrameHeader decoded;
  decoded.type = static_cast<MessageType>(type);
  decoded.payload_bytes = static_cast<int64_t>(payload);
  return decoded;
}

// --- status -----------------------------------------------------------------

void EncodeStatus(const Status& status, Writer* out) {
  out->U32(static_cast<uint32_t>(status.code()));
  out->Str(status.message());
}

Status DecodeStatus(Reader& in, Status* decoded) {
  const uint32_t code = in.U32();
  std::string message = in.Str();
  if (!in.ok()) {
    return InvalidArgumentError("malformed status field");
  }
  if (code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return InvalidArgumentError(StrCat("unknown status code ", code));
  }
  *decoded = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::Ok();
}

// --- requests ---------------------------------------------------------------

void EncodeHelloRequest(const HelloRequest& request, Writer* out) {
  out->Str(request.tenant);
}

Result<HelloRequest> DecodeHelloRequest(Reader& in) {
  HelloRequest request;
  request.tenant = in.Str();
  if (!in.ok()) return InvalidArgumentError("malformed hello request");
  return request;
}

namespace {

// Presence bits of QuerySpec's optional per-query overrides, in field
// declaration order. Pinned by the golden-buffer tests.
enum SpecOptionalBit : uint16_t {
  kBitNumThreads = 1 << 0,
  kBitUseEngine = 1 << 1,
  kBitCacheBudget = 1 << 2,
  kBitMorselRows = 1 << 3,
  // Retired: carried a scheduler on/off flag that no longer exists. Never
  // reassign it — a frame that sets it is refused, not misread.
  kBitWaveScheduler = 1 << 4,
  kBitResultCache = 1 << 5,
  kBitResultBudget = 1 << 6,
};

constexpr uint16_t kKnownSpecBits = kBitNumThreads | kBitUseEngine |
                                    kBitCacheBudget | kBitMorselRows |
                                    kBitResultCache | kBitResultBudget;

}  // namespace

void EncodeQuerySpec(const api::QuerySpec& spec, Writer* out) {
  out->U8(static_cast<uint8_t>(spec.kind));
  out->U8(static_cast<uint8_t>(spec.algorithm));
  out->I64(spec.size_bound);
  out->U8(static_cast<uint8_t>(spec.metric));
  out->F64(spec.time_limit_seconds);
  out->U8(spec.record_candidates ? 1 : 0);
  out->U64(spec.focus.bits());
  out->U32(static_cast<uint32_t>(spec.pattern.size()));
  for (const auto& [name, value] : spec.pattern) {
    out->Str(name);
    out->Str(value);
  }
  out->U8(spec.label != nullptr ? 1 : 0);
  if (spec.label != nullptr) out->Str(ToBinary(*spec.label));
  uint16_t present = 0;
  if (spec.num_threads.has_value()) present |= kBitNumThreads;
  if (spec.use_counting_engine.has_value()) present |= kBitUseEngine;
  if (spec.counting_cache_budget.has_value()) present |= kBitCacheBudget;
  if (spec.min_rows_per_morsel.has_value()) present |= kBitMorselRows;
  if (spec.use_result_cache.has_value()) present |= kBitResultCache;
  if (spec.result_cache_budget.has_value()) present |= kBitResultBudget;
  out->U16(present);
  if (spec.num_threads.has_value()) out->I64(*spec.num_threads);
  if (spec.use_counting_engine.has_value()) {
    out->U8(*spec.use_counting_engine ? 1 : 0);
  }
  if (spec.counting_cache_budget.has_value()) {
    out->I64(*spec.counting_cache_budget);
  }
  if (spec.min_rows_per_morsel.has_value()) {
    out->I64(*spec.min_rows_per_morsel);
  }
  if (spec.use_result_cache.has_value()) {
    out->U8(*spec.use_result_cache ? 1 : 0);
  }
  if (spec.result_cache_budget.has_value()) {
    out->I64(*spec.result_cache_budget);
  }
}

Result<api::QuerySpec> DecodeQuerySpec(Reader& in) {
  api::QuerySpec spec;
  const uint8_t kind = in.U8();
  const uint8_t algorithm = in.U8();
  spec.size_bound = in.I64();
  const uint8_t metric = in.U8();
  spec.time_limit_seconds = in.F64();
  spec.record_candidates = in.U8() != 0;
  spec.focus = AttrMask(in.U64());
  const uint32_t terms = in.U32();
  for (uint32_t i = 0; in.ok() && i < terms; ++i) {
    std::string name = in.Str();
    std::string value = in.Str();
    spec.pattern.emplace_back(std::move(name), std::move(value));
  }
  if (in.U8() != 0) {
    const std::string label_bytes = in.Str();
    if (!in.ok()) return InvalidArgumentError("malformed query spec");
    PCBL_ASSIGN_OR_RETURN(PortableLabel label,
                          PortableLabelFromBinary(label_bytes));
    spec.label = std::make_shared<const PortableLabel>(std::move(label));
  }
  const uint16_t present = in.U16();
  // Unknown bits would shift every field after them; refuse the frame
  // instead of decoding garbage.
  if (present & kBitWaveScheduler) {
    return InvalidArgumentError(
        "query spec sets the retired scheduler override (presence bit 4)");
  }
  if (present & ~kKnownSpecBits) {
    return InvalidArgumentError(
        StrCat("query spec sets unknown presence bits (mask ",
               present & ~kKnownSpecBits, ")"));
  }
  if (present & kBitNumThreads) {
    spec.num_threads = static_cast<int>(in.I64());
  }
  if (present & kBitUseEngine) spec.use_counting_engine = in.U8() != 0;
  if (present & kBitCacheBudget) spec.counting_cache_budget = in.I64();
  if (present & kBitMorselRows) spec.min_rows_per_morsel = in.I64();
  if (present & kBitResultCache) spec.use_result_cache = in.U8() != 0;
  if (present & kBitResultBudget) spec.result_cache_budget = in.I64();
  if (!in.ok()) return InvalidArgumentError("malformed query spec");
  if (kind > static_cast<uint8_t>(api::QuerySpec::Kind::kProfile)) {
    return InvalidArgumentError(StrCat("unknown query kind ", kind));
  }
  if (algorithm > static_cast<uint8_t>(api::QuerySpec::Algorithm::kNaive)) {
    return InvalidArgumentError(
        StrCat("unknown search algorithm ", algorithm));
  }
  if (metric > static_cast<uint8_t>(OptimizationMetric::kMeanQError)) {
    return InvalidArgumentError(
        StrCat("unknown optimization metric ", metric));
  }
  spec.kind = static_cast<api::QuerySpec::Kind>(kind);
  spec.algorithm = static_cast<api::QuerySpec::Algorithm>(algorithm);
  spec.metric = static_cast<OptimizationMetric>(metric);
  return spec;
}

void EncodeQueryRequest(const QueryRequest& request, Writer* out) {
  out->Str(request.tenant);
  out->Str(request.dataset);
  EncodeQuerySpec(request.spec, out);
}

Result<QueryRequest> DecodeQueryRequest(Reader& in) {
  QueryRequest request;
  request.tenant = in.Str();
  request.dataset = in.Str();
  PCBL_ASSIGN_OR_RETURN(request.spec, DecodeQuerySpec(in));
  return request;
}

void EncodeRegisterRequest(const RegisterRequest& request, Writer* out) {
  out->Str(request.tenant);
  out->Str(request.dataset);
  out->Str(request.csv_text);
}

Result<RegisterRequest> DecodeRegisterRequest(Reader& in) {
  RegisterRequest request;
  request.tenant = in.Str();
  request.dataset = in.Str();
  request.csv_text = in.Str();
  if (!in.ok()) return InvalidArgumentError("malformed register request");
  return request;
}

void EncodeStatsRequest(const StatsRequest& request, Writer* out) {
  out->Str(request.tenant);
}

Result<StatsRequest> DecodeStatsRequest(Reader& in) {
  StatsRequest request;
  request.tenant = in.Str();
  if (!in.ok()) return InvalidArgumentError("malformed stats request");
  return request;
}

// --- replies ----------------------------------------------------------------

void EncodeReplyHeader(const ReplyHeader& header, Writer* out) {
  EncodeStatus(header.status, out);
  out->I64(header.retry_after_ms);
}

Result<ReplyHeader> DecodeReplyHeader(Reader& in) {
  ReplyHeader header;
  PCBL_RETURN_IF_ERROR(DecodeStatus(in, &header.status));
  header.retry_after_ms = in.I64();
  if (!in.ok()) return InvalidArgumentError("malformed reply header");
  return header;
}

void EncodeHelloReply(const HelloReply& reply, Writer* out) {
  out->U16(reply.protocol_version);
  out->Str(reply.server);
}

Result<HelloReply> DecodeHelloReply(Reader& in) {
  HelloReply reply;
  reply.protocol_version = in.U16();
  reply.server = in.Str();
  if (!in.ok()) return InvalidArgumentError("malformed hello reply");
  return reply;
}

namespace {

void EncodeErrorReport(const ErrorReport& report, Writer* out) {
  out->F64(report.max_abs);
  out->F64(report.mean_abs);
  out->F64(report.std_abs);
  out->F64(report.max_q);
  out->F64(report.mean_q);
  out->I64(report.evaluated);
  out->I64(report.total);
  out->U8(report.early_terminated ? 1 : 0);
}

ErrorReport DecodeErrorReport(Reader& in) {
  ErrorReport report;
  report.max_abs = in.F64();
  report.mean_abs = in.F64();
  report.std_abs = in.F64();
  report.max_q = in.F64();
  report.mean_q = in.F64();
  report.evaluated = in.I64();
  report.total = in.I64();
  report.early_terminated = in.U8() != 0;
  return report;
}

void EncodeEngineStats(const CountingEngineStats& stats, Writer* out) {
  out->I64(stats.sizings);
  out->I64(stats.cache_hits);
  out->I64(stats.rollups);
  out->I64(stats.direct_scans);
  out->I64(stats.full_scans);
  out->I64(stats.evictions);
  out->I64(stats.cached_groups);
  out->I64(stats.cached_bytes);
  out->I64(stats.patched_entries);
  out->I64(stats.invalidations);
  out->I64(stats.compactions);
}

CountingEngineStats DecodeEngineStats(Reader& in) {
  CountingEngineStats stats;
  stats.sizings = in.I64();
  stats.cache_hits = in.I64();
  stats.rollups = in.I64();
  stats.direct_scans = in.I64();
  stats.full_scans = in.I64();
  stats.evictions = in.I64();
  stats.cached_groups = in.I64();
  stats.cached_bytes = in.I64();
  stats.patched_entries = in.I64();
  stats.invalidations = in.I64();
  stats.compactions = in.I64();
  return stats;
}

void EncodeSearchStats(const SearchStats& stats, Writer* out) {
  out->I64(stats.subsets_examined);
  out->I64(stats.within_bound);
  out->I64(stats.error_evaluations);
  out->I64(stats.patterns_scanned);
  out->I64(stats.levels_completed);
  out->F64(stats.total_seconds);
  out->F64(stats.candidate_seconds);
  out->F64(stats.error_eval_seconds);
  out->U8(stats.timed_out ? 1 : 0);
  EncodeEngineStats(stats.counting, out);
}

SearchStats DecodeSearchStats(Reader& in) {
  SearchStats stats;
  stats.subsets_examined = in.I64();
  stats.within_bound = in.I64();
  stats.error_evaluations = in.I64();
  stats.patterns_scanned = in.I64();
  stats.levels_completed = static_cast<int>(in.I64());
  stats.total_seconds = in.F64();
  stats.candidate_seconds = in.F64();
  stats.error_eval_seconds = in.F64();
  stats.timed_out = in.U8() != 0;
  stats.counting = DecodeEngineStats(in);
  return stats;
}

}  // namespace

void EncodeQueryResult(const WireQueryResult& result, Writer* out) {
  EncodeStatus(result.status, out);
  out->U8(static_cast<uint8_t>(result.kind));
  out->I64(result.total_rows);
  switch (result.kind) {
    case api::QuerySpec::Kind::kLabelSearch: {
      out->U64(result.search.best_attrs_bits);
      out->Str(ToBinary(result.search.label));
      EncodeErrorReport(result.search.error, out);
      EncodeSearchStats(result.search.stats, out);
      out->U32(static_cast<uint32_t>(result.search.candidates.size()));
      for (const CandidateInfo& candidate : result.search.candidates) {
        out->U64(candidate.attrs.bits());
        out->I64(candidate.label_size);
        out->F64(candidate.max_error);
      }
      break;
    }
    case api::QuerySpec::Kind::kTrueCount:
      out->I64(result.true_count);
      out->U8(result.estimate.has_value() ? 1 : 0);
      if (result.estimate.has_value()) out->F64(*result.estimate);
      break;
    case api::QuerySpec::Kind::kProfile:
      out->U32(static_cast<uint32_t>(result.pairs.size()));
      for (const api::PairwiseSize& pair : result.pairs) {
        out->U32(static_cast<uint32_t>(pair.attr_a));
        out->U32(static_cast<uint32_t>(pair.attr_b));
        out->I64(pair.size);
      }
      break;
  }
}

Result<WireQueryResult> DecodeQueryResult(Reader& in) {
  WireQueryResult result;
  PCBL_RETURN_IF_ERROR(DecodeStatus(in, &result.status));
  const uint8_t kind = in.U8();
  result.total_rows = in.I64();
  if (!in.ok() || kind > static_cast<uint8_t>(api::QuerySpec::Kind::kProfile)) {
    return InvalidArgumentError("malformed query result");
  }
  result.kind = static_cast<api::QuerySpec::Kind>(kind);
  switch (result.kind) {
    case api::QuerySpec::Kind::kLabelSearch: {
      result.search.best_attrs_bits = in.U64();
      const std::string label_bytes = in.Str();
      if (!in.ok()) return InvalidArgumentError("malformed query result");
      PCBL_ASSIGN_OR_RETURN(result.search.label,
                            PortableLabelFromBinary(label_bytes));
      result.search.error = DecodeErrorReport(in);
      result.search.stats = DecodeSearchStats(in);
      const uint32_t candidates = in.U32();
      for (uint32_t i = 0; in.ok() && i < candidates; ++i) {
        CandidateInfo candidate;
        candidate.attrs = AttrMask(in.U64());
        candidate.label_size = in.I64();
        candidate.max_error = in.F64();
        result.search.candidates.push_back(candidate);
      }
      break;
    }
    case api::QuerySpec::Kind::kTrueCount:
      result.true_count = in.I64();
      if (in.U8() != 0) result.estimate = in.F64();
      break;
    case api::QuerySpec::Kind::kProfile: {
      const uint32_t pairs = in.U32();
      for (uint32_t i = 0; in.ok() && i < pairs; ++i) {
        api::PairwiseSize pair;
        pair.attr_a = static_cast<int>(in.U32());
        pair.attr_b = static_cast<int>(in.U32());
        pair.size = in.I64();
        result.pairs.push_back(pair);
      }
      break;
    }
  }
  if (!in.ok()) return InvalidArgumentError("malformed query result");
  return result;
}

void EncodeRegisterReply(const RegisterReply& reply, Writer* out) {
  out->U64(reply.fingerprint.lo);
  out->U64(reply.fingerprint.hi);
  out->I64(reply.rows);
  out->U8(reply.shared_existing ? 1 : 0);
}

Result<RegisterReply> DecodeRegisterReply(Reader& in) {
  RegisterReply reply;
  reply.fingerprint.lo = in.U64();
  reply.fingerprint.hi = in.U64();
  reply.rows = in.I64();
  reply.shared_existing = in.U8() != 0;
  if (!in.ok()) return InvalidArgumentError("malformed register reply");
  return reply;
}

void EncodeRegistryStats(const ServiceRegistryStats& stats, Writer* out) {
  out->I64(stats.acquires);
  out->I64(stats.hits);
  out->I64(stats.misses);
  out->I64(stats.evictions);
  out->I64(stats.services);
  out->I64(stats.resident_bytes);
  out->I64(stats.evicted_rejections);
  out->I64(stats.result_hits);
  out->I64(stats.result_misses);
  out->I64(stats.result_inflight_joins);
  out->I64(stats.result_entries);
  out->I64(stats.result_bytes);
  out->I64(stats.append_batches);
  out->I64(stats.append_requests);
  out->I64(stats.interned_values);
  out->I64(stats.spill_hits);
  out->I64(stats.spill_misses);
  out->I64(stats.spill_rejects);
  out->I64(stats.spills);
  out->I64(stats.spilled_bytes);
}

Result<ServiceRegistryStats> DecodeRegistryStats(Reader& in) {
  ServiceRegistryStats stats;
  stats.acquires = in.I64();
  stats.hits = in.I64();
  stats.misses = in.I64();
  stats.evictions = in.I64();
  stats.services = in.I64();
  stats.resident_bytes = in.I64();
  stats.evicted_rejections = in.I64();
  stats.result_hits = in.I64();
  stats.result_misses = in.I64();
  stats.result_inflight_joins = in.I64();
  stats.result_entries = in.I64();
  stats.result_bytes = in.I64();
  stats.append_batches = in.I64();
  stats.append_requests = in.I64();
  stats.interned_values = in.I64();
  stats.spill_hits = in.I64();
  stats.spill_misses = in.I64();
  stats.spill_rejects = in.I64();
  stats.spills = in.I64();
  stats.spilled_bytes = in.I64();
  if (!in.ok()) return InvalidArgumentError("malformed registry stats");
  return stats;
}

void EncodeStatsReply(const StatsReply& reply, Writer* out) {
  out->U32(static_cast<uint32_t>(reply.tenants.size()));
  for (const TenantStatsRow& row : reply.tenants) {
    out->Str(row.tenant);
    out->I64(row.queries);
    out->I64(row.shed);
    out->I64(row.errors);
    out->I64(row.inflight);
    out->I64(row.sessions);
    EncodeRegistryStats(row.service, out);
  }
  EncodeRegistryStats(reply.registry, out);
}

Result<StatsReply> DecodeStatsReply(Reader& in) {
  StatsReply reply;
  const uint32_t tenants = in.U32();
  for (uint32_t i = 0; in.ok() && i < tenants; ++i) {
    TenantStatsRow row;
    row.tenant = in.Str();
    row.queries = in.I64();
    row.shed = in.I64();
    row.errors = in.I64();
    row.inflight = in.I64();
    row.sessions = in.I64();
    PCBL_ASSIGN_OR_RETURN(row.service, DecodeRegistryStats(in));
    reply.tenants.push_back(std::move(row));
  }
  PCBL_ASSIGN_OR_RETURN(reply.registry, DecodeRegistryStats(in));
  return reply;
}

WireQueryResult ToWireResult(const api::QueryResult& result,
                             const Table& table) {
  WireQueryResult out;
  out.status = result.status;
  out.kind = result.kind;
  out.total_rows = result.total_rows;
  switch (result.kind) {
    case api::QuerySpec::Kind::kLabelSearch:
      out.search.best_attrs_bits = result.search.best_attrs.bits();
      // A failed query carries a default-constructed (placeholder)
      // label with no VC backing — leave the portable label empty.
      if (result.status.ok() &&
          result.search.label.shared_value_counts() != nullptr) {
        out.search.label = MakePortable(result.search.label, table);
      }
      out.search.error = result.search.error;
      out.search.stats = result.search.stats;
      out.search.candidates = result.search.candidates;
      break;
    case api::QuerySpec::Kind::kTrueCount:
      out.true_count = result.true_count;
      out.estimate = result.estimate;
      break;
    case api::QuerySpec::Kind::kProfile:
      out.pairs = result.pairs;
      break;
  }
  return out;
}

}  // namespace wire
}  // namespace server
}  // namespace pcbl
