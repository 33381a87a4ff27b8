// Tests for the `pcbl serve` wire protocol (server/wire.h):
//
//  * round-trip identity for every QuerySpec kind and field — focus
//    masks, pattern terms, the consumer-side PortableLabel, and all
//    six per-query overrides;
//  * byte stability against pinned golden buffers — the encoding is a
//    contract, a silent change breaks deployed clients;
//  * QueryResult round trips for all three kinds (search with
//    candidates, true count with/without estimate, profile pairs) and
//    Status codes including the retryable kUnavailable and the shed
//    kResourceExhausted;
//  * the bounded-read decoder: corrupt magic, wrong version, unknown
//    type, an oversized length field (rejected before any allocation —
//    the PR 1 corrupted-length fix, applied to the socket), truncated
//    payloads, trailing bytes, hostile string lengths, and query specs
//    setting unknown or retired presence bits all decode to
//    kInvalidArgument, never to a crash, an attacker-sized buffer, or a
//    silently misread spec.
#include "server/wire.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/query.h"
#include "core/portable_label.h"
#include "util/status.h"

namespace pcbl {
namespace server {
namespace {

using api::QuerySpec;

// --- golden buffers ---------------------------------------------------------
// Pinned bytes of the encoding. Extending the protocol means a new
// version or appended fields, never a change to these buffers.

// Every override set (presence bits 0x6f).
constexpr char kGoldenSearchSpec[] =
    "\x00\x01\x40\x00\x00\x00\x00\x00\x00\x00\x03\x00"
    "\x00\x00\x00\x00\x00\xf8\x3f\x01\x0b\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x6f\x00\x03"
    "\x00\x00\x00\x00\x00\x00\x00\x01\x00\x10\x00\x00"
    "\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x10\x00\x00\x00\x00\x00";

// The same spec as an older client encoded it, with the retired
// scheduler override (presence bit 4, one byte after the morsel rows)
// set. Decoding must refuse it rather than misread the fields after it.
constexpr char kRetiredSchedulerBitSpec[] =
    "\x00\x01\x40\x00\x00\x00\x00\x00\x00\x00\x03\x00"
    "\x00\x00\x00\x00\x00\xf8\x3f\x01\x0b\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x7f\x00\x03"
    "\x00\x00\x00\x00\x00\x00\x00\x01\x00\x10\x00\x00"
    "\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00"
    "\x00\x01\x00\x00\x10\x00\x00\x00\x00\x00";

constexpr char kGoldenTrueCountSpec[] =
    "\x01\x00\x64\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00"
    "\x72\x61\x63\x65\x10\x00\x00\x00\x41\x66\x72\x69"
    "\x63\x61\x6e\x2d\x41\x6d\x65\x72\x69\x63\x61\x6e"
    "\x03\x00\x00\x00\x73\x65\x78\x06\x00\x00\x00\x46"
    "\x65\x6d\x61\x6c\x65\x00\x00\x00";

constexpr char kGoldenProfileSpec[] =
    "\x02\x00\x64\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";

constexpr char kGoldenQueryFrame[] =
    "\x50\x43\x42\x57\x02\x00\x02\x00\x03\x00\x00\x00"
    "\x61\x62\x63";

QuerySpec FullSearchSpec() {
  QuerySpec spec =
      QuerySpec::LabelSearch(64, QuerySpec::Algorithm::kNaive);
  spec.metric = OptimizationMetric::kMeanQError;
  spec.time_limit_seconds = 1.5;
  spec.record_candidates = true;
  spec.focus = AttrMask(uint64_t{0b1011});
  spec.num_threads = 3;
  spec.use_counting_engine = true;
  spec.counting_cache_budget = 4096;
  spec.min_rows_per_morsel = 2048;
  spec.use_result_cache = true;
  spec.result_cache_budget = 1 << 20;
  return spec;
}

PortableLabel SampleLabel() {
  PortableLabel label;
  label.dataset_name = "compas";
  label.total_rows = 7;
  label.attribute_names = {"race", "sex"};
  label.value_counts = {{{"A", 4}, {"B", 3}}, {{"F", 5}, {"M", 2}}};
  label.label_attributes = {0, 1};
  label.pattern_counts = {{{"A", "F"}, 3}, {{"B", "M"}, 2}};
  return label;
}

std::string EncodeSpec(const QuerySpec& spec) {
  wire::Writer out;
  wire::EncodeQuerySpec(spec, &out);
  return out.Take();
}

QuerySpec RoundTripSpec(const QuerySpec& spec) {
  const std::string bytes = EncodeSpec(spec);
  wire::Reader in(bytes);
  auto decoded = wire::DecodeQuerySpec(in);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.Finish().ok());
  return decoded.ok() ? *decoded : QuerySpec();
}

TEST(WireSpecTest, SearchSpecRoundTripsEveryField) {
  const QuerySpec spec = FullSearchSpec();
  const QuerySpec got = RoundTripSpec(spec);
  EXPECT_EQ(got.kind, spec.kind);
  EXPECT_EQ(got.algorithm, spec.algorithm);
  EXPECT_EQ(got.size_bound, spec.size_bound);
  EXPECT_EQ(got.metric, spec.metric);
  EXPECT_EQ(got.time_limit_seconds, spec.time_limit_seconds);
  EXPECT_EQ(got.record_candidates, spec.record_candidates);
  EXPECT_EQ(got.focus.bits(), spec.focus.bits());
  EXPECT_EQ(got.num_threads, spec.num_threads);
  EXPECT_EQ(got.use_counting_engine, spec.use_counting_engine);
  EXPECT_EQ(got.counting_cache_budget, spec.counting_cache_budget);
  EXPECT_EQ(got.min_rows_per_morsel, spec.min_rows_per_morsel);
  EXPECT_EQ(got.use_result_cache, spec.use_result_cache);
  EXPECT_EQ(got.result_cache_budget, spec.result_cache_budget);
}

TEST(WireSpecTest, UnsetOverridesStayUnset) {
  const QuerySpec got = RoundTripSpec(QuerySpec::LabelSearch(100));
  EXPECT_FALSE(got.num_threads.has_value());
  EXPECT_FALSE(got.use_counting_engine.has_value());
  EXPECT_FALSE(got.counting_cache_budget.has_value());
  EXPECT_FALSE(got.min_rows_per_morsel.has_value());
  EXPECT_FALSE(got.use_result_cache.has_value());
  EXPECT_FALSE(got.result_cache_budget.has_value());
  EXPECT_EQ(got.label, nullptr);
}

TEST(WireSpecTest, TrueCountSpecCarriesPatternAndLabel) {
  QuerySpec spec = QuerySpec::TrueCount(
      {{"race", "African-American"}, {"sex", "Female"}});
  spec.label = std::make_shared<const PortableLabel>(SampleLabel());
  const QuerySpec got = RoundTripSpec(spec);
  EXPECT_EQ(got.kind, QuerySpec::Kind::kTrueCount);
  ASSERT_EQ(got.pattern.size(), 2u);
  EXPECT_EQ(got.pattern[0].first, "race");
  EXPECT_EQ(got.pattern[0].second, "African-American");
  EXPECT_EQ(got.pattern[1].first, "sex");
  EXPECT_EQ(got.pattern[1].second, "Female");
  ASSERT_NE(got.label, nullptr);
  // The label travels through its own pinned binary format.
  EXPECT_EQ(ToBinary(*got.label), ToBinary(*spec.label));
}

TEST(WireSpecTest, ProfileSpecRoundTrips) {
  const QuerySpec got = RoundTripSpec(QuerySpec::Profile());
  EXPECT_EQ(got.kind, QuerySpec::Kind::kProfile);
}

TEST(WireSpecTest, GoldenBuffersAreStable) {
  EXPECT_EQ(EncodeSpec(FullSearchSpec()),
            std::string(kGoldenSearchSpec, sizeof(kGoldenSearchSpec) - 1));
  EXPECT_EQ(EncodeSpec(QuerySpec::TrueCount(
                {{"race", "African-American"}, {"sex", "Female"}})),
            std::string(kGoldenTrueCountSpec,
                        sizeof(kGoldenTrueCountSpec) - 1));
  EXPECT_EQ(EncodeSpec(QuerySpec::Profile()),
            std::string(kGoldenProfileSpec,
                        sizeof(kGoldenProfileSpec) - 1));
}

TEST(WireSpecTest, GoldenBuffersDecode) {
  wire::Reader in(std::string_view(kGoldenSearchSpec,
                                   sizeof(kGoldenSearchSpec) - 1));
  auto decoded = wire::DecodeQuerySpec(in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(in.Finish().ok());
  EXPECT_EQ(decoded->size_bound, 64);
  EXPECT_EQ(decoded->algorithm, QuerySpec::Algorithm::kNaive);
  EXPECT_EQ(decoded->focus.bits(), uint64_t{0b1011});
  EXPECT_EQ(decoded->result_cache_budget, 1 << 20);
}

TEST(WireSpecTest, UnknownEnumValuesAreRejected) {
  std::string bytes = EncodeSpec(QuerySpec::Profile());
  bytes[0] = '\x07';  // kind
  wire::Reader in(bytes);
  EXPECT_EQ(wire::DecodeQuerySpec(in).status().code(),
            StatusCode::kInvalidArgument);

  bytes = EncodeSpec(QuerySpec::LabelSearch(10));
  bytes[1] = '\x09';  // algorithm
  wire::Reader in2(bytes);
  EXPECT_EQ(wire::DecodeQuerySpec(in2).status().code(),
            StatusCode::kInvalidArgument);
}

// --- frames -----------------------------------------------------------------

TEST(WireFrameTest, FrameHeaderGolden) {
  EXPECT_EQ(wire::EncodeFrame(wire::MessageType::kQuery, "abc"),
            std::string(kGoldenQueryFrame, sizeof(kGoldenQueryFrame) - 1));
}

TEST(WireFrameTest, HeaderRoundTrips) {
  const std::string frame =
      wire::EncodeFrame(wire::MessageType::kStats, "xyzw");
  ASSERT_GE(frame.size(), static_cast<size_t>(wire::kFrameHeaderBytes));
  auto header = wire::DecodeFrameHeader(frame.data(),
                                        wire::kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->type, wire::MessageType::kStats);
  EXPECT_EQ(header->payload_bytes, 4);
}

TEST(WireFrameTest, CorruptMagicIsRejected) {
  std::string frame = wire::EncodeFrame(wire::MessageType::kHello, "");
  frame[0] = 'X';
  EXPECT_EQ(wire::DecodeFrameHeader(frame.data(),
                                    wire::kDefaultMaxFrameBytes)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, WrongVersionIsRejected) {
  std::string frame = wire::EncodeFrame(wire::MessageType::kHello, "");
  frame[4] = '\x63';
  EXPECT_EQ(wire::DecodeFrameHeader(frame.data(),
                                    wire::kDefaultMaxFrameBytes)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, UnknownTypeIsRejected) {
  std::string frame = wire::EncodeFrame(wire::MessageType::kHello, "");
  frame[6] = '\x63';
  EXPECT_EQ(wire::DecodeFrameHeader(frame.data(),
                                    wire::kDefaultMaxFrameBytes)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The corrupted-length class of bug (PR 1): a hostile length field must
// be refused by the header check, *before* any buffer is sized from it.
TEST(WireFrameTest, OversizedLengthIsRejectedBeforeAllocation) {
  std::string frame = wire::EncodeFrame(wire::MessageType::kQuery, "abc");
  const uint32_t huge = 0x7fffffff;  // claims a 2 GiB payload
  std::memcpy(&frame[8], &huge, sizeof(huge));
  const Status status =
      wire::DecodeFrameHeader(frame.data(), wire::kDefaultMaxFrameBytes)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // A tighter limit tightens the refusal; the boundary itself passes.
  EXPECT_FALSE(
      wire::DecodeFrameHeader(frame.data(), /*max_frame_bytes=*/16).ok());
  const uint32_t small = 16;
  std::memcpy(&frame[8], &small, sizeof(small));
  EXPECT_TRUE(
      wire::DecodeFrameHeader(frame.data(), /*max_frame_bytes=*/16).ok());
}

// --- bounded reader ---------------------------------------------------------

TEST(WireReaderTest, TruncatedPayloadFailsSticky) {
  const std::string bytes = EncodeSpec(FullSearchSpec());
  for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2,
                     bytes.size() - 1}) {
    wire::Reader in(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(wire::DecodeQuerySpec(in).ok()) << "cut=" << cut;
  }
}

TEST(WireReaderTest, HostileStringLengthIsBoundsChecked) {
  // A string whose length field claims far more bytes than the payload
  // holds: the reader must fail, not allocate the claimed size.
  wire::Writer out;
  out.U32(0xfffffff0u);
  out.Str("tiny");
  wire::Reader in(out.bytes());
  EXPECT_TRUE(in.Str().empty());
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.Finish().code(), StatusCode::kInvalidArgument);
}

// The presence bitmap is the last thing before the override fields: a
// bit the decoder does not know would shift every field after it, so
// the spec is refused instead of decoded into garbage.
TEST(WireReaderTest, RetiredAndUnknownPresenceBitsAreRejected) {
  wire::Reader retired(std::string_view(
      kRetiredSchedulerBitSpec, sizeof(kRetiredSchedulerBitSpec) - 1));
  EXPECT_EQ(wire::DecodeQuerySpec(retired).status().code(),
            StatusCode::kInvalidArgument);

  // A profile spec ends in its two-byte presence bitmap.
  const std::string profile = EncodeSpec(QuerySpec::Profile());
  const size_t at = profile.size() - 2;
  for (int bit = 4; bit < 16; ++bit) {
    if (bit == 5 || bit == 6) continue;  // known: result-cache overrides
    std::string bytes = profile;
    const uint16_t present = static_cast<uint16_t>(1u << bit);
    std::memcpy(&bytes[at], &present, sizeof(present));
    bytes += std::string(8, '\0');  // room for whatever the bit claims
    wire::Reader in(bytes);
    EXPECT_EQ(wire::DecodeQuerySpec(in).status().code(),
              StatusCode::kInvalidArgument)
        << "bit " << bit;
  }
}

TEST(WireReaderTest, TrailingBytesFailFinish) {
  std::string bytes = EncodeSpec(QuerySpec::Profile());
  bytes += "junk";
  wire::Reader in(bytes);
  EXPECT_TRUE(wire::DecodeQuerySpec(in).ok());
  EXPECT_EQ(in.Finish().code(), StatusCode::kInvalidArgument);
}

// --- status and replies -----------------------------------------------------

TEST(WireStatusTest, EveryCodeRoundTrips) {
  const std::vector<Status> statuses = {
      Status::Ok(),
      InvalidArgumentError("bad"),
      NotFoundError("missing"),
      UnavailableError("evicted — reacquire and retry"),
      ResourceExhaustedError("tenant quota full"),
  };
  for (const Status& status : statuses) {
    wire::Writer out;
    wire::EncodeStatus(status, &out);
    wire::Reader in(out.bytes());
    Status decoded;
    ASSERT_TRUE(wire::DecodeStatus(in, &decoded).ok());
    EXPECT_EQ(decoded, status);
  }
}

TEST(WireStatusTest, UnknownCodeIsRejected) {
  wire::Writer out;
  out.U32(999);
  out.Str("?");
  wire::Reader in(out.bytes());
  Status decoded;
  EXPECT_EQ(wire::DecodeStatus(in, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireReplyTest, ShedHeaderCarriesRetryHint) {
  wire::ReplyHeader header;
  header.status = ResourceExhaustedError("quota");
  header.retry_after_ms = 75;
  wire::Writer out;
  wire::EncodeReplyHeader(header, &out);
  wire::Reader in(out.bytes());
  auto got = wire::DecodeReplyHeader(in);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(got->retry_after_ms, 75);
}

wire::WireQueryResult RoundTripResult(const wire::WireQueryResult& result) {
  wire::Writer out;
  wire::EncodeQueryResult(result, &out);
  wire::Reader in(out.bytes());
  auto decoded = wire::DecodeQueryResult(in);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(in.Finish().ok());
  return decoded.ok() ? *decoded : wire::WireQueryResult();
}

TEST(WireResultTest, SearchResultRoundTrips) {
  wire::WireQueryResult result;
  result.kind = QuerySpec::Kind::kLabelSearch;
  result.total_rows = 1234;
  result.search.best_attrs_bits = 0b101;
  result.search.label = SampleLabel();
  result.search.error.max_abs = 3.5;
  result.search.error.mean_abs = 1.25;
  result.search.error.std_abs = 0.5;
  result.search.error.max_q = 2.0;
  result.search.error.mean_q = 1.1;
  result.search.error.evaluated = 480;
  result.search.error.total = 483;
  result.search.error.early_terminated = true;
  result.search.stats.subsets_examined = 5534;
  result.search.stats.within_bound = 1697;
  result.search.stats.levels_completed = 3;
  result.search.stats.timed_out = true;
  result.search.stats.counting.full_scans = 42;
  result.search.stats.counting.cache_hits = 17;
  CandidateInfo candidate;
  candidate.attrs = AttrMask(uint64_t{0b11});
  candidate.label_size = 64;
  candidate.max_error = 7.5;
  result.search.candidates.push_back(candidate);

  const wire::WireQueryResult got = RoundTripResult(result);
  EXPECT_TRUE(got.status.ok());
  EXPECT_EQ(got.total_rows, 1234);
  EXPECT_EQ(got.search.best_attrs_bits, uint64_t{0b101});
  EXPECT_EQ(ToBinary(got.search.label), ToBinary(result.search.label));
  EXPECT_EQ(got.search.error.max_abs, 3.5);
  EXPECT_EQ(got.search.error.evaluated, 480);
  EXPECT_TRUE(got.search.error.early_terminated);
  EXPECT_EQ(got.search.stats.subsets_examined, 5534);
  EXPECT_EQ(got.search.stats.levels_completed, 3);
  EXPECT_TRUE(got.search.stats.timed_out);
  EXPECT_EQ(got.search.stats.counting.full_scans, 42);
  EXPECT_EQ(got.search.stats.counting.cache_hits, 17);
  ASSERT_EQ(got.search.candidates.size(), 1u);
  EXPECT_EQ(got.search.candidates[0].attrs.bits(), uint64_t{0b11});
  EXPECT_EQ(got.search.candidates[0].label_size, 64);
  EXPECT_EQ(got.search.candidates[0].max_error, 7.5);
}

TEST(WireResultTest, TrueCountRoundTripsWithAndWithoutEstimate) {
  wire::WireQueryResult result;
  result.kind = QuerySpec::Kind::kTrueCount;
  result.total_rows = 500;
  result.true_count = 77;
  wire::WireQueryResult got = RoundTripResult(result);
  EXPECT_EQ(got.true_count, 77);
  EXPECT_FALSE(got.estimate.has_value());

  result.estimate = 76.5;
  got = RoundTripResult(result);
  ASSERT_TRUE(got.estimate.has_value());
  EXPECT_EQ(*got.estimate, 76.5);
}

TEST(WireResultTest, ProfileRoundTrips) {
  wire::WireQueryResult result;
  result.kind = QuerySpec::Kind::kProfile;
  result.total_rows = 500;
  result.pairs = {{0, 1, 15}, {0, 2, 9}, {1, 2, 21}};
  const wire::WireQueryResult got = RoundTripResult(result);
  ASSERT_EQ(got.pairs.size(), 3u);
  EXPECT_EQ(got.pairs[2].attr_a, 1);
  EXPECT_EQ(got.pairs[2].attr_b, 2);
  EXPECT_EQ(got.pairs[2].size, 21);
}

TEST(WireResultTest, QueryLevelErrorRoundTrips) {
  wire::WireQueryResult result;
  result.kind = QuerySpec::Kind::kTrueCount;
  result.status = UnavailableError("service evicted");
  const wire::WireQueryResult got = RoundTripResult(result);
  EXPECT_EQ(got.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(got.status.message(), "service evicted");
}

TEST(WireStatsTest, StatsReplyRoundTrips) {
  wire::StatsReply reply;
  wire::TenantStatsRow row;
  row.tenant = "acme";
  row.queries = 10;
  row.shed = 3;
  row.errors = 1;
  row.inflight = 2;
  row.sessions = 4;
  row.service.result_hits = 6;
  row.service.append_batches = 2;
  reply.tenants.push_back(row);
  reply.registry.acquires = 9;
  reply.registry.services = 1;
  reply.registry.resident_bytes = 1 << 20;
  reply.registry.interned_values = 12;
  reply.registry.spill_hits = 5;
  reply.registry.spill_misses = 7;
  reply.registry.spill_rejects = 1;
  reply.registry.spills = 8;
  reply.registry.spilled_bytes = 1 << 16;

  wire::Writer out;
  wire::EncodeStatsReply(reply, &out);
  wire::Reader in(out.bytes());
  auto got = wire::DecodeStatsReply(in);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(in.Finish().ok());
  ASSERT_EQ(got->tenants.size(), 1u);
  EXPECT_EQ(got->tenants[0].tenant, "acme");
  EXPECT_EQ(got->tenants[0].shed, 3);
  EXPECT_EQ(got->tenants[0].service.result_hits, 6);
  EXPECT_EQ(got->tenants[0].service.append_batches, 2);
  EXPECT_EQ(got->registry.acquires, 9);
  EXPECT_EQ(got->registry.resident_bytes, 1 << 20);
  EXPECT_EQ(got->registry.interned_values, 12);
  EXPECT_EQ(got->registry.spill_hits, 5);
  EXPECT_EQ(got->registry.spill_misses, 7);
  EXPECT_EQ(got->registry.spill_rejects, 1);
  EXPECT_EQ(got->registry.spills, 8);
  EXPECT_EQ(got->registry.spilled_bytes, 1 << 16);
}

TEST(WireRequestTest, RequestsRoundTrip) {
  {
    wire::Writer out;
    wire::EncodeQueryRequest(
        {"tenant-a", "compas", QuerySpec::LabelSearch(50)}, &out);
    wire::Reader in(out.bytes());
    auto got = wire::DecodeQueryRequest(in);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(in.Finish().ok());
    EXPECT_EQ(got->tenant, "tenant-a");
    EXPECT_EQ(got->dataset, "compas");
    EXPECT_EQ(got->spec.size_bound, 50);
  }
  {
    wire::Writer out;
    wire::EncodeRegisterRequest({"t", "d", "a,b\n1,2\n"}, &out);
    wire::Reader in(out.bytes());
    auto got = wire::DecodeRegisterRequest(in);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->csv_text, "a,b\n1,2\n");
  }
  {
    wire::Writer out;
    wire::EncodeRegisterReply({{0x1234, 0x5678}, 99, true}, &out);
    wire::Reader in(out.bytes());
    auto got = wire::DecodeRegisterReply(in);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->fingerprint.lo, 0x1234u);
    EXPECT_EQ(got->fingerprint.hi, 0x5678u);
    EXPECT_EQ(got->rows, 99);
    EXPECT_TRUE(got->shared_existing);
  }
}

}  // namespace
}  // namespace server
}  // namespace pcbl
