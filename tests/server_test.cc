// Tests for `pcbl serve` (server/server.h) over real sockets:
//
//  * the server-vs-in-process differential — two concurrent tenants run
//    search / true-count / profile queries through the socket and every
//    result is byte-identical (timing zeroed) to the in-process session
//    over the same data;
//  * content-equal tenants share one warm CountingService — a second
//    tenant registering the same CSV under its own name performs zero
//    additional full-table scans (the catalog's fingerprint dedup);
//  * deterministic overload shedding — with a per-tenant quota of 1 and
//    the leader query parked mid-execution, the next query is refused
//    with kResourceExhausted and a retry-after hint in bounded time,
//    and the retry after drain succeeds;
//  * admission-level errors (unknown dataset, register conflicts) and
//    the corrupt/oversized-frame rejection path end-to-end;
//  * bounded handler threads — 2,000 connections opened and closed in
//    turn leave one exited, unjoined handler, not 2,000.
#include "server/server.h"

#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset.h"
#include "api/query.h"
#include "api/session.h"
#include "pattern/service_registry.h"
#include "relation/csv.h"
#include "server/client.h"
#include "server/socket_io.h"
#include "server/wire.h"
#include "workload/datasets.h"

namespace pcbl {
namespace server {
namespace {

using api::Dataset;
using api::DatasetOptions;
using api::QueryResult;
using api::QuerySpec;
using api::Session;

DatasetOptions PrivateOptions() {
  DatasetOptions options;
  options.private_service = true;
  return options;
}

Dataset PrivateDataset(const Table& table) {
  auto dataset = Dataset::FromTable(table, PrivateOptions());
  PCBL_CHECK(dataset.ok()) << dataset.status();
  return *dataset;
}

// Wall-clock and service-global engine counters are the only
// result-affecting-free fields; zeroing them makes server and
// in-process results byte-comparable.
std::string CanonicalBytes(wire::WireQueryResult result) {
  result.search.stats = SearchStats{};
  wire::Writer out;
  wire::EncodeQueryResult(result, &out);
  return out.Take();
}

std::string InProcessBytes(const Dataset& dataset, const QuerySpec& spec) {
  auto session = Session::Open(dataset);
  PCBL_CHECK(session.ok()) << session.status();
  const QueryResult result = (*session)->Run(spec);
  PCBL_CHECK(result.status.ok()) << result.status;
  return CanonicalBytes(wire::ToWireResult(result, dataset.table()));
}

Client MustConnect(const std::string& address) {
  auto client = Client::Connect(address);
  PCBL_CHECK(client.ok()) << client.status();
  return std::move(*client);
}

TEST(ServerTest, MatchesInProcessResultsAcrossConcurrentTenants) {
  Table table = workload::MakeCompas(600, 11).value();
  Catalog catalog(PrivateOptions());
  ASSERT_TRUE(catalog.Add("compas", PrivateDataset(table)).ok());
  const Dataset dataset = *catalog.Lookup("compas");

  Server server(&catalog, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec::LabelSearch(40));
  specs.push_back(
      QuerySpec::LabelSearch(25, QuerySpec::Algorithm::kNaive));
  specs.push_back(QuerySpec::TrueCount({{"SexOffender", "No"}}));
  specs.push_back(QuerySpec::Profile());

  // The in-process reference bytes, computed first (warming the shared
  // service does not change any result — that is the repo's core
  // differential invariant).
  std::vector<std::string> want;
  for (const QuerySpec& spec : specs) {
    want.push_back(InProcessBytes(dataset, spec));
  }

  std::vector<std::thread> tenants;
  for (const std::string tenant : {"alpha", "beta"}) {
    tenants.emplace_back([&, tenant] {
      Client client = MustConnect(server.bound_address());
      auto hello = client.Hello(tenant);
      ASSERT_TRUE(hello.ok()) << hello.status();
      EXPECT_EQ(hello->protocol_version, wire::kProtocolVersion);
      for (size_t i = 0; i < specs.size(); ++i) {
        auto result = client.Query(tenant, "compas", specs[i]);
        ASSERT_TRUE(result.ok()) << tenant << ": " << result.status();
        ASSERT_TRUE(result->status.ok()) << tenant << ": " << result->status;
        EXPECT_EQ(CanonicalBytes(*result), want[i])
            << tenant << " spec " << i;
      }
    });
  }
  for (std::thread& t : tenants) t.join();

  const wire::StatsReply stats = server.BuildStatsReply("");
  int64_t queries = 0;
  for (const auto& row : stats.tenants) queries += row.queries;
  EXPECT_EQ(queries, static_cast<int64_t>(2 * specs.size()));
  server.Stop();
}

TEST(ServerTest, ContentEqualTenantsShareOneWarmService) {
  Table table = workload::MakeCompas(500, 23).value();
  // Both names are registered from the same CSV bytes: the fingerprint
  // covers dictionary code assignment, so identical text is the unit of
  // content equality (not merely row-wise equal values).
  const std::string csv = WriteCsvString(table);
  Catalog catalog(PrivateOptions());
  auto seeded = catalog.RegisterCsvText("first", csv);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_FALSE(seeded->shared_existing);

  Server server(&catalog, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client alpha = MustConnect(server.bound_address());
  Client beta = MustConnect(server.bound_address());

  // Tenant beta uploads the same content under its own name: the
  // catalog's fingerprint index shares the existing entry.
  auto registered = beta.Register("beta", "second", csv);
  ASSERT_TRUE(registered.ok()) << registered.status();
  EXPECT_TRUE(registered->shared_existing);
  EXPECT_EQ(registered->rows, 500);
  ASSERT_EQ(catalog.Lookup("first")->service().get(),
            catalog.Lookup("second")->service().get());

  // Cold search by tenant alpha pays the full scans once...
  QuerySpec spec = QuerySpec::LabelSearch(40);
  spec.use_result_cache = false;  // force engine work on both arms
  auto first = alpha.Query("alpha", "first", spec);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->status.ok()) << first->status;
  const auto& service = *catalog.Lookup("first")->service();
  const int64_t cold_scans = service.stats().full_scans;
  ASSERT_GT(cold_scans, 0);

  // ...and tenant beta's identical search over its own name adds zero:
  // one set of full scans between content-equal tenants.
  auto second = beta.Query("beta", "second", spec);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(second->status.ok()) << second->status;
  EXPECT_EQ(service.stats().full_scans, cold_scans);
  EXPECT_EQ(CanonicalBytes(*first), CanonicalBytes(*second));
  server.Stop();
}

TEST(ServerTest, OverloadShedsImmediatelyAndRetrySucceeds) {
  Table table = workload::MakeCompas(400, 31).value();
  Catalog catalog(PrivateOptions());
  ASSERT_TRUE(catalog.Add("compas", PrivateDataset(table)).ok());
  const Dataset dataset = *catalog.Lookup("compas");

  ServerOptions options;
  options.tenant_max_inflight = 1;
  options.retry_after_ms = 75;
  Server server(&catalog, options);
  ASSERT_TRUE(server.Start().ok());

  std::thread leader_thread;
  {
    // Park the admitted leader mid-execution: holding the service's
    // engine mutex blocks its first sizing wave, so the tenant's quota
    // of 1 stays saturated for as long as this scope lives.
    std::unique_lock<std::mutex> wedge(dataset.service()->mutex());
    leader_thread = std::thread([&] {
      Client leader = MustConnect(server.bound_address());
      auto result =
          leader.Query("tenant", "compas", QuerySpec::LabelSearch(30));
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->status.ok()) << result->status;
    });
    // The leader is inside execution once the server counts it.
    for (;;) {
      const wire::StatsReply stats = server.BuildStatsReply("tenant");
      if (!stats.tenants.empty() && stats.tenants[0].inflight == 1) break;
      std::this_thread::yield();
    }

    // The N+1th concurrent query of the same tenant is shed *now* —
    // the reply arrives while the leader is still parked, which is the
    // bounded-time guarantee (no queueing behind the wedged query).
    Client follower = MustConnect(server.bound_address());
    auto shed =
        follower.Query("tenant", "compas", QuerySpec::LabelSearch(30));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(follower.last_retry_after_ms(), 75);

    // A different tenant is not affected by this tenant's quota: its
    // queries would be admitted (prove it without executing through
    // the wedged engine: its inflight/shed counters stay zero).
    const wire::StatsReply other = server.BuildStatsReply("fresh");
    EXPECT_TRUE(other.tenants.empty());
  }
  leader_thread.join();

  // Quota drained: the retry succeeds.
  Client follower = MustConnect(server.bound_address());
  auto retry =
      follower.Query("tenant", "compas", QuerySpec::LabelSearch(30));
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_TRUE(retry->status.ok()) << retry->status;

  const wire::StatsReply stats = server.BuildStatsReply("tenant");
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].queries, 2);
  EXPECT_EQ(stats.tenants[0].shed, 1);
  EXPECT_EQ(stats.tenants[0].inflight, 0);
  server.Stop();
}

TEST(ServerTest, UnknownDatasetIsNotFound) {
  Catalog catalog(PrivateOptions());
  Server server(&catalog, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server.bound_address());
  auto result =
      client.Query("tenant", "nope", QuerySpec::LabelSearch(10));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  server.Stop();
}

TEST(ServerTest, RegisterConflictsAndIdempotence) {
  Table table = workload::MakeCompas(200, 5).value();
  Table other = workload::MakeCompas(210, 6).value();
  Catalog catalog(PrivateOptions());
  Server server(&catalog, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = MustConnect(server.bound_address());

  auto first = client.Register("t", "data", WriteCsvString(table));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->shared_existing);

  // Same name + same content: idempotent success.
  auto again = client.Register("t", "data", WriteCsvString(table));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->shared_existing);
  EXPECT_EQ(again->fingerprint.lo, first->fingerprint.lo);
  EXPECT_EQ(again->fingerprint.hi, first->fingerprint.hi);

  // Same name + different content: refused.
  auto conflict = client.Register("t", "data", WriteCsvString(other));
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kAlreadyExists);

  // A registered dataset serves queries immediately.
  auto result = client.Query("t", "data", QuerySpec::Profile());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->status.ok());
  EXPECT_EQ(result->total_rows, 200);
  server.Stop();
}

TEST(ServerTest, CorruptAndOversizedFramesAreRejected) {
  Catalog catalog(PrivateOptions());
  Server server(&catalog, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    // Garbage magic: the server answers kInvalidArgument (best effort)
    // and drops the connection.
    auto fd = ConnectTo(server.bound_address());
    ASSERT_TRUE(fd.ok()) << fd.status();
    const std::string garbage = "XXXXYYYYZZZZ";
    ASSERT_TRUE(WriteFrame(*fd, wire::MessageType::kHello, "").ok());
    // First a valid hello (proves the connection), then garbage bytes.
    wire::FrameHeader header;
    std::string payload;
    auto ok_reply = ReadFrame(*fd, wire::kDefaultMaxFrameBytes, &header,
                              &payload);
    ASSERT_TRUE(ok_reply.ok() && *ok_reply);
    ASSERT_EQ(send(*fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    auto reply = ReadFrame(*fd, wire::kDefaultMaxFrameBytes, &header,
                           &payload);
    ASSERT_TRUE(reply.ok() && *reply);
    wire::Reader in(payload);
    auto decoded = wire::DecodeReplyHeader(in);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
    CloseSocket(*fd);
  }
  {
    // A header whose length field claims a payload beyond the server's
    // frame ceiling: refused before any allocation, kInvalidArgument.
    auto fd = ConnectTo(server.bound_address());
    ASSERT_TRUE(fd.ok()) << fd.status();
    wire::Writer out;
    out.U32(wire::kMagic);
    out.U16(wire::kProtocolVersion);
    out.U16(static_cast<uint16_t>(wire::MessageType::kQuery));
    out.U32(0xffffffffu);  // claims a 4 GiB payload
    ASSERT_EQ(send(*fd, out.bytes().data(), out.bytes().size(), 0),
              static_cast<ssize_t>(out.bytes().size()));
    wire::FrameHeader header;
    std::string payload;
    auto reply = ReadFrame(*fd, wire::kDefaultMaxFrameBytes, &header,
                           &payload);
    ASSERT_TRUE(reply.ok() && *reply);
    wire::Reader in(payload);
    auto decoded = wire::DecodeReplyHeader(in);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
    CloseSocket(*fd);
  }
  server.Stop();
}

// The restart-warm differential (docs/PERSISTENCE.md): a server over a
// --spill-dir dataset answers, is shut down orderly (spill-on-exit, as
// cmd_serve.cc does after Wait), and a *fresh* catalog + server over the
// same content and directory answers the same query byte-identically
// without a single full-table scan — the warm cache came off disk.
TEST(ServerTest, RestartWithSpillDirAnswersFirstQueryWithoutFullScans) {
  const std::string dir = ::testing::TempDir() + "pcbl_server_restart";
  std::filesystem::remove_all(dir);
  Table table = workload::MakeCompas(700, 19).value();
  DatasetOptions options;
  options.spill_directory = dir;
  const QuerySpec spec = QuerySpec::LabelSearch(40);

  ServiceRegistry::Global().Clear();
  std::string want;
  {
    Catalog catalog(options);
    auto dataset = Dataset::FromTable(table, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    ASSERT_TRUE(catalog.Add("compas", *dataset).ok());
    Server server(&catalog, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    Client client = MustConnect(server.bound_address());
    auto result = client.Query("tenant", "compas", spec);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->status.ok()) << result->status;
    want = CanonicalBytes(*result);
    EXPECT_GT(dataset->service()->stats().full_scans, 0);
    server.Stop();
    EXPECT_EQ(ServiceRegistry::Global().SpillResident(), 1);
  }

  // "Restart": drop every in-memory service, then rebuild the world.
  ServiceRegistry::Global().Clear();
  {
    Catalog catalog(options);
    auto dataset = Dataset::FromTable(table, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    ASSERT_TRUE(catalog.Add("compas", *dataset).ok());
    Server server(&catalog, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    Client client = MustConnect(server.bound_address());
    auto result = client.Query("tenant", "compas", spec);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->status.ok()) << result->status;
    EXPECT_EQ(CanonicalBytes(*result), want);
    EXPECT_EQ(catalog.Lookup("compas")->service()->stats().full_scans, 0)
        << "the first post-restart query should be answered entirely "
           "from the restored warm cache";
    server.Stop();
  }
  // Restore the process-wide registry for the other tests.
  ServiceRegistry::Global().SetSpillDirectory("");
  ServiceRegistry::Global().Clear();
}

TEST(ServerTest, ConnectionChurnJoinsExitedHandlers) {
  Catalog catalog(PrivateOptions());
  Server server(&catalog, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (int i = 0; i < 2000; ++i) {
    {
      Client client = MustConnect(server.bound_address());
      ASSERT_TRUE(client.Hello("churn").ok());
    }  // closing the socket ends the handler
    // Wait until this connection's handler has exited: the accept of
    // connection i joined handler i - 1, so exactly one exited,
    // unjoined handler is left — never one per past connection.
    Server::HandlerThreads threads = server.handler_threads();
    while (threads.exited < threads.unjoined) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::yield();
      threads = server.handler_threads();
    }
    ASSERT_EQ(threads.unjoined, 1u) << "connection " << i;
  }
  server.Stop();
  EXPECT_EQ(server.handler_threads().unjoined, 0u);
  EXPECT_EQ(server.handler_threads().exited, 0u);
}

TEST(ServerTest, ShutdownRequestUnblocksWait) {
  Catalog catalog(PrivateOptions());
  Server server(&catalog, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  std::thread waiter([&] { server.Wait(); });
  Client client = MustConnect(server.bound_address());
  ASSERT_TRUE(client.Shutdown().ok());
  waiter.join();
  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace pcbl
