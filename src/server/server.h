// The `pcbl serve` label server: an out-of-process, multi-tenant front
// end over the api::Session stack.
//
// One accept-loop thread hands each connection to its own handler
// thread and joins the handlers that exited since its last accept, so
// connection churn does not pile up dead threads. A connection is a
// strict request/response sequence of wire frames (server/wire.h).
// Every query names a tenant and a catalog dataset; the server executes
// it on a pooled api::Session and ships the full QueryResult back — the
// label as a PortableLabel, so results are byte-comparable with an
// in-process session over the same data.
//
// Tenancy and overload. Each tenant gets its own session pool (sessions
// are never shared across tenants) with the per-tenant engine/result
// budgets from ServerOptions, and a bounded in-flight-query quota.
// Admission happens *before* execution: when the tenant's quota — or
// the server-wide max_inflight ceiling — is saturated, the request is
// shed immediately with kResourceExhausted and a retry-after hint
// rather than queued, so overload degrades into fast, bounded refusals
// instead of unbounded queueing (tail latency stays flat; the shed rate
// is what rises — bench/bench_serve_load.cc measures exactly that).
// Content-equal datasets still converge onto one warm CountingService
// underneath (server/catalog.h), so tenant isolation is a quota/budget
// boundary, not a cache-duplication one.
//
// Locking: the server's own mu_ is taken only around admission counters
// and pool bookkeeping, never while a query executes, and handler
// threads sit strictly *above* the whole service hierarchy — a worker
// acquires gate -> service mutex -> session state_mu_ only through
// api::Session calls and holds no server lock while doing so (see
// docs/CONCURRENCY.md).
#ifndef PCBL_SERVER_SERVER_H_
#define PCBL_SERVER_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.h"
#include "server/catalog.h"
#include "server/wire.h"
#include "util/status.h"

namespace pcbl {
namespace server {

struct ServerOptions {
  /// "host:port" (port 0 = ephemeral; read bound_address()) or
  /// "unix:/path".
  std::string address = "127.0.0.1:0";

  /// Server-wide ceiling on concurrently executing queries.
  int max_inflight = 64;

  /// Per-tenant in-flight-query quota; the N+1th concurrent query of
  /// one tenant is shed with kResourceExhausted.
  int tenant_max_inflight = 8;

  /// Backoff hint attached to a shed reply.
  int64_t retry_after_ms = 50;

  /// Per-frame payload ceiling (wire::kDefaultMaxFrameBytes default).
  int64_t max_frame_bytes = wire::kDefaultMaxFrameBytes;

  /// Per-tenant session budgets (SessionOptions semantics; -1 =
  /// library default): engine memoization entries and completed-result
  /// cache bytes.
  int64_t tenant_counting_budget = -1;
  int64_t tenant_result_budget = -1;

  /// Threads per pooled session's executor (1 = the library default).
  int session_executor_threads = 1;

  /// Per-request log lines on stderr.
  bool verbose = false;
};

class Server {
 public:
  /// `catalog` must outlive the server.
  Server(Catalog* catalog, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop.
  Status Start();

  /// The actual listening address (resolves an ephemeral port).
  const std::string& bound_address() const { return bound_address_; }

  /// Blocks until Stop() or a client's kShutdown request.
  void Wait();

  /// Closes the listener, disconnects clients, joins all threads.
  /// Idempotent.
  void Stop();

  /// The kStats reply body (empty filter = every tenant), also used by
  /// the CLI's final stats log.
  wire::StatsReply BuildStatsReply(const std::string& tenant_filter) const;

  /// Connection handler threads not yet joined, and how many of those
  /// have already exited. The accept path joins exited handlers before
  /// it starts the next one, so connection churn leaves at most the
  /// handlers that exited since the last accept; Stop() joins the rest.
  struct HandlerThreads {
    size_t unjoined = 0;
    size_t exited = 0;
  };
  HandlerThreads handler_threads() const;

 private:
  struct TenantState {
    int64_t queries = 0;   // executed (ok or query-level error)
    int64_t shed = 0;      // refused with kResourceExhausted
    int64_t errors = 0;    // executed, non-ok query status
    int64_t inflight = 0;  // executing right now
    int64_t sessions = 0;  // sessions ever opened for this tenant
    // Idle pooled sessions by dataset name; a query checks one out (or
    // opens one) and returns it when done, so one tenant's concurrent
    // queries never serialize on a single session executor.
    std::unordered_map<std::string,
                       std::vector<std::unique_ptr<api::Session>>>
        idle_sessions;
  };

  void AcceptLoop();
  void ServeConnection(int fd);

  // Joins every handler that filed itself in exited_handlers_.
  void ReapExitedHandlers();

  // Frame dispatch; each returns the complete reply payload.
  std::string HandleFrame(const wire::FrameHeader& header,
                          const std::string& payload);
  std::string HandleHello(const std::string& payload);
  std::string HandleQuery(const std::string& payload);
  std::string HandleRegister(const std::string& payload);
  std::string HandleStats(const std::string& payload);

  // Admission: true = admitted (caller must call FinishQuery), false =
  // shed (the tenant's shed counter is already bumped).
  bool AdmitQuery(const std::string& tenant);
  void FinishQuery(const std::string& tenant, bool query_ok);

  // Session pool checkout/return.
  Result<std::unique_ptr<api::Session>> CheckoutSession(
      const std::string& tenant, const std::string& dataset_name,
      const api::Dataset& dataset);
  void ReturnSession(const std::string& tenant,
                     const std::string& dataset_name,
                     std::unique_ptr<api::Session> session);

  static std::string ErrorReplyPayload(const Status& status,
                                       int64_t retry_after_ms = 0);

  Catalog* const catalog_;
  const ServerOptions options_;

  std::string bound_address_;
  int listen_fd_ = -1;

  mutable std::mutex mu_;  // admission counters, pools, connection fds
  std::condition_variable stopped_cv_;
  bool stopping_ = false;
  int64_t total_inflight_ = 0;
  std::unordered_map<std::string, TenantState> tenants_;
  std::vector<int> connection_fds_;

  std::thread accept_thread_;
  // Handler threads by connection id; a handler files its id in
  // exited_handlers_ as its last step.
  mutable std::mutex handlers_mu_;
  std::unordered_map<uint64_t, std::thread> handlers_;
  std::vector<uint64_t> exited_handlers_;
  uint64_t next_handler_id_ = 0;
};

}  // namespace server
}  // namespace pcbl

#endif  // PCBL_SERVER_SERVER_H_
