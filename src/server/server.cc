#include "server/server.h"

#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "pattern/service_registry.h"
#include "server/socket_io.h"
#include "util/str.h"

namespace pcbl {
namespace server {

namespace {

/// Requests with an empty tenant all land in one bucket — quotas apply
/// to anonymous clients as a group, never bypass them.
std::string CanonicalTenant(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

}  // namespace

Server::Server(Catalog* catalog, ServerOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  PCBL_ASSIGN_OR_RETURN(listen_fd_, ListenOn(options_.address));
  PCBL_ASSIGN_OR_RETURN(bound_address_, BoundAddress(listen_fd_));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stopped_cv_.wait(lock, [this] { return stopping_; });
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && listen_fd_ < 0 && connection_fds_.empty()) {
      // Already fully stopped.
    }
    stopping_ = true;
    // Unblock the accept loop and every handler parked in recv.
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
    for (int fd : connection_fds_) shutdown(fd, SHUT_RDWR);
  }
  stopped_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::unordered_map<uint64_t, std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    handlers.swap(handlers_);
  }
  for (auto& [id, t] : handlers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    exited_handlers_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    CloseSocket(listen_fd_);
    listen_fd_ = -1;
    for (int fd : connection_fds_) CloseSocket(fd);
    connection_fds_.clear();
  }
}

void Server::AcceptLoop() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listener shut down (Stop) or fatal
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        CloseSocket(fd);
        return;
      }
      connection_fds_.push_back(fd);
    }
    ReapExitedHandlers();
    std::lock_guard<std::mutex> lock(handlers_mu_);
    const uint64_t id = next_handler_id_++;
    handlers_.emplace(id, std::thread([this, fd, id] {
                        ServeConnection(fd);
                        std::lock_guard<std::mutex> done(handlers_mu_);
                        exited_handlers_.push_back(id);
                      }));
  }
}

void Server::ReapExitedHandlers() {
  std::vector<std::thread> exited;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (uint64_t id : exited_handlers_) {
      auto it = handlers_.find(id);
      exited.push_back(std::move(it->second));
      handlers_.erase(it);
    }
    exited_handlers_.clear();
  }
  // Each has filed its id as its last step, so the joins are immediate.
  for (std::thread& t : exited) t.join();
}

Server::HandlerThreads Server::handler_threads() const {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  return HandlerThreads{handlers_.size(), exited_handlers_.size()};
}

void Server::ServeConnection(int fd) {
  while (true) {
    wire::FrameHeader header;
    std::string payload;
    Result<bool> read = ReadFrame(fd, options_.max_frame_bytes, &header,
                                  &payload);
    if (!read.ok()) {
      // A corrupt/oversized header is answered (best effort) before the
      // connection drops — framing cannot be resynchronized after it.
      if (read.status().code() == StatusCode::kInvalidArgument) {
        (void)WriteFrame(fd, wire::MessageType::kReply,
                         ErrorReplyPayload(read.status()));
      }
      break;
    }
    if (!*read) break;  // clean EOF between requests
    const std::string reply = HandleFrame(header, payload);
    if (!WriteFrame(fd, wire::MessageType::kReply, reply).ok()) break;
    if (header.type == wire::MessageType::kShutdown) {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      stopped_cv_.notify_all();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < connection_fds_.size(); ++i) {
    if (connection_fds_[i] == fd) {
      connection_fds_.erase(connection_fds_.begin() + i);
      break;
    }
  }
  CloseSocket(fd);
}

std::string Server::HandleFrame(const wire::FrameHeader& header,
                                const std::string& payload) {
  switch (header.type) {
    case wire::MessageType::kHello:
      return HandleHello(payload);
    case wire::MessageType::kQuery:
      return HandleQuery(payload);
    case wire::MessageType::kRegister:
      return HandleRegister(payload);
    case wire::MessageType::kStats:
      return HandleStats(payload);
    case wire::MessageType::kShutdown:
      return ErrorReplyPayload(Status::Ok());
    case wire::MessageType::kReply:
      break;
  }
  return ErrorReplyPayload(
      InvalidArgumentError("a client must not send reply frames"));
}

std::string Server::ErrorReplyPayload(const Status& status,
                                      int64_t retry_after_ms) {
  wire::Writer out;
  wire::ReplyHeader header;
  header.status = status;
  header.retry_after_ms = retry_after_ms;
  wire::EncodeReplyHeader(header, &out);
  return out.Take();
}

std::string Server::HandleHello(const std::string& payload) {
  wire::Reader in(payload);
  Result<wire::HelloRequest> request = wire::DecodeHelloRequest(in);
  if (!request.ok()) return ErrorReplyPayload(request.status());
  Status done = in.Finish();
  if (!done.ok()) return ErrorReplyPayload(done);
  wire::Writer out;
  wire::EncodeReplyHeader(wire::ReplyHeader{}, &out);
  wire::HelloReply reply;
  reply.server = "pcbl serve";
  wire::EncodeHelloReply(reply, &out);
  return out.Take();
}

std::string Server::HandleQuery(const std::string& payload) {
  wire::Reader in(payload);
  Result<wire::QueryRequest> request = wire::DecodeQueryRequest(in);
  if (!request.ok()) return ErrorReplyPayload(request.status());
  Status done = in.Finish();
  if (!done.ok()) return ErrorReplyPayload(done);

  const std::string tenant = CanonicalTenant(request->tenant);
  Result<api::Dataset> dataset = catalog_->Lookup(request->dataset);
  if (!dataset.ok()) return ErrorReplyPayload(dataset.status());

  if (!AdmitQuery(tenant)) {
    if (options_.verbose) {
      std::fprintf(stderr, "[pcbl-serve] tenant=%s dataset=%s SHED\n",
                   tenant.c_str(), request->dataset.c_str());
    }
    return ErrorReplyPayload(
        ResourceExhaustedError(StrCat(
            "tenant '", tenant,
            "' is at its in-flight query quota (or the server is); "
            "retry after backoff")),
        options_.retry_after_ms);
  }

  Result<std::unique_ptr<api::Session>> session =
      CheckoutSession(tenant, request->dataset, *dataset);
  if (!session.ok()) {
    FinishQuery(tenant, /*query_ok=*/false);
    return ErrorReplyPayload(session.status());
  }

  const auto started = std::chrono::steady_clock::now();
  api::QueryResult result = (*session)->Run(request->spec);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();

  ReturnSession(tenant, request->dataset, std::move(*session));
  FinishQuery(tenant, result.status.ok());

  if (options_.verbose) {
    std::fprintf(stderr,
                 "[pcbl-serve] tenant=%s dataset=%s kind=%d status=%s "
                 "%.1fms\n",
                 tenant.c_str(), request->dataset.c_str(),
                 static_cast<int>(result.kind),
                 StatusCodeName(result.status.code()), elapsed_ms);
  }

  wire::Writer out;
  wire::EncodeReplyHeader(wire::ReplyHeader{}, &out);
  wire::EncodeQueryResult(wire::ToWireResult(result, dataset->table()),
                          &out);
  return out.Take();
}

std::string Server::HandleRegister(const std::string& payload) {
  wire::Reader in(payload);
  Result<wire::RegisterRequest> request = wire::DecodeRegisterRequest(in);
  if (!request.ok()) return ErrorReplyPayload(request.status());
  Status done = in.Finish();
  if (!done.ok()) return ErrorReplyPayload(done);
  Result<wire::RegisterReply> reply =
      catalog_->RegisterCsvText(request->dataset, request->csv_text);
  if (!reply.ok()) return ErrorReplyPayload(reply.status());
  if (options_.verbose) {
    std::fprintf(stderr,
                 "[pcbl-serve] tenant=%s registered dataset=%s rows=%lld "
                 "shared=%d\n",
                 CanonicalTenant(request->tenant).c_str(),
                 request->dataset.c_str(),
                 static_cast<long long>(reply->rows),
                 reply->shared_existing ? 1 : 0);
  }
  wire::Writer out;
  wire::EncodeReplyHeader(wire::ReplyHeader{}, &out);
  wire::EncodeRegisterReply(*reply, &out);
  return out.Take();
}

std::string Server::HandleStats(const std::string& payload) {
  wire::Reader in(payload);
  Result<wire::StatsRequest> request = wire::DecodeStatsRequest(in);
  if (!request.ok()) return ErrorReplyPayload(request.status());
  Status done = in.Finish();
  if (!done.ok()) return ErrorReplyPayload(done);
  wire::Writer out;
  wire::EncodeReplyHeader(wire::ReplyHeader{}, &out);
  wire::EncodeStatsReply(BuildStatsReply(request->tenant), &out);
  return out.Take();
}

bool Server::AdmitQuery(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = tenants_[tenant];
  if (total_inflight_ >= options_.max_inflight ||
      state.inflight >= options_.tenant_max_inflight) {
    ++state.shed;
    return false;
  }
  ++state.inflight;
  ++total_inflight_;
  return true;
}

void Server::FinishQuery(const std::string& tenant, bool query_ok) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = tenants_[tenant];
  --state.inflight;
  --total_inflight_;
  ++state.queries;
  if (!query_ok) ++state.errors;
}

Result<std::unique_ptr<api::Session>> Server::CheckoutSession(
    const std::string& tenant, const std::string& dataset_name,
    const api::Dataset& dataset) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& pool = tenants_[tenant].idle_sessions[dataset_name];
    if (!pool.empty()) {
      std::unique_ptr<api::Session> session = std::move(pool.back());
      pool.pop_back();
      return session;
    }
  }
  // Opening is potentially expensive — never under mu_.
  api::SessionOptions session_options;
  session_options.executor_threads = options_.session_executor_threads;
  session_options.counting_cache_budget = options_.tenant_counting_budget;
  session_options.result_cache_budget = options_.tenant_result_budget;
  PCBL_ASSIGN_OR_RETURN(std::unique_ptr<api::Session> session,
                        api::Session::Open(dataset, session_options));
  std::lock_guard<std::mutex> lock(mu_);
  ++tenants_[tenant].sessions;
  return session;
}

void Server::ReturnSession(const std::string& tenant,
                           const std::string& dataset_name,
                           std::unique_ptr<api::Session> session) {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_[tenant].idle_sessions[dataset_name].push_back(
      std::move(session));
}

wire::StatsReply Server::BuildStatsReply(
    const std::string& tenant_filter) const {
  wire::StatsReply reply;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [tenant, state] : tenants_) {
      if (!tenant_filter.empty() && tenant != tenant_filter) continue;
      wire::TenantStatsRow row;
      row.tenant = tenant;
      row.queries = state.queries;
      row.shed = state.shed;
      row.errors = state.errors;
      row.inflight = state.inflight;
      row.sessions = state.sessions;
      // Fold the result-tier/append counters of every distinct service
      // this tenant's datasets ride (two names over content-equal data
      // share one service — count it once).
      std::vector<const CountingService*> seen;
      for (const auto& [dataset_name, pool] : state.idle_sessions) {
        Result<api::Dataset> dataset = catalog_->Lookup(dataset_name);
        if (!dataset.ok()) continue;
        const CountingService* service = dataset->service().get();
        bool counted = false;
        for (const CountingService* s : seen) counted |= (s == service);
        if (counted) continue;
        seen.push_back(service);
        AccumulateServiceStats(*service, &row.service);
      }
      reply.tenants.push_back(std::move(row));
    }
  }
  reply.registry = ServiceRegistry::Global().stats();
  return reply;
}

}  // namespace server
}  // namespace pcbl
