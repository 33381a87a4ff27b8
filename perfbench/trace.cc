#include "trace.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {
// Ids of the spans open on this thread, innermost last.
thread_local std::vector<int64_t> open_spans;
}  // namespace

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, int64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = tracer_->NextId();
  span_.parent = open_spans.empty() ? 0 : open_spans.back();
  span_.request = request;
  open_spans.push_back(span_.id);
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(span_));
}

void Tracer::Add(std::string name, int64_t parent, int64_t request,
                 int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.id = NextId();
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

int64_t Tracer::NewRequestId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_request_;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, double> SelfMillisByName(
    const std::vector<Span>& spans) {
  std::unordered_map<int64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.millis();
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    auto it = child_ms.find(s.id);
    const double covered = it == child_ms.end() ? 0.0 : it->second;
    const double own = s.millis() - covered;
    self[s.name] += own > 0.0 ? own : 0.0;
  }
  return self;
}

}  // namespace perfbench
