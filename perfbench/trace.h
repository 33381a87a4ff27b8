// In-memory span recorder of the benchmark's traced runs.
//
// Spans are recorded in the benchmark's own code around calls into the
// library's layers: name, start, end, parent span and request id. They
// stay in memory until the run ends and are then written out as JSON
// lines. A disabled Tracer records nothing and reads no clock, so the
// untraced runs that give the end-to-end metrics pay nothing for it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // spans of one request share it
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double millis() const { return (end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  static int64_t NowNs();

  // Closes its span when it leaves scope. Spans opened on one thread
  // nest: the innermost open span is the parent of the next one.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return span_.id; }
    int64_t start_ns() const { return span_.start_ns; }

   private:
    Tracer* tracer_;  // null when tracing is off
    Span span_;
  };

  // Records a span measured elsewhere, e.g. a phase time the library
  // reports in its own stats, placed under `parent`.
  void Add(std::string name, int64_t parent, int64_t request,
           int64_t start_ns, int64_t end_ns);

  int64_t NewRequestId();

  // Every span recorded so far, in completion order.
  std::vector<Span> Spans() const;

  // Drops every span (the warm-up's spans are not part of the run).
  void Reset();

  // One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NextId();

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 0;
  int64_t next_request_ = 0;
};

// A span's self time: its duration minus the part its children cover.
// Returns the summed self milliseconds per span name.
std::map<std::string, double> SelfMillisByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
