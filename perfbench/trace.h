#ifndef IMCAT_PERFBENCH_TRACE_H_
#define IMCAT_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

/// \file trace.h
/// In-memory span recorder for the traced benchmark run. The benchmark
/// opens a span around each call it makes into a layer's public API; a
/// span records its name, start, end, thread and the span that was open
/// on the same thread when it started (its parent). Spans stay in memory
/// and are written out once, when the run ends. With tracing disabled
/// (the untraced run that measures end-to-end metrics) a span is one
/// branch on a global flag: no clock reads, no allocation.

namespace perfbench {

class Trace {
 public:
  static void Enable(bool enabled);
  static bool enabled();

  /// Opens a span on the calling thread; returns its id (-1 when off).
  static int64_t Begin(const char* name);
  /// Closes span `id` (no-op for -1).
  static void End(int64_t id);

  /// Per-name totals over every closed span.
  struct Totals {
    int64_t count = 0;
    double total_ms = 0.0;
    /// Duration minus the time covered by same-thread child spans.
    double self_ms = 0.0;
  };
  static std::map<std::string, Totals> Summarize();

  /// Writes every span as JSON lines (name, start_ms, end_ms, thread,
  /// parent) to `path`.
  static bool Write(const std::string& path);
};

/// RAII span.
class Span {
 public:
  explicit Span(const char* name) : id_(Trace::Begin(name)) {}
  ~Span() { Trace::End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

}  // namespace perfbench

#endif  // IMCAT_PERFBENCH_TRACE_H_
