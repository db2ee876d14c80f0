#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

struct SpanRecord {
  const char* name;
  double start_ms;
  double end_ms;  ///< Negative while open.
  int64_t parent;
  int thread;
  double child_ms;  ///< Sum of same-thread child durations.
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::deque<SpanRecord> g_spans;  // Stable references across push_back.
std::atomic<int> g_next_thread{0};

thread_local std::vector<int64_t> t_stack;
thread_local int t_thread = -1;

double ClockMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Trace::Enable(bool enabled) { g_enabled.store(enabled); }

bool Trace::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t Trace::Begin(const char* name) {
  if (!enabled()) return -1;
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  const int64_t parent = t_stack.empty() ? -1 : t_stack.back();
  const double now = ClockMs();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    id = static_cast<int64_t>(g_spans.size());
    g_spans.push_back({name, now, -1.0, parent, t_thread, 0.0});
  }
  t_stack.push_back(id);
  return id;
}

void Trace::End(int64_t id) {
  if (id < 0) return;
  const double now = ClockMs();
  std::lock_guard<std::mutex> lock(g_mu);
  SpanRecord& span = g_spans[static_cast<size_t>(id)];
  span.end_ms = now;
  if (span.parent >= 0) {
    g_spans[static_cast<size_t>(span.parent)].child_ms +=
        span.end_ms - span.start_ms;
  }
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

std::map<std::string, Trace::Totals> Trace::Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, Totals> out;
  for (const SpanRecord& span : g_spans) {
    if (span.end_ms < 0.0) continue;
    Totals& totals = out[span.name];
    const double duration = span.end_ms - span.start_ms;
    ++totals.count;
    totals.total_ms += duration;
    totals.self_ms += duration - span.child_ms;
  }
  return out;
}

bool Trace::Write(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& span = g_spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"thread\": %d, \"parent\": %lld}\n",
                 i, span.name, span.start_ms, span.end_ms, span.thread,
                 static_cast<long long>(span.parent));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
