#include "trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <mutex>

namespace htapbench {

namespace {

// Spans kept per thread for the JSON-lines file; every span still counts in
// the summaries past this cap.
constexpr size_t kKeptPerThread = 50000;

bool g_tracing = false;

struct Record {
  uint64_t id, parent, request;
  int64_t start_ns, end_ns;
  SpanName name;
};

struct OpenSpan {
  uint64_t id, request;
  int64_t start_ns;
  int64_t child_ns = 0;
  SpanName name;
};

struct ThreadLog {
  uint64_t prefix = 0;  // thread index in the high bits of every id
  uint64_t next = 0;
  std::vector<OpenSpan> stack;
  std::vector<Record> kept;
  size_t dropped = 0;
  std::array<uint64_t, kNumSpanNames> count{};
  std::array<int64_t, kNumSpanNames> total_ns{}, child_ns{};
  std::array<std::vector<uint32_t>, kNumSpanNames> durations_ns;
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu
int64_t g_t0_ns = 0;

ThreadLog* Local() {
  thread_local ThreadLog* log = [] {
    std::lock_guard<std::mutex> lk(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->prefix = static_cast<uint64_t>(g_logs.size()) << 40;
    return g_logs.back().get();
  }();
  return log;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanNameString(SpanName n) {
  static const char* const kNames[kNumSpanNames] = {
      "txn",  "attempt", "begin",     "get",        "update",
      "insert", "commit", "query",    "sql.parse",  "exec",
      "sync.force", "probe.stale_read"};
  return kNames[static_cast<size_t>(n)];
}

void EnableTracing() {
  g_tracing = true;
  g_t0_ns = NowNs();
}

bool TracingEnabled() { return g_tracing; }

Span::Span(SpanName name) {
  if (!g_tracing) return;
  open_ = true;
  ThreadLog* log = Local();
  OpenSpan s;
  s.id = log->prefix | ++log->next;
  s.request = log->stack.empty() ? s.id : log->stack.back().request;
  s.name = name;
  s.start_ns = NowNs();
  log->stack.push_back(s);
}

Span::~Span() {
  if (!open_) return;
  const int64_t end = NowNs();
  ThreadLog* log = Local();
  const OpenSpan s = log->stack.back();
  log->stack.pop_back();
  const int64_t dur = end - s.start_ns;
  const size_t n = static_cast<size_t>(s.name);
  ++log->count[n];
  log->total_ns[n] += dur;
  log->child_ns[n] += s.child_ns;
  log->durations_ns[n].push_back(
      static_cast<uint32_t>(std::min<int64_t>(dur, UINT32_MAX)));
  uint64_t parent = 0;
  if (!log->stack.empty()) {
    log->stack.back().child_ns += dur;
    parent = log->stack.back().id;
  }
  if (log->kept.size() < kKeptPerThread)
    log->kept.push_back(Record{s.id, parent, s.request, s.start_ns, end, s.name});
  else
    ++log->dropped;
}

std::vector<SpanSummary> SummarizeSpans() {
  std::vector<SpanSummary> out(kNumSpanNames);
  std::lock_guard<std::mutex> lk(g_logs_mu);
  for (const auto& log : g_logs) {
    for (size_t n = 0; n < kNumSpanNames; ++n) {
      out[n].count += log->count[n];
      out[n].total_ms += static_cast<double>(log->total_ns[n]) / 1e6;
      out[n].self_ms +=
          static_cast<double>(log->total_ns[n] - log->child_ns[n]) / 1e6;
      for (uint32_t d : log->durations_ns[n])
        out[n].durations_us.push_back(static_cast<double>(d) / 1e3);
    }
  }
  return out;
}

size_t WriteSpans(const std::string& path, size_t* dropped) {
  *dropped = 0;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t written = 0;
  std::lock_guard<std::mutex> lk(g_logs_mu);
  for (const auto& log : g_logs) {
    *dropped += log->dropped;
    for (const Record& r : log->kept) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.request),
                   SpanNameString(r.name),
                   static_cast<double>(r.start_ns - g_t0_ns) / 1e3,
                   static_cast<double>(r.end_ns - g_t0_ns) / 1e3);
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

}  // namespace htapbench
