// Spans around the benchmark's own calls into each layer of htapdb.
//
// A Span records its name, start, end, parent span and the request (one
// transaction or one query) it belongs to. Spans live in per-thread logs in
// memory; nothing is written until the run ends. With tracing off a Span is
// one branch on a global flag, so the untraced run pays nothing else.

#ifndef HTAPBENCH_TRACE_H_
#define HTAPBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace htapbench {

/// Steady-clock time in nanoseconds; every timestamp the benchmark takes.
int64_t NowNs();

enum class SpanName : uint8_t {
  kTxn,        // one business transaction, all attempts
  kAttempt,    // one attempt of it
  kBegin,
  kGet,
  kUpdate,
  kInsert,
  kCommit,
  kQuery,      // one analytical query
  kSqlParse,
  kExec,
  kSyncForce,  // ForceSync / ForceSyncAll
  kProbe,      // the stale-read probe
  kCount
};
constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName n);

/// Set once, before any worker thread starts.
void EnableTracing();
bool TracingEnabled();

class Span {
 public:
  explicit Span(SpanName name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool open_ = false;
};

/// Per span name, summed over every thread's log.
struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;              // total minus the time of child spans
  std::vector<double> durations_us;  // every span's duration
};

/// Merges the thread logs. Call after every worker thread has joined.
std::vector<SpanSummary> SummarizeSpans();

/// Writes the kept spans as JSON lines; returns how many were written and
/// sets *dropped to the spans beyond the per-thread cap.
size_t WriteSpans(const std::string& path, size_t* dropped);

}  // namespace htapbench

#endif  // HTAPBENCH_TRACE_H_
