// In-memory span log for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each TReX layer (never inside the library): name, start, end, parent
// span and the query id the work belongs to. They stay in memory while
// the run measures and are written out once, after it. Per-layer times
// are sums of span durations by name.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr int32_t kNoParent = -1;
  static constexpr uint64_t kNoQuery = UINT64_MAX;

  // Every span is kept: the log grows with the run (40 bytes a span).
  // Opens a span and returns its id.
  int32_t Begin(const char* name, int32_t parent, uint64_t query_id);
  void End(int32_t id);
  // Records a span whose interval was measured by the caller.
  int32_t Add(const char* name, int64_t start_nanos, int64_t end_nanos,
              int32_t parent, uint64_t query_id);

  // Total duration and count of the ended spans named `name`.
  struct Totals {
    int64_t nanos = 0;
    uint64_t count = 0;
  };
  Totals TotalsFor(const std::string& name) const;

  // One JSON object per line: {"id","name","start_ns","end_ns",
  // "parent","query"}; times are relative to the first span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    int32_t parent;
    uint64_t query;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Opens a span for the scope's lifetime; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name,
             int32_t parent = SpanLog::kNoParent,
             uint64_t query_id = SpanLog::kNoQuery)
      : log_(log),
        id_(log == nullptr ? -1 : log->Begin(name, parent, query_id)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
