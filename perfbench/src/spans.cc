#include "spans.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/clock.h"

namespace perfbench {

int32_t SpanLog::Begin(const char* name, int32_t parent, uint64_t query_id) {
  const int64_t now = trex::NowNanos();
  return Add(name, now, -1, parent, query_id);
}

void SpanLog::End(int32_t id) {
  if (id < 0) return;
  const int64_t now = trex::NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int32_t SpanLog::Add(const char* name, int64_t start_nanos, int64_t end_nanos,
                     int32_t parent, uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_nanos, end_nanos, parent, query_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

SpanLog::Totals SpanLog::TotalsFor(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  for (const Span& s : spans_) {
    if (s.end < 0 || std::strcmp(s.name, name.c_str()) != 0) continue;
    t.nanos += s.end - s.start;
    ++t.count;
  }
  return t;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d",
                 i, s.name, s.start - origin,
                 (s.end < 0 ? s.start : s.end) - origin, s.parent);
    if (s.query == kNoQuery) {
      std::fprintf(f, ",\"query\":null}\n");
    } else {
      std::fprintf(f, ",\"query\":%" PRIu64 "}\n", s.query);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
