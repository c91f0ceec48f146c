// In-memory span log for the traced run. Spans are recorded only around
// calls the benchmark itself makes (client RPCs, Engine/PreparedQuery/
// BoundQuery/ResultCursor calls, wire::Encode), kept in memory, and written
// out as TSV when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< index of the enclosing span, -1 at the root
  int64_t query = -1;    ///< generated-query index, -1 for group spans
  int64_t self_ns = 0;   ///< filled by ComputeSelfTimes()
};

class SpanLog {
 public:
  int32_t Begin(const char* name, int32_t parent, int64_t query) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.query = query;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  /// Self time = own duration minus the part covered by direct children
  /// (children of one thread never overlap).
  void ComputeSelfTimes() {
    for (auto& s : spans_) s.self_ns = s.end_ns - s.start_ns;
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        spans_[static_cast<size_t>(s.parent)].self_ns -= s.end_ns - s.start_ns;
      }
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\tquery\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%lld\t%lld\n", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.query),
                   static_cast<long long>(s.self_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span that records nothing when the log is null (untraced groups).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent, int64_t query)
      : log_(log), id_(log ? log->Begin(name, parent, query) : -1) {}
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

}  // namespace servebench
