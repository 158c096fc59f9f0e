// In-memory span recorder for the traced run. The benchmark thread opens a
// span around each call it makes into a layer (name, start, end, parent);
// spans stay in memory and are written out once, as Chrome trace-event
// JSON, after the run has ended.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanLog {
 public:
  struct Span {
    const char* name;  ///< string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
  };

  /// Opens a span under the innermost open one; returns its index.
  int open(const char* name) {
    spans_.push_back(Span{name, now_ns(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes the innermost open span; returns its duration in ns.
  std::uint64_t close() {
    Span& span = spans_[static_cast<std::size_t>(open_.back())];
    open_.pop_back();
    span.end_ns = now_ns();
    return span.end_ns - span.start_ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every closed span as a complete ("X") trace event; args carry
  /// the span's own index and its parent's. Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d}}",
                   i == 0 ? "" : ",\n", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; accumulates its duration into `*total_ns` when given. A null
/// log (an untraced run) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t* total_ns = nullptr)
      : log_(log), total_ns_(total_ns) {
    if (log_ != nullptr) log_->open(name);
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    const std::uint64_t ns = log_->close();
    if (total_ns_ != nullptr) *total_ns_ += ns;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint64_t* total_ns_;
};

}  // namespace perfbench
