// Span recorder for the traced run. The benchmark wraps each public library
// call it makes in a span (name, start, end, parent, step id); spans stay in
// memory and are written out once the run ends. A disabled recorder costs
// one branch per span, so the untimed and timed paths share one code path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";     ///< static string: the wrapped call
  std::int64_t start_ns = 0;  ///< steady_clock, relative to the recorder
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the top
  std::uint32_t step = 0;    ///< time step the span belongs to
};

class Spans {
 public:
  explicit Spans(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  /// Every span opened from now on belongs to time step `step`.
  void set_step(std::uint32_t step) { step_ = step; }

  /// Opens a span; returns its index, or -1 when recording is off.
  int open(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int idx = static_cast<int>(records_.size());
    records_.push_back(SpanRecord{
        name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), step_});
    stack_.push_back(idx);
    return idx;
  }

  void close(int idx) {
    if (idx < 0) {
      return;
    }
    records_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& records() const { return records_; }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;

  /// Total self time in nanoseconds per span name: each span's duration
  /// minus the time its direct children cover.
  std::map<std::string, double> self_ns_by_name() const;

  /// Writes one tab-separated line per span (index, parent, step, name,
  /// start_ns, end_ns). Returns false when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
  std::uint32_t step_ = 0;
};

/// Records one span for its lifetime.
class Span {
 public:
  Span(Spans& spans, const char* name)
      : spans_(spans), idx_(spans.open(name)) {}
  ~Span() { spans_.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
  int idx_;
};

}  // namespace perfbench
