// In-memory span recording for the traced benchmark run.
//
// A span is one call the benchmark makes or wires into a layer: a name,
// a start and end (steady_clock ns), and the span that was open when it
// began.  Spans are appended in start order and kept in memory; the run
// aggregates them per name at the end and can dump them to a file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::uint32_t name = 0;          // index into SpanRecorder::names()
  std::uint32_t parent = kNoParent;  // enclosing span, or kNoParent
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-threaded recorder: one stack of open spans.
class SpanRecorder {
 public:
  std::uint32_t intern(std::string_view name);

  std::uint32_t begin(std::uint32_t name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, open_, now_ns(), 0});
    open_ = index;
    return index;
  }
  void end(std::uint32_t index) {
    Span& s = spans_[index];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes every span as fixed 24-byte little-endian records after a
  /// header listing the names; returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::uint32_t open_ = kNoParent;
};

/// Records one span for its scope; does nothing when `recorder` is null,
/// which is how the untraced run shares the wiring code.
class SpanGuard {
 public:
  SpanGuard(SpanRecorder* recorder, std::uint32_t name)
      : recorder_(recorder), index_(recorder ? recorder->begin(name) : 0) {}
  ~SpanGuard() {
    if (recorder_) recorder_->end(index_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t index_;
};

/// Per-span self time: the span's duration minus the part of its interval
/// covered by its children (overlapping children count once, and a child
/// reaching outside its parent counts only inside it).  Requires spans in
/// start order, as SpanRecorder appends them.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
};

/// Count, summed self time and summed duration per name index.
std::vector<NameTotals> totals_by_name(const std::vector<Span>& spans,
                                       std::size_t name_count);

}  // namespace perfbench
