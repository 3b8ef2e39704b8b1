#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

bool SpanRecorder::write(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) return false;
  // Header: "SPANS1\n", one name per line, a blank line, then the records.
  std::fputs("SPANS1\n", f.get());
  for (const std::string& n : names_) std::fprintf(f.get(), "%s\n", n.c_str());
  std::fputc('\n', f.get());
  static_assert(sizeof(Span) == 24);
  const std::size_t n = spans_.size();
  return std::fwrite(spans_.data(), sizeof(Span), n, f.get()) == n;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  // Children arrive in start order, so each parent's covered part is a
  // sweep: only the stretch of a child past what earlier children already
  // covered (and inside the parent) is new.
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<std::int64_t> covered_until(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    covered_until[i] = spans[i].start_ns;
  }
  for (const Span& c : spans) {
    if (c.parent == kNoParent) continue;
    const Span& p = spans[c.parent];
    const std::int64_t from = std::max(c.start_ns, covered_until[c.parent]);
    const std::int64_t to = std::min(c.end_ns, p.end_ns);
    if (to > from) {
      covered[c.parent] += to - from;
      covered_until[c.parent] = to;
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns - covered[i];
  }
  return self;
}

std::vector<NameTotals> totals_by_name(const std::vector<Span>& spans,
                                       std::size_t name_count) {
  std::vector<NameTotals> totals(name_count);
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals.at(spans[i].name);
    ++t.count;
    t.self_ns += self[i];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
  }
  return totals;
}

}  // namespace perfbench
