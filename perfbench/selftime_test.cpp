// Checks the self-time arithmetic on a synthetic set of nested spans with
// hand-computed answers.  Exit code 0 on success; run.py runs it before
// every traced run, and ctest runs it in the benchmark's build directory.
#include <cstdio>
#include <vector>

#include "spans.hpp"

namespace {

int failures = 0;

void expect_eq(long long got, long long want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "selftime_test: %s = %lld, want %lld\n", what, got,
                 want);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::kNoParent;
  using perfbench::Span;
  // Names: 0 = step, 1 = link, 2 = phy.
  //
  //   0 step  [0, 100)
  //   1   link  [10, 40)
  //   2     phy   [15, 25)
  //   3     phy   [20, 30)   overlaps its sibling: [15, 30) counts once
  //   4   link  [50, 60)
  //   5   phy   [55, 70)     overlaps the link before it
  //   6   phy   [90, 120)    runs past its parent: only [90, 100) counts
  //   7 step  [200, 210)     no children
  //   8   link  [195, 205)   starts before its parent: only [200, 205)
  const std::vector<Span> spans = {
      {0, kNoParent, 0, 100}, {1, 0, 10, 40},  {2, 1, 15, 25},
      {2, 1, 20, 30},         {1, 0, 50, 60},  {2, 0, 55, 70},
      {2, 0, 90, 120},        {0, kNoParent, 200, 210}, {1, 7, 195, 205},
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  // step 0: 100 - |[10,40) u [50,60) u [55,70) u [90,100)| = 100 - 60.
  expect_eq(self[0], 40, "self[0]");
  expect_eq(self[1], 15, "self[1]");  // 30 - |[15,30)|
  expect_eq(self[2], 10, "self[2]");
  expect_eq(self[3], 10, "self[3]");
  expect_eq(self[4], 10, "self[4]");
  expect_eq(self[5], 15, "self[5]");
  expect_eq(self[6], 30, "self[6]");
  expect_eq(self[7], 5, "self[7]");  // 10 - |[200,205)|
  expect_eq(self[8], 10, "self[8]");

  const auto totals = perfbench::totals_by_name(spans, 3);
  expect_eq(static_cast<long long>(totals[0].count), 2, "step count");
  expect_eq(totals[0].self_ns, 45, "step self");
  expect_eq(totals[0].total_ns, 110, "step total");
  expect_eq(static_cast<long long>(totals[1].count), 3, "link count");
  expect_eq(totals[1].self_ns, 35, "link self");
  expect_eq(static_cast<long long>(totals[2].count), 4, "phy count");
  expect_eq(totals[2].self_ns, 65, "phy self");
  // Self times partition the wall time under the top-level spans (110 ns),
  // except where the synthetic spans break nesting: stretches of a child
  // outside its parent ([100, 120) of span 6, [195, 200) of span 8) and
  // overlaps between siblings ([20, 25) of spans 2/3, [55, 60) of 4/5),
  // which each child keeps in full.
  expect_eq(totals[0].self_ns + totals[1].self_ns + totals[2].self_ns,
            110 + 20 + 5 + 5 + 5, "self sum");

  if (failures != 0) return 1;
  std::puts("selftime_test: ok");
  return 0;
}
