// Heap accounting for the traced run: replaces global operator new/delete
// (in alloc_hook.cpp) with versions that, once enabled, count allocations,
// requested bytes and live bytes.  Counters sit in per-thread slots padded
// to a cache line, so the parallel engine's workers never share one.
// Disabled (the untraced run), the hook costs one relaxed load per call.
//
// This is bench/harness.hpp's hook made switchable and per-thread: that one
// counts every allocation on shared atomics, which would slow the untraced
// sharded run, and the benchmark must not change when bench/ does.
#pragma once

#include <cstdint>

namespace perfbench::heap {

struct Totals {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;  // requested, cumulative
  std::int64_t live = 0;    // malloc_usable_size of blocks not yet freed
};

void enable();
/// Sum over all threads' slots.  Exact only while no other thread
/// allocates (between parallel-engine epochs, or single-threaded).
Totals totals();

}  // namespace perfbench::heap
