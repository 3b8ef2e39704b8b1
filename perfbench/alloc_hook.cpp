#include "alloc_hook.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::int64_t> live{0};
};

// More slots than the benchmark ever has threads; a wrap would only make
// two threads share a slot, which the atomics keep correct.
constexpr unsigned kSlots = 64;
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
std::atomic<bool> g_enabled{false};
thread_local Slot* t_slot = nullptr;

Slot& my_slot() {
  if (t_slot == nullptr) {
    t_slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) %
                      kSlots];
  }
  return *t_slot;
}

void note_alloc(void* p, std::size_t n) {
  Slot& s = my_slot();
  s.allocs.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(n, std::memory_order_relaxed);
  s.live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void note_free(void* p) {
  my_slot().live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
}

}  // namespace

void enable() { g_enabled.store(true, std::memory_order_relaxed); }

Totals totals() {
  Totals t;
  for (const Slot& s : g_slots) {
    t.allocs += s.allocs.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
    t.live += s.live.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perfbench::heap

// noinline: once inlined into a new-expression, GCC pairs the visible
// malloc with the sized delete and raises a bogus -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (perfbench::heap::g_enabled.load(std::memory_order_relaxed)) {
    perfbench::heap::note_alloc(p, n);
  }
  return p;
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  if (p != nullptr &&
      perfbench::heap::g_enabled.load(std::memory_order_relaxed)) {
    perfbench::heap::note_free(p);
  }
  std::free(p);
}

__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}
