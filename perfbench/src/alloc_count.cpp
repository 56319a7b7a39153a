#include "alloc_count.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One slot per thread, cache-line sized so two threads never share a
// line. Only the owning thread writes its slot (a relaxed load/store
// pair, no read-modify-write); readers sum with relaxed loads. Threads
// past the slot count share the last slot through fetch_add.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};
constexpr std::size_t kSlots = kAllocSlots;
std::array<Slot, kSlots> g_slots;
std::atomic<std::size_t> g_next_slot{0};
thread_local std::size_t t_slot = kSlots;  // kSlots = not yet assigned

void count_one() {
  if (t_slot == kSlots) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
  }
  if (t_slot < kSlots - 1) {
    std::atomic<std::uint64_t>& c = g_slots[t_slot].count;
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  } else {
    g_slots[kSlots - 1].count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  count_one();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

void allocations_per_thread(PerThreadAllocations& out) {
  for (std::size_t i = 0; i < kSlots; ++i) {
    out[i] = g_slots[i].count.load(std::memory_order_relaxed);
  }
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
