// Exact heap-allocation counts for the whole process.
//
// alloc_count.cpp replaces the global operator new family, so every
// allocation made by the program's libraries inside this binary is
// counted, on every thread. Each thread counts into its own slot (no
// shared cache line on the allocation path); allocations() sums them.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench {

inline constexpr std::size_t kAllocSlots = 256;
using PerThreadAllocations = std::array<std::uint64_t, kAllocSlots>;

/// Allocations made so far by every thread of the process.
[[nodiscard]] std::uint64_t allocations();

/// Allocations so far, one entry per thread slot (threads get slots in
/// the order of their first allocation). Allocates nothing itself.
void allocations_per_thread(PerThreadAllocations& out);

}  // namespace perfbench
