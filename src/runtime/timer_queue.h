// The one timer queue behind both Scheduler bindings, sim::Simulation and
// runtime::RealScheduler. It owns the determinism contract's ordering
// rule: entries pop in (time, seq) order, so equal deadlines fire in
// scheduling order (FIFO). Rejecting a past time, clamping a negative
// delay or advancing a clock is the caller's policy.
//
// Handlers live in a slab with an intrusive free list: push and cancel
// are array indexing plus one std::function move, with no hashing and
// no per-entry node allocation. A TimerId is (generation << 32 | slot+1).
// Cancel frees the slot at once and bumps its generation, so the heap
// entry left behind matches no slot: a tombstone, dropped at the top.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/env.h"
#include "util/types.h"

namespace triad::runtime {

class TimerQueue {
 public:
  /// Queues fn at time t; FIFO after every entry already queued at t.
  TimerId push(SimTime t, std::function<void()> fn) {
    std::uint32_t index;
    if (free_head_ != kNoFreeSlot) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.fn = std::move(fn);
    const std::uint64_t id =
        (static_cast<std::uint64_t>(slot.generation) << 32) | (index + 1ull);
    heap_.push_back(Entry{t, next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++live_count_;
    return TimerId{id};
  }

  /// Drops a pending entry (and its handler's captures) now. Returns
  /// false for an invalid, fired or already-cancelled id.
  bool cancel(TimerId id) {
    const std::uint32_t index = slot_of(id.value);
    if (!id.valid() || index >= slots_.size() || !matches(id.value)) {
      return false;
    }
    release(index);
    return true;
  }

  /// Time of the earliest pending entry, or nullopt when none is.
  [[nodiscard]] std::optional<SimTime> next_deadline() {
    purge_dead_top();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time;
  }

  /// Pops the earliest pending entry if its time is <= limit: stores its
  /// time in *at, moves its handler into *fn and returns true. The slot
  /// is already recycled when the caller runs *fn, so the handler may
  /// push and cancel freely.
  bool pop_due(SimTime limit, SimTime* at, std::function<void()>* fn) {
    purge_dead_top();
    if (heap_.empty() || heap_.front().time > limit) return false;
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    const std::uint32_t index = slot_of(top.id);
    *at = top.time;
    *fn = std::move(slots_[index].fn);
    release(index);
    return true;
  }

  /// Exact number of pending (not fired, not cancelled) entries.
  [[nodiscard]] std::size_t size() const { return live_count_; }

 private:
  /// A free slot's generation was bumped when it was freed, so no id
  /// minted before matches it until push hands it out again.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;
  };
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-breaker: FIFO among equal times
    std::uint64_t id;
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  /// std heaps keep the "largest" on top: ordering later entries first
  /// leaves the earliest (time, seq) there.
  static bool later(const Entry& a, const Entry& b) {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }

  /// True when `id` names the entry its slot currently holds.
  bool matches(std::uint64_t id) const {
    return slots_[slot_of(id)].generation == generation_of(id);
  }

  /// Frees a live slot: drops the handler, invalidates outstanding ids.
  void release(std::uint32_t index) {
    Slot& slot = slots_[index];
    slot.fn = nullptr;
    ++slot.generation;
    slot.next_free = free_head_;
    free_head_ = index;
    --live_count_;
  }

  /// Pops tombstones so heap_.front() (if any) is a pending entry.
  void purge_dead_top() {
    while (!heap_.empty() && !matches(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
    }
  }

  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace triad::runtime
