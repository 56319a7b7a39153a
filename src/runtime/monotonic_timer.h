// The repo's single sanctioned wall-clock source.
//
// Everything inside the determinism contract reads time from
// runtime::Clock (virtual time). Wall time exists only for measurement —
// profiler scopes (obs/prof.h), the benches under bench/, and campaign
// wall/queue timings — and all of it flows through this type,
// so triad_lint's R1 ambient-clock rule can allowlist exactly one file
// instead of exempting whole directories. Do not reach for
// std::chrono::steady_clock directly; wrap a MonotonicTimer.
//
// Header-only on purpose: obs/prof.cpp sits below triad_runtime in the
// link order and must not pull in a runtime object file.
#pragma once

#include <chrono>
#include <cstdint>

namespace triad::runtime {

/// Monotonic stopwatch. Construction starts it; restart() re-arms it.
/// Readings are wall time and therefore *never* part of byte-stable
/// output — aggregate reports exclude every value derived from one.
class MonotonicTimer {
 public:
  MonotonicTimer() : start_(now_ns()) {}

  void restart() { start_ = now_ns(); }

  /// Nanoseconds since construction / the last restart().
  [[nodiscard]] std::uint64_t elapsed_ns() const { return now_ns() - start_; }

  [[nodiscard]] double elapsed_ms() const {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

  /// Raw monotonic reading (ns since an arbitrary epoch). For interval
  /// math only; the epoch is meaningless across processes.
  [[nodiscard]] static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::uint64_t start_;
};

}  // namespace triad::runtime
