// Read-only plain-TCP telemetry endpoints for triad_timed.
//
// The server lives on the *node thread's* epoll loop: accepts, request
// parsing, rendering, and replies all run between protocol callbacks on
// that one thread, so the metrics Registry and the trace ring — both
// node-thread state, per the one-Registry-per-run rule — are read
// without any locking. The serve workers never touch the telemetry
// plane; their only cost is one relaxed atomic load per receive batch
// (see active_conns), paid to sample queue depth only while a scraper
// is actually connected.
//
// Endpoints (HTTP/1.0, Connection: close, GET only):
//   /metrics   Prometheus text exposition (obs::write_prometheus) —
//              byte-identical families to the exit dump, values live;
//   /trace     the last 2^16 events of the trace ring as JSONL (obs
//              schema, parse_jsonl-compatible) — ships the node's
//              protocol trace for triad_mon's cluster merge;
//   /prof      profiler scope table (obs::Profiler), empty tree when
//              profiling is off. Exact only while instrumented worker
//              threads are quiescent (merge()'s standing caveat).
// Anything else answers 404. The plane is deliberately plain TCP with
// no auth: it is read-only and belongs on an operator network, exactly
// like a Prometheus scrape target. What "unauthenticated" still must
// not allow is resource pinning: at most `max_pending` connections are
// held (oldest evicted), and a connection that has not completed a
// request line within `request_deadline` is swept by a periodic timer,
// so idle or half-open clients cannot exhaust fds or keep
// active_conns() nonzero forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/env.h"
#include "runtime/real_env.h"
#include "util/types.h"

namespace triad::timed {

class TelemetryServer {
 public:
  /// What the endpoints render. All pointers are non-owning and must
  /// outlive the server; null disables the endpoint (404).
  struct Sources {
    const obs::Registry* registry = nullptr;
    const obs::RingTraceSink* trace = nullptr;
    /// Renders /prof; empty function disables the endpoint.
    std::function<std::string()> prof;
    /// Most simultaneous pending connections; accepting past the cap
    /// evicts the oldest, so stalled clients cannot exhaust fds.
    std::size_t max_pending = 32;
    /// Connections that have not completed a request line within this
    /// deadline (> 0) are closed by a periodic sweep.
    Duration request_deadline = seconds(5);
    /// Invoked (on the node thread) whenever the last open scraper
    /// connection closes — the active_conns() 1 -> 0 edge. TimedService
    /// uses it to zero the workers' batch-depth gauges so a disconnected
    /// scraper's last sample does not linger as a live-looking reading.
    std::function<void()> on_scrapers_idle;
  };

  /// Binds `addr` and registers with `loop`. `env` must be the
  /// environment driving `loop` (its scheduler runs the idle-connection
  /// sweep). Check valid() afterwards.
  TelemetryServer(runtime::EpollLoop& loop, runtime::Env env,
                  runtime::SockAddr addr, Sources sources);
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  [[nodiscard]] bool valid() const { return listener_.valid(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] runtime::SockAddr local_addr() const {
    return listener_.local_addr();
  }

  /// Requests answered (any status), for the final summary.
  [[nodiscard]] std::uint64_t scrapes() const { return scrapes_; }

  /// Open scraper connections. Written on the node thread, read with
  /// memory_order_relaxed by the serve workers' hot path — the single
  /// check that keeps telemetry free when nobody is scraping.
  [[nodiscard]] const std::atomic<std::uint32_t>& active_conns() const {
    return active_conns_;
  }

 private:
  struct PendingConn {
    runtime::TcpConn conn;
    std::string request;
    std::uint64_t accepted_ns = 0;  // MonotonicTimer::now_ns() at accept
  };

  void on_accept();
  void on_conn_readable(int fd);
  void close_conn(int fd);
  void sweep_stale_conns();
  void respond(PendingConn& pending);
  [[nodiscard]] std::string render(std::string_view path, int* status) const;

  runtime::EpollLoop& loop_;
  runtime::Env env_;
  Sources sources_;
  // error_ must be declared (constructed) before listener_: the
  // initializer list hands &error_ to TcpListener::open.
  std::string error_;
  runtime::TcpListener listener_;
  std::vector<std::unique_ptr<PendingConn>> conns_;
  std::unique_ptr<runtime::PeriodicTimer> sweeper_;
  std::uint64_t scrapes_ = 0;
  std::atomic<std::uint32_t> active_conns_{0};
};

}  // namespace triad::timed
