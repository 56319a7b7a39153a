// triad_timed service layer: a triad::Node (or ta::TimeAuthority) bound
// to real sockets through runtime::RealEnv, serving sealed timestamp
// requests to external clients.
//
// Thread model (the part RealEnv alone does not give you):
//   * the *node thread* runs the RealEnv loop — all protocol traffic
//     (TA calibration round-trips, peer untainting) and the TriadNode
//     state machine live there, single-threaded, exactly as under
//     SimEnv;
//   * N *serve workers* each own an epoll loop plus a UDP socket bound
//     to the serve address with SO_REUSEPORT. The kernel's flow hash
//     pins every client to one worker, so each worker's SecureChannel
//     (send counters, replay windows) sees a consistent per-client
//     stream — sharding the crypto state instead of locking it;
//   * the node thread publishes a clock snapshot (time, monotonic
//     anchor, error bound, availability) once per millisecond;
//     workers answer requests by extrapolating the snapshot at rate 1,
//     clamped per-worker monotone. TriadNode itself is never touched
//     off the node thread.
//
// Registry access stays single-threaded: all series are registered on
// the construction thread, worker counters are std::atomic fields read
// through counter_fn callbacks, and snapshots are only taken after the
// workers have joined (final dump) — the same one-Registry-per-run rule
// the campaign engine follows.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/channel.h"
#include "obs/detect.h"
#include "obs/trace.h"
#include "runtime/real_env.h"
#include "ta/time_authority.h"
#include "timed/telemetry.h"
#include "triad/client.h"
#include "triad/node.h"
#include "util/types.h"

namespace triad::timed {

/// Node-clock snapshot shared from the node thread to the serve workers.
struct ClockSnapshot {
  SimTime time = 0;            // node clock at publish
  std::uint64_t mono_ns = 0;   // MonotonicTimer::now_ns() at publish
  Duration error_bound = 0;
  bool available = false;
};

/// Mutex-guarded single-slot publish/read board. The serve path takes
/// the lock once per *batch*, not per request.
class SnapshotBoard {
 public:
  void publish(const ClockSnapshot& snap) {
    const std::lock_guard<std::mutex> lock(mutex_);
    snap_ = snap;
  }
  [[nodiscard]] ClockSnapshot read() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return snap_;
  }

 private:
  mutable std::mutex mutex_;
  ClockSnapshot snap_;
};

/// Per-worker counters (atomics: written by the worker thread, read by
/// registry callbacks and the final summary).
struct WorkerStats {
  std::atomic<std::uint64_t> requests{0};      // authenticated requests
  std::atomic<std::uint64_t> responses{0};     // sealed answers sent
  std::atomic<std::uint64_t> unavailable{0};   // answered tainted=true
  std::atomic<std::uint64_t> bad_frames{0};    // auth/replay/proto failures
  std::atomic<std::uint64_t> decode_errors{0};  // wire-header garbage
  std::atomic<std::uint64_t> send_failures{0};
  /// Last receive-batch size, sampled only while a telemetry scraper is
  /// connected (see ServeWorker::set_scrape_signal) — a live queue-depth
  /// gauge that costs the hot path one relaxed load when nobody scrapes.
  /// Zeroed when the last scraper disconnects (TelemetryServer's
  /// on_scrapers_idle) and on the first unscraped batch after a sampled
  /// one, so a stale depth never lingers as a live-looking reading.
  std::atomic<std::uint64_t> batch_depth{0};
};

/// One SO_REUSEPORT serve worker: epoll loop + socket + SecureChannel.
/// Constructed and started by TimedService; public only so tests can
/// exercise the serve path without a full daemon.
class ServeWorker {
 public:
  ServeWorker(runtime::SockAddr serve, NodeId node_id,
              const crypto::Keyring& keyring, const SnapshotBoard& board);

  [[nodiscard]] bool valid() const { return socket_.valid(); }
  [[nodiscard]] const std::string& bind_error() const { return bind_error_; }
  [[nodiscard]] runtime::SockAddr local_addr() const {
    return socket_.local_addr();
  }
  [[nodiscard]] const WorkerStats& stats() const { return stats_; }

  void start();  // spawns the worker thread
  void stop();   // async-signal-safe (epoll eventfd write)
  void join();

  /// Points the worker at the telemetry server's open-connection count;
  /// batch depth is sampled into stats only while it is nonzero. Call
  /// before start() (the worker thread reads it unsynchronized).
  void set_scrape_signal(const std::atomic<std::uint32_t>* conns) {
    scrape_signal_ = conns;
  }

  /// Resets the batch-depth gauge to 0. Called from the node thread when
  /// the last scraper disconnects (atomic store; safe while running).
  void clear_batch_depth() {
    stats_.batch_depth.store(0, std::memory_order_relaxed);
  }

 private:
  void run();
  void on_readable();
  /// Sends the first `count` replies of the batch in sendmmsg calls.
  void flush(std::size_t count);

  // bind_error_ must be declared (constructed) before socket_: the
  // initializer list hands &bind_error_ to UdpSocket::bind.
  std::string bind_error_;
  runtime::UdpSocket socket_;
  runtime::EpollLoop loop_;
  runtime::RealClock clock_;
  runtime::RealScheduler scheduler_{clock_};
  crypto::SecureChannel channel_;
  const SnapshotBoard& board_;
  const std::atomic<std::uint32_t>* scrape_signal_ = nullptr;
  bool batch_depth_sampled_ = false;  // worker thread only
  WorkerStats stats_;
  SimTime last_served_ = 0;  // per-worker monotonicity clamp
  // The reply path's buffers, reused by every request: the opened
  // request, the encoded and the sealed answer, and one framed reply per
  // receive-batch slot, which flush() sends together.
  Bytes plaintext_;
  Bytes encoded_;
  Bytes sealed_;
  std::array<Bytes, runtime::kRecvBatch> reply_slots_;
  std::array<runtime::SendView, runtime::kRecvBatch> sends_;
  std::thread thread_;
};

/// What the daemon runs as.
enum class Role : std::uint8_t {
  kNode,  // triad::Node + serve workers
  kTa,    // ta::TimeAuthority (reference clock root of trust)
};

struct ServiceConfig {
  Role role = Role::kNode;
  /// Protocol endpoint (TA round-trips, peer untainting). Port 0 picks
  /// an ephemeral port — fine for tests, not for a static cluster.
  runtime::SockAddr listen{runtime::kLoopbackAny};
  /// Client-facing endpoint (node role only; port 0 = ephemeral).
  runtime::SockAddr serve{runtime::kLoopbackAny};
  int workers = 1;
  /// Static protocol address book: peers + TA. Unlisted peers are
  /// learned from incoming frames (see UdpTransport::on_readable).
  std::vector<std::pair<NodeId, runtime::SockAddr>> peers;
  /// Cluster master secret (stand-in for remote attestation; must match
  /// across the cluster and its clients).
  Bytes master_secret = Bytes(32, 0x42);
  std::uint64_t seed = 1;
  /// Node protocol parameters (node role). config.node.id is the
  /// service's wire identity; for the TA role `ta_id` is.
  TriadConfig node;
  NodeId ta_id = 0;

  // --- live telemetry (PR 9) -------------------------------------------
  /// Internal trace ring capacity (0 = none). The ring records the
  /// node's protocol trace for the /trace endpoint, the final dump
  /// (trace_ring()), and the detector bank's causal context; it is the
  /// service's only trace recording.
  std::size_t trace_capacity = 0;
  /// Online detectors (slope/disagreement/jump) teeing off the trace
  /// path after the recording sinks — alarms fire live and land in the
  /// ring *after* their triggering event, so replaying the shipped
  /// JSONL offline reproduces them (the offline==online invariant).
  bool enable_detectors = false;
  obs::DetectorConfig detectors;
  /// Telemetry listener (plain TCP, read-only; nullopt = none).
  std::optional<runtime::SockAddr> telemetry;
  /// Most simultaneous pending telemetry connections (oldest evicted).
  std::size_t telemetry_max_pending = 32;
  /// Telemetry connections that have not completed a request line within
  /// this deadline are closed.
  Duration telemetry_request_deadline = seconds(5);
};

/// The triad_timed daemon core (also driven in-process by tests and the
/// loopback bench). Construct, check valid(), start(), run()/run_for(),
/// stop() from a signal handler, then read stats after run() returns.
class TimedService {
 public:
  /// `metrics` (optional) receives the service's metric families and
  /// backs /metrics.
  explicit TimedService(ServiceConfig config,
                        obs::Registry* metrics = nullptr);
  ~TimedService();
  TimedService(const TimedService&) = delete;
  TimedService& operator=(const TimedService&) = delete;

  [[nodiscard]] bool valid() const;
  [[nodiscard]] std::string error() const;

  /// Starts protocol components and serve workers (node role).
  void start();
  /// Runs the node-thread loop until stop(). start() must have run.
  void run();
  void run_for(Duration d);
  /// Async-signal-safe: stops the node loop and every worker loop.
  void stop();
  /// Stops workers and joins their threads (run() does this on exit;
  /// exposed for run_for()-driven tests).
  void shutdown_workers();

  [[nodiscard]] runtime::SockAddr protocol_addr() const;
  /// Resolved serve endpoint (all workers share it via SO_REUSEPORT).
  [[nodiscard]] runtime::SockAddr serve_addr() const;

  [[nodiscard]] TriadNode* node() { return node_ ? node_.get() : nullptr; }
  [[nodiscard]] ta::TimeAuthority* authority() {
    return authority_ ? authority_.get() : nullptr;
  }
  [[nodiscard]] runtime::RealEnv& env() { return *env_; }
  [[nodiscard]] const std::vector<std::unique_ptr<ServeWorker>>& serve_workers()
      const {
    return workers_;
  }
  [[nodiscard]] std::uint64_t total_responses() const;
  [[nodiscard]] std::uint64_t total_bad_frames() const;

  /// Internal trace ring (null unless config.trace_capacity > 0).
  [[nodiscard]] const obs::RingTraceSink* trace_ring() const {
    return ring_.has_value() ? &*ring_ : nullptr;
  }
  /// Online detector bank (null unless config.enable_detectors).
  [[nodiscard]] const obs::DetectorBank* detectors() const {
    return bank_.get();
  }
  /// Telemetry server (null unless config.telemetry was set).
  [[nodiscard]] const TelemetryServer* telemetry() const {
    return telemetry_.get();
  }
  /// Resolved telemetry endpoint ({} when no listener).
  [[nodiscard]] runtime::SockAddr telemetry_addr() const {
    return telemetry_ ? telemetry_->local_addr() : runtime::SockAddr{};
  }

 private:
  void register_worker_metrics(obs::Registry* registry);
  [[nodiscard]] obs::TraceSink* build_trace_chain(obs::Registry* registry);

  ServiceConfig config_;
  crypto::ClusterKeyring keyring_;
  std::optional<obs::RingTraceSink> ring_;
  std::unique_ptr<obs::DetectorBank> bank_;
  std::unique_ptr<obs::TeeTraceSink> env_tee_;  // ring + bank
  obs::Registry* registry_ = nullptr;
  std::unique_ptr<runtime::RealEnv> env_;
  std::unique_ptr<TriadNode> node_;
  std::unique_ptr<ta::TimeAuthority> authority_;
  SnapshotBoard board_;
  std::unique_ptr<runtime::PeriodicTimer> publisher_;
  std::vector<std::unique_ptr<ServeWorker>> workers_;
  std::unique_ptr<TelemetryServer> telemetry_;
  std::string error_;
  std::atomic<bool> started_{false};
};

/// Synchronous sealed-timestamp probe: a TrustedTimeClient on its own
/// RealEnv (an ephemeral loopback socket, `servers` as its address
/// book), one request at a time; request() runs the env until the
/// client's callback stops it. Used by `triad_timed --role client`,
/// perfbench and tests. (The loopback bench pipelines instead; see
/// bench/bench_triad_loopback.cpp.)
class BlockingProbe {
 public:
  /// `servers` is non-empty, in TrustedTimeClient's rotation order.
  BlockingProbe(NodeId self,
                std::vector<std::pair<NodeId, runtime::SockAddr>> servers,
                const crypto::Keyring& keyring);
  BlockingProbe(NodeId self, NodeId server, runtime::SockAddr server_addr,
                const crypto::Keyring& keyring);

  [[nodiscard]] bool valid() const { return env_.valid(); }

  /// One sealed PeerTimeRequest/PeerTimeResponse exchange, giving each
  /// server `timeout` (> 0) before trying the next. Returns nullopt when
  /// every server timed out or answered tainted.
  [[nodiscard]] std::optional<TrustedTimestamp> request(
      Duration timeout = milliseconds(200));

  [[nodiscard]] std::uint64_t bad_frames() const {
    return client_.stats().bad_frames;
  }
  [[nodiscard]] std::uint64_t timeouts() const {
    return client_.stats().timeouts;
  }
  [[nodiscard]] std::uint64_t tainted_answers() const {
    return client_.stats().tainted_answers;
  }

 private:
  runtime::RealEnv env_;
  TrustedTimeClient client_;  // declared after env_: detaches first
};

}  // namespace triad::timed
