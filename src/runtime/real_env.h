// Real-transport backend for the runtime interfaces: wall-clock time,
// an epoll-driven timer loop, and UDP sockets.
//
// This is the second binding of Clock/Scheduler/Transport (the first is
// SimEnv): the same protocol components — triad::Node, ta::TimeAuthority,
// TrustedTimeClient (timed::BlockingProbe; tests/real_env_test.cpp) — run
// unmodified against real sockets. What carries over from the
// determinism contract (DESIGN.md, "Runtime layer"):
//   * one event loop per environment totally orders callbacks; timers
//     with equal deadlines fire in scheduling order (FIFO), by the same
//     runtime::TimerQueue sim::Simulation runs on;
//   * packet delivery runs through the same loop as timers;
//   * all protocol randomness still flows from Env::fork_rng streams.
// What obviously does not: now() is wall time, so runs are not
// replayable — RealEnv is the deployment backend, SimEnv remains the
// deterministic twin for tests (same trace-event sequence, different
// timestamps; tests/real_env_test.cpp pins the cross-check).
//
// Layering note for triad_lint R1: every ambient-IO syscall
// (epoll_create1/epoll_wait/recvmmsg/sendmmsg and the socket setup
// around them) lives in real_env.cpp, each a named allowlist entry.
// Everything else — the triad_timed service, benches, tests — goes
// through the UdpSocket/EpollLoop/RealEnv wrappers declared here.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/env.h"
#include "runtime/monotonic_timer.h"
#include "runtime/timer_queue.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/types.h"

namespace triad::runtime {

/// Wall clock for a real environment: nanoseconds since construction, so
/// SimTime stays a small positive int64 and logs/traces read like the
/// simulator's. Each process has its own epoch — cross-machine offsets
/// are exactly what the protocol calibrates away via the TA.
class RealClock final : public Clock {
 public:
  RealClock() = default;
  [[nodiscard]] SimTime now() const override {
    return static_cast<SimTime>(timer_.elapsed_ns());
  }

 private:
  MonotonicTimer timer_;
};

/// An IPv4 UDP endpoint. Kept as a plain value type so the address book
/// and CLI parsing stay free of <netinet/in.h> outside real_env.cpp.
struct SockAddr {
  std::uint32_t ip = 0;  // host byte order; 127.0.0.1 = 0x7f000001
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(SockAddr, SockAddr) = default;
};

/// Parses "a.b.c.d:port". Returns nullopt on malformed input.
[[nodiscard]] std::optional<SockAddr> parse_sockaddr(std::string_view text);

inline constexpr SockAddr kLoopbackAny{0x7f000001u, 0};

/// Batch sizes for the mmsg paths: up to 32 datagrams per syscall, with
/// per-socket buffers (32 * 2 KiB) small enough to live on every worker.
inline constexpr std::size_t kRecvBatch = 32;
inline constexpr std::size_t kDatagramBufSize = 2048;

/// One received datagram inside a RecvBatch (view into the batch's
/// buffers; valid until the next receive call).
struct RecvView {
  BytesView data;
  SockAddr from;
};

/// One outgoing datagram for UdpSocket::send_batch. `data` must stay
/// valid until send_batch returns.
struct SendView {
  SockAddr to;
  BytesView data;
};

/// Move-only owner of one file descriptor (-1 = none): closes it on
/// destruction, on reset(), and when a move assigns over it. A moved-
/// from owner holds -1. The socket and epoll wrappers below hold their
/// fds in one, so none of them closes by hand.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Closes the held fd, if any; the owner then holds -1.
  void reset();

 private:
  int fd_ = -1;
};

/// RAII non-blocking UDP socket with batched (recvmmsg/sendmmsg) IO.
/// Move-only; the fd closes on destruction.
class UdpSocket {
 public:
  // Out of line: BatchBuffers is complete only in real_env.cpp.
  UdpSocket();
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;

  /// Binds a UDP socket on `addr` (port 0 = ephemeral). With `reuse_port`
  /// several sockets may bind the same address and the kernel shards
  /// senders across them by flow hash — the triad_timed worker model.
  /// Returns an unbound (invalid) socket on failure and, when `error` is
  /// non-null, stores the errno message.
  [[nodiscard]] static UdpSocket bind(SockAddr addr, bool reuse_port = false,
                                      std::string* error = nullptr);

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  /// The actually bound address (resolves port 0 to the kernel's pick).
  [[nodiscard]] SockAddr local_addr() const;

  /// Blocking receive timeout; 0 restores non-blocking mode.
  void set_recv_timeout_ms(int ms);

  /// Sends one datagram. Returns false on a (transient) send failure —
  /// UDP semantics, the caller treats it like a dropped packet.
  bool send_to(SockAddr to, BytesView datagram);

  /// Receives up to kRecvBatch datagrams in one recvmmsg call. Returns
  /// the number received (0 on timeout/EAGAIN). Views stay valid until
  /// the next recv_batch on this socket.
  std::size_t recv_batch(std::array<RecvView, kRecvBatch>& out);

  /// Sends `msgs[0..count)`, each to its own destination, in sendmmsg
  /// calls of up to kRecvBatch datagrams. Returns how many the kernel
  /// accepted before the first refusal: when the result r is below
  /// `count`, datagram r was refused (EAGAIN, EINVAL, ...) and none after
  /// it was tried, so a caller that drops it resumes at r + 1.
  std::size_t send_batch(const SendView* msgs, std::size_t count);

  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  explicit UdpSocket(UniqueFd fd);
  struct BatchBuffers;  // recvmmsg scratch (iovecs, msghdrs, addresses)
  void ensure_buffers();

  UniqueFd fd_;
  std::unique_ptr<BatchBuffers> buffers_;
};

/// RAII TCP connection (the telemetry scrape path). Move-only; blocking
/// IO with send/receive timeouts, so a stalled scraper can delay the
/// owning loop by at most the timeout — acceptable for the read-only
/// telemetry plane, which serves operators, not the protocol. Created by
/// TcpListener::accept_client (server side) or TcpConn::dial (client).
class TcpConn {
 public:
  TcpConn() = default;

  /// Blocking client connect with `timeout_ms` applied to the connect
  /// itself and to subsequent reads/writes. Invalid conn on failure
  /// (errno message in *error when non-null).
  [[nodiscard]] static TcpConn dial(SockAddr addr, int timeout_ms = 2000,
                                    std::string* error = nullptr);

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }

  /// Reads up to `max` bytes. Returns the count read; 0 on orderly EOF,
  /// timeout, or error (the caller closes either way).
  std::size_t read_some(std::uint8_t* buf, std::size_t max);
  /// Writes the whole buffer; false on any failure, or once the *total*
  /// elapsed time exceeds the connection timeout. SO_SNDTIMEO only
  /// bounds each individual write(), so without the cumulative deadline
  /// a reader draining one byte per interval (slow loris) could stall
  /// the caller indefinitely.
  bool write_all(BytesView data);
  /// Half-close: signals EOF to the peer while reads stay open.
  void shutdown_write();
  void close_now() { fd_.reset(); }

 private:
  friend class TcpListener;
  TcpConn(UniqueFd fd, int timeout_ms)
      : fd_(std::move(fd)), timeout_ms_(timeout_ms) {}
  UniqueFd fd_;
  int timeout_ms_ = 0;  // 0 = no cumulative write deadline
};

/// One HTTP/1.0 GET over TcpConn::dial (the telemetry scrape client of
/// triad_mon, the loopback bench and the telemetry tests). `timeout_ms`
/// bounds the connect and each read/write. Returns the status line
/// (`HTTP/1.0 200 OK`, without CRLF) and the body, whatever the status;
/// nullopt on a dial or send failure or a response without a status
/// line and header end (reason in *error when non-null).
struct HttpResponse {
  std::string status;
  std::string body;
};
[[nodiscard]] std::optional<HttpResponse> http_get(
    SockAddr addr, std::string_view path, int timeout_ms = 2000,
    std::string* error = nullptr);

/// RAII listening TCP socket for the telemetry endpoints. The listener
/// itself is non-blocking (epoll-registered); accepted connections come
/// back as blocking TcpConns with timeouts (see TcpConn).
class TcpListener {
 public:
  TcpListener() = default;

  /// Binds and listens on `addr` (port 0 = ephemeral). Invalid listener
  /// on failure (errno message in *error when non-null).
  [[nodiscard]] static TcpListener open(SockAddr addr,
                                        std::string* error = nullptr);

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// The actually bound address (resolves port 0 to the kernel's pick).
  [[nodiscard]] SockAddr local_addr() const;

  /// Accepts one pending connection; invalid TcpConn when none is
  /// pending (the listener is non-blocking) or on accept failure.
  [[nodiscard]] TcpConn accept_client(int timeout_ms = 2000);

 private:
  explicit TcpListener(UniqueFd fd) : fd_(std::move(fd)) {}
  UniqueFd fd_;
};

class RealScheduler;

/// Level-triggered epoll loop owning the environment's thread of
/// control: fd readability callbacks and the scheduler's due timers all
/// run here, which is what totally orders callbacks like the simulator
/// does. stop() is safe from other threads and from signal handlers
/// (one eventfd write). A stop is used up by the run it ends, so the
/// same loop can run again; a stop that lands while no run is active
/// makes the next run return at once.
class EpollLoop {
 public:
  EpollLoop();
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  [[nodiscard]] bool valid() const { return epoll_fd_.valid(); }

  /// Registers a readability callback for `fd`. One callback per fd.
  void add_fd(int fd, std::function<void()> on_readable);
  void remove_fd(int fd);

  /// Runs until stop(): waits for fd events or the next timer deadline,
  /// dispatches both. `scheduler` provides the deadlines.
  void run(RealScheduler& scheduler, const Clock& clock);
  /// Runs until `deadline` (clock time) passes or stop() is called.
  void run_until(RealScheduler& scheduler, const Clock& clock,
                 SimTime deadline);

  /// Requests the loop to exit its next iteration. Async-signal-safe.
  void stop();

 private:
  /// One pass: wait up to `timeout_ms`, dispatch fds, fire due timers.
  void poll_once(RealScheduler& scheduler, const Clock& clock,
                 int timeout_ms);
  void drain_wakeup() const;

  struct FdHandler {
    int fd = -1;
    std::function<void()> on_readable;
  };

  UniqueFd epoll_fd_;
  UniqueFd wakeup_fd_;  // eventfd: stop() and cross-thread nudges
  std::vector<FdHandler> handlers_;
  std::atomic<bool> stop_requested_{false};  // cleared by the run it ends
};

/// The simulator's TimerQueue read against a wall Clock. Unlike
/// Simulation it clamps a negative delay to 0 and accepts a past
/// deadline (it fires on the next fire_due). Driven by EpollLoop;
/// single-threaded (loop thread only), like every Scheduler binding.
class RealScheduler final : public Scheduler {
 public:
  explicit RealScheduler(const Clock& clock) : clock_(clock) {}

  TimerId schedule_at(SimTime t, std::function<void()> fn) override {
    return queue_.push(t, std::move(fn));
  }
  TimerId schedule_after(Duration delay, std::function<void()> fn) override {
    return schedule_at(clock_.now() + std::max<Duration>(delay, 0),
                       std::move(fn));
  }
  bool cancel(TimerId id) override { return queue_.cancel(id); }

  /// Next pending deadline, or nullopt when idle.
  [[nodiscard]] std::optional<SimTime> next_deadline() {
    return queue_.next_deadline();
  }
  /// Fires every timer with deadline <= now, in (time, FIFO) order.
  void fire_due(SimTime now);
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  const Clock& clock_;
  TimerQueue queue_;
};

/// Statistics mirroring net::NetworkStats for the real transport.
struct UdpTransportStats {
  std::uint64_t sent = 0;
  std::uint64_t send_failures = 0;     // sendto errors (treated as drops)
  std::uint64_t delivered = 0;
  std::uint64_t decode_errors = 0;     // short/garbage/wrong-magic datagrams
  std::uint64_t dropped_no_receiver = 0;
  std::uint64_t dropped_unknown_peer = 0;  // send() to an unmapped NodeId
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

/// runtime::Transport over one UDP socket + a NodeId -> SockAddr address
/// book. Several local NodeIds may attach (a node and a colocated client
/// share the socket); the wire-frame dst field selects the handler.
/// Malformed datagrams are counted and dropped, never fatal — sealed-
/// frame auth failures are the attached component's to count, exactly as
/// on the sim path.
class UdpTransport final : public Transport {
 public:
  /// Binds `listen` (port 0 = ephemeral) and registers with `loop`.
  /// Check valid() afterwards; a failed bind leaves an inert transport.
  UdpTransport(EpollLoop& loop, const Clock& clock, SockAddr listen);
  ~UdpTransport() override;

  [[nodiscard]] bool valid() const { return socket_.valid(); }
  [[nodiscard]] SockAddr local_addr() const { return socket_.local_addr(); }
  [[nodiscard]] const std::string& bind_error() const { return bind_error_; }

  /// Maps a peer NodeId to its UDP endpoint (send() destinations).
  /// Incoming frames also map their src id to their source endpoint.
  void set_peer(NodeId peer, SockAddr addr);

  void attach(NodeId addr, PacketHandler handler) override;
  void detach(NodeId addr) override;
  void send(NodeId src, NodeId dst, BytesView payload) override;

  [[nodiscard]] const UdpTransportStats& stats() const { return stats_; }

  /// Folds the stats into `registry` as triad_real_* callback series and
  /// starts emitting packet trace events (same event shapes as
  /// net::Network). Null pointers detach.
  void bind_obs(obs::Registry* registry, obs::TraceSink* trace);

 private:
  void on_readable();
  void trace_packet(obs::TraceEventType type, NodeId src, NodeId dst,
                    std::uint64_t id, std::int64_t b) const;

  EpollLoop& loop_;
  const Clock& clock_;
  // bind_error_ must be declared (constructed) before socket_: the
  // initializer list hands &bind_error_ to UdpSocket::bind.
  std::string bind_error_;
  UdpSocket socket_;
  std::vector<std::pair<NodeId, SockAddr>> peers_;  // small, linear scan
  std::vector<std::pair<NodeId, PacketHandler>> handlers_;
  std::uint64_t next_packet_id_ = 1;
  UdpTransportStats stats_;
  obs::Registry* obs_registry_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  Bytes send_buf_;  // reused frame buffer (allocation-lean send path)
};

/// Configuration for one real environment.
struct RealEnvConfig {
  /// Seed for the environment's root Rng (protocol randomness: AEX
  /// modelling, jitter). Wall time is nondeterministic anyway, but a
  /// fixed seed keeps the *protocol's* random choices reproducible.
  std::uint64_t seed = 1;
  /// UDP endpoint to bind; nullopt = no transport (timers only).
  std::optional<SockAddr> listen;
  /// Initial address book (extendable later via transport().set_peer).
  std::vector<std::pair<NodeId, SockAddr>> peers;
  ObsBinding obs{};
};

/// One real environment: wall clock + epoll loop + timer heap + optional
/// UDP transport, bundled behind the same Env aggregate SimEnv hands
/// out. Components receive env() by value; RealEnv must outlive them.
/// The loop runs on whichever thread calls run()/run_for(); stop() may
/// be called from any thread or signal handler.
class RealEnv {
 public:
  explicit RealEnv(RealEnvConfig config);

  /// False when the transport failed to bind (port in use, no sockets in
  /// this sandbox, ...); bind_error() says why.
  [[nodiscard]] bool valid() const;
  [[nodiscard]] std::string bind_error() const;

  [[nodiscard]] Env env() const { return env_; }
  operator Env() const { return env_; }  // NOLINT(google-explicit-constructor)

  [[nodiscard]] UdpTransport* transport() {
    return transport_ ? &*transport_ : nullptr;
  }
  [[nodiscard]] EpollLoop& loop() { return loop_; }

  /// Runs the loop until stop().
  void run();
  /// Runs the loop for `d` of wall time (or until stop()).
  void run_for(Duration d);
  /// Requests the loop to exit. Async-signal-safe, any thread.
  void stop() { loop_.stop(); }

 private:
  RealClock clock_;
  EpollLoop loop_;
  RealScheduler scheduler_;
  std::optional<UdpTransport> transport_;
  Rng rng_;
  Env env_;
};

}  // namespace triad::runtime
