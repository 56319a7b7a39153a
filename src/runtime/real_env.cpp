// The only translation unit in the tree allowed to touch ambient IO
// syscalls (triad_lint R1 names each token below in its allowlist).
// Everything socket/epoll-shaped funnels through the wrappers defined
// here so the rest of the repo stays inside the determinism contract.

#include "runtime/real_env.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace triad::runtime {
namespace {

sockaddr_in to_native(SockAddr addr) {
  sockaddr_in native{};
  native.sin_family = AF_INET;
  native.sin_addr.s_addr = htonl(addr.ip);
  native.sin_port = htons(addr.port);
  return native;
}

SockAddr from_native(const sockaddr_in& native) {
  return SockAddr{ntohl(native.sin_addr.s_addr), ntohs(native.sin_port)};
}

std::string errno_string(const char* what) {
  std::string msg = what;
  msg += ": ";
  msg += std::strerror(errno);
  return msg;
}

// The address `fd` is bound to (resolves port 0 to the kernel's pick).
SockAddr bound_addr(const UniqueFd& fd) {
  sockaddr_in native{};
  socklen_t len = sizeof(native);
  if (!fd.valid() ||
      ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&native), &len) !=
          0) {
    return SockAddr{};
  }
  return from_native(native);
}

}  // namespace

// --- UniqueFd ----------------------------------------------------------

void UniqueFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

// --- SockAddr ----------------------------------------------------------

std::string SockAddr::to_string() const {
  std::string out;
  out.reserve(21);
  for (int shift = 24; shift >= 0; shift -= 8) {
    out += std::to_string((ip >> shift) & 0xffu);
    out += shift == 0 ? ':' : '.';
  }
  out += std::to_string(port);
  return out;
}

std::optional<SockAddr> parse_sockaddr(std::string_view text) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  std::string_view host = text.substr(0, colon);
  std::string_view port_str = text.substr(colon + 1);

  SockAddr addr;
  std::uint32_t ip = 0;
  for (int octet = 0; octet < 4; ++octet) {
    const auto dot = host.find('.');
    std::string_view part =
        octet == 3 ? host : host.substr(0, dot);
    if (octet < 3) {
      if (dot == std::string_view::npos) return std::nullopt;
      host = host.substr(dot + 1);
    } else if (host.find('.') != std::string_view::npos) {
      return std::nullopt;
    }
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), value);
    if (ec != std::errc{} || ptr != part.data() + part.size() || value > 255) {
      return std::nullopt;
    }
    ip = (ip << 8) | value;
  }
  addr.ip = ip;

  unsigned port = 0;
  const auto [ptr, ec] = std::from_chars(
      port_str.data(), port_str.data() + port_str.size(), port);
  if (ec != std::errc{} || ptr != port_str.data() + port_str.size() ||
      port > 65535) {
    return std::nullopt;
  }
  addr.port = static_cast<std::uint16_t>(port);
  return addr;
}

// --- UdpSocket ---------------------------------------------------------

struct UdpSocket::BatchBuffers {
  std::array<std::array<std::uint8_t, kDatagramBufSize>, kRecvBatch> data;
  std::array<sockaddr_in, kRecvBatch> addrs;
  std::array<iovec, kRecvBatch> iovs;
  std::array<mmsghdr, kRecvBatch> msgs;
};

UdpSocket::UdpSocket() = default;
UdpSocket::UdpSocket(UniqueFd fd) : fd_(std::move(fd)) {}
UdpSocket::~UdpSocket() = default;
UdpSocket::UdpSocket(UdpSocket&& other) noexcept = default;
UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept = default;

UdpSocket UdpSocket::bind(SockAddr addr, bool reuse_port, std::string* error) {
  UniqueFd fd(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = errno_string("socket");
    return UdpSocket{};
  }
  if (reuse_port) {
    const int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      if (error != nullptr) *error = errno_string("setsockopt(SO_REUSEPORT)");
      return UdpSocket{};
    }
  }
  sockaddr_in native = to_native(addr);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&native),
             sizeof(native)) != 0) {
    if (error != nullptr) *error = errno_string("bind");
    return UdpSocket{};
  }
  return UdpSocket{std::move(fd)};
}

SockAddr UdpSocket::local_addr() const { return bound_addr(fd_); }

void UdpSocket::set_recv_timeout_ms(int ms) {
  if (!valid()) return;
  const int fd = fd_.get();
  const int flags = ::fcntl(fd, F_GETFL);
  if (ms > 0) {
    ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    (void)::setsockopt(fd, SOL_SOCKET,  // best-effort: a failed timeout
                       SO_RCVTIMEO, &tv, sizeof(tv));  // just blocks longer
  } else {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    timeval tv{};
    (void)::setsockopt(fd, SOL_SOCKET,  // best-effort: fd stays usable
                       SO_RCVTIMEO, &tv, sizeof(tv));
  }
}

bool UdpSocket::send_to(SockAddr to, BytesView datagram) {
  if (!valid()) return false;
  const sockaddr_in native = to_native(to);
  const ssize_t n =
      ::sendto(fd_.get(), datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&native), sizeof(native));
  return n == static_cast<ssize_t>(datagram.size());
}

void UdpSocket::ensure_buffers() {
  if (!buffers_) buffers_ = std::make_unique<BatchBuffers>();
}

std::size_t UdpSocket::recv_batch(std::array<RecvView, kRecvBatch>& out) {
  if (!valid()) return 0;
  ensure_buffers();
  BatchBuffers& b = *buffers_;
  for (std::size_t i = 0; i < kRecvBatch; ++i) {
    b.iovs[i] = {b.data[i].data(), b.data[i].size()};
    mmsghdr& m = b.msgs[i];
    std::memset(&m, 0, sizeof(m));
    m.msg_hdr.msg_name = &b.addrs[i];
    m.msg_hdr.msg_namelen = sizeof(b.addrs[i]);
    m.msg_hdr.msg_iov = &b.iovs[i];
    m.msg_hdr.msg_iovlen = 1;
  }
  // MSG_WAITFORONE: on a blocking socket, wait for the first datagram
  // only and drain the rest non-blocking — without it recvmmsg would sit
  // out the whole SO_RCVTIMEO hoping to fill the batch. No effect on the
  // non-blocking worker sockets.
  const int n = ::recvmmsg(fd_.get(), b.msgs.data(),
                           static_cast<unsigned>(kRecvBatch), MSG_WAITFORONE,
                           nullptr);
  if (n <= 0) return 0;
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = RecvView{
        BytesView{b.data[static_cast<std::size_t>(i)].data(),
                  b.msgs[static_cast<std::size_t>(i)].msg_len},
        from_native(b.addrs[static_cast<std::size_t>(i)])};
  }
  return static_cast<std::size_t>(n);
}

std::size_t UdpSocket::send_batch(const SendView* msgs, std::size_t count) {
  if (!valid() || count == 0) return 0;
  ensure_buffers();
  BatchBuffers& b = *buffers_;
  std::size_t sent = 0;
  while (sent < count) {
    const std::size_t batch = std::min(count - sent, kRecvBatch);
    for (std::size_t i = 0; i < batch; ++i) {
      const SendView& msg = msgs[sent + i];
      b.iovs[i] = {const_cast<std::uint8_t*>(msg.data.data()),
                   msg.data.size()};
      mmsghdr& m = b.msgs[i];
      std::memset(&m, 0, sizeof(m));
      b.addrs[i] = to_native(msg.to);
      m.msg_hdr.msg_name = &b.addrs[i];
      m.msg_hdr.msg_namelen = sizeof(b.addrs[i]);
      m.msg_hdr.msg_iov = &b.iovs[i];
      m.msg_hdr.msg_iovlen = 1;
    }
    // sendmmsg stops at the first datagram the kernel refuses and
    // returns the count before it (-1 when that is the first one).
    const int n = ::sendmmsg(fd_.get(), b.msgs.data(),
                             static_cast<unsigned>(batch), 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
    if (static_cast<std::size_t>(n) < batch) break;
  }
  return sent;
}

// --- TcpConn / TcpListener ---------------------------------------------
// The TCP plane exists solely for read-only telemetry (timed::
// TelemetryServer, triad_mon). Like every other raw syscall, listen/
// accept4/connect live only here, each a named R1 allow entry.

namespace {

void set_io_timeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  // Best-effort both ways: a connection without timeouts still works,
  // it just loses slow-loris protection to the sweep timer instead.
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));  // see above
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));  // see above
}

}  // namespace

TcpConn TcpConn::dial(SockAddr addr, int timeout_ms, std::string* error) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = errno_string("socket");
    return TcpConn{};
  }
  // SO_SNDTIMEO bounds the blocking connect as well as later writes.
  set_io_timeouts(fd.get(), timeout_ms);
  const sockaddr_in native = to_native(addr);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&native),
                sizeof(native)) != 0) {
    if (error != nullptr) *error = errno_string("connect");
    return TcpConn{};
  }
  return TcpConn{std::move(fd), timeout_ms};
}

std::size_t TcpConn::read_some(std::uint8_t* buf, std::size_t max) {
  if (!valid() || max == 0) return 0;
  const ssize_t n = ::read(fd_.get(), buf, max);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

bool TcpConn::write_all(BytesView data) {
  if (!valid()) return false;
  // SO_SNDTIMEO bounds each write() call, not the loop: a reader that
  // drains its socket one byte per interval keeps every partial write
  // under the per-call timeout. The cumulative deadline holds the
  // documented guarantee — a stalled peer costs at most ~one timeout.
  const MonotonicTimer elapsed;
  const std::uint64_t deadline_ns =
      static_cast<std::uint64_t>(timeout_ms_) * 1'000'000u;
  std::size_t off = 0;
  while (off < data.size()) {
    if (timeout_ms_ > 0 && elapsed.elapsed_ns() > deadline_ns) return false;
    const ssize_t n =
        ::write(fd_.get(), data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void TcpConn::shutdown_write() {
  if (valid()) ::shutdown(fd_.get(), SHUT_WR);
}

std::optional<HttpResponse> http_get(SockAddr addr, std::string_view path,
                                     int timeout_ms, std::string* error) {
  TcpConn conn = TcpConn::dial(addr, timeout_ms, error);
  if (!conn.valid()) return std::nullopt;
  const std::string request =
      "GET " + std::string(path) + " HTTP/1.0\r\n\r\n";
  if (!conn.write_all(BytesView{
          reinterpret_cast<const std::uint8_t*>(request.data()),
          request.size()})) {
    if (error != nullptr) *error = "send failed";
    return std::nullopt;
  }
  conn.shutdown_write();
  std::string response;
  std::uint8_t buf[4096];
  for (;;) {
    const std::size_t n = conn.read_some(buf, sizeof(buf));
    if (n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), n);
  }
  const auto line_end = response.find("\r\n");
  const auto body = response.find("\r\n\r\n");
  if (line_end == std::string::npos || body == std::string::npos) {
    if (error != nullptr) {
      *error = "truncated response (" + std::to_string(response.size()) +
               " bytes)";
    }
    return std::nullopt;
  }
  return HttpResponse{response.substr(0, line_end),
                      response.substr(body + 4)};
}

TcpListener TcpListener::open(SockAddr addr, std::string* error) {
  UniqueFd fd(
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = errno_string("socket");
    return TcpListener{};
  }
  // Daemon restarts must re-bind the telemetry port without waiting out
  // TIME_WAIT conns left by scrapers.
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR,  // best-effort: if
                     &one, sizeof(one));  // it fails, bind reports the error
  sockaddr_in native = to_native(addr);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&native),
             sizeof(native)) != 0) {
    if (error != nullptr) *error = errno_string("bind");
    return TcpListener{};
  }
  if (::listen(fd.get(), 16) != 0) {
    if (error != nullptr) *error = errno_string("listen");
    return TcpListener{};
  }
  return TcpListener{std::move(fd)};
}

SockAddr TcpListener::local_addr() const { return bound_addr(fd_); }

TcpConn TcpListener::accept_client(int timeout_ms) {
  if (!valid()) return TcpConn{};
  UniqueFd fd(::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC));
  if (!fd.valid()) return TcpConn{};
  set_io_timeouts(fd.get(), timeout_ms);
  return TcpConn{std::move(fd), timeout_ms};
}

// --- EpollLoop ---------------------------------------------------------

EpollLoop::EpollLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epoll_fd_.valid()) return;
  wakeup_fd_ = UniqueFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_.get();
  if (!wakeup_fd_.valid() ||
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wakeup_fd_.get(), &ev) !=
          0) {
    // A loop that cannot be woken is worse than no loop: report invalid
    // rather than hanging the owner's stop() forever.
    wakeup_fd_.reset();
    epoll_fd_.reset();
  }
}

void EpollLoop::add_fd(int fd, std::function<void()> on_readable) {
  remove_fd(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    // Registering the handler anyway would desynchronize handlers_ from
    // the epoll set; the fd's owner sees no readable callbacks either way.
    return;
  }
  handlers_.push_back(FdHandler{fd, std::move(on_readable)});
}

void EpollLoop::remove_fd(int fd) {
  const auto it = std::find_if(
      handlers_.begin(), handlers_.end(),
      [fd](const FdHandler& h) { return h.fd == fd; });
  if (it == handlers_.end()) return;
  (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL,  // a closed fd is already
                    fd, nullptr);              // gone from the epoll set
  handlers_.erase(it);
}

void EpollLoop::drain_wakeup() const {
  std::uint64_t value = 0;
  // Non-blocking eventfd: one read clears the whole count.
  [[maybe_unused]] const ssize_t n =
      ::read(wakeup_fd_.get(), &value, sizeof(value));
}

void EpollLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  // eventfd write is async-signal-safe; this is the SIGTERM path.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_fd_.get(), &one, sizeof(one));
}

void EpollLoop::poll_once(RealScheduler& scheduler, const Clock& clock,
                          int timeout_ms) {
  std::array<epoll_event, 64> events{};
  const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                             static_cast<int>(events.size()), timeout_ms);
  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    if (fd == wakeup_fd_.get()) {
      drain_wakeup();
      continue;
    }
    // Look the handler up per event: a previous handler may have removed
    // this fd, and handlers_ may have reallocated.
    const auto it = std::find_if(
        handlers_.begin(), handlers_.end(),
        [fd](const FdHandler& h) { return h.fd == fd; });
    if (it != handlers_.end() && it->on_readable) {
      // Invoke a copy: the callback may remove_fd(fd) (or add_fd,
      // reallocating handlers_), which would destroy the std::function
      // mid-call if invoked in place.
      const std::function<void()> handler = it->on_readable;
      handler();
    }
  }
  scheduler.fire_due(clock.now());
}

namespace {

int timeout_until(std::optional<SimTime> deadline, SimTime now) {
  if (!deadline.has_value()) return -1;  // idle: sleep until an fd event
  if (*deadline <= now) return 0;
  const std::int64_t ns = *deadline - now;
  const std::int64_t ms = (ns + 999'999) / 1'000'000;  // round up
  return static_cast<int>(
      std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
}

}  // namespace

void EpollLoop::run(RealScheduler& scheduler, const Clock& clock) {
  while (!stop_requested_.exchange(false, std::memory_order_acq_rel)) {
    poll_once(scheduler, clock,
              timeout_until(scheduler.next_deadline(), clock.now()));
  }
}

void EpollLoop::run_until(RealScheduler& scheduler, const Clock& clock,
                          SimTime deadline) {
  while (!stop_requested_.exchange(false, std::memory_order_acq_rel) &&
         clock.now() < deadline) {
    std::optional<SimTime> next = scheduler.next_deadline();
    if (!next.has_value() || *next > deadline) next = deadline;
    poll_once(scheduler, clock, timeout_until(next, clock.now()));
  }
}

// --- RealScheduler -----------------------------------------------------

void RealScheduler::fire_due(SimTime now) {
  for (;;) {
    SimTime at = 0;
    std::function<void()> fn;
    if (!queue_.pop_due(now, &at, &fn)) return;
    fn();  // may schedule/cancel: its slot is already recycled
  }
}

// --- UdpTransport ------------------------------------------------------

UdpTransport::UdpTransport(EpollLoop& loop, const Clock& clock,
                           SockAddr listen)
    : loop_(loop),
      clock_(clock),
      socket_(UdpSocket::bind(listen, /*reuse_port=*/false, &bind_error_)) {
  if (socket_.valid()) {
    loop_.add_fd(socket_.fd(), [this] { on_readable(); });
  }
}

UdpTransport::~UdpTransport() {
  if (socket_.valid()) loop_.remove_fd(socket_.fd());
  if (obs_registry_ != nullptr) obs_registry_->unregister(this);
}

void UdpTransport::set_peer(NodeId peer, SockAddr addr) {
  for (auto& [id, existing] : peers_) {
    if (id == peer) {
      existing = addr;
      return;
    }
  }
  peers_.emplace_back(peer, addr);
}

void UdpTransport::attach(NodeId addr, PacketHandler handler) {
  for (auto& [id, existing] : handlers_) {
    if (id == addr) {
      existing = std::move(handler);
      return;
    }
  }
  handlers_.emplace_back(addr, std::move(handler));
}

void UdpTransport::detach(NodeId addr) {
  std::erase_if(handlers_,
                [addr](const auto& entry) { return entry.first == addr; });
}

void UdpTransport::trace_packet(obs::TraceEventType type, NodeId src,
                                NodeId dst, std::uint64_t id,
                                std::int64_t b) const {
  if (trace_ == nullptr) return;
  obs::TraceEvent event;
  event.at = clock_.now();
  event.type = type;
  // Same field conventions as net::Network: send/drop are viewed from
  // the source, deliver from the destination.
  if (type == obs::TraceEventType::kPacketDeliver) {
    event.node = dst;
    event.peer = src;
  } else {
    event.node = src;
    event.peer = dst;
  }
  event.a = static_cast<std::int64_t>(id);
  event.b = b;
  trace_->emit(event);
}

void UdpTransport::send(NodeId src, NodeId dst, BytesView payload) {
  const std::uint64_t id = next_packet_id_++;
  const SockAddr* to = nullptr;
  for (const auto& [peer, addr] : peers_) {
    if (peer == dst) {
      to = &addr;
      break;
    }
  }
  if (to == nullptr) {
    ++stats_.dropped_unknown_peer;
    trace_packet(obs::TraceEventType::kPacketDrop, src, dst, id,
                 /*b=no receiver*/ 2);
    return;
  }
  net::wire::encode_frame_into(src, dst, payload, send_buf_);
  if (!socket_.send_to(*to, send_buf_)) {
    ++stats_.send_failures;
    trace_packet(obs::TraceEventType::kPacketDrop, src, dst, id,
                 /*b=random loss*/ 0);
    return;
  }
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  trace_packet(obs::TraceEventType::kPacketSend, src, dst, id,
               static_cast<std::int64_t>(payload.size()));
}

void UdpTransport::on_readable() {
  std::array<RecvView, kRecvBatch> views;
  // Bounded drain: at most a few batches per readiness callback so a
  // datagram flood cannot starve the timer heap; level-triggered epoll
  // re-reports whatever is left.
  for (int round = 0; round < 4; ++round) {
    const std::size_t n = socket_.recv_batch(views);
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      const auto frame = net::wire::decode_frame(views[i].data);
      if (!frame.has_value()) {
        ++stats_.decode_errors;
        continue;
      }
      // Learn the sender's endpoint, so servers can answer clients that
      // never appeared in static config. A spoofed src id can redirect
      // *future* replies to the spoofer — which only withholds sealed
      // (useless-to-them) frames, a capability the network attacker
      // already has by dropping datagrams.
      set_peer(frame->src, views[i].from);
      PacketHandler* handler = nullptr;
      for (auto& [id, h] : handlers_) {
        if (id == frame->dst) {
          handler = &h;
          break;
        }
      }
      const std::uint64_t packet_id = next_packet_id_++;
      if (handler == nullptr) {
        ++stats_.dropped_no_receiver;
        trace_packet(obs::TraceEventType::kPacketDrop, frame->src, frame->dst,
                     packet_id, /*b=no receiver*/ 2);
        continue;
      }
      ++stats_.delivered;
      stats_.bytes_delivered += frame->payload.size();
      trace_packet(obs::TraceEventType::kPacketDeliver, frame->src,
                   frame->dst, packet_id,
                   static_cast<std::int64_t>(frame->payload.size()));
      Packet packet;
      packet.src = frame->src;
      packet.dst = frame->dst;
      packet.payload = frame->payload;
      packet.sent_at = clock_.now();  // real wire carries no send stamp
      packet.id = packet_id;
      (*handler)(packet);
    }
    if (n < kRecvBatch) return;
  }
}

void UdpTransport::bind_obs(obs::Registry* registry, obs::TraceSink* trace) {
  if (obs_registry_ != nullptr && obs_registry_ != registry) {
    obs_registry_->unregister(this);
  }
  obs_registry_ = registry;
  trace_ = trace;
  if (registry == nullptr) return;
  const auto count = [](const std::uint64_t& cell) {
    return [&cell] { return static_cast<double>(cell); };
  };
  registry->counter_fn(this, "triad_real_packets_sent_total", {},
                       count(stats_.sent));
  registry->counter_fn(this, "triad_real_packets_delivered_total", {},
                       count(stats_.delivered));
  registry->counter_fn(this, "triad_real_send_failures_total", {},
                       count(stats_.send_failures));
  registry->counter_fn(this, "triad_real_decode_errors_total", {},
                       count(stats_.decode_errors));
  registry->counter_fn(this, "triad_real_dropped_no_receiver_total", {},
                       count(stats_.dropped_no_receiver));
  registry->counter_fn(this, "triad_real_dropped_unknown_peer_total", {},
                       count(stats_.dropped_unknown_peer));
  registry->counter_fn(this, "triad_real_bytes_sent_total", {},
                       count(stats_.bytes_sent));
  registry->counter_fn(this, "triad_real_bytes_delivered_total", {},
                       count(stats_.bytes_delivered));
}

// --- RealEnv -----------------------------------------------------------

RealEnv::RealEnv(RealEnvConfig config)
    : scheduler_(clock_),
      rng_(config.seed),
      env_(clock_, scheduler_, nullptr, rng_, config.obs) {
  if (config.listen.has_value()) {
    transport_.emplace(loop_, clock_, *config.listen);
    if (transport_->valid()) {
      for (const auto& [peer, addr] : config.peers) {
        transport_->set_peer(peer, addr);
      }
      transport_->bind_obs(config.obs.metrics, config.obs.trace);
    }
    env_ = Env(clock_, scheduler_, &*transport_, rng_, config.obs);
  }
}

bool RealEnv::valid() const {
  if (!loop_.valid()) return false;
  return !transport_.has_value() || transport_->valid();
}

std::string RealEnv::bind_error() const {
  if (!loop_.valid()) return "epoll_create1 failed";
  if (transport_.has_value() && !transport_->valid()) {
    return transport_->bind_error();
  }
  return {};
}

void RealEnv::run() { loop_.run(scheduler_, clock_); }

void RealEnv::run_for(Duration d) {
  loop_.run_until(scheduler_, clock_, clock_.now() + d);
}

}  // namespace triad::runtime
