#include "timed/telemetry.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/export.h"

namespace triad::timed {

namespace {

// A scraper's request line fits in one segment; anything larger is not a
// telemetry client.
constexpr std::size_t kMaxRequestBytes = 4096;

// Most events one /trace answer ships (tail of the ring).
constexpr std::size_t kTraceTail = std::size_t{1} << 16;

std::string http_response(int status, std::string_view content_type,
                          std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += status == 200 ? "HTTP/1.0 200 OK\r\n" : "HTTP/1.0 404 Not Found\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

TelemetryServer::TelemetryServer(runtime::EpollLoop& loop, runtime::Env env,
                                 runtime::SockAddr addr, Sources sources)
    : loop_(loop),
      env_(env),
      sources_(std::move(sources)),
      listener_(runtime::TcpListener::open(addr, &error_)) {
  if (!listener_.valid()) return;
  loop_.add_fd(listener_.fd(), [this] { on_accept(); });
  // Half the deadline keeps worst-case lingering under 1.5x the
  // configured value without waking the loop often.
  const Duration period =
      std::max<Duration>(sources_.request_deadline / 2, milliseconds(10));
  sweeper_ = std::make_unique<runtime::PeriodicTimer>(
      env_, period, [this] { sweep_stale_conns(); });
}

TelemetryServer::~TelemetryServer() {
  for (const auto& pending : conns_) loop_.remove_fd(pending->conn.fd());
  if (listener_.valid()) loop_.remove_fd(listener_.fd());
}

void TelemetryServer::on_accept() {
  // Drain every pending connection: level-triggered epoll would re-report
  // anyway, but one pass keeps scrape latency flat under bursts.
  for (;;) {
    runtime::TcpConn conn = listener_.accept_client();
    if (!conn.valid()) return;
    // Oldest-first eviction past the cap: a client that stalls before
    // finishing its request line loses its slot to the next scraper
    // instead of exhausting fds.
    while (conns_.size() >= sources_.max_pending && !conns_.empty()) {
      close_conn(conns_.front()->conn.fd());
    }
    const int fd = conn.fd();
    auto pending = std::make_unique<PendingConn>();
    pending->conn = std::move(conn);
    pending->accepted_ns = runtime::MonotonicTimer::now_ns();
    conns_.push_back(std::move(pending));
    active_conns_.store(static_cast<std::uint32_t>(conns_.size()),
                        std::memory_order_relaxed);
    loop_.add_fd(fd, [this, fd] { on_conn_readable(fd); });
  }
}

void TelemetryServer::on_conn_readable(int fd) {
  PendingConn* pending = nullptr;
  for (const auto& entry : conns_) {
    if (entry->conn.fd() == fd) {
      pending = entry.get();
      break;
    }
  }
  if (pending == nullptr) return;

  std::uint8_t buf[1024];
  const std::size_t n = pending->conn.read_some(buf, sizeof(buf));
  if (n == 0) {  // EOF or error before a full request line
    close_conn(fd);
    return;
  }
  pending->request.append(reinterpret_cast<const char*>(buf), n);
  if (pending->request.size() > kMaxRequestBytes) {
    close_conn(fd);
    return;
  }
  // A bare "GET /x\r\n" (no headers) is answered too: /dev/tcp scrapers
  // and netcat one-liners do not always send the empty header block.
  if (pending->request.find("\r\n") == std::string::npos) return;
  respond(*pending);
  close_conn(fd);
}

void TelemetryServer::close_conn(int fd) {
  loop_.remove_fd(fd);
  std::erase_if(conns_, [fd](const std::unique_ptr<PendingConn>& entry) {
    return entry->conn.fd() == fd;
  });
  active_conns_.store(static_cast<std::uint32_t>(conns_.size()),
                      std::memory_order_relaxed);
  if (conns_.empty() && sources_.on_scrapers_idle) sources_.on_scrapers_idle();
}

void TelemetryServer::sweep_stale_conns() {
  if (conns_.empty()) return;
  const std::uint64_t now_ns = runtime::MonotonicTimer::now_ns();
  const auto deadline_ns =
      static_cast<std::uint64_t>(sources_.request_deadline);
  std::vector<int> stale;
  for (const auto& entry : conns_) {
    if (now_ns - entry->accepted_ns > deadline_ns) {
      stale.push_back(entry->conn.fd());
    }
  }
  for (const int fd : stale) close_conn(fd);
}

void TelemetryServer::respond(PendingConn& pending) {
  ++scrapes_;
  // Request line: "GET <path> [HTTP/1.x]".
  std::string_view line = pending.request;
  line = line.substr(0, line.find("\r\n"));
  std::string_view path;
  int status = 404;
  if (line.substr(0, 4) == "GET ") {
    path = line.substr(4);
    const auto space = path.find(' ');
    if (space != std::string_view::npos) path = path.substr(0, space);
  }
  const std::string body = render(path, &status);
  const std::string_view content_type =
      path == "/metrics" ? "text/plain; version=0.0.4" : "text/plain";
  const std::string response = http_response(status, content_type, body);
  if (pending.conn.write_all(
          BytesView{reinterpret_cast<const std::uint8_t*>(response.data()),
                    response.size()})) {
    pending.conn.shutdown_write();
  }
}

std::string TelemetryServer::render(std::string_view path,
                                    int* status) const {
  *status = 200;
  if (path == "/metrics" && sources_.registry != nullptr) {
    std::ostringstream os;
    obs::write_prometheus(*sources_.registry, os);
    return os.str();
  }
  if (path == "/trace" && sources_.trace != nullptr) {
    std::ostringstream os;
    obs::write_jsonl(*sources_.trace, os, kTraceTail);
    return os.str();
  }
  if (path == "/prof" && sources_.prof) {
    return sources_.prof();
  }
  *status = 404;
  return "not found\n";
}

}  // namespace triad::timed
