// serve workload: the sealed-timestamp path of timed::ServeWorker.
//
// One process, four threads: the in-process TA and the node's protocol
// loop (both nearly idle once calibrated), the node's single serve
// worker, and this thread as the client. Only the worker and the client
// are busy. The client drives a raw loopback UDP socket with requests
// sealed before any timed phase starts, stores the raw answers, and
// authenticates them after each phase, so the timed loops do no crypto
// and no heap allocation of their own.
//
// Phases after bring-up:
//   warm-up — a short closed-window burst (checked, not measured);
//   paced   — open loop at a fixed absolute rate; each request is timed
//             from the moment it was due, with at most kInFlightCap
//             outstanding so a host stall shows as lateness, not as
//             kernel drops;
//   burst   — rounds of a closed window of kWindow outstanding requests
//             sent in 32-deep sendmmsg bursts; throughput per round.
//
// The traced pass runs the same phases on two fresh clusters (so the
// profiler can be read after every thread has been joined), adds a
// profiled burst next to a plain one, and replays the worker's stage
// sequence on fresh frames in this thread to split the per-request cost.

#include <arpa/inet.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <variant>

#include "alloc_count.h"
#include "bench.h"
#include "crypto/channel.h"
#include "net/wire.h"
#include "obs/prof.h"
#include "runtime/real_env.h"
#include "spans.h"
#include "timed/service.h"
#include "triad/messages.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using triad::Bytes;
using triad::BytesView;
using triad::NodeId;
using triad::SimTime;
namespace rt = triad::runtime;
namespace timed = triad::timed;

constexpr NodeId kTaId = 9;
constexpr NodeId kNodeId = 1;
constexpr NodeId kProbeId = 50;
constexpr NodeId kStageClientId = 60;
constexpr std::size_t kBatch = rt::kRecvBatch;  // 32, the worker's batch
constexpr std::size_t kWindow = 128;       // burst: outstanding requests
constexpr std::size_t kInFlightCap = 128;  // paced: below the server's
                                           // default receive-buffer depth
constexpr std::size_t kWarmupRequests = 4096;
constexpr std::size_t kBurstRound = 8192;
constexpr double kRoundsPerSecond = 6.4;  // ~half a second of rounds per
                                          // second at ~100k answers/s
constexpr std::size_t kSlot = 128;  // response arena slot (answers ~80 B)
constexpr std::uint64_t kDrainTimeoutNs = 500'000'000;
constexpr int kBringups = 3;  // setup is timed this often, median kept

// --- the in-process cluster ----------------------------------------------

struct Cluster {
  std::unique_ptr<timed::TimedService> ta;
  std::unique_ptr<timed::TimedService> node;
  std::thread ta_thread;
  std::thread node_thread;
  std::string error;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { shutdown(); }

  // Stops every loop and joins every thread the cluster started.
  void shutdown() {
    if (node) node->stop();
    if (node_thread.joinable()) node_thread.join();
    if (node) node->shutdown_workers();
    if (ta) ta->stop();
    if (ta_thread.joinable()) ta_thread.join();
  }

  [[nodiscard]] const timed::WorkerStats& worker() const {
    return node->serve_workers().front()->stats();
  }
};

Bytes master_secret(std::uint64_t seed) {
  triad::Rng rng(seed ^ 0x7365727665ull);
  Bytes secret(32);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng.next_u64());
  return secret;
}

// Fixed thread placement, used when the process may run on at least
// three CPUs: the client on the first, the serve worker alone on the
// second-to-last, the two mostly idle loops (TA, node) on the last.
// Threads inherit the affinity of the thread that creates them, so this
// thread pins itself before each creation. Unpinned, the client and the
// worker land on a different pair of CPUs in every run, and the run's
// latency percentiles move with that pairing.
struct Placement {
  int client = -1;
  int worker = -1;
  int idle = -1;
};

Placement plan_placement() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 3) return {};
  return Placement{cpus.front(), cpus[cpus.size() - 2], cpus.back()};
}

void pin_this_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// TA + one node with one serve worker, up and answering untainted.
std::unique_ptr<Cluster> bring_up(std::uint64_t seed,
                                  const triad::crypto::Keyring& keyring,
                                  const Placement& placement) {
  pin_this_thread(placement.idle);
  auto cluster = std::make_unique<Cluster>();
  timed::ServiceConfig ta_config;
  ta_config.role = timed::Role::kTa;
  ta_config.ta_id = kTaId;
  ta_config.seed = seed;
  ta_config.master_secret = master_secret(seed);
  cluster->ta = std::make_unique<timed::TimedService>(ta_config);
  if (!cluster->ta->valid()) {
    cluster->error = cluster->ta->error();
    return cluster;
  }
  cluster->ta->start();
  cluster->ta_thread = std::thread([ta = cluster->ta.get()] { ta->run(); });

  timed::ServiceConfig node_config;
  node_config.role = timed::Role::kNode;
  node_config.workers = 1;
  node_config.seed = seed + 1;
  node_config.master_secret = master_secret(seed);
  node_config.node.id = kNodeId;
  node_config.node.ta_address = kTaId;
  node_config.node.calib_pairs = 2;
  node_config.node.calib_wait_high = triad::milliseconds(20);
  node_config.peers = {{kTaId, cluster->ta->protocol_addr()}};
  cluster->node = std::make_unique<timed::TimedService>(node_config);
  if (!cluster->node->valid()) {
    cluster->error = cluster->node->error();
    return cluster;
  }
  pin_this_thread(placement.worker);
  cluster->node->start();
  pin_this_thread(placement.idle);
  cluster->node_thread =
      std::thread([node = cluster->node.get()] { node->run(); });
  pin_this_thread(placement.client);

  timed::BlockingProbe probe(kProbeId, kNodeId, cluster->node->serve_addr(),
                             keyring);
  const std::uint64_t start = now_ns();
  while (now_ns() - start < 20'000'000'000ull) {
    if (probe.request(triad::milliseconds(100)).has_value()) return cluster;
  }
  cluster->error = "node never answered untainted";
  return cluster;
}

// --- requests sealed ahead of time -------------------------------------

// Every request the run will send, sealed in order by one client channel
// (the worker's replay window wants increasing counters) and laid out
// back to back.
struct Requests {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offset;  // size() == count + 1

  [[nodiscard]] const std::uint8_t* data(std::size_t i) const {
    return bytes.data() + offset[i];
  }
  [[nodiscard]] std::size_t length(std::size_t i) const {
    return offset[i + 1] - offset[i];
  }
};

// Request i carries request_id first_id + i.
Requests seal_requests(triad::crypto::SecureChannel& channel, NodeId client,
                       std::uint64_t first_id, std::size_t count) {
  Requests out;
  out.offset.reserve(count + 1);
  out.offset.push_back(0);
  for (std::size_t i = 0; i < count; ++i) {
    triad::proto::PeerTimeRequest request;
    request.request_id = first_id + i;
    const Bytes frame = triad::net::wire::encode_frame(
        client, kNodeId,
        channel.seal(kNodeId, triad::proto::encode(request)));
    if (i == 0) out.bytes.reserve(frame.size() * count);
    out.bytes.insert(out.bytes.end(), frame.begin(), frame.end());
    out.offset.push_back(static_cast<std::uint32_t>(out.bytes.size()));
  }
  return out;
}

// --- the client socket ---------------------------------------------------

class ClientSocket {
 public:
  explicit ClientSocket(rt::SockAddr server) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    const int rcvbuf = 4 << 20;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sockaddr_in remote{};
    remote.sin_family = AF_INET;
    remote.sin_addr.s_addr = htonl(server.ip);
    remote.sin_port = htons(server.port);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&local), sizeof(local)) != 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&remote),
                  sizeof(remote)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ClientSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  bool send_one(const Requests& requests, std::size_t i) {
    const ssize_t n = ::send(fd_, requests.data(i), requests.length(i), 0);
    return n == static_cast<ssize_t>(requests.length(i));
  }

  // Sends requests [first, first + count) in one sendmmsg; returns how
  // many the kernel took.
  std::size_t send_many(const Requests& requests, std::size_t first,
                        std::size_t count) {
    count = std::min(count, kBatch);
    for (std::size_t k = 0; k < count; ++k) {
      iov_[k] = {const_cast<std::uint8_t*>(requests.data(first + k)),
                 requests.length(first + k)};
      std::memset(&msgs_[k], 0, sizeof(msgs_[k]));
      msgs_[k].msg_hdr.msg_iov = &iov_[k];
      msgs_[k].msg_hdr.msg_iovlen = 1;
    }
    const int n =
        ::sendmmsg(fd_, msgs_.data(), static_cast<unsigned>(count), 0);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  // Receives up to `room` datagrams into consecutive arena slots starting
  // at `slot`; returns how many arrived (non-blocking).
  std::size_t receive(std::uint8_t* arena, std::uint16_t* lengths,
                      std::size_t slot, std::size_t room) {
    room = std::min(room, kBatch);
    if (room == 0) return 0;
    for (std::size_t k = 0; k < room; ++k) {
      iov_[k] = {arena + (slot + k) * kSlot, kSlot};
      std::memset(&msgs_[k], 0, sizeof(msgs_[k]));
      msgs_[k].msg_hdr.msg_iov = &iov_[k];
      msgs_[k].msg_hdr.msg_iovlen = 1;
    }
    const int n = ::recvmmsg(fd_, msgs_.data(), static_cast<unsigned>(room),
                             MSG_DONTWAIT, nullptr);
    if (n <= 0) return 0;
    for (int k = 0; k < n; ++k) {
      lengths[slot + static_cast<std::size_t>(k)] = static_cast<std::uint16_t>(
          std::min<unsigned>(msgs_[static_cast<std::size_t>(k)].msg_len,
                             kSlot));
    }
    return static_cast<std::size_t>(n);
  }

 private:
  int fd_ = -1;
  std::array<iovec, kBatch> iov_{};
  std::array<mmsghdr, kBatch> msgs_{};
};

// --- answer checking -----------------------------------------------------

// Authenticates stored answers and enforces the serve contract: sealed by
// the node, untainted, monotone in arrival order, each request id
// answered exactly once.
class AnswerChecker {
 public:
  AnswerChecker(NodeId client, const triad::crypto::Keyring& keyring,
                std::size_t ids)
      : client_(client), keyring_(keyring), seen_(ids + 1, 0) {
    new_node();
  }

  // A fresh node starts its send counter and its clock anew: open its
  // answers with a fresh channel and restart the monotonicity check.
  // Request ids stay unique across nodes.
  void new_node() {
    channel_ = std::make_unique<triad::crypto::SecureChannel>(client_,
                                                              keyring_);
    last_ = 0;
  }

  // Returns the answered request id, or 0 when the answer failed a check.
  std::uint64_t check(BytesView datagram) {
    const auto frame = triad::net::wire::decode_frame(datagram);
    if (!frame.has_value()) return reject(&bad_);
    const auto opened = channel_->open(frame->payload);
    if (!opened.has_value() || opened->sender != kNodeId) return reject(&bad_);
    const auto message = triad::proto::decode(opened->plaintext);
    const auto* response =
        message.has_value()
            ? std::get_if<triad::proto::PeerTimeResponse>(&*message)
            : nullptr;
    if (response == nullptr) return reject(&bad_);
    const std::uint64_t id = response->request_id;
    if (id == 0 || id >= seen_.size() || seen_[id] != 0) {
      return reject(&duplicate_);
    }
    seen_[id] = 1;
    if (response->tainted) return reject(&tainted_);
    if (response->timestamp <= last_) ++non_monotone_;
    last_ = response->timestamp;
    return id;
  }

  // Request ids that never got an answer that opened.
  [[nodiscard]] std::uint64_t unanswered() const {
    return static_cast<std::uint64_t>(
        std::count(seen_.begin() + 1, seen_.end(), std::uint8_t{0}));
  }
  [[nodiscard]] std::uint64_t bad() const { return bad_; }
  [[nodiscard]] std::uint64_t tainted() const { return tainted_; }
  [[nodiscard]] std::uint64_t duplicate() const { return duplicate_; }
  [[nodiscard]] std::uint64_t non_monotone() const { return non_monotone_; }

 private:
  std::uint64_t reject(std::uint64_t* counter) {
    ++*counter;
    return 0;
  }

  NodeId client_;
  const triad::crypto::Keyring& keyring_;
  std::unique_ptr<triad::crypto::SecureChannel> channel_;
  std::vector<std::uint8_t> seen_;
  SimTime last_ = 0;
  std::uint64_t bad_ = 0;
  std::uint64_t tainted_ = 0;
  std::uint64_t duplicate_ = 0;
  std::uint64_t non_monotone_ = 0;
};

// --- phases --------------------------------------------------------------

struct BurstResult {
  std::vector<double> round_rps;  // authenticated answers/s per round
  std::uint64_t sent = 0;
  std::uint64_t requests = 0;  // worker-counted requests during the rounds
  std::uint64_t allocations = 0;  // by the busiest allocating thread
};

// Rounds of a closed window over requests [first, first + rounds*size).
BurstResult burst(ClientSocket& socket, const Requests& requests,
                  std::size_t first, std::size_t rounds, std::size_t size,
                  AnswerChecker& checker, const timed::WorkerStats& worker) {
  BurstResult result;
  std::vector<std::uint8_t> arena(size * kSlot);
  std::vector<std::uint16_t> lengths(size);
  PerThreadAllocations allocs_before{};
  PerThreadAllocations allocs_after{};
  const std::uint64_t requests_before =
      worker.requests.load(std::memory_order_relaxed);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t base = first + round * size;
    std::size_t sent = 0;
    std::size_t got = 0;
    allocations_per_thread(allocs_before);
    const std::uint64_t start = now_ns();
    std::uint64_t last = start;
    while (got < size) {
      while (sent < size && sent - got + kBatch <= kWindow) {
        const std::size_t n =
            socket.send_many(requests, base + sent, size - sent);
        if (n == 0) break;
        sent += n;
      }
      const std::size_t n =
          socket.receive(arena.data(), lengths.data(), got, size - got);
      if (n > 0) {
        got += n;
        last = now_ns();
      } else if (now_ns() - last > kDrainTimeoutNs) {
        break;  // the rest is lost; the checks below count it
      }
    }
    // The client loop above allocates nothing, so the thread that
    // allocated most during the round is the serve worker.
    allocations_per_thread(allocs_after);
    std::uint64_t worker_allocs = 0;
    for (std::size_t t = 0; t < kAllocSlots; ++t) {
      worker_allocs =
          std::max(worker_allocs, allocs_after[t] - allocs_before[t]);
    }
    result.allocations += worker_allocs;
    result.sent += sent;
    std::uint64_t authenticated = 0;
    for (std::size_t j = 0; j < got; ++j) {
      if (checker.check(BytesView(arena.data() + j * kSlot, lengths[j])) !=
          0) {
        ++authenticated;
      }
    }
    if (last > start) {
      result.round_rps.push_back(static_cast<double>(authenticated) * 1e9 /
                                 static_cast<double>(last - start));
    }
  }
  result.requests =
      worker.requests.load(std::memory_order_relaxed) - requests_before;
  return result;
}

struct PacedResult {
  std::vector<double> latency_us;  // per authenticated answer
  std::vector<double> late_us;     // per sent request
  std::uint64_t sent = 0;
  std::uint64_t capped = 0;
  std::uint64_t answered = 0;
  std::uint64_t requests = 0;
};

// Open loop at `rate`/s over requests [first, first + count).
PacedResult paced(ClientSocket& socket, const Requests& requests,
                  std::size_t first, std::size_t count, double rate,
                  AnswerChecker& checker, const timed::WorkerStats& worker,
                  std::uint64_t first_id) {
  PacedResult result;
  std::vector<std::uint8_t> arena(count * kSlot);
  std::vector<std::uint16_t> lengths(count);
  std::vector<std::uint64_t> recv_at(count);
  std::vector<std::uint64_t> sent_at(count);
  std::vector<std::uint8_t> capped(count, 0);
  const double period_ns = 1e9 / rate;
  const std::uint64_t requests_before =
      worker.requests.load(std::memory_order_relaxed);

  const std::uint64_t t0 = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
  };
  std::size_t sent = 0;
  std::size_t got = 0;
  const std::uint64_t give_up = due(count) + kDrainTimeoutNs;
  std::uint64_t now = 0;
  while (got < count) {
    while (sent < count) {
      now = now_ns();
      if (due(sent) > now) break;
      if (sent - got >= kInFlightCap) {
        if (capped[sent] == 0) {
          capped[sent] = 1;
          ++result.capped;
        }
        break;
      }
      if (!socket.send_one(requests, first + sent)) break;  // retried
      sent_at[sent] = now;
      ++sent;
    }
    const std::size_t n =
        socket.receive(arena.data(), lengths.data(), got, count - got);
    if (n > 0) {
      const std::uint64_t at = now_ns();
      for (std::size_t k = 0; k < n; ++k) recv_at[got + k] = at;
      got += n;
    } else if (now_ns() > give_up) {
      break;  // the rest is lost; the checks count it
    }
  }
  result.sent = sent;
  result.requests =
      worker.requests.load(std::memory_order_relaxed) - requests_before;

  result.late_us.reserve(sent);
  for (std::size_t i = 0; i < sent; ++i) {
    result.late_us.push_back(static_cast<double>(sent_at[i] - due(i)) / 1e3);
  }
  result.latency_us.reserve(got);
  for (std::size_t j = 0; j < got; ++j) {
    const std::uint64_t id =
        checker.check(BytesView(arena.data() + j * kSlot, lengths[j]));
    if (id < first_id || id >= first_id + count) continue;
    const std::uint64_t due_at = due(id - first_id);
    result.latency_us.push_back(
        static_cast<double>(recv_at[j] > due_at ? recv_at[j] - due_at : 0) /
        1e3);
  }
  result.answered = result.latency_us.size();
  return result;
}

// --- traced-pass helpers -------------------------------------------------

// Count and inclusive time of every profiler node called `name`.
void find_scope(const triad::obs::ProfNode& node, const std::string& name,
                std::uint64_t* count, std::uint64_t* incl_ns) {
  if (node.name == name) {
    *count += node.count;
    *incl_ns += node.incl_ns;
  }
  for (const auto& child : node.children) {
    find_scope(child, name, count, incl_ns);
  }
}

struct BatchProfile {
  std::uint64_t batches = 0;
  std::uint64_t busy_ns = 0;
};

BatchProfile serve_batches() {
  BatchProfile profile;
  const triad::obs::ProfTree tree =
      triad::obs::Profiler::instance().merge();
  find_scope(tree.root, "timed/serve_batch", &profile.batches,
             &profile.busy_ns);
  return profile;
}

struct StageCosts {
  double frame_decode = 0, channel_open = 0, proto_decode = 0,
         proto_encode = 0, channel_seal = 0, frame_encode = 0, udp_send = 0,
         udp_recv = 0;
  std::string error;  // non-empty when a stage rejected its input

  [[nodiscard]] double sum() const {
    return frame_decode + channel_open + proto_decode + proto_encode +
           channel_seal + frame_encode + udp_send + udp_recv;
  }
};

// Re-runs ServeWorker::on_readable's stage sequence on fresh frames in
// this thread, one stage at a time over chunks of frames, and times each
// public call (ns per call; udp_recv per datagram).
StageCosts stage_replay(const triad::crypto::Keyring& keyring,
                        std::uint64_t seed, SpanLog& spans) {
  constexpr std::size_t kChunk = 256;
  constexpr std::size_t kChunks = 128;
  triad::crypto::SecureChannel client(kStageClientId, keyring);
  triad::crypto::SecureChannel server(kNodeId, keyring);
  const Requests frames =
      seal_requests(client, kStageClientId, 1, kChunk * kChunks);
  rt::UdpSocket tx = rt::UdpSocket::bind(rt::kLoopbackAny);
  rt::UdpSocket rx = rt::UdpSocket::bind(rt::kLoopbackAny);
  StageCosts costs;
  if (!tx.valid() || !rx.valid()) {
    costs.error = "cannot open the stage-replay sockets";
    return costs;
  }
  const int rcvbuf = 4 << 20;
  (void)::setsockopt(rx.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const rt::SockAddr sink = rx.local_addr();

  std::vector<std::optional<triad::net::wire::Frame>> decoded(kChunk);
  std::vector<std::optional<triad::crypto::SecureChannel::Opened>> opened(
      kChunk);
  std::vector<std::optional<triad::proto::Message>> messages(kChunk);
  std::vector<Bytes> plain(kChunk);
  std::vector<Bytes> sealed(kChunk);
  std::vector<Bytes> wire(kChunk);
  std::array<rt::RecvView, rt::kRecvBatch> views;
  SimTime stamp = static_cast<SimTime>(seed);
  std::uint64_t received = 0;

  const auto all_of_chunk = [](const auto& values) {
    return std::all_of(values.begin(), values.end(),
                       [](const auto& v) { return v.has_value(); });
  };
  const auto stage = [&](const char* name, std::uint64_t chunk,
                         std::int64_t parent, double* total, auto&& body) {
    const std::uint64_t start = now_ns();
    const std::uint64_t n = body();
    const std::uint64_t end = now_ns();
    spans.add(name, chunk, parent, start, end, n);
    *total += static_cast<double>(end - start);
    return n;
  };

  std::uint64_t calls = 0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    ScopedSpan chunk_span(spans, "serve.stage_replay", c);
    const std::int64_t parent = chunk_span.index();
    const std::size_t base = c * kChunk;
    stage("net.frame_decode", c, parent, &costs.frame_decode, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        decoded[i] = triad::net::wire::decode_frame(
            BytesView(frames.data(base + i), frames.length(base + i)));
      }
      return kChunk;
    });
    if (!all_of_chunk(decoded)) {
      costs.error = "decode_frame rejected a fresh frame";
      break;
    }
    stage("crypto.channel_open", c, parent, &costs.channel_open, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        opened[i] = server.open(decoded[i]->payload);
      }
      return kChunk;
    });
    if (!all_of_chunk(opened)) {
      costs.error = "SecureChannel::open rejected a fresh frame";
      break;
    }
    stage("triad.proto_decode", c, parent, &costs.proto_decode, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        messages[i] = triad::proto::decode(opened[i]->plaintext);
      }
      return kChunk;
    });
    if (!all_of_chunk(messages)) {
      costs.error = "proto::decode rejected a fresh request";
      break;
    }
    stage("triad.proto_encode", c, parent, &costs.proto_encode, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        triad::proto::PeerTimeResponse response;
        const auto* request =
            std::get_if<triad::proto::PeerTimeRequest>(&*messages[i]);
        response.request_id = request != nullptr ? request->request_id : 0;
        response.timestamp = ++stamp;
        plain[i] = triad::proto::encode(response);
      }
      return kChunk;
    });
    stage("crypto.channel_seal", c, parent, &costs.channel_seal, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        sealed[i] = server.seal(kStageClientId, plain[i]);
      }
      return kChunk;
    });
    stage("net.frame_encode", c, parent, &costs.frame_encode, [&] {
      for (std::size_t i = 0; i < kChunk; ++i) {
        triad::net::wire::encode_frame_into(kNodeId, kStageClientId,
                                            sealed[i], wire[i]);
      }
      return kChunk;
    });
    stage("runtime.udp_send", c, parent, &costs.udp_send, [&] {
      std::uint64_t ok = 0;
      for (std::size_t i = 0; i < kChunk; ++i) ok += tx.send_to(sink, wire[i]);
      return ok;
    });
    received += stage("runtime.udp_recv", c, parent, &costs.udp_recv, [&] {
      std::uint64_t got = 0;
      while (got < kChunk) {
        const std::size_t n = rx.recv_batch(views);
        if (n == 0) break;
        got += n;
      }
      return got;
    });
    calls += kChunk;
  }
  const double n = static_cast<double>(calls);
  costs.frame_decode /= n;
  costs.channel_open /= n;
  costs.proto_decode /= n;
  costs.proto_encode /= n;
  costs.channel_seal /= n;
  costs.frame_encode /= n;
  costs.udp_send /= n;
  costs.udp_recv /= static_cast<double>(std::max<std::uint64_t>(received, 1));
  return costs;
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome out;
  SpanLog spans(args.trace);
  const Bytes secret = master_secret(args.seed);
  const triad::crypto::ClusterKeyring keyring(secret);
  const NodeId client_id = 100 + static_cast<NodeId>(args.seed % 800);

  // Request layout, in sending order: warm-up, paced phase, (traced
  // pass: the second cluster's warm-up), burst rounds. Half of the
  // measured time is paced; the burst rounds are sized for about as long
  // at the worker's burst capacity on the reference machine.
  const auto paced_count =
      static_cast<std::size_t>(args.paced_rate * args.seconds / 2.0);
  const auto rounds = static_cast<std::size_t>(
      std::max(2.0, std::ceil(args.seconds * kRoundsPerSecond)));
  const std::size_t paced_first = kWarmupRequests;
  const std::size_t warm2_first = paced_first + paced_count;
  const std::size_t burst_first =
      warm2_first + (args.trace ? kWarmupRequests : 0);
  const std::size_t total = burst_first + rounds * kBurstRound;

  // --- set-up: bring-up (timed kBringups times, median) + pre-sealing --
  const Placement placement = plan_placement();
  std::vector<double> bringup_s;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kBringups; ++i) {
    const std::uint64_t start = now_ns();
    cluster = bring_up(args.seed, keyring, placement);
    bringup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (!cluster->error.empty()) {
      out.fail(1, "bring-up: " + cluster->error);
      return out;
    }
    if (i + 1 < kBringups) cluster.reset();
  }
  const std::uint64_t seal_start = now_ns();
  triad::crypto::SecureChannel channel(client_id, keyring);
  const Requests requests = seal_requests(channel, client_id, 1, total);
  const double seal_s = static_cast<double>(now_ns() - seal_start) / 1e9;
  const double setup_s = median(bringup_s) + seal_s;

  AnswerChecker checker(client_id, keyring, total);
  auto socket = std::make_unique<ClientSocket>(cluster->node->serve_addr());
  if (!socket->valid()) {
    out.fail(1, "cannot open the client socket");
    return out;
  }

  // Warm-up: the worker's first batches allocate its receive buffers.
  const BurstResult warm = burst(*socket, requests, 0, 1, kWarmupRequests,
                                 checker, cluster->worker());
  triad::obs::Profiler& profiler = triad::obs::Profiler::instance();
  profiler.reset();

  profiler.set_enabled(args.trace);
  const PacedResult pace =
      paced(*socket, requests, paced_first, paced_count, args.paced_rate,
            checker, cluster->worker(), paced_first + 1);
  profiler.set_enabled(false);

  std::uint64_t worker_requests = 0;
  std::uint64_t worker_responses = 0;
  std::uint64_t worker_bad = 0;
  std::uint64_t worker_decode = 0;
  std::uint64_t worker_send = 0;
  const auto fold_worker = [&](const Cluster& c) {
    const timed::WorkerStats& w = c.worker();
    worker_requests += w.requests.load();
    worker_responses += w.responses.load();
    worker_bad += w.bad_frames.load();
    worker_decode += w.decode_errors.load();
    worker_send += w.send_failures.load();
  };

  BatchProfile paced_profile;
  BurstResult warm2;
  if (args.trace) {
    // The profiler is read only after every thread has been joined: a
    // fresh cluster serves the burst phase.
    cluster->shutdown();
    fold_worker(*cluster);
    paced_profile = serve_batches();
    profiler.reset();
    socket.reset();
    cluster = bring_up(args.seed, keyring, placement);
    if (!cluster->error.empty()) {
      out.fail(1, "bring-up: " + cluster->error);
      return out;
    }
    socket = std::make_unique<ClientSocket>(cluster->node->serve_addr());
    checker.new_node();
    // The new worker's replay window starts empty, so requests sealed
    // later in the same client stream stay acceptable.
    warm2 = burst(*socket, requests, warm2_first, 1, kWarmupRequests, checker,
                  cluster->worker());
  }

  const std::size_t plain_rounds = args.trace ? rounds / 2 : rounds;
  const BurstResult plain =
      burst(*socket, requests, burst_first, plain_rounds, kBurstRound,
            checker, cluster->worker());
  BurstResult profiled;
  BatchProfile burst_profile;
  if (args.trace) {
    profiler.set_enabled(true);
    profiled = burst(*socket, requests,
                     burst_first + plain_rounds * kBurstRound,
                     rounds - plain_rounds, kBurstRound, checker,
                     cluster->worker());
    profiler.set_enabled(false);
  }
  cluster->shutdown();
  fold_worker(*cluster);
  if (args.trace) burst_profile = serve_batches();
  profiler.reset();

  // --- checks ----------------------------------------------------------
  // An answer that fails to open cannot be tied to its request, so it
  // shows up as an unanswered request id.
  const std::uint64_t sent =
      warm.sent + pace.sent + warm2.sent + plain.sent + profiled.sent;
  out.attempted = total;
  if (const std::uint64_t missing = checker.unanswered(); missing > 0) {
    out.fail(missing, "requests without an authenticated answer (" +
                          std::to_string(total - sent) + " never sent, " +
                          std::to_string(checker.bad()) +
                          " answers failed to open)");
  }
  if (checker.tainted() > 0) out.fail(checker.tainted(), "tainted answers");
  if (checker.duplicate() > 0) {
    out.fail(checker.duplicate(), "request ids answered twice or unknown");
  }
  if (checker.non_monotone() > 0) {
    out.fail(checker.non_monotone(), "timestamps not monotone");
  }
  if (worker_bad + worker_decode + worker_send > 0) {
    out.fail(worker_bad + worker_decode + worker_send,
             "worker counted bad_frames/decode_errors/send_failures");
  }

  // --- metrics ---------------------------------------------------------
  std::vector<double> latency = pace.latency_us;
  const double throughput = median(plain.round_rps);
  out.note("serve: paced " + std::to_string(pace.answered) + " answers at " +
           std::to_string(static_cast<long>(args.paced_rate)) + "/s, " +
           std::to_string(plain.round_rps.size()) + " burst rounds of " +
           std::to_string(kBurstRound));
  if (!args.trace) {
    out.add("setup_s", setup_s, "s");
    out.add("throughput", throughput, "op/s");
    out.add("latency_p50_us", percentile(latency, 0.50), "us");
    out.add("latency_p90_us", percentile(latency, 0.90), "us");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("ok_share", out.ok_share(), "share");
    return out;
  }

  const StageCosts stages = stage_replay(keyring, args.seed, spans);
  if (!stages.error.empty()) out.fail(1, "stage replay: " + stages.error);
  const double busy_per_request =
      profiled.requests > 0 ? static_cast<double>(burst_profile.busy_ns) /
                                  static_cast<double>(profiled.requests)
                            : 0.0;
  std::vector<double> late = pace.late_us;
  out.add("timed.requests", static_cast<double>(worker_requests), "count");
  out.add("timed.responses", static_cast<double>(worker_responses), "count");
  out.add("timed.bad_frames", static_cast<double>(worker_bad), "count");
  out.add("timed.decode_errors", static_cast<double>(worker_decode), "count");
  out.add("timed.send_failures", static_cast<double>(worker_send), "count");
  out.add("timed.requests_per_batch.paced",
          paced_profile.batches > 0
              ? static_cast<double>(pace.requests) /
                    static_cast<double>(paced_profile.batches)
              : 0.0,
          "count");
  out.add("timed.requests_per_batch.burst",
          burst_profile.batches > 0
              ? static_cast<double>(profiled.requests) /
                    static_cast<double>(burst_profile.batches)
              : 0.0,
          "count");
  out.add("timed.busy_ns_per_request", busy_per_request, "ns");
  out.add("net.frame_decode_ns", stages.frame_decode, "ns");
  out.add("crypto.channel_open_ns", stages.channel_open, "ns");
  out.add("triad.proto_decode_ns", stages.proto_decode, "ns");
  out.add("triad.proto_encode_ns", stages.proto_encode, "ns");
  out.add("crypto.channel_seal_ns", stages.channel_seal, "ns");
  out.add("net.frame_encode_ns", stages.frame_encode, "ns");
  out.add("runtime.udp_send_ns", stages.udp_send, "ns");
  out.add("runtime.udp_recv_ns", stages.udp_recv, "ns");
  out.add("serve.stage_sum_over_e2e",
          busy_per_request > 0 ? stages.sum() / busy_per_request : 0.0,
          "ratio");
  out.add("serve.allocs_per_request",
          plain.requests > 0 ? static_cast<double>(plain.allocations) /
                                   static_cast<double>(plain.requests)
                             : 0.0,
          "count");
  out.add("gen.late_p99_us", percentile(late, 0.99), "us");
  out.add("gen.capped_share",
          static_cast<double>(pace.capped) /
              static_cast<double>(std::max<std::size_t>(paced_count, 1)),
          "share");
  out.add("gen.sent", static_cast<double>(pace.sent), "count");
  out.add("serve.latency_p99_us", percentile(latency, 0.99), "us");
  out.add("serve.latency_p999_us", percentile(latency, 0.999), "us");
  out.add("serve.latency_samples", static_cast<double>(latency.size()),
          "count");
  const double traced = median(profiled.round_rps);
  out.add("trace_overhead", throughput > 0 ? traced / throughput : 0.0,
          "ratio");
  save_spans(spans, args, out);
  return out;
}

}  // namespace perfbench
