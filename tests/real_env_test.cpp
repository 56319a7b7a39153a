// runtime::RealEnv: real-socket framing, malformed-datagram robustness,
// scheduler ordering, and the SimEnv-vs-RealEnv protocol cross-check.
//
// Every test that needs sockets GTEST_SKIPs when the sandbox cannot bind
// loopback UDP (as the `net`-labelled triad_timed ctest entries do).
// These tests carry the `net` ctest label; see tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "crypto/channel.h"
#include "net/network.h"
#include "net/wire.h"
#include "obs/detect.h"
#include "obs/trace.h"
#include "runtime/real_env.h"
#include "runtime/sim_env.h"
#include "sim/simulation.h"
#include "ta/time_authority.h"
#include "timed/service.h"
#include "triad/messages.h"

// This binary replaces the global operator new so the serve-worker test
// can count the heap allocations of the worker thread alone: every
// thread counts except one that opted out (the test's own thread).
namespace {
std::atomic<std::uint64_t> g_counted_allocations{0};
thread_local bool t_uncounted = false;

void count_allocation() {
  if (!t_uncounted) {
    g_counted_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_allocate(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_allocate_aligned(std::size_t size, std::align_val_t align) {
  count_allocation();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size); }
void* operator new[](std::size_t size) { return counted_allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_allocate_aligned(size, align);
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

namespace triad::runtime {
namespace {

constexpr NodeId kTa = 100;
constexpr NodeId kClient = 1;

bool sockets_available() {
  const UdpSocket probe = UdpSocket::bind(kLoopbackAny);
  return probe.valid();
}

#define SKIP_WITHOUT_SOCKETS()                                  \
  do {                                                          \
    if (!sockets_available()) {                                 \
      GTEST_SKIP() << "no loopback UDP in this sandbox";        \
    }                                                           \
  } while (0)

TEST(SockAddrTest, ParseRoundTrip) {
  const auto addr = parse_sockaddr("127.0.0.1:9000");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ip, 0x7f000001u);
  EXPECT_EQ(addr->port, 9000);
  EXPECT_EQ(addr->to_string(), "127.0.0.1:9000");

  EXPECT_FALSE(parse_sockaddr("").has_value());
  EXPECT_FALSE(parse_sockaddr("127.0.0.1").has_value());
  EXPECT_FALSE(parse_sockaddr("127.0.0.1:").has_value());
  EXPECT_FALSE(parse_sockaddr("127.0.0.1:99999").has_value());
  EXPECT_FALSE(parse_sockaddr("256.0.0.1:1").has_value());
  EXPECT_FALSE(parse_sockaddr("1.2.3:4").has_value());
  EXPECT_FALSE(parse_sockaddr("a.b.c.d:1").has_value());
}

TEST(RealSchedulerTest, FifoAtEqualDeadlinesAndCancel) {
  RealClock clock;
  RealScheduler scheduler(clock);

  std::vector<int> order;
  const SimTime due = clock.now();  // already due
  scheduler.schedule_at(due, [&] { order.push_back(1); });
  const TimerId cancelled = scheduler.schedule_at(due, [&] {
    order.push_back(2);
  });
  scheduler.schedule_at(due, [&] { order.push_back(3); });
  EXPECT_TRUE(scheduler.cancel(cancelled));
  EXPECT_FALSE(scheduler.cancel(cancelled));  // double-cancel is a no-op

  scheduler.fire_due(clock.now());
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(scheduler.pending(), 0u);

  // A timer scheduled far in the future stays pending.
  scheduler.schedule_after(hours(1), [&] { order.push_back(4); });
  scheduler.fire_due(clock.now());
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(UdpSocketTest, FramingRoundTripOverLoopback) {
  SKIP_WITHOUT_SOCKETS();
  UdpSocket server = UdpSocket::bind(kLoopbackAny);
  UdpSocket client = UdpSocket::bind(kLoopbackAny);
  ASSERT_TRUE(server.valid());
  ASSERT_TRUE(client.valid());
  server.set_recv_timeout_ms(2000);

  const Bytes payload = {0xde, 0xad, 0xbe, 0xef};
  const Bytes datagram = net::wire::encode_frame(7, 9, payload);
  ASSERT_TRUE(client.send_to(server.local_addr(), datagram));

  std::array<RecvView, kRecvBatch> views;
  const std::size_t got = server.recv_batch(views);
  ASSERT_EQ(got, 1u);
  const auto frame = net::wire::decode_frame(views[0].data);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->src, 7u);
  EXPECT_EQ(frame->dst, 9u);
  EXPECT_EQ(Bytes(frame->payload.begin(), frame->payload.end()), payload);
  // The kernel reports the client's bound endpoint as the source.
  EXPECT_EQ(views[0].from, client.local_addr());
}

TEST(UdpSocketTest, MoveTransfersTheFdAndInvalidatesTheSource) {
  SKIP_WITHOUT_SOCKETS();
  UdpSocket original = UdpSocket::bind(kLoopbackAny);
  ASSERT_TRUE(original.valid());
  const SockAddr addr = original.local_addr();

  UdpSocket moved(std::move(original));
  EXPECT_FALSE(original.valid());
  EXPECT_EQ(original.local_addr(), SockAddr{});
  UdpSocket server;
  server = std::move(moved);
  EXPECT_FALSE(moved.valid());
  ASSERT_TRUE(server.valid());
  EXPECT_EQ(server.local_addr(), addr);

  // The moved-to socket still owns the open, bound fd.
  server.set_recv_timeout_ms(2000);
  UdpSocket client = UdpSocket::bind(kLoopbackAny);
  const Bytes datagram = net::wire::encode_frame(7, 9, Bytes{1, 2, 3});
  ASSERT_TRUE(client.send_to(addr, datagram));
  std::array<RecvView, kRecvBatch> views;
  ASSERT_EQ(server.recv_batch(views), 1u);
  EXPECT_EQ(Bytes(views[0].data.begin(), views[0].data.end()), datagram);
}

// Payloads received on `socket` until `want` arrived or a receive timed
// out.
std::vector<Bytes> receive_payloads(UdpSocket& socket, std::size_t want) {
  std::vector<Bytes> out;
  std::array<RecvView, kRecvBatch> views;
  while (out.size() < want) {
    const std::size_t n = socket.recv_batch(views);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      out.emplace_back(views[i].data.begin(), views[i].data.end());
    }
  }
  return out;
}

TEST(UdpSocketTest, SendBatchRoutesEachDatagramAndStopsAtFirstRefusal) {
  SKIP_WITHOUT_SOCKETS();
  UdpSocket a = UdpSocket::bind(kLoopbackAny);
  UdpSocket b = UdpSocket::bind(kLoopbackAny);
  UdpSocket tx = UdpSocket::bind(kLoopbackAny);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  ASSERT_TRUE(tx.valid());
  a.set_recv_timeout_ms(2000);
  b.set_recv_timeout_ms(2000);

  const Bytes a0 = {0xa0};
  const Bytes b0 = {0xb0};
  const Bytes a1 = {0xa1};
  const std::array<SendView, 3> routed = {SendView{a.local_addr(), a0},
                                          SendView{b.local_addr(), b0},
                                          SendView{a.local_addr(), a1}};
  ASSERT_EQ(tx.send_batch(routed.data(), routed.size()), 3u);
  EXPECT_EQ(receive_payloads(a, 2), (std::vector<Bytes>{a0, a1}));
  EXPECT_EQ(receive_payloads(b, 1), (std::vector<Bytes>{b0}));

  // Port 0 is never a valid UDP destination (EINVAL): sendmmsg stops
  // there, and nothing after the refused datagram is sent.
  const SockAddr port_zero{0x7f000001u, 0};
  const std::array<SendView, 3> refused = {SendView{a.local_addr(), a0},
                                           SendView{port_zero, b0},
                                           SendView{a.local_addr(), a1}};
  EXPECT_EQ(tx.send_batch(refused.data(), refused.size()), 1u);
  a.set_recv_timeout_ms(200);
  EXPECT_EQ(receive_payloads(a, 2), (std::vector<Bytes>{a0}));

  // A refusal at the head sends nothing.
  EXPECT_EQ(tx.send_batch(refused.data() + 1, 2), 0u);
  EXPECT_TRUE(receive_payloads(a, 1).empty());
}

TEST(TcpConnTest, WriteAllBoundsTotalStallAgainstSlowReader) {
  SKIP_WITHOUT_SOCKETS();
  // SO_SNDTIMEO only bounds each write() call: a reader draining one
  // byte per interval keeps every partial write under the per-call
  // timeout, so without write_all's cumulative deadline a slow-loris
  // scraper could stall the telemetry sender indefinitely.
  std::string error;
  TcpListener listener = TcpListener::open(kLoopbackAny, &error);
  ASSERT_TRUE(listener.valid()) << error;
  TcpConn client = TcpConn::dial(listener.local_addr(), 200, &error);
  ASSERT_TRUE(client.valid()) << error;
  TcpConn server;
  for (int i = 0; i < 200 && !server.valid(); ++i) {
    server = listener.accept_client(/*timeout_ms=*/200);
    if (!server.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_TRUE(server.valid());

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint8_t byte = 0;
    while (!done.load(std::memory_order_relaxed)) {
      (void)client.read_some(&byte, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  // Far larger than the loopback socket buffers, and hours of work at
  // the ~20 B/s the reader drains — the write can only end by deadline.
  const Bytes big(std::size_t{64} << 20, 0xab);
  const MonotonicTimer elapsed;
  const bool ok = server.write_all(BytesView{big.data(), big.size()});
  const double waited_ms = elapsed.elapsed_ms();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_FALSE(ok);
  // 200 ms cumulative deadline + at most one blocked write's own
  // SO_SNDTIMEO + scheduling slack; generous but finite.
  EXPECT_LT(waited_ms, 5000.0);
}

TEST(UdpTransportTest, GarbageAndTruncatedDatagramsCountedNeverFatal) {
  SKIP_WITHOUT_SOCKETS();
  RealEnvConfig config;
  config.listen = kLoopbackAny;
  RealEnv env(config);
  ASSERT_TRUE(env.valid());

  std::optional<Packet> received;
  env.transport()->attach(5, [&](const Packet& p) {
    received.emplace(Packet{p.src, p.dst, {}, p.sent_at, p.id});
    env.stop();
  });

  UdpSocket client = UdpSocket::bind(kLoopbackAny);
  ASSERT_TRUE(client.valid());
  const SockAddr server = env.transport()->local_addr();

  // Four malformed datagrams: short, wrong magic, truncated header, and
  // a valid header addressed to nobody.
  ASSERT_TRUE(client.send_to(server, Bytes{0x01}));
  Bytes wrong_magic = net::wire::encode_frame(1, 5, Bytes{1, 2, 3});
  wrong_magic[0] ^= 0xff;
  ASSERT_TRUE(client.send_to(server, wrong_magic));
  const Bytes valid = net::wire::encode_frame(1, 5, Bytes{1, 2, 3});
  ASSERT_TRUE(
      client.send_to(server, BytesView(valid.data(), net::wire::kHeaderSize - 2)));
  ASSERT_TRUE(client.send_to(server, net::wire::encode_frame(1, 42, Bytes{9})));
  // Then one valid frame for the attached handler; receiving it proves
  // the garbage before it was absorbed without killing the loop.
  ASSERT_TRUE(client.send_to(server, valid));

  env.run_for(seconds(2));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->src, 1u);
  EXPECT_EQ(received->dst, 5u);

  const UdpTransportStats& stats = env.transport()->stats();
  EXPECT_EQ(stats.decode_errors, 3u);
  EXPECT_EQ(stats.dropped_no_receiver, 1u);
  EXPECT_EQ(stats.delivered, 1u);
}

/// Runs one sealed TaRequest/TaResponse exchange against a TimeAuthority
/// and returns the trace as (type, node, peer) tuples.
struct TraceTuple {
  obs::TraceEventType type;
  NodeId node;
  NodeId peer;
  friend bool operator==(const TraceTuple&, const TraceTuple&) = default;
};

std::vector<TraceTuple> tuples_of(const obs::RingTraceSink& trace) {
  std::vector<TraceTuple> out;
  trace.for_each([&](const obs::TraceEvent& event) {
    out.push_back({event.type, event.node, event.peer});
  });
  return out;
}

/// Detector verdicts with the backend-independent fields only (alarm
/// timestamps follow the backend's clock and must not be compared).
struct AlarmTuple {
  obs::DetectorKind detector;
  NodeId node;
  NodeId source;
  friend bool operator==(const AlarmTuple&, const AlarmTuple&) = default;
};

std::vector<AlarmTuple> replay_alarms(const obs::RingTraceSink& trace) {
  obs::DetectorBank bank(obs::DetectorConfig{}, nullptr, nullptr);
  trace.for_each([&](const obs::TraceEvent& event) { bank.emit(event); });
  std::vector<AlarmTuple> out;
  for (const obs::Alarm& alarm : bank.alarms()) {
    out.push_back({alarm.detector, alarm.node, alarm.source});
  }
  return out;
}

std::vector<TraceTuple> sim_exchange(const crypto::Keyring& keyring,
                                     std::vector<AlarmTuple>* alarms) {
  obs::RingTraceSink trace(1024);
  sim::Simulation sim(5);
  net::Network net(sim, std::make_unique<net::FixedDelay>(milliseconds(1)));
  SimEnv env(sim, net, ObsBinding{nullptr, &trace});
  ta::TimeAuthority ta(env, kTa, keyring);

  crypto::SecureChannel client(kClient, keyring);
  bool answered = false;
  net.attach(kClient, [&](const net::Packet& p) {
    answered = client.open(p.payload).has_value();
  });
  net.send(kClient, kTa,
           client.seal(kTa, proto::encode(proto::Message{proto::TaRequest{
                                 .request_id = 4, .wait = 0}})));
  sim.run();
  EXPECT_TRUE(answered);
  if (alarms != nullptr) *alarms = replay_alarms(trace);
  return tuples_of(trace);
}

std::vector<TraceTuple> real_exchange(const crypto::Keyring& keyring,
                                      std::vector<AlarmTuple>* alarms) {
  obs::RingTraceSink trace(1024);
  RealEnvConfig config;
  config.listen = kLoopbackAny;
  config.obs = ObsBinding{nullptr, &trace};
  RealEnv env(config);
  EXPECT_TRUE(env.valid());
  // Client and TA are colocated on the one socket; the wire dst field
  // routes between them, so the datagram loops through the kernel.
  env.transport()->set_peer(kTa, env.transport()->local_addr());
  env.transport()->set_peer(kClient, env.transport()->local_addr());
  ta::TimeAuthority ta(env, kTa, keyring);

  crypto::SecureChannel client(kClient, keyring);
  bool answered = false;
  env.transport()->attach(kClient, [&](const Packet& p) {
    answered = client.open(p.payload).has_value();
    env.stop();
  });
  env.transport()->send(
      kClient, kTa,
      client.seal(kTa, proto::encode(proto::Message{proto::TaRequest{
                            .request_id = 4, .wait = 0}})));
  env.run_for(seconds(5));
  EXPECT_TRUE(answered);
  if (alarms != nullptr) *alarms = replay_alarms(trace);
  return tuples_of(trace);
}

TEST(RealEnvTest, SimAndRealTraceSequencesMatch) {
  SKIP_WITHOUT_SOCKETS();
  const crypto::ClusterKeyring keyring(Bytes(32, 1));
  std::vector<AlarmTuple> sim_alarms;
  std::vector<AlarmTuple> real_alarms;
  const auto sim_trace = sim_exchange(keyring, &sim_alarms);
  const auto real_trace = real_exchange(keyring, &real_alarms);
  // Same protocol, different transport: the (type, node, peer) sequence
  // must be identical; only timestamps differ.
  EXPECT_EQ(sim_trace, real_trace);
  // Detectors are pure trace consumers, so the verdicts must agree
  // across backends too — here an honest exchange raises none on either.
  EXPECT_EQ(sim_alarms, real_alarms);
  EXPECT_TRUE(real_alarms.empty());
  ASSERT_FALSE(real_trace.empty());
  // Spot-check the expected shape: send -> deliver -> serve -> send ->
  // deliver.
  ASSERT_EQ(real_trace.size(), 5u);
  EXPECT_EQ(real_trace[0].type, obs::TraceEventType::kPacketSend);
  EXPECT_EQ(real_trace[1].type, obs::TraceEventType::kPacketDeliver);
  EXPECT_EQ(real_trace[2].type, obs::TraceEventType::kTaServe);
  EXPECT_EQ(real_trace[3].type, obs::TraceEventType::kPacketSend);
  EXPECT_EQ(real_trace[4].type, obs::TraceEventType::kPacketDeliver);
}

// A stop() ends only the run it lands in (or, landing between runs, the
// next one): the env runs again afterwards, for as long as asked.
TEST(RealEnvTest, StopIsUsedUpByTheRunItEnds) {
  RealEnv env(RealEnvConfig{});
  ASSERT_TRUE(env.valid()) << env.bind_error();

  env.env().schedule_after(milliseconds(5), [&env] { env.stop(); });
  const MonotonicTimer first;
  env.run_for(seconds(5));
  EXPECT_LT(first.elapsed_ms(), 1000.0);

  const MonotonicTimer second;
  env.run_for(milliseconds(50));
  EXPECT_GE(second.elapsed_ms(), 50.0);

  env.stop();  // before the run: that run returns at once
  const MonotonicTimer third;
  env.run_for(seconds(5));
  EXPECT_LT(third.elapsed_ms(), 1000.0);
}

TEST(TimedServiceTest, ServesMonotoneSealedTimestamps) {
  SKIP_WITHOUT_SOCKETS();
  using namespace triad::timed;
  const Bytes secret(32, 0x42);

  ServiceConfig ta_config;
  ta_config.role = Role::kTa;
  ta_config.ta_id = 9;
  TimedService ta(ta_config);
  ASSERT_TRUE(ta.valid()) << ta.error();
  ta.start();
  std::thread ta_thread([&ta] { ta.run(); });

  ServiceConfig node_config;
  node_config.role = Role::kNode;
  node_config.workers = 2;
  node_config.node.id = 1;
  node_config.node.ta_address = 9;
  node_config.node.calib_pairs = 2;
  node_config.node.calib_wait_high = milliseconds(20);
  node_config.peers = {{9, ta.protocol_addr()}};
  TimedService node(node_config);
  ASSERT_TRUE(node.valid()) << node.error();
  node.start();
  std::thread node_thread([&node] { node.run(); });

  const crypto::ClusterKeyring keyring(secret);
  timed::BlockingProbe probe(50, 1, node.serve_addr(), keyring);
  ASSERT_TRUE(probe.valid());

  // Wait out calibration, then demand strictly monotone sealed answers.
  std::optional<TrustedTimestamp> first;
  const MonotonicTimer waited;
  while (!first.has_value() && waited.elapsed_ms() < 10000.0) {
    first = probe.request(milliseconds(100));
  }
  ASSERT_TRUE(first.has_value()) << "node never became available";

  SimTime last = first->timestamp;
  for (int i = 0; i < 20; ++i) {
    const auto ts = probe.request();
    ASSERT_TRUE(ts.has_value()) << "request " << i;
    EXPECT_GT(ts->timestamp, last);
    last = ts->timestamp;
  }
  EXPECT_EQ(probe.bad_frames(), 0u);

  node.stop();
  node_thread.join();
  ta.stop();
  ta_thread.join();
  EXPECT_GE(node.total_responses(), 21u);
  EXPECT_EQ(node.total_bad_frames(), 0u);
}

// One probe over two nodes: once node 1 stops answering, every request
// still gets an untainted answer, from node 2, after timing out on node 1
// whenever the probe's rotation starts there.
TEST(TimedServiceTest, ProbeFailsOverWhenANodeStops) {
  SKIP_WITHOUT_SOCKETS();
  using namespace triad::timed;
  const crypto::ClusterKeyring keyring(Bytes(32, 0x42));

  ServiceConfig ta_config;
  ta_config.role = Role::kTa;
  ta_config.ta_id = 9;
  TimedService ta(ta_config);
  ASSERT_TRUE(ta.valid()) << ta.error();
  ta.start();
  std::thread ta_thread([&ta] { ta.run(); });

  std::vector<std::unique_ptr<TimedService>> nodes;
  std::vector<std::thread> node_threads;
  std::vector<std::pair<NodeId, SockAddr>> servers;
  for (NodeId id : {NodeId{1}, NodeId{2}}) {
    ServiceConfig config;
    config.role = Role::kNode;
    config.node.id = id;
    config.node.ta_address = 9;
    config.node.calib_pairs = 2;
    config.node.calib_wait_high = milliseconds(20);
    config.peers = {{9, ta.protocol_addr()}};
    nodes.push_back(std::make_unique<TimedService>(config));
    ASSERT_TRUE(nodes.back()->valid()) << nodes.back()->error();
    nodes.back()->start();
    node_threads.emplace_back([node = nodes.back().get()] { node->run(); });
    servers.emplace_back(id, nodes.back()->serve_addr());
  }

  BlockingProbe probe(50, servers, keyring);
  ASSERT_TRUE(probe.valid());
  bool answered[2] = {false, false};
  const MonotonicTimer waited;
  while (!(answered[0] && answered[1]) && waited.elapsed_ms() < 10000.0) {
    if (const auto ts = probe.request(milliseconds(100)); ts.has_value()) {
      ASSERT_TRUE(ts->served_by == 1 || ts->served_by == 2);
      answered[ts->served_by - 1] = true;
    }
  }
  ASSERT_TRUE(answered[0] && answered[1]) << "nodes never became available";

  nodes[0]->stop();
  node_threads[0].join();
  const std::uint64_t timeouts_before = probe.timeouts();
  for (int i = 0; i < 10; ++i) {
    const auto ts = probe.request(milliseconds(100));
    ASSERT_TRUE(ts.has_value()) << "request " << i;
    EXPECT_EQ(ts->served_by, 2u);
  }
  EXPECT_GE(probe.timeouts() - timeouts_before, 1u);
  EXPECT_EQ(probe.bad_frames(), 0u);

  nodes[1]->stop();
  node_threads[1].join();
  ta.stop();
  ta_thread.join();
}

// ---- ServeWorker on its own -------------------------------------------

constexpr NodeId kServeNode = 1;

// One serve worker answering from a clock snapshot the test publishes
// itself, so no TA or node has to calibrate first.
class ServeRig {
 public:
  ServeRig() : worker_(kLoopbackAny, kServeNode, keyring_, board_) {
    timed::ClockSnapshot snap;
    snap.time = seconds(1000);
    snap.mono_ns = MonotonicTimer::now_ns();
    snap.error_bound = microseconds(5);
    snap.available = true;
    board_.publish(snap);
  }
  ~ServeRig() {
    worker_.stop();
    worker_.join();
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  [[nodiscard]] const crypto::Keyring& keyring() const { return keyring_; }
  [[nodiscard]] timed::ServeWorker& worker() { return worker_; }

 private:
  const crypto::ClusterKeyring keyring_{Bytes(32, 0x42)};
  timed::SnapshotBoard board_;
  timed::ServeWorker worker_;
};

// A client of the rig with its own socket and channel. Requests are
// sealed ahead (ids 1..n); answers are checked as they are read.
class ServeClient {
 public:
  ServeClient(NodeId id, const crypto::Keyring& keyring, std::size_t n)
      : id_(id),
        socket_(UdpSocket::bind(kLoopbackAny)),
        channel_(id, keyring) {
    socket_.set_recv_timeout_ms(2000);
    for (std::size_t i = 1; i <= n; ++i) {
      proto::PeerTimeRequest request;
      request.request_id = i;
      requests_.push_back(net::wire::encode_frame(
          id, kServeNode, channel_.seal(kServeNode, proto::encode(request))));
    }
  }

  [[nodiscard]] bool valid() const { return socket_.valid(); }

  /// Sends request i (0-based) to `server`.
  bool send(std::size_t i, SockAddr server) {
    return socket_.send_to(server, requests_[i]);
  }

  /// Reads until `count` more answers arrived or a read timed out. An
  /// answer counts only if it opens on this client's channel, comes from
  /// the node, and is an untainted PeerTimeResponse; anything else is
  /// counted in bad().
  void receive(std::size_t count) {
    std::array<RecvView, kRecvBatch> views;
    const std::size_t target = answers_.size() + bad_ + count;
    while (answers_.size() + bad_ < target) {
      const std::size_t n = socket_.recv_batch(views);
      if (n == 0) return;
      for (std::size_t i = 0; i < n; ++i) accept(views[i].data);
    }
  }

  [[nodiscard]] const std::vector<proto::PeerTimeResponse>& answers() const {
    return answers_;
  }
  [[nodiscard]] std::size_t bad() const { return bad_; }

  /// True when answers_ holds each request id 1..n exactly once, in
  /// strictly increasing timestamp order.
  [[nodiscard]] bool complete_and_monotone(std::size_t n) const {
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < answers_.size(); ++i) {
      if (i > 0 && answers_[i].timestamp <= answers_[i - 1].timestamp) {
        return false;
      }
      ids.push_back(answers_[i].request_id);
    }
    std::sort(ids.begin(), ids.end());
    if (ids.size() != n) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (ids[i] != i + 1) return false;
    }
    return true;
  }

 private:
  void accept(BytesView datagram) {
    const auto frame = net::wire::decode_frame(datagram);
    if (!frame.has_value() || frame->src != kServeNode || frame->dst != id_) {
      ++bad_;
      return;
    }
    const auto opened = channel_.open(frame->payload);
    if (!opened.has_value() || opened->sender != kServeNode) {
      ++bad_;
      return;
    }
    const auto message = proto::decode(opened->plaintext);
    const auto* response =
        message.has_value() ? std::get_if<proto::PeerTimeResponse>(&*message)
                            : nullptr;
    if (response == nullptr || response->tainted) {
      ++bad_;
      return;
    }
    answers_.push_back(*response);
  }

  NodeId id_;
  UdpSocket socket_;
  crypto::SecureChannel channel_;
  std::vector<Bytes> requests_;
  std::vector<proto::PeerTimeResponse> answers_;
  std::size_t bad_ = 0;
};

TEST(ServeWorkerTest, SeveralClientsInOneBatchEachGetOnlyTheirAnswers) {
  SKIP_WITHOUT_SOCKETS();
  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = kRecvBatch;
  ServeRig rig;
  ASSERT_TRUE(rig.worker().valid()) << rig.worker().bind_error();
  const SockAddr server = rig.worker().local_addr();
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ServeClient>(
        static_cast<NodeId>(101 + c), rig.keyring(), kPerClient));
    ASSERT_TRUE(clients.back()->valid());
  }
  // Every request is queued, round-robin across the clients, before the
  // worker starts, so each receive batch mixes all clients and every
  // reply must go back to the address its own request came from.
  for (std::size_t i = 0; i < kPerClient; ++i) {
    for (auto& client : clients) ASSERT_TRUE(client->send(i, server));
  }
  rig.worker().start();

  for (std::size_t c = 0; c < kClients; ++c) {
    ServeClient& client = *clients[c];
    client.receive(kPerClient);
    EXPECT_EQ(client.bad(), 0u) << "client " << c;
    EXPECT_TRUE(client.complete_and_monotone(kPerClient))
        << "client " << c << " got " << client.answers().size();
  }
  const timed::WorkerStats& stats = rig.worker().stats();
  EXPECT_EQ(stats.requests.load(), kClients * kPerClient);
  EXPECT_EQ(stats.responses.load(), kClients * kPerClient);
  EXPECT_EQ(stats.bad_frames.load(), 0u);
  EXPECT_EQ(stats.decode_errors.load(), 0u);
  EXPECT_EQ(stats.send_failures.load(), 0u);
}

TEST(ServeWorkerTest, ServedRequestsAllocateNothingOnceWarm) {
  SKIP_WITHOUT_SOCKETS();
  t_uncounted = true;  // count the worker thread only
  constexpr std::size_t kRounds = 8;
  ServeRig rig;
  ASSERT_TRUE(rig.worker().valid()) << rig.worker().bind_error();
  const SockAddr server = rig.worker().local_addr();
  ServeClient client(101, rig.keyring(), (kRounds + 1) * kRecvBatch);
  ASSERT_TRUE(client.valid());

  // Warm-up: one full receive batch, queued before the worker starts,
  // touches the receive buffers, the channel's key and replay state and
  // every reply slot.
  for (std::size_t i = 0; i < kRecvBatch; ++i) {
    ASSERT_TRUE(client.send(i, server));
  }
  rig.worker().start();
  client.receive(kRecvBatch);
  ASSERT_EQ(client.answers().size(), kRecvBatch);

  const std::uint64_t before = g_counted_allocations.load();
  for (std::size_t round = 1; round <= kRounds; ++round) {
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      ASSERT_TRUE(client.send(round * kRecvBatch + i, server));
    }
    client.receive(kRecvBatch);
  }
  const std::uint64_t allocations = g_counted_allocations.load() - before;

  EXPECT_EQ(client.bad(), 0u);
  EXPECT_TRUE(client.complete_and_monotone((kRounds + 1) * kRecvBatch));
  EXPECT_EQ(allocations, 0u) << "over " << kRounds * kRecvBatch
                             << " served requests";
}

}  // namespace
}  // namespace triad::runtime
