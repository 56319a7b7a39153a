// TimedService live telemetry: the scrapeable TCP endpoints, the
// internal trace ring + online detector bank, the signal-drain path,
// and the offline==online alarm-verdict invariant.
//
// Everything here opens loopback sockets (the `net` ctest label);
// each test GTEST_SKIPs when the sandbox cannot bind loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/channel.h"
#include "obs/detect.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/real_env.h"
#include "timed/service.h"

namespace triad::timed {
namespace {

using runtime::SockAddr;
using runtime::TcpConn;

bool sockets_available() {
  const runtime::UdpSocket probe = runtime::UdpSocket::bind(
      runtime::kLoopbackAny);
  return probe.valid();
}

#define SKIP_WITHOUT_SOCKETS()                                  \
  do {                                                          \
    if (!sockets_available()) {                                 \
      GTEST_SKIP() << "no loopback UDP in this sandbox";        \
    }                                                           \
  } while (0)

using runtime::http_get;

/// True when any sample line of `family` on the Prometheus page carries
/// a nonzero value.
bool gauge_nonzero(const std::string& text, const std::string& family) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family, 0) != 0) continue;  // skips "# TYPE/HELP" too
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    if (std::stod(line.substr(space + 1)) != 0.0) return true;
  }
  return false;
}

/// "# TYPE name kind" lines of a Prometheus page — the family set, which
/// is fixed at registration time and thus identical between a live
/// scrape and the exit dump (values differ, families must not).
std::set<std::string> prom_families(const std::string& text) {
  std::set<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) out.insert(line);
  }
  return out;
}

/// TA + one node, both with telemetry listeners, running until stopped.
struct Cluster {
  obs::Registry ta_registry;
  obs::Registry node_registry;
  std::optional<TimedService> ta;
  std::optional<TimedService> node;
  std::thread ta_thread;
  std::thread node_thread;

  explicit Cluster(bool detectors = false,
                   double nominal_frequency_hz = 0.0) {
    ServiceConfig ta_config;
    ta_config.role = Role::kTa;
    ta_config.ta_id = 9;
    ta_config.trace_capacity = 1 << 14;
    ta_config.telemetry = runtime::kLoopbackAny;
    ta.emplace(std::move(ta_config),
               &ta_registry);

    ServiceConfig node_config;
    node_config.role = Role::kNode;
    node_config.workers = 2;
    node_config.node.id = 1;
    node_config.node.ta_address = 9;
    node_config.node.calib_pairs = 2;
    node_config.node.calib_wait_high = milliseconds(20);
    node_config.peers = {{9, ta->protocol_addr()}};
    node_config.trace_capacity = 1 << 14;
    node_config.telemetry = runtime::kLoopbackAny;
    node_config.enable_detectors = detectors;
    node_config.detectors.ta_address = 9;
    node_config.detectors.nominal_frequency_hz = nominal_frequency_hz;
    node.emplace(std::move(node_config),
                 &node_registry);
  }

  bool valid() const { return ta->valid() && node->valid(); }

  void start() {
    ta->start();
    ta_thread = std::thread([this] { ta->run(); });
    node->start();
    node_thread = std::thread([this] { node->run(); });
  }

  /// Waits until the node has calibrated, by scraping /trace — the ring
  /// is node-thread state, so the only race-free reader while the loop
  /// runs is the telemetry endpoint itself.
  bool wait_calibrated(double timeout_ms = 10000.0) {
    const SockAddr addr = node->telemetry_addr();
    const runtime::MonotonicTimer waited;
    while (waited.elapsed_ms() < timeout_ms) {
      if (const auto shipped = http_get(addr, "/trace");
          shipped.has_value()) {
        std::size_t rejected = 0;
        for (const obs::TraceEvent& event :
             obs::parse_jsonl(shipped->body, &rejected)) {
          if (event.type == obs::TraceEventType::kCalibration) return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  void stop_and_join() {
    node->stop();
    if (node_thread.joinable()) node_thread.join();
    ta->stop();
    if (ta_thread.joinable()) ta_thread.join();
  }

  ~Cluster() {
    if (node) node->stop();
    if (node_thread.joinable()) node_thread.join();
    if (ta) ta->stop();
    if (ta_thread.joinable()) ta_thread.join();
  }
};

TEST(TimedTelemetry, EndpointsServeMetricsTraceProfAnd404) {
  SKIP_WITHOUT_SOCKETS();
  Cluster cluster;
  ASSERT_TRUE(cluster.valid())
      << cluster.ta->error() << cluster.node->error();
  cluster.start();
  ASSERT_TRUE(cluster.wait_calibrated());
  const SockAddr addr = cluster.node->telemetry_addr();
  ASSERT_NE(addr.port, 0);

  const auto metrics = http_get(addr, "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, "HTTP/1.0 200 OK");
  EXPECT_NE(metrics->body.find("obs_trace_dropped_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("obs_trace_ring_high_watermark"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("triad_timed_requests_total"),
            std::string::npos);

  const auto trace = http_get(addr, "/trace");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->status, "HTTP/1.0 200 OK");
  std::size_t rejected = 0;
  const std::vector<obs::TraceEvent> events =
      obs::parse_jsonl(trace->body, &rejected);
  EXPECT_EQ(rejected, 0u);
  EXPECT_FALSE(events.empty());

  const auto prof = http_get(addr, "/prof");
  ASSERT_TRUE(prof.has_value());
  EXPECT_EQ(prof->status, "HTTP/1.0 200 OK");

  const auto missing = http_get(addr, "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, "HTTP/1.0 404 Not Found");

  // The TA's listener works the same way (its trace ships kTaServe).
  const auto ta_trace = http_get(cluster.ta->telemetry_addr(), "/trace");
  ASSERT_TRUE(ta_trace.has_value());
  EXPECT_EQ(ta_trace->status, "HTTP/1.0 200 OK");

  cluster.stop_and_join();
  EXPECT_GE(cluster.node->telemetry()->scrapes(), 4u);
  EXPECT_EQ(cluster.node->trace_ring()->dropped(), 0u);
}

TEST(TimedTelemetry, ScrapedFamiliesMatchTheExitDump) {
  SKIP_WITHOUT_SOCKETS();
  Cluster cluster;
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_calibrated());

  const auto scraped = http_get(cluster.node->telemetry_addr(), "/metrics");
  ASSERT_TRUE(scraped.has_value());
  cluster.stop_and_join();

  std::ostringstream dump;
  cluster.node_registry.write_prometheus(dump);
  EXPECT_EQ(prom_families(scraped->body), prom_families(dump.str()));
}

TimedService* g_signal_service = nullptr;
void stop_on_signal(int) {
  if (g_signal_service != nullptr) g_signal_service->stop();
}

TEST(TimedTelemetry, SignalStopDrainsWorkersAndKeepsFinalDumpsIntact) {
  SKIP_WITHOUT_SOCKETS();
  // The triad_timed SIGINT path, in-process: stop() from a signal
  // handler must drain the node loop AND the serve workers so the final
  // metrics/trace dumps see joined, quiescent state.
  Cluster cluster;
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_calibrated());

  g_signal_service = &*cluster.node;
  auto* previous = std::signal(SIGINT, stop_on_signal);
  ASSERT_NE(previous, SIG_ERR);
  std::raise(SIGINT);
  std::signal(SIGINT, previous);
  g_signal_service = nullptr;

  cluster.node_thread.join();  // run() returns and joins the workers
  for (const auto& worker : cluster.node->serve_workers()) {
    (void)worker;  // joined by run(); reading stats below must be safe
  }
  const std::uint64_t total = cluster.node->trace_ring()->total();
  EXPECT_GT(total, 0u);
  std::ostringstream dump;
  cluster.node_registry.write_prometheus(dump);
  EXPECT_NE(dump.str().find("obs_trace_dropped_total 0"),
            std::string::npos);

  cluster.ta->stop();
  cluster.ta_thread.join();
}

TEST(TimedTelemetry, BindFailureReportsErrnoDetail) {
  SKIP_WITHOUT_SOCKETS();
  // Regression: TelemetryServer used to hand &error_ to
  // TcpListener::open before error_ was constructed (member init
  // order), so a "port in use" failure wrote into a dead string and the
  // service reported "telemetry endpoint: " with no detail.
  std::string listener_error;
  const runtime::TcpListener occupant =
      runtime::TcpListener::open(runtime::kLoopbackAny, &listener_error);
  ASSERT_TRUE(occupant.valid()) << listener_error;

  ServiceConfig config;
  config.role = Role::kTa;
  config.ta_id = 9;
  config.telemetry = occupant.local_addr();  // guaranteed EADDRINUSE
  obs::Registry registry;
  TimedService service(std::move(config),
                       &registry);
  EXPECT_FALSE(service.valid());
  EXPECT_NE(service.error().find("telemetry endpoint: bind"),
            std::string::npos)
      << service.error();
}

TEST(TimedTelemetry, IdleConnectionsAreCappedAndSwept) {
  SKIP_WITHOUT_SOCKETS();
  ServiceConfig config;
  config.role = Role::kTa;
  config.ta_id = 9;
  config.telemetry = runtime::kLoopbackAny;
  config.telemetry_max_pending = 2;
  config.telemetry_request_deadline = milliseconds(100);
  obs::Registry registry;
  TimedService service(std::move(config),
                       &registry);
  ASSERT_TRUE(service.valid()) << service.error();
  service.start();
  std::thread runner([&service] { service.run(); });
  const SockAddr addr = service.telemetry_addr();

  // Three connections that never send a request line: the cap (2) must
  // evict the oldest as the third is accepted...
  TcpConn a = TcpConn::dial(addr, 2000);
  TcpConn b = TcpConn::dial(addr, 2000);
  TcpConn c = TcpConn::dial(addr, 2000);
  ASSERT_TRUE(a.valid() && b.valid() && c.valid());
  const std::atomic<std::uint32_t>& active =
      service.telemetry()->active_conns();
  runtime::MonotonicTimer waited;
  while (waited.elapsed_ms() < 5000.0 &&
         active.load(std::memory_order_relaxed) != 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(active.load(std::memory_order_relaxed), 2u);

  // ...and the 100 ms request deadline must sweep the survivors, so an
  // idle client can neither exhaust fds nor pin active_conns() (the
  // workers' scrape signal) nonzero forever.
  waited.restart();
  while (waited.elapsed_ms() < 5000.0 &&
         active.load(std::memory_order_relaxed) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(active.load(std::memory_order_relaxed), 0u);

  // The plane still serves well-behaved scrapers afterwards.
  const auto metrics = http_get(addr, "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, "HTTP/1.0 200 OK");

  service.stop();
  runner.join();
}

TEST(TimedTelemetry, BatchDepthGaugeResetsWhenScrapersDisconnect) {
  SKIP_WITHOUT_SOCKETS();
  Cluster cluster;
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_calibrated());
  const SockAddr addr = cluster.node->telemetry_addr();

  const crypto::ClusterKeyring keyring(Bytes(32, 0x42));
  BlockingProbe probe(50, 1, cluster.node->serve_addr(), keyring);
  ASSERT_TRUE(probe.valid());

  // While a scraper connection is open, serve batches are sampled into
  // the gauge.
  bool sampled = false;
  runtime::MonotonicTimer waited;
  while (!sampled && waited.elapsed_ms() < 10000.0) {
    TcpConn holder = TcpConn::dial(addr, 2000);
    ASSERT_TRUE(holder.valid());
    // Give the node thread a moment to accept (raising active_conns).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)probe.request();
    if (const auto metrics = http_get(addr, "/metrics");
        metrics.has_value()) {
      sampled = gauge_nonzero(metrics->body, "triad_timed_batch_depth");
    }
    holder.close_now();
  }
  EXPECT_TRUE(sampled);

  // Once every scraper is gone (the holder above plus each completed
  // http_get), the 1 -> 0 connection edge zeroes the gauge — the next
  // scrape must not present the stale depth as a live reading.
  bool zeroed = false;
  waited.restart();
  while (!zeroed && waited.elapsed_ms() < 10000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (const auto metrics = http_get(addr, "/metrics");
        metrics.has_value()) {
      zeroed = !gauge_nonzero(metrics->body, "triad_timed_batch_depth");
    }
  }
  EXPECT_TRUE(zeroed);

  cluster.stop_and_join();
}

TEST(TimedTelemetry, OnlineAlarmsEqualOfflineReplayOfShippedTrace) {
  SKIP_WITHOUT_SOCKETS();
  // A slope prior of 1 MHz is wildly wrong for any real TSC, so the
  // online bank must alarm on the first calibration. The invariant:
  // replaying the *shipped* JSONL (scraped /trace) through a fresh bank
  // with the same config reproduces the live alarm sequence exactly.
  Cluster cluster(/*detectors=*/true, /*nominal_frequency_hz=*/1e6);
  ASSERT_TRUE(cluster.valid());
  cluster.start();
  ASSERT_TRUE(cluster.wait_calibrated());

  const auto shipped = http_get(cluster.node->telemetry_addr(), "/trace");
  ASSERT_TRUE(shipped.has_value());
  cluster.stop_and_join();

  const std::vector<obs::Alarm>& live = cluster.node->detectors()->alarms();
  ASSERT_FALSE(live.empty());

  std::size_t rejected = 0;
  const std::vector<obs::TraceEvent> events =
      obs::parse_jsonl(shipped->body, &rejected);
  ASSERT_EQ(rejected, 0u);
  obs::DetectorConfig config;
  config.ta_address = 9;
  config.nominal_frequency_hz = 1e6;
  obs::DetectorBank replay(config, nullptr, nullptr);
  for (const obs::TraceEvent& event : events) replay.emit(event);

  // The scrape happened before shutdown, so the shipped prefix may be
  // shorter than the full run — every live alarm up to the scrape point
  // must be reproduced field-for-field, and none invented.
  const std::vector<obs::Alarm>& offline = replay.alarms();
  ASSERT_LE(offline.size(), live.size());
  ASSERT_FALSE(offline.empty());
  for (std::size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ(offline[i].at, live[i].at) << i;
    EXPECT_EQ(offline[i].detector, live[i].detector) << i;
    EXPECT_EQ(offline[i].node, live[i].node) << i;
    EXPECT_EQ(offline[i].source, live[i].source) << i;
    EXPECT_EQ(offline[i].span, live[i].span) << i;
    EXPECT_DOUBLE_EQ(offline[i].value, live[i].value) << i;
    EXPECT_DOUBLE_EQ(offline[i].threshold, live[i].threshold) << i;
  }
  EXPECT_EQ(replay.first_alarm_at(),
            cluster.node->detectors()->first_alarm_at());
}

}  // namespace
}  // namespace triad::timed
