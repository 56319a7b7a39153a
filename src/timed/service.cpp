#include "timed/service.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/prof.h"

namespace triad::timed {

namespace {

// Snapshot publish period (node thread -> serve workers).
constexpr Duration kSnapshotPeriod = milliseconds(1);

}  // namespace

// --- TimedService ------------------------------------------------------

TimedService::TimedService(ServiceConfig config, obs::Registry* metrics)
    : config_(std::move(config)), keyring_(config_.master_secret) {
  runtime::RealEnvConfig env_config;
  env_config.seed = config_.seed;
  env_config.listen = config_.listen;
  env_config.peers = config_.peers;
  env_config.obs.metrics = metrics;
  env_config.obs.trace = build_trace_chain(metrics);
  registry_ = metrics;
  env_ = std::make_unique<runtime::RealEnv>(std::move(env_config));
  if (!env_->valid()) {
    error_ = "protocol endpoint: " + env_->bind_error();
    return;
  }

  if (config_.telemetry.has_value()) {
    TelemetryServer::Sources sources;
    sources.registry = metrics;
    sources.trace = ring_.has_value() ? &*ring_ : nullptr;
    sources.prof = [] {
      std::ostringstream os;
      obs::Profiler::write_text(obs::Profiler::instance().merge(), os,
                                /*normalize=*/false);
      return os.str();
    };
    sources.max_pending = config_.telemetry_max_pending;
    sources.request_deadline = config_.telemetry_request_deadline;
    // Runs on the node thread; the workers' gauges are atomics, so the
    // cross-thread store is safe while they serve.
    sources.on_scrapers_idle = [this] {
      for (const auto& worker : workers_) worker->clear_batch_depth();
    };
    telemetry_ = std::make_unique<TelemetryServer>(
        env_->loop(), env_->env(), *config_.telemetry, std::move(sources));
    if (!telemetry_->valid()) {
      error_ = "telemetry endpoint: " + telemetry_->error();
      return;
    }
  }

  if (config_.role == Role::kTa) {
    authority_ = std::make_unique<ta::TimeAuthority>(
        env_->env(), config_.ta_id, keyring_);
    return;
  }

  node_ = std::make_unique<TriadNode>(env_->env(), keyring_, config_.node,
                                      TriadNode::HardwareParams{});
  const int workers = std::max(1, config_.workers);
  for (int i = 0; i < workers; ++i) {
    // Every worker after the first must land on the first one's
    // resolved port — with serve.port == 0 each bind(0) would get a
    // *different* ephemeral port and the REUSEPORT group would never
    // form.
    runtime::SockAddr serve = config_.serve;
    if (i > 0) serve = workers_.front()->local_addr();
    auto worker = std::make_unique<ServeWorker>(serve, config_.node.id,
                                               keyring_, board_);
    if (!worker->valid()) {
      error_ = "serve endpoint: " + worker->bind_error();
      return;
    }
    if (telemetry_ != nullptr) {
      worker->set_scrape_signal(&telemetry_->active_conns());
    }
    workers_.push_back(std::move(worker));
  }
  register_worker_metrics(metrics);
}

TimedService::~TimedService() {
  stop();
  shutdown_workers();
  if (registry_ != nullptr) registry_->unregister(this);
}

bool TimedService::valid() const { return error_.empty(); }

std::string TimedService::error() const { return error_; }

runtime::SockAddr TimedService::protocol_addr() const {
  return env_->transport() != nullptr ? env_->transport()->local_addr()
                                      : runtime::SockAddr{};
}

runtime::SockAddr TimedService::serve_addr() const {
  return workers_.empty() ? runtime::SockAddr{}
                          : workers_.front()->local_addr();
}

void TimedService::start() {
  if (started_.exchange(true)) return;
  if (node_ != nullptr) {
    node_->start();
    // Publish the first snapshot immediately (workers would otherwise
    // serve tainted until the first period elapses), then periodically.
    const auto publish = [this] {
      ClockSnapshot snap;
      snap.available = node_->available();
      snap.time = node_->current_time();
      snap.mono_ns = runtime::MonotonicTimer::now_ns();
      snap.error_bound = node_->current_error_bound();
      board_.publish(snap);
    };
    publish();
    publisher_ = std::make_unique<runtime::PeriodicTimer>(
        env_->env(), kSnapshotPeriod, publish);
  }
  for (auto& worker : workers_) worker->start();
}

void TimedService::run() {
  env_->run();
  shutdown_workers();
}

void TimedService::run_for(Duration d) { env_->run_for(d); }

void TimedService::stop() {
  env_->stop();
  // Plain loads: workers_ stops mutating once start() has run, and the
  // signal handler path only reaches here afterwards.
  for (auto& worker : workers_) worker->stop();
}

void TimedService::shutdown_workers() {
  for (auto& worker : workers_) {
    worker->stop();
    worker->join();
  }
  publisher_.reset();
}

std::uint64_t TimedService::total_responses() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->stats().responses.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TimedService::total_bad_frames() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->stats().bad_frames.load(std::memory_order_relaxed);
  }
  return total;
}

obs::TraceSink* TimedService::build_trace_chain(obs::Registry* registry) {
  if (config_.trace_capacity > 0) {
    ring_.emplace(config_.trace_capacity);
    if (registry != nullptr) {
      registry->set_help("obs_trace_dropped_total",
                         "Trace events overwritten after the ring filled");
      registry->counter_fn(this, "obs_trace_dropped_total", {}, [this] {
        return static_cast<double>(ring_->dropped());
      });
      registry->set_help("obs_trace_ring_high_watermark",
                         "Most events the trace ring ever held at once");
      registry->gauge_fn(this, "obs_trace_ring_high_watermark", {}, [this] {
        return static_cast<double>(ring_->high_watermark());
      });
    }
  }

  obs::TraceSink* record = ring_.has_value() ? &*ring_ : nullptr;
  if (!config_.enable_detectors) return record;

  // Alarms feed back into the ring only — never the bank itself — so
  // every kDetectorAlarm lands right after its triggering event and
  // replaying the shipped trace offline reproduces the same
  // alarm sequence (the offline==online invariant).
  bank_ = std::make_unique<obs::DetectorBank>(config_.detectors, registry,
                                              record);
  if (record == nullptr) return bank_.get();
  env_tee_ = std::make_unique<obs::TeeTraceSink>();
  env_tee_->add(record);
  env_tee_->add(bank_.get());
  return env_tee_.get();
}

void TimedService::register_worker_metrics(obs::Registry* registry) {
  if (registry == nullptr) return;
  const auto read = [](const std::atomic<std::uint64_t>& cell) {
    return [&cell] {
      return static_cast<double>(cell.load(std::memory_order_relaxed));
    };
  };
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const obs::Labels labels = {{"worker", std::to_string(i)}};
    const WorkerStats& stats = workers_[i]->stats();
    registry->counter_fn(this, "triad_timed_requests_total", labels,
                         read(stats.requests));
    registry->counter_fn(this, "triad_timed_responses_total", labels,
                         read(stats.responses));
    registry->counter_fn(this, "triad_timed_unavailable_total", labels,
                         read(stats.unavailable));
    registry->counter_fn(this, "triad_timed_bad_frames_total", labels,
                         read(stats.bad_frames));
    registry->counter_fn(this, "triad_timed_decode_errors_total", labels,
                         read(stats.decode_errors));
    registry->counter_fn(this, "triad_timed_send_failures_total", labels,
                         read(stats.send_failures));
    registry->gauge_fn(this, "triad_timed_batch_depth", labels,
                       read(stats.batch_depth));
  }
  if (!workers_.empty()) {
    registry->set_help("triad_timed_batch_depth",
                       "Last receive-batch size while a scraper is "
                       "connected; 0 when nobody is scraping");
  }
}

// --- BlockingProbe -----------------------------------------------------

namespace {

ClientConfig probe_client_config(
    NodeId self,
    const std::vector<std::pair<NodeId, runtime::SockAddr>>& servers) {
  ClientConfig config{.id = self, .cluster = {}};
  for (const auto& server : servers) config.cluster.push_back(server.first);
  return config;
}

}  // namespace

BlockingProbe::BlockingProbe(
    NodeId self, std::vector<std::pair<NodeId, runtime::SockAddr>> servers,
    const crypto::Keyring& keyring)
    : env_({.listen = runtime::kLoopbackAny, .peers = servers}),
      client_(env_, keyring, probe_client_config(self, servers)) {}

BlockingProbe::BlockingProbe(NodeId self, NodeId server,
                             runtime::SockAddr server_addr,
                             const crypto::Keyring& keyring)
    : BlockingProbe(self, {{server, server_addr}}, keyring) {}

std::optional<TrustedTimestamp> BlockingProbe::request(Duration timeout) {
  if (!valid()) return std::nullopt;
  std::optional<TrustedTimestamp> result;
  client_.request_timestamp(timeout, [&](auto answer) {
    result = answer;
    env_.stop();
  });
  env_.run();
  return result;
}

}  // namespace triad::timed
