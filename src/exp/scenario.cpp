#include "exp/scenario.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace triad::exp {
namespace {

/// One-way base delay of every intra-machine link.
constexpr Duration kNetBaseDelay = microseconds(150);

Bytes demo_master_secret() {
  // The cluster master secret stands in for SGX attested key exchange;
  // see crypto/channel.h. Fixed value: the attacker modelled here is the
  // OS/network, which never learns enclave secrets.
  return Bytes(32, 0x42);
}

}  // namespace

std::unique_ptr<enclave::AexDistribution> make_distribution(
    AexEnvironment environment) {
  switch (environment) {
    case AexEnvironment::kTriadLike:
      return std::make_unique<enclave::TriadLikeAexDistribution>();
    case AexEnvironment::kLowAex:
      return std::make_unique<enclave::IsolatedCoreAexDistribution>();
    case AexEnvironment::kNone:
      return nullptr;
  }
  return nullptr;
}

runtime::ClusterConfig Scenario::make_cluster_config(
    const ScenarioConfig& config, runtime::ObsBinding obs) {
  if (config.node_count == 0) {
    throw std::invalid_argument("Scenario: need at least one node");
  }
  runtime::ClusterConfig cluster;
  cluster.seed = config.seed;
  cluster.node_count = config.node_count;
  cluster.delay = std::make_unique<net::JitterDelay>(
      kNetBaseDelay, config.net_jitter, microseconds(10));
  cluster.master_secret = demo_master_secret();
  cluster.obs = obs;
  return cluster;
}

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      metrics_(config_.enable_metrics ? std::make_unique<obs::Registry>()
                                      : nullptr),
      trace_(config_.trace_capacity > 0
                 ? std::make_unique<obs::RingTraceSink>(config_.trace_capacity)
                 : nullptr),
      detectors_(config_.enable_detectors
                     ? std::make_unique<obs::DetectorBank>(
                           // harness_ is not built yet: its TA address
                           // is the one right after the last node.
                           obs::DetectorConfig{
                               .ta_address = static_cast<NodeId>(
                                   config_.node_count + 1)},
                           metrics_.get(), trace_.get())
                     : nullptr),
      trace_tee_(trace_ && detectors_ ? std::make_unique<obs::TeeTraceSink>()
                                      : nullptr),
      harness_(make_cluster_config(
          config_,
          runtime::ObsBinding{
              metrics_.get(),
              trace_tee_ ? static_cast<obs::TraceSink*>(trace_tee_.get())
              : detectors_ ? static_cast<obs::TraceSink*>(detectors_.get())
                           : static_cast<obs::TraceSink*>(trace_.get())})) {
  if (trace_tee_) {
    // Ring first so a detector alarm lands *after* its triggering event.
    trace_tee_->add(trace_.get());
    trace_tee_->add(detectors_.get());
  }
  if (metrics_ && trace_) {
    metrics_->set_help("obs_trace_dropped_total",
                       "Trace events overwritten after the ring filled");
    metrics_->counter_fn(this, "obs_trace_dropped_total", {}, [this] {
      return static_cast<double>(trace_->dropped());
    });
  }
  config_.environments.resize(config_.node_count,
                              AexEnvironment::kTriadLike);
  config_.machine_of.resize(config_.node_count, 0);
  for (std::size_t machine : config_.machine_of) {
    machine_count_ = std::max(machine_count_, machine + 1);
  }
  std::vector<NodeId> endpoints;  // the nodes, then the TA
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    endpoints.push_back(node_address(i));
  }
  endpoints.push_back(ta_address());

  if (config_.attested_keys) {
    // Production path: every endpoint (nodes + TA) attests its X25519
    // key, pairwise handshakes derive the session secrets the channels
    // run on. Handshake message flow happens "at deployment time" —
    // before the simulated experiment starts.
    const crypto::AttestationAuthority authority{Bytes(32, 0x7e)};
    const crypto::Measurement measurement =
        crypto::sha256(Bytes{'t', 'r', 'i', 'a', 'd'});
    std::vector<crypto::HandshakeParty> parties;
    parties.reserve(endpoints.size());
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      parties.emplace_back(authority, endpoints[i], measurement,
                           config_.seed * 131 + i);
    }
    session_keyrings_.resize(endpoints.size());
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      session_keyrings_[i].set_self(endpoints[i]);
      for (std::size_t j = 0; j < endpoints.size(); ++j) {
        if (i == j) continue;
        auto result = parties[i].accept(parties[j].offer(), measurement);
        if (trace_) {
          obs::TraceEvent event;
          event.type = obs::TraceEventType::kHandshake;
          event.node = endpoints[i];
          event.peer = endpoints[j];
          event.a = result ? 1 : 0;
          trace_->emit(event);  // deployment time: at stays 0
        }
        if (!result) {
          throw std::logic_error("Scenario: attestation handshake failed");
        }
        session_keyrings_[i].install(endpoints[j],
                                     std::move(result->session_secret));
      }
    }
  }

  // The TA caps the server-side sleep it will honour; keep it above the
  // configured calibration probe so wait-spread experiments work.
  const Duration ta_max_wait =
      std::max(ta::kMaxTaWait,
               config_.node_template.calib_wait_high + seconds(1));
  harness_.make_time_authority(ta_max_wait, &keyring_for(ta_address()));

  if (config_.machine_interrupts) {
    for (std::size_t machine = 0; machine < machine_count_; ++machine) {
      hubs_.push_back(std::make_unique<enclave::MachineInterruptHub>(
          harness_.simulation(),
          std::make_unique<enclave::IsolatedCoreAexDistribution>(),
          harness_.simulation().rng().fork("machine-hub-" +
                                           std::to_string(machine)),
          config_.machine_full_hit_probability));
    }
  }

  for (std::size_t i = 0; i < config_.node_count; ++i) {
    TriadNode::HardwareParams hardware;  // paper machine defaults
    auto policy = config_.policy_factory ? config_.policy_factory() : nullptr;
    TriadNode& node =
        harness_.add_node(config_.node_template, hardware, std::move(policy),
                          &keyring_for(node_address(i)));

    // Every node gets a per-core AEX driver; it only runs in the
    // Triad-like environment (low-AEX cores see just the machine hub).
    auto distribution =
        config_.aex_distribution_factory
            ? config_.aex_distribution_factory()
            : std::make_unique<enclave::TriadLikeAexDistribution>();
    drivers_.push_back(std::make_unique<enclave::AexDriver>(
        harness_.simulation(), node.monitoring_thread(),
        std::move(distribution),
        harness_.simulation().rng().fork("aex-" + std::to_string(i))));

    if (!hubs_.empty() && config_.environments[i] != AexEnvironment::kNone) {
      hubs_[config_.machine_of[i]]->register_thread(
          &node.monitoring_thread());
    }
  }

  // WAN delays between endpoints on different machines (both ways).
  auto endpoint_machine = [this](NodeId address) {
    return address == ta_address() ? std::size_t{0}
                                   : config_.machine_of[address - 1];
  };
  for (NodeId a : endpoints) {
    for (NodeId b : endpoints) {
      if (a != b && endpoint_machine(a) != endpoint_machine(b)) {
        harness_.network().set_link_delay(
            a, b,
            std::make_unique<net::JitterDelay>(config_.wan_base_delay,
                                               config_.wan_jitter,
                                               microseconds(100)));
      }
    }
  }
}

Scenario::~Scenario() {
  // Drivers and the hub hold references into the nodes' threads; stop
  // them first, then drop attacks registered with the network.
  for (auto& driver : drivers_) driver->stop();
  for (auto& hub : hubs_) hub->stop();
  for (auto& attack : attacks_) {
    harness_.network().remove_middlebox(attack.get());
  }
  if (metrics_) metrics_->unregister(this);
}

const crypto::Keyring& Scenario::keyring_for(NodeId address) const {
  if (!config_.attested_keys) return harness_.keyring();
  // Endpoint addresses are 1..node_count for nodes, node_count+1 for the
  // TA — exactly the session_keyrings_ indices shifted by one.
  return session_keyrings_.at(address - 1);
}

NodeId Scenario::node_address(std::size_t i) const {
  return harness_.node_address(i);
}

NodeId Scenario::ta_address() const { return harness_.ta_address(); }

void Scenario::start() {
  if (started_) throw std::logic_error("Scenario::start called twice");
  started_ = true;
  harness_.start();
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    if (config_.environments[i] == AexEnvironment::kTriadLike) {
      drivers_[i]->start();
    }
  }
  for (auto& hub : hubs_) hub->start();
}

attacks::DelayAttack& Scenario::add_delay_attack(
    attacks::DelayAttackConfig config) {
  attacks_.push_back(std::make_unique<attacks::DelayAttack>(config));
  harness_.network().add_middlebox(attacks_.back().get());
  return *attacks_.back();
}

void Scenario::switch_environment_at(std::size_t i,
                                     AexEnvironment environment,
                                     SimTime t) {
  if (i >= harness_.node_count()) {
    throw std::out_of_range("Scenario: node index out of range");
  }
  harness_.simulation().schedule_at(t, [this, i, environment] {
    switch (environment) {
      case AexEnvironment::kTriadLike:
        drivers_[i]->set_distribution(
            std::make_unique<enclave::TriadLikeAexDistribution>());
        drivers_[i]->start();
        break;
      case AexEnvironment::kLowAex:
      case AexEnvironment::kNone:
        drivers_[i]->stop();
        break;
    }
  });
}

}  // namespace triad::exp
