// Experiment scenario builder: one simulated machine hosting N Triad
// nodes and the Time Authority — the paper's testbed (§IV: three nodes +
// TA on a 32-core SGX2 machine).
//
// Per-node AEX environments (Figure 1) and a machine-wide interrupt hub
// model the interruption landscape; middlebox attacks and environment
// switches can be layered on top. All benches, examples, and integration
// tests build on this harness.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "attacks/delay_attack.h"
#include "crypto/channel.h"
#include "crypto/handshake.h"
#include "enclave/aex_source.h"
#include "obs/detect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cluster_harness.h"

namespace triad::exp {

/// Per-node interruption environment (paper Figure 1).
enum class AexEnvironment {
  kTriadLike,  // Fig. 1a: {10, 532, 1590} ms each w.p. 1/3
  kLowAex,     // Fig. 1b: isolated core; only machine-wide interrupts
  kNone,       // no interrupts at all (attacker fully isolates the core)
};

/// Creates the per-environment AEX distribution (kLowAex and kNone have
/// no per-node distribution — machine-wide interrupts still apply).
std::unique_ptr<enclave::AexDistribution> make_distribution(
    AexEnvironment environment);

struct ScenarioConfig {
  std::uint64_t seed = 1;
  std::size_t node_count = 3;
  /// Environment per node; missing entries default to kTriadLike.
  std::vector<AexEnvironment> environments;

  /// Machine-wide residual interrupts (Fig. 1b distribution) hitting all
  /// (usually) cores of one machine at once.
  bool machine_interrupts = true;
  double machine_full_hit_probability = 0.8;

  /// Machine placement: machine index per node (missing entries default
  /// to machine 0 — the paper's single-machine testbed). Nodes on
  /// different machines get WAN link delays and independent interrupt
  /// hubs; the iExec-style geo-distributed deployment. The TA lives on
  /// machine 0.
  std::vector<std::size_t> machine_of;
  Duration wan_base_delay = milliseconds(20);
  Duration wan_jitter = milliseconds(2);

  /// Network delay jitter on top of a fixed 150 µs base (see
  /// net::JitterDelay). The jitter is what limits Triad's short-window
  /// calibration quality; 120 µs puts the fault-free calibration error
  /// near the paper's ~110 ppm.
  Duration net_jitter = microseconds(120);

  /// Template for every node's protocol config (id/ta/peers filled in).
  TriadConfig node_template;

  /// Policy factory; null -> original Triad untainting policy.
  std::function<std::unique_ptr<UntaintPolicy>()> policy_factory;

  /// Per-node AEX distribution factory for kTriadLike environments;
  /// null -> the paper's iid TriadLikeAexDistribution. Used by the
  /// correlation ablation (MarkovAexDistribution).
  std::function<std::unique_ptr<enclave::AexDistribution>()>
      aex_distribution_factory;

  /// Derive channel keys from attestation-style X25519 handshakes
  /// between every pair of endpoints (the production path) instead of
  /// the provisioned cluster secret. External endpoints attached via
  /// keyring() are not supported in this mode (they hold no sessions).
  bool attested_keys = false;

  /// Observability: when true the scenario owns an obs::Registry that
  /// every component (sim, network, nodes, TA) registers into; read it
  /// via Scenario::metrics(). Off by default — an unobserved scenario
  /// pays nothing on the hot path.
  bool enable_metrics = false;
  /// When > 0, the scenario owns a bounded RingTraceSink holding the
  /// last `trace_capacity` protocol trace events (Scenario::trace()).
  std::size_t trace_capacity = 0;
  /// When true the scenario owns an obs::DetectorBank (the three
  /// standard F+/F− detectors) fed live from the trace stream; read
  /// verdicts via Scenario::detectors(). Alarm events land in the trace
  /// ring (when one exists) and alarm counters in the registry (when
  /// metrics are enabled).
  /// The bank knows the scenario's TA address, so TA adoptions (ground
  /// truth) are never flagged as suspicious jumps.
  bool enable_detectors = false;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Starts the TA (already live), nodes, and AEX machinery.
  void start();

  void run_until(SimTime t) { harness_.run_until(t); }
  void run_for(Duration d) { harness_.run_for(d); }

  /// The cluster's runtime environment (clock + scheduler + transport).
  [[nodiscard]] runtime::Env env() const { return harness_.env(); }
  [[nodiscard]] sim::Simulation& simulation() { return harness_.simulation(); }
  [[nodiscard]] net::Network& network() { return harness_.network(); }
  /// The cluster keyring (for attaching clients / extra endpoints).
  [[nodiscard]] const crypto::Keyring& keyring() const {
    return harness_.keyring();
  }
  [[nodiscard]] ta::TimeAuthority& time_authority() {
    return harness_.time_authority();
  }
  [[nodiscard]] std::size_t node_count() const {
    return harness_.node_count();
  }
  [[nodiscard]] TriadNode& node(std::size_t i) { return harness_.node(i); }
  /// Hub of machine 0 (nullptr when machine interrupts are disabled).
  [[nodiscard]] enclave::MachineInterruptHub* machine_hub() {
    return hubs_.empty() ? nullptr : hubs_.front().get();
  }
  [[nodiscard]] std::size_t machine_count() const { return machine_count_; }

  /// The scenario-owned metrics registry (null unless enable_metrics).
  [[nodiscard]] obs::Registry* metrics() { return metrics_.get(); }
  /// The scenario-owned trace ring (null unless trace_capacity > 0).
  [[nodiscard]] obs::RingTraceSink* trace() { return trace_.get(); }
  /// The scenario-owned detector bank (null unless enable_detectors).
  [[nodiscard]] obs::DetectorBank* detectors() { return detectors_.get(); }
  /// The env's trace sink: a tee feeding the ring, then the detector
  /// bank (each when configured), then sinks added later (Recorder).
  /// Added sinks must be removed before the scenario is destroyed.
  [[nodiscard]] obs::TeeTraceSink& trace_tee() { return trace_tee_; }

  /// Node addressing: node i (0-based) lives at address i+1; the TA at
  /// node_count()+1.
  [[nodiscard]] NodeId node_address(std::size_t i) const;
  [[nodiscard]] NodeId ta_address() const;

  /// Installs an F+/F- middlebox attack; the scenario owns it.
  attacks::DelayAttack& add_delay_attack(attacks::DelayAttackConfig config);

  /// Schedules an AEX-environment switch for node i at virtual time t
  /// (Fig. 6: honest nodes go Triad-like at t = 104 s).
  void switch_environment_at(std::size_t i, AexEnvironment environment,
                             SimTime t);

 private:
  /// Keyring for endpoint `address` — the shared cluster keyring, or
  /// that endpoint's handshake-derived session keyring in attested mode.
  [[nodiscard]] const crypto::Keyring& keyring_for(NodeId address) const;

  /// Builds the harness config (and validates node_count) so harness_
  /// can live in the initializer list.
  static runtime::ClusterConfig make_cluster_config(
      const ScenarioConfig& config, runtime::ObsBinding obs);

  ScenarioConfig config_;
  // Declared before harness_: every component registers into these at
  // construction and unregisters at destruction, so they must outlive it.
  std::unique_ptr<obs::Registry> metrics_;
  std::unique_ptr<obs::RingTraceSink> trace_;
  std::unique_ptr<obs::DetectorBank> detectors_;
  obs::TeeTraceSink trace_tee_;
  runtime::ClusterHarness harness_;
  std::vector<crypto::SessionKeyring> session_keyrings_;  // attested mode
  std::vector<std::unique_ptr<enclave::AexDriver>> drivers_;
  std::vector<std::unique_ptr<enclave::MachineInterruptHub>> hubs_;
  std::vector<std::unique_ptr<attacks::DelayAttack>> attacks_;
  std::size_t machine_count_ = 1;
  bool started_ = false;
};

}  // namespace triad::exp
