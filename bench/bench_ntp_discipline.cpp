// §V quantified: Triad's short-window calibration vs NTP-style
// discipline under the same attacker.
//
// Four rows, all on the same machine model:
//   Triad node, no attack        — ~110 ppm drift between TA resets
//   NTP client, no attack        — sub-ms offset, ppm-learned frequency
//   Triad node, F- delay attack  — unbounded silent skew (Fig. 6)
//   NTP client, delay attacks    — bounded by delay/2 (uniform) or
//                                  filtered entirely (selective)
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"
#include "ntp/ntp_client.h"
#include "ntp/ntp_server.h"
#include "runtime/cluster_harness.h"

namespace {

using namespace triad;

struct NtpOutcome {
  double final_offset_ms = 0;
  double freq_correction_ppm = 0;
  int tau = 0;
  unsigned long long falsetickers = 0;
};

NtpOutcome run_ntp(int attack_mode /* 0 none, 1 uniform, 2 selective */) {
  runtime::ClusterConfig cluster;  // default delay = the paper testbed's
  cluster.seed = 4242;
  cluster.master_secret = Bytes(32, 8);
  runtime::ClusterHarness h(std::move(cluster));
  ntp::NtpServer server(h.env(), 100, h.keyring());
  tsc::Tsc tsc(h.simulation(), tsc::kPaperTscFrequencyHz);

  class DelayBox final : public net::Middlebox {
   public:
    explicit DelayBox(int mode) : mode_(mode) {}
    Action on_packet(const net::Packet& p, SimTime) override {
      if (p.src != 100 || mode_ == 0) return {};
      ++count_;
      const bool hit = mode_ == 1 || count_ % 4 != 0;
      return {.extra_delay = hit ? milliseconds(100) : Duration{0},
              .drop = false};
    }

   private:
    int mode_;
    int count_ = 0;
  } attack(attack_mode);
  h.network().add_middlebox(&attack);

  ntp::NtpClientConfig config;
  config.id = 1;
  config.servers = {100};
  // Start with a deliberately wrong nominal frequency (+100 ppm error)
  // so the frequency-learning loop has work to do.
  ntp::NtpClient client(h.env(), h.keyring(), tsc,
                        tsc::kPaperTscFrequencyHz * (1 + 100e-6), config);
  client.start();
  h.run_for(minutes(30));

  return {to_milliseconds(client.now() - h.now()),
          client.clock().frequency_correction_ppm(), client.current_tau(),
          client.stats().falsetickers_rejected};
}

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "NTP-style discipline vs Triad calibration (§V, 30 min runs)",
      "same machine model, same attacker capabilities");

  // Triad rows reuse the standard scenario.
  auto run_triad = [](bool attacked) {
    exp::ScenarioConfig cfg;
    cfg.seed = 4242;
    exp::Scenario sc(std::move(cfg));
    if (attacked) {
      attacks::DelayAttackConfig a;
      a.kind = attacks::AttackKind::kFMinus;
      a.victim = sc.node_address(2);
      a.ta_address = sc.ta_address();
      sc.add_delay_attack(a);
    }
    exp::Recorder rec(sc);
    sc.start();
    sc.run_until(minutes(30));
    return std::max(std::abs(rec.drift_ms(0).max_value()),
                    std::abs(rec.drift_ms(0).min_value()));
  };

  const NtpOutcome clean = run_ntp(0);
  const NtpOutcome uniform = run_ntp(1);
  const NtpOutcome selective = run_ntp(2);

  // Multi-server selection: 2 honest servers + 1 lying by +5 s.
  NtpOutcome quorum;
  {
    runtime::ClusterConfig cluster;
    cluster.seed = 4243;
    cluster.master_secret = Bytes(32, 8);
    runtime::ClusterHarness h(std::move(cluster));
    ntp::NtpServer honest1(h.env(), 100, h.keyring());
    ntp::NtpServer honest2(h.env(), 101, h.keyring());
    ntp::NtpServer liar(h.env(), 102, h.keyring());
    liar.set_lie_offset(seconds(5));
    tsc::Tsc tsc(h.simulation(), tsc::kPaperTscFrequencyHz);
    ntp::NtpClientConfig config;
    config.id = 1;
    config.servers = {100, 101, 102};
    ntp::NtpClient client(h.env(), h.keyring(), tsc,
                          tsc::kPaperTscFrequencyHz, config);
    client.start();
    h.run_for(minutes(30));
    quorum = {to_milliseconds(client.now() - h.now()),
              client.clock().frequency_correction_ppm(),
              client.current_tau(), client.stats().falsetickers_rejected};
  }

  bench::print_table_head({"configuration", "\\|error\\|"});
  bench::print_row({"Triad honest node",
                    bench::fmt("%.2f ms", run_triad(false))});
  bench::print_row({"NTP client, honest",
                    bench::fmt("%.2f ms", std::abs(clean.final_offset_ms))});
  bench::print_row({"Triad honest node, F− on a peer",
                    bench::fmt("%.2f ms", run_triad(true))});
  bench::print_row({"NTP, +100 ms on all replies",
                    bench::fmt("%.2f ms", std::abs(uniform.final_offset_ms))});
  bench::print_row(
      {"NTP, +100 ms on 3/4 replies",
       bench::fmt("%.2f ms", std::abs(selective.final_offset_ms))});
  bench::print_row({"NTP, 1 of 3 servers lying +5 s",
                    bench::fmt("%.2f ms", std::abs(quorum.final_offset_ms))});

  // The NTP clients' discipline state. Each starts with a nominal
  // frequency 100 ppm wrong, except the multi-server one.
  std::printf("\n");
  bench::print_table_head({"NTP client", "frequency correction", "poll tau",
                           "falsetickers rejected"});
  const auto ntp_row = [](const char* client, const NtpOutcome& out) {
    bench::print_row({client,
                      bench::fmt("%+.1f ppm", out.freq_correction_ppm),
                      bench::fmt("%d", out.tau),
                      bench::fmt("%llu", out.falsetickers)});
  };
  ntp_row("honest", clean);
  ntp_row("+100 ms on all replies", uniform);
  ntp_row("+100 ms on 3/4 replies", selective);
  ntp_row("1 of 3 servers lying +5 s", quorum);
  return 0;
}
