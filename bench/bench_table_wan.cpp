// Geo-distributed deployment sweeps (iExec motivation: a decentralized
// marketplace spans machines/sites, not one 32-core box).
//
// One Triad node per site, TA at site 0. Two controlled sweeps separate
// the two WAN effects:
//  * sweep A (fixed jitter, growing base delay): the symmetric base
//    delay cancels in the wait-time regression — F_calib stays put —
//    while the *reference offset* of TA-remote nodes grows with the
//    one-way delay (Triad adopts TA stamps without compensation);
//  * sweep B (fixed base, growing jitter): calibration error grows
//    linearly with jitter — Triad's 1 s-spread regression is unusable
//    over jittery WANs, reinforcing §V's call for NTP-style long-window
//    sync (see bench_ntp_discipline).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "exp/recorder.h"
#include "exp/scenario.h"

namespace {

using namespace triad;

struct Row {
  double f_err_ppm = 0;
  double ref_offset_ms = 0;  // node 2's median drift
  double availability = 0;
};

Row run(Duration base, Duration jitter) {
  exp::ScenarioConfig cfg;
  cfg.seed = 777;
  cfg.machine_of = {0, 1, 2};
  cfg.wan_base_delay = base;
  cfg.wan_jitter = jitter;
  cfg.node_template.peer_timeout = 2 * base + milliseconds(20);
  exp::Scenario sc(std::move(cfg));
  exp::Recorder rec(sc);
  sc.start();
  sc.run_until(minutes(20));

  Row row;
  for (std::size_t i = 0; i < 3; ++i) {
    row.f_err_ppm = std::max(
        row.f_err_ppm, std::abs(sc.node(i).calibrated_frequency_hz() -
                                tsc::kPaperTscFrequencyHz) /
                           tsc::kPaperTscFrequencyHz * 1e6);
    row.availability += sc.node(i).availability() / 3.0;
  }
  std::vector<double> values;
  for (const auto& s : rec.drift_ms(1).samples()) values.push_back(s.value);
  std::sort(values.begin(), values.end());
  row.ref_offset_ms = values.empty() ? 0.0 : values[values.size() / 2];
  return row;
}

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "WAN sweeps — Triad across sites (20 min per row)",
      "3 nodes on 3 machines, TA at site 0");

  std::printf("\n--- sweep A: base one-way delay (jitter fixed 200 us) ---\n");
  std::printf("%10s %16s %18s %14s\n", "base_ms", "F_err_ppm(max)",
              "ref_offset_ms(n2)", "availability");
  for (Duration base : {milliseconds(5), milliseconds(20), milliseconds(50),
                        milliseconds(100)}) {
    const Row row = run(base, microseconds(200));
    std::printf("%10lld %16.1f %18.2f %13.2f%%\n",
                static_cast<long long>(base / 1'000'000), row.f_err_ppm,
                row.ref_offset_ms, row.availability * 100.0);
  }

  std::printf("\n--- sweep B: jitter (base fixed 20 ms) ---\n");
  std::printf("%10s %16s %18s %14s\n", "jitter_ms", "F_err_ppm(max)",
              "ref_offset_ms(n2)", "availability");
  for (Duration jitter :
       {microseconds(200), milliseconds(1), milliseconds(4),
        milliseconds(10)}) {
    const Row row = run(milliseconds(20), jitter);
    std::printf("%10.1f %16.1f %18.2f %13.2f%%\n",
                static_cast<double>(jitter) / 1e6, row.f_err_ppm,
                row.ref_offset_ms, row.availability * 100.0);
  }

  std::printf("\n");
  bench::print_summary_row("base delay (symmetric)",
                           "cancels in the regression slope",
                           "F_err flat across sweep A");
  bench::print_summary_row("reference offset of remote nodes",
                           "~ one-way delay behind the TA",
                           "tracks base delay in sweep A");
  bench::print_summary_row("jitter",
                           "the real enemy of 1 s-spread calibration",
                           "F_err grows ~linearly in sweep B");
  return 0;
}
