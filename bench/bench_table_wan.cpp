// Geo-distributed deployment sweeps (iExec motivation: a decentralized
// marketplace spans machines/sites, not one 32-core box).
//
// One Triad node per site, TA at site 0. Two controlled sweeps separate
// the two WAN effects:
//  * sweep A (fixed jitter, growing base delay): the symmetric base
//    delay cancels in the wait-time regression, while a TA-remote node
//    adopts the TA's stamp one one-way delay late (Triad does not
//    compensate), so the offset it takes from each TA reference is
//    -(one-way delay). Between TA references it runs peer rounds: the
//    three sites have independent interrupt hubs, so no machine-wide
//    interrupt taints every node at once and forces a TA reset (the
//    p = 0 row of bench_ablation_correlation). The original policy
//    adopts a peer's stamp only when it is ahead of the local clock, and
//    the stamp arrives one one-way delay old, so at large base delays
//    the rounds mostly keep the local clock (the kept-local column);
//  * sweep B (fixed base, growing jitter): calibration error leaves the
//    ~100 ppm band once jitter reaches milliseconds — Triad's 1 s-spread
//    regression is unusable over jittery WANs, reinforcing §V's call for
//    NTP-style long-window sync (see bench_ntp_discipline).
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
  double f_err_ppm = 0;       // worst node's |F_calib - F_TSC|
  std::uint64_t ta_refs = 0;  // node 2's TA time references
  double ref_offset_ms = 0;   // node 2's offset right after them (median)
  std::uint64_t peer_rounds = 0;     // node 2's, and how they ended:
  std::uint64_t peer_adoptions = 0;  //   a peer's stamp adopted,
  std::uint64_t kept_local = 0;      //   its own clock kept,
  std::uint64_t ta_fallbacks = 0;    //   or no answer, so the TA asked
  double median_drift_ms = 0;        // node 2's, over the whole run
  double availability = 0;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

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
  // Node 2 (index 1) is TA-remote. The offset it takes from a TA
  // reference is its clock right after adopting the TA's stamp, minus
  // true time.
  std::vector<double> offsets;
  for (const auto& ev : rec.adoptions()) {
    if (ev.node != 1) continue;
    if (ev.source == sc.ta_address()) {
      offsets.push_back(to_milliseconds(ev.adopted - ev.at));
    } else {
      ++row.peer_adoptions;
    }
  }
  const NodeStats& stats = sc.node(1).stats();
  row.ta_refs = stats.ta_time_references;
  row.peer_rounds = stats.peer_rounds;
  row.kept_local = stats.kept_local;
  row.ta_fallbacks = stats.ta_fallbacks;
  row.ref_offset_ms = median(offsets);
  std::vector<double> drift;
  for (const auto& s : rec.drift_ms(1).samples()) drift.push_back(s.value);
  row.median_drift_ms = median(drift);
  return row;
}

}  // namespace

int main() {
  using namespace triad;
  bench::print_header(
      "WAN sweeps — Triad across sites (20 min per row)",
      "3 nodes on 3 machines, TA at site 0");

  // Sweep A grows the base delay at 200 us jitter; sweep B grows the
  // jitter at a 20 ms base. Their shared cell (20 ms, 200 us) runs once.
  struct Cell {
    Duration base;
    Duration jitter;
  };
  const Cell cells[] = {
      {milliseconds(5), microseconds(200)},
      {milliseconds(20), microseconds(200)},
      {milliseconds(50), microseconds(200)},
      {milliseconds(100), microseconds(200)},
      {milliseconds(20), milliseconds(1)},
      {milliseconds(20), milliseconds(4)},
      {milliseconds(20), milliseconds(10)},
  };
  std::printf("\n");
  bench::print_table_head(
      {"base delay", "jitter", "worst F_calib error", "node 2 TA refs",
       "node 2 offset after a TA ref (median)", "node 2 peer rounds",
       "node 2 peer adoptions", "node 2 kept local", "node 2 TA fallbacks",
       "node 2 median drift", "availability"});
  for (const Cell& cell : cells) {
    const Row row = run(cell.base, cell.jitter);
    bench::print_row(
        {bench::fmt("%lld ms", static_cast<long long>(cell.base / 1'000'000)),
         bench::fmt("%.1f ms", static_cast<double>(cell.jitter) / 1e6),
         bench::fmt("%.1f ppm", row.f_err_ppm),
         bench::fmt("%llu", static_cast<unsigned long long>(row.ta_refs)),
         bench::fmt("%.2f ms", row.ref_offset_ms),
         bench::fmt("%llu", static_cast<unsigned long long>(row.peer_rounds)),
         bench::fmt("%llu",
                    static_cast<unsigned long long>(row.peer_adoptions)),
         bench::fmt("%llu", static_cast<unsigned long long>(row.kept_local)),
         bench::fmt("%llu",
                    static_cast<unsigned long long>(row.ta_fallbacks)),
         bench::fmt("%.2f ms", row.median_drift_ms),
         bench::fmt("%.2f %%", row.availability * 100.0)});
  }
  return 0;
}
