// Cluster-size table (§III-B: "For shorter roundtrip delays and fewer
// requests to the TA, Triad nodes are organized in clusters").
//
// Sweeps the cluster size and reports availability, TA load per
// node-hour, and peer-untaint success rate: more peers means a tainted
// node almost always finds a fresh timestamp nearby, so the TA is
// contacted only on (rarer) fully-correlated interruptions.
//
// The grid runs through the campaign engine (one cell per cluster
// size, parallel workers) instead of a hand-rolled loop; the printed
// numbers come from the deterministic per-run results.
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "campaign/runner.h"

int main() {
  using namespace triad;
  bench::print_header(
      "Cluster-size sweep — why Triad clusters TEEs",
      "30 min, Triad-like AEXs everywhere, correlated machine interrupts; "
      "grid executed by the campaign engine");

  campaign::CampaignSpec spec;
  spec.seeds = {1234};
  spec.node_counts = {1, 2, 3, 5, 7};
  spec.duration = minutes(30);

  campaign::RunnerOptions options;
  options.jobs = std::max(1u, std::thread::hardware_concurrency());
  campaign::CampaignRunner runner(options);
  const campaign::CampaignResult result = runner.run(spec);

  bench::print_table_head({"nodes", "availability", "TA reqs/node/hour",
                           "peer-untaint success", "sim events"});
  // One seed per cell, so runs are the cells, already in grid
  // (cluster-size) order.
  for (const campaign::RunResult& run : result.runs) {
    const auto n = spec.node_counts[run.cell];
    const double ta_per_node_hour =
        run.ta_requests / static_cast<double>(n) * 2.0;  // 30 min -> hour
    bench::print_row({bench::fmt("%zu", n),
                      bench::fmt("%.2f %%", run.availability * 100.0),
                      bench::fmt("%.1f", ta_per_node_hour),
                      bench::fmt("%.1f %%", run.peer_untaint_rate * 100.0),
                      bench::fmt("%.0f", run.events_executed)});
  }

  return 0;
}
