// Campaign-engine scaling: wall-clock for a fixed 32-run sweep as the
// worker count grows, plus the determinism check that motivates the
// design — the aggregate report must be byte-identical at every job
// count (results are slotted by grid index, never by completion order).
//
// Per-run simulations are single-threaded and share no mutable state,
// so speedup should track min(jobs, cores); on a single-core CI box all
// job counts measure ~1x and only the determinism check is meaningful.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "campaign/aggregate.h"
#include "campaign/runner.h"
#include "runtime/monotonic_timer.h"

int main() {
  using namespace triad;
  bench::print_header(
      "Campaign scaling — 32-run F- sweep at jobs 1/2/4/8",
      "seeds 1..32, 2 min virtual each; byte-identical reports required "
      "at every job count");

  campaign::CampaignSpec spec;
  spec.seeds.clear();
  for (std::uint64_t seed = 1; seed <= 32; ++seed) spec.seeds.push_back(seed);
  spec.attacks = {"fminus"};
  spec.duration = minutes(2);

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n\n", cores);
  std::printf("%8s %12s %10s %18s\n", "jobs", "wall_s", "speedup",
              "report_identical");

  std::string baseline_json;
  double baseline_wall_ms = 0.0;
  bool all_identical = true;
  double best_speedup = 1.0;
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    campaign::RunnerOptions options;
    options.jobs = jobs;
    campaign::CampaignRunner runner(options);
    // Wall time measured here with the sanctioned wall clock, not taken
    // from the runner, so this bench times exactly what it frames: the
    // full run() call including worker spawn/join.
    const runtime::MonotonicTimer timer;
    const campaign::CampaignResult result = runner.run(spec);
    const double wall_ms = timer.elapsed_ms();
    const campaign::CampaignReport report =
        campaign::CampaignReport::aggregate(spec, result);
    std::ostringstream json;
    report.write_json(json);
    if (jobs == 1) {
      baseline_json = json.str();
      baseline_wall_ms = wall_ms;
    }
    const bool identical = json.str() == baseline_json;
    all_identical = all_identical && identical;
    const double speedup = baseline_wall_ms / wall_ms;
    if (jobs > 1) best_speedup = std::max(best_speedup, speedup);
    std::printf("%8zu %12.2f %9.2fx %18s\n", jobs, wall_ms / 1e3,
                speedup, jobs == 1 ? "(baseline)"
                                   : (identical ? "yes" : "NO"));
  }

  std::printf("\n");
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s",
                all_identical ? "byte-identical at jobs 1/2/4/8" : "DIVERGED");
  bench::print_summary_row("aggregate report determinism",
                           "independent of worker count", buf);
  std::snprintf(buf, sizeof buf, "%.2fx on %u core(s)", best_speedup, cores);
  bench::print_summary_row("best parallel speedup (32 runs)",
                           "~min(jobs, cores)", buf);
  return all_identical ? 0 : 1;
}
