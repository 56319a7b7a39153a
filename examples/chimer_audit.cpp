// Section V end-to-end: nodes publish their true-chimer observations to
// a registry; the majority clique identifies the compromised node.
//
// A Triad+ cluster runs under an F- attack from node 3. Every time a
// node's true-chimer policy makes a quorate decision it reports which
// peers sat inside the majority interval; the registry keeps only
// mutually-confirmed edges and computes the majority clique — node 3
// never makes it in, so an auditor (or a blockchain contract, as the
// paper suggests) can flag it.
//
//   $ ./chimer_audit
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "exp/scenario.h"
#include "resilient/chimer_registry.h"
#include "resilient/triad_plus.h"

int main() {
  using namespace triad;
  std::printf("=== true-chimer audit of an F- attacked cluster ===\n\n");

  // Aggregate chimer observations by frequency: under attack the victim
  // is inconsistent *most* of the time (it only looks fine briefly after
  // each correction), so a peer is confirmed only when it appears in at
  // least 80 % of the reporter's quorate decisions.
  struct Tally {
    std::map<NodeId, int> seen;
    int reports = 0;
  };
  std::map<NodeId, Tally> tallies;

  exp::ScenarioConfig cfg;
  cfg.seed = 55;
  cfg.node_template = resilient::harden(cfg.node_template);

  // Each node's policy publishes its chimer set tagged with its own id.
  NodeId next_id = 1;
  cfg.policy_factory = [&tallies, &next_id] {
    const NodeId self = next_id++;
    resilient::TrueChimerConfig chimer;
    chimer.on_chimer_set =
        [&tallies, self](const std::vector<NodeId>& chimers) {
          Tally& tally = tallies[self];
          ++tally.reports;
          for (NodeId peer : chimers) ++tally.seen[peer];
        };
    return resilient::make_triad_plus_policy(chimer);
  };
  exp::Scenario cluster(std::move(cfg));

  attacks::DelayAttackConfig attack;
  attack.kind = attacks::AttackKind::kFMinus;
  attack.victim = cluster.node_address(2);
  attack.ta_address = cluster.ta_address();
  cluster.add_delay_attack(attack);

  cluster.start();
  cluster.run_until(minutes(10));

  resilient::ChimerRegistry registry;
  for (const auto& [reporter, tally] : tallies) {
    std::vector<NodeId> confirmed;
    for (const auto& [peer, count] : tally.seen) {
      if (tally.reports > 0 &&
          static_cast<double>(count) / tally.reports >= 0.8) {
        confirmed.push_back(peer);
      }
    }
    registry.report(reporter, confirmed);
    std::printf("node %u: %d quorate decisions; confirmed peers:",
                reporter, tally.reports);
    for (NodeId peer : confirmed) std::printf(" n%u", peer);
    for (const auto& [peer, count] : tally.seen) {
      std::printf("  (n%u in %.0f%%)", peer,
                  100.0 * count / std::max(tally.reports, 1));
    }
    std::printf("\n");
  }

  std::printf("\nmutual-confirmation matrix (1 = mutually confirmed):\n   ");
  for (std::size_t j = 0; j < 3; ++j) std::printf(" n%zu", j + 1);
  std::printf("\n");
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("n%zu ", i + 1);
    for (std::size_t j = 0; j < 3; ++j) {
      std::printf("  %c",
                  i == j ? '-'
                         : (registry.mutually_confirmed(
                                cluster.node_address(i),
                                cluster.node_address(j))
                                ? '1'
                                : '0'));
    }
    std::printf("\n");
  }

  const auto clique = registry.majority_clique(3);
  std::printf("\nmajority clique:");
  for (NodeId node : clique) std::printf(" node%u", node);
  std::printf("\n");

  bool victim_excluded = true;
  for (NodeId node : clique) {
    if (node == cluster.node_address(2)) victim_excluded = false;
  }
  std::printf("compromised node 3 excluded from the trusted core: %s\n",
              victim_excluded && !clique.empty() ? "yes" : "NO");
  return victim_excluded && !clique.empty() ? 0 : 1;
}
