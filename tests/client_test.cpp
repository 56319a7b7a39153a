// TrustedTimeClient: remote applications fetching trusted time from a
// Triad cluster — rotation across nodes, tainted-node skipping, timeout
// failover, and end-to-end behaviour against a real cluster.
#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "triad/client.h"

namespace triad {
namespace {

// Per-node timeout before a request moves on to the next node.
constexpr Duration kNodeTimeout = milliseconds(5);

struct ClientFixture {
  ClientFixture() : scenario(make_config()) {
    ClientConfig config;
    config.id = 50;
    for (std::size_t i = 0; i < scenario.node_count(); ++i) {
      config.cluster.push_back(scenario.node_address(i));
    }
    client = std::make_unique<TrustedTimeClient>(scenario.env(),
                                                 scenario.keyring(), config);
  }

  static exp::ScenarioConfig make_config() {
    exp::ScenarioConfig cfg;
    cfg.seed = 77;
    cfg.machine_interrupts = false;  // keep taint timing controlled
    return cfg;
  }

  exp::Scenario scenario;
  std::unique_ptr<TrustedTimeClient> client;
};

TEST(TrustedTimeClient, FetchesTimestampFromCalibratedCluster) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));

  std::optional<TrustedTimestamp> result;
  f.client->request_timestamp(kNodeTimeout, [&](auto r) { result = r; });
  f.scenario.run_for(milliseconds(50));

  ASSERT_TRUE(result.has_value());
  // Timestamp within a few ms of reference (one-way delays + drift).
  EXPECT_LT(std::abs(result->timestamp - f.scenario.simulation().now()),
            milliseconds(50));
  EXPECT_GT(result->served_by, 0u);
  EXPECT_EQ(f.client->stats().successes, 1u);
}

TEST(TrustedTimeClient, SkipsTaintedNodeAndUsesNext) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));

  // Taint node 1 and immediately ask: the client's first pick (round
  // robin starts at node 1) answers tainted; the client must fail over.
  f.scenario.node(0).monitoring_thread().deliver_aex();
  ASSERT_EQ(f.scenario.node(0).state(), NodeState::kTainted);

  std::optional<TrustedTimestamp> result;
  f.client->request_timestamp(kNodeTimeout, [&](auto r) { result = r; });
  f.scenario.run_for(milliseconds(50));

  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->served_by, f.scenario.node_address(0));
  EXPECT_GE(f.client->stats().tainted_answers, 1u);
}

TEST(TrustedTimeClient, AllNodesTaintedReportsFailure) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));
  // Tainted nodes recover fast via their own protocol, so use an
  // extremely short client budget: taint everyone, ask immediately, and
  // block recovery by dropping peer/TA traffic with total loss.
  f.scenario.network().set_loss_probability(1.0);
  for (std::size_t i = 0; i < 3; ++i) {
    f.scenario.node(i).monitoring_thread().deliver_aex();
  }
  std::optional<std::optional<TrustedTimestamp>> outcome;
  f.client->request_timestamp(kNodeTimeout, [&](auto r) { outcome = r; });
  f.scenario.run_for(seconds(1));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value());
  EXPECT_EQ(f.client->stats().failures, 1u);
  f.scenario.network().set_loss_probability(0.0);
}

TEST(TrustedTimeClient, TimeoutRotatesToNextNode) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));

  // Drop all traffic to/from node 1 only.
  class NodeBlackhole final : public net::Middlebox {
   public:
    explicit NodeBlackhole(NodeId node) : node_(node) {}
    Action on_packet(const net::Packet& p, SimTime) override {
      return {.extra_delay = 0,
              .drop = p.src == node_ || p.dst == node_};
    }

   private:
    NodeId node_;
  } blackhole(f.scenario.node_address(0));
  f.scenario.network().add_middlebox(&blackhole);

  std::optional<TrustedTimestamp> result;
  f.client->request_timestamp(kNodeTimeout, [&](auto r) { result = r; });
  f.scenario.run_for(milliseconds(100));

  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->served_by, f.scenario.node_address(0));
  EXPECT_GE(f.client->stats().timeouts, 1u);
  f.scenario.network().remove_middlebox(&blackhole);
}

TEST(TrustedTimeClient, ManyConcurrentRequests) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));

  int done = 0;
  for (int i = 0; i < 50; ++i) {
    f.client->request_timestamp(kNodeTimeout, [&](auto r) {
      EXPECT_TRUE(r.has_value());
      ++done;
    });
  }
  f.scenario.run_for(seconds(1));
  EXPECT_EQ(done, 50);
  EXPECT_EQ(f.client->stats().successes, 50u);
}

TEST(TrustedTimeClient, RoundRobinSpreadsLoad) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));

  std::map<NodeId, int> served;
  for (int i = 0; i < 30; ++i) {
    f.client->request_timestamp(kNodeTimeout, [&](auto r) {
      if (r) ++served[r->served_by];
    });
    f.scenario.run_for(milliseconds(10));
  }
  EXPECT_EQ(served.size(), 3u);  // all nodes took a share
  for (const auto& [node, count] : served) EXPECT_EQ(count, 10);
}

TEST(TrustedTimeClient, CallbackMayReissueRequests) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));

  int chain = 0;
  std::function<void(std::optional<TrustedTimestamp>)> next =
      [&](std::optional<TrustedTimestamp> r) {
        ASSERT_TRUE(r.has_value());
        if (++chain < 5) f.client->request_timestamp(kNodeTimeout, next);
      };
  f.client->request_timestamp(kNodeTimeout, next);
  f.scenario.run_for(seconds(1));
  EXPECT_EQ(chain, 5);
}

TEST(TrustedTimeClient, InvalidConfigThrows) {
  ClientFixture f;
  ClientConfig bad;
  bad.id = 60;
  EXPECT_THROW(
      TrustedTimeClient(f.scenario.env(), f.scenario.keyring(), bad),
      std::invalid_argument);
  EXPECT_THROW(f.client->request_timestamp(0, [](auto) {}),
               std::invalid_argument);
}

TEST(TrustedTimeClient, NullCallbackThrows) {
  ClientFixture f;
  EXPECT_THROW(f.client->request_timestamp(kNodeTimeout, nullptr),
               std::invalid_argument);
}

// A request that timed out on node 1 and moved on to node 2 must wait
// for node 2: node 1's late tainted answer is stale and may not end it.
// Node 1's answers take 6 ms (past the 5 ms node timeout) and node 2's
// 3 ms, so node 1's lands first, while node 2's is still in flight.
TEST(TrustedTimeClient, LateAnswerFromAbandonedNodeIsIgnored) {
  ClientFixture f;
  f.scenario.start();
  f.scenario.run_until(minutes(1));

  class SlowReplies final : public net::Middlebox {
   public:
    SlowReplies(NodeId slow, NodeId fast) : slow_(slow), fast_(fast) {}
    Action on_packet(const net::Packet& p, SimTime) override {
      if (p.src == slow_) return {.extra_delay = milliseconds(6)};
      if (p.src == fast_) return {.extra_delay = milliseconds(3)};
      return {};
    }

   private:
    NodeId slow_;
    NodeId fast_;
  } slow_replies(f.scenario.node_address(0), f.scenario.node_address(1));
  f.scenario.network().add_middlebox(&slow_replies);

  ClientConfig config;
  config.id = 60;
  config.cluster = {f.scenario.node_address(0), f.scenario.node_address(1)};
  TrustedTimeClient client(f.scenario.env(), f.scenario.keyring(), config);
  f.scenario.node(0).monitoring_thread().deliver_aex();
  ASSERT_EQ(f.scenario.node(0).state(), NodeState::kTainted);

  std::optional<std::optional<TrustedTimestamp>> outcome;
  client.request_timestamp(kNodeTimeout, [&](auto r) { outcome = r; });
  f.scenario.run_for(milliseconds(50));

  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->has_value());
  EXPECT_EQ((*outcome)->served_by, f.scenario.node_address(1));
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(client.stats().tainted_answers, 0u);
  EXPECT_EQ(client.stats().failures, 0u);
  f.scenario.network().remove_middlebox(&slow_replies);
}

}  // namespace
}  // namespace triad
