// Network substrate: delivery, delays, loss, middleboxes, link overrides.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "net/network.h"
#include "sim/simulation.h"

namespace triad::net {
namespace {

struct Fixture {
  sim::Simulation sim{99};
  Network net{sim, std::make_unique<FixedDelay>(milliseconds(1))};
};

TEST(DelayModels, FixedDelayIsConstant) {
  Rng rng(1);
  FixedDelay d(microseconds(123));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), microseconds(123));
  EXPECT_THROW(FixedDelay(-1), std::invalid_argument);
}

TEST(DelayModels, JitterDelayRespectsFloorAndVaries) {
  Rng rng(2);
  JitterDelay d(microseconds(150), microseconds(50), microseconds(100));
  Duration lo = kSimTimeMax, hi = 0;
  for (int i = 0; i < 1000; ++i) {
    const Duration s = d.sample(rng);
    EXPECT_GE(s, microseconds(100));
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GT(hi, lo);  // actually jitters
  EXPECT_LT(hi, microseconds(600));
}

TEST(DelayModels, ExponentialTailMeanApprox) {
  Rng rng(3);
  ExponentialTailDelay d(microseconds(100), microseconds(200));
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(rng));
  EXPECT_NEAR(sum / n, 300e3, 15e3);
}

TEST(Network, DeliversWithConfiguredDelay) {
  Fixture f;
  std::vector<SimTime> arrivals;
  f.net.attach(2, [&](const Packet& p) {
    arrivals.push_back(f.sim.now());
    EXPECT_EQ(p.src, 1u);
    EXPECT_EQ(p.payload, Bytes({7, 8}));
  });
  f.net.send(1, 2, Bytes{7, 8});
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], milliseconds(1));
  EXPECT_EQ(f.net.stats().delivered, 1u);
  EXPECT_EQ(f.net.stats().bytes_sent, 2u);
  EXPECT_EQ(f.net.stats().bytes_delivered, 2u);
}

TEST(Network, NoReceiverCountsAsDrop) {
  Fixture f;
  f.net.send(1, 9, Bytes{1});
  f.sim.run();
  EXPECT_EQ(f.net.stats().dropped_no_receiver, 1u);
  EXPECT_EQ(f.net.stats().delivered, 0u);
  // Byte accounting: sent counts the attempt, delivered does not.
  EXPECT_EQ(f.net.stats().bytes_sent, 1u);
  EXPECT_EQ(f.net.stats().bytes_delivered, 0u);
}

TEST(Network, DetachStopsDelivery) {
  Fixture f;
  int received = 0;
  f.net.attach(2, [&](const Packet&) { ++received; });
  f.net.send(1, 2, Bytes{1});
  f.sim.run();
  f.net.detach(2);
  f.net.send(1, 2, Bytes{2});
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, LinkDelayOverridesDefault) {
  Fixture f;
  f.net.set_link_delay(1, 2, std::make_unique<FixedDelay>(seconds(1)));
  SimTime a_to_b = -1, b_to_a = -1;
  f.net.attach(2, [&](const Packet&) { a_to_b = f.sim.now(); });
  f.net.attach(1, [&](const Packet&) { b_to_a = f.sim.now(); });
  f.net.send(1, 2, Bytes{1});
  f.net.send(2, 1, Bytes{2});
  f.sim.run();
  EXPECT_EQ(a_to_b, seconds(1));        // overridden direction
  EXPECT_EQ(b_to_a, milliseconds(1));   // reverse keeps default
}

TEST(Network, LossDropsApproximatelyTheConfiguredFraction) {
  sim::Simulation sim(5);
  Network net(sim, std::make_unique<FixedDelay>(0));
  net.set_loss_probability(0.3);
  int received = 0;
  net.attach(2, [&](const Packet&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) net.send(1, 2, Bytes{1});
  sim.run();
  EXPECT_NEAR(received / static_cast<double>(n), 0.7, 0.03);
  EXPECT_EQ(net.stats().dropped_by_loss + net.stats().delivered,
            static_cast<std::uint64_t>(n));
}

TEST(Network, InvalidParametersThrow) {
  sim::Simulation sim;
  EXPECT_THROW(Network(sim, nullptr), std::invalid_argument);
  Network net(sim, std::make_unique<FixedDelay>(0));
  EXPECT_THROW(net.attach(1, nullptr), std::invalid_argument);
  EXPECT_THROW(net.set_loss_probability(1.5), std::invalid_argument);
  EXPECT_THROW(net.set_link_delay(1, 2, nullptr), std::invalid_argument);
  EXPECT_THROW(net.add_middlebox(nullptr), std::invalid_argument);
}

class DelayBox final : public Middlebox {
 public:
  explicit DelayBox(Duration d) : delay_(d) {}
  Action on_packet(const Packet& p, SimTime) override {
    seen.push_back(p.id);
    return {.extra_delay = delay_, .drop = false};
  }
  std::vector<std::uint64_t> seen;

 private:
  Duration delay_;
};

class DropBox final : public Middlebox {
 public:
  Action on_packet(const Packet&, SimTime) override {
    return {.extra_delay = 0, .drop = true};
  }
};

TEST(Network, MiddleboxDelayAccumulates) {
  Fixture f;
  DelayBox box1(milliseconds(10));
  DelayBox box2(milliseconds(5));
  f.net.add_middlebox(&box1);
  f.net.add_middlebox(&box2);
  SimTime arrival = -1;
  f.net.attach(2, [&](const Packet&) { arrival = f.sim.now(); });
  f.net.send(1, 2, Bytes{1});
  f.sim.run();
  EXPECT_EQ(arrival, milliseconds(16));  // 1 base + 10 + 5
  EXPECT_EQ(box1.seen.size(), 1u);
  EXPECT_EQ(box2.seen.size(), 1u);
}

TEST(Network, MiddleboxDropWins) {
  Fixture f;
  DropBox box;
  f.net.add_middlebox(&box);
  int received = 0;
  f.net.attach(2, [&](const Packet&) { ++received; });
  f.net.send(1, 2, Bytes{1});
  f.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.stats().dropped_by_middlebox, 1u);
}

TEST(Network, RemoveMiddleboxRestoresTraffic) {
  Fixture f;
  DropBox box;
  f.net.add_middlebox(&box);
  f.net.remove_middlebox(&box);
  int received = 0;
  f.net.attach(2, [&](const Packet&) { ++received; });
  f.net.send(1, 2, Bytes{1});
  f.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, MiddleboxSeesMetadataNotJustDelivered) {
  Fixture f;
  DelayBox box(0);
  f.net.add_middlebox(&box);
  f.net.send(3, 4, Bytes{9});  // no receiver attached: still observed on wire
  f.sim.run();
  EXPECT_EQ(box.seen.size(), 1u);
}

TEST(Network, PacketIdsAreUnique) {
  Fixture f;
  DelayBox box(0);
  f.net.add_middlebox(&box);
  for (int i = 0; i < 10; ++i) f.net.send(1, 2, Bytes{1});
  f.sim.run();
  std::sort(box.seen.begin(), box.seen.end());
  EXPECT_EQ(std::adjacent_find(box.seen.begin(), box.seen.end()),
            box.seen.end());
}

// --- in-flight slab ------------------------------------------------------

TEST(NetworkSlab, HandlerThatGrowsTheSlabStillReadsItsOwnPayload) {
  Fixture f;
  Bytes first(64);
  std::iota(first.begin(), first.end(), std::uint8_t{1});
  bool checked = false;
  int echoes = 0;
  f.net.attach(3, [&](const Packet&) { ++echoes; });
  f.net.attach(2, [&](const Packet& p) {
    if (p.payload != first) return;  // one of the fan-out packets
    const std::size_t slots_before = f.net.slab_slots();
    // Each send takes a fresh slot: the slot being delivered stays taken
    // until this handler returns, so the slab must grow and move.
    for (int i = 0; i < 100; ++i) f.net.send(2, 3, Bytes(200, 0xee));
    EXPECT_GE(f.net.slab_slots(), slots_before + 100);
    EXPECT_EQ(p.src, 1u);
    EXPECT_EQ(p.dst, 2u);
    EXPECT_EQ(p.payload, first);
    checked = true;
  });
  f.net.send(1, 2, first);
  f.sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(echoes, 100);
  EXPECT_EQ(f.net.packets_in_flight(), 0u);
}

TEST(NetworkSlab, RecycledSlotsCarryTheRightPayload) {
  // Payloads of varying size through few slots: a reused slot's buffer
  // must hold exactly the new payload, not a longer leftover.
  Fixture f;
  std::vector<Bytes> received;
  f.net.attach(2, [&](const Packet& p) {
    received.emplace_back(p.payload.begin(), p.payload.end());
  });
  std::vector<Bytes> sent;
  for (std::size_t i = 0; i < 20; ++i) {
    sent.emplace_back((i * 37) % 11, static_cast<std::uint8_t>(i));
    f.net.send(1, 2, sent.back());
    f.sim.run();
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(f.net.slab_slots(), 1u);
}

TEST(NetworkSlab, DroppedPacketsGiveTheirSlotBack) {
  Fixture f;
  DropBox box;
  int received = 0;
  f.net.attach(2, [&](const Packet&) { ++received; });
  // No receiver at 9.
  for (int i = 0; i < 50; ++i) f.net.send(1, 9, Bytes{1});
  f.sim.run();
  // Loss.
  f.net.set_loss_probability(1.0);
  for (int i = 0; i < 50; ++i) f.net.send(1, 2, Bytes{2});
  f.net.set_loss_probability(0.0);
  // Middlebox.
  f.net.add_middlebox(&box);
  for (int i = 0; i < 50; ++i) f.net.send(1, 2, Bytes{3});
  f.net.remove_middlebox(&box);
  f.sim.run();
  EXPECT_EQ(f.net.stats().dropped_no_receiver, 50u);
  EXPECT_EQ(f.net.stats().dropped_by_loss, 50u);
  EXPECT_EQ(f.net.stats().dropped_by_middlebox, 50u);
  EXPECT_EQ(f.net.packets_in_flight(), 0u);
  // Only the 50 packets to 9 were ever in flight together; the loss and
  // middlebox drops reused one slot among them.
  EXPECT_EQ(f.net.slab_slots(), 50u);
  for (int i = 0; i < 50; ++i) f.net.send(1, 2, Bytes{4});
  EXPECT_EQ(f.net.packets_in_flight(), 50u);
  EXPECT_EQ(f.net.slab_slots(), 50u);
  f.sim.run();
  EXPECT_EQ(received, 50);
  EXPECT_EQ(f.net.packets_in_flight(), 0u);
}

TEST(NetworkSlab, ByteCountersStayExact) {
  sim::Simulation sim(7);
  Network net(sim, std::make_unique<FixedDelay>(milliseconds(1)));
  net.set_loss_probability(0.25);
  std::uint64_t bytes_handed = 0;  // every payload given to send()
  std::uint64_t bytes_seen = 0;    // every payload a handler saw
  std::uint64_t handled = 0;
  net.attach(2, [&](const Packet& p) {
    ++handled;
    bytes_seen += p.payload.size();
    if (p.payload.size() % 2 == 0) {
      // Forward the delivered payload itself, to an address nobody serves.
      bytes_handed += p.payload.size();
      net.send(2, 9, p.payload);
    }
  });
  for (std::size_t i = 0; i < 500; ++i) {
    const Bytes payload(i % 40, static_cast<std::uint8_t>(i));
    bytes_handed += payload.size();
    net.send(1, 2, payload);
    if (i % 7 == 0) sim.run();
  }
  sim.run();
  const NetworkStats& st = net.stats();
  EXPECT_EQ(st.bytes_sent, bytes_handed);
  EXPECT_EQ(st.bytes_delivered, bytes_seen);
  EXPECT_EQ(st.delivered, handled);
  EXPECT_EQ(st.sent,
            st.delivered + st.dropped_by_loss + st.dropped_no_receiver);
  EXPECT_GT(st.dropped_by_loss, 0u);
  EXPECT_GT(st.dropped_no_receiver, 0u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

}  // namespace
}  // namespace triad::net
