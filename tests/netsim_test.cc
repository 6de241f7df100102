// Simulator tests: scheduler ordering, link timing arithmetic, shaper
// conformance, network dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "netsim/chaos.h"
#include "netsim/link.h"
#include "netsim/network.h"
#include "netsim/scheduler.h"
#include "netsim/shaper.h"
#include "proto/envelope.h"
#include "proto/messages.h"

namespace coic::netsim {
namespace {

// ---------------------------------------------------------------------------
// EventScheduler
// ---------------------------------------------------------------------------

TEST(SchedulerTest, FiresInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(SimTime::FromMicros(30), [&] { order.push_back(3); });
  sched.ScheduleAt(SimTime::FromMicros(10), [&] { order.push_back(1); });
  sched.ScheduleAt(SimTime::FromMicros(20), [&] { order.push_back(2); });
  EXPECT_EQ(sched.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now().micros(), 30);
}

TEST(SchedulerTest, SimultaneousEventsFifo) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(SimTime::FromMicros(100), [&order, i] { order.push_back(i); });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  EventScheduler sched;
  SimTime fired_at;
  sched.ScheduleAfter(Duration::Millis(1), [&] {
    sched.ScheduleAfter(Duration::Millis(2),
                        [&] { fired_at = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(fired_at.micros(), 3000);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  EventScheduler sched;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sched.ScheduleAfter(Duration::Micros(5), chain);
  };
  sched.ScheduleAfter(Duration::Micros(5), chain);
  EXPECT_EQ(sched.Run(), 10u);
  EXPECT_EQ(sched.now().micros(), 50);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  EventScheduler sched;
  bool ran = false;
  const EventId id = sched.ScheduleAfter(Duration::Millis(1), [&] { ran = true; });
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));  // double-cancel is a no-op
  sched.Run();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelUnknownIdReturnsFalse) {
  EventScheduler sched;
  EXPECT_FALSE(sched.Cancel(999));
}

TEST(SchedulerTest, CancelAfterFireReturnsFalse) {
  EventScheduler sched;
  const EventId id = sched.ScheduleAfter(Duration::Millis(1), [] {});
  sched.Run();
  EXPECT_FALSE(sched.Cancel(id));
}

TEST(SchedulerTest, StepFiresExactlyOne) {
  EventScheduler sched;
  int fired = 0;
  sched.ScheduleAfter(Duration::Micros(1), [&] { ++fired; });
  sched.ScheduleAfter(Duration::Micros(2), [&] { ++fired; });
  EXPECT_TRUE(sched.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sched.Step());
}

TEST(SchedulerTest, StepSkipsCancelled) {
  EventScheduler sched;
  bool ran = false;
  const EventId id = sched.ScheduleAfter(Duration::Micros(1), [] {});
  sched.ScheduleAfter(Duration::Micros(2), [&] { ran = true; });
  sched.Cancel(id);
  EXPECT_TRUE(sched.Step());  // skips cancelled, fires the live one
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  EventScheduler sched;
  int fired = 0;
  sched.ScheduleAt(SimTime::FromMicros(10), [&] { ++fired; });
  sched.ScheduleAt(SimTime::FromMicros(20), [&] { ++fired; });
  sched.ScheduleAt(SimTime::FromMicros(30), [&] { ++fired; });
  EXPECT_EQ(sched.RunUntil(SimTime::FromMicros(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now().micros(), 20);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(SchedulerTest, RunUntilAdvancesClockWhenIdle) {
  EventScheduler sched;
  sched.RunUntil(SimTime::FromMicros(500));
  EXPECT_EQ(sched.now().micros(), 500);
}

TEST(SchedulerTest, TotalFiredExcludesCancelledEvents) {
  EventScheduler sched;
  const auto noop = [] {};
  sched.ScheduleAt(SimTime::FromMicros(1), noop);
  const EventId cancelled = sched.ScheduleAt(SimTime::FromMicros(2), noop);
  sched.ScheduleAt(SimTime::FromMicros(3), noop);
  sched.Cancel(cancelled);
  EXPECT_EQ(sched.Run(), 2u);
  EXPECT_EQ(sched.total_fired(), 2u);
}

TEST(SchedulerTest, CancellingARearmedTimerStopsTheChain) {
  // The free-running gossip pattern: a periodic event re-arms itself
  // each firing; cancelling the latest armed id must terminate the
  // chain so Run() drains.
  EventScheduler sched;
  EventId armed = 0;
  int rounds = 0;
  std::function<void()> tick = [&] {
    ++rounds;
    if (rounds < 3) armed = sched.ScheduleAfter(Duration::Millis(1), tick);
  };
  armed = sched.ScheduleAfter(Duration::Millis(1), tick);
  sched.ScheduleAt(SimTime::FromMicros(1500), [&] { sched.Cancel(armed); });
  sched.Run();
  // Fired at 1 ms, re-armed for 2 ms, cancelled at 1.5 ms.
  EXPECT_EQ(rounds, 1);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(SchedulerTest, CancelSemanticsSurviveManyLazyDeletions) {
  // Stress the flat-state bookkeeping: interleave fires and cancels and
  // confirm Cancel keeps distinguishing pending / fired / cancelled /
  // never-issued ids.
  EventScheduler sched;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        sched.ScheduleAt(SimTime::FromMicros(i % 97), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    EXPECT_TRUE(sched.Cancel(ids[i]));
    EXPECT_FALSE(sched.Cancel(ids[i]));  // double cancel
  }
  EXPECT_FALSE(sched.Cancel(999'999));  // never issued
  sched.Run();
  EXPECT_EQ(fired, 1000 - 334);
  EXPECT_EQ(sched.total_fired(), static_cast<std::uint64_t>(fired));
  for (const EventId id : ids) EXPECT_FALSE(sched.Cancel(id));  // all fired
}

TEST(SchedulerTest, TimeNeverGoesBackwards) {
  EventScheduler sched;
  std::vector<std::int64_t> times;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    sched.ScheduleAt(SimTime::FromMicros(static_cast<std::int64_t>(rng.NextBelow(1000))),
                     [&] { times.push_back(sched.now().micros()); });
  }
  sched.Run();
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

struct LinkFixture : ::testing::Test {
  EventScheduler sched;
};

TEST_F(LinkFixture, DeliveryTimeIsSerializationPlusPropagation) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(8);       // 1 byte/us
  cfg.propagation = Duration::Millis(10);
  Link link(sched, "test", cfg);
  SimTime delivered_at;
  link.Send(DeterministicBytes(1000, 1),
            [&](Frame) { delivered_at = sched.now(); });
  sched.Run();
  // 1000 bytes at 8 Mbps = 1 ms serialization + 10 ms propagation.
  EXPECT_EQ(delivered_at.micros(), 11'000);
}

TEST_F(LinkFixture, BackToBackFramesQueueBehindEachOther) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(8);
  cfg.propagation = Duration::Zero();
  Link link(sched, "test", cfg);
  std::vector<std::int64_t> deliveries;
  for (int i = 0; i < 3; ++i) {
    link.Send(DeterministicBytes(1000, i),
              [&](Frame) { deliveries.push_back(sched.now().micros()); });
  }
  sched.Run();
  EXPECT_EQ(deliveries, (std::vector<std::int64_t>{1000, 2000, 3000}));
}

TEST_F(LinkFixture, FifoOrderPreserved) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(100);
  Link link(sched, "test", cfg);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    ByteVec payload = {static_cast<std::uint8_t>(i)};
    link.Send(std::move(payload),
              [&order](Frame p) { order.push_back(p.span()[0]); });
  }
  sched.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(LinkFixture, PayloadDeliveredIntact) {
  Link link(sched, "test", LinkConfig{});
  const ByteVec payload = DeterministicBytes(4096, 7);
  ByteVec received;
  link.Send(ByteVec(payload), [&](Frame p) { received = p.CloneBytes(); });
  sched.Run();
  EXPECT_EQ(received, payload);
}

TEST_F(LinkFixture, QueueOverflowDropsTail) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(1);  // slow: frames pile up
  cfg.queue_capacity = 2500;
  Link link(sched, "test", cfg);
  int delivered = 0, dropped = 0;
  DropReason reason{};
  for (int i = 0; i < 4; ++i) {
    link.Send(DeterministicBytes(1000, i), [&](Frame) { ++delivered; },
              [&](DropReason r, Frame) {
                ++dropped;
                reason = r;
              });
  }
  sched.Run();
  EXPECT_EQ(delivered, 2);  // 2 x 1000 fit under 2500 at send time
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(reason, DropReason::kQueueOverflow);
  EXPECT_EQ(link.stats().frames_dropped_queue, 2u);
}

TEST_F(LinkFixture, RandomLossDropsApproximatelyAtRate) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Gbps(10);
  cfg.loss_rate = 0.2;
  cfg.seed = 77;
  Link link(sched, "lossy", cfg);
  int delivered = 0, dropped = 0;
  for (int i = 0; i < 2000; ++i) {
    link.Send(ByteVec{1}, [&](Frame) { ++delivered; },
              [&](DropReason, Frame) { ++dropped; });
  }
  sched.Run();
  EXPECT_EQ(delivered + dropped, 2000);
  EXPECT_NEAR(dropped / 2000.0, 0.2, 0.03);
  EXPECT_EQ(link.stats().frames_dropped_loss, static_cast<std::uint64_t>(dropped));
}

TEST_F(LinkFixture, StatsCountBytesAndFrames) {
  Link link(sched, "test", LinkConfig{});
  link.Send(DeterministicBytes(100, 1), [](Frame) {});
  link.Send(DeterministicBytes(200, 2), [](Frame) {});
  sched.Run();
  EXPECT_EQ(link.stats().frames_sent, 2u);
  EXPECT_EQ(link.stats().frames_delivered, 2u);
  EXPECT_EQ(link.stats().bytes_delivered, 300u);
}

TEST_F(LinkFixture, BacklogDrainsAfterSerialization) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(8);
  Link link(sched, "test", cfg);
  link.Send(DeterministicBytes(1000, 1), [](Frame) {});
  EXPECT_EQ(link.backlog(), 1000u);
  sched.Run();
  EXPECT_EQ(link.backlog(), 0u);
}

TEST_F(LinkFixture, BandwidthReconfigurationAffectsNewFrames) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(8);
  cfg.propagation = Duration::Zero();
  Link link(sched, "tc", cfg);
  std::vector<std::int64_t> at;
  link.Send(DeterministicBytes(1000, 1),
            [&](Frame) { at.push_back(sched.now().micros()); });
  sched.Run();
  link.SetBandwidth(Bandwidth::Mbps(80));  // the tc analogue
  link.Send(DeterministicBytes(1000, 2),
            [&](Frame) { at.push_back(sched.now().micros()); });
  sched.Run();
  EXPECT_EQ(at[0], 1000);          // 1 ms at 8 Mbps
  EXPECT_EQ(at[1] - at[0], 100);   // 0.1 ms at 80 Mbps
}

TEST_F(LinkFixture, JitterBoundedByConfig) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Gbps(10);
  cfg.propagation = Duration::Millis(1);
  cfg.jitter = Duration::Millis(2);
  Link link(sched, "jittery", cfg);
  for (int i = 0; i < 200; ++i) {
    const SimTime sent = sched.now();
    link.Send(ByteVec{1}, [&, sent](Frame) {
      const Duration flight = sched.now() - sent;
      EXPECT_GE(flight, Duration::Millis(1));
      EXPECT_LE(flight, Duration::Millis(3) + Duration::Micros(10));
    });
    sched.Run();
  }
}

TEST_F(LinkFixture, UtilizationReflectsBusyFraction) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(8);
  cfg.propagation = Duration::Zero();
  Link link(sched, "util", cfg);
  link.Send(DeterministicBytes(1000, 1), [](Frame) {});  // busy 1 ms
  sched.Run();
  sched.RunUntil(SimTime::FromMicros(2000));  // idle another 1 ms
  EXPECT_NEAR(link.Utilization(), 0.5, 0.01);
}

// Property: transfer time over a sweep of sizes/bandwidths matches
// bytes*8/bw + propagation within 1 us rounding.
struct TransferCase {
  std::uint64_t bytes;
  double mbps;
  std::int64_t prop_us;
};

class LinkTransferPropertyTest : public ::testing::TestWithParam<TransferCase> {};

TEST_P(LinkTransferPropertyTest, MatchesClosedForm) {
  const auto param = GetParam();
  EventScheduler sched;
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::Mbps(param.mbps);
  cfg.propagation = Duration::Micros(param.prop_us);
  Link link(sched, "p", cfg);
  SimTime delivered_at;
  link.Send(DeterministicBytes(param.bytes, 1),
            [&](Frame) { delivered_at = sched.now(); });
  sched.Run();
  const double expected_us =
      static_cast<double>(param.bytes) * 8.0 / param.mbps + param.prop_us;
  EXPECT_NEAR(static_cast<double>(delivered_at.micros()), expected_us, 1.5);
}

const TransferCase kTransferCases[] = {
    {1500, 10, 0},          {1500, 400, 2000},      {1'800'000, 90, 2000},
    {1'800'000, 9, 20'000}, {15'053'000, 30, 20'000}, {64, 1000, 100},
    {2'400'000, 400, 2000}};

/// Prints "b1500_mbps10_prop0". CTest's gtest discovery names each
/// instance by its printed parameter, so every case gets a readable
/// name of its own instead of a raw byte dump (every sweep rate is a
/// whole number of Mbps).
void PrintTo(const TransferCase& c, std::ostream* os) {
  *os << 'b' << c.bytes << "_mbps" << static_cast<std::int64_t>(c.mbps)
      << "_prop" << c.prop_us;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LinkTransferPropertyTest,
                         ::testing::ValuesIn(kTransferCases));

TEST(LinkTransferPropertyNames, EveryCaseHasItsOwnName) {
  // Cases sharing a byte count (1500, 1'800'000) must still differ by
  // name, so a list of test names tracks each case on its own.
  std::set<std::string> names;
  for (const TransferCase& c : kTransferCases) {
    names.insert(::testing::PrintToString(c));
  }
  EXPECT_EQ(names.size(), std::size(kTransferCases));
  EXPECT_EQ(::testing::PrintToString(kTransferCases[0]), "b1500_mbps10_prop0");
}

// ---------------------------------------------------------------------------
// TokenBucketShaper
// ---------------------------------------------------------------------------

TEST(ShaperTest, BurstPassesImmediately) {
  TokenBucketShaper shaper(Bandwidth::Mbps(8), 10'000);
  const SimTime now = SimTime::FromMicros(0);
  EXPECT_EQ(shaper.Admit(now, 10'000), now);  // full bucket
}

TEST(ShaperTest, DrainedBucketDelays) {
  TokenBucketShaper shaper(Bandwidth::Mbps(8), 1000);  // 1 byte/us refill
  const SimTime t0 = SimTime::Epoch();
  EXPECT_EQ(shaper.Admit(t0, 1000), t0);
  // Bucket empty; next 500 bytes need 500 us of refill.
  EXPECT_EQ(shaper.Admit(t0, 500).micros(), 500);
}

TEST(ShaperTest, RefillsWhileIdle) {
  TokenBucketShaper shaper(Bandwidth::Mbps(8), 1000);
  (void)shaper.Admit(SimTime::Epoch(), 1000);
  // After 2 ms idle, the bucket is full again (capped at burst).
  const SimTime later = SimTime::FromMicros(2000);
  EXPECT_NEAR(shaper.TokensAt(later), 1000.0, 1e-6);
  EXPECT_EQ(shaper.Admit(later, 1000), later);
}

TEST(ShaperTest, FifoReleaseOrder) {
  TokenBucketShaper shaper(Bandwidth::Mbps(8), 1000);
  const SimTime t0 = SimTime::Epoch();
  const SimTime r1 = shaper.Admit(t0, 1000);
  const SimTime r2 = shaper.Admit(t0, 100);
  const SimTime r3 = shaper.Admit(t0, 100);
  EXPECT_LE(r1, r2);
  EXPECT_LE(r2, r3);
}

TEST(ShaperTest, LongRunRateConvergesToConfigured) {
  // Push 1000 frames of 1000 bytes through an 8 Mbps shaper: the last
  // release time must be ~ total_bytes * 8 / rate.
  TokenBucketShaper shaper(Bandwidth::Mbps(8), 2000);
  SimTime now = SimTime::Epoch();
  SimTime last = now;
  for (int i = 0; i < 1000; ++i) {
    last = shaper.Admit(now, 1000);
    now = last;  // arrivals chase the release horizon (saturated source)
  }
  const double expected_us = 1000.0 * 1000.0;  // 1 byte/us, minus burst credit
  EXPECT_NEAR(static_cast<double>(last.micros()), expected_us, 3000);
}

TEST(ShaperTest, NeverExceedsRatePlusBurstOverAnyWindow) {
  TokenBucketShaper shaper(Bandwidth::Mbps(80), 5000);
  Rng rng(5);
  SimTime now = SimTime::Epoch();
  std::vector<std::pair<std::int64_t, std::uint64_t>> releases;  // (us, bytes)
  for (int i = 0; i < 500; ++i) {
    now = now + Duration::Micros(static_cast<std::int64_t>(rng.NextBelow(300)));
    const std::uint64_t bytes = 200 + rng.NextBelow(1800);
    const SimTime release = shaper.Admit(now, bytes);
    releases.emplace_back(release.micros(), bytes);
  }
  // Over any window [a, b], released bytes <= burst + rate * (b - a).
  const double rate_bytes_per_us = 10.0;  // 80 Mbps
  for (std::size_t a = 0; a < releases.size(); a += 17) {
    std::uint64_t sum = 0;
    for (std::size_t b = a; b < releases.size(); ++b) {
      sum += releases[b].second;
      const double window = static_cast<double>(releases[b].first - releases[a].first);
      EXPECT_LE(static_cast<double>(sum),
                5000.0 + rate_bytes_per_us * window + 2000.0)
          << "window [" << a << "," << b << "]";
    }
  }
}

TEST(ShaperTest, AgreesWithLinkModelAtSteadyState) {
  // A saturated source through a token-bucket shaper and through a Link
  // of the same rate must complete N frames at (asymptotically) the same
  // time — the shaper is the mechanism-level model of the same pipe.
  constexpr int kFrames = 500;
  constexpr std::uint64_t kFrameBytes = 1200;
  const Bandwidth rate = Bandwidth::Mbps(24);

  EventScheduler sched;
  LinkConfig cfg;
  cfg.bandwidth = rate;
  cfg.propagation = Duration::Zero();
  Link link(sched, "pipe", cfg);
  SimTime link_done;
  for (int i = 0; i < kFrames; ++i) {
    link.Send(ByteVec(kFrameBytes), [&](Frame) { link_done = sched.now(); });
  }
  sched.Run();

  TokenBucketShaper shaper(rate, kFrameBytes);
  SimTime shaper_done = SimTime::Epoch();
  for (int i = 0; i < kFrames; ++i) {
    shaper_done = shaper.Admit(shaper_done, kFrameBytes);
  }

  const double link_us = static_cast<double>(link_done.micros());
  const double shaper_us = static_cast<double>(shaper_done.micros());
  // Within one burst worth of divergence (the shaper's initial credit).
  EXPECT_NEAR(link_us, shaper_us, 2.0 * rate.TransmitTime(kFrameBytes).micros());
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

TEST(NetworkTest, DeliversToHandlerWithSender) {
  EventScheduler sched;
  Network net(sched);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  net.Connect(a, b, LinkConfig{});
  NodeId from = kInvalidNode;
  ByteVec got;
  net.SetHandler(b, [&](NodeId f, Frame p, Frame) {
    from = f;
    got = p.CloneBytes();
  });
  net.Send(a, b, ByteVec{9, 8, 7});
  sched.Run();
  EXPECT_EQ(from, a);
  EXPECT_EQ(got, (ByteVec{9, 8, 7}));
}

/// Two shards' Networks over one clock: `a` lives on `tx`, `b` on `rx`,
/// and the remote-dispatch hook hands frames over as the sharded engine
/// does (scheduled at their stamped delivery time on the receiver).
struct CrossShardPair {
  EventScheduler sched;
  Network tx{sched};
  Network rx{sched};
  NodeId a = 0;
  NodeId b = 0;

  explicit CrossShardPair(bool datagram) {
    for (Network* net : {&tx, &rx}) {
      a = net->AddNode("a");
      b = net->AddNode("b");
      if (datagram) net->EnableDatagram(1024);
    }
    tx.ConnectOneWay(a, b, LinkConfig{});
    rx.ConnectOneWay(b, a, LinkConfig{});
    tx.MarkRemote(b);
    rx.MarkRemote(a);
    tx.SetRemoteDispatch(Handoff(rx));
    rx.SetRemoteDispatch(Handoff(tx));
  }

  Network::RemoteDispatchFn Handoff(Network& to_net) {
    return [this, &to_net](NodeId from, NodeId to, SimTime at, Frame payload,
                           Frame tail) {
      sched.ScheduleAt(at, [&to_net, from, to, payload = std::move(payload),
                            tail = std::move(tail)]() mutable {
        to_net.DeliverRemote(from, to, std::move(payload), std::move(tail));
      });
    };
  }
};

TEST(NetworkTest, GatherToARemoteNodeCrossesAsTheSendersTwoBuffers) {
  // The cross-shard handoff carries the pair: the receiving shard's
  // handler gets the sender's own head and tail, nothing fused.
  CrossShardPair pair(/*datagram=*/false);
  Frame got_head, got_tail;
  pair.rx.SetHandler(pair.b, [&](NodeId from, Frame h, Frame t) {
    EXPECT_EQ(from, pair.a);
    got_head = std::move(h);
    got_tail = std::move(t);
  });
  const Frame head(DeterministicBytes(12, 1));
  const Frame tail(DeterministicBytes(500, 2));
  const std::uint64_t fuses_before = frame_stats().fuses();
  const std::uint64_t copies_before = frame_stats().copies();
  pair.tx.SendGather(pair.a, pair.b, head, tail);
  pair.sched.Run();
  EXPECT_TRUE(got_head.SharesBufferWith(head));
  EXPECT_TRUE(got_tail.SharesBufferWith(tail));
  EXPECT_EQ(got_head.size(), head.size());
  EXPECT_EQ(got_tail.size(), tail.size());
  EXPECT_EQ(frame_stats().fuses(), fuses_before);
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(NetworkTest, BroadcastFanOutSharesOneBufferAcrossEightPeers) {
  // The zero-copy fabric's core claim at the substrate level: fanning a
  // frame to 8 peers bumps one refcount per link and never duplicates
  // the payload. Every delivered frame aliases the sender's buffer.
  EventScheduler sched;
  Network net(sched);
  const NodeId hub = net.AddNode("hub");
  std::vector<NodeId> peers;
  for (int i = 0; i < 8; ++i) {
    peers.push_back(net.AddNode("peer" + std::to_string(i)));
    net.Connect(hub, peers.back(), LinkConfig{});
  }
  const Frame frame(DeterministicBytes(4096, 42));
  int delivered = 0;
  for (const NodeId p : peers) {
    net.SetHandler(p, [&](NodeId, Frame received, Frame) {
      EXPECT_TRUE(received.SharesBufferWith(frame));
      ++delivered;
    });
  }
  const std::uint64_t copies_before = frame_stats().copies();
  for (const NodeId p : peers) net.Send(hub, p, frame);
  // All 8 in-flight sends plus our handle reference the same buffer.
  EXPECT_EQ(frame.use_count(), 9);
  sched.Run();
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(frame_stats().copies(), copies_before);  // zero payload copies
  EXPECT_EQ(frame.use_count(), 1);  // deliveries released their refs
}

TEST(NetworkTest, DuplexLinksAreIndependent) {
  EventScheduler sched;
  Network net(sched);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  LinkConfig fast;
  fast.bandwidth = Bandwidth::Mbps(400);
  LinkConfig slow;
  slow.bandwidth = Bandwidth::Mbps(4);
  net.Connect(a, b, fast, slow);
  EXPECT_EQ(net.LinkBetween(a, b).config().bandwidth, Bandwidth::Mbps(400));
  EXPECT_EQ(net.LinkBetween(b, a).config().bandwidth, Bandwidth::Mbps(4));
}

TEST(NetworkTest, AdjacencyChecks) {
  EventScheduler sched;
  Network net(sched);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  const NodeId c = net.AddNode("c");
  net.Connect(a, b, LinkConfig{});
  EXPECT_TRUE(net.Adjacent(a, b));
  EXPECT_TRUE(net.Adjacent(b, a));
  EXPECT_FALSE(net.Adjacent(a, c));
}

TEST(NetworkTest, ThreeTierRelayTiming) {
  // mobile -> edge -> cloud relay reproduces the sum of per-hop times.
  EventScheduler sched;
  Network net(sched);
  const NodeId m = net.AddNode("mobile");
  const NodeId e = net.AddNode("edge");
  const NodeId c = net.AddNode("cloud");
  LinkConfig wifi;
  wifi.bandwidth = Bandwidth::Mbps(80);  // 10 bytes/us
  wifi.propagation = Duration::Millis(2);
  LinkConfig wan;
  wan.bandwidth = Bandwidth::Mbps(8);  // 1 byte/us
  wan.propagation = Duration::Millis(20);
  net.Connect(m, e, wifi);
  net.Connect(e, c, wan);

  SimTime arrival;
  net.SetHandler(e,
                 [&](NodeId, Frame p, Frame) { net.Send(e, c, std::move(p)); });
  net.SetHandler(c, [&](NodeId, Frame, Frame) { arrival = sched.now(); });
  net.Send(m, e, DeterministicBytes(10'000, 1));
  sched.Run();
  // 10k bytes: 1 ms on wifi + 2 ms prop + 10 ms on wan + 20 ms prop.
  EXPECT_EQ(arrival.micros(), 33'000);
}

TEST(NetworkTest, NodeNamesRetained) {
  EventScheduler sched;
  Network net(sched);
  const NodeId a = net.AddNode("mobile");
  EXPECT_EQ(net.NodeName(a), "mobile");
  EXPECT_EQ(net.node_count(), 1u);
}

// ---------------------------------------------------------------------------
// Loss seams: forced drops, link down, scatter-gather sends
// ---------------------------------------------------------------------------

TEST_F(LinkFixture, ForceDropNextKillsExactlyNFramesAtDeliveryTime) {
  Link link(sched, "seam", LinkConfig{});
  link.ForceDropNext(2);
  int delivered = 0, dropped = 0;
  DropReason reason = DropReason::kQueueOverflow;
  for (int i = 0; i < 4; ++i) {
    link.Send(DeterministicBytes(64, i), [&](Frame) { ++delivered; },
              [&](DropReason r, Frame) {
                ++dropped;
                reason = r;
              });
  }
  sched.Run();
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(reason, DropReason::kForced);
  // Forced drops still consumed serialization slots (the wire carried
  // the bytes; the receiver lost them).
  EXPECT_EQ(link.stats().frames_sent, 4u);
}

TEST_F(LinkFixture, ForceDropDoesNotPerturbTheLossRngSequence) {
  // The seam's contract: injecting a forced drop never shifts which of
  // the surrounding frames the Bernoulli process kills, so a test can
  // target frame k without re-deriving the whole loss pattern.
  LinkConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.seed = 99;
  const auto run = [&](bool inject) {
    Link link(sched, "seq", cfg);
    std::vector<bool> outcome;
    std::vector<bool> forced;
    for (int i = 0; i < 40; ++i) {
      if (inject && i == 7) link.ForceDropNext();
      const std::size_t slot = outcome.size();
      outcome.push_back(false);
      forced.push_back(false);
      link.Send(DeterministicBytes(16, i),
                [&outcome, slot](Frame) { outcome[slot] = true; },
                [&forced, slot](DropReason r, Frame) {
                  forced[slot] = r == DropReason::kForced;
                });
    }
    sched.Run();
    return std::pair{outcome, forced};
  };
  const auto [base, base_forced] = run(false);
  const auto [injected, injected_forced] = run(true);
  EXPECT_TRUE(injected_forced[7]);
  for (int i = 0; i < 40; ++i) {
    if (i == 7) continue;
    EXPECT_EQ(base[i], injected[i]) << "frame " << i;
  }
}

TEST_F(LinkFixture, SetDownDropsEverythingUntilBroughtBackUp) {
  Link link(sched, "crash", LinkConfig{});
  int delivered = 0, dropped = 0;
  const auto send = [&] {
    link.Send(DeterministicBytes(32, 1), [&](Frame) { ++delivered; },
              [&](DropReason r, Frame) {
                EXPECT_EQ(r, DropReason::kLinkDown);
                ++dropped;
              });
  };
  link.SetDown(true);
  EXPECT_TRUE(link.down());
  send();
  send();
  sched.Run();
  EXPECT_EQ(dropped, 2);
  link.SetDown(false);
  send();
  sched.Run();
  EXPECT_EQ(delivered, 1);
  // Outage drops are attributed separately from wire loss: they land in
  // frames_dropped_down (a subset of frames_dropped_loss), so snapshots
  // can tell "the link was down" apart from "the wire ate it".
  EXPECT_EQ(link.stats().frames_dropped_down, 2u);
  EXPECT_EQ(link.stats().frames_dropped_loss, 2u);
}

TEST_F(LinkFixture, ForcedDropsAreNotCountedAsDownDrops) {
  Link link(sched, "seam", LinkConfig{});
  link.ForceDropNext(1);
  int dropped = 0;
  link.Send(DeterministicBytes(32, 1), [](Frame) {},
            [&](DropReason r, Frame) {
              EXPECT_EQ(r, DropReason::kForced);
              ++dropped;
            });
  sched.Run();
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(link.stats().frames_dropped_down, 0u);
}

// ---------------------------------------------------------------------------
// Gilbert–Elliott bursty loss
// ---------------------------------------------------------------------------

TEST_F(LinkFixture, BurstLossInBadStateKillsEveryFrame) {
  // Degenerate chain: transition to bad on the first frame and stay
  // there, losing everything — the deterministic corner that pins the
  // state machine without statistics.
  LinkConfig cfg;
  GilbertElliottConfig ge;
  ge.enabled = true;
  ge.good_to_bad = 1.0;
  ge.bad_to_good = 0.0;
  ge.good_loss_rate = 0.0;
  ge.bad_loss_rate = 1.0;
  cfg.burst_loss = ge;
  Link link(sched, "bursty", cfg);
  int delivered = 0, dropped = 0;
  for (int i = 0; i < 20; ++i) {
    link.Send(DeterministicBytes(16, i), [&](Frame) { ++delivered; },
              [&](DropReason r, Frame) {
                EXPECT_EQ(r, DropReason::kRandomLoss);
                ++dropped;
              });
  }
  sched.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped, 20);
  EXPECT_EQ(link.stats().frames_dropped_loss, 20u);
  EXPECT_EQ(link.stats().frames_dropped_down, 0u);  // loss, not outage
}

TEST_F(LinkFixture, SetBurstLossResetsTheChainToGood) {
  // Drive the chain into the permanent bad state, then reconfigure: the
  // chaos engine's end-of-burst SetBurstLoss must start the next window
  // from good regardless of where the last one left the chain.
  LinkConfig cfg;
  GilbertElliottConfig sticky_bad;
  sticky_bad.enabled = true;
  sticky_bad.good_to_bad = 1.0;
  sticky_bad.bad_loss_rate = 1.0;
  cfg.burst_loss = sticky_bad;
  Link link(sched, "bursty", cfg);
  int delivered = 0;
  link.Send(DeterministicBytes(16, 0), [&](Frame) { ++delivered; });
  sched.Run();
  EXPECT_EQ(delivered, 0);  // chain went bad, frame lost

  // Same model but with no way to leave good: only the reset can save
  // the next frames.
  GilbertElliottConfig harmless = sticky_bad;
  harmless.good_to_bad = 0.0;
  link.SetBurstLoss(harmless);
  for (int i = 0; i < 10; ++i) {
    link.Send(DeterministicBytes(16, i), [&](Frame) { ++delivered; });
  }
  sched.Run();
  EXPECT_EQ(delivered, 10);

  // And SetBurstLoss({}) restores pure Bernoulli (here: lossless).
  link.SetBurstLoss(GilbertElliottConfig{});
  link.Send(DeterministicBytes(16, 0), [&](Frame) { ++delivered; });
  sched.Run();
  EXPECT_EQ(delivered, 11);
}

TEST_F(LinkFixture, BurstLossReplaysBitIdenticallyPerSeed) {
  LinkConfig cfg;
  cfg.seed = 424242;
  GilbertElliottConfig ge;
  ge.enabled = true;
  ge.good_to_bad = 0.1;
  ge.bad_to_good = 0.3;
  ge.bad_loss_rate = 0.6;
  cfg.burst_loss = ge;
  const auto run = [&] {
    Link link(sched, "bursty", cfg);
    std::vector<bool> outcome;
    for (int i = 0; i < 300; ++i) {
      const std::size_t slot = outcome.size();
      outcome.push_back(false);
      link.Send(DeterministicBytes(16, i),
                [&outcome, slot](Frame) { outcome[slot] = true; },
                [](DropReason, Frame) {});
    }
    sched.Run();
    return outcome;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // And the model actually lost something at these rates.
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(LinkFixture, GatherSendDeliversBothSegmentsUnfusedWithOneLossDraw) {
  // Head + tail travel as one frame (one serialization slot, one loss
  // draw) and reach the receiver as the sender's own two buffers: the
  // delivery path joins nothing and copies nothing.
  Link link(sched, "gather", LinkConfig{});
  const Frame head(DeterministicBytes(24, 1));
  const Frame tail(DeterministicBytes(4096, 2));
  const std::uint64_t copies_before = frame_stats().copies();
  const std::uint64_t fused_before = frame_stats().fused_bytes();
  Frame got_head, got_tail;
  link.SendGather(head, tail, [&](Frame h, Frame t) {
    got_head = std::move(h);
    got_tail = std::move(t);
  });
  sched.Run();
  EXPECT_TRUE(got_head.SharesBufferWith(head));
  EXPECT_TRUE(got_tail.SharesBufferWith(tail));
  EXPECT_EQ(got_head.size(), head.size());
  EXPECT_EQ(got_tail.size(), tail.size());
  EXPECT_EQ(link.stats().frames_sent, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, head.size() + tail.size());
  EXPECT_EQ(frame_stats().copies(), copies_before);
  EXPECT_EQ(frame_stats().fused_bytes(), fused_before);
}

TEST_F(LinkFixture, GatherSendDropHandsBackOneCountedFuse) {
  // A dropped gather goes back to its sender whole, as DropFn promises:
  // the one place a Link still joins the pair, counted as a gather fuse
  // (never as a frame copy).
  Link link(sched, "gather", LinkConfig{});
  const Frame head(DeterministicBytes(16, 1));
  const Frame tail(DeterministicBytes(1024, 2));
  const std::uint64_t copies_before = frame_stats().copies();
  const std::uint64_t fuses_before = frame_stats().fuses();
  const std::uint64_t fused_before = frame_stats().fused_bytes();
  link.ForceDropNext();
  Frame dropped;
  link.SendGather(
      head, tail, [](Frame, Frame) { FAIL() << "forced drop delivered"; },
      [&](DropReason reason, Frame whole) {
        EXPECT_EQ(reason, DropReason::kForced);
        dropped = std::move(whole);
      });
  sched.Run();
  ASSERT_EQ(dropped.size(), head.size() + tail.size());
  EXPECT_TRUE(std::equal(head.span().begin(), head.span().end(),
                         dropped.span().begin()));
  EXPECT_TRUE(std::equal(tail.span().begin(), tail.span().end(),
                         dropped.span().begin() +
                             static_cast<std::ptrdiff_t>(head.size())));
  EXPECT_EQ(frame_stats().fuses(), fuses_before + 1);
  EXPECT_EQ(frame_stats().fused_bytes(),
            fused_before + head.size() + tail.size());
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(NetworkTest, GatherReachesTheHandlerAsTheSendersTwoBuffers) {
  EventScheduler sched;
  Network net(sched);
  const NodeId edge = net.AddNode("edge");
  const NodeId client = net.AddNode("client");
  net.Connect(edge, client, LinkConfig{});
  const Frame head(DeterministicBytes(32, 3));
  const Frame tail(DeterministicBytes(64 * 1024, 4));
  Frame got_head, got_tail;
  net.SetHandler(client, [&](NodeId from, Frame h, Frame t) {
    EXPECT_EQ(from, edge);
    got_head = std::move(h);
    got_tail = std::move(t);
  });
  const std::uint64_t fused_before = frame_stats().fused_bytes();
  net.SendGather(edge, client, head, tail);
  sched.Run();
  EXPECT_TRUE(got_head.SharesBufferWith(head));
  EXPECT_TRUE(got_tail.SharesBufferWith(tail));
  EXPECT_EQ(frame_stats().fused_bytes(), fused_before);

  // A plain send on the same pair arrives with an empty tail.
  net.Send(edge, client, Frame(DeterministicBytes(8, 5)));
  sched.Run();
  EXPECT_EQ(got_head.size(), 8u);
  EXPECT_TRUE(got_tail.empty());
}

// ---------------------------------------------------------------------------
// Datagram mode: fragmentation, reassembly, loss semantics
// ---------------------------------------------------------------------------

struct DatagramFixture : ::testing::Test {
  EventScheduler sched;
  Network net{sched};
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  // Messages b received, in order, and when. Copied out through the
  // span, not CloneBytes, so frame_stats() sees only the network's own
  // copies.
  std::vector<ByteVec> got;
  std::vector<SimTime> got_at;
  int drops = 0;

  void SetUp() override {
    net.Connect(a, b, LinkConfig{});
    net.EnableDatagram(1024);
    net.SetHandler(b, [this](NodeId, Frame f, Frame tail) {
      got.emplace_back(f.span().begin(), f.span().end());
      got.back().insert(got.back().end(), tail.span().begin(),
                        tail.span().end());
      got_at.push_back(sched.now());
    });
  }

  Link::DropFn CountDrops() {
    return [this](DropReason, Frame) { ++drops; };
  }

  /// Hands `a` a NACK for train `seq` of the a->b pair, as b's shard
  /// would deliver it.
  void InjectNack(std::uint64_t seq, std::vector<std::uint16_t> missing) {
    proto::DatagramNack nack;
    nack.missing = std::move(missing);
    net.DeliverRemote(
        b, a, proto::EncodeMessage(proto::MessageType::kDatagramNack, seq, nack));
  }
};

TEST_F(DatagramFixture, LargeFramesFragmentAndReassembleByteIdentical) {
  const ByteVec payload = DeterministicBytes(5000, 7);
  net.Send(a, b, ByteVec(payload));
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(net.datagram_stats().messages_fragmented, 1u);
  EXPECT_EQ(net.datagram_stats().chunks_sent, 5u);  // ceil(5000 / 1024)
  EXPECT_EQ(net.datagram_stats().messages_reassembled, 1u);
  EXPECT_EQ(net.datagram_stats().nacks_sent, 0u);
}

TEST_F(DatagramFixture, SmallFramesRideUnfragmented) {
  const ByteVec payload = DeterministicBytes(512, 3);
  net.Send(a, b, ByteVec(payload));
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(net.datagram_stats().messages_fragmented, 0u);
  EXPECT_EQ(net.datagram_stats().chunks_sent, 0u);
}

TEST_F(DatagramFixture, LostMiddleChunkIsResentAloneAndDeliveredByteIdentical) {
  const ByteVec payload = DeterministicBytes(3000, 9);  // 3 chunks
  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/1, /*n=*/1);
  net.Send(a, b, ByteVec(payload), CountDrops());
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(drops, 0);
  const DatagramStats& s = net.datagram_stats();
  EXPECT_EQ(s.chunks_sent, 3u + 1u);  // the train plus the lost chunk
  EXPECT_EQ(s.chunks_retransmitted, 1u);
  EXPECT_EQ(s.nacks_sent, 1u);
  EXPECT_EQ(s.messages_reassembled, 1u);
  EXPECT_EQ(s.messages_recovered, 1u);
  EXPECT_EQ(s.partials_discarded, 0u);
}

TEST_F(DatagramFixture, LostFirstChunkIsNackedWhenTheSecondArrives) {
  const ByteVec payload = DeterministicBytes(3000, 10);
  net.LinkBetween(a, b).ForceDropNext(1);
  net.Send(a, b, ByteVec(payload), CountDrops());
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(drops, 0);
  EXPECT_EQ(net.datagram_stats().nacks_sent, 1u);
  EXPECT_EQ(net.datagram_stats().chunks_retransmitted, 1u);
  // The gap is NACKed on the spot: one round trip after the train, well
  // inside a single 2 ms propagation of slack.
  EXPECT_LT(got_at[0], SimTime::FromMicros(8'000));
}

TEST_F(DatagramFixture, LostLastChunkIsRecoveredByTheQuietTimer) {
  const ByteVec payload = DeterministicBytes(3000, 11);
  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/2, /*n=*/1);
  net.Send(a, b, ByteVec(payload), CountDrops());
  sched.Run();
  // Nothing follows the train, so only silence reveals the lost tail.
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(drops, 0);
  EXPECT_EQ(net.datagram_stats().nacks_sent, 1u);
  EXPECT_EQ(net.datagram_stats().messages_recovered, 1u);
  // Detected one chunk time after the tail was due, not after a
  // request-level timeout.
  EXPECT_LT(got_at[0], SimTime::FromMicros(8'000));
}

TEST_F(DatagramFixture, LostNackIsRepeatedByTheQuietTimer) {
  const ByteVec payload = DeterministicBytes(3000, 12);
  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/1, /*n=*/1);
  net.LinkBetween(b, a).ForceDropNext(1);  // the gap NACK dies too
  net.Send(a, b, ByteVec(payload), CountDrops());
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(drops, 0);
  EXPECT_EQ(net.datagram_stats().nacks_sent, 2u);
  EXPECT_EQ(net.datagram_stats().chunks_retransmitted, 1u);
}

TEST_F(DatagramFixture, DuplicateResendIsIgnored) {
  const ByteVec payload = DeterministicBytes(3000, 13);
  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/2, /*n=*/1);  // lose the tail
  net.Send(a, b, ByteVec(payload));
  // Chunks 0 and 1 have landed (2 ms propagation + two 85 us chunks):
  // a stray NACK for chunk 0 makes the sender resend a chunk b holds.
  sched.RunUntil(SimTime::FromMicros(2'200));
  ASSERT_TRUE(got.empty());
  InjectNack(/*seq=*/1, {0});
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(net.datagram_stats().chunks_retransmitted, 2u);  // 0, then 2

  // A resend of a train b already delivered is a late copy: dropped, not
  // a second delivery and not a new partial.
  net.Send(a, b, ByteVec(payload));
  sched.RunUntil(sched.now() + Duration::Millis(5));
  ASSERT_EQ(got.size(), 2u);
  InjectNack(/*seq=*/2, {1});
  sched.Run();
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(net.datagram_stats().chunks_retransmitted, 3u);
  EXPECT_EQ(net.datagram_stats().messages_reassembled, 2u);
  EXPECT_EQ(net.datagram_stats().partials_discarded, 0u);
}

TEST_F(DatagramFixture, UnansweredNacksGiveUpAndReportTheDropOnce) {
  const ByteVec payload = DeterministicBytes(3000, 14);
  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/1, /*n=*/1);
  net.LinkBetween(b, a).ForceDropNext(100);  // every NACK dies
  std::size_t dropped_size = 0;
  net.Send(a, b, ByteVec(payload), [&](DropReason reason, Frame original) {
    ++drops;
    dropped_size = original.size();
    EXPECT_EQ(reason, DropReason::kForced);
  });
  sched.Run();
  EXPECT_TRUE(got.empty());
  const DatagramStats& s = net.datagram_stats();
  EXPECT_EQ(s.nacks_sent, 1u + Network::kMaxSilentRounds);
  EXPECT_EQ(s.chunks_retransmitted, 0u);
  EXPECT_EQ(s.partials_discarded, 1u);
  // The caller hears once, with the original unfragmented payload.
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(dropped_size, payload.size());

  // The given-up train does not wedge the pair.
  net.Send(a, b, ByteVec(payload));
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(drops, 1);
}

TEST_F(DatagramFixture, OverlappingTrainsOnOnePairRecoverIndependently) {
  const ByteVec first = DeterministicBytes(3000, 15);
  const ByteVec second = DeterministicBytes(2500, 16);
  // Chunks are admitted at Send time, so each drop targets one train:
  // the first loses its tail, the second its middle chunk.
  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/2, /*n=*/1);
  net.Send(a, b, ByteVec(first), CountDrops());
  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/1, /*n=*/1);
  net.Send(a, b, ByteVec(second), CountDrops());
  sched.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], first);
  EXPECT_EQ(got[1], second);
  EXPECT_EQ(drops, 0);
  // The second train's first chunk proves the first one's tail lost (the
  // link is FIFO), and its own gap is NACKed on arrival of chunk 2: two
  // NACKs, no timer round.
  EXPECT_EQ(net.datagram_stats().nacks_sent, 2u);
  EXPECT_EQ(net.datagram_stats().messages_recovered, 2u);
  EXPECT_EQ(net.datagram_stats().partials_discarded, 0u);
}

TEST_F(DatagramFixture, OpeningATrainBeyondTheCapAbandonsTheOldest) {
  net.LinkBetween(b, a).ForceDropNext(1000);  // no NACK ever reaches a
  for (std::size_t i = 0; i <= Network::kMaxOpenTrains; ++i) {
    net.LinkBetween(a, b).ForceDropAfter(/*skip=*/1, /*n=*/1);
    net.Send(a, b, DeterministicBytes(3000, 20 + i), CountDrops());
  }
  // Every chunk has landed (2 ms propagation + 27 chunks of 85 us) and no
  // quiet timer has expired yet: only the cap has given a train up.
  sched.RunUntil(SimTime::FromMicros(5'000));
  EXPECT_EQ(net.datagram_stats().partials_discarded, 1u);
  sched.Run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(net.datagram_stats().partials_discarded, Network::kMaxOpenTrains + 1);
  EXPECT_EQ(drops, static_cast<int>(Network::kMaxOpenTrains + 1));
}

TEST_F(DatagramFixture, GatherAboveMtuChunksFromBothSegments) {
  const Frame head(DeterministicBytes(40, 1));
  const Frame tail(DeterministicBytes(2000, 2));
  net.SendGather(a, b, head, tail);
  sched.Run();
  ByteVec expect(head.span().begin(), head.span().end());
  expect.insert(expect.end(), tail.span().begin(), tail.span().end());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expect);
  EXPECT_EQ(net.datagram_stats().messages_fragmented, 1u);
}

TEST_F(DatagramFixture, GivenUpGatherTrainHandsBackOneCountedFuse) {
  // A train that never arrives goes back to its sender whole; for a
  // gather send that means one fuse of the held segments, counted.
  const Frame head(DeterministicBytes(40, 5));
  const Frame tail(DeterministicBytes(3000, 6));
  const std::uint64_t fuses_before = frame_stats().fuses();
  const std::uint64_t fused_before = frame_stats().fused_bytes();
  net.LinkBetween(a, b).SetDown(true);
  Frame returned;
  net.SendGather(a, b, head, tail, [&](DropReason, Frame whole) {
    ++drops;
    returned = std::move(whole);
  });
  sched.Run();
  EXPECT_TRUE(got.empty());
  ASSERT_EQ(drops, 1);
  ByteVec expect(head.span().begin(), head.span().end());
  expect.insert(expect.end(), tail.span().begin(), tail.span().end());
  EXPECT_EQ(ByteVec(returned.span().begin(), returned.span().end()), expect);
  EXPECT_EQ(frame_stats().fuses(), fuses_before + 1);
  EXPECT_EQ(frame_stats().fused_bytes(), fused_before + expect.size());
}

/// Captures what a datagram receiver hands its handler, by reference.
struct Received {
  std::vector<std::pair<Frame, Frame>> frames;

  MessageHandler Handler() {
    return [this](NodeId, Frame f, Frame t) {
      frames.emplace_back(std::move(f), std::move(t));
    };
  }
};

ByteVec Joined(const Frame& head, const Frame& tail) {
  ByteVec bytes(head.span().begin(), head.span().end());
  bytes.insert(bytes.end(), tail.span().begin(), tail.span().end());
  return bytes;
}

TEST_F(DatagramFixture, PlainTrainReassemblesIntoTheSendersBuffer) {
  // Reassembly keeps each chunk's slice of the sender's frame and rejoins
  // them in place: the handler gets a frame viewing the sender's own
  // buffer, whole, with or without a lost-then-recovered chunk.
  for (const bool lose : {false, true}) {
    SCOPED_TRACE(lose ? "middle chunk lost" : "no loss");
    Received rx;
    net.SetHandler(b, rx.Handler());
    const Frame message(DeterministicBytes(5000, 31));
    if (lose) net.LinkBetween(a, b).ForceDropAfter(/*skip=*/2, /*n=*/1);
    const std::uint64_t copies_before = frame_stats().copies();
    const std::uint64_t fuses_before = frame_stats().fuses();
    net.Send(a, b, message);
    sched.Run();
    ASSERT_EQ(rx.frames.size(), 1u);
    const auto& [head, tail] = rx.frames[0];
    EXPECT_TRUE(head.SharesBufferWith(message));
    EXPECT_EQ(head.data(), message.data());
    EXPECT_EQ(head.size(), message.size());
    EXPECT_TRUE(tail.empty());
    EXPECT_EQ(frame_stats().copies(), copies_before);
    EXPECT_EQ(frame_stats().fuses(), fuses_before);
  }
  EXPECT_EQ(net.datagram_stats().messages_recovered, 1u);
}

TEST_F(DatagramFixture, GatherTrainReassemblesIntoTheSendersTwoBuffers) {
  // A 40-byte head makes chunk 0 straddle head and tail; every later
  // chunk is a tail slice. Reassembly hands back the two segments as
  // sent — also when the straddling chunk is the one lost and re-sent.
  for (const std::uint64_t lost : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{3}}) {
    SCOPED_TRACE(lost == 0 ? "no loss"
                           : "chunk lost: " + std::to_string(lost - 1));
    Received rx;
    net.SetHandler(b, rx.Handler());
    const Frame head(DeterministicBytes(40, 32));
    const Frame tail(DeterministicBytes(4000, 33));
    if (lost > 0) net.LinkBetween(a, b).ForceDropAfter(lost - 1, 1);
    const std::uint64_t copies_before = frame_stats().copies();
    const std::uint64_t fuses_before = frame_stats().fuses();
    net.SendGather(a, b, head, tail);
    sched.Run();
    ASSERT_EQ(rx.frames.size(), 1u);
    const auto& [got_head, got_tail] = rx.frames[0];
    EXPECT_TRUE(got_head.SharesBufferWith(head));
    EXPECT_TRUE(got_tail.SharesBufferWith(tail));
    EXPECT_EQ(got_head.size(), head.size());
    EXPECT_EQ(got_tail.data(), tail.data());
    EXPECT_EQ(got_tail.size(), tail.size());
    EXPECT_EQ(frame_stats().copies(), copies_before);
    EXPECT_EQ(frame_stats().fuses(), fuses_before);
  }
  EXPECT_EQ(net.datagram_stats().messages_recovered, 2u);
}

TEST(DatagramCrossShardTest, ChunksFromAnotherShardJoinInOneCountedFuse) {
  // Chunks crossing shards arrive as encoded frames of their own, so the
  // receiver joins them once — counted as a fuse, never as a copy — and
  // the bytes are the sender's, also after a lost chunk is recovered.
  for (const bool lose : {false, true}) {
    SCOPED_TRACE(lose ? "middle chunk lost" : "no loss");
    CrossShardPair pair(/*datagram=*/true);
    Received rx;
    pair.rx.SetHandler(pair.b, rx.Handler());
    const Frame head(DeterministicBytes(40, 34));
    const Frame tail(DeterministicBytes(3000, 35));
    if (lose) pair.tx.LinkBetween(pair.a, pair.b).ForceDropAfter(1, 1);
    const std::uint64_t copies_before = frame_stats().copies();
    const std::uint64_t fuses_before = frame_stats().fuses();
    const std::uint64_t fused_before = frame_stats().fused_bytes();
    pair.tx.SendGather(pair.a, pair.b, head, tail);
    pair.sched.Run();
    ASSERT_EQ(rx.frames.size(), 1u);
    EXPECT_TRUE(rx.frames[0].second.empty());
    EXPECT_EQ(Joined(rx.frames[0].first, Frame()), Joined(head, tail));
    EXPECT_EQ(frame_stats().fuses(), fuses_before + 1);
    EXPECT_EQ(frame_stats().fused_bytes(),
              fused_before + head.size() + tail.size());
    EXPECT_EQ(frame_stats().copies(), copies_before);
    EXPECT_EQ(pair.rx.datagram_stats().messages_recovered, lose ? 1u : 0u);
  }
}

TEST_F(DatagramFixture, RecoveryResendsFromTheSharedFrameWithoutCopies) {
  const Frame head(DeterministicBytes(40, 3));
  const Frame tail(DeterministicBytes(5000, 4));
  ByteVec expect(head.span().begin(), head.span().end());
  expect.insert(expect.end(), tail.span().begin(), tail.span().end());
  const std::uint64_t copies_before = frame_stats().copies();

  net.LinkBetween(a, b).ForceDropAfter(/*skip=*/1, /*n=*/2);
  net.SendGather(a, b, head, tail, CountDrops());
  // The train holds the caller's buffer itself (shared, not copied)...
  EXPECT_GT(tail.use_count(), 1);
  sched.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expect);
  EXPECT_EQ(net.datagram_stats().messages_recovered, 1u);
  EXPECT_EQ(net.datagram_stats().chunks_retransmitted, 2u);
  EXPECT_EQ(frame_stats().copies(), copies_before);
  // ...and lets go of it once the recovery window closes.
  EXPECT_EQ(tail.use_count(), 1);
}

TEST(NetworkSeedTest, SharedLinkConfigLossDrawsAreDecorrelatedPerLink) {
  // Eight spokes stamped from one lossy LinkConfig must not drop the
  // same frame indices in lockstep — a broadcast round would otherwise
  // lose all or none of its probes together.
  EventScheduler sched;
  Network net(sched);
  const NodeId hub = net.AddNode("hub");
  LinkConfig lossy;
  lossy.loss_rate = 0.3;
  std::vector<NodeId> peers;
  for (int i = 0; i < 8; ++i) {
    peers.push_back(net.AddNode("p" + std::to_string(i)));
    net.Connect(hub, peers.back(), lossy);
    net.SetHandler(peers.back(), [](NodeId, Frame, Frame) {});
  }
  std::vector<std::vector<bool>> dropped(8, std::vector<bool>(64, false));
  for (int round = 0; round < 64; ++round) {
    for (int i = 0; i < 8; ++i) {
      net.Send(hub, peers[i], DeterministicBytes(16, round),
               [&dropped, i, round](DropReason, Frame) {
                 dropped[i][round] = true;
               });
    }
  }
  sched.Run();
  bool all_identical = true;
  for (int i = 1; i < 8; ++i) all_identical &= dropped[i] == dropped[0];
  EXPECT_FALSE(all_identical) << "links share one loss sequence";
}

// ---------------------------------------------------------------------------
// ChaosEngine — declarative fault schedules over a hand-rolled binding
// ---------------------------------------------------------------------------

TEST(ChaosEngineTest, CrashScheduleTogglesLinksWipesCacheAndRecords) {
  EventScheduler sched;
  Link wifi(sched, "wifi", LinkConfig{});
  Link wan(sched, "wan", LinkConfig{});
  obs::MetricsRegistry metrics;
  obs::RequestTracer tracer(obs::TraceConfig{});
  int wipes = 0;

  ChaosBinding binding;
  binding.venue_links = [&](std::uint32_t venue,
                            const ChaosBinding::LinkVisitor& visit) {
    EXPECT_EQ(venue, 2u);
    visit(wifi);
    visit(wan);
  };
  binding.wipe_cache = [&](std::uint32_t venue) {
    EXPECT_EQ(venue, 2u);
    ++wipes;
  };

  ChaosEngine chaos(sched, std::move(binding), &metrics, &tracer);
  FaultSchedule schedule;
  FaultSchedule::Crash crash;
  crash.venue = 2;
  crash.down_at = SimTime::FromMicros(1'000);
  crash.up_at = SimTime::FromMicros(3'000);
  crash.wipe_cache = true;
  schedule.crashes.push_back(crash);
  chaos.Apply(schedule);

  sched.RunUntil(SimTime::FromMicros(2'000));
  EXPECT_TRUE(wifi.down());
  EXPECT_TRUE(wan.down());
  EXPECT_EQ(wipes, 0);  // wipe happens at restart, not at crash

  sched.RunUntil(SimTime::FromMicros(4'000));
  EXPECT_FALSE(wifi.down());
  EXPECT_FALSE(wan.down());
  EXPECT_EQ(wipes, 1);

  EXPECT_EQ(chaos.events_fired(), 3u);  // crash + wipe + restart
  EXPECT_EQ(metrics.GetCounter("fault.crashes").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("fault.cache_wipes").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("fault.restarts").value(), 1u);
  // Marks land as global instants on the id-0 timeline.
  const auto marks = tracer.AnnotationsFor(0);
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], "fault-crash");
  EXPECT_EQ(marks[1], "fault-cache-wipe");
  EXPECT_EQ(marks[2], "fault-restart");
}

TEST(ChaosEngineTest, LossBurstWindowSwapsTheModelInAndOut) {
  EventScheduler sched;
  Link link(sched, "wire", LinkConfig{});
  ChaosBinding binding;
  binding.all_links = [&](const ChaosBinding::LinkVisitor& visit) {
    visit(link);
  };
  ChaosEngine chaos(sched, std::move(binding), nullptr, nullptr);

  FaultSchedule schedule;
  FaultSchedule::LossBurst burst;
  burst.at = SimTime::FromMicros(1'000);
  burst.end_at = SimTime::FromMicros(2'000);
  burst.model.good_to_bad = 1.0;
  burst.model.bad_loss_rate = 1.0;
  schedule.loss_bursts.push_back(burst);
  chaos.Apply(schedule);

  EXPECT_FALSE(link.config().burst_loss.enabled);
  sched.RunUntil(SimTime::FromMicros(1'500));
  EXPECT_TRUE(link.config().burst_loss.enabled);
  EXPECT_EQ(link.config().burst_loss.bad_loss_rate, 1.0);
  sched.RunUntil(SimTime::FromMicros(2'500));
  EXPECT_FALSE(link.config().burst_loss.enabled);
  EXPECT_EQ(chaos.events_fired(), 2u);
}

TEST(ChaosEngineTest, PartitionCutsOnlyTheCrossingLinks) {
  EventScheduler sched;
  Link crossing(sched, "cross", LinkConfig{});
  Link inside(sched, "inside", LinkConfig{});
  ChaosBinding binding;
  binding.cut_links = [&](const std::vector<std::uint32_t>& island,
                          const ChaosBinding::LinkVisitor& visit) {
    EXPECT_EQ(island, (std::vector<std::uint32_t>{2, 3}));
    visit(crossing);  // deliberately never visits `inside`
  };
  ChaosEngine chaos(sched, std::move(binding), nullptr, nullptr);

  FaultSchedule schedule;
  FaultSchedule::Partition part;
  part.island = {2, 3};
  part.at = SimTime::FromMicros(1'000);
  part.heal_at = SimTime::FromMicros(2'000);
  schedule.partitions.push_back(part);
  chaos.Apply(schedule);

  sched.RunUntil(SimTime::FromMicros(1'500));
  EXPECT_TRUE(crossing.down());
  EXPECT_FALSE(inside.down());
  sched.RunUntil(SimTime::FromMicros(2'500));
  EXPECT_FALSE(crossing.down());
  EXPECT_EQ(chaos.events_fired(), 2u);
}

}  // namespace
}  // namespace coic::netsim
