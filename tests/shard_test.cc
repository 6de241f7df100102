// Sharded multi-core engine tests, plus regression coverage for the
// single-thread assumptions the sharding sweep fixed:
//   * SPSC queue ordering across real threads;
//   * RetryConfig::TimeoutForAttempt overflow clamp (deep attempts with
//     an Infinite cap used to overflow the double->int64 cast);
//   * EventScheduler watermark compaction (per-event state stays bounded
//     across soak-length runs) and the shard-ownership CHECK;
//   * datagram partials flushed when a link goes down mid-train;
//   * deterministic sharded execution: bit-identical to the
//     single-thread engine, replay-stable run over run;
//   * fast mode: aggregate conservation under a cross-shard storm.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/cost_model.h"
#include "core/retry.h"
#include "federation/federation_pipeline.h"
#include "netsim/chaos.h"
#include "netsim/link.h"
#include "netsim/network.h"
#include "netsim/scheduler.h"
#include "netsim/spsc_queue.h"
#include "obs/metrics.h"
#include "trace/workload.h"

namespace coic {
namespace {

using core::NetworkCondition;
using proto::ResultSource;

// ---------------------------------------------------------------------------
// SPSC queue
// ---------------------------------------------------------------------------

TEST(SpscQueue, PreservesOrderAcrossThreads) {
  constexpr std::uint64_t kItems = 100'000;
  netsim::SpscQueue<std::uint64_t> queue;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) queue.Push(i);
  });
  std::uint64_t expected = 0;
  while (expected < kItems) {
    std::uint64_t value;
    if (queue.Pop(value)) {
      ASSERT_EQ(value, expected);
      ++expected;
    }
  }
  producer.join();
  std::uint64_t leftover;
  EXPECT_FALSE(queue.Pop(leftover));
}

// ---------------------------------------------------------------------------
// RetryConfig::TimeoutForAttempt overflow clamp
// ---------------------------------------------------------------------------

TEST(RetryTimeout, DeepAttemptWithInfiniteCapClampsToInfinite) {
  core::RetryConfig retry;
  retry.timeout = Duration::Millis(100);
  retry.backoff = 2.0;
  retry.max_timeout = Duration::Infinite();
  // 100 ms * 2^80 is far beyond int64 microseconds; before the clamp the
  // double->int64 cast was UB. The clamp must saturate to Infinite.
  EXPECT_EQ(retry.TimeoutForAttempt(80), Duration::Infinite());
  // Shallow attempts are still the exact exponential.
  EXPECT_EQ(retry.TimeoutForAttempt(0), Duration::Millis(100));
  EXPECT_EQ(retry.TimeoutForAttempt(3), Duration::Millis(800));
}

TEST(RetryTimeout, FiniteCapStillWins) {
  core::RetryConfig retry;
  retry.timeout = Duration::Millis(100);
  retry.backoff = 2.0;
  retry.max_timeout = Duration::Millis(400);
  EXPECT_EQ(retry.TimeoutForAttempt(1), Duration::Millis(200));
  EXPECT_EQ(retry.TimeoutForAttempt(80), Duration::Millis(400));
}

TEST(RetryTimeout, NonFiniteProductClampsToInfinite) {
  core::RetryConfig retry;
  retry.timeout = Duration::Millis(100);
  retry.backoff = 1e308;  // product overflows double to +inf
  retry.max_timeout = Duration::Infinite();
  EXPECT_EQ(retry.TimeoutForAttempt(2), Duration::Infinite());
}

// ---------------------------------------------------------------------------
// EventScheduler: watermark compaction + shard-ownership CHECK
// ---------------------------------------------------------------------------

TEST(SchedulerCompaction, StateStaysBoundedAcrossMillionsOfEvents) {
  netsim::EventScheduler sched;
  constexpr std::uint64_t kEvents = 1'000'000;
  std::uint64_t fired = 0;
  std::function<void()> step = [&] {
    if (++fired < kEvents) sched.ScheduleAfter(Duration::Micros(1), step);
  };
  sched.ScheduleAfter(Duration::Micros(1), step);
  sched.Run();
  EXPECT_EQ(fired, kEvents);
  EXPECT_GT(sched.compactions(), 0u);
  // Without compaction the per-event state vector holds one byte per id
  // ever issued (~1 MB here); the watermark keeps it in the ~100 KB
  // range no matter how many events a soak schedules.
  EXPECT_LT(sched.state_bytes(), 256u * 1024);
}

TEST(SchedulerCompaction, CancellationSurvivesCompaction) {
  netsim::EventScheduler sched;
  // Interleave short-lived events with a long-lived cancellable one so
  // a compaction happens while the cancelled slot is still live.
  std::uint64_t fired = 0;
  constexpr std::uint64_t kEvents = 300'000;
  const netsim::EventId doomed =
      sched.ScheduleAt(SimTime::FromMicros(2 * kEvents), [&] { fired += 1000; });
  std::function<void()> step = [&] {
    if (++fired < kEvents) sched.ScheduleAfter(Duration::Micros(1), step);
  };
  sched.ScheduleAfter(Duration::Micros(1), step);
  sched.Cancel(doomed);
  sched.Run();
  EXPECT_EQ(fired, kEvents);  // the cancelled event never ran
  EXPECT_GT(sched.compactions(), 0u);
}

using SchedulerOwnershipDeathTest = ::testing::Test;

TEST(SchedulerOwnershipDeathTest, ScheduleOffOwnerThreadAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  netsim::EventScheduler sched;
  sched.BindOwnerThread();
  EXPECT_DEATH(
      {
        std::thread intruder(
            [&] { sched.ScheduleAfter(Duration::Micros(1), [] {}); });
        intruder.join();
      },
      "owning shard thread");
}

TEST(SchedulerOwnershipDeathTest, CancelOffOwnerThreadAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  netsim::EventScheduler sched;
  const netsim::EventId id = sched.ScheduleAfter(Duration::Micros(1), [] {});
  sched.BindOwnerThread();
  EXPECT_DEATH(
      {
        std::thread intruder([&] { sched.Cancel(id); });
        intruder.join();
      },
      "owning shard thread");
}

TEST(SchedulerOwnership, ClearOwnerThreadDisarmsTheCheck) {
  netsim::EventScheduler sched;
  sched.BindOwnerThread();
  sched.ClearOwnerThread();
  bool ran = false;
  std::thread other([&] {
    sched.ScheduleAfter(Duration::Micros(1), [&] { ran = true; });
  });
  other.join();
  sched.Run();
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------------------
// Datagram partials flushed on link-down
// ---------------------------------------------------------------------------

TEST(DatagramLinkDown, MidTrainCutDiscardsThePartial) {
  netsim::EventScheduler sched;
  netsim::Network net(sched);
  const netsim::NodeId a = net.AddNode("a");
  const netsim::NodeId b = net.AddNode("b");
  netsim::LinkConfig slow;
  slow.bandwidth = Bandwidth::Mbps(1);  // ~8.2 ms serialization per chunk
  slow.propagation = Duration::Millis(2);
  net.Connect(a, b, slow);
  net.EnableDatagram(1024);

  std::uint64_t delivered = 0;
  net.SetHandler(b, [&](netsim::NodeId, Frame, Frame) { ++delivered; });
  net.Send(a, b, Frame(ByteVec(10 * 1024)));  // 10-chunk train
  // Cut the link while the train is mid-flight: a few chunks have
  // landed at b, the rest never will. The flush must fire immediately —
  // a crashed pair may never send the "next message" that used to be
  // the only partial-eviction trigger.
  sched.ScheduleAt(SimTime::FromMicros(30'000),
                   [&] { net.LinkBetween(a, b).SetDown(true); });
  sched.Run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.datagram_stats().messages_reassembled, 0u);
  EXPECT_EQ(net.datagram_stats().partials_discarded, 1u);

  // Heal and resend: the discarded partial must not pollute the fresh
  // train (no stale chunks, no double-count).
  net.LinkBetween(a, b).SetDown(false);
  net.Send(a, b, Frame(ByteVec(10 * 1024)));
  sched.Run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net.datagram_stats().messages_reassembled, 1u);
  EXPECT_EQ(net.datagram_stats().partials_discarded, 1u);
}

TEST(DatagramLinkDown, CleanLinkStateDiscardsNothing) {
  netsim::EventScheduler sched;
  netsim::Network net(sched);
  const netsim::NodeId a = net.AddNode("a");
  const netsim::NodeId b = net.AddNode("b");
  net.Connect(a, b, netsim::LinkConfig{});
  net.EnableDatagram(1024);
  std::uint64_t delivered = 0;
  net.SetHandler(b, [&](netsim::NodeId, Frame, Frame) { ++delivered; });
  net.Send(a, b, Frame(ByteVec(10 * 1024)));
  sched.Run();
  // Cycling the link after the train completed must not invent a
  // discard: there is no partial to flush.
  net.LinkBetween(a, b).SetDown(true);
  net.LinkBetween(a, b).SetDown(false);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net.datagram_stats().partials_discarded, 0u);
}

// ---------------------------------------------------------------------------
// Sharded execution: determinism and parity
// ---------------------------------------------------------------------------

using Row = std::tuple<std::uint32_t, proto::TaskKind, ResultSource, bool,
                       std::int64_t, std::int64_t>;

struct StormResult {
  std::vector<Row> rows;  // canonical (completed_at, venue) order
  std::uint64_t faults = 0;
  /// Datagram recovery tallies (nacks, retransmitted chunks, recovered
  /// messages), summed over shards: chunk trains and their NACKs cross
  /// shards as frames, so these must match the single-thread engine too.
  std::array<std::uint64_t, 3> recovery{};
  std::size_t shards = 0;
  federation::OpenLoopStats stats;
};

// One chaos-laden cross-shard storm: 4 venues, summary-directed peer
// routing (edge-to-edge traffic crosses shards), lossy transport, a
// crash and a loss burst. Mirrors the single-thread replay-determinism
// e2e scenario so parity against workers == 1 is meaningful.
StormResult RunStorm(std::uint32_t workers,
                     federation::ExecutionConfig::Mode mode =
                         federation::ExecutionConfig::Mode::kDeterministic) {
  federation::FederationPipelineConfig config;
  config.venues = 4;
  config.mobiles_per_venue = 2;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(50);
  config.network = NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  config.transport = federation::FederationTransportConfig::Lossy(0.01);
  config.transport.edge_max_pending = 32;
  config.transport.breaker_failure_threshold = 4;
  config.transport.client_deadline = Duration::Millis(2500);
  config.transport.client_local_fallback = true;
  config.execution.workers = workers;
  config.execution.mode = mode;

  netsim::FaultSchedule::Crash crash;
  crash.venue = 1;
  crash.down_at = SimTime::FromMicros(300'000);
  crash.up_at = SimTime::FromMicros(700'000);
  crash.wipe_cache = true;
  config.chaos.crashes.push_back(crash);
  netsim::FaultSchedule::LossBurst burst;
  burst.at = SimTime::FromMicros(900'000);
  burst.end_at = SimTime::FromMicros(1'300'000);
  burst.model.good_to_bad = 0.1;
  burst.model.bad_to_good = 0.3;
  burst.model.bad_loss_rate = 0.4;
  config.chaos.loss_bursts.push_back(burst);

  federation::FederationPipeline pipeline(config);
  for (std::uint64_t m = 1; m <= 6; ++m) pipeline.RegisterModel(m, KB(64));
  trace::ClusterWorkloadConfig wl;
  wl.venues = 4;
  trace::ClusterWorkloadGenerator gen(wl);
  const std::vector<std::uint64_t> models = {1, 2, 3, 4, 5, 6};
  auto placed = gen.GenerateMixed(200, models, 7);
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), 150.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);

  StormResult result;
  for (const auto& o : pipeline.RunOpenLoop()) {
    result.rows.emplace_back(o.venue, o.outcome.task, o.outcome.source,
                             o.outcome.error, o.outcome.latency.micros(),
                             (o.completed_at - SimTime::Epoch()).micros());
  }
  // Sharded runs return outcomes in canonical (completed_at, venue)
  // order; impose the same order on the single-thread completion stream
  // so the comparison is engine-independent. stable_sort keeps each
  // venue's causal completion order as the tiebreak on both sides.
  std::stable_sort(result.rows.begin(), result.rows.end(),
                   [](const Row& x, const Row& y) {
                     if (std::get<5>(x) != std::get<5>(y))
                       return std::get<5>(x) < std::get<5>(y);
                     return std::get<0>(x) < std::get<0>(y);
                   });
  result.faults = pipeline.chaos_events_fired();
  const obs::MetricsSnapshot metrics = pipeline.MergedMetricsSnapshot();
  result.recovery = {metrics.value("net.datagram.nacks_sent"),
                     metrics.value("net.datagram.chunks_retransmitted"),
                     metrics.value("net.datagram.messages_recovered")};
  result.shards = pipeline.shard_count();
  result.stats = pipeline.open_loop_stats();
  return result;
}

TEST(ShardedEngine, DeterministicModeMatchesSingleThreadBitForBit) {
  const StormResult single = RunStorm(1);
  ASSERT_EQ(single.shards, 1u);
  ASSERT_EQ(single.rows.size(), 200u);
  EXPECT_EQ(single.faults, 5u);  // crash + wipe + restart + burst + end
  EXPECT_GT(single.recovery[0], 0u) << "the storm never exercised a NACK";

  for (const std::uint32_t workers : {2u, 4u}) {
    const StormResult sharded = RunStorm(workers);
    ASSERT_EQ(sharded.shards, workers);
    EXPECT_EQ(sharded.faults, single.faults) << workers << " workers";
    EXPECT_EQ(sharded.recovery, single.recovery) << workers << " workers";
    ASSERT_EQ(sharded.rows.size(), single.rows.size()) << workers
                                                       << " workers";
    for (std::size_t i = 0; i < single.rows.size(); ++i) {
      ASSERT_EQ(sharded.rows[i], single.rows[i])
          << "outcome " << i << " diverged at " << workers << " workers";
    }
    EXPECT_GT(sharded.stats.sync_windows, 0u);
    EXPECT_GT(sharded.stats.cross_shard_messages, 0u);
  }
}

TEST(ShardedEngine, DeterministicTwinRunsReplayIdentically) {
  const StormResult first = RunStorm(3);
  const StormResult second = RunStorm(3);
  ASSERT_EQ(first.shards, 3u);
  EXPECT_EQ(first.faults, second.faults);
  ASSERT_EQ(first.rows.size(), second.rows.size());
  for (std::size_t i = 0; i < first.rows.size(); ++i) {
    ASSERT_EQ(first.rows[i], second.rows[i]) << "outcome " << i;
  }
}

TEST(ShardedEngine, FastModePreservesAggregateInvariants) {
  const StormResult fast =
      RunStorm(4, federation::ExecutionConfig::Mode::kFast);
  ASSERT_EQ(fast.shards, 4u);
  // Every operation completes exactly once (conservation), faults all
  // fire; per-request latencies may shift by up to one window, so only
  // aggregates are pinned.
  EXPECT_EQ(fast.rows.size(), 200u);
  EXPECT_EQ(fast.stats.operations, 200u);
  EXPECT_EQ(fast.faults, 5u);
  EXPECT_GT(fast.stats.sync_windows, 0u);
  EXPECT_GT(fast.stats.cross_shard_messages, 0u);
  ASSERT_EQ(fast.stats.per_worker_events_fired.size(), 4u);
  const std::uint64_t summed =
      std::accumulate(fast.stats.per_worker_events_fired.begin(),
                      fast.stats.per_worker_events_fired.end(),
                      std::uint64_t{0});
  EXPECT_EQ(summed, fast.stats.events_fired);
}

TEST(ShardedEngine, WorkerCountClampsToVenues) {
  federation::FederationPipelineConfig config;
  config.venues = 3;
  config.execution.workers = 8;
  federation::FederationPipeline pipeline(config);
  EXPECT_EQ(pipeline.shard_count(), 3u);
}

}  // namespace
}  // namespace coic
