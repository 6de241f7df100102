// Sharded multi-core engine tests, plus regression coverage for the
// single-thread assumptions the sharding sweep fixed:
//   * SPSC queue ordering across real threads;
//   * RetryConfig::TimeoutForAttempt overflow clamp (deep attempts with
//     an Infinite cap used to overflow the double->int64 cast);
//   * EventScheduler watermark compaction (per-event state stays bounded
//     across soak-length runs) and the shard-ownership CHECK;
//   * datagram partials flushed when a link goes down mid-train;
//   * the ShardRunner on its own: drain-only runs, idle-floor stalls,
//     cross-shard handoff timing, idle-gap skipping;
//   * deterministic sharded execution: bit-identical to the one-shard
//     run, replay-stable run over run, back-to-back runs on one pipeline;
//   * stranded requests abort both loops with the stuck request named.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
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
#include "netsim/shard.h"
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
// ShardRunner on its own
// ---------------------------------------------------------------------------

/// Hooks for a shard that must never receive a cross-shard message.
netsim::ShardHooks IsolatedShard(netsim::EventScheduler& sched) {
  netsim::ShardHooks hooks;
  hooks.sched = &sched;
  hooks.deliver = [](netsim::ShardMessage) {
    ADD_FAILURE() << "unexpected cross-shard delivery";
  };
  return hooks;
}

TEST(ShardRunnerTest, OneShardDrainOnlyRunStaysOnTheCallingThread) {
  netsim::EventScheduler sched;
  std::vector<std::thread::id> ran_on;
  for (std::int64_t t : {5'000, 10'000, 15'000}) {
    sched.ScheduleAt(SimTime::FromMicros(t),
                     [&] { ran_on.push_back(std::this_thread::get_id()); });
  }
  netsim::ShardRunnerConfig config;
  config.window = Duration::Millis(1);
  config.expected_completions = 0;  // quiesce at once, then drain
  netsim::ShardRunner runner(config, {IsolatedShard(sched)});
  const netsim::ShardRunner::Result result = runner.Run();

  ASSERT_EQ(ran_on.size(), 3u);
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());  // no worker was spawned
  }
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.now(), SimTime::FromMicros(16'000));  // one window past
  EXPECT_FALSE(result.stalled);
  EXPECT_EQ(result.cross_messages, 0u);
}

TEST(ShardRunnerTest, IdleFloorTimerAloneQuiescesOnceAndReportsAStall) {
  netsim::EventScheduler sched;
  netsim::EventId timer = 0;
  std::uint64_t ticks = 0;
  std::function<void()> arm = [&] {
    timer = sched.ScheduleAfter(Duration::Millis(5), [&] {
      ++ticks;
      arm();
    });
  };
  arm();
  std::uint32_t quiesces = 0;
  netsim::ShardHooks hooks = IsolatedShard(sched);
  hooks.completed = [] { return std::uint64_t{0}; };
  hooks.idle_floor = [&] { return std::uint64_t{timer != 0 ? 1u : 0u}; };
  hooks.quiesce = [&] {
    ++quiesces;
    sched.Cancel(timer);
    timer = 0;
  };
  netsim::ShardRunnerConfig config;
  config.window = Duration::Millis(1);
  config.expected_completions = 1;  // never reached: nothing completes
  netsim::ShardRunner runner(config, {std::move(hooks)});
  const netsim::ShardRunner::Result result = runner.Run();

  EXPECT_TRUE(result.stalled);
  EXPECT_EQ(quiesces, 1u);
  // The whole backlog is the timer, so the first barrier already sees
  // the stall: the timer never fires.
  EXPECT_EQ(ticks, 0u);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(ShardRunnerTest, CrossShardSendLandsAtItsStampedTime) {
  netsim::EventScheduler sched0;
  netsim::EventScheduler sched1;
  netsim::ShardRunner* runner_ptr = nullptr;
  // Sent in the window (500 us, 1500 us], stamped one lookahead later.
  sched0.ScheduleAt(SimTime::FromMicros(500), [&] {
    netsim::ShardMessage msg;
    msg.from = 3;
    msg.to = 4;
    msg.deliver_at = sched0.now() + Duration::Millis(1);
    msg.payload = Frame(ByteVec{1, 2, 3});
    runner_ptr->Send(0, 1, std::move(msg));
  });
  SimTime arrived;
  std::size_t arrived_bytes = 0;
  netsim::ShardHooks receiver;
  receiver.sched = &sched1;
  receiver.deliver = [&](netsim::ShardMessage msg) {
    sched1.ScheduleAt(msg.deliver_at, [&, size = msg.payload.size()] {
      arrived = sched1.now();
      arrived_bytes = size;
    });
  };
  netsim::ShardRunnerConfig config;
  config.window = Duration::Millis(1);
  netsim::ShardRunner runner(config, {IsolatedShard(sched0), receiver});
  runner_ptr = &runner;
  const netsim::ShardRunner::Result result = runner.Run();

  EXPECT_EQ(arrived, SimTime::FromMicros(1'500));
  EXPECT_EQ(arrived_bytes, 3u);
  EXPECT_EQ(result.cross_messages, 1u);
  EXPECT_FALSE(result.stalled);
  EXPECT_EQ(sched0.pending() + sched1.pending(), 0u);
}

TEST(ShardRunnerTest, IdleGapCostsOneWindowNotOnePerMillisecond) {
  netsim::EventScheduler sched;
  bool fired = false;
  sched.ScheduleAt(SimTime::FromMicros(10'000'000), [&] { fired = true; });
  netsim::ShardRunnerConfig config;
  config.window = Duration::Millis(1);
  netsim::ShardRunner runner(config, {IsolatedShard(sched)});
  const netsim::ShardRunner::Result result = runner.Run();

  EXPECT_TRUE(fired);
  EXPECT_LE(result.windows, 3u);  // not the 10,000 a 1 ms stride would take
}

// ---------------------------------------------------------------------------
// Sharded execution: determinism and parity
// ---------------------------------------------------------------------------

using Row = std::tuple<std::uint32_t, proto::TaskKind, ResultSource, bool,
                       std::int64_t, std::int64_t>;

/// Outcome rows in the order RunOpenLoop returned them — canonical
/// (completed_at, venue) order at every worker count, so 1-vs-N streams
/// compare as they are.
std::vector<Row> Rows(const std::vector<federation::FederationOutcome>& outcomes) {
  std::vector<Row> rows;
  rows.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    rows.emplace_back(o.venue, o.outcome.task, o.outcome.source,
                      o.outcome.error, o.outcome.latency.micros(),
                      (o.completed_at - SimTime::Epoch()).micros());
  }
  return rows;
}

struct StormResult {
  std::vector<Row> rows;
  std::uint64_t faults = 0;
  /// Datagram recovery tallies (nacks, retransmitted chunks, recovered
  /// messages), summed over shards: chunk trains and their NACKs cross
  /// shards as frames, so these must match the one-shard run too.
  std::array<std::uint64_t, 3> recovery{};
  std::size_t shards = 0;
  federation::OpenLoopStats stats;
};

// One chaos-laden cross-shard storm: 4 venues, summary-directed peer
// routing (edge-to-edge traffic crosses shards), lossy transport, a
// crash and a loss burst. Mirrors the one-shard replay-determinism e2e
// scenario so parity against workers == 1 is meaningful.
StormResult RunStorm(std::uint32_t workers) {
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
  result.rows = Rows(pipeline.RunOpenLoop());
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
    ASSERT_EQ(sharded.stats.per_worker_events_fired.size(), workers);
    EXPECT_EQ(std::accumulate(sharded.stats.per_worker_events_fired.begin(),
                              sharded.stats.per_worker_events_fired.end(),
                              std::uint64_t{0}),
              sharded.stats.events_fired)
        << workers << " workers";
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

// Two 50-op storms back to back on one pipeline. Run 1 leaves the shard
// clocks past its cancelled gossip tick, so run 2's round-0 gossip must
// be scheduled at each shard's now, not at the epoch. The clocks stop one
// window past that tick, and the window differs between one shard and N,
// so run 2's round 0 fires at a different instant per worker count. A
// gossip period longer than either batch keeps that instant out of the
// outcomes: round 0 gossips the same caches, run 2 arrives after it, and
// no later round falls inside a batch.
std::array<std::vector<Row>, 2> RunBackToBack(std::uint32_t workers) {
  federation::FederationPipelineConfig config;
  config.venues = 4;
  config.mobiles_per_venue = 2;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(60'000);
  config.network = NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  config.execution.workers = workers;
  federation::FederationPipeline pipeline(config);
  for (std::uint64_t m = 1; m <= 6; ++m) pipeline.RegisterModel(m, KB(64));
  trace::ClusterWorkloadConfig wl;
  wl.venues = 4;
  trace::ClusterWorkloadGenerator gen(wl);
  const std::vector<std::uint64_t> models = {1, 2, 3, 4, 5, 6};

  std::array<std::vector<Row>, 2> runs;
  for (std::size_t batch = 0; batch < runs.size(); ++batch) {
    auto placed = gen.GenerateMixed(50, models, 7 + batch);
    trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), 150.0);
    for (auto& p : placed) {
      // Batch 2 arrives between run 2's round 0 (~60 s) and its next
      // gossip tick (~120 s).
      p.record.at = p.record.at + Duration::Millis(90'000 * batch);
      pipeline.EnqueuePlaced(p);
    }
    runs[batch] = Rows(pipeline.RunOpenLoop());
    EXPECT_EQ(pipeline.scheduler().pending(), 0u) << "batch " << batch;
  }
  return runs;
}

TEST(ShardedEngine, BackToBackRunsDrainAndMatchOneShard) {
  const std::array<std::vector<Row>, 2> single = RunBackToBack(1);
  ASSERT_EQ(single[0].size(), 50u);
  ASSERT_EQ(single[1].size(), 50u);
  for (const std::uint32_t workers : {2u, 4u}) {
    const std::array<std::vector<Row>, 2> sharded = RunBackToBack(workers);
    for (std::size_t batch = 0; batch < single.size(); ++batch) {
      EXPECT_EQ(sharded[batch], single[batch])
          << "batch " << batch << " diverged at " << workers << " workers";
    }
  }
}

// ---------------------------------------------------------------------------
// Stranded requests abort either loop with the stuck request named
// ---------------------------------------------------------------------------

// Two venues, three renders issued at `venues`, and the second request
// frame on venue 0's uplink dropped: request id 2 never gets a reply.
// Retries are off, so nothing recovers it.
std::unique_ptr<federation::FederationPipeline> StrandedPipeline(
    std::uint32_t workers, std::array<std::uint32_t, 3> venues) {
  federation::FederationPipelineConfig config;
  config.venues = 2;
  config.execution.workers = workers;
  auto pipeline = std::make_unique<federation::FederationPipeline>(config);
  pipeline->RegisterModel(1, KB(64));
  for (const std::uint32_t venue : venues) pipeline->EnqueueRenderAt(venue, 1);
  pipeline->network()
      .LinkBetween(pipeline->mobile_node(0, 0), pipeline->edge_node(0))
      .ForceDropAfter(/*skip=*/1, /*n=*/1);
  return pipeline;
}

using StrandedRunDeathTest = ::testing::Test;

TEST(StrandedRunDeathTest, ClosedLoopLastRequestAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(StrandedPipeline(1, {0, 1, 0})->Run(),
               "1 of 3 operations incomplete: venue 0: 1 awaiting reply "
               "at clients \\[ids 2\\]");
}

TEST(StrandedRunDeathTest, ClosedLoopMidRunRequestNamesTheUnissued) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(StrandedPipeline(1, {0, 0, 1})->Run(),
               "2 of 3 operations incomplete \\(1 never issued\\): venue 0: "
               "1 awaiting reply at clients \\[ids 2\\]");
}

TEST(StrandedRunDeathTest, OpenLoopAbortsAtOneAndTwoWorkers) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const std::uint32_t workers : {1u, 2u}) {
    EXPECT_DEATH(StrandedPipeline(workers, {0, 1, 0})->RunOpenLoop(),
                 "1 of 3 operations incomplete: venue 0: 1 awaiting reply "
                 "at clients \\[ids 2\\]")
        << workers << " workers";
  }
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
