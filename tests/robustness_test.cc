// Failure injection and stress: lossy links, constrained caches, TTL
// expiry inside the full pipeline, time-varying bandwidth schedules, and
// long mixed workloads — the conditions a deployed edge actually faces.
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "netsim/schedule.h"
#include "trace/workload.h"

namespace coic {
namespace {

using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using proto::OffloadMode;
using proto::ResultSource;

FederationPipelineConfig CoicConfig() {
  FederationPipelineConfig config = FederationPipelineConfig::SingleVenue();
  config.client_mode = OffloadMode::kCoic;
  config.network = {Bandwidth::Mbps(100), Bandwidth::Mbps(10)};
  return config;
}

// ---------------------------------------------------------------------------
// Link-condition schedules (the scripted-tc analogue)
// ---------------------------------------------------------------------------

TEST(LinkScheduleTest, StepsApplyAtTheirTimes) {
  netsim::EventScheduler sched;
  netsim::Link link(sched, "wifi", netsim::LinkConfig{});
  netsim::LinkConditionScheduler::Apply(
      sched, link,
      {{SimTime::FromMicros(1000), Bandwidth::Mbps(50), -1.0},
       {SimTime::FromMicros(2000), Bandwidth::Mbps(25), 0.1}});
  sched.RunUntil(SimTime::FromMicros(1500));
  EXPECT_EQ(link.config().bandwidth, Bandwidth::Mbps(50));
  EXPECT_EQ(link.config().loss_rate, 0.0);  // unchanged (-1)
  sched.RunUntil(SimTime::FromMicros(2500));
  EXPECT_EQ(link.config().bandwidth, Bandwidth::Mbps(25));
  EXPECT_EQ(link.config().loss_rate, 0.1);
}

TEST(LinkScheduleTest, DownStepsScriptAnOutageWindow) {
  // A step sequence can script a link outage without touching bandwidth
  // or loss: down == 1 takes the link down, down == 0 brings it back.
  netsim::EventScheduler sched;
  netsim::Link link(sched, "wifi", netsim::LinkConfig{});
  netsim::LinkConditionScheduler::Apply(
      sched, link,
      {{SimTime::FromMicros(1000), Bandwidth::BitsPerSecond(0), -1.0,
        /*down=*/1},
       {SimTime::FromMicros(2000), Bandwidth::BitsPerSecond(0), -1.0,
        /*down=*/0}});
  EXPECT_FALSE(link.down());
  sched.RunUntil(SimTime::FromMicros(1500));
  EXPECT_TRUE(link.down());
  // The down-only step left the shaping knobs alone.
  EXPECT_EQ(link.config().bandwidth, netsim::LinkConfig{}.bandwidth);
  EXPECT_EQ(link.config().loss_rate, 0.0);
  sched.RunUntil(SimTime::FromMicros(2500));
  EXPECT_FALSE(link.down());
}

TEST(LinkScheduleTest, SawtoothTraceShape) {
  const auto steps = netsim::LinkConditionScheduler::SawtoothTrace(
      SimTime::Epoch(), Duration::Seconds(1), Bandwidth::Mbps(400),
      Bandwidth::Mbps(40), /*cycles=*/2, /*steps_per_ramp=*/4);
  ASSERT_EQ(steps.size(), 16u);
  // Starts high, reaches the low point at the end of the down-ramp,
  // returns to high at the end of the up-ramp.
  EXPECT_EQ(steps[0].bandwidth, Bandwidth::Mbps(400));
  EXPECT_EQ(steps[3].bandwidth, Bandwidth::Mbps(40));
  EXPECT_EQ(steps[7].bandwidth, Bandwidth::Mbps(400));
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GT(steps[i].at, steps[i - 1].at);
  }
}

TEST(LinkScheduleTest, PipelineUnderDegradingBandwidth) {
  // Degrade the WAN mid-run: later Origin requests must get slower.
  FederationPipelineConfig config = FederationPipelineConfig::SingleVenue();
  config.client_mode = OffloadMode::kOrigin;
  config.network = {Bandwidth::Mbps(400), Bandwidth::Mbps(40)};
  FederationPipeline pipeline(config);
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 1});
  const auto before = pipeline.Run();

  // Throttle the WAN via a scheduled step (the scripted-tc path), let
  // the step fire, then measure again.
  auto& wan = pipeline.network().LinkBetween(pipeline.edge_node(0),
                                             pipeline.cloud_node());
  const SimTime step_at = pipeline.scheduler().now() + Duration::Millis(10);
  netsim::LinkConditionScheduler::Apply(pipeline.scheduler(), wan,
                                        {{step_at, Bandwidth::Mbps(8), -1.0}});
  pipeline.scheduler().RunUntil(step_at + Duration::Millis(1));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 1});
  const auto after = pipeline.Run();
  EXPECT_GT(after[0].outcome.latency, before[0].outcome.latency * 2);
}

// ---------------------------------------------------------------------------
// Cache pressure inside the pipeline
// ---------------------------------------------------------------------------

TEST(PipelinePressureTest, TinyCacheStillCorrectJustSlower) {
  FederationPipelineConfig config = CoicConfig();
  // Cache too small for even one annotation result: every request
  // misses, but every answer must still be correct.
  config.cache.capacity_bytes = KiB(64);
  FederationPipeline pipeline(config);
  for (int i = 0; i < 4; ++i) {
    pipeline.EnqueueRecognitionAt(0,
                                  {.scene_id = 3, .view_angle_deg = 1.0 * i});
  }
  const auto outcomes = pipeline.Run();
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.outcome.source, ResultSource::kCloud);
    EXPECT_TRUE(o.outcome.correct);
    EXPECT_FALSE(o.outcome.error);
  }
  EXPECT_EQ(pipeline.edge(0).cache().stats().hits, 0u);
}

TEST(PipelinePressureTest, EvictionUnderMixedLoadKeepsAccounting) {
  FederationPipelineConfig config = CoicConfig();
  config.cache.capacity_bytes = MB(2);
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(900));
  pipeline.RegisterModel(2, KB(900));
  pipeline.RegisterModel(3, KB(900));
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t model = 1; model <= 3; ++model) {
      pipeline.EnqueueRenderAt(0, model);
    }
  }
  const auto outcomes = pipeline.Run();
  for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
  EXPECT_LE(pipeline.edge(0).cache().bytes_used(), MB(2));
  EXPECT_GT(pipeline.edge(0).cache().stats().evictions, 0u);
}

TEST(PipelinePressureTest, TtlExpiryForcesRefetch) {
  FederationPipelineConfig config = CoicConfig();
  config.cache.ttl = Duration::Seconds(5);
  FederationPipeline pipeline(config);
  pipeline.EnqueuePanoramaAt(0, 1, 0);
  pipeline.EnqueuePanoramaAt(0, 1, 0);  // within TTL: hit
  (void)pipeline.Run();
  // Idle past the TTL, then re-request: must go to the cloud again.
  pipeline.scheduler().RunUntil(pipeline.scheduler().now() +
                                Duration::Seconds(6));
  pipeline.EnqueuePanoramaAt(0, 1, 0);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.edge(0).cache().stats().expirations, 1u);
}

// ---------------------------------------------------------------------------
// Long mixed workloads stay consistent
// ---------------------------------------------------------------------------

TEST(PipelineStressTest, LongMixedTraceNoErrorsAndSaneAccounting) {
  FederationPipelineConfig config = CoicConfig();
  config.recognition_classes = 32;
  config.cache.capacity_bytes = MB(64);
  FederationPipeline pipeline(config);
  const std::vector<std::uint64_t> models = {1, 2, 3};
  for (const auto m : models) pipeline.RegisterModel(m, KB(400 + 300 * m));

  trace::WorkloadConfig workload;
  workload.users = 6;
  workload.objects = 16;
  workload.seed = 0x57E55;
  trace::WorkloadGenerator gen(workload);
  const auto records = gen.GenerateMixed(300, models, /*video=*/4);
  for (const auto& rec : records) {
    switch (rec.type) {
      case trace::IcTaskType::kRecognition: {
        auto scene = rec.scene;
        scene.scene_id = 1 + scene.scene_id % 32;
        pipeline.EnqueueRecognitionAt(0, scene);
        break;
      }
      case trace::IcTaskType::kRender:
        pipeline.EnqueueRenderAt(0, rec.model_id);
        break;
      case trace::IcTaskType::kPanorama:
        pipeline.EnqueuePanoramaAt(0, rec.video_id, rec.frame_index % 16);
        break;
    }
  }
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), records.size());
  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);
  EXPECT_EQ(agg.errors(), 0u);
  EXPECT_GT(agg.HitRate(), 0.3);  // redundancy must be harvested
  const auto& stats = pipeline.edge(0).cache().stats();
  EXPECT_EQ(stats.hits + stats.misses, records.size());
  // Latency sanity: every request completed within the slowest possible
  // path (origin-at-worst-condition scale).
  EXPECT_LT(agg.PercentileLatencyMs(100), 10'000.0);
}

TEST(PipelineStressTest, RepeatedRunsAccumulateCacheState) {
  FederationPipeline pipeline(CoicConfig());
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 4});
  (void)pipeline.Run();
  // 20 subsequent runs, all hits — state persists across Run() calls.
  for (int i = 0; i < 20; ++i) {
    pipeline.EnqueueRecognitionAt(
        0, {.scene_id = 4, .view_angle_deg = -5.0 + 0.5 * i});
    const auto outcomes = pipeline.Run();
    EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kEdgeCache)
        << "run " << i;
  }
}

// ---------------------------------------------------------------------------
// Wire-level corruption at the pipeline boundary
// ---------------------------------------------------------------------------

TEST(PipelineRobustnessTest, UndecodableFrameIsDroppedNotFatal) {
  FederationPipeline pipeline(CoicConfig());
  // Inject garbage straight into the edge node; the service must log and
  // drop, not crash, and remain serviceable afterwards.
  pipeline.edge(0).OnClientFrame(DeterministicBytes(64, 99));
  pipeline.edge(0).OnCloudFrame(DeterministicBytes(64, 98));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 2});
  const auto outcomes = pipeline.Run();
  EXPECT_FALSE(outcomes[0].outcome.error);
  EXPECT_TRUE(outcomes[0].outcome.correct);
}

TEST(PipelineRobustnessTest, CloudDropsGarbageAndKeepsServing) {
  FederationPipeline pipeline(CoicConfig());
  pipeline.cloud().OnFrame(DeterministicBytes(32, 1));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 2});
  EXPECT_FALSE(pipeline.Run()[0].outcome.error);
}

}  // namespace
}  // namespace coic
