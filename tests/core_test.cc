// Core framework tests: cost model, end-to-end pipeline invariants (the
// Figure 1 state machine), QoE metrics, and the layered-cache extension.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/client.h"
#include "core/cost_model.h"
#include "core/layered.h"
#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "render/model.h"
#include "render/registry.h"

namespace coic::core {
namespace {

using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using proto::OffloadMode;
using proto::ResultSource;
using proto::TaskKind;

FederationPipelineConfig BaseConfig(
    OffloadMode mode,
    NetworkCondition cond = {Bandwidth::Mbps(90), Bandwidth::Mbps(9)}) {
  FederationPipelineConfig config = FederationPipelineConfig::SingleVenue();
  config.client_mode = mode;
  config.network = cond;
  return config;
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, Figure2aConditionsMatchPaperAxis) {
  const auto& conditions = Figure2aConditions();
  ASSERT_EQ(conditions.size(), 5u);
  EXPECT_EQ(conditions[0].mobile_edge, Bandwidth::Mbps(90));
  EXPECT_EQ(conditions[0].edge_cloud, Bandwidth::Mbps(9));
  EXPECT_EQ(conditions[4].mobile_edge, Bandwidth::Mbps(400));
  EXPECT_EQ(conditions[4].edge_cloud, Bandwidth::Mbps(40));
  for (const auto& c : conditions) {
    EXPECT_NEAR(c.mobile_edge.mbps() / c.edge_cloud.mbps(), 10.0, 1e-9);
  }
}

TEST(CostModelTest, ModelLoadScalesLinearly) {
  const CostModel costs;
  EXPECT_EQ(costs.CloudModelLoad(KB(1000)).micros(),
            10 * costs.CloudModelLoad(KB(100)).micros());
  EXPECT_EQ(costs.ClientModelInstall(0).micros(), 0);
}

// ---------------------------------------------------------------------------
// Recognition pipeline semantics
// ---------------------------------------------------------------------------

TEST(PipelineTest, ColdRecognitionMissesThenHits) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 2});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = -2});
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(outcomes[2].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(pipeline.edge(0).cache().stats().hits, 2u);
  EXPECT_EQ(pipeline.edge(0).cache().stats().misses, 1u);
}

TEST(PipelineTest, HitLatencyBelowMissLatency) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5, .view_angle_deg = 1});
  const auto outcomes = pipeline.Run();
  EXPECT_LT(outcomes[1].outcome.latency, outcomes[0].outcome.latency);
}

TEST(PipelineTest, DifferentObjectsDoNotCrossHit) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 4});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 9});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.edge(0).cache().stats().hits, 0u);
}

TEST(PipelineTest, RecognitionLabelsCorrectOnHitAndMiss) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 7});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 7, .view_angle_deg = 3});
  for (const auto& o : pipeline.Run()) {
    EXPECT_TRUE(o.outcome.correct) << o.outcome.label;
    EXPECT_EQ(o.outcome.label, "object_7");
    EXPECT_FALSE(o.outcome.error);
  }
}

TEST(PipelineTest, OriginNeverTouchesCache) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kOrigin));
  for (int i = 0; i < 3; ++i) pipeline.EnqueueRecognitionAt(0, {.scene_id = 2});
  const auto outcomes = pipeline.Run();
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.outcome.source, ResultSource::kCloud);
  }
  EXPECT_EQ(pipeline.edge(0).cache().stats().hits, 0u);
  EXPECT_EQ(pipeline.edge(0).cache().stats().misses, 0u);
  EXPECT_EQ(pipeline.edge(0).cache().stats().insertions, 0u);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 3u);
}

TEST(PipelineTest, OriginRepeatLatencyConstant) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kOrigin));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 2});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 2});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.latency.micros(),
            outcomes[1].outcome.latency.micros());
}

TEST(PipelineTest, CacheHitServedWithoutCloud) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 6});
  (void)pipeline.Run();
  const auto cloud_tasks_before = pipeline.cloud().tasks_executed();
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 6, .view_angle_deg = 1});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), cloud_tasks_before);
}

TEST(PipelineTest, MissCostsMoreThanOriginAtSameCondition) {
  // The cache-miss penalty: CoIC miss = probe + extraction on top of the
  // forwarded execution. With descriptor-resume inference the miss can
  // beat Origin at slow networks; at the fastest condition the Origin
  // transfer advantage vanishes and the miss must cost more.
  const NetworkCondition fast{Bandwidth::Mbps(400), Bandwidth::Mbps(40)};
  FederationPipeline origin(BaseConfig(OffloadMode::kOrigin, fast));
  origin.EnqueueRecognitionAt(0, {.scene_id = 8});
  const auto origin_out = origin.Run();

  FederationPipeline coic(BaseConfig(OffloadMode::kCoic, fast));
  coic.EnqueueRecognitionAt(0, {.scene_id = 8});
  const auto miss_out = coic.Run();

  EXPECT_GT(miss_out[0].outcome.latency, origin_out[0].outcome.latency);
}

TEST(PipelineTest, ClientComputeReportedOnCoicPath) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 1});
  const auto outcomes = pipeline.Run();
  const CostModel costs;
  EXPECT_EQ(outcomes[0].outcome.client_compute.micros(),
            costs.recognition.mobile_extraction.micros());
  EXPECT_GE(outcomes[0].outcome.latency, outcomes[0].outcome.client_compute);
}

// Warm-up property across the whole Figure 2a sweep: at every condition,
// hit < miss and the hit saves the E->C transfer entirely.
class Figure2aConditionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Figure2aConditionTest, HitBeatsMissEverywhere) {
  const auto cond = Figure2aConditions()[GetParam()];
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic, cond));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 11});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 11, .view_angle_deg = 2});
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  ASSERT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
  EXPECT_LT(outcomes[1].outcome.latency, outcomes[0].outcome.latency);
  // The hit path never crosses E->C: it must beat the miss by at least
  // the E->C annotation download time.
  const CostModel costs;
  const Duration saved = cond.edge_cloud.TransmitTime(
      costs.recognition.annotation_bytes);
  EXPECT_LT(outcomes[1].outcome.latency + saved,
            outcomes[0].outcome.latency + Duration::Millis(1));
}

INSTANTIATE_TEST_SUITE_P(AllConditions, Figure2aConditionTest,
                         ::testing::Values(0, 1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Render pipeline semantics
// ---------------------------------------------------------------------------

TEST(PipelineTest, RenderMissThenHitServesSameBytes) {
  FederationPipeline pipeline(
      BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
  pipeline.RegisterModel(1, KB(231));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(0, 1);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(outcomes[0].outcome.result_bytes, KB(231));
  EXPECT_EQ(outcomes[1].outcome.result_bytes, KB(231));
  EXPECT_FALSE(outcomes[0].outcome.error);
  EXPECT_FALSE(outcomes[1].outcome.error);
  EXPECT_LT(outcomes[1].outcome.latency, outcomes[0].outcome.latency);
}

TEST(PipelineTest, RenderHitSkipsCloudLoadAndWanTransfer) {
  const auto cond = Figure2bCondition();
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic, cond));
  pipeline.RegisterModel(1, KB(7050));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(0, 1);
  const auto outcomes = pipeline.Run();
  const CostModel costs;
  const Duration wan = cond.edge_cloud.TransmitTime(KB(7050));
  const Duration load = costs.CloudModelLoad(KB(7050));
  EXPECT_LT(outcomes[1].outcome.latency + wan + load,
            outcomes[0].outcome.latency + Duration::Millis(5));
}

TEST(PipelineTest, LargerModelsTakeLonger) {
  FederationPipeline pipeline(
      BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
  pipeline.RegisterModel(1, KB(231));
  pipeline.RegisterModel(2, KB(13072));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(0, 2);
  const auto outcomes = pipeline.Run();
  EXPECT_LT(outcomes[0].outcome.latency * 5, outcomes[1].outcome.latency);
}

TEST(PipelineTest, RenderForUnknownModelFailsCleanly) {
  FederationPipeline pipeline(
      BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
  pipeline.RegisterModel(1, KB(64));
  // Corrupt digest: register then ask for a digest the cloud lacks.
  FederationPipeline other(BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
  const auto foreign_digest = other.RegisterModel(2, KB(128));
  pipeline.EnqueueRenderAt(0, 1);
  (void)pipeline.Run();
  // Directly exercise the client with a digest unknown to this cloud.
  bool finished = false;
  pipeline.client(0, 0).StartRender(99, foreign_digest,
                                    [&](RequestOutcome outcome) {
                                      finished = true;
                                      EXPECT_TRUE(outcome.error);
                                    });
  pipeline.scheduler().Run();
  EXPECT_TRUE(finished);
}

TEST(PipelineTest, DistinctModelsCachedIndependently) {
  FederationPipeline pipeline(
      BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
  pipeline.RegisterModel(1, KB(64));
  pipeline.RegisterModel(2, KB(64));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(0, 2);
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(0, 2);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[2].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(outcomes[3].outcome.source, ResultSource::kEdgeCache);
}

// ---------------------------------------------------------------------------
// Panorama pipeline semantics
// ---------------------------------------------------------------------------

TEST(PipelineTest, PanoramaSharedFrameHits) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueuePanoramaAt(0, 10, 0);
  pipeline.EnqueuePanoramaAt(0, 10, 0);  // second viewer, same frame
  pipeline.EnqueuePanoramaAt(0, 10, 1);  // next frame: miss
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(outcomes[2].outcome.source, ResultSource::kCloud);
  EXPECT_LT(outcomes[1].outcome.latency, outcomes[0].outcome.latency);
}

TEST(PipelineTest, PanoramaFramePaddedToWireSize) {
  FederationPipeline pipeline(BaseConfig(OffloadMode::kCoic));
  pipeline.EnqueuePanoramaAt(0, 4, 2);
  const auto outcomes = pipeline.Run();
  const CostModel costs;
  EXPECT_EQ(outcomes[0].outcome.result_bytes, costs.panorama.frame_bytes);
}

TEST(PipelineTest, MixedTaskKindsShareOneCacheWithoutInterference) {
  FederationPipeline pipeline(
      BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
  pipeline.RegisterModel(1, KB(64));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3});
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueuePanoramaAt(0, 7, 0);
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 1});
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueuePanoramaAt(0, 7, 0);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_EQ(outcomes[3].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(outcomes[4].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(outcomes[5].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(pipeline.edge(0).cache().stats().hits, 3u);
  EXPECT_EQ(pipeline.edge(0).cache().stats().misses, 3u);
}

// ---------------------------------------------------------------------------
// Figure-shape assertions (the quantitative repro contract)
// ---------------------------------------------------------------------------

TEST(FigureShapeTest, Fig2aMaxReductionNearPaperHeadline) {
  // At (90, 9) the hit reduction must land in the paper's regime
  // (52.28% reported; we assert 45-60%).
  const auto cond = Figure2aConditions()[0];
  FederationPipeline origin(BaseConfig(OffloadMode::kOrigin, cond));
  origin.EnqueueRecognitionAt(0, {.scene_id = 3});
  const double origin_ms = origin.Run()[0].outcome.latency.millis();

  FederationPipeline coic(BaseConfig(OffloadMode::kCoic, cond));
  coic.EnqueueRecognitionAt(0, {.scene_id = 3});
  (void)coic.Run();
  coic.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 2});
  const double hit_ms = coic.Run()[0].outcome.latency.millis();

  const double reduction = (1.0 - hit_ms / origin_ms) * 100.0;
  EXPECT_GT(reduction, 45.0);
  EXPECT_LT(reduction, 60.0);
  // Origin at the most constrained condition sits near the figure's
  // 2400 ms ceiling.
  EXPECT_GT(origin_ms, 2000.0);
  EXPECT_LT(origin_ms, 2700.0);
}

TEST(FigureShapeTest, Fig2aReductionShrinksWithBandwidth) {
  std::vector<double> reductions;
  for (const auto& cond : Figure2aConditions()) {
    FederationPipeline origin(BaseConfig(OffloadMode::kOrigin, cond));
    origin.EnqueueRecognitionAt(0, {.scene_id = 3});
    const double origin_ms = origin.Run()[0].outcome.latency.millis();
    FederationPipeline coic(BaseConfig(OffloadMode::kCoic, cond));
    coic.EnqueueRecognitionAt(0, {.scene_id = 3});
    (void)coic.Run();
    coic.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 2});
    const double hit_ms = coic.Run()[0].outcome.latency.millis();
    reductions.push_back(1.0 - hit_ms / origin_ms);
  }
  for (std::size_t i = 1; i < reductions.size(); ++i) {
    EXPECT_LT(reductions[i], reductions[i - 1]) << "condition " << i;
  }
}

TEST(FigureShapeTest, Fig2bMaxReductionNearPaperHeadline) {
  // Largest model: load-latency reduction in the paper's regime
  // (75.86% reported; we assert 70-82%).
  const auto cond = Figure2bCondition();
  FederationPipeline origin(BaseConfig(OffloadMode::kOrigin, cond));
  origin.RegisterModel(1, KB(15053));
  origin.EnqueueRenderAt(0, 1);
  const double origin_ms = origin.Run()[0].outcome.latency.millis();

  FederationPipeline coic(BaseConfig(OffloadMode::kCoic, cond));
  coic.RegisterModel(1, KB(15053));
  coic.EnqueueRenderAt(0, 1);
  (void)coic.Run();
  coic.EnqueueRenderAt(0, 1);
  const double hit_ms = coic.Run()[0].outcome.latency.millis();

  const double reduction = (1.0 - hit_ms / origin_ms) * 100.0;
  EXPECT_GT(reduction, 70.0);
  EXPECT_LT(reduction, 82.0);
  EXPECT_GT(origin_ms, 5000.0);
  EXPECT_LT(origin_ms, 7000.0);
}

TEST(FigureShapeTest, Fig2bReductionGrowsWithModelSize) {
  double previous = -1;
  for (const Bytes size : {KB(231), KB(1949), KB(15053)}) {
    FederationPipeline origin(
        BaseConfig(OffloadMode::kOrigin, Figure2bCondition()));
    origin.RegisterModel(1, size);
    origin.EnqueueRenderAt(0, 1);
    const double origin_ms = origin.Run()[0].outcome.latency.millis();
    FederationPipeline coic(
        BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
    coic.RegisterModel(1, size);
    coic.EnqueueRenderAt(0, 1);
    (void)coic.Run();
    coic.EnqueueRenderAt(0, 1);
    const double hit_ms = coic.Run()[0].outcome.latency.millis();
    const double reduction = 1.0 - hit_ms / origin_ms;
    EXPECT_GT(reduction, previous);
    previous = reduction;
  }
}

// Every latency behind the Figure 2a/2b tables, in integer microseconds.
// The range checks above say the figures keep their shape; this pin says
// the simulated stack underneath did not move by a single microsecond.
struct Fig2Latencies {
  std::int64_t origin_us = 0;
  std::int64_t miss_us = 0;
  std::int64_t hit_us = 0;
};

Fig2Latencies MeasureFig2aRecognition(const NetworkCondition& cond) {
  Fig2Latencies out;
  FederationPipeline origin(BaseConfig(OffloadMode::kOrigin, cond));
  origin.EnqueueRecognitionAt(0, {.scene_id = 3});
  out.origin_us = origin.Run()[0].outcome.latency.micros();
  FederationPipeline coic(BaseConfig(OffloadMode::kCoic, cond));
  coic.EnqueueRecognitionAt(0, {.scene_id = 3});
  out.miss_us = coic.Run()[0].outcome.latency.micros();
  coic.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 2});
  out.hit_us = coic.Run()[0].outcome.latency.micros();
  return out;
}

Fig2Latencies MeasureFig2bRender(Bytes model_size) {
  Fig2Latencies out;
  FederationPipeline origin(
      BaseConfig(OffloadMode::kOrigin, Figure2bCondition()));
  origin.RegisterModel(1, model_size);
  origin.EnqueueRenderAt(0, 1);
  out.origin_us = origin.Run()[0].outcome.latency.micros();
  FederationPipeline coic(BaseConfig(OffloadMode::kCoic, Figure2bCondition()));
  coic.RegisterModel(1, model_size);
  coic.EnqueueRenderAt(0, 1);
  out.miss_us = coic.Run()[0].outcome.latency.micros();
  coic.EnqueueRenderAt(0, 1);
  out.hit_us = coic.Run()[0].outcome.latency.micros();
  return out;
}

void ExpectFig2Latencies(const Fig2Latencies& got, const Fig2Latencies& want,
                         const std::string& where) {
  EXPECT_EQ(got.origin_us, want.origin_us) << where << " origin";
  EXPECT_EQ(got.miss_us, want.miss_us) << where << " miss";
  EXPECT_EQ(got.hit_us, want.hit_us) << where << " hit";
}

TEST(FigureShapeTest, Fig2LatenciesPinnedToTheMicrosecond) {
  // {origin, miss, hit} per Figure2aConditions() entry.
  const std::vector<Fig2Latencies> fig2a = {
      {2394115, 1667366, 1146034},  // 90/9 Mbps
      {2174104, 1623329, 1142030},  // 100/10
      {1184052, 1425165, 1124015},  // 200/20
      {854036, 1359112, 1118011},   // 300/30
      {689027, 1326083, 1115008},   // 400/40
  };
  // {origin, miss, hit} per render::ModelRegistry::Figure2bSizes() entry.
  const std::vector<Fig2Latencies> fig2b = {
      {161815, 164815, 52948},      // 231 KB
      {500019, 503019, 132938},     // 1073 KB
      {851879, 854879, 216158},     // 1949 KB
      {2900780, 2903780, 700753},   // 7050 KB
      {5319617, 5322617, 1272843},  // 13072 KB
      {6115319, 6118319, 1461038},  // 15053 KB
  };
  const auto& conditions = Figure2aConditions();
  ASSERT_EQ(conditions.size(), fig2a.size());
  for (std::size_t i = 0; i < conditions.size(); ++i) {
    ExpectFig2Latencies(MeasureFig2aRecognition(conditions[i]), fig2a[i],
                        "fig2a condition " + std::to_string(i));
  }
  const auto& sizes = render::ModelRegistry::Figure2bSizes();
  ASSERT_EQ(sizes.size(), fig2b.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ExpectFig2Latencies(MeasureFig2bRender(sizes[i]), fig2b[i],
                        "fig2b model " + std::to_string(sizes[i] / 1000) +
                            " KB");
  }
}

// ---------------------------------------------------------------------------
// QoeAggregator
// ---------------------------------------------------------------------------

TEST(MetricsTest, AggregatesSourcesAndLatency) {
  QoeAggregator agg;
  RequestOutcome hit;
  hit.source = ResultSource::kEdgeCache;
  hit.latency = Duration::Millis(100);
  hit.task = TaskKind::kRecognition;
  hit.correct = true;
  RequestOutcome miss;
  miss.source = ResultSource::kCloud;
  miss.latency = Duration::Millis(300);
  miss.task = TaskKind::kRecognition;
  miss.correct = false;
  agg.Add(hit);
  agg.Add(miss);
  EXPECT_EQ(agg.count(), 2u);
  EXPECT_DOUBLE_EQ(agg.HitRate(), 0.5);
  EXPECT_DOUBLE_EQ(agg.MeanLatencyMs(), 200.0);
  EXPECT_DOUBLE_EQ(agg.Accuracy(), 0.5);
}

TEST(MetricsTest, ErrorsExcludedFromLatency) {
  QoeAggregator agg;
  RequestOutcome err;
  err.error = true;
  err.latency = Duration::Millis(10'000);
  agg.Add(err);
  RequestOutcome ok;
  ok.latency = Duration::Millis(100);
  agg.Add(ok);
  EXPECT_EQ(agg.errors(), 1u);
  EXPECT_DOUBLE_EQ(agg.MeanLatencyMs(), 100.0);
}

TEST(MetricsTest, ReductionVsBaseline) {
  QoeAggregator coic, origin;
  RequestOutcome a;
  a.latency = Duration::Millis(120);
  coic.Add(a);
  RequestOutcome b;
  b.latency = Duration::Millis(240);
  origin.Add(b);
  EXPECT_NEAR(coic.ReductionPercentVs(origin), 50.0, 1e-9);
  EXPECT_NEAR(origin.ReductionPercentVs(coic), -100.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Layered (fine-grained) cache — the §4 extension
// ---------------------------------------------------------------------------

TEST(LayeredTest, FirstFrameMatchesNothing) {
  LayeredRecognitionCache cache;
  const auto outcome =
      cache.Process(vision::SyntheticImage::Generate({.scene_id = 1}));
  EXPECT_EQ(outcome.matched_depth, 0u);
  EXPECT_EQ(outcome.cloud_compute, cache.FullCost());
}

TEST(LayeredTest, IdenticalFrameFullHits) {
  LayeredRecognitionCache cache;
  const auto img = vision::SyntheticImage::Generate({.scene_id = 2});
  (void)cache.Process(img);
  const auto outcome = cache.Process(img);
  EXPECT_TRUE(outcome.full_hit(cache.config().layers));
  EXPECT_EQ(outcome.cloud_compute, Duration::Zero());
}

TEST(LayeredTest, PerturbedViewReusesPrefix) {
  LayeredRecognitionCache cache;
  (void)cache.Process(vision::SyntheticImage::Generate({.scene_id = 3}));
  // A notably different view of the same object: the shallow, view-
  // sensitive layers may miss, but deep invariant layers should match.
  const auto outcome = cache.Process(vision::SyntheticImage::Generate(
      {.scene_id = 3, .view_angle_deg = 10, .distance = 1.1}));
  EXPECT_GT(outcome.matched_depth, 0u);
  EXPECT_LT(outcome.cloud_compute, cache.FullCost());
}

TEST(LayeredTest, LayeredNeverWorseThanCoarse) {
  LayeredRecognitionCache cache;
  Rng rng(31);
  for (int i = 0; i < 40; ++i) {
    vision::SceneParams params;
    params.scene_id = 1 + rng.NextBelow(6);
    params.view_angle_deg = (rng.NextDouble() * 2 - 1) * 10;
    params.distance = 1.0 + (rng.NextDouble() * 2 - 1) * 0.1;
    const auto outcome =
        cache.Process(vision::SyntheticImage::Generate(params));
    EXPECT_LE(outcome.cloud_compute, cache.CoarseEquivalentCost(outcome));
  }
}

TEST(LayeredTest, DifferentObjectsDoNotFullHit) {
  LayeredRecognitionCache cache;
  (void)cache.Process(vision::SyntheticImage::Generate({.scene_id = 100}));
  const auto outcome =
      cache.Process(vision::SyntheticImage::Generate({.scene_id = 200}));
  EXPECT_FALSE(outcome.full_hit(cache.config().layers));
}

// ---------------------------------------------------------------------------
// Client-side overload handling: deadline stamping, local fallback
// ---------------------------------------------------------------------------

/// Self-clocking client harness: the delay fn advances the clock by the
/// requested duration and runs the work inline, so modeled compute shows
/// up in outcome latencies without a simulator.
struct ClientHarness {
  SimTime now = SimTime::Epoch();
  std::vector<Frame> sent;
  CoicClient client;

  explicit ClientHarness(CoicClient::Config config)
      : client(std::move(config),
               [this](Frame f) { sent.push_back(std::move(f)); },
               [this](Duration d, std::function<void()> fn) {
                 now = now + d;
                 fn();
               },
               [this] { return now; }) {}

  proto::Envelope LastSent() {
    EXPECT_FALSE(sent.empty());
    auto env = proto::DecodeEnvelope(sent.back().span());
    EXPECT_TRUE(env.ok());
    return std::move(env).value();
  }

  void ReplyShed(std::uint64_t request_id, StatusCode code) {
    proto::ErrorReply err;
    err.code = static_cast<std::uint16_t>(code);
    err.message = "shed";
    client.OnEdgeFrame(
        proto::EncodeMessage(proto::MessageType::kError, request_id, err));
  }
};

TEST(ClientOverloadTest, DeadlineStampedNetOfPreSendCompute) {
  CoicClient::Config config;
  config.deadline = Duration::Millis(2500);
  ClientHarness h(config);
  h.client.StartRender(5, Digest128{1, 2}, [](RequestOutcome) {});
  const auto env = h.LastSent();
  auto req = proto::DecodePayloadAs<proto::RenderRequest>(
      env, proto::MessageType::kRenderRequest);
  ASSERT_TRUE(req.ok());
  // 2500 ms budget minus the 25 ms request prep spent before the send.
  EXPECT_EQ(req.value().deadline_ms, 2475u);
}

TEST(ClientOverloadTest, NoDeadlineMeansAZeroWireStamp) {
  ClientHarness h(CoicClient::Config{});
  h.client.StartRender(5, Digest128{1, 2}, [](RequestOutcome) {});
  auto req = proto::DecodePayloadAs<proto::RenderRequest>(
      h.LastSent(), proto::MessageType::kRenderRequest);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().deadline_ms, 0u);
}

TEST(ClientOverloadTest, ShedReplyDegradesToLocalFallback) {
  CoicClient::Config config;
  config.local_fallback = true;
  ClientHarness h(config);
  std::vector<RequestOutcome> outcomes;
  h.client.StartRender(5, Digest128{1, 2},
                       [&](RequestOutcome o) { outcomes.push_back(o); });
  h.ReplyShed(h.LastSent().request_id, StatusCode::kResourceExhausted);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].error);
  EXPECT_EQ(outcomes[0].source, ResultSource::kLocal);
  // 25 ms prep + 90 ms low-LOD placeholder: degraded but fast.
  EXPECT_EQ(outcomes[0].latency, Duration::Millis(115));
  EXPECT_EQ(h.client.overload_rejects(), 1u);
  EXPECT_EQ(h.client.timeouts(), 0u);  // rejects are not timeouts
  EXPECT_EQ(h.client.inflight(), 0u);
}

TEST(ClientOverloadTest, RecognitionFallbackKeepsTheCorrectLabel) {
  CoicClient::Config config;
  config.local_fallback = true;
  ClientHarness h(config);
  std::vector<RequestOutcome> outcomes;
  h.client.StartRecognition({.scene_id = 3}, "object_3",
                            [&](RequestOutcome o) { outcomes.push_back(o); });
  h.ReplyShed(h.LastSent().request_id, StatusCode::kUnavailable);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].error);
  EXPECT_EQ(outcomes[0].source, ResultSource::kLocal);
  // The on-device DNN is the Local baseline: right answer, paid in full
  // (1100 ms extraction + 2800 ms full inference).
  EXPECT_TRUE(outcomes[0].correct);
  EXPECT_EQ(outcomes[0].label, "object_3");
  EXPECT_EQ(outcomes[0].latency, Duration::Millis(3900));
}

TEST(ClientOverloadTest, ShedWithoutFallbackIsACountedErrorOutcome) {
  ClientHarness h(CoicClient::Config{});  // local_fallback off
  std::vector<RequestOutcome> outcomes;
  h.client.StartRender(5, Digest128{1, 2},
                       [&](RequestOutcome o) { outcomes.push_back(o); });
  h.ReplyShed(h.LastSent().request_id, StatusCode::kResourceExhausted);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].error);
  EXPECT_EQ(h.client.overload_rejects(), 1u);
  EXPECT_EQ(h.client.timeouts(), 0u);
}

TEST(ClientOverloadTest, NonShedErrorsDoNotCountAsOverloadRejects) {
  CoicClient::Config config;
  config.local_fallback = true;
  ClientHarness h(config);
  std::vector<RequestOutcome> outcomes;
  h.client.StartRender(5, Digest128{1, 2},
                       [&](RequestOutcome o) { outcomes.push_back(o); });
  // kNotFound is a real failure, not an overload verdict: no fallback.
  h.ReplyShed(h.LastSent().request_id, StatusCode::kNotFound);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].error);
  EXPECT_EQ(h.client.overload_rejects(), 0u);
}

// ---------------------------------------------------------------------------
// Client recognition descriptors computed ahead of time
// ---------------------------------------------------------------------------

TEST(ClientDescriptorTest, PrecomputedDescriptorPutsTheSameBytesOnTheWire) {
  // The federation pipeline describes queued scenes before a run and
  // hands the descriptor to StartRecognition; the request on the wire
  // must be byte-for-byte the one the client builds inline. Origin
  // uploads the frame itself and ignores the argument.
  const vision::SceneParams scene{.scene_id = 11, .view_angle_deg = 7.5,
                                  .distance = 1.2, .illumination = 0.9,
                                  .width = 32, .height = 32};
  for (const OffloadMode mode : {OffloadMode::kCoic, OffloadMode::kOrigin}) {
    CoicClient::Config config;
    config.mode = mode;
    config.deadline = Duration::Millis(5000);
    ClientHarness inline_client(config);
    ClientHarness precomputed(config);
    inline_client.client.StartRecognition(scene, "object_11",
                                          [](RequestOutcome) {});
    std::vector<float> descriptor = precomputed.client.DescribeScene(scene);
    EXPECT_EQ(descriptor, precomputed.client.extractor().Extract(
                              vision::SyntheticImage::Generate(scene)));
    precomputed.client.StartRecognition(scene, "object_11",
                                        [](RequestOutcome) {},
                                        std::move(descriptor));
    ASSERT_EQ(inline_client.sent.size(), 1u);
    ASSERT_EQ(precomputed.sent.size(), 1u);
    EXPECT_TRUE(std::ranges::equal(inline_client.sent[0].span(),
                                   precomputed.sent[0].span()))
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(inline_client.now, precomputed.now);  // same modeled compute
  }
}

// ---------------------------------------------------------------------------
// Client model ingest: parse verdicts shared through ModelInstallMemo
// ---------------------------------------------------------------------------

ByteVec ModelBytes(std::uint64_t model_id, Bytes size) {
  return render::SerializeModel(render::BuildProceduralModel(
      {.model_id = model_id, .target_serialized_bytes = size}));
}

/// Issues a render of `model_id` on `h` and answers it with `bytes`.
RequestOutcome RenderWithReply(ClientHarness& h, std::uint64_t model_id,
                               ByteVec bytes) {
  std::vector<RequestOutcome> outcomes;
  h.client.StartRender(model_id, Digest128{model_id, 1},
                       [&](RequestOutcome o) { outcomes.push_back(o); });
  proto::RenderResult reply;
  reply.model_id = model_id;
  reply.model_bytes = std::move(bytes);
  h.client.OnEdgeFrame(proto::EncodeMessage(proto::MessageType::kRenderResult,
                                            h.LastSent().request_id, reply));
  EXPECT_EQ(outcomes.size(), 1u);
  return outcomes.empty() ? RequestOutcome{} : outcomes.front();
}

struct ClientInstallMemoTest : ::testing::Test {
  obs::MetricsRegistry registry;
  obs::Counter& parses = registry.GetCounter("client.model_parses");
  ModelInstallMemo memo{parses};

  CoicClient::Config OnMemo() {
    CoicClient::Config config;
    config.install_memo = &memo;
    return config;
  }
};

TEST_F(ClientInstallMemoTest, CorruptModelFailsOnEveryClientWithOneParse) {
  ClientHarness a(OnMemo()), b(OnMemo());
  const ByteVec garbage = DeterministicBytes(KB(4), 1);
  EXPECT_TRUE(RenderWithReply(a, 7, garbage).error);
  EXPECT_TRUE(RenderWithReply(b, 7, garbage).error);
  EXPECT_EQ(parses.value(), 1u);
  // A valid model on the same memo succeeds on both, one more parse.
  EXPECT_FALSE(RenderWithReply(a, 8, ModelBytes(8, KB(4))).error);
  EXPECT_FALSE(RenderWithReply(b, 8, ModelBytes(8, KB(4))).error);
  EXPECT_EQ(parses.value(), 2u);
}

TEST_F(ClientInstallMemoTest, SameIdWithADifferentSizeParsesAgain) {
  ClientHarness a(OnMemo()), b(OnMemo());
  EXPECT_FALSE(RenderWithReply(a, 7, ModelBytes(7, KB(4))).error);
  EXPECT_EQ(parses.value(), 1u);
  // A new size under the same id is new bytes: parse, and take the new
  // verdict (garbage fails even though the old bytes parsed).
  EXPECT_TRUE(RenderWithReply(b, 7, DeterministicBytes(KB(8), 2)).error);
  EXPECT_EQ(parses.value(), 2u);
  EXPECT_FALSE(RenderWithReply(a, 7, ModelBytes(7, KB(6))).error);
  EXPECT_EQ(parses.value(), 3u);
  EXPECT_FALSE(RenderWithReply(b, 7, ModelBytes(7, KB(6))).error);
  EXPECT_EQ(parses.value(), 3u);
}

TEST_F(ClientInstallMemoTest, ClientWithoutAMemoParsesIntoItsPrivateOne) {
  CoicClient::Config config;
  config.metrics = &registry;
  config.metrics_prefix = "client.0.1.";
  ClientHarness solo(config);
  config.metrics_prefix = "client.0.2.";
  ClientHarness second(config);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(RenderWithReply(solo, 7, ModelBytes(7, KB(4))).error);
    EXPECT_FALSE(RenderWithReply(second, 7, ModelBytes(7, KB(4))).error);
  }
  // One parse per private memo; the shared memo saw none of them.
  EXPECT_EQ(registry.GetCounter("client.0.1.model_parses").value(), 1u);
  EXPECT_EQ(registry.GetCounter("client.0.2.model_parses").value(), 1u);
  EXPECT_EQ(parses.value(), 0u);
}

}  // namespace
}  // namespace coic::core
