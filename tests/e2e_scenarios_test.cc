// End-to-end cooperative scenarios — the paper's claims exercised as
// whole-system invariants rather than per-module units.
//
// Every test here wires the full stack together (CoicClient + EdgeService
// + CloudService over the netsim topology, driven by SimPipeline or
// CoopPipeline, fed by trace::WorkloadGenerator) and asserts a
// paper-shaped property:
//   * offloading over a fast link beats on-device compute, and gets
//     faster as the link gets faster;
//   * cache hit-rate rises as co-located users revisit similar contexts;
//   * a warm panorama stream stays inside a per-frame budget that a cold
//     (cloud-rendered) stream cannot meet, and a shaped link moves the
//     stream across that budget without errors;
//   * cooperating peer edges serve each other's misses faster than the
//     cloud;
//   * multi-client contention on one access link degrades latency
//     linearly (FIFO), never catastrophically.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "core/coop_pipeline.h"
#include "core/cost_model.h"
#include "core/metrics.h"
#include "core/sim_pipeline.h"
#include "federation/federation_pipeline.h"
#include "federation/summary.h"
#include "netsim/chaos.h"
#include "netsim/link.h"
#include "netsim/network.h"
#include "netsim/scheduler.h"
#include "trace/workload.h"

namespace coic {
namespace {

using core::CoopPipeline;
using core::CoopPipelineConfig;
using core::NetworkCondition;
using core::PipelineConfig;
using core::QoeAggregator;
using core::RequestOutcome;
using core::SimPipeline;
using proto::OffloadMode;
using proto::ResultSource;

// The paper's most constrained and most generous Figure 2a conditions.
const NetworkCondition kSlowCondition{Bandwidth::Mbps(90), Bandwidth::Mbps(9)};
const NetworkCondition kFastCondition{Bandwidth::Mbps(400), Bandwidth::Mbps(40)};

PipelineConfig ConfigFor(OffloadMode mode, const NetworkCondition& cond) {
  PipelineConfig config;
  config.mode = mode;
  config.network = cond;
  return config;
}

/// Mean recognition latency (ms) of `repeats` identical-scene requests on
/// a fresh pipeline in `mode`. In CoIC mode the first request is a cold
/// miss; with `skip_cold` the miss is excluded so the mean is a pure
/// warm-hit series.
double MeanRecognitionMs(OffloadMode mode, const NetworkCondition& cond,
                         int repeats, bool skip_cold) {
  SimPipeline pipeline(ConfigFor(mode, cond));
  pipeline.EnqueueRecognition({.scene_id = 3});
  const auto cold = pipeline.Run();
  QoeAggregator agg;
  if (!skip_cold) agg.AddAll(cold);
  for (int i = 0; i < repeats; ++i) {
    pipeline.EnqueueRecognition(
        {.scene_id = 3, .view_angle_deg = static_cast<double>(i - repeats / 2)});
  }
  agg.AddAll(pipeline.Run());
  return agg.MeanLatencyMs();
}

// ---------------------------------------------------------------------------
// Recognition offload latency
// ---------------------------------------------------------------------------

// Paper §1: offloading exists because on-device inference is too slow.
// Even a cold CoIC miss (descriptor to the cloud) and a cold Origin
// upload beat the Local baseline over a fast link.
TEST(E2eRecognition, OffloadingBeatsLocalOnFastLink) {
  const core::CostModel costs;
  const double local_ms = costs.recognition.local_full_inference.millis();
  const double origin_ms =
      MeanRecognitionMs(OffloadMode::kOrigin, kFastCondition, 2, false);
  const double coic_cold_ms =
      MeanRecognitionMs(OffloadMode::kCoic, kFastCondition, 0, false);
  EXPECT_LT(origin_ms, local_ms);
  EXPECT_LT(coic_cold_ms, local_ms);
}

// Figure 2a's x-axis: the same workload gets faster as the link does, in
// every mode.
TEST(E2eRecognition, LatencyDropsWhenLinkGetsFaster) {
  const double origin_slow =
      MeanRecognitionMs(OffloadMode::kOrigin, kSlowCondition, 2, false);
  const double origin_fast =
      MeanRecognitionMs(OffloadMode::kOrigin, kFastCondition, 2, false);
  EXPECT_LT(origin_fast, origin_slow);

  const double coic_slow =
      MeanRecognitionMs(OffloadMode::kCoic, kSlowCondition, 0, false);
  const double coic_fast =
      MeanRecognitionMs(OffloadMode::kCoic, kFastCondition, 0, false);
  EXPECT_LT(coic_fast, coic_slow);
}

// Figure 2a's headline: at the constrained condition a warm cache hit
// cuts recognition latency by a large fraction vs Origin (paper: up to
// 52.28%).
TEST(E2eRecognition, CacheHitCutsLatencyVsOriginWhenConstrained) {
  const double origin_ms =
      MeanRecognitionMs(OffloadMode::kOrigin, kSlowCondition, 4, false);
  const double hit_ms =
      MeanRecognitionMs(OffloadMode::kCoic, kSlowCondition, 4, true);
  ASSERT_GT(origin_ms, 0);
  const double reduction = (1.0 - hit_ms / origin_ms) * 100.0;
  EXPECT_GT(reduction, 40.0) << "origin=" << origin_ms << "ms hit=" << hit_ms
                             << "ms";
}

// ---------------------------------------------------------------------------
// Redundancy harvesting across similar contexts
// ---------------------------------------------------------------------------

/// Replays `records` and returns the cache hit-rate over just that batch.
double BatchHitRate(SimPipeline& pipeline,
                    const std::vector<trace::TraceRecord>& records) {
  const auto before = pipeline.edge_cache_stats();
  for (const auto& rec : records) pipeline.EnqueueRecognition(rec.scene);
  pipeline.Run();
  const auto after = pipeline.edge_cache_stats();
  const auto hits = after.hits - before.hits;
  const auto misses = after.misses - before.misses;
  return hits + misses == 0
             ? 0
             : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

// Paper §1.2: co-located users looking at the same objects from slightly
// different angles make the edge cache increasingly useful — the hit
// rate of the second half of a session exceeds the first half's, and a
// co-located population far out-hits a dispersed one.
TEST(E2eRedundancy, HitRateRisesAcrossSimilarContexts) {
  trace::WorkloadConfig workload;
  workload.users = 8;
  workload.objects = 16;
  workload.zipf_skew = 1.0;
  workload.colocated_fraction = 1.0;
  trace::WorkloadGenerator gen(workload);
  const auto records = gen.GenerateRecognition(120);
  const std::vector<trace::TraceRecord> first(records.begin(),
                                              records.begin() + 60);
  const std::vector<trace::TraceRecord> second(records.begin() + 60,
                                               records.end());

  PipelineConfig config = ConfigFor(OffloadMode::kCoic, kFastCondition);
  config.recognition_classes = 64;
  SimPipeline pipeline(config);
  const double cold_half = BatchHitRate(pipeline, first);
  const double warm_half = BatchHitRate(pipeline, second);
  EXPECT_GT(warm_half, cold_half);
  EXPECT_GT(warm_half, 0.5);
}

TEST(E2eRedundancy, ColocatedUsersOutHitDispersedUsers) {
  auto hit_rate_at = [](double colocated_fraction) {
    trace::WorkloadConfig workload;
    workload.users = 8;
    workload.objects = 16;
    workload.colocated_fraction = colocated_fraction;
    trace::WorkloadGenerator gen(workload);
    PipelineConfig config = ConfigFor(OffloadMode::kCoic, kFastCondition);
    config.recognition_classes = 64;
    SimPipeline pipeline(config);
    return BatchHitRate(pipeline, gen.GenerateRecognition(100));
  };
  EXPECT_GT(hit_rate_at(1.0), hit_rate_at(0.0) + 0.2);
}

// ---------------------------------------------------------------------------
// Rendering and panorama streaming
// ---------------------------------------------------------------------------

// Figure 2b: the second user to load a shared 3D model gets it from the
// edge cache, skipping the WAN transfer and the cloud-side load.
TEST(E2eRender, ModelLoadSharedAcrossUsers) {
  SimPipeline pipeline(ConfigFor(OffloadMode::kCoic, kFastCondition));
  pipeline.RegisterModel(7, Bytes{15'053'000});  // Figure 2b's largest asset
  pipeline.EnqueueRender(7);
  pipeline.EnqueueRender(7);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].source, ResultSource::kEdgeCache);
  EXPECT_FALSE(outcomes[1].error);
  // The warm load must save at least the WAN leg: well under half.
  EXPECT_LT(outcomes[1].latency.millis(), 0.5 * outcomes[0].latency.millis());
}

/// Streams `frames` panorama frames through `pipeline` and returns
/// per-frame outcomes.
std::vector<RequestOutcome> StreamPanorama(SimPipeline& pipeline,
                                           std::uint32_t frames) {
  for (std::uint32_t f = 0; f < frames; ++f) {
    pipeline.EnqueuePanorama(/*video_id=*/42, f);
  }
  return pipeline.Run();
}

/// Analytic warm-frame budget at wifi bandwidth `wifi`: cache lookup +
/// frame transfer + propagation both ways + client crop, with 30% slack.
double WarmFrameBudgetMs(const core::CostModel& costs, Bandwidth wifi) {
  const double transfer_ms =
      static_cast<double>(costs.panorama.frame_bytes) * 8.0 / wifi.mbps() / 1e3;
  const double fixed_ms = costs.edge.cache_lookup.millis() +
                          costs.panorama.client_crop.millis() +
                          2 * core::kMobileEdgePropagation.millis();
  return 1.3 * (transfer_ms + fixed_ms);
}

// A second viewer replaying the same panorama stream is served entirely
// from the edge cache and every frame lands inside the analytic frame
// budget — while the first (cold, cloud-rendered) pass cannot meet it.
TEST(E2ePanorama, WarmStreamStaysWithinFrameBudget) {
  SimPipeline pipeline(ConfigFor(OffloadMode::kCoic, kFastCondition));
  const auto cold = StreamPanorama(pipeline, 12);   // first viewer
  const auto warm = StreamPanorama(pipeline, 12);   // second viewer, same video
  const double budget_ms =
      WarmFrameBudgetMs(core::CostModel{}, kFastCondition.mobile_edge);

  for (const auto& frame : warm) {
    EXPECT_FALSE(frame.error);
    EXPECT_EQ(frame.source, ResultSource::kEdgeCache);
    EXPECT_LT(frame.latency.millis(), budget_ms);
  }
  QoeAggregator cold_agg, warm_agg;
  cold_agg.AddAll(cold);
  warm_agg.AddAll(warm);
  EXPECT_GT(cold_agg.MeanLatencyMs(), budget_ms);
  EXPECT_LT(3 * warm_agg.MeanLatencyMs(), cold_agg.MeanLatencyMs());
}

// The `tc` scenario: shaping the access link moves a warm stream across
// the frame budget smoothly — latency scales with bandwidth, nothing
// errors and nothing is dropped.
TEST(E2ePanorama, ShapedLinkDegradesWarmStreamGracefully) {
  SimPipeline pipeline(ConfigFor(OffloadMode::kCoic, kFastCondition));
  StreamPanorama(pipeline, 8);  // warm the cache
  const double budget_ms =
      WarmFrameBudgetMs(core::CostModel{}, kFastCondition.mobile_edge);

  // SimPipeline adds nodes in mobile, edge, cloud order; shape the
  // downlink that carries the frames (edge -> mobile).
  const netsim::NodeId mobile = 0, edge = 1;
  netsim::Link& downlink = pipeline.network().LinkBetween(edge, mobile);

  downlink.SetBandwidth(Bandwidth::Mbps(300));
  const auto shaped_ok = StreamPanorama(pipeline, 8);
  for (const auto& frame : shaped_ok) {
    EXPECT_FALSE(frame.error);
    EXPECT_LT(frame.latency.millis(),
              WarmFrameBudgetMs(core::CostModel{}, Bandwidth::Mbps(300)));
  }

  downlink.SetBandwidth(Bandwidth::Mbps(50));
  const auto shaped_slow = StreamPanorama(pipeline, 8);
  for (const auto& frame : shaped_slow) {
    EXPECT_FALSE(frame.error);
    EXPECT_EQ(frame.source, ResultSource::kEdgeCache);
    // The budget is no longer met, but the stream still flows at the
    // shaped rate instead of collapsing.
    EXPECT_GT(frame.latency.millis(), budget_ms);
    EXPECT_LT(frame.latency.millis(), 10 * budget_ms);
  }
  EXPECT_EQ(downlink.stats().frames_dropped_queue, 0u);
  EXPECT_EQ(downlink.stats().frames_dropped_loss, 0u);
}

// ---------------------------------------------------------------------------
// Cooperative edges
// ---------------------------------------------------------------------------

// The cooperative claim end-to-end: venue B's first sight of an object
// venue A already recognized is served over the peer LAN, faster than
// the identical topology without cooperation, and the aggregator books
// it as a (peer) hit.
TEST(E2eCooperative, PeerEdgeServesNeighborMissFasterThanCloud) {
  auto venue1_latency = [](bool cooperative) {
    CoopPipelineConfig config;
    config.cooperative = cooperative;
    config.network = kSlowCondition;  // expensive WAN: cooperation matters
    CoopPipeline pipeline(config);
    pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
    pipeline.EnqueueRecognitionAt(1, {.scene_id = 5, .view_angle_deg = 2});
    const auto outcomes = pipeline.Run();
    QoeAggregator agg;
    for (const auto& vo : outcomes) agg.Add(vo.outcome);
    EXPECT_EQ(agg.errors(), 0u);
    if (cooperative) {
      EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
      EXPECT_EQ(agg.peer_hits(), 1u);
      EXPECT_DOUBLE_EQ(agg.HitRate(), 0.5);
    } else {
      EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
      EXPECT_EQ(agg.peer_hits(), 0u);
    }
    return outcomes[1].outcome.latency.millis();
  };
  EXPECT_LT(venue1_latency(true), venue1_latency(false));
}

// ---------------------------------------------------------------------------
// Multi-client contention on the access link
// ---------------------------------------------------------------------------

// Eight clients' frames hit one AP uplink simultaneously. The FIFO link
// must deliver all of them, in order, with per-frame delay growing
// linearly in queue position — graceful degradation, not collapse.
TEST(E2eContention, SharedUplinkDegradesLinearly) {
  netsim::EventScheduler sched;
  netsim::Network net(sched);
  const auto mobile = net.AddNode("mobile");
  const auto edge = net.AddNode("edge");
  netsim::LinkConfig wifi;
  wifi.bandwidth = Bandwidth::Mbps(100);
  wifi.propagation = Duration::Millis(2);
  net.Connect(mobile, edge, wifi);

  constexpr int kClients = 8;
  constexpr Bytes kFrameBytes = 1'000'000;
  std::vector<double> delivered_ms;
  net.SetHandler(edge, [&](netsim::NodeId /*from*/, Frame /*payload*/,
                           Frame /*tail*/) {
    delivered_ms.push_back((sched.now() - SimTime::Epoch()).millis());
  });
  for (int c = 0; c < kClients; ++c) {
    net.Send(mobile, edge, ByteVec(kFrameBytes));
  }
  sched.Run();

  ASSERT_EQ(delivered_ms.size(), static_cast<std::size_t>(kClients));
  EXPECT_TRUE(std::is_sorted(delivered_ms.begin(), delivered_ms.end()));
  const double serialization_ms = kFrameBytes * 8.0 / wifi.bandwidth.mbps() / 1e3;
  for (int i = 0; i < kClients; ++i) {
    const double expected = (i + 1) * serialization_ms +
                            wifi.propagation.millis();
    EXPECT_NEAR(delivered_ms[static_cast<std::size_t>(i)], expected,
                0.1 * expected)
        << "frame " << i;
  }
  const auto& stats = net.LinkBetween(mobile, edge).stats();
  EXPECT_EQ(stats.frames_delivered, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.frames_dropped_queue, 0u);
  EXPECT_EQ(stats.frames_dropped_loss, 0u);
}

// ---------------------------------------------------------------------------
// Whole-session traces
// ---------------------------------------------------------------------------

/// Replays a mixed trace through `pipeline` (models must be registered).
std::vector<RequestOutcome> ReplayMixed(
    SimPipeline& pipeline, const std::vector<trace::TraceRecord>& records) {
  for (const auto& rec : records) {
    switch (rec.type) {
      case trace::IcTaskType::kRecognition:
        pipeline.EnqueueRecognition(rec.scene);
        break;
      case trace::IcTaskType::kRender:
        pipeline.EnqueueRender(rec.model_id);
        break;
      case trace::IcTaskType::kPanorama:
        pipeline.EnqueuePanorama(rec.video_id, rec.frame_index);
        break;
    }
  }
  return pipeline.Run();
}

PipelineConfig MixedTraceConfig() {
  PipelineConfig config = ConfigFor(OffloadMode::kCoic, kFastCondition);
  config.recognition_classes = 64;
  return config;
}

const std::vector<std::uint64_t> kMixedModels{101, 102, 103};

void RegisterMixedModels(SimPipeline& pipeline) {
  Bytes size = 2'000'000;
  for (const auto id : kMixedModels) {
    pipeline.RegisterModel(id, size);
    size += 1'500'000;
  }
}

// A full co-located AR session (recognition-heavy with renders and
// panorama frames interleaved) runs end-to-end with zero errors and
// harvests cross-user redundancy.
TEST(E2eTrace, MixedSessionCompletesAndHarvestsRedundancy) {
  trace::WorkloadConfig workload;
  workload.users = 6;
  workload.objects = 12;
  workload.colocated_fraction = 1.0;
  trace::WorkloadGenerator gen(workload);
  const auto records =
      gen.GenerateMixed(90, kMixedModels, /*video_id=*/42);

  SimPipeline pipeline(MixedTraceConfig());
  RegisterMixedModels(pipeline);
  const auto outcomes = ReplayMixed(pipeline, records);

  ASSERT_EQ(outcomes.size(), records.size());
  QoeAggregator agg;
  agg.AddAll(outcomes);
  EXPECT_EQ(agg.errors(), 0u);
  EXPECT_GT(agg.HitRate(), 0.3);  // redundancy must be harvested
  EXPECT_GT(pipeline.edge_cache_stats().insertions, 0u);
}

// Record/replay integrity: a serialized trace deserializes to records
// that drive a bit-identical simulation (same sources, same latencies).
TEST(E2eTrace, SerializedTraceReplaysIdentically) {
  trace::WorkloadConfig workload;
  workload.users = 4;
  workload.objects = 10;
  trace::WorkloadGenerator gen(workload);
  const auto records = gen.GenerateMixed(40, kMixedModels, /*video_id=*/42);

  const ByteVec bytes = trace::SerializeTrace(records);
  const auto decoded = trace::DeserializeTrace(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), records.size());

  SimPipeline original(MixedTraceConfig());
  RegisterMixedModels(original);
  SimPipeline replayed(MixedTraceConfig());
  RegisterMixedModels(replayed);
  const auto a = ReplayMixed(original, records);
  const auto b = ReplayMixed(replayed, decoded.value());

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source) << "request " << i;
    EXPECT_EQ(a[i].task, b[i].task) << "request " << i;
    EXPECT_DOUBLE_EQ(a[i].latency.millis(), b[i].latency.millis())
        << "request " << i;
  }
}

// Byte pressure: the same co-located session against a cache two orders
// of magnitude too small still completes without errors — hit rate
// drops, latency stays between the warm and Origin extremes.
TEST(E2eTrace, TinyCacheDegradesGracefullyUnderBytePressure) {
  trace::WorkloadConfig workload;
  workload.users = 6;
  workload.objects = 12;
  workload.colocated_fraction = 1.0;

  auto run_with_capacity = [&](Bytes capacity) {
    trace::WorkloadGenerator gen(workload);
    PipelineConfig config = MixedTraceConfig();
    config.cache.capacity_bytes = capacity;
    SimPipeline pipeline(config);
    QoeAggregator agg;
    for (const auto& rec : gen.GenerateRecognition(80)) {
      pipeline.EnqueueRecognition(rec.scene);
    }
    agg.AddAll(pipeline.Run());
    EXPECT_EQ(agg.errors(), 0u);
    return agg;
  };

  const auto unlimited = run_with_capacity(0);
  const auto tiny = run_with_capacity(1'000'000);  // ~2 annotations
  EXPECT_LT(tiny.HitRate(), unlimited.HitRate());
  // Still an offload pipeline: every request completed and latency stays
  // bounded by the cold path (plus scheduler fuzz), not runaway queueing.
  EXPECT_GE(tiny.MeanLatencyMs(), unlimited.MeanLatencyMs());
  EXPECT_LT(tiny.MeanLatencyMs(),
            2.0 * MeanRecognitionMs(OffloadMode::kOrigin, kFastCondition, 2,
                                    false));
}

// ---------------------------------------------------------------------------
// Scenario: edge federation at metro scale. K venues each serve their
// own crowd drawing from one shared-object pool; federation pools the
// venues' caches, so an object computed once anywhere serves the whole
// cluster. Cluster-wide hit rate must therefore rise monotonically with
// cluster size (1 -> 2 -> 4 -> 8 edges), and summary-directed lookup
// must match broadcast's hit rate (within 2%) while probing far less.
// ---------------------------------------------------------------------------

struct ClusterRun {
  double hit_rate = 0;
  std::uint64_t peer_probes = 0;
  std::uint64_t peer_hits = 0;
};

ClusterRun RunSharedObjectCluster(std::uint32_t venues,
                                  federation::PeerSelectKind policy) {
  federation::FederationPipelineConfig config;
  config.venues = venues;
  config.policy.kind = policy;
  // Gossip effectively before every operation: the residual directed-vs-
  // broadcast gap is then Bloom/centroid quality, not staleness.
  config.gossip_period = Duration::Millis(1);
  federation::FederationPipeline pipeline(config);

  // A 12-object shared catalogue of mid-size models, Zipf popularity.
  constexpr std::uint32_t kObjects = 12;
  constexpr std::size_t kRequestsPerVenue = 30;
  std::vector<std::uint64_t> model_ids;
  for (std::uint64_t m = 1; m <= kObjects; ++m) {
    pipeline.RegisterModel(m, KB(200) + m * KB(10));
    model_ids.push_back(m);
  }
  Rng rng(0xE2E);  // same seed for every cluster size and policy
  ZipfDistribution popularity(kObjects, 0.9);
  for (std::size_t i = 0; i < kRequestsPerVenue; ++i) {
    for (std::uint32_t v = 0; v < venues; ++v) {
      pipeline.EnqueueRenderAt(v, model_ids[popularity.Sample(rng)]);
    }
  }

  QoeAggregator agg;
  for (const auto& outcome : pipeline.Run()) {
    EXPECT_FALSE(outcome.outcome.error);
    agg.Add(outcome.outcome);
  }
  return {agg.HitRate(), pipeline.total_peer_probes(),
          pipeline.total_peer_hits()};
}

TEST(E2eFederationScenario, ClusterHitRateRisesMonotonicallyWithEdges) {
  double previous = -1;
  for (const std::uint32_t venues : {1u, 2u, 4u, 8u}) {
    const auto run = RunSharedObjectCluster(
        venues, federation::PeerSelectKind::kBroadcastAll);
    EXPECT_GT(run.hit_rate, previous)
        << venues << "-edge cluster did not improve on the previous size";
    previous = run.hit_rate;
    if (venues > 1) {
      EXPECT_GT(run.peer_hits, 0u);
    }
  }
  // The 8-edge cluster pools every venue's results: each object is
  // computed in the cloud roughly once for the whole metro, so the
  // cluster-wide hit rate clears 80% on this workload.
  EXPECT_GT(previous, 0.8);
}

TEST(E2eFederationScenario, SummaryDirectedMatchesBroadcastWithFarFewerProbes) {
  const auto broadcast = RunSharedObjectCluster(
      8, federation::PeerSelectKind::kBroadcastAll);
  const auto directed = RunSharedObjectCluster(
      8, federation::PeerSelectKind::kSummaryDirected);

  // Within two percentage points of the broadcast hit-rate ceiling...
  EXPECT_GE(directed.hit_rate, broadcast.hit_rate - 0.02);
  // ...while sending a fraction of the probes: broadcast pays 7 probes
  // per miss, directed pays at most one (and zero for cluster-cold
  // objects).
  EXPECT_GT(broadcast.peer_probes, 0u);
  EXPECT_LT(directed.peer_probes, broadcast.peer_probes / 4);
  // Both designs convert misses into peer hits.
  EXPECT_GT(directed.peer_hits, 0u);
}

// ---------------------------------------------------------------------------
// Scenario: relay storms on a ring. Broadcast probing an 8-ring sends
// most probes to venues 2-4 hops away, so every miss floods the shared
// venue links with FederatedRelay traffic — the same links that carry
// the peer replies serving actual client requests. The relay volume
// must follow exactly from the topology, and shaping those links may
// inflate the relay-path tail but never drop or error a request.
// ---------------------------------------------------------------------------

federation::FederationPipelineConfig RingStormConfig(double peer_mbps) {
  federation::FederationPipelineConfig config;
  config.venues = 8;
  config.topology = federation::TopologyKind::kRing;
  config.policy.kind = federation::PeerSelectKind::kBroadcastAll;
  // Gossip off: broadcast needs no summaries, and keeping summary
  // frames off the ring makes the relay arithmetic below exact.
  config.gossip_period = Duration::Infinite();
  config.peer_link.bandwidth = Bandwidth::Mbps(peer_mbps);
  config.peer_link.propagation = Duration::Millis(1);
  config.network =
      NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  return config;
}

TEST(E2eRelayStorm, RelayVolumeFollowsFromRingTopology) {
  // From any venue of an 8-ring the seven peers sit at hop distances
  // {1,1,2,2,3,3,4}; a probe to distance d costs d-1 relay forwards and
  // its reply d-1 more, so one full broadcast fan-out costs
  // 2 * sum(d-1) = 18 forwards. Two misses that each fan out -> 36.
  federation::FederationPipeline pipeline(RingStormConfig(1000.0));
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(0, 1);  // cold miss: probes all 7, all miss
  pipeline.EnqueueRenderAt(4, 1);  // miss at the antipode: venue 0 hits
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(pipeline.total_peer_probes(), 14u);
  EXPECT_EQ(pipeline.relay_forwards(), 36u);
}

TEST(E2eRelayStorm, ShapedRingBoundsRelayPathInflation) {
  // The storm: 240 requests at 600 req/s round-robin over the ring, so
  // concurrent broadcast fan-outs queue relays behind replies on the
  // shared links. Identical workload on provisioned (1 Gbps) and shaped
  // (25 Mbps) venue links.
  auto run_storm = [](double peer_mbps) {
    federation::FederationPipeline pipeline(RingStormConfig(peer_mbps));
    constexpr std::uint32_t kModels = 10;
    for (std::uint64_t m = 1; m <= kModels; ++m) {
      pipeline.RegisterModel(m, KB(64) + m * KB(4));
    }
    // The same canonical storm the bench's relay-storm table measures,
    // so the p99 bound asserted here guards exactly that scenario.
    const auto placed = trace::MakeRenderStorm(8, 240, 600.0, kModels);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    QoeAggregator agg;
    for (const auto& o : pipeline.RunOpenLoop()) {
      EXPECT_FALSE(o.outcome.error);
      agg.Add(o.outcome);
    }
    struct { double p99_ms; std::uint64_t relays, probes; } result{
        agg.PercentileLatencyMs(99), pipeline.relay_forwards(),
        pipeline.total_peer_probes()};
    return result;
  };

  const auto fast = run_storm(1000.0);
  const auto shaped = run_storm(25.0);

  // With gossip off, every probe set is a full 7-peer broadcast costing
  // 18 forwards: relay volume is exactly topology * fan-outs on both
  // links (concurrent same-key misses may differ in count between the
  // two timings, but each fan-out's relay cost cannot).
  EXPECT_GT(fast.probes, 0u);
  EXPECT_EQ(fast.probes % 7, 0u);
  EXPECT_EQ(fast.relays, fast.probes / 7 * 18);
  EXPECT_EQ(shaped.probes % 7, 0u);
  EXPECT_EQ(shaped.relays, shaped.probes / 7 * 18);

  // Shaping inflates the relay-path tail, but boundedly: the storm
  // queues, it does not collapse.
  EXPECT_GT(shaped.p99_ms, fast.p99_ms);
  EXPECT_LT(shaped.p99_ms, 3.0 * fast.p99_ms);
}

// ---------------------------------------------------------------------------
// Scenario: an edge crashes and later rejoins. While it is dark its
// peers must first survive probing it (probe timeout -> cloud fallback),
// then stop probing it at all (summary max-age sweep), and once it is
// back the periodic gossip must rebuild every peer's view so
// cooperation resumes — no request ever errors or hangs across the
// whole fault cycle.
// ---------------------------------------------------------------------------

trace::PlacedRecord PlacedRenderAt(std::uint32_t venue, std::uint64_t model,
                                   std::int64_t at_us) {
  trace::PlacedRecord p;
  p.venue = venue;
  p.record.type = trace::IcTaskType::kRender;
  p.record.model_id = model;
  p.record.at = SimTime::FromMicros(at_us);
  return p;
}

TEST(E2eCrashRejoin, PeersAgeOutADeadEdgeThenRebuildItsViewOnRejoin) {
  federation::FederationPipelineConfig config;
  config.venues = 3;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(50);
  config.network =
      NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  config.transport.peer_probe_timeout = Duration::Millis(10);
  config.transport.summary_max_age = Duration::Millis(120);
  federation::FederationPipeline pipeline(config);
  for (std::uint64_t m = 1; m <= 3; ++m) pipeline.RegisterModel(m, KB(64));

  // Venue 1 warms all three models, then crashes holding the only
  // cached copies.
  pipeline.EnqueuePlaced(PlacedRenderAt(1, 1, 5'000));
  pipeline.EnqueuePlaced(PlacedRenderAt(1, 2, 10'000));
  pipeline.EnqueuePlaced(PlacedRenderAt(1, 3, 15'000));
  // Healthy cooperative phase: venue 0's miss is served by venue 1.
  pipeline.EnqueuePlaced(PlacedRenderAt(0, 1, 100'000));
  // Venue 1 dies at 150 ms. This request still steers at its (not yet
  // aged) summary, eats one probe timeout, and falls back to the cloud.
  pipeline.EnqueuePlaced(PlacedRenderAt(0, 2, 200'000));
  // After the max-age sweep the dead edge's summary is gone: this one
  // goes straight to the cloud without probing at all.
  pipeline.EnqueuePlaced(PlacedRenderAt(2, 3, 320'000));
  // After the 400 ms rejoin, gossip has reinstalled summaries and the
  // cluster cooperates again.
  pipeline.EnqueuePlaced(PlacedRenderAt(2, 2, 550'000));

  auto& net = pipeline.network();
  const netsim::NodeId e0 = pipeline.edge_node(0);
  const netsim::NodeId e1 = pipeline.edge_node(1);
  const netsim::NodeId e2 = pipeline.edge_node(2);
  const auto set_peer_links_down = [&](bool down) {
    net.LinkBetween(e1, e0).SetDown(down);
    net.LinkBetween(e0, e1).SetDown(down);
    net.LinkBetween(e1, e2).SetDown(down);
    net.LinkBetween(e2, e1).SetDown(down);
  };
  pipeline.scheduler().ScheduleAt(SimTime::FromMicros(150'000),
                                  [&] { set_peer_links_down(true); });
  // Just before the rejoin, both survivors must have swept the dead
  // edge's summary out of their tables.
  pipeline.scheduler().ScheduleAt(SimTime::FromMicros(390'000), [&] {
    EXPECT_EQ(pipeline.summary_table(0).For(1), nullptr);
    EXPECT_EQ(pipeline.summary_table(2).For(1), nullptr);
  });
  pipeline.scheduler().ScheduleAt(SimTime::FromMicros(400'000),
                                  [&] { set_peer_links_down(false); });

  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 7u);
  for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
  // Exactly one request probed the dead edge (the 200 ms one); the
  // post-sweep request at 320 ms did not probe, so no second timeout.
  EXPECT_EQ(pipeline.edge(0).probe_timeouts(), 1u);
  EXPECT_EQ(pipeline.edge(2).probe_timeouts(), 0u);
  // Both survivors aged venue 1 out (the isolated venue 1 symmetrically
  // ages out its own stale peer views, hence >=).
  EXPECT_GE(pipeline.summaries_aged_out(), 2u);
  // Cooperation worked before the crash and again after the rejoin.
  EXPECT_GE(pipeline.total_peer_hits(), 2u);
  EXPECT_NE(pipeline.summary_table(0).For(1), nullptr);
  EXPECT_NE(pipeline.summary_table(2).For(1), nullptr);
}

// ---------------------------------------------------------------------------
// Scenario: a scripted partition splits the cluster in two; both sides
// keep serving and warm divergent cache state. After the heal, gossip
// must reconverge every survivor to the same view — byte-identical
// summary encodings on both sides of the former cut — and cooperation
// across the cut must work again.
// ---------------------------------------------------------------------------

ByteVec EncodeSummaryView(const federation::CacheSummary& summary) {
  ByteWriter w;
  summary.ToWire().Encode(w);
  return w.TakeBytes();
}

TEST(E2eChaos, PartitionHealReconvergesByteIdenticalSummaryViews) {
  federation::FederationPipelineConfig config;
  config.venues = 4;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(50);
  config.network =
      NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  // The cut and heal come from the declarative chaos schedule, not from
  // hand-scheduled SetDown events.
  netsim::FaultSchedule::Partition part;
  part.island = {2, 3};
  part.at = SimTime::FromMicros(100'000);
  part.heal_at = SimTime::FromMicros(400'000);
  config.chaos.partitions.push_back(part);
  federation::FederationPipeline pipeline(config);
  for (std::uint64_t m = 1; m <= 4; ++m) pipeline.RegisterModel(m, KB(64));

  // Pre-partition warm-up on the main side.
  pipeline.EnqueuePlaced(PlacedRenderAt(0, 1, 50'000));
  // Mid-partition: each side warms a model the other cannot see yet —
  // their summary views of each other go stale across the cut.
  pipeline.EnqueuePlaced(PlacedRenderAt(1, 2, 200'000));
  pipeline.EnqueuePlaced(PlacedRenderAt(2, 3, 200'000));
  // Post-heal: keep gossip alive long enough to reconverge, then prove
  // cooperation across the former cut works again — venue 3 pulls the
  // model only venue 1 (other side of the cut) holds.
  pipeline.EnqueuePlaced(PlacedRenderAt(0, 1, 700'000));
  pipeline.EnqueuePlaced(PlacedRenderAt(0, 1, 1'000'000));
  pipeline.EnqueuePlaced(PlacedRenderAt(3, 2, 1'300'000));

  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 6u);
  for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
  ASSERT_NE(pipeline.chaos(), nullptr);
  EXPECT_EQ(pipeline.chaos()->events_fired(), 2u);  // partition + heal
  EXPECT_EQ(pipeline.metrics().GetCounter("fault.partitions").value(), 1u);
  EXPECT_EQ(pipeline.metrics().GetCounter("fault.heals").value(), 1u);
  // The former cut is crossable again: venue 3's miss was served by
  // venue 1's cache, not the cloud.
  EXPECT_EQ(outcomes.back().outcome.source, ResultSource::kPeerEdge);

  // Reconvergence: for every subject venue, every other venue holds the
  // same version of its summary — byte-identical on the wire, on both
  // sides of the former cut.
  for (std::uint32_t subject = 0; subject < 4; ++subject) {
    std::vector<ByteVec> views;
    for (std::uint32_t observer = 0; observer < 4; ++observer) {
      if (observer == subject) continue;
      const federation::CacheSummary* view =
          pipeline.summary_table(observer).For(subject);
      ASSERT_NE(view, nullptr)
          << "venue " << observer << " lost venue " << subject;
      views.push_back(EncodeSummaryView(*view));
    }
    for (std::size_t i = 1; i < views.size(); ++i) {
      EXPECT_EQ(views[i], views[0])
          << "divergent views of venue " << subject << " after heal";
    }
  }
}

TEST(E2eChaos, IdenticalSeedAndScheduleReplayIdentically) {
  // The chaos engine rides the event scheduler and every loss draw comes
  // from seeded rngs: the same config + schedule + trace must produce
  // the same outcome stream, fault timing included, run after run.
  const auto run = [] {
    federation::FederationPipelineConfig config;
    config.venues = 3;
    config.mobiles_per_venue = 2;
    config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
    config.gossip_period = Duration::Millis(50);
    config.network =
        NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
    config.transport = federation::FederationTransportConfig::Lossy(0.01);
    config.transport.edge_max_pending = 32;
    config.transport.breaker_failure_threshold = 4;
    config.transport.client_deadline = Duration::Millis(2500);
    config.transport.client_local_fallback = true;

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
    wl.venues = 3;
    trace::ClusterWorkloadGenerator gen(wl);
    const std::vector<std::uint64_t> models = {1, 2, 3, 4, 5, 6};
    auto placed = gen.GenerateMixed(150, models, 7);
    trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), 100.0);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);

    using Row = std::tuple<std::uint32_t, proto::TaskKind, ResultSource, bool,
                           std::int64_t, std::int64_t>;
    std::vector<Row> rows;
    for (const auto& o : pipeline.RunOpenLoop()) {
      rows.emplace_back(o.venue, o.outcome.task, o.outcome.source,
                        o.outcome.error, o.outcome.latency.micros(),
                        (o.completed_at - SimTime::Epoch()).micros());
    }
    const std::uint64_t faults = pipeline.chaos()->events_fired();
    return std::pair{std::move(rows), faults};
  };

  const auto [first, faults_a] = run();
  const auto [second, faults_b] = run();
  EXPECT_EQ(faults_a, 5u);  // crash + wipe + restart + burst + burst-end
  EXPECT_EQ(faults_b, faults_a);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "outcome " << i << " diverged";
  }
}

}  // namespace
}  // namespace coic
