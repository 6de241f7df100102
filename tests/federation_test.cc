// Tests for the edge-federation subsystem: topology building and
// routing, cache-content summaries (Bloom filter + centroid sketch),
// peer-selection policies, and the N-edge FederationPipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "federation/peer_select.h"
#include "federation/summary.h"
#include "federation/topology.h"
#include "trace/workload.h"

namespace coic {
namespace {

using federation::BloomFilter;
using federation::BloomFilterConfig;
using federation::CacheSummary;
using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using federation::MakePeerSelectPolicy;
using federation::PeerSelectConfig;
using federation::PeerSelectKind;
using federation::SummaryTable;
using federation::Topology;
using federation::TopologyKind;
using proto::ResultSource;

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

netsim::LinkConfig Lan() {
  netsim::LinkConfig link;
  link.bandwidth = Bandwidth::Gbps(1);
  link.propagation = Duration::Millis(1);
  return link;
}

TEST(TopologyTest, StarShape) {
  const auto topo = Topology::Star(5, Lan());
  EXPECT_EQ(topo.links().size(), 4u);
  EXPECT_TRUE(topo.Adjacent(0, 3));
  EXPECT_FALSE(topo.Adjacent(1, 2));
  EXPECT_EQ(topo.HopDistance(1, 2), 2u);  // leaf -> hub -> leaf
  EXPECT_EQ(topo.NextHop(1, 2), 0u);
  EXPECT_EQ(topo.NextHop(1, 0), 0u);
}

TEST(TopologyTest, RingShape) {
  const auto topo = Topology::Ring(6, Lan());
  EXPECT_EQ(topo.links().size(), 6u);
  EXPECT_TRUE(topo.Adjacent(0, 5));
  EXPECT_EQ(topo.HopDistance(0, 3), 3u);  // antipode
  EXPECT_EQ(topo.HopDistance(0, 4), 2u);  // shorter way round
  EXPECT_EQ(topo.NextHop(0, 4), 5u);
}

TEST(TopologyTest, TwoVenueRingIsOneLink) {
  const auto topo = Topology::Ring(2, Lan());
  EXPECT_EQ(topo.links().size(), 1u);
  EXPECT_TRUE(topo.Adjacent(0, 1));
}

TEST(TopologyTest, FullMeshAllPairsAdjacent) {
  const auto topo = Topology::FullMesh(4, Lan());
  EXPECT_EQ(topo.links().size(), 6u);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_TRUE(topo.Adjacent(a, b));
      }
    }
  }
}

TEST(TopologyTest, CustomDisconnectedComponents) {
  const auto topo = Topology::Custom(4, {{0, 1, Lan()}, {2, 3, Lan()}});
  EXPECT_EQ(topo.HopDistance(0, 1), 1u);
  EXPECT_EQ(topo.HopDistance(0, 2), Topology::kUnreachable);
  const auto reachable = topo.ReachableWithin(0, 8);
  EXPECT_EQ(reachable, std::vector<std::uint32_t>{1});
}

TEST(TopologyTest, ReachableWithinRespectsHopLimit) {
  const auto topo = Topology::Star(5, Lan());
  // From a leaf, one hop reaches only the hub.
  EXPECT_EQ(topo.ReachableWithin(1, 1), std::vector<std::uint32_t>{0});
  EXPECT_EQ(topo.ReachableWithin(1, 2).size(), 4u);
}

// ---------------------------------------------------------------------------
// Bloom filter / CacheSummary
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(BloomFilterConfig{.bits = 4096, .hashes = 4});
  for (std::uint64_t key = 0; key < 300; ++key) bloom.Insert(key * 977 + 13);
  for (std::uint64_t key = 0; key < 300; ++key) {
    EXPECT_TRUE(bloom.MayContain(key * 977 + 13));
  }
}

TEST(BloomFilterTest, FalsePositiveRateUnderBoundAtDesignLoad) {
  // Design load: the default 8192-bit / 4-hash filter advertising 400
  // cached descriptors. The analytic bound is ~2.4%; measure against
  // 20k absent keys and allow 2x sampling slack.
  BloomFilter bloom(BloomFilterConfig{});
  for (std::uint64_t key = 0; key < 400; ++key) {
    bloom.Insert(key * 0x9E3779B9ULL + 1);
  }
  const double bound = bloom.EstimatedFpRate();
  EXPECT_GT(bound, 0.0);
  EXPECT_LT(bound, 0.05);
  std::uint64_t false_positives = 0;
  constexpr std::uint64_t kProbes = 20'000;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    if (bloom.MayContain(0xABCDEF000000ULL + i)) ++false_positives;
  }
  const double measured =
      static_cast<double>(false_positives) / static_cast<double>(kProbes);
  EXPECT_LE(measured, 2.0 * bound)
      << "measured FPR " << measured << " vs analytic bound " << bound;
}

TEST(BloomFilterTest, EmptyFilterMatchesNothing) {
  BloomFilter bloom(BloomFilterConfig{});
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) hits += bloom.MayContain(i);
  EXPECT_EQ(hits, 0u);
}

proto::FeatureDescriptor RenderKey(std::uint64_t lo) {
  return proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                           Digest128{0xABC, lo});
}

TEST(CacheSummaryTest, BuildDigestsHashAndVectorKeys) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(100, 1), SimTime::Epoch());
  cache.Insert(RenderKey(2), DeterministicBytes(100, 2), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {1.0f, 0.0f}),
               DeterministicBytes(100, 3), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {0.0f, 1.0f}),
               DeterministicBytes(100, 4), SimTime::Epoch());

  const auto summary = CacheSummary::Build(3, 7, cache, BloomFilterConfig{});
  EXPECT_EQ(summary.edge_id(), 3u);
  EXPECT_EQ(summary.version(), 7u);
  EXPECT_EQ(summary.bloom().inserted(), 2u);
  EXPECT_DOUBLE_EQ(summary.MatchScore(RenderKey(1)), 1.0);
  EXPECT_DOUBLE_EQ(summary.MatchScore(RenderKey(999)), 0.0);

  const auto& sketch = summary.sketch(proto::TaskKind::kRecognition);
  EXPECT_EQ(sketch.count, 2u);
  ASSERT_EQ(sketch.centroid.size(), 2u);
  EXPECT_FLOAT_EQ(sketch.centroid[0], 0.5f);
  EXPECT_FLOAT_EQ(sketch.centroid[1], 0.5f);

  // A query near the centroid scores higher than a distant one.
  const auto near = proto::FeatureDescriptor::ForVector(
      proto::TaskKind::kRecognition, {0.6f, 0.5f});
  const auto far = proto::FeatureDescriptor::ForVector(
      proto::TaskKind::kRecognition, {-1.0f, -1.0f});
  EXPECT_GT(summary.MatchScore(near), summary.MatchScore(far));
  EXPECT_GT(summary.MatchScore(far), 0.0);
}

TEST(CacheSummaryTest, WireRoundTripIsByteExact) {
  cache::IcCache cache(cache::IcCacheConfig{});
  for (std::uint64_t k = 1; k <= 20; ++k) {
    cache.Insert(RenderKey(k), DeterministicBytes(64, k), SimTime::Epoch());
  }
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {0.25f, -0.5f, 0.75f}),
               DeterministicBytes(64, 99), SimTime::Epoch());
  const auto summary = CacheSummary::Build(2, 11, cache, BloomFilterConfig{});
  const proto::SummaryUpdate wire = summary.ToWire();

  // Encode -> decode -> re-encode must reproduce the bytes exactly.
  const ByteVec frame =
      proto::EncodeMessage(proto::MessageType::kSummaryUpdate, 11, wire);
  auto env = proto::DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  auto decoded = proto::DecodePayloadAs<proto::SummaryUpdate>(
      env.value(), proto::MessageType::kSummaryUpdate);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), wire);
  const ByteVec reencoded = proto::EncodeMessage(
      proto::MessageType::kSummaryUpdate, 11, decoded.value());
  EXPECT_EQ(reencoded, frame);

  // And the reconstructed summary answers queries identically.
  auto rebuilt = CacheSummary::FromWire(decoded.value());
  ASSERT_TRUE(rebuilt.ok());
  for (std::uint64_t k = 1; k <= 20; ++k) {
    EXPECT_EQ(rebuilt.value().MatchScore(RenderKey(k)),
              summary.MatchScore(RenderKey(k)));
  }
}

TEST(SummaryDeltaTest, ApplyMatchesFullRebuildByteForByte) {
  // The delta contract: a receiver holding version B that applies the
  // delta B -> V must end up byte-identical to the sender's freshly
  // built version-V summary — Bloom insertion is an order-independent
  // OR, and centroid sketches are replaced wholesale.
  cache::IcCacheConfig cache_config;
  cache_config.journal_capacity = 64;
  cache::IcCache cache(cache_config);
  cache.Insert(RenderKey(1), DeterministicBytes(32, 1), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {1.0f, 0.0f}),
               DeterministicBytes(32, 2), SimTime::Epoch());
  const auto base = CacheSummary::Build(2, 7, cache, {});
  const std::uint64_t cursor = cache.journal_cursor();

  cache.Insert(RenderKey(2), DeterministicBytes(32, 3), SimTime::Epoch());
  cache.Insert(RenderKey(3), DeterministicBytes(32, 4), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {0.0f, 1.0f}),
               DeterministicBytes(32, 5), SimTime::Epoch());
  const auto fresh = CacheSummary::Build(2, 8, cache, {});

  std::vector<std::uint64_t> inserted;
  ASSERT_TRUE(cache.ForEachJournaled(
      cursor, [&](const cache::CacheJournalEntry& e) {
        ASSERT_FALSE(e.erased);
        inserted.push_back(e.index_key);
      }));
  const proto::SummaryDeltaUpdate delta =
      fresh.ToWireDelta(base.version(), std::move(inserted));

  CacheSummary patched = base;
  ASSERT_TRUE(patched.ApplyDelta(delta).ok());
  EXPECT_EQ(patched.version(), 8u);
  const ByteVec from_delta =
      proto::EncodeMessage(proto::MessageType::kSummaryUpdate, 1,
                           patched.ToWire());
  const ByteVec from_full = proto::EncodeMessage(
      proto::MessageType::kSummaryUpdate, 1, fresh.ToWire());
  EXPECT_EQ(from_delta, from_full);

  // And the delta frame is what the full frame is not: small.
  EXPECT_LT(delta.WireSize(), fresh.ToWire().WireSize() / 4);
}

TEST(SummaryDeltaTest, ApplyRejectsMismatches) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(16, 1), SimTime::Epoch());
  CacheSummary base = CacheSummary::Build(2, 7, cache, {});
  cache.Insert(RenderKey(2), DeterministicBytes(16, 2), SimTime::Epoch());
  const auto fresh = CacheSummary::Build(2, 8, cache, {});

  // Wrong edge.
  proto::SummaryDeltaUpdate delta =
      fresh.ToWireDelta(7, {RenderKey(2).IndexKey()});
  delta.edge_id = 3;
  EXPECT_FALSE(base.ApplyDelta(delta).ok());
  // Wrong base version.
  delta = fresh.ToWireDelta(6, {RenderKey(2).IndexKey()});
  EXPECT_FALSE(base.ApplyDelta(delta).ok());
  // Key count that does not compose (claims 1 key but base already has 1
  // and the delta adds 1 -> absolute must be 2).
  delta = fresh.ToWireDelta(7, {RenderKey(2).IndexKey()});
  delta.bloom_inserted = 1;
  EXPECT_FALSE(base.ApplyDelta(delta).ok());
  // All rejections left the base untouched.
  EXPECT_EQ(base.version(), 7u);
  EXPECT_EQ(base.bloom().inserted(), 1u);
  // The well-formed delta still applies.
  delta = fresh.ToWireDelta(7, {RenderKey(2).IndexKey()});
  EXPECT_TRUE(base.ApplyDelta(delta).ok());
  EXPECT_DOUBLE_EQ(base.MatchScore(RenderKey(2)), 1.0);
}

TEST(SummaryTableTest, ApplyDeltaRequiresBaseSummary) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(16, 1), SimTime::Epoch());
  const auto v1 = CacheSummary::Build(2, 1, cache, {});
  cache.Insert(RenderKey(2), DeterministicBytes(16, 2), SimTime::Epoch());
  const auto v2 = CacheSummary::Build(2, 2, cache, {});
  const auto delta = v2.ToWireDelta(1, {RenderKey(2).IndexKey()});

  SummaryTable table(4);
  // No base summary yet: the delta has nothing to extend.
  EXPECT_FALSE(table.ApplyDelta(delta).ok());
  table.Update(v1);
  EXPECT_TRUE(table.ApplyDelta(delta).ok());
  ASSERT_NE(table.For(2), nullptr);
  EXPECT_EQ(table.For(2)->version(), 2u);
  // Replay of the same delta: base no longer matches.
  EXPECT_FALSE(table.ApplyDelta(delta).ok());
}

TEST(SummaryTableTest, KeepsFreshestVersion) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(10, 1), SimTime::Epoch());
  SummaryTable table(4);
  EXPECT_EQ(table.For(2), nullptr);
  EXPECT_TRUE(table.Update(CacheSummary::Build(2, 5, cache, {})));
  EXPECT_FALSE(table.Update(CacheSummary::Build(2, 4, cache, {})));  // stale
  EXPECT_FALSE(table.Update(CacheSummary::Build(2, 5, cache, {})));  // same
  EXPECT_TRUE(table.Update(CacheSummary::Build(2, 6, cache, {})));
  ASSERT_NE(table.For(2), nullptr);
  EXPECT_EQ(table.For(2)->version(), 6u);
}

// ---------------------------------------------------------------------------
// Peer-select policies
// ---------------------------------------------------------------------------

SummaryTable TableWithKeyAt(std::uint32_t cluster, std::uint32_t holder,
                            std::uint64_t key_lo) {
  SummaryTable table(cluster);
  for (std::uint32_t e = 0; e < cluster; ++e) {
    cache::IcCache cache(cache::IcCacheConfig{});
    if (e == holder) {
      cache.Insert(RenderKey(key_lo), DeterministicBytes(10, 1),
                   SimTime::Epoch());
    }
    table.Update(CacheSummary::Build(e, 1, cache, {}));
  }
  return table;
}

TEST(PeerSelectTest, BroadcastReturnsAllReachable) {
  auto policy = MakePeerSelectPolicy({.kind = PeerSelectKind::kBroadcastAll});
  const std::vector<std::uint32_t> reachable{1, 2, 5};
  SummaryTable table(6);
  EXPECT_EQ(policy->Select(RenderKey(1), reachable, table), reachable);
}

TEST(PeerSelectTest, SummaryDirectedPicksTheHolder) {
  auto policy =
      MakePeerSelectPolicy({.kind = PeerSelectKind::kSummaryDirected});
  const std::vector<std::uint32_t> reachable{1, 2, 3};
  const auto table = TableWithKeyAt(4, 2, 77);
  const auto picked = policy->Select(RenderKey(77), reachable, table);
  EXPECT_EQ(picked, std::vector<std::uint32_t>{2});
  // A key nobody advertises selects nobody: the miss goes straight to
  // the cloud with zero probe traffic.
  EXPECT_TRUE(policy->Select(RenderKey(1234), reachable, table).empty());
}

TEST(PeerSelectTest, SummaryDirectedIgnoresPeersWithoutGossip) {
  auto policy =
      MakePeerSelectPolicy({.kind = PeerSelectKind::kSummaryDirected});
  SummaryTable table(3);  // nothing received yet
  const std::vector<std::uint32_t> reachable{1, 2};
  EXPECT_TRUE(policy->Select(RenderKey(1), reachable, table).empty());
}

TEST(PeerSelectTest, RandomKSamplesWithoutReplacement) {
  auto policy =
      MakePeerSelectPolicy({.kind = PeerSelectKind::kRandomK, .random_k = 3});
  const std::vector<std::uint32_t> reachable{1, 2, 3, 4, 5, 6, 7};
  SummaryTable table(8);
  for (int round = 0; round < 20; ++round) {
    const auto picked = policy->Select(RenderKey(1), reachable, table);
    EXPECT_EQ(picked.size(), 3u);
    const std::set<std::uint32_t> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 3u);
    for (const auto p : picked) {
      EXPECT_TRUE(std::find(reachable.begin(), reachable.end(), p) !=
                  reachable.end());
    }
  }
}

// ---------------------------------------------------------------------------
// FederationPipeline
// ---------------------------------------------------------------------------

FederationPipelineConfig ClusterConfig(std::uint32_t venues,
                                       PeerSelectKind policy) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.policy.kind = policy;
  config.gossip_period = Duration::Millis(50);
  return config;
}

TEST(FederationPipelineTest, BroadcastServesPeerHitAcrossFourVenues) {
  FederationPipeline pipeline(
      ClusterConfig(4, PeerSelectKind::kBroadcastAll));
  pipeline.RegisterModel(1, KB(512));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(3, 1);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].venue, 0u);
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].venue, 3u);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 1u);
  // Broadcast probed all three peers.
  EXPECT_EQ(pipeline.edge(3).peer_probes_sent(), 3u);
}

TEST(FederationPipelineTest, SummaryDirectedProbesOnlyTheHolder) {
  FederationPipeline pipeline(
      ClusterConfig(4, PeerSelectKind::kSummaryDirected));
  pipeline.RegisterModel(1, KB(512));
  pipeline.EnqueueRenderAt(0, 1);  // warms venue 0, gossip advertises it
  pipeline.EnqueueRenderAt(3, 1);  // directed probe to venue 0 only
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(pipeline.edge(3).peer_probes_sent(), 1u);
  EXPECT_GT(pipeline.summary_updates_sent(), 0u);
  // The closed loop's issue-time rounds count like the open loop's
  // timer rounds: one per venue per round.
  const std::uint64_t rounds = pipeline.open_loop_stats().gossip_rounds;
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(rounds % 4, 0u);
}

TEST(FederationPipelineTest, SummaryDirectedSkipsProbesForUnknownContent) {
  FederationPipeline pipeline(
      ClusterConfig(4, PeerSelectKind::kSummaryDirected));
  pipeline.RegisterModel(1, KB(512));
  pipeline.RegisterModel(2, KB(512));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(3, 2);  // nobody advertises model 2
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.edge(3).peer_probes_sent(), 0u);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 2u);
}

TEST(FederationPipelineTest, RingTopologyRelaysAcrossHops) {
  // 4-venue ring: venue 0 and venue 2 are two hops apart; a broadcast
  // probe from 2 must transit a relay to reach 0's cache.
  FederationPipelineConfig config =
      ClusterConfig(4, PeerSelectKind::kBroadcastAll);
  config.topology = TopologyKind::kRing;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(2, 1);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_GT(pipeline.relay_forwards(), 0u);
}

TEST(FederationPipelineTest, HopLimitShrinksProbeScope) {
  // Star of 5: venue 1's only 1-hop peer is the hub, so broadcast sends
  // exactly one probe when hop_limit = 1.
  FederationPipelineConfig config =
      ClusterConfig(5, PeerSelectKind::kBroadcastAll);
  config.topology = TopologyKind::kStar;
  config.hop_limit = 1;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(2, 1);  // warms a sibling leaf (2 hops away)
  pipeline.EnqueueRenderAt(1, 1);
  const auto outcomes = pipeline.Run();
  // The sibling leaf is out of scope: probe goes to the hub only, misses,
  // and the request falls through to the cloud.
  EXPECT_EQ(pipeline.edge(1).peer_probes_sent(), 1u);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
}

TEST(FederationPipelineTest, ProbeBudgetCapsFanout) {
  FederationPipelineConfig config =
      ClusterConfig(8, PeerSelectKind::kBroadcastAll);
  config.probe_budget = 2;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(7, 1);  // cold miss: probes capped at 2
  pipeline.Run();
  EXPECT_EQ(pipeline.edge(7).peer_probes_sent(), 2u);
}

TEST(FederationPipelineTest, NonCooperativeClusterNeverProbes) {
  FederationPipelineConfig config =
      ClusterConfig(4, PeerSelectKind::kBroadcastAll);
  config.cooperative = false;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(1, 1);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.total_peer_probes(), 0u);
  EXPECT_EQ(pipeline.summary_updates_sent(), 0u);
}

TEST(FederationPipelineTest, SingleVenueDegeneratesToPlainEdge) {
  FederationPipeline pipeline(
      ClusterConfig(1, PeerSelectKind::kSummaryDirected));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 2});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(pipeline.total_peer_probes(), 0u);
}

TEST(FederationPipelineTest, MultipleMobilesPerVenueShareTheEdgeCache) {
  FederationPipelineConfig config =
      ClusterConfig(2, PeerSelectKind::kBroadcastAll);
  config.mobiles_per_venue = 3;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(0, 1, /*mobile=*/0);
  pipeline.EnqueueRenderAt(0, 1, /*mobile=*/2);  // same venue, other mobile
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
}

TEST(FederationPipelineTest, ShardInstallMemoParsesEachModelOnce) {
  // Every client on a shard shares one install memo keyed by (model id,
  // byte size). That is sound only if every render reply for an id
  // carries the cloud registry's bytes, whichever tier served it: check
  // each reply on its way into the client, then count the parses.
  FederationPipelineConfig config =
      ClusterConfig(3, PeerSelectKind::kBroadcastAll);
  config.mobiles_per_venue = 2;
  FederationPipeline pipeline(config);
  constexpr std::uint64_t kModels = 3;
  for (std::uint64_t id = 1; id <= kModels; ++id) {
    pipeline.RegisterModel(id, KB(64) * id);
  }
  std::map<ResultSource, int> sources;
  for (std::uint32_t v = 0; v < 3; ++v) {
    for (std::uint32_t m = 0; m < 2; ++m) {
      pipeline.network().SetHandler(
          pipeline.mobile_node(v, m),
          [&pipeline, &sources, v, m](netsim::NodeId, Frame frame,
                                      Frame tail) {
            const auto env = proto::DecodeEnvelopeView(frame, tail);
            EXPECT_TRUE(env.ok());
            if (env.ok() &&
                env.value().type == proto::MessageType::kRenderResult) {
              const auto result =
                  proto::DecodePayloadAs<proto::RenderResultView>(
                      env.value(), proto::MessageType::kRenderResult);
              EXPECT_TRUE(result.ok());
              if (result.ok()) {
                const auto expected =
                    pipeline.cloud().model_registry().BytesFor(
                        result.value().model_id);
                EXPECT_TRUE(expected.ok());
                if (expected.ok()) {
                  EXPECT_TRUE(std::ranges::equal(result.value().model_bytes,
                                                 expected.value()));
                }
                ++sources[result.value().source];
              }
            }
            pipeline.client(v, m).OnEdgeFrame(std::move(frame),
                                              std::move(tail));
          });
    }
  }
  for (std::uint64_t id = 1; id <= kModels; ++id) {
    pipeline.EnqueueRenderAt(0, id, /*mobile=*/0);  // cloud misses
  }
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t v = 0; v < 3; ++v) {
      for (std::uint32_t m = 0; m < 2; ++m) {
        for (std::uint64_t id = 1; id <= kModels; ++id) {
          pipeline.EnqueueRenderAt(v, id, m);  // local and peer hits
        }
      }
    }
  }
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), kModels * 13);
  for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
  EXPECT_GE(sources[ResultSource::kCloud], 1);
  EXPECT_GE(sources[ResultSource::kEdgeCache], 1);
  EXPECT_GE(sources[ResultSource::kPeerEdge], 1);
  EXPECT_EQ(pipeline.MergedMetricsSnapshot().value("client.model_parses"),
            kModels);
}

TEST(FederationPipelineTest, RecognitionVectorsTravelViaCentroidSummaries) {
  FederationPipeline pipeline(
      ClusterConfig(3, PeerSelectKind::kSummaryDirected));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
  pipeline.EnqueueRecognitionAt(2, {.scene_id = 5, .view_angle_deg = 2});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_TRUE(outcomes[1].outcome.correct);
  // Directed by the centroid sketch: at most one probe for the hit.
  EXPECT_EQ(pipeline.edge(2).peer_probes_sent(), 1u);
}

TEST(FederationPipelineTest, ReplaysClusterTraceWithHandoff) {
  trace::ClusterWorkloadConfig workload;
  workload.base.users = 6;
  workload.base.objects = 10;
  workload.venues = 3;
  workload.handoff_probability = 0.2;
  trace::ClusterWorkloadGenerator gen(workload);
  const auto placed = gen.GenerateRecognition(30);

  FederationPipeline pipeline(
      ClusterConfig(3, PeerSelectKind::kBroadcastAll));
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), placed.size());
  for (std::size_t i = 0; i < placed.size(); ++i) {
    EXPECT_EQ(outcomes[i].venue, placed[i].venue);
    EXPECT_FALSE(outcomes[i].outcome.error);
  }
  EXPECT_GT(gen.handoffs(), 0u);
}

// ---------------------------------------------------------------------------
// Gossip staleness & delta gossip
// ---------------------------------------------------------------------------

/// The exact churning workload bench_federation_scaling's staleness
/// ablation measures (trace::MakeChurnWorkload with the bench's high-
/// churn parameters), so these regression tests guard the very scenario
/// the BENCH table reports. Model byte sizes match the bench too.
void EnqueueChurnWorkload(FederationPipeline& pipeline, std::uint32_t venues,
                          std::size_t rounds = 40) {
  constexpr std::uint32_t kWindow = 8;
  constexpr std::uint32_t kCatalog = 40;
  constexpr std::uint32_t kRotateRounds = 4;  // the bench's "high" churn
  for (std::uint64_t m = 1; m <= kCatalog; ++m) {
    pipeline.RegisterModel(m, KB(128) + m * KB(4));
  }
  for (const auto& p : trace::MakeChurnWorkload(venues, rounds, kWindow,
                                                kCatalog, kRotateRounds)) {
    pipeline.EnqueuePlaced(p);
  }
}

FederationPipelineConfig ChurnConfig(Duration gossip_period,
                                     bool delta_gossip) {
  FederationPipelineConfig config;
  config.venues = 4;
  config.policy.kind = PeerSelectKind::kSummaryDirected;
  config.gossip_period = gossip_period;
  config.delta_gossip = delta_gossip;
  return config;
}

double ChurnHitRate(Duration gossip_period) {
  FederationPipeline pipeline(ChurnConfig(gossip_period, false));
  EnqueueChurnWorkload(pipeline, 4);
  core::QoeAggregator agg;
  for (const auto& o : pipeline.Run()) agg.Add(o.outcome);
  return agg.HitRate();
}

TEST(StalenessRegressionTest, HitRateNonIncreasingAsGossipPeriodGrows) {
  // The staleness law the ROADMAP ablation quantifies: on a fixed seeded
  // workload, every extra unit of summary staleness can only lose
  // directed peer hits (content cached since the last round is not yet
  // advertised), never gain them. Guard it as a regression test so a
  // gossip change that silently inverts the trade is caught.
  std::vector<double> hit_rates;
  for (const auto period_ms : {1u, 20u, 100u, 500u, 2500u}) {
    hit_rates.push_back(ChurnHitRate(Duration::Millis(period_ms)));
  }
  for (std::size_t i = 1; i < hit_rates.size(); ++i) {
    EXPECT_LE(hit_rates[i], hit_rates[i - 1])
        << "hit rate rose between period steps " << i - 1 << " and " << i;
  }
  // The sweep must actually span a staleness effect, or the monotone
  // assertion above is vacuous.
  EXPECT_GT(hit_rates.front(), hit_rates.back() + 0.02);
}

/// Encodes one summary for byte comparison.
ByteVec SummaryBytes(const CacheSummary& summary) {
  return proto::EncodeMessage(proto::MessageType::kSummaryUpdate, 0,
                              summary.ToWire());
}

/// Runs the churn workload under full vs delta gossip on otherwise
/// identical clusters and requires identical outcomes and byte-identical
/// final summary tables. `cache_capacity` 0 = unbounded (insert-only
/// deltas); a small capacity forces evictions, whose erasures make the
/// sender fall back to full resends — which must converge all the same.
void ExpectDeltaConvergesToFull(Bytes cache_capacity) {
  FederationPipelineConfig config =
      ChurnConfig(Duration::Millis(1), false);
  config.cache.capacity_bytes = cache_capacity;
  FederationPipeline full(config);
  config.delta_gossip = true;
  FederationPipeline delta(config);
  EnqueueChurnWorkload(full, 4);
  EnqueueChurnWorkload(delta, 4);
  const auto full_outcomes = full.Run();
  const auto delta_outcomes = delta.Run();

  // Delta gossip is a wire-format optimization: request outcomes are
  // unchanged.
  ASSERT_EQ(full_outcomes.size(), delta_outcomes.size());
  for (std::size_t i = 0; i < full_outcomes.size(); ++i) {
    EXPECT_EQ(full_outcomes[i].venue, delta_outcomes[i].venue) << i;
    EXPECT_EQ(full_outcomes[i].outcome.source, delta_outcomes[i].outcome.source)
        << i;
  }

  // After drain, every venue's view of every peer is byte-identical.
  for (std::uint32_t v = 0; v < 4; ++v) {
    for (std::uint32_t peer = 0; peer < 4; ++peer) {
      if (peer == v) continue;
      const CacheSummary* a = full.summary_table(v).For(peer);
      const CacheSummary* b = delta.summary_table(v).For(peer);
      ASSERT_EQ(a == nullptr, b == nullptr) << v << "<-" << peer;
      if (a == nullptr) continue;
      EXPECT_EQ(SummaryBytes(*a), SummaryBytes(*b)) << v << "<-" << peer;
    }
  }

  // And the delta run paid fewer gossip bytes for it, in real deltas.
  EXPECT_GT(delta.summary_deltas_sent(), 0u);
  const std::uint64_t full_bytes =
      full.summary_bytes_full() + full.summary_bytes_delta();
  const std::uint64_t delta_bytes =
      delta.summary_bytes_full() + delta.summary_bytes_delta();
  EXPECT_LT(delta_bytes, full_bytes);
}

TEST(StalenessRegressionTest, DeltaGossipConvergesToFullGossipTables) {
  ExpectDeltaConvergesToFull(/*cache_capacity=*/0);
}

TEST(StalenessRegressionTest, PeriodicFullRefreshCadence) {
  // delta_full_refresh_rounds bounds the staleness a dropped frame can
  // cause on a lossy link by forcing a full summary every Nth gossip
  // round per peer. Pin the cadence arithmetic: N=1 forces full every
  // round (no deltas at all), N=2 trades some deltas back for fulls,
  // 0 never forces.
  auto run = [](std::uint32_t refresh_rounds) {
    FederationPipelineConfig config = ChurnConfig(Duration::Millis(1), true);
    config.delta_full_refresh_rounds = refresh_rounds;
    FederationPipeline pipeline(config);
    EnqueueChurnWorkload(pipeline, 4);
    (void)pipeline.Run();
    return std::pair{pipeline.summary_updates_sent(),
                     pipeline.summary_deltas_sent()};
  };
  const auto [fulls_never, deltas_never] = run(0);
  EXPECT_GT(deltas_never, 0u);

  const auto [fulls_always, deltas_always] = run(1);
  EXPECT_EQ(deltas_always, 0u);
  // Every round full to every peer — at least the sends the lazy run
  // made, plus resends on rounds the lazy run skipped as "current".
  EXPECT_GE(fulls_always, fulls_never + deltas_never);

  const auto [fulls_alt, deltas_alt] = run(2);
  EXPECT_GT(deltas_alt, 0u);
  EXPECT_GT(fulls_alt, fulls_never);
  EXPECT_LT(deltas_alt, deltas_never);
}

TEST(StalenessRegressionTest, PeriodicRefreshReachesQuiescentPeers) {
  // Sent-state is sent-not-acked: after a lost frame the sender believes
  // the peer is current and the skip path would never send again once
  // the cache stops mutating. The refresh cadence must therefore count
  // quiet rounds too — with it on, fulls keep flowing during a long
  // quiescent phase; with it off, gossip goes silent.
  auto run = [](std::uint32_t refresh_rounds) {
    FederationPipelineConfig config = ChurnConfig(Duration::Millis(1), true);
    config.delta_full_refresh_rounds = refresh_rounds;
    FederationPipeline pipeline(config);
    for (std::uint64_t m = 1; m <= 4; ++m) {
      pipeline.RegisterModel(m, KB(64));
    }
    // Warm phase mutates every cache; quiet phase repeats warm content
    // (pure hits, zero mutations) across many gossip rounds.
    for (std::uint64_t m = 1; m <= 4; ++m) {
      for (std::uint32_t v = 0; v < 4; ++v) pipeline.EnqueueRenderAt(v, m);
    }
    for (int i = 0; i < 24; ++i) {
      for (std::uint32_t v = 0; v < 4; ++v) pipeline.EnqueueRenderAt(v, 1);
    }
    (void)pipeline.Run();
    return pipeline.summary_updates_sent();
  };
  const std::uint64_t lazy_fulls = run(0);
  const std::uint64_t refreshed_fulls = run(6);
  // ~28 quiet rounds / 6 per peer pair adds well over a dozen resends.
  EXPECT_GT(refreshed_fulls, lazy_fulls + 12);
}

TEST(StalenessRegressionTest, EvictionChurnFallsBackToFullAndStillConverges) {
  // A byte-bounded cache evicts continuously under the sliding window;
  // erased keys cannot be expressed as Bloom deltas, so the sender must
  // detect them in the journal slice and resend full summaries — beyond
  // the 12 first-contact fulls a 4-venue cluster always pays.
  FederationPipelineConfig config = ChurnConfig(Duration::Millis(1), true);
  config.cache.capacity_bytes = KB(700);
  FederationPipeline pipeline(config);
  EnqueueChurnWorkload(pipeline, 4);
  (void)pipeline.Run();
  std::uint64_t evictions = 0;
  for (std::uint32_t v = 0; v < 4; ++v) {
    evictions += pipeline.edge(v).cache().stats().evictions;
  }
  ASSERT_GT(evictions, 0u) << "workload did not exercise eviction churn";
  EXPECT_GT(pipeline.summary_updates_sent(), 12u);

  ExpectDeltaConvergesToFull(/*cache_capacity=*/KB(700));
}

// ---------------------------------------------------------------------------
// Cluster workload generator
// ---------------------------------------------------------------------------

TEST(ClusterWorkloadTest, PlacementIsRoundRobinWithoutHandoff) {
  trace::ClusterWorkloadConfig config;
  config.base.users = 8;
  config.venues = 4;
  config.handoff_probability = 0.0;
  trace::ClusterWorkloadGenerator gen(config);
  const auto placed = gen.GenerateRecognition(50);
  ASSERT_EQ(placed.size(), 50u);
  for (const auto& p : placed) {
    EXPECT_EQ(p.venue, p.record.user_id % 4);
  }
  EXPECT_EQ(gen.handoffs(), 0u);
}

TEST(ClusterWorkloadTest, HandoffMovesUsersBetweenVenues) {
  trace::ClusterWorkloadConfig config;
  config.base.users = 4;
  config.venues = 4;
  config.handoff_probability = 0.5;
  trace::ClusterWorkloadGenerator gen(config);
  const auto placed = gen.GenerateRecognition(100);
  EXPECT_GT(gen.handoffs(), 10u);
  for (const auto& p : placed) {
    EXPECT_LT(p.venue, 4u);
  }
  // Venue tags follow the tracked placement at generation time.
  for (std::uint32_t u = 0; u < 4; ++u) {
    EXPECT_LT(gen.VenueOf(u), 4u);
  }
}

TEST(ClusterWorkloadTest, SingleVenueNeverHandsOff) {
  trace::ClusterWorkloadConfig config;
  config.base.users = 4;
  config.venues = 1;
  config.handoff_probability = 1.0;
  trace::ClusterWorkloadGenerator gen(config);
  const auto placed = gen.GenerateRender(20, std::vector<std::uint64_t>{1, 2});
  EXPECT_EQ(gen.handoffs(), 0u);
  for (const auto& p : placed) EXPECT_EQ(p.venue, 0u);
}

// ---------------------------------------------------------------------------
// Open-loop throughput replay
// ---------------------------------------------------------------------------

FederationPipelineConfig OpenLoopClusterConfig(std::uint32_t venues) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.mobiles_per_venue = 2;
  config.policy.kind = PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(50);
  // Provisioned links so the offered storm is serviceable; the default
  // 10 Mbps WAN is the paper's throttled latency-study condition.
  config.network =
      core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  return config;
}

/// A render-only placed trace (trace::MakeRenderStorm): requests
/// round-robin over venues and a small Zipf-free model set, re-timed as
/// one Poisson stream. Render ops keep the suite fast (no per-request
/// scene rendering).
std::vector<trace::PlacedRecord> RenderStorm(std::uint32_t venues,
                                             std::size_t n, double rate_hz,
                                             std::uint32_t models = 6) {
  return trace::MakeRenderStorm(venues, n, rate_hz, models);
}

void RegisterStormModels(FederationPipeline& pipeline,
                         std::uint32_t models = 6) {
  for (std::uint64_t m = 1; m <= models; ++m) {
    pipeline.RegisterModel(m, KB(64) + m * KB(4));
  }
}

TEST(OpenLoopReplayTest, ManyRequestsInFlightAt500PerSecond) {
  // The acceptance scenario: an 8-venue full mesh absorbing an offered
  // load of 500 req/s must actually overlap requests (the closed loop
  // never exceeds 1 in flight).
  FederationPipeline pipeline(OpenLoopClusterConfig(8));
  RegisterStormModels(pipeline);
  const auto placed = RenderStorm(8, 400, 500.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 400u);
  for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
  EXPECT_GT(pipeline.open_loop_stats().max_inflight, 1u);
  EXPECT_EQ(pipeline.open_loop_stats().operations, 400u);
  // Edges parked more than one request at a time under the storm.
  std::size_t peak = 0;
  for (std::uint32_t v = 0; v < 8; ++v) {
    peak = std::max(peak, pipeline.edge(v).peak_pending());
  }
  EXPECT_GT(peak, 1u);
}

TEST(OpenLoopReplayTest, SchedulerFullyDrainsAndTimersStop) {
  FederationPipeline pipeline(OpenLoopClusterConfig(4));
  RegisterStormModels(pipeline);
  const auto placed = RenderStorm(4, 100, 200.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  (void)pipeline.RunOpenLoop();
  // The free-running gossip timers were cancelled at workload drain: no
  // event remains pending, and RunOpenLoop returned at all.
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  EXPECT_FALSE(pipeline.scheduler().Step());
}

TEST(OpenLoopReplayTest, GossipRefreshesWhileOperationsAreInFlight) {
  // Phase 1: venue 0 warms all six models (arrivals spread over ~0.3 s,
  // i.e. several 50 ms gossip periods). Phase 2: the other venues
  // request the same models. Only a summary gossiped *during* the run —
  // after venue 0's inserts, the open loop has no between-ops gossip —
  // can direct phase-2 misses at venue 0, so peer hits prove the timers
  // refreshed summaries while operations were in flight.
  FederationPipeline pipeline(OpenLoopClusterConfig(4));
  RegisterStormModels(pipeline);
  std::vector<trace::PlacedRecord> placed(120);
  for (std::size_t i = 0; i < placed.size(); ++i) {
    auto& p = placed[i];
    p.venue = i < 60 ? 0 : static_cast<std::uint32_t>(i % 3 + 1);
    p.record.type = trace::IcTaskType::kRender;
    p.record.user_id = static_cast<std::uint32_t>(i);
    p.record.model_id = i % 6 + 1;
  }
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), 200.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  const auto outcomes = pipeline.RunOpenLoop();
  const auto& stats = pipeline.open_loop_stats();
  // Round 0 contributes exactly `venues` firings; anything beyond came
  // from the free-running timers while operations were completing.
  EXPECT_GT(stats.gossip_rounds, 4u * 3u);
  EXPECT_GT(pipeline.summary_updates_sent(), 0u);
  std::uint64_t peer_served = 0;
  for (const auto& o : outcomes) {
    peer_served += o.outcome.source == ResultSource::kPeerEdge ? 1 : 0;
  }
  EXPECT_GT(peer_served, 0u);
}

TEST(OpenLoopReplayTest, DeterministicForAFixedSeed) {
  auto run_once = [] {
    FederationPipeline pipeline(OpenLoopClusterConfig(4));
    RegisterStormModels(pipeline);
    const auto placed = RenderStorm(4, 150, 300.0);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    return pipeline.RunOpenLoop();
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].venue, second[i].venue);
    EXPECT_EQ(first[i].outcome.source, second[i].outcome.source);
    EXPECT_EQ(first[i].outcome.latency.micros(),
              second[i].outcome.latency.micros());
    EXPECT_EQ(first[i].outcome.object_id, second[i].outcome.object_id);
  }
}

TEST(OpenLoopReplayTest, HitRateConsistentWithClosedLoop) {
  const auto placed = RenderStorm(4, 200, 200.0);

  FederationPipeline closed(OpenLoopClusterConfig(4));
  RegisterStormModels(closed);
  for (const auto& p : placed) closed.EnqueuePlaced(p);
  core::QoeAggregator closed_agg;
  for (const auto& o : closed.Run()) closed_agg.Add(o.outcome);

  FederationPipeline open(OpenLoopClusterConfig(4));
  RegisterStormModels(open);
  for (const auto& p : placed) open.EnqueuePlaced(p);
  core::QoeAggregator open_agg;
  for (const auto& o : open.RunOpenLoop()) open_agg.Add(o.outcome);

  // Same trace, same caches; the open loop may lose a few hits to
  // concurrent same-key misses, not more.
  EXPECT_GT(closed_agg.HitRate(), 0.5);
  EXPECT_NEAR(open_agg.HitRate(), closed_agg.HitRate(), 0.15);
}

TEST(OpenLoopReplayTest, EmptyQueueIsANoOp) {
  FederationPipeline pipeline(OpenLoopClusterConfig(2));
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_TRUE(outcomes.empty());
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  EXPECT_EQ(pipeline.open_loop_stats().gossip_rounds, 0u);
}

TEST(OpenLoopReplayTest, DeltaGossipRunsOnFreeRunningTimers) {
  // The open-loop regime chooses delta vs full per peer on its
  // free-running timers exactly like closed-loop rounds do: the run
  // drains, hit rate matches full gossip, and the gossip bytes drop.
  const auto placed = RenderStorm(4, 200, 300.0);
  auto run = [&placed](bool delta_gossip) {
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.delta_gossip = delta_gossip;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    core::QoeAggregator agg;
    for (const auto& o : pipeline.RunOpenLoop()) agg.Add(o.outcome);
    EXPECT_EQ(pipeline.scheduler().pending(), 0u);
    return std::tuple{agg.HitRate(),
                      pipeline.summary_bytes_full() +
                          pipeline.summary_bytes_delta(),
                      pipeline.summary_deltas_sent()};
  };
  const auto [full_hit, full_bytes, full_deltas] = run(false);
  const auto [delta_hit, delta_bytes, delta_deltas] = run(true);
  EXPECT_EQ(full_deltas, 0u);
  EXPECT_GT(delta_deltas, 0u);
  EXPECT_LT(delta_bytes, full_bytes);
  EXPECT_NEAR(delta_hit, full_hit, 0.05);
}

TEST(OpenLoopReplayTest, ArrivalTimesHonoredOnTheSimClock) {
  FederationPipeline pipeline(OpenLoopClusterConfig(2));
  RegisterStormModels(pipeline);
  trace::PlacedRecord late;
  late.venue = 1;
  late.record.type = trace::IcTaskType::kRender;
  late.record.model_id = 1;
  late.record.at = SimTime::FromMicros(2'000'000);
  pipeline.EnqueuePlaced(late);
  (void)pipeline.RunOpenLoop();
  // The single operation was issued at its arrival time, so the run ends
  // at >= 2 s simulated regardless of service latency.
  EXPECT_GE(pipeline.scheduler().now().micros(), 2'000'000);
  EXPECT_GE(pipeline.open_loop_stats().first_arrival.micros(), 2'000'000);
}

// ---------------------------------------------------------------------------
// Zero-copy frame fabric at cluster scale
// ---------------------------------------------------------------------------

TEST(FrameFabricTest, FullMeshStormMakesZeroCountedPayloadCopies) {
  // The acceptance claim: gossip broadcast, peer-probe fan-out, relay
  // forwarding, cache adoption and client replies all ride shared
  // buffers — an entire open-loop storm increments the global frame-copy
  // counter by exactly zero.
  FederationPipeline pipeline(OpenLoopClusterConfig(8));
  RegisterStormModels(pipeline);
  for (const auto& p : RenderStorm(8, 300, 400.0)) pipeline.EnqueuePlaced(p);
  const std::uint64_t copies_before = frame_stats().copies();
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_EQ(outcomes.size(), 300u);
  EXPECT_GT(pipeline.summary_updates_sent(), 0u);  // gossip really fanned out
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(FrameFabricTest, RingStormWithRelaysMakesZeroCountedPayloadCopies) {
  // Ring topology forces FederatedRelay wrappers and intermediate-hop
  // TTL patches; the patch must land in the uniquely-held buffer, never
  // copy-on-write.
  FederationPipelineConfig config = OpenLoopClusterConfig(6);
  config.topology = TopologyKind::kRing;
  FederationPipeline pipeline(config);
  RegisterStormModels(pipeline);
  for (const auto& p : RenderStorm(6, 200, 300.0)) pipeline.EnqueuePlaced(p);
  const std::uint64_t copies_before = frame_stats().copies();
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_EQ(outcomes.size(), 200u);
  EXPECT_GT(pipeline.relay_forwards(), 0u);  // relays really happened
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(FrameFabricTest, ClosedLoopOutcomesUnchangedByDisablingCoalescing) {
  // Coalescing can only trigger with >1 request in flight; the closed
  // loop must be bit-identical with it on or off (the PR 4 behavior).
  const auto placed = RenderStorm(4, 120, 200.0);
  const auto run = [&placed](bool coalesce) {
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.coalesce_requests = coalesce;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    return pipeline.Run();
  };
  const auto with = run(true);
  const auto without = run(false);
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].venue, without[i].venue);
    EXPECT_EQ(with[i].outcome.source, without[i].outcome.source);
    EXPECT_EQ(with[i].outcome.latency.micros(),
              without[i].outcome.latency.micros());
  }
}

// ---------------------------------------------------------------------------
// Same-key request coalescing under open-loop storms
// ---------------------------------------------------------------------------

TEST(CoalescingStormTest, CloudFetchesDropWhenConcurrentMissesCoalesce) {
  // A hot-object storm: many concurrent requests for a tiny model set.
  // With coalescing every burst of same-key misses pays one cloud fetch;
  // without it each one pays its own.
  const auto placed = RenderStorm(/*venues=*/2, /*n=*/300, /*rate_hz=*/3000.0,
                                  /*models=*/3);
  const auto run = [&placed](bool coalesce) {
    FederationPipelineConfig config = OpenLoopClusterConfig(2);
    config.coalesce_requests = coalesce;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline, 3);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    const auto outcomes = pipeline.RunOpenLoop();
    for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
    return std::make_tuple(outcomes.size(), pipeline.total_cloud_forwards(),
                           pipeline.total_coalesced_requests());
  };
  const auto [ops_on, forwards_on, coalesced_on] = run(true);
  const auto [ops_off, forwards_off, coalesced_off] = run(false);
  EXPECT_EQ(ops_on, 300u);
  EXPECT_EQ(ops_off, 300u);
  EXPECT_EQ(coalesced_off, 0u);
  EXPECT_GT(coalesced_on, 0u);
  // The wait-list absorbed duplicate fetches: strictly fewer cloud
  // round trips, by exactly the number of coalesced requests... minus
  // any that would have been served by a peer instead — so assert the
  // direction and a real margin, not the exact arithmetic.
  EXPECT_LT(forwards_on, forwards_off);
}

// ---------------------------------------------------------------------------
// Loss-tolerant transport
// ---------------------------------------------------------------------------

using federation::FederationTransportConfig;

trace::PlacedRecord RenderAt(std::uint32_t venue, std::uint64_t model,
                             std::int64_t at_us, std::uint32_t user = 0) {
  trace::PlacedRecord p;
  p.venue = venue;
  p.record.type = trace::IcTaskType::kRender;
  p.record.model_id = model;
  p.record.at = SimTime::FromMicros(at_us);
  p.record.user_id = user;
  return p;
}

TEST(LossToleranceTest, LeaderLossPromotesTheOldestParkedFollower) {
  // Regression (leader-loss recovery): two mobiles miss on the same key;
  // the leader's cloud fetch dies on the wire, and before the fix every
  // follower coalesced behind it was stranded forever — the run hung.
  FederationPipelineConfig config = OpenLoopClusterConfig(1);
  config.transport.cloud_retry.timeout = Duration::Millis(50);
  config.transport.cloud_retry.max_retries = 1;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(64));
  pipeline.EnqueuePlaced(RenderAt(0, 1, 1'000, /*user=*/0));
  pipeline.EnqueuePlaced(RenderAt(0, 1, 2'000, /*user=*/1));
  // Kill the leader's forward AND its one retransmission mid-flight;
  // the promoted follower's fetch (third WAN frame) goes through.
  pipeline.network()
      .LinkBetween(pipeline.edge_node(0), pipeline.cloud_node())
      .ForceDropNext(2);

  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 2u);  // nobody stranded, the run drained
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  EXPECT_EQ(pipeline.edge(0).cloud_retransmissions(), 1u);
  EXPECT_EQ(pipeline.edge(0).cloud_timeouts(), 1u);
  EXPECT_EQ(pipeline.total_leader_promotions(), 1u);
  // The dead leader's client got an error; the promoted follower got
  // the real result.
  int errors = 0, served = 0;
  for (const auto& o : outcomes) {
    if (o.outcome.error) {
      ++errors;
    } else {
      ++served;
      EXPECT_EQ(o.outcome.source, ResultSource::kCloud);
    }
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(served, 1);
}

TEST(LossToleranceTest, LossySweepStormDrainsEveryRequestCopyFree) {
  // The headline acceptance property: under real loss + datagram
  // fragmentation + retries + ack'd gossip, no run ever hangs — every
  // operation resolves, the scheduler drains, and the recovery machinery
  // (retransmits, chunking) stays inside the zero-copy accounting.
  FederationPipelineConfig config = OpenLoopClusterConfig(4);
  config.delta_gossip = true;
  config.transport = FederationTransportConfig::Lossy(0.03);
  FederationPipeline pipeline(config);
  RegisterStormModels(pipeline);
  for (const auto& p : RenderStorm(4, 200, 300.0)) pipeline.EnqueuePlaced(p);

  const std::uint64_t copies_before = frame_stats().copies();
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_EQ(outcomes.size(), 200u);
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  // Loss really bit and recovery really ran.
  EXPECT_GT(pipeline.total_client_retransmissions() +
                pipeline.total_cloud_retransmissions(),
            0u);
  EXPECT_GT(pipeline.network().datagram_stats().messages_fragmented, 0u);
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(LossToleranceTest, LostDeltaTriggersOneTargetedFullResend) {
  // Gossip ack/nack: venue 1 misses one delta, detects the base
  // mismatch when the next delta arrives, nacks with the version it
  // actually holds, and venue 0 re-ships the full summary — once, to
  // that peer only, without waiting for a periodic refresh.
  const auto run = [](bool drop_one_delta) {
    FederationPipelineConfig config = OpenLoopClusterConfig(2);
    config.delta_gossip = true;
    config.transport.summary_ack = true;
    auto pipeline = std::make_unique<FederationPipeline>(config);
    for (std::uint64_t m = 1; m <= 3; ++m) pipeline->RegisterModel(m, KB(64));
    // One insertion per 50 ms gossip period at venue 0: three versions.
    pipeline->EnqueuePlaced(RenderAt(0, 1, 10'000));
    pipeline->EnqueuePlaced(RenderAt(0, 2, 60'000));
    pipeline->EnqueuePlaced(RenderAt(0, 3, 110'000));
    // Keep the run alive past the recovery exchange (a cache hit: no
    // new summary version).
    pipeline->EnqueuePlaced(RenderAt(0, 1, 400'000));
    if (drop_one_delta) {
      // Drop exactly the second summary frame on the 0->1 link (the
      // first delta); the initial full frame and later deltas go
      // through.
      pipeline->network()
          .LinkBetween(pipeline->edge_node(0), pipeline->edge_node(1))
          .ForceDropAfter(/*skip=*/1, /*n=*/1);
    }
    EXPECT_EQ(pipeline->RunOpenLoop().size(), 4u);
    return pipeline;
  };
  const auto lossless = run(false);
  const auto lossy = run(true);
  EXPECT_EQ(lossless->summary_ack_resends(), 0u);
  EXPECT_GE(lossy->summary_acks_sent(), 1u);  // the nack went out
  EXPECT_EQ(lossy->summary_ack_resends(), 1u);
  // Despite the loss, venue 1 converged to the same view of venue 0 the
  // lossless run reached.
  const CacheSummary* want = lossless->summary_table(1).For(0);
  const CacheSummary* held = lossy->summary_table(1).For(0);
  ASSERT_NE(want, nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->version(), want->version());
  EXPECT_EQ(SummaryBytes(*held), SummaryBytes(*want));
}

TEST(FrameFabricTest, HitHeavyStormStaysCopyFreeWithGatherReplies) {
  // Satellite of the zero-copy claim: cache-hit replies now ride the
  // scatter-gather path (tiny rewritten head + shared cached tail) all
  // the way into the client's decoder, so a hit-dominated storm must
  // stay at zero counted copies and zero gather fuses.
  FederationPipeline pipeline(OpenLoopClusterConfig(4));
  RegisterStormModels(pipeline, 3);
  for (const auto& p : RenderStorm(4, 300, 500.0, /*models=*/3)) {
    pipeline.EnqueuePlaced(p);
  }
  const std::uint64_t copies_before = frame_stats().copies();
  const obs::MetricsSnapshot before = pipeline.MergedMetricsSnapshot();
  const auto outcomes = pipeline.RunOpenLoop();
  const obs::MetricsSnapshot delta =
      pipeline.MergedMetricsSnapshot().DiffSince(before);
  EXPECT_EQ(delta.value("frame.gather_fuses"), 0u);
  EXPECT_EQ(delta.value("frame.gather_fused_bytes"), 0u);
  EXPECT_EQ(delta.value("frame.copies"), 0u);
  EXPECT_EQ(outcomes.size(), 300u);
  std::uint64_t hits = 0;
  for (std::uint32_t v = 0; v < 4; ++v) {
    hits += pipeline.edge(v).cache().stats().hits;
  }
  EXPECT_GT(hits, 50u);  // the storm really was hit-heavy
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(FrameFabricTest, MissPathStormsStayCopyAndFuseFree) {
  // The miss path moves payloads by reference too: the cloud replies with
  // (header, memo), a serving peer with (fields, cache entry), and under
  // datagram loss every train reassembles into the sender's own frames.
  // A single-shard storm full of cloud misses and peer hits, reliable or
  // at 1% loss, must leave the copy and fuse counters where they were.
  for (const double loss : {0.0, 0.01}) {
    SCOPED_TRACE(loss > 0 ? "1% loss, datagram transport" : "reliable");
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    if (loss > 0) config.transport = FederationTransportConfig::Lossy(loss);
    FederationPipeline pipeline(config);
    // Enough models that many are first fetched at one venue and later
    // found there by a peer's summary-directed probe (a count coprime
    // with the venue count, so every model is requested at every venue).
    RegisterStormModels(pipeline, 39);
    for (const auto& p : RenderStorm(4, 300, 500.0, /*models=*/39)) {
      pipeline.EnqueuePlaced(p);
    }
    const obs::MetricsSnapshot before = pipeline.MergedMetricsSnapshot();
    const auto outcomes = pipeline.RunOpenLoop();
    const obs::MetricsSnapshot delta =
        pipeline.MergedMetricsSnapshot().DiffSince(before);
    EXPECT_EQ(delta.value("frame.copies"), 0u);
    EXPECT_EQ(delta.value("frame.gather_fuses"), 0u);
    EXPECT_EQ(delta.value("frame.gather_fused_bytes"), 0u);
    EXPECT_EQ(outcomes.size(), 300u);
    std::uint64_t forwards = 0;
    std::uint64_t peer_hits = 0;
    for (std::uint32_t v = 0; v < 4; ++v) {
      forwards += pipeline.edge(v).forwards();
      peer_hits += pipeline.edge(v).peer_hits();
    }
    EXPECT_GT(forwards, 0u);  // the storm really took the miss path
    EXPECT_GT(peer_hits, 0u);
    // Whichever way a model reached an edge — from the cloud or from a
    // peer — every edge holding it holds the cloud memo's one buffer.
    std::vector<proto::FeatureDescriptor> keys;
    pipeline.edge(0).cache().ForEachKey(
        [&keys](const proto::FeatureDescriptor& key) { keys.push_back(key); });
    std::size_t held_twice = 0;
    std::size_t shared = 0;
    for (const auto& key : keys) {
      const auto first =
          pipeline.edge(0).mutable_cache().Lookup(key, SimTime::Epoch());
      for (std::uint32_t v = 1; v < 4; ++v) {
        const auto other =
            pipeline.edge(v).mutable_cache().Lookup(key, SimTime::Epoch());
        if (!first.hit || !other.hit) continue;
        ++held_twice;
        if (first.payload.SharesBufferWith(other.payload)) ++shared;
      }
    }
    EXPECT_GT(held_twice, 0u);
    EXPECT_EQ(shared, held_twice);
    if (loss > 0) {
      EXPECT_GT(delta.value("net.datagram.messages_reassembled"), 0u);
      EXPECT_GT(delta.value("net.datagram.chunks_retransmitted"), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Gossip wire pins
// ---------------------------------------------------------------------------

/// FNV-1a hash of an outcome stream: venue, source, error, object id,
/// latency and completion time of every outcome, in stream order.
std::uint64_t OutcomeStreamHash(
    const std::vector<federation::FederationOutcome>& outcomes) {
  ByteWriter w;
  for (const auto& o : outcomes) {
    w.WriteU32(o.venue);
    w.WriteU8(static_cast<std::uint8_t>(o.outcome.source));
    w.WriteU8(o.outcome.error ? 1 : 0);
    w.WriteU64(o.outcome.object_id);
    w.WriteI64(o.outcome.latency.micros());
    w.WriteI64(o.completed_at.micros());
  }
  return Fnv1a64(w.bytes());
}

/// The exact gossip traffic of one run — every summary and ack counter —
/// plus an FNV-1a hash of its outcome stream.
struct GossipWire {
  std::uint64_t updates = 0;
  std::uint64_t deltas = 0;
  std::uint64_t bytes_full = 0;
  std::uint64_t bytes_delta = 0;
  std::uint64_t acks = 0;
  std::uint64_t ack_resends = 0;
  std::uint64_t outcome_hash = 0;
  bool operator==(const GossipWire&) const = default;
};

/// Prints as the initializer the pins below are written in.
void PrintTo(const GossipWire& w, std::ostream* os) {
  *os << '{' << w.updates << ", " << w.deltas << ", " << w.bytes_full << ", "
      << w.bytes_delta << ", " << w.acks << ", " << w.ack_resends << ", 0x"
      << std::hex
      << w.outcome_hash << std::dec << "ull}";
}

/// A 4-venue, 400-request render storm at 300 req/s over 25 models
/// under `config` — enough misses that peer probes carry acks.
GossipWire MeasureGossipWire(const FederationPipelineConfig& config,
                             bool closed_loop = false) {
  constexpr std::uint32_t kModels = 25;
  FederationPipeline pipeline(config);
  RegisterStormModels(pipeline, kModels);
  for (const auto& p : RenderStorm(4, 400, 300.0, kModels)) {
    pipeline.EnqueuePlaced(p);
  }
  const auto outcomes = closed_loop ? pipeline.Run() : pipeline.RunOpenLoop();
  return {pipeline.summary_updates_sent(), pipeline.summary_deltas_sent(),
          pipeline.summary_bytes_full(),   pipeline.summary_bytes_delta(),
          pipeline.summary_acks_sent(),    pipeline.summary_ack_resends(),
          OutcomeStreamHash(outcomes)};
}

FederationPipelineConfig DeltaStormConfig() {
  FederationPipelineConfig config = OpenLoopClusterConfig(4);
  config.delta_gossip = true;
  return config;
}

// One row per shipped gossip mode. The integers are the wire a refactor
// of the gossip send side must reproduce exactly: a changed count, byte
// total or outcome hash means the frames on the wire changed.

TEST(GossipWirePinTest, FullGossip) {
  const GossipWire want{336, 0, 368256, 0,  // summaries
                        0, 0,               // acks
                        0x990ff571beb02c23ull};
  EXPECT_EQ(MeasureGossipWire(OpenLoopClusterConfig(4)), want);
}

TEST(GossipWirePinTest, FullGossipClosedLoop) {
  const GossipWire want{2604, 0, 2853984, 0,  // summaries
                        0, 0,                 // acks
                        0xd539cc9c9bacc049ull};
  EXPECT_EQ(MeasureGossipWire(OpenLoopClusterConfig(4), /*closed_loop=*/true),
            want);
}

TEST(GossipWirePinTest, DeltaGossip) {
  const GossipWire want{12, 84, 13152, 8784,  // summaries
                        0, 0,                 // acks
                        0x990ff571beb02c23ull};
  EXPECT_EQ(MeasureGossipWire(DeltaStormConfig()), want);
}

TEST(GossipWirePinTest, DeltaGossipWithFullRefreshEveryTwoRounds) {
  FederationPipelineConfig config = DeltaStormConfig();
  config.delta_full_refresh_rounds = 2;
  const GossipWire want{168, 36, 184128, 3936,  // summaries
                        0, 0,                   // acks
                        0x990ff571beb02c23ull};
  EXPECT_EQ(MeasureGossipWire(config), want);
}

// Acks ride along under full gossip but never trigger a resend: full
// gossip records no sent-state, so every ack finds nothing to repair.
TEST(GossipWirePinTest, FullGossipOverLossyTransport) {
  FederationPipelineConfig config = OpenLoopClusterConfig(4);
  config.transport = FederationTransportConfig::Lossy(0.03);
  const GossipWire want{7464, 0, 8180544, 0,  // summaries
                        56, 0,                // acks
                        0x512931834a370044ull};
  EXPECT_EQ(MeasureGossipWire(config), want);
}

TEST(GossipWirePinTest, DeltaGossipOverLossyTransport) {
  FederationPipelineConfig config = DeltaStormConfig();
  config.transport = FederationTransportConfig::Lossy(0.03);
  const GossipWire want{20, 105, 21920, 10364,  // summaries
                        62, 8,                  // acks
                        0x17ca96327d3ecb7ull};
  EXPECT_EQ(MeasureGossipWire(config), want);
}

// ---------------------------------------------------------------------------
// Delta gossip at scale
// ---------------------------------------------------------------------------

TEST(DeltaGossipTest, DeltaGossipBytesShrinkAtScale) {
  // The scaling economics at 16 venues on one seeded workload: full
  // gossip re-sends every summary to all 15 peers each round; delta
  // gossip sends a peer nothing while it is current and only the keys
  // inserted since its base otherwise. The storm spans ~2 s (~40 rounds
  // at 50 ms), so the quiet steady state, not the cache warmup, sets the
  // ratio. Outcomes are unchanged.
  const auto run = [](bool delta) {
    FederationPipelineConfig config =
        ClusterConfig(16, PeerSelectKind::kSummaryDirected);
    config.delta_gossip = delta;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline, 6);
    for (const auto& p : RenderStorm(16, 200, 100.0)) {
      pipeline.EnqueuePlaced(p);
    }
    const std::uint64_t hash = OutcomeStreamHash(pipeline.RunOpenLoop());
    return std::pair{
        pipeline.summary_bytes_full() + pipeline.summary_bytes_delta(), hash};
  };
  const auto [full_bytes, full_hash] = run(false);
  const auto [delta_bytes, delta_hash] = run(true);
  ASSERT_GT(delta_bytes, 0u);
  EXPECT_LT(delta_bytes * 10, full_bytes)
      << "full=" << full_bytes << " delta=" << delta_bytes;
  EXPECT_EQ(delta_hash, full_hash);
}

TEST(DeltaGossipTest, DeterministicAcrossWorkerCounts) {
  // Delta gossip keeps per-peer sent-state, so each send depends on what
  // was sent before. 12 venues at 3 workers puts venues {v, v+3, ...} on
  // one shard; 4 workers splits them differently. The sharded engine
  // must produce bit-identical outcome streams either way.
  const auto run = [](std::uint32_t workers) {
    FederationPipelineConfig config = OpenLoopClusterConfig(12);
    config.delta_gossip = true;
    config.execution.workers = workers;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline, 6);
    for (const auto& p : RenderStorm(12, 240, 400.0)) {
      pipeline.EnqueuePlaced(p);
    }
    std::vector<std::tuple<std::uint32_t, ResultSource, bool, std::int64_t,
                           std::int64_t>>
        rows;
    for (const auto& o : pipeline.RunOpenLoop()) {
      rows.emplace_back(o.venue, o.outcome.source, o.outcome.error,
                        o.outcome.latency.micros(),
                        (o.completed_at - SimTime::Epoch()).micros());
    }
    EXPECT_GT(pipeline.summary_deltas_sent(), 0u) << workers << " workers";
    return rows;  // canonical (completed_at, venue) order at every count
  };
  const auto single = run(1);
  ASSERT_EQ(single.size(), 240u);
  for (const std::uint32_t workers : {3u, 4u}) {
    const auto sharded = run(workers);
    ASSERT_EQ(sharded.size(), single.size()) << workers << " workers";
    for (std::size_t i = 0; i < single.size(); ++i) {
      ASSERT_EQ(sharded[i], single[i])
          << "outcome " << i << " diverged at " << workers << " workers";
    }
  }
}

// ---------------------------------------------------------------------------
// Streamed descriptor pass
// ---------------------------------------------------------------------------

/// A 3-venue recognition storm at 200 req/s: 6 users over 12 objects on
/// 32x32 rasters, with handoffs so venues see each other's scenes.
std::vector<trace::PlacedRecord> RecognitionStorm(std::size_t n) {
  trace::ClusterWorkloadConfig workload;
  workload.base.users = 6;
  workload.base.objects = 12;
  workload.base.arrival_rate_hz = 200;
  workload.base.scene_raster = 32;
  workload.venues = 3;
  workload.handoff_probability = 0.2;
  trace::ClusterWorkloadGenerator gen(workload);
  return gen.GenerateRecognition(n);
}

/// Descriptors per client user id, sorted: a multiset per client, since
/// the edge sees each client's requests in issue order, which need not
/// be enqueue order.
using DescriptorsByUser =
    std::map<std::uint32_t, std::vector<std::vector<float>>>;

/// Records every RecognitionRequest descriptor that reaches an edge,
/// keyed by the sending client's user id. One list per venue: each is
/// written only on its venue's shard thread. Install once per pipeline.
class RecognitionDescriptorTap {
 public:
  explicit RecognitionDescriptorTap(FederationPipeline& pipeline)
      : seen_(pipeline.config().venues) {
    for (std::uint32_t v = 0; v < pipeline.config().venues; ++v) {
      netsim::Network& net = pipeline.venue_network(v);
      const netsim::NodeId edge = pipeline.edge_node(v);
      net.SetHandler(edge, [inner = net.handler(edge), &list = seen_[v]](
                               netsim::NodeId from, Frame frame, Frame tail) {
        if (proto::PeekMessageType(frame.span()) ==
            proto::MessageType::kRecognitionRequest) {
          const auto env = proto::DecodeEnvelope(frame.span());
          EXPECT_TRUE(env.ok());
          if (env.ok()) {
            const auto req = proto::DecodePayloadAs<proto::RecognitionRequest>(
                env.value(), proto::MessageType::kRecognitionRequest);
            EXPECT_TRUE(req.ok());
            if (req.ok()) {
              const auto vec = req.value().descriptor.vector();
              list.emplace_back(req.value().user_id,
                                std::vector<float>(vec.begin(), vec.end()));
            }
          }
        }
        inner(from, std::move(frame), std::move(tail));
      });
    }
  }

  /// What the edges saw since the last call; clears the record.
  DescriptorsByUser Take() {
    DescriptorsByUser got;
    for (auto& list : seen_) {
      for (auto& [user, descriptor] : list) {
        got[user].push_back(std::move(descriptor));
      }
      list.clear();
    }
    for (auto& [user, descriptors] : got) {
      std::sort(descriptors.begin(), descriptors.end());
    }
    return got;
  }

 private:
  std::vector<std::vector<std::pair<std::uint32_t, std::vector<float>>>>
      seen_;
};

/// Enqueues `placed` on `pipeline` and returns what each client would
/// have extracted inline (Generate + Extract), per user id.
DescriptorsByUser EnqueueWithInlineDescriptors(
    FederationPipeline& pipeline,
    const std::vector<trace::PlacedRecord>& placed) {
  const std::uint32_t mobiles = pipeline.config().mobiles_per_venue;
  DescriptorsByUser want;
  for (const auto& p : placed) {
    const std::uint32_t mobile = p.record.user_id % mobiles;
    const auto& client = pipeline.client(p.venue, mobile);
    want[p.venue * mobiles + mobile + 1].push_back(client.extractor().Extract(
        vision::SyntheticImage::Generate(p.record.scene)));
    pipeline.EnqueuePlaced(p);
  }
  for (auto& [user, descriptors] : want) {
    std::sort(descriptors.begin(), descriptors.end());
  }
  return want;
}

// Outcome hash of RecognitionStorm(60) on OpenLoopClusterConfig(3) in
// CoIC mode, identical at one and two workers and to the hash before
// descriptors were computed off the run loop: descriptors computed
// ahead of time change nothing.
constexpr std::uint64_t kCoicStormOutcomeHash = 0xda79ca6416b1dd2aull;

TEST(DescribePassTest, EveryRecognitionCarriesTheInlineDescriptor) {
  constexpr std::size_t kOps = 60;
  const auto placed = RecognitionStorm(kOps);
  for (const std::uint32_t workers : {1u, 2u}) {
    FederationPipelineConfig config = OpenLoopClusterConfig(3);
    config.execution.workers = workers;
    FederationPipeline pipeline(config);
    RecognitionDescriptorTap tap(pipeline);
    const DescriptorsByUser want =
        EnqueueWithInlineDescriptors(pipeline, placed);
    const auto outcomes = pipeline.RunOpenLoop();
    ASSERT_EQ(outcomes.size(), kOps);
    EXPECT_EQ(pipeline.open_loop_stats().frames_described, kOps);
    EXPECT_EQ(OutcomeStreamHash(outcomes), kCoicStormOutcomeHash)
        << workers << " workers";
    EXPECT_EQ(tap.Take(), want) << workers << " workers";
  }
}

TEST(DescribePassTest, StreamedDescriptorsMatchInlineAcrossBackToBackRuns) {
  // Each Drive builds fresh slots and helpers, so a second batch on the
  // same pipeline streams its own descriptors. Whichever way the run
  // loop took a slot (inline, after a wait, or ready), the edge must see
  // exactly the inline descriptor.
  const auto check_stats = [](const federation::OpenLoopStats& stats,
                              std::size_t n, const std::string& where) {
    EXPECT_EQ(stats.frames_described, n) << where;
    // Every slot is described inline by the loop or filled by a helper;
    // a wait is one kind of helper fill. (Drive CHECKs the exact
    // partition, counting the slots found ready.)
    EXPECT_LE(stats.frames_described_inline, stats.frames_described) << where;
    EXPECT_LE(stats.describe_waits,
              stats.frames_described - stats.frames_described_inline)
        << where;
  };
  for (const std::uint32_t workers : {1u, 4u}) {
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.execution.workers = workers;
    FederationPipeline pipeline(config);
    RecognitionDescriptorTap tap(pipeline);
    for (const std::size_t n : {48u, 72u}) {
      const std::string where = std::to_string(workers) + " workers, " +
                                std::to_string(n) + "-op batch";
      const DescriptorsByUser want =
          EnqueueWithInlineDescriptors(pipeline, RecognitionStorm(n));
      const auto outcomes = pipeline.RunOpenLoop();
      ASSERT_EQ(outcomes.size(), n) << where;
      check_stats(pipeline.open_loop_stats(), n, where);
      EXPECT_EQ(tap.Take(), want) << where;
    }
  }
  // The closed loop issues in enqueue order, one at a time.
  FederationPipeline closed(OpenLoopClusterConfig(3));
  RecognitionDescriptorTap tap(closed);
  const DescriptorsByUser want =
      EnqueueWithInlineDescriptors(closed, RecognitionStorm(40));
  const auto outcomes = closed.Run();
  ASSERT_EQ(outcomes.size(), 40u);
  check_stats(closed.open_loop_stats(), 40, "closed loop");
  EXPECT_EQ(tap.Take(), want);
}

TEST(DescribePassTest, AFailedDescribeRethrowsOnTheRunLoop) {
  // A raster too large to allocate makes DescribeScene throw. Whether a
  // helper or the run loop describes that slot, the exception must reach
  // the caller of RunOpenLoop and no thread may be left waiting.
  FederationPipelineConfig config = OpenLoopClusterConfig(3);
  config.execution.workers = 1;
  FederationPipeline pipeline(config);
  auto placed = RecognitionStorm(60);
  placed.back().record.scene.width = UINT32_MAX;
  placed.back().record.scene.height = UINT32_MAX;
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  EXPECT_THROW(pipeline.RunOpenLoop(), std::length_error);
}

/// A panorama storm at 200 req/s over `venues` venues: 8 users moving
/// through `frames` frames of video 5 (loosely synchronized, so keys
/// repeat across users and venues), from placement seed `seed`.
std::vector<trace::PlacedRecord> PanoramaStorm(std::uint32_t venues,
                                               std::size_t n,
                                               std::uint32_t frames,
                                               std::uint64_t seed = 11) {
  trace::ClusterWorkloadConfig workload;
  workload.base.users = 8;
  workload.base.arrival_rate_hz = 200;
  workload.venues = venues;
  workload.handoff_probability = 0.2;
  workload.placement_seed = seed;
  trace::ClusterWorkloadGenerator gen(workload);
  return gen.GeneratePanorama(n, /*video_id=*/5, frames);
}

/// Records the content digest of every PanoramaResult payload the cloud
/// delivers to an edge, keyed by (video id, frame index). One list per
/// venue: each is written only on its venue's shard thread. Install
/// once per pipeline.
class CloudPanoramaTap {
 public:
  using Key = std::pair<std::uint64_t, std::uint32_t>;

  explicit CloudPanoramaTap(FederationPipeline& pipeline)
      : seen_(pipeline.config().venues) {
    for (std::uint32_t v = 0; v < pipeline.config().venues; ++v) {
      netsim::Network& net = pipeline.venue_network(v);
      const netsim::NodeId edge = pipeline.edge_node(v);
      net.SetHandler(edge, [inner = net.handler(edge), &list = seen_[v],
                            cloud = pipeline.cloud_node()](
                               netsim::NodeId from, Frame frame, Frame tail) {
        if (from == cloud && proto::PeekMessageType(frame.span()) ==
                                 proto::MessageType::kPanoramaResult) {
          const auto env = proto::DecodeEnvelopeView(frame.span(), tail.span());
          EXPECT_TRUE(env.ok());
          if (env.ok()) {
            ByteVec payload(env.value().payload.begin(),
                            env.value().payload.end());
            payload.insert(payload.end(), env.value().payload_tail.begin(),
                           env.value().payload_tail.end());
            ByteReader r(payload);
            const auto result = proto::PanoramaResultView::Decode(r);
            EXPECT_TRUE(result.ok());
            if (result.ok()) {
              list.emplace_back(
                  Key{result.value().video_id, result.value().frame_index},
                  ContentDigest(payload));
            }
          }
        }
        inner(from, std::move(frame), std::move(tail));
      });
    }
  }

  /// Checks every payload seen since the last call against
  /// BuildPanoramaPayload; returns how many there were and clears them.
  std::size_t ExpectBuiltPayloads(const core::CostModel& costs,
                                  const std::string& where) {
    std::size_t n = 0;
    for (auto& list : seen_) {
      for (const auto& [key, digest] : list) {
        auto want = built_.find(key);
        if (want == built_.end()) {
          want = built_
                     .emplace(key, ContentDigest(
                                       core::CloudService::BuildPanoramaPayload(
                                           costs, key.first, key.second)
                                           .span()))
                     .first;
        }
        EXPECT_EQ(digest, want->second)
            << where << ": video " << key.first << " frame " << key.second;
        ++n;
      }
      list.clear();
    }
    return n;
  }

 private:
  std::vector<std::vector<std::pair<Key, Digest128>>> seen_;
  std::map<Key, Digest128> built_;
};

/// Every panorama slot is taken at most once: found built, built
/// inline, or waited on. (Drive CHECKs the exact partition, counting
/// the slots never taken.)
void ExpectPanoramaSlotTakes(const federation::OpenLoopStats& stats,
                             const std::string& where) {
  EXPECT_LE(stats.panoramas_prebuilt + stats.panoramas_built_inline +
                stats.panorama_waits,
            stats.panorama_slots)
      << where;
}

TEST(HelperPanoramaTest, PrebuiltPayloadsMatchTheBuilderAcrossBackToBackRuns) {
  // Whichever way the cloud took a key's slot (built ahead, inline, or
  // after a wait), the edge must receive exactly BuildPanoramaPayload's
  // bytes. The first batch's 360 ops wrap around all 40 frames, which
  // outgrow the cloud memo's 32-entry bound, so the memo clears mid-run
  // and later misses rebuild taken keys inline; the second batch
  // re-requests keys the memo may still hold.
  for (const std::uint32_t workers : {1u, 4u}) {
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.execution.workers = workers;
    FederationPipeline pipeline(config);
    CloudPanoramaTap tap(pipeline);
    std::uint64_t seed = 11;
    for (const std::size_t n : {360u, 60u}) {
      const std::string where = std::to_string(workers) + " workers, " +
                                std::to_string(n) + "-op batch";
      for (const auto& p : PanoramaStorm(4, n, 40, seed++)) {
        pipeline.EnqueuePlaced(p);
      }
      const auto outcomes = pipeline.RunOpenLoop();
      ASSERT_EQ(outcomes.size(), n) << where;
      const auto& stats = pipeline.open_loop_stats();
      EXPECT_EQ(stats.frames_described, 0u) << where;
      ExpectPanoramaSlotTakes(stats, where);
      EXPECT_EQ(stats.panorama_slots, n == 360 ? 40u : 14u) << where;
      if (n == 360) {
        EXPECT_GT(tap.ExpectBuiltPayloads(config.costs, where), 0u) << where;
      } else {
        tap.ExpectBuiltPayloads(config.costs, where);
      }
    }
  }
  // The closed loop issues in enqueue order, one at a time.
  FederationPipeline closed(OpenLoopClusterConfig(4));
  CloudPanoramaTap tap(closed);
  for (const auto& p : PanoramaStorm(4, 40, 40)) closed.EnqueuePlaced(p);
  ASSERT_EQ(closed.Run().size(), 40u);
  ExpectPanoramaSlotTakes(closed.open_loop_stats(), "closed loop");
  EXPECT_GT(tap.ExpectBuiltPayloads(closed.config().costs, "closed loop"), 0u);
}

// Outcome hash of PanoramaStorm(4, 60, 40) on OpenLoopClusterConfig(4),
// identical at one and four workers and to the hash before the cloud's
// panorama payloads were built off the run loop.
constexpr std::uint64_t kPanoramaStormOutcomeHash = 0xb4417b2317cc7606ull;

TEST(HelperPanoramaTest, PrebuildingChangesNoOutcome) {
  for (const std::uint32_t workers : {1u, 4u}) {
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.execution.workers = workers;
    FederationPipeline pipeline(config);
    for (const auto& p : PanoramaStorm(4, 60, 40)) pipeline.EnqueuePlaced(p);
    EXPECT_EQ(OutcomeStreamHash(pipeline.RunOpenLoop()),
              kPanoramaStormOutcomeHash)
        << workers << " workers";
  }
}

TEST(HelperPanoramaTest, ASecondBatchOfMemoizedKeysDrains) {
  // 20 frames fit the cloud memo, so the second batch's keys are all
  // memoized (or cached at the edges): it gets no payload slot and
  // starts no helper, and it must still drain and return.
  FederationPipeline pipeline(OpenLoopClusterConfig(4));
  for (const std::uint64_t seed : {11u, 12u}) {
    for (const auto& p : PanoramaStorm(4, 40, 20, seed)) {
      pipeline.EnqueuePlaced(p);
    }
    ASSERT_EQ(pipeline.RunOpenLoop().size(), 40u) << "seed " << seed;
  }
  const auto& stats = pipeline.open_loop_stats();
  EXPECT_EQ(stats.panorama_slots, 0u);
  EXPECT_EQ(stats.helper_threads, 0u);
  EXPECT_EQ(stats.panoramas_prebuilt + stats.panoramas_built_inline +
                stats.panorama_waits,
            0u);
}

TEST(HelperPanoramaTest, ASecondBatchPrebuildsOnlyItsNewKeys) {
  // The first batch leaves frames 0-9 in the cloud's memo. The second
  // re-requests them, each at a venue that has not cached it (edges do
  // not cooperate, so every edge miss reaches the cloud), and adds
  // frames 10-12: only the three new keys get a payload slot, so the
  // helpers' look-ahead window is not held shut by payloads no miss
  // will take. Thirty recognitions at 96x96 arrive first, keeping the
  // run loop busy long enough for each helper to claim a new key, which
  // the cloud then finds built or waits on.
  constexpr std::uint32_t kHeldFrames = 10;
  constexpr std::uint32_t kNewFrames = 3;
  for (const std::uint32_t workers : {1u, 4u}) {
    const std::string where = std::to_string(workers) + " workers";
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.cooperative = false;
    config.execution.workers = workers;
    FederationPipeline pipeline(config);
    CloudPanoramaTap tap(pipeline);
    for (std::uint32_t f = 0; f < kHeldFrames; ++f) {
      pipeline.EnqueuePanoramaAt(f % 4, /*video_id=*/5, f);
    }
    ASSERT_EQ(pipeline.RunOpenLoop().size(), kHeldFrames) << where;
    EXPECT_EQ(pipeline.open_loop_stats().panorama_slots, kHeldFrames) << where;
    tap.ExpectBuiltPayloads(config.costs, where + ", first batch");

    const SimTime t0 = pipeline.scheduler().now() + Duration::Seconds(1);
    for (std::uint32_t i = 0; i < 30; ++i) {
      pipeline.EnqueueRecognitionAt(
          i % 4, {.scene_id = 1 + i % 12, .view_angle_deg = 0.5 * i},
          /*mobile=*/i % 2, t0 + Duration::Millis(i));
    }
    for (std::uint32_t f = 0; f < kHeldFrames + kNewFrames; ++f) {
      pipeline.EnqueuePanoramaAt((f + 1) % 4, /*video_id=*/5, f,
                                 /*mobile=*/1,
                                 t0 + Duration::Millis(100 + 10 * f));
    }
    ASSERT_EQ(pipeline.RunOpenLoop().size(), 30 + kHeldFrames + kNewFrames)
        << where;
    const auto& stats = pipeline.open_loop_stats();
    EXPECT_EQ(stats.panorama_slots, kNewFrames) << where;
    // Each new key misses at the cloud exactly once and takes its slot.
    EXPECT_EQ(stats.panoramas_prebuilt + stats.panoramas_built_inline +
                  stats.panorama_waits,
              kNewFrames)
        << where;
    EXPECT_GE(stats.panoramas_prebuilt + stats.panorama_waits,
              std::min<std::uint64_t>(kNewFrames, stats.helper_threads))
        << where << ": built inline " << stats.panoramas_built_inline;
    EXPECT_EQ(tap.ExpectBuiltPayloads(config.costs, where + ", second batch"),
              kHeldFrames + kNewFrames)
        << where;
  }
}

TEST(HelperPanoramaTest, AFailedBuildRethrowsOnTheRunLoop) {
  // A pad too large to allocate makes BuildPanoramaPayload throw.
  // Whether a helper or the run loop builds that slot, the exception
  // must reach the caller of RunOpenLoop and no thread may be left
  // waiting.
  FederationPipelineConfig config = OpenLoopClusterConfig(4);
  config.execution.workers = 1;
  config.costs.panorama.frame_bytes = Bytes{1} << 63;
  FederationPipeline pipeline(config);
  for (const auto& p : PanoramaStorm(4, 20, 10)) pipeline.EnqueuePlaced(p);
  EXPECT_THROW(pipeline.RunOpenLoop(), std::length_error);
}

TEST(DescribePassTest, DescribesNothingInOriginModeOrWithoutRecognitions) {
  // Origin uploads the frame it synthesizes at issue time: no slot.
  FederationPipelineConfig origin = OpenLoopClusterConfig(3);
  origin.client_mode = proto::OffloadMode::kOrigin;
  FederationPipeline origin_pipeline(origin);
  for (const auto& p : RecognitionStorm(30)) origin_pipeline.EnqueuePlaced(p);
  const auto origin_outcomes = origin_pipeline.RunOpenLoop();
  ASSERT_EQ(origin_outcomes.size(), 30u);
  EXPECT_EQ(origin_pipeline.open_loop_stats().frames_described, 0u);
  EXPECT_EQ(origin_pipeline.open_loop_stats().frames_described_inline, 0u);
  EXPECT_EQ(origin_pipeline.open_loop_stats().describe_waits, 0u);
  EXPECT_EQ(origin_pipeline.open_loop_stats().helper_threads, 0u);
  EXPECT_EQ(OutcomeStreamHash(origin_outcomes), 0x58edba408824d8edull);

  // A render-only storm: the GossipWirePinTest.FullGossip run, same hash.
  FederationPipeline render_pipeline(OpenLoopClusterConfig(4));
  RegisterStormModels(render_pipeline, 25);
  for (const auto& p : RenderStorm(4, 400, 300.0, 25)) {
    render_pipeline.EnqueuePlaced(p);
  }
  const auto render_outcomes = render_pipeline.RunOpenLoop();
  EXPECT_EQ(render_pipeline.open_loop_stats().frames_described, 0u);
  EXPECT_EQ(render_pipeline.open_loop_stats().panorama_slots, 0u);
  EXPECT_EQ(render_pipeline.open_loop_stats().helper_threads, 0u);
  EXPECT_EQ(OutcomeStreamHash(render_outcomes), 0x990ff571beb02c23ull);
}

}  // namespace
}  // namespace coic
