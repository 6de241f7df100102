// Federation scaling — cluster-wide hit rate and probe traffic vs
// cluster size and peer-selection policy.
//
// K venues serve K user populations drawing from one shared Zipf object
// pool (the metro-popular content of the paper's co-location study).
// Each venue's first request for an object misses everywhere; once any
// venue has it, federation turns the other venues' misses into LAN peer
// hits. The table reports, per cluster size and policy: cluster-wide
// hit rate (local + peer), peer probes sent (the traffic a policy
// spends), summary-gossip messages, and mean latency.
//
// Three further sections close ROADMAP items:
//   * gossip_period × churn staleness ablation — hit-rate loss per unit
//     of summary staleness, and full- vs delta-gossip wire bytes under a
//     rotating catalogue (the regime where every round re-advertises);
//   * relay storm on a shaped 8-ring — broadcast probes riding the same
//     venue links as relays and gossip, p99 inflation vs link speed;
//   * flat gossip at 16-256 venues — full vs delta summaries (bytes,
//     hit rate, p99, probes), and a 64-edge 1-vs-4-worker determinism
//     check of delta gossip over the sorted outcome stream.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/status.h"
#include "federation/federation_pipeline.h"
#include "trace/workload.h"

namespace coic::bench {
namespace {

using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using federation::PeerSelectKind;
using federation::TopologyKind;

struct FederationResult {
  double hit_rate = 0;
  double mean_ms = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t peer_probes = 0;
  std::uint64_t summary_updates = 0;
  std::uint64_t cloud_tasks = 0;
  std::uint64_t operations = 0;
  std::uint64_t sim_events = 0;
};

FederationResult MeasureCluster(std::uint32_t venues, PeerSelectKind policy,
                                bool cooperative,
                                std::size_t requests_per_venue = 30,
                                std::uint32_t objects = 12) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.cooperative = cooperative;
  config.policy.kind = policy;
  config.gossip_period = Duration::Millis(100);
  FederationPipeline pipeline(config);

  std::vector<std::uint64_t> model_ids;
  for (std::uint64_t m = 1; m <= objects; ++m) {
    pipeline.RegisterModel(m, KB(256) + m * KB(8));
    model_ids.push_back(m);
  }

  // Interleave venues so the shared pool warms up cluster-wide, the way
  // co-located crowds actually arrive.
  Rng rng(0xFED5 + venues);
  ZipfDistribution popularity(objects, 0.9);
  for (std::size_t i = 0; i < requests_per_venue; ++i) {
    for (std::uint32_t v = 0; v < venues; ++v) {
      pipeline.EnqueueRenderAt(v, model_ids[popularity.Sample(rng)]);
    }
  }

  const auto outcomes = pipeline.Run();
  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);

  FederationResult result;
  result.hit_rate = agg.HitRate();
  result.mean_ms = agg.MeanLatencyMs();
  result.peer_hits = pipeline.total_peer_hits();
  result.peer_probes = pipeline.total_peer_probes();
  result.summary_updates = pipeline.summary_updates_sent();
  result.cloud_tasks = pipeline.cloud().tasks_executed();
  result.operations = outcomes.size();
  result.sim_events = pipeline.scheduler().total_fired();
  return result;
}

void PrintFederationTable(BenchJson& json) {
  PrintHeader(
      "Federation scaling: cluster-wide hit rate & probe traffic\n"
      "K venues x 30 shared-pool render requests each, Zipf(0.9) over 12 "
      "objects;\nfull-mesh metro LAN, gossip every 100 ms");
  std::printf("%-8s %-18s %9s %9s %8s %8s %9s %10s\n", "venues", "policy",
              "hit rate", "mean ms", "peerhit", "probes", "gossip", "cloud");
  for (const std::uint32_t venues : {1u, 2u, 4u, 8u}) {
    const struct {
      const char* label;
      PeerSelectKind kind;
      bool cooperative;
    } kColumns[] = {
        {"solo", PeerSelectKind::kBroadcastAll, false},
        {"broadcast-all", PeerSelectKind::kBroadcastAll, true},
        {"summary-directed", PeerSelectKind::kSummaryDirected, true},
        {"random-k", PeerSelectKind::kRandomK, true},
    };
    for (const auto& col : kColumns) {
      if (venues == 1 && col.cooperative) continue;  // no peers to probe
      const auto r = MeasureCluster(venues, col.kind, col.cooperative);
      std::printf("%-8u %-18s %8.1f%% %9.1f %8llu %8llu %9llu %10llu\n",
                  venues, col.label, r.hit_rate * 100, r.mean_ms,
                  static_cast<unsigned long long>(r.peer_hits),
                  static_cast<unsigned long long>(r.peer_probes),
                  static_cast<unsigned long long>(r.summary_updates),
                  static_cast<unsigned long long>(r.cloud_tasks));
      json.AddRow()
          .Set("section", "scaling")
          .Set("venues", static_cast<std::uint64_t>(venues))
          .Set("policy", col.label)
          .Set("hit_rate", r.hit_rate)
          .Set("mean_ms", r.mean_ms)
          .Set("peer_hits", r.peer_hits)
          .Set("peer_probes", r.peer_probes)
          .Set("summary_updates", r.summary_updates)
          .Set("cloud_tasks", r.cloud_tasks)
          .SetEvents(r.sim_events, r.operations);
    }
  }
  std::printf(
      "\nsummary-directed should match broadcast-all's hit rate while\n"
      "sending a small fraction of its probes; the residual gap is\n"
      "gossip staleness (results cached since the last summary round).\n");
}

// ---------------------------------------------------------------------------
// Gossip staleness × churn ablation (delta vs full summaries)
// ---------------------------------------------------------------------------

struct ChurnResult {
  double hit_rate = 0;
  double mean_ms = 0;
  std::uint64_t summary_updates = 0;
  std::uint64_t summary_deltas = 0;
  std::uint64_t bytes_full = 0;
  std::uint64_t bytes_delta = 0;
  std::uint64_t operations = 0;
  std::uint64_t sim_events = 0;
};

/// A churning shared catalogue (trace::MakeChurnWorkload): the Zipf
/// window slides every `rotate` rounds, so fresh content keeps entering
/// every cache and summaries keep changing — the regime where gossip
/// frames dominate. Smaller `rotate` = higher churn.
ChurnResult MeasureChurn(Duration gossip_period, std::uint32_t rotate,
                         bool delta_gossip,
                         std::size_t requests_per_venue = 40) {
  constexpr std::uint32_t kVenues = 4;
  constexpr std::uint32_t kWindow = 8;
  constexpr std::uint32_t kCatalog = 40;
  FederationPipelineConfig config;
  config.venues = kVenues;
  config.policy.kind = PeerSelectKind::kSummaryDirected;
  config.gossip_period = gossip_period;
  config.delta_gossip = delta_gossip;
  FederationPipeline pipeline(config);

  for (std::uint64_t m = 1; m <= kCatalog; ++m) {
    pipeline.RegisterModel(m, KB(128) + m * KB(4));
  }
  for (const auto& p : trace::MakeChurnWorkload(kVenues, requests_per_venue,
                                                kWindow, kCatalog, rotate)) {
    pipeline.EnqueuePlaced(p);
  }

  const auto outcomes = pipeline.Run();
  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);

  ChurnResult result;
  result.hit_rate = agg.HitRate();
  result.mean_ms = agg.MeanLatencyMs();
  result.summary_updates = pipeline.summary_updates_sent();
  result.summary_deltas = pipeline.summary_deltas_sent();
  result.bytes_full = pipeline.summary_bytes_full();
  result.bytes_delta = pipeline.summary_bytes_delta();
  result.operations = outcomes.size();
  result.sim_events = pipeline.scheduler().total_fired();
  return result;
}

void PrintStalenessChurnTable(BenchJson& json) {
  PrintHeader(
      "Gossip staleness x churn: hit rate & summary wire bytes\n"
      "4 venues, summary-directed, Zipf(0.9) window of 8 sliding over a\n"
      "40-object catalogue; high churn slides every 4 rounds, low every 16.\n"
      "Each cell runs full-summary gossip vs delta gossip on an identical\n"
      "workload: same hit rate, far fewer gossip bytes.");
  std::printf("%-10s %-6s %18s %18s %14s %14s %14s\n", "period", "churn",
              "hit full/delta", "gossip KB f/d", "full frames",
              "delta frames", "delta shrink");
  for (const auto period_ms : {25u, 100u, 400u, 1600u}) {
    for (const std::uint32_t rotate : {4u, 16u}) {
      const char* churn = rotate == 4 ? "high" : "low";
      const auto full =
          MeasureChurn(Duration::Millis(period_ms), rotate, false);
      const auto delta =
          MeasureChurn(Duration::Millis(period_ms), rotate, true);
      const std::uint64_t full_total = full.bytes_full + full.bytes_delta;
      const std::uint64_t delta_total = delta.bytes_full + delta.bytes_delta;
      std::printf(
          "%6u ms  %-6s %8.1f%% /%6.1f%% %9.1f /%7.1f %14llu %14llu %13.1fx\n",
          period_ms, churn, full.hit_rate * 100, delta.hit_rate * 100,
          static_cast<double>(full_total) / 1024.0,
          static_cast<double>(delta_total) / 1024.0,
          static_cast<unsigned long long>(delta.summary_updates),
          static_cast<unsigned long long>(delta.summary_deltas),
          delta_total > 0
              ? static_cast<double>(full_total) /
                    static_cast<double>(delta_total)
              : 0.0);
      json.AddRow()
          .Set("section", "staleness_churn")
          .Set("gossip_period_ms", static_cast<std::uint64_t>(period_ms))
          .Set("churn", churn)
          .Set("hit_rate_full", full.hit_rate)
          .Set("hit_rate_delta", delta.hit_rate)
          .Set("mean_ms_full", full.mean_ms)
          .Set("mean_ms_delta", delta.mean_ms)
          .Set("summary_bytes_full", full_total)
          .Set("summary_bytes_delta", delta_total)
          .Set("full_frames_delta_mode", delta.summary_updates)
          .Set("delta_frames", delta.summary_deltas)
          .SetEvents(full.sim_events + delta.sim_events,
                     full.operations + delta.operations);
    }
  }
  std::printf(
      "\nhit rate falls as the gossip period grows (staleness: content\n"
      "cached since the last round is not yet advertised) and delta\n"
      "gossip matches full gossip's hit rate at a fraction of the bytes —\n"
      "most rounds ship a handful of keys instead of the whole Bloom\n"
      "array, and peers that are already current get nothing at all.\n");
}

// ---------------------------------------------------------------------------
// Relay storm on a shaped 8-ring
// ---------------------------------------------------------------------------

struct RelayStormResult {
  double hit_rate = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t relay_forwards = 0;
  std::uint64_t peer_probes = 0;
  std::uint64_t operations = 0;
  std::uint64_t sim_events = 0;
};

/// Broadcast probes on an 8-ring: most peers are 2-4 hops away, so every
/// miss fans relay traffic onto the same venue links that carry peer
/// replies and gossip. `peer_mbps` shapes those links.
RelayStormResult MeasureRelayStorm(double peer_mbps,
                                   std::size_t requests = 240,
                                   double rate_hz = 600.0) {
  FederationPipelineConfig config;
  config.venues = 8;
  config.topology = TopologyKind::kRing;
  config.policy.kind = PeerSelectKind::kBroadcastAll;
  config.gossip_period = Duration::Millis(100);
  config.peer_link.bandwidth = Bandwidth::Mbps(peer_mbps);
  config.peer_link.propagation = Duration::Millis(1);
  // Provisioned access + WAN so the shaped venue links dominate.
  config.network =
      core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  FederationPipeline pipeline(config);

  constexpr std::uint32_t kModels = 10;
  for (std::uint64_t m = 1; m <= kModels; ++m) {
    pipeline.RegisterModel(m, KB(64) + m * KB(4));
  }
  const auto placed = trace::MakeRenderStorm(8, requests, rate_hz, kModels);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);

  const auto outcomes = pipeline.RunOpenLoop();
  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);

  RelayStormResult result;
  result.hit_rate = agg.HitRate();
  result.mean_ms = agg.MeanLatencyMs();
  result.p50_ms = agg.PercentileLatencyMs(50);
  result.p99_ms = agg.PercentileLatencyMs(99);
  result.relay_forwards = pipeline.relay_forwards();
  result.peer_probes = pipeline.total_peer_probes();
  result.operations = outcomes.size();
  result.sim_events = pipeline.scheduler().total_fired();
  return result;
}

void PrintRelayStormTable(BenchJson& json) {
  PrintHeader(
      "Relay storm: broadcast probes on a shaped 8-ring\n"
      "240 render requests at 600 req/s; every miss probes all 7 peers,\n"
      "so relays to the 2-4 hop venues share the ring links with replies\n"
      "and gossip. Shaping the venue links inflates the relay path tail.");
  std::printf("%-12s %9s %9s %9s %9s %9s %9s\n", "peer link", "hit rate",
              "mean ms", "p50 ms", "p99 ms", "relays", "probes");
  for (const double mbps : {1000.0, 100.0, 25.0}) {
    const auto r = MeasureRelayStorm(mbps);
    std::printf("%8.0f Mbps %8.1f%% %9.1f %9.1f %9.1f %9llu %9llu\n", mbps,
                r.hit_rate * 100, r.mean_ms, r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.relay_forwards),
                static_cast<unsigned long long>(r.peer_probes));
    json.AddRow()
        .Set("section", "relay_storm")
        .Set("peer_mbps", mbps)
        .Set("hit_rate", r.hit_rate)
        .Set("mean_ms", r.mean_ms)
        .Set("p50_ms", r.p50_ms)
        .Set("p99_ms", r.p99_ms)
        .Set("relay_forwards", r.relay_forwards)
        .Set("peer_probes", r.peer_probes)
        .SetEvents(r.sim_events, r.operations);
  }
  std::printf(
      "\nrelay_forwards tracks the probe fan-out (~4 forwards per\n"
      "broadcast round trip on the 8-ring); shaping the links queues the\n"
      "relay path — paid in tail latency, never in drops or errors.\n");
}

// ---------------------------------------------------------------------------
// Flat gossip at scale: full vs delta summaries at 16-256 venues
// ---------------------------------------------------------------------------

struct FlatScalingResult {
  double hit_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t drained = 0;
  std::uint64_t peer_probes = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t summary_frames = 0;
  std::uint64_t gossip_bytes = 0;
  std::uint64_t sim_events = 0;
};

constexpr std::uint32_t kScalingModels = 12;

federation::FederationPipelineConfig FlatScalingConfig(std::uint32_t venues,
                                                       bool delta,
                                                       std::uint32_t workers) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.policy.kind = PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(50);
  config.delta_gossip = delta;
  config.execution.workers = workers;
  config.execution.mode = federation::ExecutionConfig::Mode::kDeterministic;
  return config;
}

/// One Poisson render storm over the whole cluster; the arrival rate
/// scales with the venue count so every cluster size plays the same
/// ~2 s of sim time (~40 gossip rounds at 50 ms): a warmup burst while
/// caches fill and summaries churn, then the steady state where full
/// gossip keeps re-broadcasting O(N^2) frames every round and delta
/// gossip goes quiet.
void LoadScalingStorm(FederationPipeline& pipeline, std::uint32_t venues,
                      std::size_t requests_per_venue) {
  for (std::uint64_t m = 1; m <= kScalingModels; ++m) {
    pipeline.RegisterModel(m, KB(64) + m * KB(4));
  }
  for (const auto& p : trace::MakeRenderStorm(
           venues, venues * requests_per_venue,
           static_cast<double>(venues * requests_per_venue) / 2.0,
           kScalingModels)) {
    pipeline.EnqueuePlaced(p);
  }
}

FlatScalingResult MeasureFlatScaling(std::uint32_t venues, bool delta,
                                     std::size_t requests_per_venue) {
  FederationPipeline pipeline(FlatScalingConfig(venues, delta, 1));
  LoadScalingStorm(pipeline, venues, requests_per_venue);
  const auto outcomes = pipeline.RunOpenLoop();
  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);

  FlatScalingResult r;
  r.hit_rate = agg.HitRate();
  r.p50_ms = agg.PercentileLatencyMs(50);
  r.p99_ms = agg.PercentileLatencyMs(99);
  r.drained = outcomes.size();
  r.peer_probes = pipeline.total_peer_probes();
  r.peer_hits = pipeline.total_peer_hits();
  r.summary_frames =
      pipeline.summary_updates_sent() + pipeline.summary_deltas_sent();
  r.gossip_bytes =
      pipeline.summary_bytes_full() + pipeline.summary_bytes_delta();
  r.sim_events = pipeline.open_loop_stats().events_fired;
  return r;
}

/// The outcome stream reduced to the fields the determinism contract
/// pins, in the canonical (completion time, venue) order RunOpenLoop
/// returns at every worker count — the same reduction
/// DeltaGossipTest.DeterministicAcrossWorkerCounts asserts on.
using OutcomeRow = std::tuple<std::uint32_t, proto::ResultSource, bool,
                              std::int64_t, std::int64_t>;

std::vector<OutcomeRow> DeltaOutcomeRows(std::uint32_t venues,
                                         std::size_t requests_per_venue,
                                         std::uint32_t workers) {
  FederationPipeline pipeline(
      FlatScalingConfig(venues, /*delta=*/true, workers));
  LoadScalingStorm(pipeline, venues, requests_per_venue);
  std::vector<OutcomeRow> rows;
  for (const auto& o : pipeline.RunOpenLoop()) {
    rows.emplace_back(o.venue, o.outcome.source, o.outcome.error,
                      o.outcome.latency.micros(),
                      (o.completed_at - SimTime::Epoch()).micros());
  }
  return rows;
}

void PrintFlatScalingTable(BenchJson& json, bool quick) {
  PrintHeader(
      "Flat gossip at scale: full vs delta summaries\n"
      "K venues, one Poisson render storm (rate scaled so every size plays\n"
      "~2 s of sim), summary-directed probing, gossip every 50 ms.\n"
      "full: every summary to every peer each round; delta: a peer gets\n"
      "nothing while current, else the keys inserted since its base.");
  std::printf("%-8s %-6s %9s %9s %8s %9s %11s %11s %8s\n", "venues", "mode",
              "hit rate", "p99 ms", "probes", "summaries", "gossip KB",
              "bytes ratio", "drained");
  const std::size_t rpv = quick ? 6 : 8;
  std::vector<std::uint32_t> sizes{16u, 64u};
  if (!quick) {
    sizes.push_back(128u);
    sizes.push_back(256u);
  }
  const auto report = [&json, rpv](std::uint32_t venues, const char* mode,
                                   const FlatScalingResult& r, double ratio) {
    std::printf("%-8u %-6s %8.1f%% %9.1f %8llu %9llu %11.1f %10.1fx %8llu\n",
                venues, mode, r.hit_rate * 100, r.p99_ms,
                static_cast<unsigned long long>(r.peer_probes),
                static_cast<unsigned long long>(r.summary_frames),
                static_cast<double>(r.gossip_bytes) / 1024.0, ratio,
                static_cast<unsigned long long>(r.drained));
    json.AddRow()
        .Set("section", "flat_scaling")
        .Set("venues", static_cast<std::uint64_t>(venues))
        .Set("mode", mode)
        .Set("operations", static_cast<std::uint64_t>(venues) * rpv)
        .Set("hit_rate", r.hit_rate)
        .Set("p50_ms", r.p50_ms)
        .Set("p99_ms", r.p99_ms)
        .Set("peer_probes", r.peer_probes)
        .Set("peer_hits", r.peer_hits)
        .Set("summary_frames", r.summary_frames)
        .Set("gossip_bytes", r.gossip_bytes)
        .Set("bytes_ratio_vs_full", ratio)
        .Set("drained", r.drained)
        .SetEvents(r.sim_events, static_cast<std::uint64_t>(venues) * rpv);
  };
  for (const std::uint32_t venues : sizes) {
    // Each row is added right after its run so wall_ms (and
    // events_per_sec) bill the run that produced it.
    const auto full = MeasureFlatScaling(venues, /*delta=*/false, rpv);
    report(venues, "full", full, 1.0);
    const auto delta = MeasureFlatScaling(venues, /*delta=*/true, rpv);
    report(venues, "delta", delta,
           delta.gossip_bytes > 0 ? static_cast<double>(full.gossip_bytes) /
                                        static_cast<double>(delta.gossip_bytes)
                                  : 0.0);
  }

  // 64-edge determinism under delta gossip, whose sends depend on
  // per-peer sent-state: the outcome stream must be bit-identical
  // between 1 worker and 4 workers.
  const auto single = DeltaOutcomeRows(64, rpv, 1);
  const auto multi = DeltaOutcomeRows(64, rpv, 4);
  std::uint64_t mismatches = 0;
  if (single.size() != multi.size()) {
    mismatches = std::max(single.size(), multi.size());
  } else {
    for (std::size_t i = 0; i < single.size(); ++i) {
      if (single[i] != multi[i]) ++mismatches;
    }
  }
  std::printf("\n64-edge delta gossip, 1 vs 4 workers: %llu/%zu outcomes "
              "diverged\n",
              static_cast<unsigned long long>(mismatches), single.size());
  COIC_CHECK_MSG(mismatches == 0,
                 "sharded delta-gossip run diverged from one worker");
  json.AddRow()
      .Set("section", "flat_determinism")
      .Set("venues", static_cast<std::uint64_t>(64))
      .Set("mode", "delta")
      .Set("workers_compared", static_cast<std::uint64_t>(4))
      .Set("outcomes_compared", static_cast<std::uint64_t>(single.size()))
      .Set("outcome_mismatch", mismatches);
  std::printf(
      "\nfull gossip re-broadcasts every summary to every peer each round\n"
      "(O(N^2) frames); delta gossip sends only what a peer lacks: ~34x\n"
      "fewer bytes at every size, with the hit rate, tail and probes of\n"
      "full gossip.\n");
}

void BM_FederationRun(benchmark::State& state) {
  const auto venues = static_cast<std::uint32_t>(state.range(0));
  const auto kind = state.range(1) == 0 ? PeerSelectKind::kBroadcastAll
                                        : PeerSelectKind::kSummaryDirected;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureCluster(venues, kind, true, 10, 8));
  }
  state.SetLabel(std::string(PeerSelectKindName(kind)) + "/" +
                 std::to_string(venues) + "-edges");
}
BENCHMARK(BM_FederationRun)
    ->Args({2, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kWarn);
  const bool quick = coic::bench::QuickMode(argc, argv);
  {
    coic::bench::BenchJson json("federation_scaling");
    coic::bench::PrintFederationTable(json);
    coic::bench::PrintStalenessChurnTable(json);
    coic::bench::PrintRelayStormTable(json);
    coic::bench::PrintFlatScalingTable(json, quick);
  }
  if (quick) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
