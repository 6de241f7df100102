// Chaos soak — compound faults + flash overload with graceful degradation.
//
// The paper's testbed reshapes the network between runs; this soak breaks
// it mid-run. One mixed AR trace replays open-loop against a 4-venue mesh
// while a FaultSchedule scripts an edge crash/cold-restart, a topology
// partition, a WAN brownout, a Gilbert–Elliott bursty-loss window and a
// 4x flash-overload burst — with the full overload-control stack on
// (admission bound, wire deadlines, edge->cloud circuit breaker, client
// local fallback). Per run it reports goodput-within-deadline, p99, and
// per-heal hit-rate recovery time; a separate 4x-overload pair pins that
// overload control ON beats OFF on both goodput and p99; a final
// determinism pair pins that identical seeds + schedules replay
// bit-identically. Every row must fully drain.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/log.h"
#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "netsim/chaos.h"
#include "trace/workload.h"

namespace coic::bench {
namespace {

using federation::FederationOutcome;
using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using federation::FederationTransportConfig;

constexpr std::uint32_t kVenues = 4;
constexpr std::uint32_t kMobilesPerVenue = 4;
constexpr std::uint64_t kVideoId = 7;
constexpr std::uint32_t kObjects = 12;
constexpr double kBaseHz = 150;
/// Display budget goodput is measured against (and the wire deadline
/// clients stamp when overload control is on). Sits above the 1.1 s
/// on-device extraction a CoIC recognition always pays.
constexpr Duration kDeadline = Duration::Millis(2500);

/// Retry/ack stack for the soak: timeouts sized to the fault windows
/// (crash ~1 s must be survivable within the client budget), summary
/// aging so a crashed venue stops attracting probes.
FederationTransportConfig SoakTransport(bool overload_control) {
  FederationTransportConfig t;
  t.datagram = true;
  t.client_retry.timeout = Duration::Millis(2'000);
  t.client_retry.max_retries = 4;
  t.client_retry.max_timeout = Duration::Millis(8'000);
  t.cloud_retry.timeout = Duration::Millis(1'000);
  t.cloud_retry.max_retries = 3;
  t.cloud_retry.max_timeout = Duration::Millis(4'000);
  t.peer_probe_timeout = Duration::Millis(500);
  t.summary_ack = true;
  t.summary_max_age = Duration::Millis(3'000);
  if (overload_control) {
    t.edge_max_pending = 64;
    t.breaker_failure_threshold = 4;
    t.breaker_open_duration = Duration::Millis(1'000);
    t.client_deadline = kDeadline;
    t.client_local_fallback = true;
  }
  return t;
}

FederationPipelineConfig SoakConfig(bool overload_control) {
  FederationPipelineConfig config;
  config.venues = kVenues;
  config.mobiles_per_venue = kMobilesPerVenue;
  config.topology = federation::TopologyKind::kFullMesh;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(100);
  config.network =
      core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  config.transport = SoakTransport(overload_control);
  return config;
}

/// Base soak trace plus a 4x flash-overload burst in [0.82, 0.88] of the
/// base span. Returns {trace, span}: span is the last base arrival, the
/// anchor every fault time is placed against.
std::pair<std::vector<trace::PlacedRecord>, SimTime> MakeSoakTrace(
    std::size_t base_ops) {
  trace::ClusterWorkloadConfig wl;
  wl.venues = kVenues;
  wl.base.users = kVenues * kMobilesPerVenue;
  wl.base.objects = kObjects;
  wl.base.scene_raster = 32;
  trace::ClusterWorkloadGenerator gen(wl);
  std::vector<std::uint64_t> model_ids;
  for (std::uint64_t m = 1; m <= kObjects; ++m) model_ids.push_back(m);

  auto placed = gen.GenerateMixed(base_ops, model_ids, kVideoId);
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), kBaseHz);
  SimTime span = SimTime::Epoch();
  for (const auto& p : placed) span = std::max(span, p.record.at);

  // Flash crowd: a quarter of the base volume arriving 4x as fast,
  // shifted into a narrow late window.
  auto burst = gen.GenerateMixed(base_ops / 4, model_ids, kVideoId);
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(burst), 4 * kBaseHz,
                        /*seed=*/29);
  const Duration burst_start =
      Duration::Micros((span - SimTime::Epoch()).micros() * 82 / 100);
  for (auto& p : burst) {
    p.record.at = p.record.at + burst_start;
    placed.push_back(p);
  }
  std::sort(placed.begin(), placed.end(),
            [](const trace::PlacedRecord& a, const trace::PlacedRecord& b) {
              return a.record.at < b.record.at;
            });
  return {std::move(placed), span};
}

struct HealPoint {
  const char* fault;  ///< "crash-rejoin" / "partition-heal"
  SimTime at;
  std::vector<std::uint32_t> venues;  ///< Venues whose service was cut.
};

/// The scripted compound-fault scenario, all times anchored on the base
/// trace span. Also returns the heal instants recovery is measured from.
netsim::FaultSchedule MakeSchedule(SimTime span,
                                   std::vector<HealPoint>* heals) {
  const auto frac = [span](int pct) {
    return SimTime::Epoch() +
           Duration::Micros((span - SimTime::Epoch()).micros() * pct / 100);
  };
  netsim::FaultSchedule chaos;

  netsim::FaultSchedule::Crash crash;
  crash.venue = 1;
  crash.down_at = frac(20);
  crash.up_at = frac(32);
  crash.wipe_cache = true;  // cold restart: hit rate must rebuild
  chaos.crashes.push_back(crash);
  heals->push_back({"crash-rejoin", crash.up_at, {1}});

  netsim::FaultSchedule::Partition part;
  part.island = {2, 3};
  part.at = frac(45);
  part.heal_at = frac(57);
  chaos.partitions.push_back(part);
  heals->push_back({"partition-heal", part.heal_at, {2, 3}});

  // WAN brownout at venue 0: bandwidth dips to a tenth, then restores.
  netsim::FaultSchedule::Brownout brownout;
  brownout.venue = 0;
  brownout.steps.push_back(
      netsim::LinkConditionStep{frac(60), Bandwidth::Mbps(20), -1.0, -1});
  brownout.steps.push_back(
      netsim::LinkConditionStep{frac(68), Bandwidth::Mbps(200), -1.0, -1});
  chaos.brownouts.push_back(brownout);

  netsim::FaultSchedule::LossBurst burst;
  burst.at = frac(70);
  burst.end_at = frac(78);
  burst.model.good_to_bad = 0.05;
  burst.model.bad_to_good = 0.20;
  burst.model.good_loss_rate = 0.0;
  burst.model.bad_loss_rate = 0.25;
  chaos.loss_bursts.push_back(burst);

  return chaos;
}

struct SoakResult {
  std::uint64_t operations = 0;
  std::uint64_t drained = 0;
  std::uint64_t errors = 0;
  std::uint64_t achieved = 0;  ///< Non-error completions.
  std::uint64_t goodput = 0;   ///< Non-error, non-degraded, within deadline.
  std::uint64_t degraded = 0;  ///< Local-fallback completions.
  double hit_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t overload_sheds = 0;
  std::uint64_t overload_rejects = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t down_drops = 0;
  std::uint64_t client_timeouts = 0;
  std::uint64_t events_fired = 0;
  double wall_secs = 0;
  std::vector<FederationOutcome> outcomes;
};

SoakResult Measure(FederationPipelineConfig config,
                   const std::vector<trace::PlacedRecord>& placed,
                   std::uint32_t render_models = kObjects) {
  FederationPipeline pipeline(std::move(config));
  for (std::uint64_t m = 1; m <= render_models; ++m) {
    pipeline.RegisterModel(m, KB(256) + (m % 8) * KB(4));
  }
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);

  const obs::MetricsSnapshot before = pipeline.metrics().Snapshot();
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t fired_before = pipeline.scheduler().total_fired();
  auto outcomes = pipeline.RunOpenLoop();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const obs::MetricsSnapshot delta =
      pipeline.metrics().Snapshot().DiffSince(before);

  core::QoeAggregator agg;
  SoakResult r;
  for (const auto& o : outcomes) {
    agg.Add(o.outcome);
    if (o.outcome.error) continue;
    ++r.achieved;
    if (o.outcome.source == proto::ResultSource::kLocal) {
      ++r.degraded;
    } else if (o.outcome.latency <= kDeadline) {
      ++r.goodput;
    }
  }
  r.operations = placed.size();
  r.drained = outcomes.size();
  r.errors = agg.errors();
  r.hit_rate = agg.HitRate();
  r.p50_ms = agg.PercentileLatencyMs(50);
  r.p99_ms = agg.PercentileLatencyMs(99);
  r.overload_sheds = pipeline.total_overload_sheds();
  r.overload_rejects = pipeline.total_overload_rejects();
  for (std::uint32_t v = 0; v < pipeline.config().venues; ++v) {
    r.breaker_opens += pipeline.edge(v).breaker_opens();
  }
  r.fault_events =
      pipeline.chaos() != nullptr ? pipeline.chaos()->events_fired() : 0;
  r.down_drops = delta.value("net.links.down_drops");
  r.client_timeouts = pipeline.total_client_timeouts();
  r.events_fired = pipeline.scheduler().total_fired() - fired_before;
  r.wall_secs = wall;
  r.outcomes = std::move(outcomes);
  return r;
}

/// Hit-rate recovery after a heal: the end of the first window of
/// `kWindow` affected-venue completions at/after `heal` whose cache hit
/// rate reaches half the fault-free baseline. Falls back to the last
/// affected completion when the run ends first (finite either way).
struct Recovery {
  double ms = 0;
  bool recovered = false;
};

Recovery RecoveryAfterHeal(const SoakResult& r, const HealPoint& heal,
                           double baseline_hit_rate) {
  constexpr std::size_t kWindow = 20;
  const double target = 0.5 * baseline_hit_rate;
  std::vector<const FederationOutcome*> post;
  for (const auto& o : r.outcomes) {
    if (o.completed_at < heal.at) continue;
    if (std::find(heal.venues.begin(), heal.venues.end(), o.venue) ==
        heal.venues.end()) {
      continue;
    }
    post.push_back(&o);
  }
  std::sort(post.begin(), post.end(),
            [](const FederationOutcome* a, const FederationOutcome* b) {
              return a->completed_at < b->completed_at;
            });
  Recovery rec;
  for (std::size_t i = 0; i + kWindow <= post.size(); ++i) {
    std::size_t hits = 0;
    for (std::size_t j = i; j < i + kWindow; ++j) {
      const auto src = post[j]->outcome.source;
      if (src == proto::ResultSource::kEdgeCache ||
          src == proto::ResultSource::kPeerEdge) {
        ++hits;
      }
    }
    if (static_cast<double>(hits) / kWindow >= target) {
      rec.ms = (post[i + kWindow - 1]->completed_at - heal.at).millis();
      rec.recovered = true;
      return rec;
    }
  }
  rec.ms = post.empty()
               ? 0.0
               : (post.back()->completed_at - heal.at).millis();
  return rec;
}

void PrintRow(BenchJson& json, const char* row, const SoakResult& r) {
  std::printf(
      "%-16s %6llu/%llu %5llu %6llu %6llu %6.1f%% %8.1f %9.1f %5llu %5llu "
      "%3llu %4llu\n",
      row, static_cast<unsigned long long>(r.drained),
      static_cast<unsigned long long>(r.operations),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.goodput),
      static_cast<unsigned long long>(r.degraded), r.hit_rate * 100, r.p50_ms,
      r.p99_ms, static_cast<unsigned long long>(r.overload_sheds),
      static_cast<unsigned long long>(r.overload_rejects),
      static_cast<unsigned long long>(r.breaker_opens),
      static_cast<unsigned long long>(r.fault_events));
  json.AddRow()
      .Set("row", row)
      .Set("operations", r.operations)
      .Set("drained", r.drained)
      .Set("errors", r.errors)
      .Set("achieved", r.achieved)
      .Set("goodput", r.goodput)
      .Set("degraded", r.degraded)
      .Set("hit_rate", r.hit_rate)
      .Set("p50_ms", r.p50_ms)
      .Set("p99_ms", r.p99_ms)
      .Set("overload_sheds", r.overload_sheds)
      .Set("overload_rejects", r.overload_rejects)
      .Set("breaker_opens", r.breaker_opens)
      .Set("fault_events", r.fault_events)
      .Set("down_drops", r.down_drops)
      .Set("client_timeouts", r.client_timeouts)
      .SetEvents(r.events_fired, r.operations);
}

/// The 4x-overload pair: a render storm of mostly-distinct models over a
/// tight 10 Mbps WAN, offered at 4x the WAN's service rate. OFF queues
/// until client budgets burn; ON sheds at the admission bound (sized so
/// every admitted fetch still meets the deadline) and degrades the rest
/// to the on-device fallback.
SoakResult MeasureOverload(bool overload_control, std::size_t ops) {
  FederationPipelineConfig config;
  config.venues = kVenues;
  config.mobiles_per_venue = kMobilesPerVenue;
  config.topology = federation::TopologyKind::kFullMesh;
  config.gossip_period = Duration::Millis(100);
  config.network =
      core::NetworkCondition{Bandwidth::Mbps(100), Bandwidth::Mbps(10)};
  FederationTransportConfig t;
  t.datagram = true;
  t.client_retry.timeout = Duration::Millis(4'000);
  t.client_retry.max_retries = 3;
  t.client_retry.max_timeout = Duration::Millis(8'000);
  // Generous edge->cloud timeout: the WAN is saturated, not dead, and a
  // spuriously retransmitted fetch would only deepen the queue.
  t.cloud_retry.timeout = Duration::Millis(8'000);
  t.cloud_retry.max_retries = 1;
  t.cloud_retry.max_timeout = Duration::Millis(8'000);
  t.peer_probe_timeout = Duration::Millis(500);
  t.summary_ack = true;
  if (overload_control) {
    // ~215 ms WAN serialization per ~270 KB model: 8 in flight keep the
    // oldest admitted fetch inside the 2.5 s deadline.
    t.edge_max_pending = 8;
    t.breaker_failure_threshold = 6;
    t.breaker_open_duration = Duration::Millis(2'000);
    t.client_deadline = kDeadline;
    t.client_local_fallback = true;
  }
  config.transport = t;

  const std::uint32_t models = static_cast<std::uint32_t>(ops);
  auto placed = trace::MakeRenderStorm(kVenues, ops, 4 * 2.0 * kVenues,
                                       models);
  return Measure(std::move(config), placed, models);
}

void PrintSoakTable(bool quick) {
  PrintHeader(
      "Chaos soak: 4-venue mesh, mixed AR trace, scripted compound faults\n"
      "(edge crash + cold restart, partition, WAN brownout, bursty loss,\n"
      "4x flash crowd) with admission bound + deadlines + circuit breaker\n"
      "+ client local fallback; every row must fully drain");
  std::printf("%-16s %9s %5s %6s %6s %7s %8s %9s %5s %5s %3s %4s\n", "row",
              "drained", "err", "good", "degr", "hit", "p50 ms", "p99 ms",
              "shed", "rej", "brk", "flt");
  BenchJson json("chaos_soak");

  const std::size_t base_ops = quick ? 500 : 4'000;
  const auto [placed, span] = MakeSoakTrace(base_ops);

  // Fault-free anchor: same trace (flash crowd included), no schedule.
  const SoakResult baseline = Measure(SoakConfig(true), placed);
  PrintRow(json, "baseline", baseline);

  std::vector<HealPoint> heals;
  const netsim::FaultSchedule chaos = MakeSchedule(span, &heals);
  FederationPipelineConfig chaos_config = SoakConfig(true);
  chaos_config.chaos = chaos;
  const SoakResult faulted = Measure(chaos_config, placed);
  PrintRow(json, "chaos", faulted);

  for (const HealPoint& heal : heals) {
    const Recovery rec = RecoveryAfterHeal(faulted, heal, baseline.hit_rate);
    std::printf("  %-14s heal at %7.0f ms -> hit rate back in %7.1f ms%s\n",
                heal.fault, (heal.at - SimTime::Epoch()).millis(), rec.ms,
                rec.recovered ? "" : " (run ended first)");
    json.AddRow()
        .Set("row", "heal")
        .Set("fault", heal.fault)
        .Set("heal_ms", (heal.at - SimTime::Epoch()).millis())
        .Set("recovery_ms", rec.ms)
        .Set("recovered", rec.recovered ? 1 : 0);
  }

  const std::size_t overload_ops = quick ? 192 : 640;
  PrintRow(json, "overload-4x-off", MeasureOverload(false, overload_ops));
  PrintRow(json, "overload-4x-on", MeasureOverload(true, overload_ops));

  // Determinism: the same seed + schedule must replay bit-identically —
  // every outcome's venue, task, source, error flag, latency and
  // completion instant.
  const SoakResult replay = Measure(chaos_config, placed);
  std::uint64_t mismatch = 0;
  if (replay.outcomes.size() != faulted.outcomes.size()) {
    mismatch = faulted.outcomes.size() + replay.outcomes.size();
  } else {
    for (std::size_t i = 0; i < replay.outcomes.size(); ++i) {
      const auto& a = faulted.outcomes[i];
      const auto& b = replay.outcomes[i];
      if (std::tuple(a.venue, a.outcome.task, a.outcome.source,
                     a.outcome.error, a.outcome.latency.micros(),
                     a.completed_at.micros()) !=
          std::tuple(b.venue, b.outcome.task, b.outcome.source,
                     b.outcome.error, b.outcome.latency.micros(),
                     b.completed_at.micros())) {
        ++mismatch;
      }
    }
  }
  std::printf("  determinism: %llu mismatched outcomes across 2 runs "
              "(%llu fault events each)\n",
              static_cast<unsigned long long>(mismatch),
              static_cast<unsigned long long>(replay.fault_events));
  json.AddRow()
      .Set("row", "determinism")
      .Set("runs", 2)
      .Set("outcome_mismatch", mismatch)
      .Set("fault_events", replay.fault_events);

  std::printf(
      "\nevery row drains; under the 4x storm overload control ON must beat\n"
      "OFF on goodput-within-deadline and p99 (sheds become fast degraded\n"
      "local results instead of queue-and-timeout errors); identical seed +\n"
      "schedule replays to identical outcomes.\n");
}

void BM_ChaosSoak(benchmark::State& state) {
  const auto [placed, span] =
      MakeSoakTrace(static_cast<std::size_t>(state.range(0)));
  std::vector<HealPoint> heals;
  for (auto _ : state) {
    FederationPipelineConfig config = SoakConfig(true);
    heals.clear();
    config.chaos = MakeSchedule(span, &heals);
    const auto r = Measure(config, placed);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaosSoak)->Arg(500);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kError);
  const bool quick = coic::bench::QuickMode(argc, argv);
  coic::bench::PrintSoakTable(quick);
  if (quick) {
    char name[] = "bench_chaos_soak";
    char min_time[] = "--benchmark_min_time=0.001";
    char* quick_argv[] = {name, min_time, nullptr};
    int quick_argc = 2;
    benchmark::Initialize(&quick_argc, quick_argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
