// Open-loop throughput replay — the venue-scale request-storm regime.
//
// The paper's figures are a latency study: one request in flight
// cluster-wide (the closed loop). This bench drives the same 8-venue
// federation with open-loop arrivals — every trace record issued at its
// Poisson arrival time regardless of completions — and sweeps the
// offered load. Per level it reports the simulated service quality
// (p50/p99 latency, achieved throughput, hit rate, probe traffic,
// observed concurrency) and the simulator's own wall-clock speed
// (events/sec), which is what caps how large a cluster we can replay.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/frame.h"
#include "common/log.h"
#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "obs/trace.h"
#include "trace/workload.h"

namespace coic::bench {
namespace {

using federation::FederationPipeline;
using federation::FederationPipelineConfig;

constexpr std::uint32_t kVenues = 8;
constexpr std::uint32_t kMobilesPerVenue = 4;
constexpr std::uint64_t kVideoId = 7;
constexpr std::uint32_t kObjects = 12;

FederationPipelineConfig ReplayConfig() {
  FederationPipelineConfig config;
  config.venues = kVenues;
  config.mobiles_per_venue = kMobilesPerVenue;
  config.topology = federation::TopologyKind::kFullMesh;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(100);
  // Provisioned metro-edge links (vs the paper's throttled latency-study
  // testbed): throughput mode is about queueing at the services and peer
  // fabric, not about a 10 Mbps WAN saturating on the first storm.
  config.network =
      core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  return config;
}

std::vector<trace::PlacedRecord> MakeTrace(std::size_t n) {
  trace::ClusterWorkloadConfig wl;
  wl.venues = kVenues;
  wl.base.users = kVenues * kMobilesPerVenue;
  wl.base.objects = kObjects;
  // Throughput regime: a 32x32 extraction raster cuts ~9x the dominant
  // per-request wall cost (scene rendering) while preserving descriptor
  // locality; both regimes below share the trace, so rows stay comparable.
  wl.base.scene_raster = 32;
  trace::ClusterWorkloadGenerator gen(wl);
  std::vector<std::uint64_t> model_ids;
  for (std::uint64_t m = 1; m <= kObjects; ++m) model_ids.push_back(m);
  return gen.GenerateMixed(n, model_ids, kVideoId);
}

void RegisterModels(FederationPipeline& pipeline) {
  for (std::uint64_t m = 1; m <= kObjects; ++m) {
    pipeline.RegisterModel(m, KB(256) + m * KB(8));
  }
}

struct ReplayResult {
  double offered_hz = 0;
  double achieved_hz = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;
  std::uint64_t peer_probes = 0;
  std::uint64_t gossip_rounds = 0;
  std::uint32_t max_inflight = 0;
  std::uint64_t events_fired = 0;
  double wall_secs = 0;
  std::uint64_t operations = 0;
  /// Frame-payload duplications during the run (common/frame.h global
  /// counters) — the zero-copy fabric's "measured, not assumed" column.
  std::uint64_t frame_copies = 0;
  std::uint64_t frame_bytes_copied = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t cloud_forwards = 0;
};

ReplayResult MeasureOpenLoop(double offered_hz,
                             const std::vector<trace::PlacedRecord>& base,
                             FederationPipeline& pipeline) {
  RegisterModels(pipeline);

  std::vector<trace::PlacedRecord> placed = base;
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), offered_hz);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);

  // One snapshot covers frame copies, datagram stats and every
  // edge/client counter — no more per-counter record/subtract pairs.
  const obs::MetricsSnapshot before = pipeline.metrics().Snapshot();
  const auto start = std::chrono::steady_clock::now();
  const auto outcomes = pipeline.RunOpenLoop();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const obs::MetricsSnapshot delta =
      pipeline.metrics().Snapshot().DiffSince(before);

  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);
  const auto& stats = pipeline.open_loop_stats();

  ReplayResult r;
  r.offered_hz = offered_hz;
  const double span =
      (stats.last_completion - stats.first_arrival).seconds();
  r.achieved_hz = span > 0 ? static_cast<double>(outcomes.size()) / span : 0;
  r.p50_ms = agg.PercentileLatencyMs(50);
  r.p99_ms = agg.PercentileLatencyMs(99);
  r.hit_rate = agg.HitRate();
  r.peer_probes = pipeline.total_peer_probes();
  r.gossip_rounds = stats.gossip_rounds;
  r.max_inflight = stats.max_inflight;
  r.events_fired = stats.events_fired;
  r.wall_secs = wall;
  r.operations = outcomes.size();
  r.frame_copies = delta.value("frame.copies");
  r.frame_bytes_copied = delta.value("frame.bytes_copied");
  r.coalesced = pipeline.total_coalesced_requests();
  r.cloud_forwards = pipeline.total_cloud_forwards();
  return r;
}

ReplayResult MeasureOpenLoop(double offered_hz,
                             const std::vector<trace::PlacedRecord>& base) {
  FederationPipeline pipeline(ReplayConfig());
  return MeasureOpenLoop(offered_hz, base, pipeline);
}

/// Closed-loop reference on the identical trace: the N=1-in-flight
/// special case the paper's figures use; its hit rate anchors the
/// open-loop rows (same content, so comparable cache behavior).
ReplayResult MeasureClosedLoop(const std::vector<trace::PlacedRecord>& base) {
  FederationPipeline pipeline(ReplayConfig());
  RegisterModels(pipeline);
  for (const auto& p : base) pipeline.EnqueuePlaced(p);

  const obs::MetricsSnapshot before = pipeline.metrics().Snapshot();
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t fired_before = pipeline.scheduler().total_fired();
  const auto outcomes = pipeline.Run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const obs::MetricsSnapshot delta =
      pipeline.metrics().Snapshot().DiffSince(before);

  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);

  ReplayResult r;
  r.p50_ms = agg.PercentileLatencyMs(50);
  r.p99_ms = agg.PercentileLatencyMs(99);
  r.hit_rate = agg.HitRate();
  r.peer_probes = pipeline.total_peer_probes();
  r.max_inflight = 1;
  r.events_fired = pipeline.scheduler().total_fired() - fired_before;
  r.wall_secs = wall;
  r.operations = outcomes.size();
  r.frame_copies = delta.value("frame.copies");
  r.frame_bytes_copied = delta.value("frame.bytes_copied");
  r.coalesced = pipeline.total_coalesced_requests();
  r.cloud_forwards = pipeline.total_cloud_forwards();
  return r;
}

/// One storm with the tracer enabled: emits per-phase latency rows
/// (section "phase_breakdown") reduced from the tracer's histograms, and
/// optionally writes the full Chrome trace to `trace_out`. Runs after
/// the untraced rows so every headline number stays tracing-off.
void MeasureTracedReplay(BenchJson& json, double offered_hz,
                         const std::vector<trace::PlacedRecord>& base,
                         const std::string& trace_out) {
  FederationPipelineConfig config = ReplayConfig();
  config.trace.enabled = true;
  // Size the ring so the Chrome export keeps every span of the storm
  // (the per-phase histograms never evict regardless).
  config.trace.span_capacity = base.size() * 12;
  FederationPipeline pipeline(config);
  const ReplayResult r = MeasureOpenLoop(offered_hz, base, pipeline);
  json.AddRow()
      .Set("regime", "open-loop-traced")
      .Set("operations", r.operations)
      .Set("offered_hz", r.offered_hz)
      .Set("run_wall_ms", r.wall_secs * 1e3)
      .Set("frame_copies", r.frame_copies)
      .Set("spans_recorded", pipeline.tracer()->spans_recorded());

  std::printf("\nper-phase latency breakdown (traced %llu-op storm at %.0f "
              "Hz):\n",
              static_cast<unsigned long long>(r.operations), offered_hz);
  std::printf("%-16s %10s %10s %10s %10s\n", "phase", "spans", "mean us",
              "p50 us", "p99 us");
  const obs::RequestTracer& tracer = *pipeline.tracer();
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    const LatencyHistogram& hist = tracer.phase_histogram(phase);
    if (hist.count() == 0) continue;
    std::printf("%-16s %10llu %10.0f %10.0f %10.0f\n", obs::PhaseName(phase),
                static_cast<unsigned long long>(hist.count()),
                hist.MeanMicros(), hist.QuantileMicros(0.5),
                hist.QuantileMicros(0.99));
    json.AddRow()
        .Set("section", "phase_breakdown")
        .Set("phase", obs::PhaseName(phase))
        .Set("offered_hz", offered_hz)
        .Set("spans", hist.count())
        .Set("mean_us", hist.MeanMicros())
        .Set("p50_us", hist.QuantileMicros(0.5))
        .Set("p99_us", hist.QuantileMicros(0.99));
  }
  if (!trace_out.empty()) {
    const Status status = pipeline.tracer()->WriteChromeTrace(trace_out);
    if (status.ok()) {
      std::printf("chrome trace (%llu spans) -> %s\n",
                  static_cast<unsigned long long>(
                      pipeline.tracer()->spans_recorded()),
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "bench: trace export failed: %s\n",
                   status.message().c_str());
    }
  }
}

/// One sharded open-loop storm: emits the aggregate "sharded_storm" row
/// plus one "sharded_worker" row per worker thread (per-thread simulator
/// events/sec — the multi-core scaling trajectory). Deterministic mode
/// synchronizes every cross-shard-lookahead window and reproduces the
/// single-thread outcome stream bit for bit; fast mode barriers every
/// `fast_window` and pins only aggregate invariants.
void MeasureShardedStorm(BenchJson& json, double offered_hz,
                         const std::vector<trace::PlacedRecord>& base,
                         std::uint32_t workers,
                         federation::ExecutionConfig::Mode mode) {
  FederationPipelineConfig config = ReplayConfig();
  config.execution.workers = workers;
  config.execution.mode = mode;
  FederationPipeline pipeline(config);
  RegisterModels(pipeline);

  std::vector<trace::PlacedRecord> placed = base;
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), offered_hz);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);

  const auto start = std::chrono::steady_clock::now();
  const auto outcomes = pipeline.RunOpenLoop();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto& stats = pipeline.open_loop_stats();
  const char* mode_name =
      mode == federation::ExecutionConfig::Mode::kDeterministic
          ? "deterministic"
          : "fast";
  std::printf("%-8zu %7u %-13s %12llu %12llu %10.0f %9.0f\n", base.size(),
              workers, mode_name,
              static_cast<unsigned long long>(stats.sync_windows),
              static_cast<unsigned long long>(stats.cross_shard_messages),
              wall > 0 ? static_cast<double>(stats.events_fired) / wall : 0,
              wall * 1e3);
  json.AddRow()
      .Set("regime", "sharded_storm")
      .Set("operations", static_cast<std::uint64_t>(base.size()))
      .Set("drained", static_cast<std::uint64_t>(outcomes.size()))
      .Set("offered_hz", offered_hz)
      .Set("workers", static_cast<std::uint64_t>(workers))
      .Set("mode", mode_name)
      .Set("sync_windows", stats.sync_windows)
      .Set("cross_shard_messages", stats.cross_shard_messages)
      .Set("sim_events", stats.events_fired)
      .SetRunCost(stats.events_fired, base.size(), wall)
      .Set("run_wall_ms", wall * 1e3);
  for (std::size_t w = 0; w < stats.per_worker_events_fired.size(); ++w) {
    const std::uint64_t fired = stats.per_worker_events_fired[w];
    json.AddRow()
        .Set("section", "sharded_worker")
        .Set("workers", static_cast<std::uint64_t>(workers))
        .Set("mode", mode_name)
        .Set("worker", static_cast<std::uint64_t>(w))
        .Set("events_fired", fired)
        .Set("events_per_sec",
             wall > 0 ? static_cast<double>(fired) / wall : 0.0);
  }
}

/// Replays the same trace single-thread and sharded-deterministic and
/// counts outcome divergences — the bench-level pin of the bit-identity
/// contract (mirrors the chaos soak's determinism row; the schema check
/// fails CI on any mismatch).
void MeasureShardedDeterminism(BenchJson& json, double offered_hz,
                               const std::vector<trace::PlacedRecord>& base,
                               std::uint32_t workers) {
  using Row = std::tuple<std::uint32_t, int, int, bool, std::int64_t,
                         std::int64_t>;
  const auto rows_for = [&](std::uint32_t w) {
    FederationPipelineConfig config = ReplayConfig();
    config.execution.workers = w;
    FederationPipeline pipeline(config);
    RegisterModels(pipeline);
    std::vector<trace::PlacedRecord> placed = base;
    trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), offered_hz);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    std::vector<Row> rows;
    for (const auto& o : pipeline.RunOpenLoop()) {
      rows.emplace_back(o.venue, static_cast<int>(o.outcome.task),
                        static_cast<int>(o.outcome.source), o.outcome.error,
                        o.outcome.latency.micros(),
                        (o.completed_at - SimTime::Epoch()).micros());
    }
    // Canonical (completed_at, venue) order on both sides: the sharded
    // engine already returns it; impose it on the single-thread stream.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& x, const Row& y) {
                       if (std::get<5>(x) != std::get<5>(y))
                         return std::get<5>(x) < std::get<5>(y);
                       return std::get<0>(x) < std::get<0>(y);
                     });
    return rows;
  };

  const auto single = rows_for(1);
  const auto sharded = rows_for(workers);
  std::uint64_t mismatch = 0;
  if (single.size() != sharded.size()) {
    mismatch = single.size() > sharded.size() ? single.size() - sharded.size()
                                              : sharded.size() - single.size();
  }
  for (std::size_t i = 0; i < std::min(single.size(), sharded.size()); ++i) {
    if (single[i] != sharded[i]) ++mismatch;
  }
  std::printf("determinism: %zu ops, %u workers vs single thread -> %llu "
              "mismatched outcomes\n",
              base.size(), workers,
              static_cast<unsigned long long>(mismatch));
  json.AddRow()
      .Set("row", "sharded-determinism")
      .Set("operations", static_cast<std::uint64_t>(base.size()))
      .Set("offered_hz", offered_hz)
      .Set("workers", static_cast<std::uint64_t>(workers))
      .Set("outcome_mismatch", mismatch);
}

void PrintRow(BenchJson& json, const char* regime, std::size_t ops,
              const ReplayResult& r) {
  std::printf(
      "%-12s %8zu %9.0f %9.0f %8.1f %8.1f %7.1f%% %8llu %8u %10.0f %9llu\n",
      regime, ops, r.offered_hz, r.achieved_hz, r.p50_ms, r.p99_ms,
      r.hit_rate * 100, static_cast<unsigned long long>(r.peer_probes),
      r.max_inflight,
      r.wall_secs > 0 ? static_cast<double>(r.events_fired) / r.wall_secs : 0,
      static_cast<unsigned long long>(r.frame_copies));
  json.AddRow()
      .Set("regime", regime)
      .Set("operations", static_cast<std::uint64_t>(ops))
      .Set("offered_hz", r.offered_hz)
      .Set("achieved_hz", r.achieved_hz)
      .Set("p50_ms", r.p50_ms)
      .Set("p99_ms", r.p99_ms)
      .Set("hit_rate", r.hit_rate)
      .Set("peer_probes", r.peer_probes)
      .Set("gossip_rounds", r.gossip_rounds)
      .Set("max_inflight", static_cast<std::uint64_t>(r.max_inflight))
      .Set("sim_events", r.events_fired)
      // Match the printed column: cost over the tightly measured run
      // wall time, not the row-to-row wall time (which includes trace
      // generation and aggregation).
      .SetRunCost(r.events_fired, ops, r.wall_secs)
      .Set("run_wall_ms", r.wall_secs * 1e3)
      .Set("frame_copies", r.frame_copies)
      .Set("frame_bytes_copied", r.frame_bytes_copied)
      .Set("coalesced_requests", r.coalesced)
      .Set("cloud_forwards", r.cloud_forwards);
}

void PrintReplayTable(bool quick, const std::string& trace_out) {
  PrintHeader(
      "Open-loop throughput replay: 8-venue full mesh, mixed AR trace\n"
      "arrivals at offered load (Poisson), summary gossip every 100 ms on\n"
      "free-running per-edge timers; closed-loop row = same trace, 1 in "
      "flight");
  std::printf("%-12s %8s %9s %9s %8s %8s %8s %8s %8s %10s %9s\n", "regime",
              "ops", "offered", "achieved", "p50 ms", "p99 ms", "hit",
              "probes", "inflight", "events/s", "frmcopy");
  BenchJson json("throughput_replay");

  const std::size_t ops = quick ? 1500 : 20'000;
  const auto base = MakeTrace(ops);
  PrintRow(json, "closed-loop", ops, MeasureClosedLoop(base));
  const std::vector<double> loads =
      quick ? std::vector<double>{250, 1000}
            : std::vector<double>{100, 500, 1000, 2000};
  for (const double hz : loads) {
    PrintRow(json, "open-loop", ops, MeasureOpenLoop(hz, base));
  }
  {
    // Before/after anchor for the zero-copy frame-fabric refactor (PR 5).
    // This is PROVENANCE, not a live measurement: the 100k-op 1000 Hz
    // storm measured once at the PR 4 tree on the PR 5 development
    // machine (tight run wall; see CHANGES.md), pinned so the JSON
    // trajectory records the step — the old copying code no longer
    // exists to re-measure. The fields are prefixed `reference_` so
    // trajectory tooling can never mistake them for this run's numbers
    // (this row's auto-stamped wall_ms is just the AddRow call cost).
    // frame_copies was uninstrumented before the refactor; every ByteVec
    // hop (link delivery, decode payload copy, fan-out clone) duplicated
    // payload bytes.
    json.AddRow()
        .Set("regime", "storm-before-frame-fabric-reference")
        .Set("operations", std::uint64_t{100'000})
        .Set("offered_hz", 1000.0)
        .Set("reference_run_wall_ms", 26'555.0)
        .Set("reference_events_per_sec", 22'633.0)
        .Set("note",
             "pinned PR4-tree measurement from the PR5 dev machine; "
             "compare only against open-loop storm rows produced there");
  }
  if (!quick) {
    // The scaling claim: a 100k-operation storm replays in seconds —
    // compare against the storm-before-frame-fabric reference row.
    const std::size_t big = 100'000;
    const auto big_trace = MakeTrace(big);
    PrintRow(json, "open-loop", big, MeasureOpenLoop(1000, big_trace));
    // Traced re-run of the same 100k-op storm for the phase breakdown
    // and the Chrome export.
    MeasureTracedReplay(json, 1000, big_trace, trace_out);
  } else {
    MeasureTracedReplay(json, 1000, base, trace_out);
  }
  // Sharded engine rows: per-worker events/sec at each worker count in
  // both execution modes, plus the bit-identity anchor. Wall-clock
  // speedup depends on the host's core count, so the schema check pins
  // conservation and determinism, never a speedup ratio.
  std::printf("\nsharded open-loop storm (same trace, workers > 1):\n");
  std::printf("%-8s %7s %-13s %12s %12s %10s %9s\n", "ops", "workers",
              "mode", "windows", "xshard-msgs", "events/s", "wall ms");
  const std::vector<std::uint32_t> worker_counts =
      quick ? std::vector<std::uint32_t>{2, 4}
            : std::vector<std::uint32_t>{2, 4, 8};
  for (const std::uint32_t w : worker_counts) {
    MeasureShardedStorm(json, 1000, base, w,
                        federation::ExecutionConfig::Mode::kDeterministic);
  }
  for (const std::uint32_t w : worker_counts) {
    MeasureShardedStorm(json, 1000, base, w,
                        federation::ExecutionConfig::Mode::kFast);
  }
  if (!quick) {
    // The scale target: a million-operation storm, fast mode, all
    // eight venues sharded out.
    const auto million = MakeTrace(1'000'000);
    MeasureShardedStorm(json, 2000, million, 8,
                        federation::ExecutionConfig::Mode::kFast);
  }
  MeasureShardedDeterminism(json, 1000, base, 4);
  std::printf(
      "\nopen-loop hit rates should track the closed-loop row (same trace);\n"
      "p99 inflates with offered load as probe/link queueing appears —\n"
      "exactly the contention the sequential regime hides.\n");
}

void BM_OpenLoopReplay(benchmark::State& state) {
  const auto base = MakeTrace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto r = MeasureOpenLoop(1000, base);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OpenLoopReplay)->Arg(1000);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kError);
  const bool quick = coic::bench::QuickMode(argc, argv);
  // --trace-out=PATH writes the traced storm's Chrome trace there; quick
  // mode defaults to storm.trace.json (the build dir under CTest) so CI
  // always has an artifact to validate.
  std::string trace_out = quick ? "storm.trace.json" : "";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else {
      argv[kept++] = argv[i];  // strip our flag before benchmark::Initialize
    }
  }
  argc = kept;
  coic::bench::PrintReplayTable(quick, trace_out);
  if (quick) {
    char name[] = "bench_throughput_replay";
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
