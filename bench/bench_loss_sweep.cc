// Loss sweep — service quality vs wire loss with the recovery stack on.
//
// The paper's testbed is a clean lab network; real metro edges drop
// frames. This bench replays one mixed AR trace against a 4-venue mesh
// while sweeping Bernoulli per-frame loss from 0 to 5% with the full
// loss-tolerance stack enabled (datagram chunking, client/cloud
// timeout+retry, gossip ack/nack). Per row it reports hit rate and
// p50/p99 latency plus the recovery traffic that bought them: request
// retransmissions and timeouts, and the datagram layer's selective
// chunk recovery (NACKs, re-sent chunks, recovered messages, partials
// given up) — and the frame-copy counter, which must stay flat: both
// recovery paths re-send refcounted frames, they never duplicate
// payload bytes.
//
// The file-level gate in tools/check_bench_json.py holds the 1%
// open-loop p99 within a fixed factor of the loss-free open-loop p99.
//
// The 0%-loss rows run the default (inert) transport config, i.e. the
// exact pre-loss-tolerance wire behavior: their numbers are the
// reliable-fabric baseline every lossy row is read against.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
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
using federation::FederationTransportConfig;

constexpr std::uint32_t kVenues = 4;
constexpr std::uint32_t kMobilesPerVenue = 4;
constexpr std::uint64_t kVideoId = 7;
constexpr std::uint32_t kObjects = 12;
constexpr double kOfferedHz = 400;

FederationPipelineConfig SweepConfig(double loss_rate) {
  FederationPipelineConfig config;
  config.venues = kVenues;
  config.mobiles_per_venue = kMobilesPerVenue;
  config.topology = federation::TopologyKind::kFullMesh;
  config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(100);
  config.delta_gossip = true;
  config.network =
      core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  // Loss 0 keeps the default transport: no datagrams, no retry timers,
  // no acks — the reliable baseline, bit-identical to the pre-recovery
  // pipeline. Any positive loss flips the whole stack on.
  if (loss_rate > 0) {
    config.transport = FederationTransportConfig::Lossy(loss_rate);
  }
  return config;
}

std::vector<trace::PlacedRecord> MakeTrace(std::size_t n) {
  trace::ClusterWorkloadConfig wl;
  wl.venues = kVenues;
  wl.base.users = kVenues * kMobilesPerVenue;
  wl.base.objects = kObjects;
  wl.base.scene_raster = 32;
  trace::ClusterWorkloadGenerator gen(wl);
  std::vector<std::uint64_t> model_ids;
  for (std::uint64_t m = 1; m <= kObjects; ++m) model_ids.push_back(m);
  return gen.GenerateMixed(n, model_ids, kVideoId);
}

struct SweepResult {
  double loss_rate = 0;
  std::uint64_t operations = 0;
  std::uint64_t drained = 0;  ///< Outcomes delivered; a hung run shows here.
  std::uint64_t errors = 0;
  double hit_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t client_rtx = 0;
  std::uint64_t cloud_rtx = 0;
  std::uint64_t timeouts = 0;  ///< Client + cloud expiries (incl. recovered).
  std::uint64_t frames_lost = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t partials_discarded = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t chunks_retransmitted = 0;
  std::uint64_t messages_recovered = 0;
  std::uint64_t frame_copies = 0;
  std::uint64_t events_fired = 0;
  double wall_secs = 0;
};

SweepResult MeasureLossLevel(double loss_rate, bool open_loop,
                             const std::vector<trace::PlacedRecord>& base,
                             BenchJson* phase_json = nullptr) {
  FederationPipelineConfig config = SweepConfig(loss_rate);
  config.trace.enabled = phase_json != nullptr;
  FederationPipeline pipeline(config);
  for (std::uint64_t m = 1; m <= kObjects; ++m) {
    pipeline.RegisterModel(m, KB(256) + m * KB(8));
  }
  std::vector<trace::PlacedRecord> placed = base;
  if (open_loop) {
    trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), kOfferedHz);
  }
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);

  // One diffable snapshot instead of per-counter record/subtract pairs:
  // frame copies, datagram and link-loss tallies all ride the registry's
  // samplers.
  const obs::MetricsSnapshot before = pipeline.metrics().Snapshot();
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t fired_before = pipeline.scheduler().total_fired();
  const auto outcomes = open_loop ? pipeline.RunOpenLoop() : pipeline.Run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const obs::MetricsSnapshot delta =
      pipeline.metrics().Snapshot().DiffSince(before);

  core::QoeAggregator agg;
  for (const auto& o : outcomes) agg.Add(o.outcome);

  SweepResult r;
  r.loss_rate = loss_rate;
  r.operations = placed.size();
  r.drained = outcomes.size();
  r.errors = agg.errors();
  r.hit_rate = agg.HitRate();
  r.p50_ms = agg.PercentileLatencyMs(50);
  r.p99_ms = agg.PercentileLatencyMs(99);
  r.client_rtx = pipeline.total_client_retransmissions();
  r.cloud_rtx = pipeline.total_cloud_retransmissions();
  r.timeouts =
      pipeline.total_client_timeouts() + pipeline.total_cloud_timeouts();
  r.frames_lost = delta.value("net.links.frames_lost");
  r.chunks_sent = delta.value("net.datagram.chunks_sent");
  r.partials_discarded = delta.value("net.datagram.partials_discarded");
  r.nacks_sent = delta.value("net.datagram.nacks_sent");
  r.chunks_retransmitted = delta.value("net.datagram.chunks_retransmitted");
  r.messages_recovered = delta.value("net.datagram.messages_recovered");
  r.frame_copies = delta.value("frame.copies");
  r.events_fired = pipeline.scheduler().total_fired() - fired_before;
  r.wall_secs = wall;

  if (phase_json != nullptr) {
    // Where does the loss-recovery latency actually go? Reduce the traced
    // run to per-phase rows: retry waits surface as a fat cloud_fetch /
    // uplink tail, not as a uniform inflation.
    const obs::RequestTracer& tracer = *pipeline.tracer();
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      const LatencyHistogram& hist = tracer.phase_histogram(phase);
      if (hist.count() == 0) continue;
      phase_json->AddRow()
          .Set("section", "phase_breakdown")
          .Set("phase", obs::PhaseName(phase))
          .Set("loss_rate", loss_rate)
          .Set("spans", hist.count())
          .Set("mean_us", hist.MeanMicros())
          .Set("p50_us", hist.QuantileMicros(0.5))
          .Set("p99_us", hist.QuantileMicros(0.99));
    }
  }
  return r;
}

void PrintRow(BenchJson& json, const char* regime, const SweepResult& r) {
  std::printf(
      "%-11s %6.1f%% %6llu/%llu %5llu %6.1f%% %8.1f %9.1f %5llu %5llu %5llu "
      "%6llu %5llu %6llu %5llu %5llu %7llu\n",
      regime, r.loss_rate * 100, static_cast<unsigned long long>(r.drained),
      static_cast<unsigned long long>(r.operations),
      static_cast<unsigned long long>(r.errors), r.hit_rate * 100, r.p50_ms,
      r.p99_ms, static_cast<unsigned long long>(r.client_rtx),
      static_cast<unsigned long long>(r.cloud_rtx),
      static_cast<unsigned long long>(r.timeouts),
      static_cast<unsigned long long>(r.frames_lost),
      static_cast<unsigned long long>(r.nacks_sent),
      static_cast<unsigned long long>(r.chunks_retransmitted),
      static_cast<unsigned long long>(r.messages_recovered),
      static_cast<unsigned long long>(r.partials_discarded),
      static_cast<unsigned long long>(r.frame_copies));
  json.AddRow()
      .Set("regime", regime)
      .Set("loss_rate", r.loss_rate)
      .Set("operations", r.operations)
      .Set("drained", r.drained)
      .Set("errors", r.errors)
      .Set("hit_rate", r.hit_rate)
      .Set("p50_ms", r.p50_ms)
      .Set("p99_ms", r.p99_ms)
      .Set("client_retransmissions", r.client_rtx)
      .Set("cloud_retransmissions", r.cloud_rtx)
      .Set("timeouts", r.timeouts)
      .Set("frames_lost", r.frames_lost)
      .Set("datagram_chunks_sent", r.chunks_sent)
      .Set("partials_discarded", r.partials_discarded)
      .Set("nacks_sent", r.nacks_sent)
      .Set("chunks_retransmitted", r.chunks_retransmitted)
      .Set("messages_recovered", r.messages_recovered)
      .Set("frame_copies", r.frame_copies)
      .Set("events_per_sec",
           r.wall_secs > 0
               ? static_cast<double>(r.events_fired) / r.wall_secs
               : 0.0);
}

void PrintSweepTable(bool quick) {
  PrintHeader(
      "Loss sweep: 4-venue mesh, mixed AR trace, recovery stack on\n"
      "(datagram chunking with selective chunk recovery + client/cloud\n"
      "retry + gossip ack/nack);\n"
      "loss 0% = default reliable transport, the pre-recovery baseline");
  std::printf(
      "%-11s %7s %9s %5s %7s %8s %9s %5s %5s %5s %6s %5s %6s %5s %5s %7s\n",
      "regime", "loss", "drained", "err", "hit", "p50 ms", "p99 ms", "c.rtx",
      "w.rtx", "tmo", "lost", "nack", "resent", "recov", "part", "frmcopy");
  BenchJson json("loss_sweep");

  const std::size_t ops = quick ? 1'000 : 6'000;
  const auto base = MakeTrace(ops);
  // The reliable anchor: one request in flight cluster-wide on the
  // default transport — the regime every paper figure uses.
  PrintRow(json, "closed-loop", MeasureLossLevel(0.0, /*open_loop=*/false,
                                                 base));
  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.01}
            : std::vector<double>{0.0, 0.005, 0.01, 0.02, 0.05};
  for (const double loss : losses) {
    PrintRow(json, "open-loop", MeasureLossLevel(loss, /*open_loop=*/true,
                                                 base));
  }
  // One traced re-run at a representative loss point feeds the per-phase
  // breakdown rows (headline rows above stay tracing-off).
  PrintRow(json, "open-loop-traced",
           MeasureLossLevel(0.01, /*open_loop=*/true, base, &json));
  std::printf(
      "\nevery row must fully drain (drained == ops, no hung requests);\n"
      "lost chunks are NACKed and re-sent alone (nack/resent/recov), so a\n"
      "lost chunk costs a round trip, not a request timeout; p99 absorbs\n"
      "only the retries of lost unfragmented frames;\n"
      "frmcopy stays flat — every re-send shares the original refcounted\n"
      "frame, never a copy of its payload bytes.\n");
}

void BM_LossSweep(benchmark::State& state) {
  const auto base = MakeTrace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto r = MeasureLossLevel(0.02, /*open_loop=*/true, base);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LossSweep)->Arg(1000);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kError);
  const bool quick = coic::bench::QuickMode(argc, argv);
  coic::bench::PrintSweepTable(quick);
  if (quick) {
    char name[] = "bench_loss_sweep";
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
