// §1.2 redundancy study — hit rate and mean latency as a function of the
// workload's redundancy structure (co-location fraction, Zipf skew,
// object-pool size). This regenerates the quantitative backbone of the
// paper's motivating claim: "computation-intensive tasks of mobile IC
// applications can be similar or redundant, especially when
// applications/users are in the close location."
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/log.h"
#include "trace/workload.h"

namespace coic::bench {
namespace {

struct TraceRunResult {
  double hit_rate = 0;
  double mean_latency_ms = 0;
  double accuracy = 0;
};

TraceRunResult RunRecognitionTrace(const trace::WorkloadConfig& workload,
                                   std::size_t requests) {
  auto config = federation::FederationPipelineConfig::SingleVenue();
  config.client_mode = proto::OffloadMode::kCoic;
  config.network = core::Figure2aConditions()[1];  // (100, 10)
  config.recognition_classes = 64;
  federation::FederationPipeline pipeline(config);

  trace::WorkloadGenerator gen(workload);
  for (const auto& rec : gen.GenerateRecognition(requests)) {
    // Scene ids pass through untouched: shared objects live in 1..objects
    // (known to the cloud's class set), private ones in per-user ranges
    // (classified best-effort). Folding private ids into the shared space
    // would fabricate cross-user redundancy and corrupt the sweep.
    pipeline.EnqueueRecognitionAt(0, rec.scene);
  }
  core::QoeAggregator agg;
  for (const auto& o : pipeline.Run()) agg.Add(o.outcome);
  TraceRunResult out;
  out.hit_rate = agg.HitRate();
  out.mean_latency_ms = agg.MeanLatencyMs();
  out.accuracy = agg.Accuracy();
  return out;
}

void PrintColocationSweep() {
  PrintHeader(
      "Redundancy study (paper 1.2): hit rate vs user co-location\n"
      "CoIC recognition over a multi-user trace, (B_M->E, B_E->C) = (100, 10)");
  std::printf("%-22s %10s %16s\n", "colocated fraction", "hit rate",
              "mean latency ms");
  BenchJson json("redundancy_colocation");
  for (const double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    trace::WorkloadConfig workload;
    workload.users = 8;
    workload.objects = 24;
    workload.zipf_skew = 0.9;
    workload.colocated_fraction = fraction;
    const auto result = RunRecognitionTrace(workload, 120);
    std::printf("%-22.2f %9.1f%% %16.1f\n", fraction, result.hit_rate * 100,
                result.mean_latency_ms);
    json.AddRow()
        .Set("colocated_fraction", fraction)
        .Set("hit_rate", result.hit_rate)
        .Set("mean_latency_ms", result.mean_latency_ms);
  }
}

void PrintSkewSweep() {
  PrintHeader(
      "Redundancy study (paper 1.2): hit rate vs object popularity skew");
  std::printf("%-22s %10s %16s\n", "zipf skew", "hit rate", "mean latency ms");
  BenchJson json("redundancy_skew");
  for (const double skew : {0.0, 0.6, 0.9, 1.2, 1.5}) {
    trace::WorkloadConfig workload;
    workload.users = 8;
    workload.objects = 24;
    workload.zipf_skew = skew;
    workload.colocated_fraction = 1.0;
    const auto result = RunRecognitionTrace(workload, 120);
    std::printf("%-22.2f %9.1f%% %16.1f\n", skew, result.hit_rate * 100,
                result.mean_latency_ms);
    json.AddRow()
        .Set("zipf_skew", skew)
        .Set("hit_rate", result.hit_rate)
        .Set("mean_latency_ms", result.mean_latency_ms);
  }
}

void BM_TraceReplay(benchmark::State& state) {
  trace::WorkloadConfig workload;
  workload.colocated_fraction = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunRecognitionTrace(workload, 40));
  }
  state.counters["hit_rate"] = RunRecognitionTrace(workload, 40).hit_rate;
}
BENCHMARK(BM_TraceReplay)->Arg(0)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kWarn);
  coic::bench::PrintColocationSweep();
  coic::bench::PrintSkewSweep();
  if (coic::bench::QuickMode(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
