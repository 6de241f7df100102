// §2 design-choice ablation — the similarity threshold.
//
// "If the distance between the new feature descriptor and another one in
// the cache is under a certain threshold, CoIC determines that the
// computation result is already in the cache." The threshold trades hit
// rate against false hits (serving object A's cached annotation for
// object B). This bench sweeps it and reports hit rate, false-hit rate
// and end-to-end accuracy, justifying the default (0.25).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/log.h"
#include "common/rng.h"

namespace coic::bench {
namespace {

struct ThresholdResult {
  double hit_rate = 0;
  double false_hit_rate = 0;  ///< Hits that returned the wrong label.
  double accuracy = 0;
};

ThresholdResult MeasureThreshold(double threshold, std::size_t requests) {
  auto config = federation::FederationPipelineConfig::SingleVenue();
  config.client_mode = proto::OffloadMode::kCoic;
  config.network = core::Figure2aConditions()[2];
  config.cache.similarity_threshold = threshold;
  config.recognition_classes = 16;
  federation::FederationPipeline pipeline(config);

  Rng rng(0xAB1A7E);
  for (std::size_t i = 0; i < requests; ++i) {
    vision::SceneParams scene;
    scene.scene_id = 1 + rng.NextBelow(8);  // 8 objects, heavy reuse
    scene.view_angle_deg = (rng.NextDouble() * 2 - 1) * 6;
    scene.distance = 1.0 + (rng.NextDouble() * 2 - 1) * 0.08;
    scene.illumination = 1.0 + (rng.NextDouble() * 2 - 1) * 0.1;
    pipeline.EnqueueRecognitionAt(0, scene);
  }
  const auto outcomes = pipeline.Run();

  ThresholdResult out;
  std::uint64_t hits = 0, false_hits = 0, correct = 0;
  for (const auto& tagged : outcomes) {
    const core::RequestOutcome& outcome = tagged.outcome;
    if (outcome.source == proto::ResultSource::kEdgeCache) {
      ++hits;
      if (!outcome.correct) ++false_hits;
    }
    if (outcome.correct) ++correct;
  }
  out.hit_rate = static_cast<double>(hits) / static_cast<double>(outcomes.size());
  out.false_hit_rate =
      hits == 0 ? 0 : static_cast<double>(false_hits) / static_cast<double>(hits);
  out.accuracy =
      static_cast<double>(correct) / static_cast<double>(outcomes.size());
  return out;
}

void PrintThresholdSweep() {
  PrintHeader(
      "Threshold ablation (paper 2): similarity threshold vs hit quality\n"
      "8 shared objects, jittered views, 120 requests");
  std::printf("%-12s %10s %16s %10s\n", "threshold", "hit rate",
              "false-hit rate", "accuracy");
  BenchJson json("threshold_ablation");
  for (const double threshold :
       {0.05, 0.10, 0.15, 0.20, 0.25, 0.35, 0.50, 0.80, 1.20}) {
    const auto result = MeasureThreshold(threshold, 120);
    std::printf("%-12.2f %9.1f%% %15.1f%% %9.1f%%\n", threshold,
                result.hit_rate * 100, result.false_hit_rate * 100,
                result.accuracy * 100);
    json.AddRow()
        .Set("threshold", threshold)
        .Set("hit_rate", result.hit_rate)
        .Set("false_hit_rate", result.false_hit_rate)
        .Set("accuracy", result.accuracy);
  }
}

void BM_ThresholdSweep(benchmark::State& state) {
  const double threshold = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureThreshold(threshold, 30));
  }
  state.counters["hit_rate"] = MeasureThreshold(threshold, 30).hit_rate;
}
BENCHMARK(BM_ThresholdSweep)->Arg(10)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kWarn);
  coic::bench::PrintThresholdSweep();
  if (coic::bench::QuickMode(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
