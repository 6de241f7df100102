// Multi-user shared world — the "Pokemon Go" scenario of paper 1.2.
//
// "If multiple users play in the same environment, the content in the
//  view of different users is likely to be similar. For example, two
//  Pokemon Go players require rendering the same 3D avatar when they are
//  interacting through Pokemon application in the same place."
//
// Generates a multi-user mixed workload (recognition + avatar model
// loads + panoramas) with the trace module's co-location model and
// replays it through one shared edge, reporting how the edge cache turns
// cross-user redundancy into latency savings.
//
//   ./multiuser_world [users] [requests]
#include <cstdio>
#include <cstdlib>

#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "trace/workload.h"

using namespace coic;

int main(int argc, char** argv) {
  const std::uint32_t users =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 6;
  const std::size_t requests =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 120;

  trace::WorkloadConfig workload;
  workload.users = users;
  workload.objects = 16;
  workload.zipf_skew = 0.9;
  workload.colocated_fraction = 0.75;
  trace::WorkloadGenerator gen(workload);

  // Avatar catalogue shared by all players.
  const std::vector<std::uint64_t> avatars = {1, 2, 3, 4};

  auto config = federation::FederationPipelineConfig::SingleVenue();
  config.client_mode = proto::OffloadMode::kCoic;
  config.network = {Bandwidth::Mbps(200), Bandwidth::Mbps(20)};
  config.recognition_classes = 20;
  federation::FederationPipeline pipeline(config);
  for (const std::uint64_t avatar : avatars) {
    pipeline.RegisterModel(avatar, KB(800 + 350 * avatar));
  }

  const auto trace_records = gen.GenerateMixed(requests, avatars, /*video=*/9);
  std::size_t recognition = 0, renders = 0, panoramas = 0;
  for (const auto& rec : trace_records) {
    switch (rec.type) {
      case trace::IcTaskType::kRecognition: {
        vision::SceneParams scene = rec.scene;
        scene.scene_id = 1 + scene.scene_id % 20;  // clamp to class space
        pipeline.EnqueueRecognitionAt(0, scene);
        ++recognition;
        break;
      }
      case trace::IcTaskType::kRender:
        pipeline.EnqueueRenderAt(0, rec.model_id);
        ++renders;
        break;
      case trace::IcTaskType::kPanorama:
        pipeline.EnqueuePanoramaAt(0, rec.video_id, rec.frame_index);
        ++panoramas;
        break;
    }
  }

  const auto outcomes = pipeline.Run();
  core::QoeAggregator all, rec_agg, render_agg, pano_agg;
  for (const auto& tagged : outcomes) {
    const core::RequestOutcome& outcome = tagged.outcome;
    all.Add(outcome);
    switch (outcome.task) {
      case proto::TaskKind::kRecognition: rec_agg.Add(outcome); break;
      case proto::TaskKind::kRender: render_agg.Add(outcome); break;
      case proto::TaskKind::kPanorama: pano_agg.Add(outcome); break;
    }
  }

  std::printf("Shared-world session: %u players, %zu IC requests "
              "(%zu recognize, %zu avatar loads, %zu panoramas)\n\n",
              users, requests, recognition, renders, panoramas);
  const auto& stats = pipeline.edge(0).cache().stats();
  std::printf("edge cache: %llu hits / %llu misses (%.1f%% hit rate), "
              "%llu results cached\n\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              stats.HitRate() * 100,
              static_cast<unsigned long long>(stats.insertions));
  std::printf("%-14s %8s %12s %12s %10s\n", "task", "count", "mean ms",
              "p95 ms", "hit rate");
  const auto row = [](const char* name, const core::QoeAggregator& agg) {
    if (agg.count() == 0) return;
    std::printf("%-14s %8llu %12.1f %12.1f %9.1f%%\n", name,
                static_cast<unsigned long long>(agg.count()),
                agg.MeanLatencyMs(), agg.PercentileLatencyMs(95),
                agg.HitRate() * 100);
  };
  row("recognition", rec_agg);
  row("avatar load", render_agg);
  row("panorama", pano_agg);
  row("all", all);
  return 0;
}
