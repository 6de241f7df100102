// AR annotation session — the paper's demo application.
//
// "We implement an AR application upon CoIC, which renders high-quality
//  3D annotations to label objects recognized in the camera view."
//
// Simulates a user walking through a scene with several physical
// objects, recognizing each as the camera pans (many frames per object,
// each a slightly different view) and loading a 3D annotation model for
// every new label. Prints a frame-by-frame log and the session QoE
// summary under CoIC vs Origin.
//
//   ./ar_annotation
#include <cstdio>

#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "render/registry.h"
#include "vision/tracking.h"

using namespace coic;

namespace {

struct CameraFrame {
  std::uint64_t object;  ///< Physical object in view (scene id).
  double angle;          ///< Camera angle for this frame.
};

/// A short walk: the user dwells on each object for a few frames.
std::vector<CameraFrame> WalkThroughScene() {
  std::vector<CameraFrame> frames;
  for (const std::uint64_t object : {1ull, 2ull, 1ull, 3ull, 2ull}) {
    for (int dwell = 0; dwell < 3; ++dwell) {
      frames.push_back({object, -4.0 + 4.0 * dwell});
    }
  }
  return frames;
}

core::QoeAggregator RunSession(proto::OffloadMode mode, bool print_log) {
  auto config = federation::FederationPipelineConfig::SingleVenue();
  config.client_mode = mode;
  config.network = {Bandwidth::Mbps(100), Bandwidth::Mbps(10)};
  federation::FederationPipeline pipeline(config);

  // Each recognizable object has an annotation asset on the cloud.
  for (const std::uint64_t model_id : {1ull, 2ull, 3ull}) {
    pipeline.RegisterModel(model_id, KB(500 + 400 * model_id));
  }

  std::vector<bool> annotation_loaded(4, false);
  for (const CameraFrame& frame : WalkThroughScene()) {
    pipeline.EnqueueRecognitionAt(
        0, {.scene_id = frame.object, .view_angle_deg = frame.angle});
    if (!annotation_loaded[frame.object]) {
      // First sighting: also fetch the 3D annotation model.
      pipeline.EnqueueRenderAt(0, frame.object);
      annotation_loaded[frame.object] = true;
    }
  }

  const auto outcomes = pipeline.Run();
  core::QoeAggregator agg;
  if (print_log) {
    std::printf("%-6s %-12s %-10s %-10s %10s\n", "step", "task", "result",
                "source", "latency");
  }
  int step = 0;
  for (const auto& tagged : outcomes) {
    const core::RequestOutcome& outcome = tagged.outcome;
    agg.Add(outcome);
    if (print_log) {
      std::printf("%-6d %-12s %-10s %-10s %8.1fms\n", step++,
                  outcome.task == proto::TaskKind::kRecognition ? "recognize"
                                                                : "load-model",
                  outcome.task == proto::TaskKind::kRecognition
                      ? outcome.label.c_str()
                      : ("model#" + std::to_string(outcome.object_id)).c_str(),
                  outcome.source == proto::ResultSource::kEdgeCache ? "edge"
                                                                    : "cloud",
                  outcome.latency.millis());
    }
  }
  return agg;
}

}  // namespace

int main() {
  std::printf("AR annotation session over CoIC (paper 3 demo app)\n");
  std::printf("user pans across 3 objects, 15 camera frames + 3 model loads\n\n");
  const auto coic_qoe = RunSession(proto::OffloadMode::kCoic, /*print_log=*/true);
  const auto origin_qoe =
      RunSession(proto::OffloadMode::kOrigin, /*print_log=*/false);

  std::printf("\nsession summary\n");
  std::printf("  CoIC:   mean %7.1f ms | p95 %7.1f ms | hit rate %4.1f%% | accuracy %5.1f%%\n",
              coic_qoe.MeanLatencyMs(), coic_qoe.PercentileLatencyMs(95),
              coic_qoe.HitRate() * 100, coic_qoe.Accuracy() * 100);
  std::printf("  Origin: mean %7.1f ms | p95 %7.1f ms\n",
              origin_qoe.MeanLatencyMs(), origin_qoe.PercentileLatencyMs(95));
  std::printf("  CoIC reduces mean session latency by %.1f%%\n",
              coic_qoe.ReductionPercentVs(origin_qoe));

  // Between recognitions the app tracks the labeled object ON DEVICE
  // (paper 2: tracking is cheap enough to stay local — it is never
  // offloaded or cached). Follow object 1 across a slow camera pan:
  std::printf("\non-device tracking between recognitions (no network):\n");
  vision::SceneParams view;
  view.scene_id = 1;
  vision::ObjectTracker tracker(vision::SyntheticImage::Generate(view),
                                {24, 40});
  for (int frame = 1; frame <= 5; ++frame) {
    view.view_angle_deg = 3.0 * frame;
    const auto track =
        tracker.Track(vision::SyntheticImage::Generate(view));
    std::printf("  pan frame %d: %s (ncc=%.3f, moved %+d,%+d px)\n", frame,
                track.found ? "locked" : "LOST -> re-recognize via CoIC",
                track.score, track.dx, track.dy);
  }
  return 0;
}
