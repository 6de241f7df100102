#include "core/sim_pipeline.h"

namespace coic::core {

federation::FederationPipelineConfig SimPipeline::ToFederation(
    const PipelineConfig& config) {
  federation::FederationPipelineConfig fed;
  fed.venues = 1;
  fed.mobiles_per_venue = 1;
  fed.network = config.network;
  fed.client_mode = config.mode;
  // One venue has no peers to summarize for.
  fed.gossip_period = Duration::Infinite();
  fed.costs = config.costs;
  fed.cache = config.cache;
  fed.extractor = config.extractor;
  fed.recognition_classes = config.recognition_classes;
  fed.mobile_edge_propagation = config.mobile_edge_propagation;
  fed.edge_cloud_propagation = config.edge_cloud_propagation;
  return fed;
}

SimPipeline::SimPipeline(PipelineConfig config)
    : config_(std::move(config)), fed_(ToFederation(config_)) {}

Digest128 SimPipeline::RegisterModel(std::uint64_t model_id,
                                     Bytes serialized_size) {
  return fed_.RegisterModel(model_id, serialized_size);
}

void SimPipeline::EnqueueRecognition(const vision::SceneParams& scene) {
  fed_.EnqueueRecognitionAt(0, scene);
}

void SimPipeline::EnqueueRender(std::uint64_t model_id) {
  fed_.EnqueueRenderAt(0, model_id);
}

void SimPipeline::EnqueuePanorama(std::uint64_t video_id,
                                  std::uint32_t frame_index,
                                  const proto::Viewport& viewport) {
  fed_.EnqueuePanoramaAt(0, video_id, frame_index, /*mobile=*/0,
                         SimTime::Epoch(), viewport);
}

std::vector<RequestOutcome> SimPipeline::Run() {
  auto fed_outcomes = fed_.Run();
  std::vector<RequestOutcome> outcomes;
  outcomes.reserve(fed_outcomes.size());
  for (auto& fo : fed_outcomes) outcomes.push_back(std::move(fo.outcome));
  return outcomes;
}

}  // namespace coic::core
