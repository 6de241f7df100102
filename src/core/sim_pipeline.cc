#include "core/sim_pipeline.h"

namespace coic::core {

SimPipeline::SimPipeline(PipelineConfig config)
    : config_(config), net_(sched_) {
  mobile_ = net_.AddNode("mobile");
  edge_node_ = net_.AddNode("edge");
  cloud_node_ = net_.AddNode("cloud");

  netsim::LinkConfig wifi;
  wifi.bandwidth = config.network.mobile_edge;
  wifi.propagation = config.mobile_edge_propagation;
  netsim::LinkConfig wan;
  wan.bandwidth = config.network.edge_cloud;
  wan.propagation = config.edge_cloud_propagation;
  net_.Connect(mobile_, edge_node_, wifi);
  net_.Connect(edge_node_, cloud_node_, wan);

  const DelayFn delay = [this](Duration d, std::function<void()> fn) {
    sched_.ScheduleAfter(d, std::move(fn));
  };
  const NowFn now = [this] { return sched_.now(); };

  CloudService::Config cloud_config;
  cloud_config.costs = config.costs;
  cloud_config.recognition_classes = config.recognition_classes;
  cloud_config.extractor = config.extractor;
  cloud_ = std::make_unique<CloudService>(
      cloud_config,
      [this](Peer /*to*/, Frame frame, Frame tail) {
        // The cloud only ever talks to the edge.
        net_.SendGather(cloud_node_, edge_node_, std::move(frame),
                        std::move(tail));
      },
      delay);

  EdgeService::Config edge_config;
  edge_config.costs = config.costs;
  edge_config.cache = config.cache;
  edge_ = std::make_unique<EdgeService>(
      edge_config,
      [this](Peer to, Frame frame, Frame tail) {
        net_.SendGather(edge_node_,
                        to == Peer::kClient ? mobile_ : cloud_node_,
                        std::move(frame), std::move(tail));
      },
      delay, now);

  CoicClient::Config client_config;
  client_config.costs = config.costs;
  client_config.mode = config.mode;
  client_config.extractor = config.extractor;
  client_ = std::make_unique<CoicClient>(
      client_config,
      [this](Frame frame) {
        net_.Send(mobile_, edge_node_, std::move(frame));
      },
      delay, now);

  net_.SetHandler(mobile_,
                  [this](netsim::NodeId /*from*/, Frame frame, Frame tail) {
                    client_->OnEdgeFrame(std::move(frame), std::move(tail));
                  });
  net_.SetHandler(edge_node_, [this](netsim::NodeId from, Frame frame,
                                     Frame tail) {
    if (from == mobile_) {
      COIC_CHECK_MSG(tail.empty(), "clients send no gather frames");
      edge_->OnClientFrame(std::move(frame));
    } else {
      edge_->OnCloudFrame(std::move(frame), std::move(tail));
    }
  });
  net_.SetHandler(cloud_node_,
                  [this](netsim::NodeId /*from*/, Frame frame, Frame tail) {
                    COIC_CHECK_MSG(tail.empty(),
                                   "the cloud receives no gather frames");
                    cloud_->OnFrame(std::move(frame));
                  });
}

Digest128 SimPipeline::RegisterModel(std::uint64_t model_id,
                                     Bytes serialized_size) {
  cloud_->RegisterModel(model_id, serialized_size);
  const auto digest = cloud_->model_registry().DigestFor(model_id);
  COIC_CHECK(digest.ok());
  model_digests_[model_id] = digest.value();
  return digest.value();
}

void SimPipeline::EnqueueRecognition(const vision::SceneParams& scene) {
  ops_.push_back([this, scene](CoicClient::CompletionFn done) {
    client_->StartRecognition(scene, CloudService::LabelForScene(scene.scene_id),
                              std::move(done));
  });
}

void SimPipeline::EnqueueRender(std::uint64_t model_id) {
  const auto it = model_digests_.find(model_id);
  COIC_CHECK_MSG(it != model_digests_.end(),
                 "EnqueueRender before RegisterModel");
  const Digest128 digest = it->second;
  ops_.push_back([this, model_id, digest](CoicClient::CompletionFn done) {
    client_->StartRender(model_id, digest, std::move(done));
  });
}

void SimPipeline::EnqueuePanorama(std::uint64_t video_id,
                                  std::uint32_t frame_index,
                                  const proto::Viewport& viewport) {
  ops_.push_back(
      [this, video_id, frame_index, viewport](CoicClient::CompletionFn done) {
        client_->StartPanorama(video_id, frame_index, viewport, std::move(done));
      });
}

void SimPipeline::IssueNext() {
  if (ops_.empty()) return;
  Op op = std::move(ops_.front());
  ops_.pop_front();
  op([this](RequestOutcome outcome) {
    outcomes_.push_back(std::move(outcome));
    IssueNext();
  });
}

std::vector<RequestOutcome> SimPipeline::Run() {
  outcomes_.clear();
  IssueNext();
  sched_.Run();
  COIC_CHECK_MSG(ops_.empty(), "pipeline drained with operations unissued");
  COIC_CHECK_MSG(client_->inflight() == 0,
                 "pipeline drained with requests in flight");
  return std::move(outcomes_);
}

}  // namespace coic::core
