// SimPipeline — the whole testbed in one object.
//
// One mobile, one edge and one cloud on the three-node netsim topology
// (mobile —WiFi— edge —WAN— cloud) with the bandwidths of one network
// condition. Queued IC operations replay sequentially (one outstanding
// request at a time — the latency-study regime of Figures 2a/2b) and come
// back as per-request outcomes.
//
// Like CoopPipeline, this is a thin adapter over
// federation::FederationPipeline: a one-venue, one-mobile cluster with
// gossip off, so every simulated request in the repo goes through the
// same client/edge/cloud wiring. The public API predates the federation
// engine and is unchanged.
#pragma once

#include "cache/ic_cache.h"
#include "core/client.h"
#include "core/cost_model.h"
#include "core/services.h"
#include "federation/federation_pipeline.h"

namespace coic::core {

struct PipelineConfig {
  NetworkCondition network{Bandwidth::Mbps(400), Bandwidth::Mbps(40)};
  proto::OffloadMode mode = proto::OffloadMode::kCoic;
  CostModel costs;
  cache::IcCacheConfig cache;
  vision::FeatureExtractorConfig extractor;
  std::uint32_t recognition_classes = 20;
  Duration mobile_edge_propagation = kMobileEdgePropagation;
  Duration edge_cloud_propagation = kEdgeCloudPropagation;
};

class SimPipeline {
 public:
  explicit SimPipeline(PipelineConfig config);

  /// Registers a model with the cloud store (needed before EnqueueRender
  /// for that id). Returns its content digest — the cache key.
  Digest128 RegisterModel(std::uint64_t model_id, Bytes serialized_size);

  /// Queues operations; they run back-to-back when Run() is called.
  void EnqueueRecognition(const vision::SceneParams& scene);
  void EnqueueRender(std::uint64_t model_id);
  void EnqueuePanorama(std::uint64_t video_id, std::uint32_t frame_index,
                       const proto::Viewport& viewport = {});

  /// Runs all queued operations to completion; outcomes are returned in
  /// issue order. Callable repeatedly (cache state persists across
  /// calls, which is how warm-cache series are measured).
  std::vector<RequestOutcome> Run();

  [[nodiscard]] const cache::IcCacheStats& edge_cache_stats() const {
    return fed_.edge(0).cache().stats();
  }
  [[nodiscard]] EdgeService& edge() { return fed_.edge(0); }
  [[nodiscard]] CloudService& cloud() noexcept { return fed_.cloud(); }
  [[nodiscard]] CoicClient& client() { return fed_.client(0, 0); }
  [[nodiscard]] netsim::EventScheduler& scheduler() noexcept {
    return fed_.scheduler();
  }
  [[nodiscard]] netsim::Network& network() noexcept { return fed_.network(); }
  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

  /// Node ids on network(), for shaping or failing a specific link.
  [[nodiscard]] netsim::NodeId mobile_node() const {
    return fed_.mobile_node(0, 0);
  }
  [[nodiscard]] netsim::NodeId edge_node() const { return fed_.edge_node(0); }
  [[nodiscard]] netsim::NodeId cloud_node() const noexcept {
    return fed_.cloud_node();
  }

 private:
  static federation::FederationPipelineConfig ToFederation(
      const PipelineConfig& config);

  PipelineConfig config_;
  federation::FederationPipeline fed_;
};

}  // namespace coic::core
