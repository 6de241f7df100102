// CoicClient — the mobile-device actor.
//
// Owns the client half of the protocol for all three IC task families:
//   recognition — run the DNN's lower layers (simulated cost), extract
//     the feature-vector descriptor, send it (CoIC) or upload the full
//     frame (Origin);
//   rendering   — resolve the asset digest, request the model, then
//     ingest the returned bytes into the renderer;
//   panorama    — request the frame by identity digest, then crop the
//     viewport locally.
// Latency is measured from task start to result-ready-for-display,
// exactly the user-perceived window the paper's figures report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "core/cost_model.h"
#include "core/services.h"
#include "proto/envelope.h"
#include "vision/features.h"
#include "vision/image.h"

namespace coic::core {

/// Per-request QoE record; one row of the figures' underlying data.
struct RequestOutcome {
  proto::TaskKind task = proto::TaskKind::kRecognition;
  proto::ResultSource source = proto::ResultSource::kCloud;
  /// Start-to-display latency (the figures' y-axis).
  Duration latency = Duration::Zero();
  /// Client-side compute included in `latency` (extraction / ingest /
  /// crop) — reported so benches can decompose the bar.
  Duration client_compute = Duration::Zero();
  /// Recognition: label returned; empty otherwise.
  std::string label;
  /// Recognition: whether the label matched the scene's ground truth.
  bool correct = false;
  /// Render: model id; panorama: video id.
  std::uint64_t object_id = 0;
  /// Result payload size (annotation / model / panorama bytes).
  Bytes result_bytes = 0;
  bool error = false;
};

/// Parse verdicts for received model assets, keyed by model id -> (byte
/// size, parse ok). A real client keeps installed assets, so re-receiving
/// a model skips the wall-clock re-parse; the modeled install latency is
/// still charged per request, so QoE outcomes are unchanged. One memo
/// serves every client homed on a simulator shard (all of them run on
/// that shard's thread, so it needs no lock): the cloud registry fixes an
/// id's bytes, so the same (id, size) means the same bytes on every
/// device. Stores verdicts only, never the bytes.
class ModelInstallMemo {
 public:
  /// `parses` counts the LoadModel calls this memo makes.
  explicit ModelInstallMemo(obs::Counter& parses) : parses_(parses) {}

  /// Whether `bytes` parse as a valid model. Runs render::LoadModel on
  /// the first sight of `model_id`, or when its byte size changed.
  bool Install(std::uint64_t model_id, std::span<const std::uint8_t> bytes);

 private:
  obs::Counter& parses_;
  std::unordered_map<std::uint64_t, std::pair<Bytes, bool>> verdicts_;
};

class CoicClient {
 public:
  struct Config {
    CostModel costs;
    proto::OffloadMode mode = proto::OffloadMode::kCoic;
    vision::FeatureExtractorConfig extractor;
    std::uint32_t user_id = 1;
    std::uint32_t app_id = 1;
    /// First request id issued. Live deployments set a random base so
    /// concurrent clients at one edge never collide; the simulator keeps
    /// the default for reproducible ids.
    std::uint64_t first_request_id = 1;
    /// Client->edge timeout/retry policy for the unreliable-transport
    /// mode. Disabled by default; when enabled, a request whose reply
    /// misses the deadline is retransmitted (same id — the edge
    /// deduplicates) until the budget is spent, then completed with an
    /// error outcome so every run drains.
    RetryConfig retry;
    /// Observability: when set, this client's counters live in the
    /// shared registry under `metrics_prefix` (e.g. "client.0.3.");
    /// when null the client owns a private registry. The accessors below
    /// keep working either way.
    obs::MetricsRegistry* metrics = nullptr;
    std::string metrics_prefix = "client.";
    /// Model parse verdicts shared with other clients on this thread;
    /// when null the client owns a private memo whose parse counter is
    /// `metrics_prefix` + "model_parses".
    ModelInstallMemo* install_memo = nullptr;
    /// Request-lifecycle tracer; null => tracing disabled. `trace_track`
    /// is the Chrome-trace pid this client's requests render under (the
    /// venue index in federation runs).
    obs::RequestTracer* tracer = nullptr;
    std::uint32_t trace_track = 0;
    /// End-to-end latency budget granted to each request; Zero = no
    /// deadline. The remaining budget (after the pre-send on-device
    /// compute) is stamped on the wire, so the edge can shed work whose
    /// result could no longer be displayed in time. A blown budget is
    /// stamped as 1 ms — the edge sheds it on arrival instead of the
    /// client silently dropping the request.
    Duration deadline = Duration::Zero();
    /// When true, an edge overload / circuit-open shed completes the
    /// task with a degraded on-device result (ResultSource::kLocal)
    /// instead of an error outcome: full local inference for
    /// recognition, a low-LOD placeholder for render, a reprojected
    /// previous frame for panorama. Graceful degradation, not failure.
    bool local_fallback = false;
  };

  using SendToEdgeFn = std::function<void(Frame frame)>;
  using CompletionFn = std::function<void(RequestOutcome)>;

  CoicClient(Config config, SendToEdgeFn send, DelayFn delay, NowFn now);

  /// Begins a recognition task on `scene`. `expected_label` is the
  /// ground truth used to fill RequestOutcome::correct. In CoIC mode a
  /// non-empty `descriptor` must be DescribeScene(scene), computed ahead
  /// of time; an empty one is computed here. Origin mode ignores it and
  /// synthesizes the frame it uploads.
  void StartRecognition(const vision::SceneParams& scene,
                        std::string expected_label, CompletionFn done,
                        std::vector<float> descriptor = {});

  /// The CoIC descriptor of `scene`: the synthesized camera frame run
  /// through this client's extractor. Pure and const, so it is safe to
  /// call from any thread, concurrently with other calls.
  [[nodiscard]] std::vector<float> DescribeScene(
      const vision::SceneParams& scene) const;

  /// Begins a render/load task for the model owning `digest`.
  void StartRender(std::uint64_t model_id, const Digest128& digest,
                   CompletionFn done);

  /// Begins a panorama-frame fetch.
  void StartPanorama(std::uint64_t video_id, std::uint32_t frame_index,
                     const proto::Viewport& viewport, CompletionFn done);

  /// Frames arriving from the edge: `frame` followed by `tail`, which is
  /// non-empty when the edge sent a cache hit scatter-gather (the
  /// rewritten envelope head, then the shared cached payload). Results
  /// are parsed with the borrowed-view decoders straight out of the two
  /// segments — the multi-MB model/panorama/annotation blobs are never
  /// copied or fused on the receive path.
  void OnEdgeFrame(Frame frame, Frame tail = Frame());

  /// Identity digest for a panoramic frame, shared by client and tests.
  static Digest128 PanoramaIdentityDigest(std::uint64_t video_id,
                                          std::uint32_t frame_index);

  [[nodiscard]] std::size_t inflight() const noexcept { return pending_.size(); }
  /// Ids of the requests still awaiting a reply, ascending — named by
  /// the open-loop stranded-workload diagnostics.
  [[nodiscard]] std::vector<std::uint64_t> inflight_request_ids() const;
  /// High-water mark of concurrently outstanding requests. The closed
  /// loop issues one at a time (peak 1); open-loop replay drives many.
  [[nodiscard]] std::size_t peak_inflight() const noexcept {
    return peak_inflight_;
  }
  [[nodiscard]] const vision::FeatureExtractor& extractor() const noexcept {
    return extractor_;
  }
  /// Requests retransmitted after a timeout (0 with retries disabled).
  [[nodiscard]] std::uint64_t retransmissions() const noexcept {
    return retransmissions_.value();
  }
  /// Requests abandoned (error outcome) after the retry budget.
  [[nodiscard]] std::uint64_t timeouts() const noexcept {
    return timeouts_.value();
  }
  /// Requests the edge refused under overload control (admission shed,
  /// deadline shed, or open circuit breaker) — distinct from timeouts:
  /// the edge answered, with a policy verdict rather than a result.
  [[nodiscard]] std::uint64_t overload_rejects() const noexcept {
    return overload_rejects_.value();
  }

 private:
  struct PendingRequest {
    proto::TaskKind task;
    SimTime started_at;
    Duration client_compute;
    std::string expected_label;
    std::uint64_t object_id = 0;
    CompletionFn done;
    /// The encoded request, retained (a refcount) for retransmission
    /// when the retry policy is enabled.
    Frame request;
    /// Send attempt number; stale retry timers compare and disarm.
    std::uint32_t attempt = 0;
  };

  std::uint64_t NextRequestId() noexcept { return next_request_id_++; }
  /// The registry cell backing counter `name`. Constructor-only.
  [[nodiscard]] obs::Counter& Metric(const char* name) {
    return (config_.metrics ? *config_.metrics : *own_metrics_)
        .GetCounter(config_.metrics_prefix + name);
  }
  void TrackPending(std::uint64_t request_id, PendingRequest pending);
  void FinishWithError(std::uint64_t request_id);
  /// Completes an overload-rejected request with an on-device stand-in
  /// (ResultSource::kLocal) after the task's modeled local compute.
  void FinishWithLocalFallback(std::uint64_t request_id);
  /// Wire value for the deadline field: the budget left after
  /// `spent_before_send` of on-device compute, floored at 1 ms so a
  /// blown budget still reaches the edge's shed path. 0 = no deadline.
  [[nodiscard]] std::uint32_t RemainingDeadlineMs(
      Duration spent_before_send) const noexcept;
  /// Sends the encoded request and, when retries are enabled, stores it
  /// on the pending entry and arms the attempt-0 timeout.
  void SendTracked(std::uint64_t request_id, Frame frame);
  void ArmRetryTimer(std::uint64_t request_id, std::uint32_t attempt);
  void OnRetryTimer(std::uint64_t request_id, std::uint32_t attempt);

  Config config_;
  SendToEdgeFn send_;
  DelayFn delay_;
  NowFn now_;
  vision::FeatureExtractor extractor_;
  std::uint64_t next_request_id_;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
  std::size_t peak_inflight_ = 0;
  /// Private registry backing the counters when no shared one is
  /// configured; declared before the Counter& members that bind to it.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::RequestTracer* tracer_ = nullptr;
  std::uint32_t trace_track_ = 0;
  obs::Counter& retransmissions_;
  obs::Counter& timeouts_;
  obs::Counter& overload_rejects_;
  /// Private memo when no shared one is configured; declared before the
  /// reference that binds to it.
  std::unique_ptr<ModelInstallMemo> own_install_memo_;
  ModelInstallMemo& install_memo_;
};

}  // namespace coic::core
