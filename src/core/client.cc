#include "core/client.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "render/loader.h"

namespace coic::core {

using proto::Envelope;
using proto::MessageType;
using proto::OffloadMode;
using proto::TaskKind;

CoicClient::CoicClient(Config config, SendToEdgeFn send, DelayFn delay,
                       NowFn now)
    : config_(std::move(config)), send_(std::move(send)),
      delay_(std::move(delay)), now_(std::move(now)),
      extractor_(config_.extractor),
      next_request_id_(config_.first_request_id),
      own_metrics_(config_.metrics ? nullptr : new obs::MetricsRegistry()),
      tracer_(config_.tracer), trace_track_(config_.trace_track),
      retransmissions_(Metric("retransmissions")),
      timeouts_(Metric("timeouts")),
      overload_rejects_(Metric("overload_rejects")) {}

std::uint32_t CoicClient::RemainingDeadlineMs(
    Duration spent_before_send) const noexcept {
  if (config_.deadline <= Duration::Zero()) return 0;
  const Duration remaining = config_.deadline - spent_before_send;
  if (remaining <= Duration::Zero()) return 1;
  return static_cast<std::uint32_t>(remaining.millis());
}

void CoicClient::TrackPending(std::uint64_t request_id,
                              PendingRequest pending) {
  pending_.emplace(request_id, std::move(pending));
  peak_inflight_ = std::max(peak_inflight_, pending_.size());
}

void CoicClient::SendTracked(std::uint64_t request_id, Frame frame) {
  if (tracer_) tracer_->Transition(request_id, obs::Phase::kUplink, now_());
  if (config_.retry.enabled()) {
    const auto it = pending_.find(request_id);
    if (it != pending_.end()) {
      // The timeout clock starts at the actual send (after any modeled
      // extraction/prep delay), matching what a real socket would see.
      it->second.request = frame;
      ArmRetryTimer(request_id, it->second.attempt);
    }
  }
  send_(std::move(frame));
}

void CoicClient::ArmRetryTimer(std::uint64_t request_id,
                               std::uint32_t attempt) {
  delay_(config_.retry.TimeoutForAttempt(attempt),
         [this, request_id, attempt] { OnRetryTimer(request_id, attempt); });
}

void CoicClient::OnRetryTimer(std::uint64_t request_id,
                              std::uint32_t attempt) {
  const auto it = pending_.find(request_id);
  // Lazy disarm: resolved, or a newer attempt superseded this timer.
  if (it == pending_.end() || it->second.attempt != attempt) return;
  if (attempt >= config_.retry.max_retries) {
    ++timeouts_;
    if (tracer_) tracer_->Annotate(request_id, "client-timeout", now_());
    FinishWithError(request_id);
    return;
  }
  ++it->second.attempt;
  ++retransmissions_;
  if (tracer_) tracer_->Annotate(request_id, "client-retransmit", now_());
  send_(it->second.request);
  ArmRetryTimer(request_id, it->second.attempt);
}

std::vector<std::uint64_t> CoicClient::inflight_request_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, req] : pending_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Digest128 CoicClient::PanoramaIdentityDigest(std::uint64_t video_id,
                                             std::uint32_t frame_index) {
  ByteWriter w;
  w.WriteU64(video_id);
  w.WriteU32(frame_index);
  return ContentDigest(w.bytes());
}

void CoicClient::StartRecognition(const vision::SceneParams& scene,
                                  std::string expected_label,
                                  CompletionFn done) {
  const std::uint64_t request_id = NextRequestId();
  PendingRequest pending;
  pending.task = TaskKind::kRecognition;
  pending.started_at = now_();
  pending.expected_label = std::move(expected_label);
  pending.object_id = scene.scene_id;
  pending.done = std::move(done);
  if (tracer_) {
    tracer_->Begin(request_id, trace_track_, obs::Phase::kClientCompute,
                   pending.started_at);
  }

  proto::RecognitionRequest req;
  req.user_id = config_.user_id;
  req.app_id = config_.app_id;
  req.frame_id = request_id;
  req.mode = config_.mode;

  const vision::SyntheticImage image = vision::SyntheticImage::Generate(scene);

  if (config_.mode == OffloadMode::kOrigin) {
    // Baseline: ship the whole frame; no on-device DNN work.
    req.deadline_ms = RemainingDeadlineMs(Duration::Zero());
    req.image =
        image.SerializeForWire(config_.costs.recognition.frame_bytes);
    // Origin still needs a syntactically valid descriptor field; a
    // content hash marks "no feature extraction happened".
    req.descriptor = proto::FeatureDescriptor::ForHash(TaskKind::kRecognition,
                                                       image.ContentHash());
    TrackPending(request_id, std::move(pending));
    SendTracked(request_id, Frame(proto::EncodeMessage(
                                MessageType::kRecognitionRequest, request_id,
                                req)));
    return;
  }

  // CoIC: pay the on-device extraction, then ship only the descriptor.
  const Duration extraction = config_.costs.recognition.mobile_extraction;
  req.deadline_ms = RemainingDeadlineMs(extraction);
  pending.client_compute += extraction;
  TrackPending(request_id, std::move(pending));
  req.descriptor = proto::FeatureDescriptor::ForVector(
      TaskKind::kRecognition, extractor_.Extract(image));
  delay_(extraction, [this, request_id, req = std::move(req)] {
    SendTracked(request_id, Frame(proto::EncodeMessage(
                                MessageType::kRecognitionRequest, request_id,
                                req)));
  });
}

void CoicClient::StartRender(std::uint64_t model_id, const Digest128& digest,
                             CompletionFn done) {
  const std::uint64_t request_id = NextRequestId();
  PendingRequest pending;
  pending.task = TaskKind::kRender;
  pending.started_at = now_();
  pending.object_id = model_id;
  pending.done = std::move(done);
  if (tracer_) {
    tracer_->Begin(request_id, trace_track_, obs::Phase::kClientCompute,
                   pending.started_at);
  }

  proto::RenderRequest req;
  req.user_id = config_.user_id;
  req.app_id = config_.app_id;
  req.model_id = model_id;
  req.mode = config_.mode;
  req.descriptor = proto::FeatureDescriptor::ForHash(TaskKind::kRender, digest);

  const Duration prep = config_.costs.render.client_request_prep;
  req.deadline_ms = RemainingDeadlineMs(prep);
  pending.client_compute += prep;
  TrackPending(request_id, std::move(pending));
  delay_(prep, [this, request_id, req = std::move(req)] {
    SendTracked(request_id, Frame(proto::EncodeMessage(
                                MessageType::kRenderRequest, request_id, req)));
  });
}

void CoicClient::StartPanorama(std::uint64_t video_id,
                               std::uint32_t frame_index,
                               const proto::Viewport& viewport,
                               CompletionFn done) {
  const std::uint64_t request_id = NextRequestId();
  PendingRequest pending;
  pending.task = TaskKind::kPanorama;
  pending.started_at = now_();
  pending.object_id = video_id;
  pending.done = std::move(done);
  if (tracer_) {
    tracer_->Begin(request_id, trace_track_, obs::Phase::kClientCompute,
                   pending.started_at);
  }
  TrackPending(request_id, std::move(pending));

  proto::PanoramaRequest req;
  req.user_id = config_.user_id;
  req.video_id = video_id;
  req.frame_index = frame_index;
  req.mode = config_.mode;
  req.viewport = viewport;
  req.descriptor = proto::FeatureDescriptor::ForHash(
      TaskKind::kPanorama, PanoramaIdentityDigest(video_id, frame_index));
  req.deadline_ms = RemainingDeadlineMs(Duration::Zero());
  SendTracked(request_id, Frame(proto::EncodeMessage(
                              MessageType::kPanoramaRequest, request_id, req)));
}

void CoicClient::FinishWithError(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingRequest pending = std::move(it->second);
  pending_.erase(it);
  if (tracer_) tracer_->End(request_id, now_());
  RequestOutcome outcome;
  outcome.task = pending.task;
  outcome.error = true;
  outcome.latency = now_() - pending.started_at;
  outcome.object_id = pending.object_id;
  pending.done(std::move(outcome));
}

void CoicClient::FinishWithLocalFallback(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingRequest pending = std::move(it->second);
  pending_.erase(it);

  Duration local = Duration::Zero();
  RequestOutcome outcome;
  outcome.task = pending.task;
  outcome.source = proto::ResultSource::kLocal;
  outcome.object_id = pending.object_id;
  switch (pending.task) {
    case TaskKind::kRecognition:
      // Run the full DNN on-device — the Local baseline's path, so the
      // label is as correct as the offloaded one, just much later.
      local = config_.costs.recognition.local_full_inference;
      outcome.label = pending.expected_label;
      outcome.correct = true;
      break;
    case TaskKind::kRender:
      // Low-LOD placeholder assembled from assets already on device.
      local = config_.costs.render.local_fallback_render;
      break;
    case TaskKind::kPanorama:
      // Reproject the previous panoramic frame into the new viewport.
      local = config_.costs.panorama.local_reproject;
      break;
  }
  outcome.client_compute = pending.client_compute + local;
  if (tracer_) {
    tracer_->Transition(request_id, obs::Phase::kClientFinish, now_());
  }
  delay_(local, [this, outcome = std::move(outcome), request_id,
                 started_at = pending.started_at,
                 done = std::move(pending.done)]() mutable {
    outcome.latency = now_() - started_at;
    if (tracer_) tracer_->End(request_id, now_());
    done(std::move(outcome));
  });
}

void CoicClient::OnEdgeFrame(Frame frame, Frame tail) {
  auto env_or = proto::DecodeEnvelopeView(frame, tail);
  if (!env_or.ok()) {
    COIC_LOG(kWarn) << "client: dropping undecodable frame";
    return;
  }
  const proto::EnvelopeView env = env_or.value();
  const auto it = pending_.find(env.request_id);
  if (it == pending_.end()) {
    // Normal under lossy transport: retransmits can draw duplicate
    // replies, and a reply can land after the local retry budget died.
    COIC_LOG(kDebug) << "client: reply for unknown request "
                     << env.request_id;
    return;
  }

  if (env.type == MessageType::kError) {
    // Overload control speaks through error replies: kResourceExhausted
    // (admission / deadline shed) and kUnavailable (open breaker) are
    // policy verdicts, not failures, and the client may degrade to
    // on-device compute instead of reporting an error.
    auto err = proto::DecodePayloadAs<proto::ErrorReply>(
        env, MessageType::kError);
    const bool shed =
        err.ok() &&
        (err.value().code ==
             static_cast<std::uint16_t>(StatusCode::kResourceExhausted) ||
         err.value().code ==
             static_cast<std::uint16_t>(StatusCode::kUnavailable));
    if (shed) {
      ++overload_rejects_;
      if (tracer_) {
        tracer_->Annotate(env.request_id, "overload-reject", now_());
      }
      if (config_.local_fallback) {
        FinishWithLocalFallback(env.request_id);
        return;
      }
    }
    FinishWithError(env.request_id);
    return;
  }

  PendingRequest pending = std::move(it->second);
  pending_.erase(it);

  RequestOutcome outcome;
  outcome.task = pending.task;
  outcome.object_id = pending.object_id;
  outcome.client_compute = pending.client_compute;

  switch (pending.task) {
    case TaskKind::kRecognition: {
      auto result = proto::DecodePayloadAs<proto::RecognitionResultView>(
          env, MessageType::kRecognitionResult);
      if (!result.ok()) {
        TrackPending(env.request_id, std::move(pending));
        FinishWithError(env.request_id);
        return;
      }
      outcome.source = result.value().source;
      outcome.label.assign(result.value().label);
      outcome.correct = outcome.label == pending.expected_label;
      outcome.result_bytes = result.value().annotation.size();
      // The annotation is display-ready; no post-receive compute.
      outcome.latency = now_() - pending.started_at;
      if (tracer_) tracer_->End(env.request_id, now_());
      pending.done(std::move(outcome));
      return;
    }

    case TaskKind::kRender: {
      auto result = proto::DecodePayloadAs<proto::RenderResultView>(
          env, MessageType::kRenderResult);
      if (!result.ok()) {
        TrackPending(env.request_id, std::move(pending));
        FinishWithError(env.request_id);
        return;
      }
      const Bytes size = result.value().model_bytes.size();
      // Ingest is real: parse + buffer build, with calibrated wall time —
      // once per distinct asset; repeats hit the device's install memo.
      // The parse reads the model bytes in place (borrowed view into the
      // frame or, for a cache hit, the cached tail); both are alive for
      // the whole call.
      const std::uint64_t model_id = result.value().model_id;
      bool parse_ok;
      const auto memo = ingest_memo_.find(model_id);
      if (memo != ingest_memo_.end() && memo->second.first == size) {
        parse_ok = memo->second.second;
      } else {
        parse_ok = render::LoadModel(result.value().model_bytes).ok();
        ingest_memo_[model_id] = {size, parse_ok};
      }
      const Duration install = config_.costs.ClientModelInstall(size);
      outcome.source = result.value().source;
      outcome.result_bytes = size;
      outcome.client_compute = pending.client_compute + install;
      outcome.error = !parse_ok;
      if (tracer_) {
        tracer_->Transition(env.request_id, obs::Phase::kClientFinish, now_());
      }
      delay_(install, [this, outcome = std::move(outcome),
                       request_id = env.request_id,
                       started_at = pending.started_at,
                       done = std::move(pending.done)]() mutable {
        outcome.latency = now_() - started_at;
        if (tracer_) tracer_->End(request_id, now_());
        done(std::move(outcome));
      });
      return;
    }

    case TaskKind::kPanorama: {
      auto result = proto::DecodePayloadAs<proto::PanoramaResultView>(
          env, MessageType::kPanoramaResult);
      if (!result.ok()) {
        TrackPending(env.request_id, std::move(pending));
        FinishWithError(env.request_id);
        return;
      }
      const Duration crop = config_.costs.panorama.client_crop;
      outcome.source = result.value().source;
      outcome.result_bytes = result.value().frame.size();
      outcome.client_compute = pending.client_compute + crop;
      if (tracer_) {
        tracer_->Transition(env.request_id, obs::Phase::kClientFinish, now_());
      }
      delay_(crop, [this, outcome = std::move(outcome),
                    request_id = env.request_id,
                    started_at = pending.started_at,
                    done = std::move(pending.done)]() mutable {
        outcome.latency = now_() - started_at;
        if (tracer_) tracer_->End(request_id, now_());
        done(std::move(outcome));
      });
      return;
    }
  }
}

}  // namespace coic::core
