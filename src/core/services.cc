#include "core/services.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/log.h"
#include "vision/image.h"

namespace coic::core {

using proto::EnvelopeView;
using proto::MessageType;
using proto::OffloadMode;
using proto::ResultSource;

namespace {

/// A reply's whole payload as one shareable frame: a slice of a
/// contiguous frame, or the tail of a pair split at its payload (the
/// cloud's header | memo gathers).
Frame PayloadOf(const Frame& head, const Frame& tail,
                const EnvelopeView& env) {
  if (env.payload_tail.empty()) return head.SliceOf(env.payload);
  COIC_CHECK_MSG(env.payload.empty(), "reply pair not split at its payload");
  return tail.SliceOf(env.payload_tail);
}

}  // namespace

// ---------------------------------------------------------------------------
// CloudService
// ---------------------------------------------------------------------------

CloudService::CloudService(Config config, SendFn send, DelayFn delay)
    : config_(config), send_(std::move(send)), delay_(std::move(delay)),
      extractor_(config.extractor) {
  COIC_CHECK(config_.recognition_classes >= 1);
  std::vector<vision::ObjectClass> classes;
  classes.reserve(config_.recognition_classes);
  for (std::uint32_t c = 0; c < config_.recognition_classes; ++c) {
    // Scene ids 1..N; scene 0 is reserved as "never registered".
    classes.push_back({c + 1, LabelForScene(c + 1)});
  }
  recognition_ =
      std::make_unique<vision::RecognitionModel>(std::move(classes), extractor_);
}

std::string CloudService::LabelForScene(std::uint64_t scene_id) {
  return "object_" + std::to_string(scene_id);
}

void CloudService::RegisterModel(std::uint64_t model_id, Bytes serialized_size) {
  COIC_CHECK(models_.RegisterProcedural(model_id, serialized_size).ok());
}

void CloudService::Reply(MessageType type, std::uint64_t request_id,
                         Frame payload) {
  COIC_CHECK_MSG(payload.size() <= proto::kMaxPayloadBytes,
                 "payload too large");
  ByteWriter w(proto::kEnvelopeHeaderSize);
  proto::AppendEnvelopeHeader(w, type, request_id,
                              static_cast<std::uint32_t>(payload.size()));
  send_(Peer::kClient, Frame(w.TakeBytes()), std::move(payload));
}

void CloudService::ReplyError(std::uint64_t request_id, StatusCode code,
                              const std::string& message) {
  proto::ErrorReply err;
  err.code = static_cast<std::uint16_t>(code);
  err.message = message;
  send_(Peer::kClient,
        proto::EncodeMessage(MessageType::kError, request_id, err), Frame());
}

void CloudService::OnFrame(Frame frame) {
  auto env = proto::DecodeEnvelopeView(frame);
  if (!env.ok()) {
    COIC_LOG(kWarn) << "cloud: dropping undecodable frame: "
                    << env.status().ToString();
    return;
  }
  switch (env.value().type) {
    case MessageType::kPing:
      Reply(MessageType::kPong, env.value().request_id, Frame());
      return;
    case MessageType::kRecognitionRequest:
      HandleRecognition(env.value());
      return;
    case MessageType::kRenderRequest:
      HandleRender(env.value());
      return;
    case MessageType::kPanoramaRequest:
      HandlePanorama(env.value());
      return;
    default:
      ReplyError(env.value().request_id, StatusCode::kUnimplemented,
                 "cloud does not handle this message type");
  }
}

void CloudService::HandleRecognition(const EnvelopeView& env) {
  auto req = proto::DecodePayloadAs<proto::RecognitionRequest>(
      env, MessageType::kRecognitionRequest);
  if (!req.ok()) {
    ReplyError(env.request_id, req.status().code(), req.status().message());
    return;
  }
  const auto& request = req.value();
  ++tasks_executed_;

  vision::Recognition recognized;
  Duration compute;
  if (request.mode == OffloadMode::kOrigin) {
    // Full task: decode the uploaded frame and run the complete DNN.
    auto image = vision::SyntheticImage::DecodeWire(request.image);
    if (!image.ok()) {
      ReplyError(env.request_id, image.status().code(),
                 image.status().message());
      return;
    }
    recognized = recognition_->Classify(image.value());
    compute = config_.costs.recognition.cloud_full_inference;
  } else {
    if (request.descriptor.kind() != proto::DescriptorKind::kFeatureVector) {
      ReplyError(env.request_id, StatusCode::kInvalidArgument,
                 "recognition requires a feature-vector descriptor");
      return;
    }
    // Miss-forward: resume inference from the client's descriptor (the
    // DNN's upper layers only).
    recognized = recognition_->ClassifyDescriptor(request.descriptor.vector());
    compute = config_.costs.recognition.cloud_descriptor_inference;
  }

  // Single-buffer reply: header + RecognitionResult fields written once,
  // with the memoized annotation frame blitted in directly. It stays one
  // buffer (not a gather like render and panorama replies): the
  // per-request frame id and label precede the annotation, and the edge
  // caches the result as one contiguous payload. Field order mirrors
  // RecognitionResult::Encode (pinned by a services test).
  const Frame annotation = AnnotationFor(recognized.label);
  ByteWriter w(proto::kEnvelopeHeaderSize + 8 + 4 + recognized.label.size() +
               4 + 1 + 4 + annotation.size());
  proto::AppendEnvelopeHeader(w, MessageType::kRecognitionResult,
                              env.request_id, 0);
  w.WriteU64(request.frame_id);
  w.WriteString(recognized.label);
  w.WriteF32(recognized.confidence);
  w.WriteU8(static_cast<std::uint8_t>(ResultSource::kCloud));
  w.WriteBlob(annotation.span());
  COIC_CHECK_MSG(w.size() - proto::kEnvelopeHeaderSize <=
                     proto::kMaxPayloadBytes,
                 "payload too large");
  w.PatchU32(16, static_cast<std::uint32_t>(w.size() -
                                            proto::kEnvelopeHeaderSize));
  delay_(compute, [this, reply = Frame(w.TakeBytes())]() mutable {
    send_(Peer::kClient, std::move(reply), Frame());
  });
}

Frame CloudService::AnnotationFor(const std::string& label) {
  BoundMemo(annotation_memo_, 256);
  const auto it = annotation_memo_.find(label);
  if (it != annotation_memo_.end()) return it->second;
  return annotation_memo_
      .emplace(label,
               Frame(vision::RecognitionModel::MakeAnnotation(
                   label, config_.costs.recognition.annotation_bytes)))
      .first->second;
}

void CloudService::HandleRender(const EnvelopeView& env) {
  auto req = proto::DecodePayloadAs<proto::RenderRequest>(
      env, MessageType::kRenderRequest);
  if (!req.ok()) {
    ReplyError(env.request_id, req.status().code(), req.status().message());
    return;
  }
  const auto& request = req.value();
  ++tasks_executed_;

  const auto model_id = models_.FindByDigest(request.descriptor.digest());
  if (!model_id) {
    ReplyError(env.request_id, StatusCode::kNotFound,
               "no model with requested digest");
    return;
  }

  BoundMemo(render_payload_memo_, 256);
  auto memo = render_payload_memo_.find(*model_id);
  if (memo == render_payload_memo_.end()) {
    const auto bytes = models_.BytesFor(*model_id);
    COIC_CHECK(bytes.ok());
    proto::RenderResult result;
    result.model_id = *model_id;
    result.source = ResultSource::kCloud;
    result.model_bytes.assign(bytes.value().begin(), bytes.value().end());
    ByteWriter w(result.WireSize());
    result.Encode(w);
    memo = render_payload_memo_
               .emplace(*model_id, std::make_pair(result.model_bytes.size(),
                                                  Frame(w.TakeBytes())))
               .first;
  }

  const Duration load = config_.costs.CloudModelLoad(memo->second.first);
  delay_(load,
         [this, request_id = env.request_id, payload = memo->second.second] {
           Reply(MessageType::kRenderResult, request_id, payload);
         });
}

void CloudService::HandlePanorama(const EnvelopeView& env) {
  auto req = proto::DecodePayloadAs<proto::PanoramaRequest>(
      env, MessageType::kPanoramaRequest);
  if (!req.ok()) {
    ReplyError(env.request_id, req.status().code(), req.status().message());
    return;
  }
  const auto& request = req.value();
  ++tasks_executed_;

  BoundMemo(panorama_payload_memo_, kPanoramaMemoCap);
  auto memo =
      panorama_payload_memo_.find({request.video_id, request.frame_index});
  if (memo == panorama_payload_memo_.end()) {
    Frame payload =
        panorama_source_
            ? panorama_source_(request.video_id, request.frame_index)
            : BuildPanoramaPayload(config_.costs, request.video_id,
                                   request.frame_index);
    memo = panorama_payload_memo_
               .emplace(std::make_pair(request.video_id, request.frame_index),
                        std::move(payload))
               .first;
  }

  delay_(config_.costs.panorama.cloud_render,
         [this, request_id = env.request_id, payload = memo->second] {
           Reply(MessageType::kPanoramaResult, request_id, payload);
         });
}

Frame CloudService::BuildPanoramaPayload(const CostModel& costs,
                                         std::uint64_t video_id,
                                         std::uint32_t frame_index) {
  const render::Panorama pano =
      render::Panorama::Generate(video_id, frame_index);
  // Pad the encoded raster to the production 4K wire size so transfer
  // costs match the paper's regime.
  const std::size_t raster = pano.EncodedSize();
  const std::size_t frame =
      std::max<std::size_t>(raster, costs.panorama.frame_bytes);
  // PanoramaResult's fields, in PanoramaResult::Encode's order (pinned by
  // a services test), then the raster and the pad in place.
  constexpr std::size_t kFieldBytes = 8 + 4 + 1 + 2 + 2 + 4;
  ByteWriter w(kFieldBytes + frame);
  w.WriteU64(video_id);
  w.WriteU32(frame_index);
  w.WriteU8(static_cast<std::uint8_t>(ResultSource::kCloud));
  w.WriteU16(pano.width());
  w.WriteU16(pano.height());
  w.WriteU32(static_cast<std::uint32_t>(frame));
  ByteVec bytes = w.TakeBytes();
  bytes.resize(kFieldBytes + frame);  // within the reserve: no reallocation
  const std::span<std::uint8_t> body = std::span(bytes).subspan(kFieldBytes);
  pano.EncodeTo(body.first(raster));
  FillDeterministicBytes(body.subspan(raster), video_id * 31 + frame_index);
  return Frame(std::move(bytes));
}

// ---------------------------------------------------------------------------
// EdgeService
// ---------------------------------------------------------------------------

EdgeService::EdgeService(Config config, SendFn send, DelayFn delay, NowFn now)
    : config_(std::move(config)), send_(std::move(send)),
      delay_(std::move(delay)), now_(std::move(now)), cache_(config_.cache),
      own_metrics_(config_.metrics ? nullptr : new obs::MetricsRegistry()),
      tracer_(config_.tracer),
      forwards_(Metric("forwards")),
      peer_hits_(Metric("peer_hits")),
      peer_queries_served_(Metric("peer_queries_served")),
      peer_probes_sent_(Metric("peer_probes_sent")),
      coalesced_requests_(Metric("coalesced_requests")),
      cloud_retransmissions_(Metric("cloud_retransmissions")),
      cloud_timeouts_(Metric("cloud_timeouts")),
      probe_timeouts_(Metric("probe_timeouts")),
      leader_promotions_(Metric("leader_promotions")),
      duplicates_dropped_(Metric("duplicates_dropped")),
      replayed_from_memo_(Metric("replayed_from_memo")),
      grace_hits_(Metric("grace_hits")),
      overload_sheds_(Metric("overload_sheds")),
      deadline_sheds_(Metric("deadline_sheds")),
      breaker_opens_(Metric("breaker_opens")),
      breaker_sheds_(Metric("breaker_sheds")),
      peer_adoptions_skipped_(Metric("peer_adoptions_skipped")) {}

void EdgeService::Park(std::uint64_t request_id, PendingForward pending) {
  COIC_CHECK_MSG(pending_.count(request_id) == 0,
                 "duplicate in-flight request id at edge");
  pending_.emplace(request_id, std::move(pending));
  peak_pending_ = std::max(peak_pending_, pending_.size());
}

std::vector<std::uint64_t> EdgeService::pending_request_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, fwd] : pending_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::uint64_t EdgeService::CoalesceKey(
    const proto::FeatureDescriptor& key) noexcept {
  if (key.kind() == proto::DescriptorKind::kContentHash) {
    return key.IndexKey();
  }
  // Vector descriptors: FNV-1a over the raw float bits, with the task
  // folded into the seed. Exact re-extractions of the same scene
  // coalesce; merely similar vectors intentionally do not (approximate
  // matching is the cache's job — the wait-list must never serve a
  // near-miss).
  const auto v = key.vector();
  const std::uint64_t seed =
      0xcbf29ce484222325ull ^
      (0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(key.task()));
  return Fnv1a64(std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(v.data()),
                     v.size() * sizeof(float)),
                 seed);
}

void EdgeService::ReleaseCoalesceKey(const std::optional<std::uint64_t>& key) {
  if (key) inflight_keys_.erase(*key);
}

void EdgeService::SendPeerLookupReply(std::optional<std::uint32_t> from_peer,
                                      std::uint64_t request_id, bool found,
                                      MessageType reply_type, Frame payload) {
  // The head carries the fixed fields through the blob's length prefix
  // (field order mirrors PeerLookupReply::Encode; pinned by a test); a
  // hit's payload follows as the tail, shared with the cache entry.
  COIC_CHECK_MSG(1 + 1 + 4 + payload.size() <= proto::kMaxPayloadBytes,
                 "payload too large");
  constexpr std::size_t kHeadSize = proto::kEnvelopeHeaderSize + 1 + 1 + 4;
  ByteWriter w = config_.frame_arena
                     ? ByteWriter(config_.frame_arena->Acquire(kHeadSize))
                     : ByteWriter(kHeadSize);
  proto::AppendEnvelopeHeader(
      w, MessageType::kPeerLookupReply, request_id,
      static_cast<std::uint32_t>(1 + 1 + 4 + payload.size()));
  w.WriteU8(found ? 1 : 0);
  w.WriteU8(static_cast<std::uint8_t>(reply_type));
  w.WriteU32(static_cast<std::uint32_t>(payload.size()));
  Frame head = config_.frame_arena ? config_.frame_arena->Seal(w.TakeBytes())
                                   : Frame(w.TakeBytes());
  if (from_peer && config_.peer_send) {
    config_.peer_send(*from_peer, std::move(head), std::move(payload));
  } else {
    send_(Peer::kPeerEdge, std::move(head), std::move(payload));
  }
}

void EdgeService::NoteKeyUse(std::uint64_t coalesce_key) {
  if (config_.peer_hit_adopt_min_uses == 0) return;
  // Bounded: old keys age out FIFO, so a workload with more distinct
  // keys than the cap degrades toward "always adopt", never grows.
  constexpr std::size_t kKeyUseCapacity = 16384;
  const auto [it, inserted] = key_uses_.try_emplace(coalesce_key, 0u);
  ++it->second;
  if (inserted) {
    key_uses_fifo_.push_back(coalesce_key);
    while (key_uses_fifo_.size() > kKeyUseCapacity) {
      key_uses_.erase(key_uses_fifo_.front());
      key_uses_fifo_.pop_front();
    }
  }
}

std::uint32_t EdgeService::KeyUses(std::uint64_t coalesce_key) const noexcept {
  const auto it = key_uses_.find(coalesce_key);
  return it == key_uses_.end() ? 0u : it->second;
}

void EdgeService::ServeWaiters(const std::vector<std::uint64_t>& waiters,
                               const Frame& payload, ResultSource source) {
  for (const std::uint64_t id : waiters) {
    const auto it = pending_.find(id);
    if (it == pending_.end() || !it->second.is_waiter) continue;
    const MessageType reply_type = it->second.reply_type;
    pending_.erase(it);
    ResolveToClient(id, reply_type, payload, source);
  }
}

void EdgeService::FailWaiters(const std::vector<std::uint64_t>& waiters,
                              std::span<const std::uint8_t> error_payload) {
  for (const std::uint64_t id : waiters) {
    const auto it = pending_.find(id);
    if (it == pending_.end() || !it->second.is_waiter) continue;
    pending_.erase(it);
    Frame reply(proto::EncodeEnvelope(MessageType::kError, id, error_payload));
    MemoizeResolved(id, {.reply = reply, .reply_tail = {}, .payload = {}});
    if (tracer_) tracer_->Transition(id, obs::Phase::kDownlink, now_());
    send_(Peer::kClient, std::move(reply), Frame());
  }
}

void EdgeService::MemoizeResolved(std::uint64_t request_id,
                                  ResolvedMemo memo) {
  if (config_.resolved_memo_capacity == 0) return;
  const auto [it, inserted] =
      resolved_memo_.insert_or_assign(request_id, std::move(memo));
  if (inserted) resolved_memo_fifo_.push_back(request_id);
  while (resolved_memo_fifo_.size() > config_.resolved_memo_capacity) {
    resolved_memo_.erase(resolved_memo_fifo_.front());
    resolved_memo_fifo_.pop_front();
  }
}

bool EdgeService::TryReplayFromMemo(std::uint64_t request_id) {
  const auto it = resolved_memo_.find(request_id);
  if (it == resolved_memo_.end()) return false;
  ++replayed_from_memo_;
  const ResolvedMemo& memo = it->second;
  if (!memo.reply.empty()) {
    send_(Peer::kClient, memo.reply, memo.reply_tail);
  } else {
    SendResultToClient(memo.reply_type, request_id, memo.payload, memo.source);
  }
  return true;
}

void EdgeService::ShedToClient(std::uint64_t request_id, StatusCode code,
                               const char* message, const char* annotation) {
  proto::ErrorReply err;
  err.code = static_cast<std::uint16_t>(code);
  err.message = message;
  Frame reply(proto::EncodeMessage(MessageType::kError, request_id, err));
  MemoizeResolved(request_id,
                  {.reply = reply, .reply_tail = {}, .payload = {}});
  if (tracer_) {
    tracer_->Annotate(request_id, annotation, now_());
    tracer_->Transition(request_id, obs::Phase::kDownlink, now_());
  }
  send_(Peer::kClient, std::move(reply), Frame());
}

void EdgeService::ShedPending(std::uint64_t request_id, PendingForward pending,
                              StatusCode code, const char* message,
                              const char* annotation) {
  ReleaseCoalesceKey(pending.coalesce_key);
  ShedToClient(request_id, code, message, annotation);
  if (pending.waiters.empty()) return;
  // Waiters inherit the shed verdict: their clients degrade locally the
  // same way the leader's does.
  proto::ErrorReply err;
  err.code = static_cast<std::uint16_t>(code);
  err.message = message;
  ByteWriter pw;
  err.Encode(pw);
  FailWaiters(pending.waiters, pw.bytes());
}

bool EdgeService::BreakerRefusesForward(std::uint64_t request_id) {
  if (config_.breaker_failure_threshold == 0 ||
      breaker_state_ == BreakerState::kClosed) {
    return false;
  }
  if (breaker_state_ == BreakerState::kOpen) {
    if (now_() < breaker_reopen_at_) return true;
    breaker_state_ = BreakerState::kHalfOpen;
    breaker_probe_inflight_ = false;
  }
  // Half-open: exactly one probe flies; everything else keeps shedding
  // until the probe's fate is known.
  if (breaker_probe_inflight_) return true;
  breaker_probe_inflight_ = true;
  if (tracer_) tracer_->Annotate(request_id, "breaker-probe", now_());
  return false;
}

void EdgeService::OnBreakerFailure(std::uint64_t request_id) {
  if (config_.breaker_failure_threshold == 0) return;
  if (breaker_state_ == BreakerState::kHalfOpen) {
    // The probe died: back to open for another cooldown.
    breaker_state_ = BreakerState::kOpen;
    breaker_reopen_at_ = now_() + config_.breaker_open_duration;
    breaker_probe_inflight_ = false;
    ++breaker_opens_;
    if (tracer_) tracer_->Annotate(request_id, "breaker-reopen", now_());
    return;
  }
  if (breaker_state_ == BreakerState::kClosed &&
      ++consecutive_cloud_failures_ >= config_.breaker_failure_threshold) {
    breaker_state_ = BreakerState::kOpen;
    breaker_reopen_at_ = now_() + config_.breaker_open_duration;
    ++breaker_opens_;
    if (tracer_) tracer_->Annotate(request_id, "breaker-open", now_());
  }
}

void EdgeService::OnBreakerSuccess() {
  consecutive_cloud_failures_ = 0;
  if (breaker_state_ == BreakerState::kClosed) return;
  breaker_state_ = BreakerState::kClosed;
  breaker_probe_inflight_ = false;
}

void EdgeService::ForwardToCloud(Frame request_frame, PendingForward pending) {
  const std::uint64_t request_id = proto::PeekRequestId(request_frame.span());
  // Shed-before-spend: a request whose wire deadline already expired
  // while it queued / probed / parked can no longer use the result — an
  // immediate overload reply beats a wasted cloud round trip.
  if (pending.deadline_at && now_() > *pending.deadline_at) {
    ++deadline_sheds_;
    ShedPending(request_id, std::move(pending), StatusCode::kResourceExhausted,
                "deadline expired before cloud fetch", "deadline-shed");
    return;
  }
  // Open breaker: the cloud is presumed dead; fail fast instead of
  // arming another retry ladder and trapping coalesced waiters.
  if (BreakerRefusesForward(request_id)) {
    ++breaker_sheds_;
    ShedPending(request_id, std::move(pending), StatusCode::kUnavailable,
                "cloud circuit open", "breaker-shed");
    return;
  }
  const std::uint32_t attempt = pending.attempt;
  const bool retryable = config_.cloud_retry.enabled();
  if (retryable) {
    // Retain the request (a refcount bump) for retransmission.
    pending.original = request_frame;
  }
  Park(request_id, std::move(pending));
  ++forwards_;
  // Single cloud hook: direct forwards, probe-miss fallthrough, probe
  // timeouts and promoted waiters all funnel through here.
  if (tracer_) tracer_->Transition(request_id, obs::Phase::kCloudFetch, now_());
  // The original client frame is forwarded as-is — type, request id and
  // payload are exactly what a re-encode would produce, without copying
  // the (possibly multi-hundred-KB Origin-mode) payload.
  send_(Peer::kCloud, std::move(request_frame), Frame());
  if (retryable) ArmCloudRetryTimer(request_id, attempt);
}

void EdgeService::ArmCloudRetryTimer(std::uint64_t request_id,
                                     std::uint32_t attempt) {
  delay_(config_.cloud_retry.TimeoutForAttempt(attempt),
         [this, request_id, attempt] { OnCloudRetryTimer(request_id, attempt); });
}

void EdgeService::OnCloudRetryTimer(std::uint64_t request_id,
                                    std::uint32_t attempt) {
  const auto it = pending_.find(request_id);
  // Lazy disarm: the request resolved, became a waiter, moved back to
  // the probe phase, or a newer attempt superseded this timer.
  if (it == pending_.end() || it->second.is_waiter || it->second.at_peer ||
      it->second.attempt != attempt) {
    return;
  }
  if (attempt >= config_.cloud_retry.max_retries) {
    HandleCloudFetchFailure(request_id);
    return;
  }
  ++it->second.attempt;
  ++cloud_retransmissions_;
  if (tracer_) tracer_->Annotate(request_id, "cloud-retransmit", now_());
  send_(Peer::kCloud, it->second.original, Frame());
  ArmCloudRetryTimer(request_id, it->second.attempt);
}

void EdgeService::HandleCloudFetchFailure(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingForward dead = std::move(it->second);
  pending_.erase(it);
  ++cloud_timeouts_;
  OnBreakerFailure(request_id);

  proto::ErrorReply err;
  err.code = static_cast<std::uint16_t>(StatusCode::kTimeout);
  err.message = "cloud fetch timed out";
  ByteWriter pw;
  err.Encode(pw);
  const ByteVec err_payload = pw.TakeBytes();

  // The dead leader's own client gets an error — its retry budget is
  // spent, and a drained run beats an eternally parked one.
  Frame reply(
      proto::EncodeEnvelope(MessageType::kError, request_id, err_payload));
  MemoizeResolved(request_id,
                  {.reply = reply, .reply_tail = {}, .payload = {}});
  if (tracer_) {
    tracer_->Annotate(request_id, "cloud-timeout", now_());
    tracer_->Transition(request_id, obs::Phase::kDownlink, now_());
  }
  send_(Peer::kClient, std::move(reply), Frame());

  // Leader-loss recovery: promote the oldest parked waiter to run its
  // own cloud fetch with a fresh retry budget. Without this, every
  // follower coalesced behind a dead leader was stranded forever.
  std::size_t pos = 0;
  std::uint64_t new_leader = 0;
  bool found = false;
  for (; pos < dead.waiters.size(); ++pos) {
    const auto w = pending_.find(dead.waiters[pos]);
    if (w != pending_.end() && w->second.is_waiter &&
        !w->second.original.empty()) {
      found = true;
      new_leader = dead.waiters[pos];
      break;
    }
  }
  if (!found) {
    ReleaseCoalesceKey(dead.coalesce_key);
    FailWaiters(dead.waiters, err_payload);
    return;
  }
  ++leader_promotions_;
  if (tracer_) tracer_->Annotate(new_leader, "leader-promotion", now_());
  PendingForward promoted = std::move(pending_.at(new_leader));
  pending_.erase(new_leader);
  promoted.is_waiter = false;
  promoted.at_peer = false;
  promoted.attempt = 0;
  promoted.probes_outstanding = 0;
  promoted.coalesce_key = dead.coalesce_key;
  promoted.waiters.assign(dead.waiters.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                          dead.waiters.end());
  if (dead.coalesce_key) inflight_keys_[*dead.coalesce_key] = new_leader;
  Frame original = std::move(promoted.original);
  ForwardToCloud(std::move(original), std::move(promoted));
}

void EdgeService::OnProbeTimeout(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end() || !it->second.at_peer) return;
  if (it->second.served) {
    // The client was already served by a peer hit; the entry only
    // lingered for probe replies that are now presumed lost.
    pending_.erase(it);
    return;
  }
  if (it->second.probes_outstanding == 0) return;
  ++probe_timeouts_;
  if (tracer_) tracer_->Annotate(request_id, "probe-timeout", now_());
  PendingForward moved = std::move(it->second);
  pending_.erase(it);
  Frame original = std::move(moved.original);
  moved.at_peer = false;
  moved.probes_outstanding = 0;
  ForwardToCloud(std::move(original), std::move(moved));
}

void EdgeService::SendResultToClient(proto::MessageType reply_type,
                                     std::uint64_t request_id,
                                     const Frame& payload,
                                     ResultSource source) {
  // Single downlink hook for every reply shape (cache hit, grace hit,
  // waiter fan-out, peer-hit leader, cloud relay via memo replay).
  if (tracer_) tracer_->Transition(request_id, obs::Phase::kDownlink, now_());
  // Rewrite only the bytes up to and including the source field into a
  // small head, and share the (possibly multi-MB) rest of the payload by
  // reference. The result body is never decoded or copied; the client
  // decodes the two segments as they arrive, unfused.
  const auto offset = proto::ResultSourceOffset(reply_type, payload.span());
  COIC_CHECK_MSG(offset.ok(), "corrupt cached result payload");
  COIC_CHECK_MSG(payload.size() <= proto::kMaxPayloadBytes,
                 "payload too large");
  const std::size_t pos = offset.value();
  ByteWriter w(proto::kEnvelopeHeaderSize + pos + 1);
  proto::AppendEnvelopeHeader(w, reply_type, request_id,
                              static_cast<std::uint32_t>(payload.size()));
  w.WriteRaw(payload.span().first(pos));
  w.WriteU8(static_cast<std::uint8_t>(source));
  send_(Peer::kClient, Frame(w.TakeBytes()),
        payload.Slice(pos + 1, payload.size() - pos - 1));
}

void EdgeService::ResolveToClient(std::uint64_t request_id,
                                  proto::MessageType reply_type,
                                  const Frame& payload, ResultSource source) {
  MemoizeResolved(request_id, {.reply = {},
                               .reply_tail = {},
                               .payload = payload,
                               .reply_type = reply_type,
                               .source = source});
  SendResultToClient(reply_type, request_id, payload, source);
}

bool EdgeService::TryServeFromCache(const proto::FeatureDescriptor& key,
                                    proto::MessageType reply_type,
                                    std::uint64_t request_id) {
  const auto outcome = cache_.Lookup(key, now_());
  if (!outcome.hit) return false;
  // Patch the cached result so the client sees the true source (edge,
  // not cloud). No memo: the cache itself re-serves a retransmit.
  SendResultToClient(reply_type, request_id, outcome.payload,
                     ResultSource::kEdgeCache);
  return true;
}

void EdgeService::OnLocalMiss(Frame frame,
                              proto::FeatureDescriptor descriptor,
                              proto::MessageType reply_type,
                              std::optional<SimTime> deadline_at) {
  const std::uint64_t request_id = proto::PeekRequestId(frame.span());
  const MessageType request_type = proto::PeekMessageType(frame.span());

  // Adoption-filter bookkeeping: every local miss counts as a use of
  // the key, including the one being processed right now.
  if (config_.peer_hit_adopt_min_uses > 0) NoteKeyUse(CoalesceKey(descriptor));

  // Admission control: a full pending queue sheds new misses up front —
  // an O(1) overload reply instead of another entry in a queue the edge
  // is already failing to drain. Cache hits never reach here, so an
  // overloaded edge keeps serving what it already has.
  if (config_.max_pending > 0 && pending_.size() >= config_.max_pending) {
    ++overload_sheds_;
    ShedToClient(request_id, StatusCode::kResourceExhausted,
                 "edge pending queue full", "overload-shed");
    return;
  }

  std::optional<std::uint64_t> coalesce_key;
  if (config_.coalesce_requests) {
    const std::uint64_t key = CoalesceKey(descriptor);
    if (const auto leader = inflight_keys_.find(key);
        leader != inflight_keys_.end()) {
      // A fetch for this key is already in flight: park on its wait-list
      // instead of paying another round of probes / a second cloud trip.
      // The waiter keeps its own request frame and insert key so it can
      // take over the fetch if the leader's retry budget dies.
      const std::uint64_t leader_id = leader->second;
      PendingForward waiter;
      waiter.request_type = request_type;
      waiter.reply_type = reply_type;
      waiter.insert_key = std::move(descriptor);
      waiter.original = std::move(frame);
      waiter.is_waiter = true;
      waiter.deadline_at = deadline_at;
      Park(request_id, std::move(waiter));
      pending_.at(leader_id).waiters.push_back(request_id);
      ++coalesced_requests_;
      if (tracer_) {
        tracer_->Transition(request_id, obs::Phase::kCoalescePark, now_());
        tracer_->Annotate(request_id, "coalesced", now_());
      }
      return;
    }
    if (config_.resolved_grace) {
      // Recently-resolved grace window: the leader for this key already
      // resolved but its delayed cache insert has not landed yet, so the
      // cache lookup above missed. Serve from the parked result instead
      // of starting a duplicate upstream fetch.
      if (const auto g = grace_.find(key); g != grace_.end()) {
        ++grace_hits_;
        if (tracer_) tracer_->Annotate(request_id, "grace-hit", now_());
        ResolveToClient(request_id, reply_type, g->second.payload,
                        ResultSource::kEdgeCache);
        return;
      }
    }
    inflight_keys_.emplace(key, request_id);
    coalesce_key = key;
  }

  if (config_.cooperative) {
    // Federation mode asks the policy for candidates (best first) and
    // caps them by the probe budget; pairwise mode probes the single
    // anonymous neighbor, exactly the original protocol.
    std::vector<std::uint32_t> candidates;
    if (config_.peer_select) {
      candidates = config_.peer_select(descriptor);
      if (candidates.size() > config_.probe_budget) {
        candidates.resize(config_.probe_budget);
      }
    } else {
      candidates = {0};
    }
    if (!candidates.empty()) {
      proto::PeerLookupRequest query;
      query.descriptor = descriptor;
      query.reply_type = reply_type;
      // Encoded once; every probe fans out the same refcounted buffer.
      // An arena recycles the probe's backing storage across requests.
      FrameArena* arena = config_.frame_arena;
      const Frame probe =
          arena ? arena->Seal(proto::EncodeMessageInto(
                      arena->Acquire(proto::kEnvelopeHeaderSize +
                                     static_cast<std::size_t>(query.WireSize())),
                      MessageType::kPeerLookupRequest, request_id, query))
                : Frame(proto::EncodeMessage(MessageType::kPeerLookupRequest,
                                             request_id, query));
      PendingForward pending;
      pending.request_type = request_type;
      pending.reply_type = reply_type;
      pending.insert_key = std::move(descriptor);
      pending.original = std::move(frame);
      pending.at_peer = true;
      pending.probes_outstanding =
          static_cast<std::uint32_t>(candidates.size());
      pending.coalesce_key = coalesce_key;
      pending.deadline_at = deadline_at;
      Park(request_id, std::move(pending));
      if (tracer_) {
        tracer_->Transition(request_id, obs::Phase::kPeerProbe, now_());
      }
      for (const std::uint32_t peer : candidates) {
        ++peer_probes_sent_;
        if (config_.peer_send) {
          config_.peer_send(peer, probe, Frame());
        } else {
          send_(Peer::kPeerEdge, probe, Frame());
        }
      }
      if (config_.peer_probe_timeout != Duration::Infinite()) {
        // Lost probes (or lost replies) must not strand the request:
        // when the round is still unresolved at the deadline, give up on
        // the peers and pay the cloud round trip.
        delay_(config_.peer_probe_timeout,
               [this, request_id] { OnProbeTimeout(request_id); });
      }
      return;
    }
    // No candidate worth probing (e.g. every peer summary says "not
    // here"): skip the probe round trip entirely.
  }
  PendingForward pending;
  pending.request_type = request_type;
  pending.reply_type = reply_type;
  pending.insert_key = std::move(descriptor);
  pending.coalesce_key = coalesce_key;
  pending.deadline_at = deadline_at;
  ForwardToCloud(std::move(frame), std::move(pending));
}

void EdgeService::HandlePeerLookupRequest(
    const EnvelopeView& env, std::optional<std::uint32_t> from_peer) {
  auto req = proto::DecodePayloadAs<proto::PeerLookupRequest>(
      env, MessageType::kPeerLookupRequest);
  if (!req.ok()) {
    COIC_LOG(kWarn) << "edge: bad peer lookup request";
    return;
  }
  ++peer_queries_served_;
  auto descriptor = std::move(req.value().descriptor);
  auto reply_type = req.value().reply_type;
  delay_(config_.costs.edge.cache_lookup,
         [this, request_id = env.request_id, descriptor = std::move(descriptor),
          reply_type, from_peer] {
           const auto outcome = cache_.Lookup(descriptor, now_());
           SendPeerLookupReply(from_peer, request_id, outcome.hit, reply_type,
                               outcome.hit ? outcome.payload : Frame());
         });
}

void EdgeService::HandlePeerLookupReply(const Frame& frame, const Frame& tail,
                                        const EnvelopeView& env) {
  auto reply = proto::DecodePayloadAs<proto::PeerLookupReplyView>(
      env, MessageType::kPeerLookupReply);
  if (!reply.ok()) {
    COIC_LOG(kWarn) << "edge: bad peer lookup reply";
    return;
  }
  const auto it = pending_.find(env.request_id);
  if (it == pending_.end() || !it->second.at_peer ||
      it->second.probes_outstanding == 0) {
    // Normal under lossy transport: the probe round timed out (or was
    // otherwise resolved) before this straggler landed.
    COIC_LOG(kDebug) << "edge: late peer reply " << env.request_id;
    return;
  }
  PendingForward& pending = it->second;
  --pending.probes_outstanding;

  if (reply.value().found && !pending.served) {
    // First peer hit: adopt the result into the local cache, then serve
    // the client marked as a peer-edge result. The entry lingers (served
    // = true) until every fanned-out probe has answered. The payload is
    // the reply's tail (or a slice of a contiguous reply) — cache
    // adoption shares the serving edge's own buffer, no copy.
    pending.served = true;
    ++peer_hits_;
    if (tracer_) {
      tracer_->Transition(env.request_id, obs::Phase::kCacheInsert, now_());
    }
    // The payload blob is the reply's last field and a borrowed view never
    // straddles the seam, so a decoded pair holds it wholly in the tail.
    const Frame payload = tail.empty()
                              ? frame.SliceOf(reply.value().payload)
                              : tail.SliceOf(reply.value().payload);
    const MessageType reply_type = reply.value().reply_type;
    // The outcome is known: waiters ride this result, and later misses
    // must start a fresh fetch (the insert below completes after a
    // cache_insert delay).
    ReleaseCoalesceKey(pending.coalesce_key);
    std::uint64_t grace_key = 0;
    std::uint64_t grace_gen = 0;
    bool grace_armed = false;
    if (config_.resolved_grace && pending.coalesce_key) {
      // Park the result under its coalesce key until the delayed insert
      // lands — same-key misses in that window ride this entry.
      grace_key = *pending.coalesce_key;
      grace_gen = ++grace_gen_;
      grace_[grace_key] = {payload, grace_gen};
      grace_armed = true;
    }
    pending.coalesce_key.reset();
    // Adoption filter: peer-served results for low-reuse keys are not
    // copied into the local cache — a 1-hop neighbor already serves
    // them, and the insert would evict content only this edge holds.
    const bool adopt = config_.peer_hit_adopt_min_uses == 0 ||
                       KeyUses(CoalesceKey(*pending.insert_key)) >=
                           config_.peer_hit_adopt_min_uses;
    if (!adopt) ++peer_adoptions_skipped_;
    delay_(config_.costs.edge.cache_insert,
           [this, request_id = env.request_id,
            key = std::move(*pending.insert_key), payload, reply_type,
            waiters = std::move(pending.waiters), adopt, grace_armed,
            grace_key, grace_gen] {
             if (adopt) cache_.Insert(key, payload, now_());
             if (grace_armed) {
               const auto g = grace_.find(grace_key);
               if (g != grace_.end() && g->second.gen == grace_gen) {
                 grace_.erase(g);
               }
             }
             ResolveToClient(request_id, reply_type, payload,
                             ResultSource::kPeerEdge);
             ServeWaiters(waiters, payload, ResultSource::kPeerEdge);
           });
    pending.insert_key.reset();
    pending.waiters.clear();
    if (pending.probes_outstanding == 0) pending_.erase(it);
    return;
  }

  if (pending.probes_outstanding > 0) return;  // more probes in flight
  if (pending.served) {  // late misses (or duplicate hits) after a hit
    pending_.erase(it);
    return;
  }

  // Every probe missed: fall through to the cloud with the original
  // request frame. (Pulled out first: passing `moved.original` and
  // `std::move(moved)` in one call would read a moved-from field under
  // GCC's right-to-left argument evaluation.)
  PendingForward moved = std::move(it->second);
  pending_.erase(it);
  Frame original = std::move(moved.original);
  moved.at_peer = false;
  ForwardToCloud(std::move(original), std::move(moved));
}

void EdgeService::OnPeerFrame(Frame frame, Frame tail) {
  DispatchPeerFrame(std::nullopt, std::move(frame), std::move(tail));
}

void EdgeService::OnPeerFrame(std::uint32_t from_peer, Frame frame,
                              Frame tail) {
  DispatchPeerFrame(from_peer, std::move(frame), std::move(tail));
}

void EdgeService::DispatchPeerFrame(std::optional<std::uint32_t> from_peer,
                                    Frame frame, Frame tail) {
  auto env_or = proto::DecodeEnvelopeView(frame, tail);
  if (!env_or.ok()) {
    COIC_LOG(kWarn) << "edge: dropping undecodable peer frame";
    return;
  }
  const EnvelopeView env = env_or.value();
  switch (env.type) {
    case MessageType::kPeerLookupRequest:
      HandlePeerLookupRequest(env, from_peer);
      return;
    case MessageType::kPeerLookupReply:
      HandlePeerLookupReply(frame, tail, env);
      return;
    default:
      COIC_LOG(kWarn) << "edge: unexpected peer message type";
  }
}

void EdgeService::OnClientFrame(Frame frame) {
  auto env_or = proto::DecodeEnvelopeView(frame);
  if (!env_or.ok()) {
    COIC_LOG(kWarn) << "edge: dropping undecodable client frame: "
                    << env_or.status().ToString();
    return;
  }
  const EnvelopeView env = env_or.value();

  switch (env.type) {
    case MessageType::kPing:
      send_(Peer::kClient,
            proto::EncodeEnvelope(MessageType::kPong, env.request_id, {}),
            Frame());
      return;

    case MessageType::kCacheStatsRequest: {
      proto::CacheStatsReply reply;
      const auto& s = cache_.stats();
      reply.hits = s.hits;
      reply.misses = s.misses;
      reply.insertions = s.insertions;
      reply.evictions = s.evictions;
      reply.bytes_used = cache_.bytes_used();
      reply.bytes_capacity = cache_.config().capacity_bytes;
      send_(Peer::kClient,
            proto::EncodeMessage(MessageType::kCacheStatsReply, env.request_id,
                                 reply),
            Frame());
      return;
    }

    case MessageType::kRecognitionRequest:
    case MessageType::kRenderRequest:
    case MessageType::kPanoramaRequest: {
      // Idempotent duplicate handling (client retransmits under lossy
      // transport): an id still in flight is dropped — the in-flight
      // resolution will answer it — and an id resolved recently is
      // replayed from the memo instead of being fetched twice.
      if (pending_.count(env.request_id) > 0) {
        ++duplicates_dropped_;
        if (tracer_) {
          tracer_->Annotate(env.request_id, "duplicate-dropped", now_());
        }
        return;
      }
      if (TryReplayFromMemo(env.request_id)) return;
      const auto mode = proto::PeekRequestOffloadMode(env.type, env.payload);
      if (!mode.ok()) return;  // dropped, like any undecodable request
      if (mode.value() == OffloadMode::kOrigin) {
        // Baseline: pure relay, no cache involvement — the original
        // frame (with its possibly multi-hundred-KB camera image) is
        // forwarded untouched, never decoded at the edge; the cloud is
        // the authoritative validator of the rest of the payload.
        PendingForward pending;
        pending.request_type = env.type;
        pending.mode = OffloadMode::kOrigin;
        ForwardToCloud(std::move(frame), std::move(pending));
        return;
      }
      // CoIC mode: the descriptor must outlive this frame delivery, so
      // the request is fully (owning-)decoded.
      proto::FeatureDescriptor descriptor;
      MessageType reply_type;
      std::uint32_t deadline_ms = 0;
      switch (env.type) {
        case MessageType::kRecognitionRequest: {
          auto req = proto::DecodePayloadAs<proto::RecognitionRequest>(
              env, MessageType::kRecognitionRequest);
          if (!req.ok()) return;
          descriptor = std::move(req.value().descriptor);
          deadline_ms = req.value().deadline_ms;
          reply_type = MessageType::kRecognitionResult;
          break;
        }
        case MessageType::kRenderRequest: {
          auto req = proto::DecodePayloadAs<proto::RenderRequest>(
              env, MessageType::kRenderRequest);
          if (!req.ok()) return;
          descriptor = std::move(req.value().descriptor);
          deadline_ms = req.value().deadline_ms;
          reply_type = MessageType::kRenderResult;
          break;
        }
        default: {
          auto req = proto::DecodePayloadAs<proto::PanoramaRequest>(
              env, MessageType::kPanoramaRequest);
          if (!req.ok()) return;
          descriptor = std::move(req.value().descriptor);
          deadline_ms = req.value().deadline_ms;
          reply_type = MessageType::kPanoramaResult;
          break;
        }
      }
      // The wire deadline becomes an absolute expiry at edge arrival;
      // it rides the pending entry into every later shed decision.
      std::optional<SimTime> deadline_at;
      if (deadline_ms > 0) {
        deadline_at = now_() + Duration::Millis(deadline_ms);
      }
      if (tracer_) {
        tracer_->Transition(env.request_id, obs::Phase::kEdgeLookup, now_());
      }
      delay_(config_.costs.edge.cache_lookup,
             [this, frame = std::move(frame),
              descriptor = std::move(descriptor), reply_type,
              deadline_at]() mutable {
               if (!TryServeFromCache(descriptor, reply_type,
                                      proto::PeekRequestId(frame.span()))) {
                 OnLocalMiss(std::move(frame), std::move(descriptor),
                             reply_type, deadline_at);
               }
             });
      return;
    }

    default:
      COIC_LOG(kWarn) << "edge: unexpected client message type";
  }
}

void EdgeService::OnCloudFrame(Frame frame, Frame tail) {
  auto env_or = proto::DecodeEnvelopeView(frame, tail);
  if (!env_or.ok()) {
    COIC_LOG(kWarn) << "edge: dropping undecodable cloud frame: "
                    << env_or.status().ToString();
    return;
  }
  const EnvelopeView env = env_or.value();

  const auto it = pending_.find(env.request_id);
  if (it == pending_.end()) {
    // Normal under lossy transport: a retransmitted forward makes the
    // cloud answer twice, and a reply that raced a timeout lands after
    // its request was already resolved or promoted.
    COIC_LOG(kDebug) << "edge: cloud reply for unknown request "
                     << env.request_id;
    return;
  }
  PendingForward pending = std::move(it->second);
  pending_.erase(it);
  // The leader's outcome is now known; same-key misses arriving from
  // here on start their own fetch.
  ReleaseCoalesceKey(pending.coalesce_key);
  // Any cloud reply — even an error — proves the path is alive.
  OnBreakerSuccess();

  const bool cacheable = pending.mode == OffloadMode::kCoic &&
                         pending.insert_key.has_value() &&
                         env.type != MessageType::kError;
  if (!cacheable) {
    // Error (or Origin-mode) reply: relay the original cloud frame and
    // propagate the failure to any coalesced waiters — they can never be
    // served now.
    if (env.type == MessageType::kError) {
      FailWaiters(pending.waiters, env.payload);
    }
    MemoizeResolved(env.request_id,
                    {.reply = frame, .reply_tail = tail, .payload = {}});
    if (tracer_) {
      tracer_->Transition(env.request_id, obs::Phase::kDownlink, now_());
    }
    send_(Peer::kClient, std::move(frame), std::move(tail));
    return;
  }

  // Figure 1: "the edge forwards the request to the cloud and inserts
  // the result to the edge cache" — insert, then relay to the client.
  // The cache adopts the delivered payload by reference (for a render or
  // panorama reply: the cloud memo's own buffer) and the client gets the
  // same frames: zero payload copies on the whole miss-return path.
  const Frame payload = PayloadOf(frame, tail, env);
  MemoizeResolved(env.request_id, {.reply = {},
                                   .reply_tail = {},
                                   .payload = payload,
                                   .reply_type = env.type,
                                   .source = ResultSource::kCloud});
  std::uint64_t grace_key = 0;
  std::uint64_t grace_gen = 0;
  bool grace_armed = false;
  if (config_.resolved_grace && config_.coalesce_requests &&
      pending.insert_key) {
    // Park the result under its coalesce key until the delayed insert
    // lands — same-key misses in that window ride this entry instead of
    // starting a duplicate cloud fetch (the key was just released).
    grace_key = CoalesceKey(*pending.insert_key);
    grace_gen = ++grace_gen_;
    grace_[grace_key] = {payload, grace_gen};
    grace_armed = true;
  }
  if (tracer_) {
    tracer_->Transition(env.request_id, obs::Phase::kCacheInsert, now_());
  }
  delay_(config_.costs.edge.cache_insert,
         [this, frame = std::move(frame), tail = std::move(tail), payload,
          request_id = env.request_id,
          key = std::move(*pending.insert_key),
          waiters = std::move(pending.waiters), grace_armed, grace_key,
          grace_gen]() mutable {
           cache_.Insert(key, payload, now_());
           if (grace_armed) {
             const auto g = grace_.find(grace_key);
             if (g != grace_.end() && g->second.gen == grace_gen) {
               grace_.erase(g);
             }
           }
           if (tracer_) {
             tracer_->Transition(request_id, obs::Phase::kDownlink, now_());
           }
           send_(Peer::kClient, std::move(frame), std::move(tail));
           // Waiters share the same upstream result; the cloud produced
           // it once for all of them.
           ServeWaiters(waiters, payload, ResultSource::kCloud);
         });
}

}  // namespace coic::core
