#include "proto/messages.h"

namespace coic::proto {
namespace {

Status DecodeOffloadMode(ByteReader& r, OffloadMode& out) {
  std::uint8_t raw = 0;
  COIC_RETURN_IF_ERROR(r.ReadU8(raw));
  if (raw > static_cast<std::uint8_t>(OffloadMode::kOrigin)) {
    return Status(StatusCode::kDataLoss, "bad OffloadMode");
  }
  out = static_cast<OffloadMode>(raw);
  return Status::Ok();
}

Status DecodeResultSource(ByteReader& r, ResultSource& out) {
  std::uint8_t raw = 0;
  COIC_RETURN_IF_ERROR(r.ReadU8(raw));
  if (raw > static_cast<std::uint8_t>(ResultSource::kPeerEdge)) {
    return Status(StatusCode::kDataLoss, "bad ResultSource");
  }
  out = static_cast<ResultSource>(raw);
  return Status::Ok();
}

Status DecodeResultMessageType(ByteReader& r, MessageType& out) {
  std::uint8_t raw = 0;
  COIC_RETURN_IF_ERROR(r.ReadU8(raw));
  const auto type = static_cast<MessageType>(raw);
  if (type != MessageType::kRecognitionResult &&
      type != MessageType::kRenderResult &&
      type != MessageType::kPanoramaResult) {
    return Status(StatusCode::kDataLoss, "peer reply_type is not a result type");
  }
  out = type;
  return Status::Ok();
}

}  // namespace

Result<OffloadMode> PeekRequestOffloadMode(
    MessageType type, std::span<const std::uint8_t> payload) {
  // RecognitionRequest: u32 user, u32 app, u64 frame_id, mode.
  // RenderRequest:      u32 user, u32 app, u64 model_id, mode.
  // PanoramaRequest:    u32 user, u64 video_id, u32 frame_index, mode.
  constexpr std::size_t kModeOffset = 16;
  if (type != MessageType::kRecognitionRequest &&
      type != MessageType::kRenderRequest &&
      type != MessageType::kPanoramaRequest) {
    return Status(StatusCode::kDataLoss, "not a request payload");
  }
  if (payload.size() <= kModeOffset) {
    return Status(StatusCode::kDataLoss, "request payload truncated");
  }
  const std::uint8_t raw = payload[kModeOffset];
  if (raw > static_cast<std::uint8_t>(OffloadMode::kOrigin)) {
    return Status(StatusCode::kDataLoss, "bad OffloadMode");
  }
  return static_cast<OffloadMode>(raw);
}

std::string_view MessageTypeName(MessageType t) noexcept {
  switch (t) {
    case MessageType::kPing: return "Ping";
    case MessageType::kPong: return "Pong";
    case MessageType::kError: return "Error";
    case MessageType::kRecognitionRequest: return "RecognitionRequest";
    case MessageType::kRecognitionResult: return "RecognitionResult";
    case MessageType::kRenderRequest: return "RenderRequest";
    case MessageType::kRenderResult: return "RenderResult";
    case MessageType::kPanoramaRequest: return "PanoramaRequest";
    case MessageType::kPanoramaResult: return "PanoramaResult";
    case MessageType::kCacheStatsRequest: return "CacheStatsRequest";
    case MessageType::kCacheStatsReply: return "CacheStatsReply";
    case MessageType::kPeerLookupRequest: return "PeerLookupRequest";
    case MessageType::kPeerLookupReply: return "PeerLookupReply";
    case MessageType::kSummaryUpdate: return "SummaryUpdate";
    case MessageType::kFederatedRelay: return "FederatedRelay";
    case MessageType::kSummaryDeltaUpdate: return "SummaryDeltaUpdate";
    case MessageType::kSummaryAck: return "SummaryAck";
    case MessageType::kDatagramChunk: return "DatagramChunk";
    case MessageType::kRegionDigestUpdate: return "RegionDigestUpdate";
    case MessageType::kDatagramNack: return "DatagramNack";
  }
  return "Unknown";
}

// --------------------------- RecognitionRequest ----------------------------

Bytes RecognitionRequest::WireSize() const noexcept {
  return 4 + 4 + 8 + 1 + descriptor.WireSize() + 4 + image.size() + 4;
}

void RecognitionRequest::Encode(ByteWriter& w) const {
  w.WriteU32(user_id);
  w.WriteU32(app_id);
  w.WriteU64(frame_id);
  w.WriteU8(static_cast<std::uint8_t>(mode));
  descriptor.Encode(w);
  w.WriteBlob(image);
  w.WriteU32(deadline_ms);
}

Result<RecognitionRequest> RecognitionRequest::Decode(ByteReader& r) {
  RecognitionRequest m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.user_id));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.app_id));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.frame_id));
  COIC_RETURN_IF_ERROR(DecodeOffloadMode(r, m.mode));
  auto desc = FeatureDescriptor::Decode(r);
  if (!desc.ok()) return desc.status();
  m.descriptor = std::move(desc).value();
  COIC_RETURN_IF_ERROR(r.ReadBlob(m.image));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.deadline_ms));
  if (m.mode == OffloadMode::kOrigin && m.image.empty()) {
    return Status(StatusCode::kDataLoss, "Origin recognition without image");
  }
  return m;
}

// --------------------------- RecognitionResult -----------------------------

Bytes RecognitionResult::WireSize() const noexcept {
  return 8 + 4 + label.size() + 4 + 1 + 4 + annotation.size();
}

void RecognitionResult::Encode(ByteWriter& w) const {
  w.WriteU64(frame_id);
  w.WriteString(label);
  w.WriteF32(confidence);
  w.WriteU8(static_cast<std::uint8_t>(source));
  w.WriteBlob(annotation);
}

Result<RecognitionResultView> RecognitionResultView::Decode(ByteReader& r) {
  RecognitionResultView m;
  COIC_RETURN_IF_ERROR(r.ReadU64(m.frame_id));
  COIC_RETURN_IF_ERROR(r.ReadStringView(m.label));
  COIC_RETURN_IF_ERROR(r.ReadF32(m.confidence));
  COIC_RETURN_IF_ERROR(DecodeResultSource(r, m.source));
  COIC_RETURN_IF_ERROR(r.ReadBlobView(m.annotation));
  return m;
}

Result<RecognitionResult> RecognitionResult::Decode(ByteReader& r) {
  // Thin owning wrapper over the view decoder: identical validation,
  // then the borrowed fields are copied out.
  auto view = RecognitionResultView::Decode(r);
  if (!view.ok()) return view.status();
  RecognitionResult m;
  m.frame_id = view.value().frame_id;
  m.label.assign(view.value().label);
  m.confidence = view.value().confidence;
  m.source = view.value().source;
  m.annotation.assign(view.value().annotation.begin(),
                      view.value().annotation.end());
  return m;
}

// ------------------------------ RenderRequest ------------------------------

Bytes RenderRequest::WireSize() const noexcept {
  return 4 + 4 + 8 + 1 + descriptor.WireSize() + 1 + 4;
}

void RenderRequest::Encode(ByteWriter& w) const {
  w.WriteU32(user_id);
  w.WriteU32(app_id);
  w.WriteU64(model_id);
  w.WriteU8(static_cast<std::uint8_t>(mode));
  descriptor.Encode(w);
  w.WriteU8(level_of_detail);
  w.WriteU32(deadline_ms);
}

Result<RenderRequest> RenderRequest::Decode(ByteReader& r) {
  RenderRequest m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.user_id));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.app_id));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.model_id));
  COIC_RETURN_IF_ERROR(DecodeOffloadMode(r, m.mode));
  auto desc = FeatureDescriptor::Decode(r);
  if (!desc.ok()) return desc.status();
  m.descriptor = std::move(desc).value();
  COIC_RETURN_IF_ERROR(r.ReadU8(m.level_of_detail));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.deadline_ms));
  return m;
}

// ------------------------------- RenderResult ------------------------------

Bytes RenderResult::WireSize() const noexcept {
  return 8 + 1 + 4 + model_bytes.size();
}

void RenderResult::Encode(ByteWriter& w) const {
  w.WriteU64(model_id);
  w.WriteU8(static_cast<std::uint8_t>(source));
  w.WriteBlob(model_bytes);
}

Result<RenderResultView> RenderResultView::Decode(ByteReader& r) {
  RenderResultView m;
  COIC_RETURN_IF_ERROR(r.ReadU64(m.model_id));
  COIC_RETURN_IF_ERROR(DecodeResultSource(r, m.source));
  COIC_RETURN_IF_ERROR(r.ReadBlobView(m.model_bytes));
  return m;
}

Result<RenderResult> RenderResult::Decode(ByteReader& r) {
  auto view = RenderResultView::Decode(r);
  if (!view.ok()) return view.status();
  RenderResult m;
  m.model_id = view.value().model_id;
  m.source = view.value().source;
  m.model_bytes.assign(view.value().model_bytes.begin(),
                       view.value().model_bytes.end());
  return m;
}

// ----------------------------- PanoramaRequest -----------------------------

Bytes PanoramaRequest::WireSize() const noexcept {
  return 4 + 8 + 4 + 1 + descriptor.WireSize() + 12 + 4;
}

void PanoramaRequest::Encode(ByteWriter& w) const {
  w.WriteU32(user_id);
  w.WriteU64(video_id);
  w.WriteU32(frame_index);
  w.WriteU8(static_cast<std::uint8_t>(mode));
  descriptor.Encode(w);
  w.WriteF32(viewport.yaw_deg);
  w.WriteF32(viewport.pitch_deg);
  w.WriteF32(viewport.fov_deg);
  w.WriteU32(deadline_ms);
}

Result<PanoramaRequest> PanoramaRequest::Decode(ByteReader& r) {
  PanoramaRequest m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.user_id));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.video_id));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.frame_index));
  COIC_RETURN_IF_ERROR(DecodeOffloadMode(r, m.mode));
  auto desc = FeatureDescriptor::Decode(r);
  if (!desc.ok()) return desc.status();
  m.descriptor = std::move(desc).value();
  COIC_RETURN_IF_ERROR(r.ReadF32(m.viewport.yaw_deg));
  COIC_RETURN_IF_ERROR(r.ReadF32(m.viewport.pitch_deg));
  COIC_RETURN_IF_ERROR(r.ReadF32(m.viewport.fov_deg));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.deadline_ms));
  return m;
}

// ------------------------------ PanoramaResult -----------------------------

Bytes PanoramaResult::WireSize() const noexcept {
  return 8 + 4 + 1 + 2 + 2 + 4 + frame.size();
}

void PanoramaResult::Encode(ByteWriter& w) const {
  w.WriteU64(video_id);
  w.WriteU32(frame_index);
  w.WriteU8(static_cast<std::uint8_t>(source));
  w.WriteU16(width);
  w.WriteU16(height);
  w.WriteBlob(frame);
}

Result<PanoramaResultView> PanoramaResultView::Decode(ByteReader& r) {
  PanoramaResultView m;
  COIC_RETURN_IF_ERROR(r.ReadU64(m.video_id));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.frame_index));
  COIC_RETURN_IF_ERROR(DecodeResultSource(r, m.source));
  COIC_RETURN_IF_ERROR(r.ReadU16(m.width));
  COIC_RETURN_IF_ERROR(r.ReadU16(m.height));
  COIC_RETURN_IF_ERROR(r.ReadBlobView(m.frame));
  return m;
}

Result<PanoramaResult> PanoramaResult::Decode(ByteReader& r) {
  auto view = PanoramaResultView::Decode(r);
  if (!view.ok()) return view.status();
  PanoramaResult m;
  m.video_id = view.value().video_id;
  m.frame_index = view.value().frame_index;
  m.source = view.value().source;
  m.width = view.value().width;
  m.height = view.value().height;
  m.frame.assign(view.value().frame.begin(), view.value().frame.end());
  return m;
}

// -------------------------------- ErrorReply -------------------------------

void ErrorReply::Encode(ByteWriter& w) const {
  w.WriteU16(code);
  w.WriteString(message);
}

Result<ErrorReply> ErrorReply::Decode(ByteReader& r) {
  ErrorReply m;
  COIC_RETURN_IF_ERROR(r.ReadU16(m.code));
  COIC_RETURN_IF_ERROR(r.ReadString(m.message));
  return m;
}

// ----------------------------- PeerLookupRequest ---------------------------

Bytes PeerLookupRequest::WireSize() const noexcept {
  return descriptor.WireSize() + 1;
}

void PeerLookupRequest::Encode(ByteWriter& w) const {
  descriptor.Encode(w);
  w.WriteU8(static_cast<std::uint8_t>(reply_type));
}

Result<PeerLookupRequest> PeerLookupRequest::Decode(ByteReader& r) {
  PeerLookupRequest m;
  auto desc = FeatureDescriptor::Decode(r);
  if (!desc.ok()) return desc.status();
  m.descriptor = std::move(desc).value();
  COIC_RETURN_IF_ERROR(DecodeResultMessageType(r, m.reply_type));
  return m;
}

// ------------------------------ PeerLookupReply ----------------------------

Bytes PeerLookupReply::WireSize() const noexcept {
  return 1 + 1 + 4 + payload.size();
}

void PeerLookupReply::Encode(ByteWriter& w) const {
  w.WriteU8(found ? 1 : 0);
  w.WriteU8(static_cast<std::uint8_t>(reply_type));
  w.WriteBlob(payload);
}

Result<PeerLookupReplyView> PeerLookupReplyView::Decode(ByteReader& r) {
  PeerLookupReplyView m;
  std::uint8_t found_raw = 0;
  COIC_RETURN_IF_ERROR(r.ReadU8(found_raw));
  if (found_raw > 1) {
    return Status(StatusCode::kDataLoss, "bad found flag");
  }
  m.found = found_raw == 1;
  COIC_RETURN_IF_ERROR(DecodeResultMessageType(r, m.reply_type));
  COIC_RETURN_IF_ERROR(r.ReadBlobView(m.payload));
  if (m.found == m.payload.empty()) {
    return Status(StatusCode::kDataLoss, "found flag disagrees with payload");
  }
  return m;
}

Result<PeerLookupReply> PeerLookupReply::Decode(ByteReader& r) {
  auto view = PeerLookupReplyView::Decode(r);
  if (!view.ok()) return view.status();
  PeerLookupReply m;
  m.found = view.value().found;
  m.reply_type = view.value().reply_type;
  m.payload.assign(view.value().payload.begin(), view.value().payload.end());
  return m;
}

// ------------------------------ SummaryUpdate ------------------------------

Bytes SummaryUpdate::WireSize() const noexcept {
  Bytes size = 4 + 8 + 4 + 8 + 4 + bloom_bits.size();
  for (const auto& c : centroids) {
    size += 4 + 4 + c.centroid.size() * 4;
  }
  return size;
}

void SummaryUpdate::Encode(ByteWriter& w) const {
  w.WriteU32(edge_id);
  w.WriteU64(version);
  w.WriteU32(bloom_hashes);
  w.WriteU64(bloom_inserted);
  w.WriteBlob(bloom_bits);
  for (const auto& c : centroids) {
    w.WriteU32(c.count);
    w.WriteF32Vector(c.centroid);
  }
}

Result<SummaryUpdate> SummaryUpdate::Decode(ByteReader& r) {
  SummaryUpdate m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.edge_id));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.version));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.bloom_hashes));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.bloom_inserted));
  COIC_RETURN_IF_ERROR(r.ReadBlob(m.bloom_bits));
  for (auto& c : m.centroids) {
    COIC_RETURN_IF_ERROR(r.ReadU32(c.count));
    COIC_RETURN_IF_ERROR(r.ReadF32Vector(c.centroid));
    if (c.count == 0 && !c.centroid.empty()) {
      return Status(StatusCode::kDataLoss, "centroid without entries");
    }
  }
  return m;
}

// ---------------------------- SummaryDeltaUpdate ---------------------------

Bytes SummaryDeltaUpdate::WireSize() const noexcept {
  Bytes size = 4 + 8 + 8 + 8 + 4 + keys_inserted.size() * 8;
  for (const auto& c : centroids) {
    size += 4 + 4 + c.centroid.size() * 4;
  }
  return size;
}

void SummaryDeltaUpdate::Encode(ByteWriter& w) const {
  w.WriteU32(edge_id);
  w.WriteU64(version);
  w.WriteU64(base_version);
  w.WriteU64(bloom_inserted);
  w.WriteU64Vector(keys_inserted);
  for (const auto& c : centroids) {
    w.WriteU32(c.count);
    w.WriteF32Vector(c.centroid);
  }
}

Result<SummaryDeltaUpdate> SummaryDeltaUpdate::Decode(ByteReader& r) {
  SummaryDeltaUpdate m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.edge_id));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.version));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.base_version));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.bloom_inserted));
  COIC_RETURN_IF_ERROR(r.ReadU64Vector(m.keys_inserted));
  if (m.version <= m.base_version) {
    return Status(StatusCode::kDataLoss, "delta version not after its base");
  }
  if (m.bloom_inserted < m.keys_inserted.size()) {
    return Status(StatusCode::kDataLoss,
                  "delta key count exceeds absolute bloom count");
  }
  for (auto& c : m.centroids) {
    COIC_RETURN_IF_ERROR(r.ReadU32(c.count));
    COIC_RETURN_IF_ERROR(r.ReadF32Vector(c.centroid));
    if (c.count == 0 && !c.centroid.empty()) {
      return Status(StatusCode::kDataLoss, "centroid without entries");
    }
  }
  return m;
}

// ---------------------------- RegionDigestUpdate ---------------------------

Bytes RegionDigestUpdate::WireSize() const noexcept {
  Bytes size = 4 + 4 + 8 + 4 + 8 + 4 + bloom_bits.size();
  for (const auto& c : centroids) {
    size += 4 + 4 + c.centroid.size() * 4;
  }
  size += 4 + member_edges.size() * (4 + 8);
  return size;
}

void RegionDigestUpdate::Encode(ByteWriter& w) const {
  w.WriteU32(region_id);
  w.WriteU32(head_edge);
  w.WriteU64(version);
  w.WriteU32(bloom_hashes);
  w.WriteU64(bloom_inserted);
  w.WriteBlob(bloom_bits);
  for (const auto& c : centroids) {
    w.WriteU32(c.count);
    w.WriteF32Vector(c.centroid);
  }
  w.WriteU32(static_cast<std::uint32_t>(member_edges.size()));
  for (std::size_t i = 0; i < member_edges.size(); ++i) {
    w.WriteU32(member_edges[i]);
    w.WriteU64(member_keys[i]);
  }
}

Result<RegionDigestUpdate> RegionDigestUpdate::Decode(ByteReader& r) {
  RegionDigestUpdate m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.region_id));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.head_edge));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.version));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.bloom_hashes));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.bloom_inserted));
  COIC_RETURN_IF_ERROR(r.ReadBlob(m.bloom_bits));
  for (auto& c : m.centroids) {
    COIC_RETURN_IF_ERROR(r.ReadU32(c.count));
    COIC_RETURN_IF_ERROR(r.ReadF32Vector(c.centroid));
    if (c.count == 0 && !c.centroid.empty()) {
      return Status(StatusCode::kDataLoss, "centroid without entries");
    }
  }
  std::uint32_t members = 0;
  COIC_RETURN_IF_ERROR(r.ReadU32(members));
  // 12 bytes per member; bound by remaining input before reserving.
  if (members > r.remaining() / 12) {
    return Status(StatusCode::kDataLoss, "digest member list truncated");
  }
  m.member_edges.reserve(members);
  m.member_keys.reserve(members);
  std::uint64_t hinted_keys = 0;
  for (std::uint32_t i = 0; i < members; ++i) {
    std::uint32_t edge = 0;
    std::uint64_t keys = 0;
    COIC_RETURN_IF_ERROR(r.ReadU32(edge));
    COIC_RETURN_IF_ERROR(r.ReadU64(keys));
    m.member_edges.push_back(edge);
    m.member_keys.push_back(keys);
    hinted_keys += keys;
  }
  if (hinted_keys > m.bloom_inserted) {
    return Status(StatusCode::kDataLoss,
                  "member hint keys exceed digest bloom count");
  }
  return m;
}

// ------------------------------ FederatedRelay -----------------------------

Bytes FederatedRelay::WireSize() const noexcept {
  return 4 + 4 + 1 + 4 + inner.size();
}

void FederatedRelay::Encode(ByteWriter& w) const {
  w.WriteU32(src_edge);
  w.WriteU32(dest_edge);
  w.WriteU8(ttl);
  w.WriteBlob(inner);
}

Result<FederatedRelay> FederatedRelay::Decode(ByteReader& r) {
  FederatedRelay m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.src_edge));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.dest_edge));
  COIC_RETURN_IF_ERROR(r.ReadU8(m.ttl));
  COIC_RETURN_IF_ERROR(r.ReadBlob(m.inner));
  if (m.src_edge == m.dest_edge) {
    return Status(StatusCode::kDataLoss, "relay to self");
  }
  return m;
}

// -------------------------------- SummaryAck -------------------------------

Bytes SummaryAck::WireSize() const noexcept { return 4 + 4 + 8; }

void SummaryAck::Encode(ByteWriter& w) const {
  w.WriteU32(acker_edge);
  w.WriteU32(subject_edge);
  w.WriteU64(version);
}

Result<SummaryAck> SummaryAck::Decode(ByteReader& r) {
  SummaryAck m;
  COIC_RETURN_IF_ERROR(r.ReadU32(m.acker_edge));
  COIC_RETURN_IF_ERROR(r.ReadU32(m.subject_edge));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.version));
  if (m.acker_edge == m.subject_edge) {
    return Status(StatusCode::kDataLoss, "ack of own summary");
  }
  return m;
}

// ------------------------------ DatagramChunk ------------------------------

Bytes DatagramChunk::WireSize() const noexcept {
  return 2 + 2 + 4 + data.size();
}

void DatagramChunk::Encode(ByteWriter& w) const {
  w.WriteU16(chunk_index);
  w.WriteU16(chunk_count);
  w.WriteBlob(data);
}

Result<DatagramChunkView> DatagramChunkView::Decode(ByteReader& r) {
  DatagramChunkView m;
  COIC_RETURN_IF_ERROR(r.ReadU16(m.chunk_index));
  COIC_RETURN_IF_ERROR(r.ReadU16(m.chunk_count));
  COIC_RETURN_IF_ERROR(r.ReadBlobView(m.data));
  if (m.chunk_count == 0) {
    return Status(StatusCode::kDataLoss, "chunk count must be >= 1");
  }
  if (m.chunk_index >= m.chunk_count) {
    return Status(StatusCode::kDataLoss, "chunk index out of range");
  }
  if (m.data.empty()) {
    return Status(StatusCode::kDataLoss, "empty chunk");
  }
  return m;
}

Result<DatagramChunk> DatagramChunk::Decode(ByteReader& r) {
  auto view = DatagramChunkView::Decode(r);
  if (!view.ok()) return view.status();
  DatagramChunk m;
  m.chunk_index = view.value().chunk_index;
  m.chunk_count = view.value().chunk_count;
  m.data.assign(view.value().data.begin(), view.value().data.end());
  return m;
}

// ------------------------------ DatagramNack -------------------------------

Bytes DatagramNack::WireSize() const noexcept { return 2 + 2 * missing.size(); }

void DatagramNack::Encode(ByteWriter& w) const {
  w.WriteU16(static_cast<std::uint16_t>(missing.size()));
  for (const std::uint16_t index : missing) w.WriteU16(index);
}

Result<DatagramNackView> DatagramNackView::Decode(ByteReader& r) {
  DatagramNackView m;
  std::uint16_t count = 0;
  COIC_RETURN_IF_ERROR(r.ReadU16(count));
  if (count == 0) return Status(StatusCode::kDataLoss, "empty nack");
  COIC_RETURN_IF_ERROR(r.ReadView(m.packed, 2 * static_cast<std::size_t>(count)));
  for (std::size_t i = 1; i < m.size(); ++i) {
    if (m[i] <= m[i - 1]) {
      return Status(StatusCode::kDataLoss, "nack indices not ascending");
    }
  }
  return m;
}

Result<DatagramNack> DatagramNack::Decode(ByteReader& r) {
  auto view = DatagramNackView::Decode(r);
  if (!view.ok()) return view.status();
  DatagramNack m;
  m.missing.reserve(view.value().size());
  for (std::size_t i = 0; i < view.value().size(); ++i) {
    m.missing.push_back(view.value()[i]);
  }
  return m;
}

// ---------------------------- ResultSourceOffset ---------------------------

Result<std::size_t> ResultSourceOffset(MessageType type,
                                       std::span<const std::uint8_t> payload) {
  // Offsets follow the Encode() field order of each result type; the
  // source byte always precedes the bulk blob, so computing the offset
  // never walks the large tail.
  std::size_t offset = 0;
  switch (type) {
    case MessageType::kRecognitionResult: {
      // frame_id(8) + label(4 + len) + confidence(4), then source.
      if (payload.size() < 12) {
        return Status(StatusCode::kDataLoss, "result payload too short");
      }
      std::uint32_t label_len = 0;
      std::memcpy(&label_len, payload.data() + 8, 4);
      offset = static_cast<std::size_t>(8) + 4 + label_len + 4;
      break;
    }
    case MessageType::kRenderResult:
      offset = 8;  // model_id(8), then source.
      break;
    case MessageType::kPanoramaResult:
      offset = 12;  // video_id(8) + frame_index(4), then source.
      break;
    default:
      return Status(StatusCode::kDataLoss, "not a result message type");
  }
  if (offset >= payload.size()) {
    return Status(StatusCode::kDataLoss, "result payload too short");
  }
  return offset;
}

// ----------------------------- CacheStatsReply -----------------------------

void CacheStatsReply::Encode(ByteWriter& w) const {
  w.WriteU64(hits);
  w.WriteU64(misses);
  w.WriteU64(insertions);
  w.WriteU64(evictions);
  w.WriteU64(bytes_used);
  w.WriteU64(bytes_capacity);
}

Result<CacheStatsReply> CacheStatsReply::Decode(ByteReader& r) {
  CacheStatsReply m;
  COIC_RETURN_IF_ERROR(r.ReadU64(m.hits));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.misses));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.insertions));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.evictions));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.bytes_used));
  COIC_RETURN_IF_ERROR(r.ReadU64(m.bytes_capacity));
  return m;
}

}  // namespace coic::proto
