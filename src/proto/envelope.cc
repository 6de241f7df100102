#include "proto/envelope.h"

#include <algorithm>

namespace coic::proto {
namespace {

bool ValidMessageType(std::uint8_t raw) noexcept {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kPing:
    case MessageType::kPong:
    case MessageType::kError:
    case MessageType::kRecognitionRequest:
    case MessageType::kRecognitionResult:
    case MessageType::kRenderRequest:
    case MessageType::kRenderResult:
    case MessageType::kPanoramaRequest:
    case MessageType::kPanoramaResult:
    case MessageType::kCacheStatsRequest:
    case MessageType::kCacheStatsReply:
    case MessageType::kPeerLookupRequest:
    case MessageType::kPeerLookupReply:
    case MessageType::kSummaryUpdate:
    case MessageType::kFederatedRelay:
    case MessageType::kSummaryDeltaUpdate:
    case MessageType::kSummaryAck:
    case MessageType::kDatagramChunk:
    case MessageType::kDatagramNack:
      return true;
  }
  return false;
}

}  // namespace

void AppendEnvelopeHeader(ByteWriter& w, MessageType type,
                          std::uint64_t request_id,
                          std::uint32_t payload_len) {
  w.WriteU32(kEnvelopeMagic);
  w.WriteU16(kProtocolVersion);
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteU8(0);  // flags
  w.WriteU64(request_id);
  w.WriteU32(payload_len);
}

ByteVec EncodeEnvelope(MessageType type, std::uint64_t request_id,
                       std::span<const std::uint8_t> payload) {
  COIC_CHECK_MSG(payload.size() <= kMaxPayloadBytes, "payload too large");
  ByteWriter w(kEnvelopeHeaderSize + payload.size());
  AppendEnvelopeHeader(w, type, request_id,
                       static_cast<std::uint32_t>(payload.size()));
  w.WriteRaw(payload);
  return w.TakeBytes();
}

Result<EnvelopeView> DecodeEnvelopeView(std::span<const std::uint8_t> head,
                                        std::span<const std::uint8_t> tail) {
  ByteReader r(head, tail);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint8_t type_raw = 0;
  std::uint8_t flags = 0;
  EnvelopeView env;
  COIC_RETURN_IF_ERROR(r.ReadU32(magic));
  if (magic != kEnvelopeMagic) {
    return Status(StatusCode::kDataLoss, "bad envelope magic");
  }
  COIC_RETURN_IF_ERROR(r.ReadU16(version));
  if (version != kProtocolVersion) {
    return Status(StatusCode::kDataLoss, "unsupported protocol version");
  }
  COIC_RETURN_IF_ERROR(r.ReadU8(type_raw));
  if (!ValidMessageType(type_raw)) {
    return Status(StatusCode::kDataLoss, "unknown message type");
  }
  env.type = static_cast<MessageType>(type_raw);
  COIC_RETURN_IF_ERROR(r.ReadU8(flags));
  if (flags != 0) {
    return Status(StatusCode::kDataLoss, "nonzero reserved flags");
  }
  COIC_RETURN_IF_ERROR(r.ReadU64(env.request_id));
  std::uint32_t payload_len = 0;
  COIC_RETURN_IF_ERROR(r.ReadU32(payload_len));
  if (payload_len > kMaxPayloadBytes) {
    return Status(StatusCode::kDataLoss, "payload length exceeds limit");
  }
  if (r.remaining() < payload_len) {
    return Status(StatusCode::kDataLoss, "payload truncated");
  }
  if (r.remaining() != payload_len) {
    return Status(StatusCode::kDataLoss, "trailing bytes after envelope");
  }
  // The payload is everything after the header: the rest of the head,
  // then the tail (a header that spills into the tail starts it later).
  const std::size_t in_head = std::min(head.size(), kEnvelopeHeaderSize);
  env.payload = head.subspan(in_head);
  env.payload_tail = tail.subspan(kEnvelopeHeaderSize - in_head);
  return env;
}

Result<Envelope> DecodeEnvelope(std::span<const std::uint8_t> data) {
  // Thin owning wrapper: same validation, then the defensive payload
  // copy the view form exists to avoid.
  auto view = DecodeEnvelopeView(data);
  if (!view.ok()) return view.status();
  Envelope env;
  env.type = view.value().type;
  env.request_id = view.value().request_id;
  env.payload.assign(view.value().payload.begin(), view.value().payload.end());
  return env;
}

Result<RelayFrameView> PeekRelayFrame(std::span<const std::uint8_t> frame) {
  // Fixed relay payload overhead: src(4) + dest(4) + ttl(1) + inner len(4).
  constexpr std::size_t kRelayOverhead = 13;
  ByteReader r(frame);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint8_t type_raw = 0;
  std::uint8_t flags = 0;
  COIC_RETURN_IF_ERROR(r.ReadU32(magic));
  COIC_RETURN_IF_ERROR(r.ReadU16(version));
  COIC_RETURN_IF_ERROR(r.ReadU8(type_raw));
  COIC_RETURN_IF_ERROR(r.ReadU8(flags));
  if (magic != kEnvelopeMagic || version != kProtocolVersion || flags != 0 ||
      static_cast<MessageType>(type_raw) != MessageType::kFederatedRelay) {
    return Status(StatusCode::kDataLoss, "not a relay envelope");
  }
  COIC_RETURN_IF_ERROR(r.Skip(8));  // request id
  std::uint32_t payload_len = 0;
  COIC_RETURN_IF_ERROR(r.ReadU32(payload_len));
  if (payload_len > kMaxPayloadBytes ||
      frame.size() != kEnvelopeHeaderSize + payload_len ||
      payload_len < kRelayOverhead) {
    return Status(StatusCode::kDataLoss, "bad relay payload length");
  }
  RelayFrameView view;
  std::uint32_t inner_len = 0;
  COIC_RETURN_IF_ERROR(r.ReadU32(view.src_edge));
  COIC_RETURN_IF_ERROR(r.ReadU32(view.dest_edge));
  COIC_RETURN_IF_ERROR(r.ReadU8(view.ttl));
  COIC_RETURN_IF_ERROR(r.ReadU32(inner_len));
  if (inner_len != payload_len - kRelayOverhead) {
    return Status(StatusCode::kDataLoss, "bad relay inner length");
  }
  if (view.src_edge == view.dest_edge) {
    return Status(StatusCode::kDataLoss, "relay to self");
  }
  view.inner_offset = r.position();
  view.inner_size = inner_len;
  return view;
}

void DecrementRelayTtl(Frame& frame) {
  constexpr std::size_t kTtlOffset = kEnvelopeHeaderSize + 8;
  COIC_CHECK(frame.size() > kTtlOffset && frame.span()[kTtlOffset] > 0);
  --frame.MutableSpan()[kTtlOffset];
}

Frame UnwrapRelay(const Frame& frame, const RelayFrameView& view) {
  COIC_CHECK(view.inner_offset + view.inner_size == frame.size());
  return frame.Slice(view.inner_offset, view.inner_size);
}

ByteVec EncodeRelayFrame(std::uint32_t src_edge, std::uint32_t dest_edge,
                         std::uint8_t ttl,
                         std::span<const std::uint8_t> inner) {
  // Layout fixed by FederatedRelay::Encode: src(4) dest(4) ttl(1)
  // inner-len(4) inner(N). The envelope request id mirrors the inner
  // frame's so reply routing works on the wrapper alone.
  constexpr std::size_t kRelayOverhead = 13;
  COIC_CHECK(inner.size() >= kEnvelopeHeaderSize);
  COIC_CHECK_MSG(kRelayOverhead + inner.size() <= kMaxPayloadBytes,
                 "relay payload too large");
  ByteWriter w(kEnvelopeHeaderSize + kRelayOverhead + inner.size());
  AppendEnvelopeHeader(w, MessageType::kFederatedRelay, PeekRequestId(inner),
                       static_cast<std::uint32_t>(kRelayOverhead + inner.size()));
  w.WriteU32(src_edge);
  w.WriteU32(dest_edge);
  w.WriteU8(ttl);
  w.WriteBlob(inner);
  return w.TakeBytes();
}

Result<SummaryFrameHeader> PeekSummaryFrame(
    std::span<const std::uint8_t> frame) {
  // SummaryUpdate::Encode and SummaryDeltaUpdate::Encode both lead with
  // u32 edge_id, u64 version.
  const auto type = frame.size() > 6 ? static_cast<MessageType>(frame[6])
                                     : MessageType::kPing;
  if (frame.size() < kEnvelopeHeaderSize + 12 ||
      (type != MessageType::kSummaryUpdate &&
       type != MessageType::kSummaryDeltaUpdate)) {
    return Status(StatusCode::kDataLoss, "not a summary envelope");
  }
  SummaryFrameHeader header;
  std::memcpy(&header.edge_id, frame.data() + kEnvelopeHeaderSize, 4);
  std::memcpy(&header.version, frame.data() + kEnvelopeHeaderSize + 4, 8);
  return header;
}

Result<SummaryDeltaFrameHeader> PeekSummaryDeltaFrame(
    std::span<const std::uint8_t> frame) {
  // SummaryDeltaUpdate::Encode leads with u32 edge_id, u64 version,
  // u64 base_version.
  if (frame.size() < kEnvelopeHeaderSize + 20 ||
      static_cast<MessageType>(frame[6]) != MessageType::kSummaryDeltaUpdate) {
    return Status(StatusCode::kDataLoss, "not a summary-delta envelope");
  }
  SummaryDeltaFrameHeader header;
  std::memcpy(&header.edge_id, frame.data() + kEnvelopeHeaderSize, 4);
  std::memcpy(&header.version, frame.data() + kEnvelopeHeaderSize + 4, 8);
  std::memcpy(&header.base_version, frame.data() + kEnvelopeHeaderSize + 12, 8);
  return header;
}

Result<std::size_t> PeekFrameSize(std::span<const std::uint8_t> data) {
  if (data.size() < kEnvelopeHeaderSize) return static_cast<std::size_t>(0);
  ByteReader r(data);
  std::uint32_t magic = 0;
  (void)r.ReadU32(magic);
  if (magic != kEnvelopeMagic) {
    return Status(StatusCode::kDataLoss, "bad envelope magic");
  }
  std::uint16_t version = 0;
  (void)r.ReadU16(version);
  if (version != kProtocolVersion) {
    return Status(StatusCode::kDataLoss, "unsupported protocol version");
  }
  std::uint8_t type_raw = 0;
  (void)r.ReadU8(type_raw);
  if (!ValidMessageType(type_raw)) {
    return Status(StatusCode::kDataLoss, "unknown message type");
  }
  (void)r.Skip(1 + 8);  // flags + request id
  std::uint32_t payload_len = 0;
  (void)r.ReadU32(payload_len);
  if (payload_len > kMaxPayloadBytes) {
    return Status(StatusCode::kDataLoss, "payload length exceeds limit");
  }
  return kEnvelopeHeaderSize + static_cast<std::size_t>(payload_len);
}

}  // namespace coic::proto
