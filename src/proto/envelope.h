// Envelope framing.
//
// Every CoIC message travels inside a fixed-header envelope:
//
//   offset  size  field
//   0       4     magic "CoIC" (0x43 0x6F 0x49 0x43, read as LE u32)
//   4       2     protocol version (currently 1)
//   6       1     MessageType
//   7       1     flags (reserved, must be 0)
//   8       8     request id (client-chosen; echoed in the reply)
//   16      4     payload length N
//   20      N     payload (message-specific encoding)
//
// The same framing is used verbatim by the in-process simulator and the
// real TCP transport, so a simulated exchange and a socket exchange are
// byte-identical.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/frame.h"
#include "proto/messages.h"

namespace coic::proto {

inline constexpr std::uint32_t kEnvelopeMagic = 0x43496F43;  // "CoIC" LE
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kEnvelopeHeaderSize = 20;
/// Upper bound on payload size accepted by decoders: a hostile length
/// field must not drive allocation. 64 MiB comfortably covers 8K
/// panoramas and the largest evaluated model (15053 KB).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// A decoded envelope; payload is an owned copy so the caller may retire
/// the input buffer.
struct Envelope {
  MessageType type = MessageType::kPing;
  std::uint64_t request_id = 0;
  ByteVec payload;

  friend bool operator==(const Envelope&, const Envelope&) = default;
};

/// Borrowed-view envelope: `payload` points into the input buffer, so it
/// is valid only while that buffer (typically a refcounted Frame) lives.
/// This is the allocation-free decode the frame hot paths use; Envelope
/// remains for callers that need the payload to outlive the frame.
///
/// A frame that arrives as a scatter-gather pair (head, tail) is viewed
/// without fusing it: `payload` is the part of the payload in the head
/// and `payload_tail` the tail, and DecodePayloadAs reads the two as one
/// stream. A contiguous frame has an empty `payload_tail`.
struct EnvelopeView {
  MessageType type = MessageType::kPing;
  std::uint64_t request_id = 0;
  std::span<const std::uint8_t> payload;
  std::span<const std::uint8_t> payload_tail;
};

/// Serializes header + payload into one buffer.
ByteVec EncodeEnvelope(MessageType type, std::uint64_t request_id,
                       std::span<const std::uint8_t> payload);

/// Appends the 20-byte envelope header to `w`. Callers that do not know
/// the payload length yet write 0 and PatchU32 offset 16 afterwards.
void AppendEnvelopeHeader(ByteWriter& w, MessageType type,
                          std::uint64_t request_id, std::uint32_t payload_len);

/// Convenience: encodes `msg` (any type with Encode(ByteWriter&)) and
/// wraps it in an envelope. Header and payload are written into one
/// buffer (no intermediate payload vector + copy), reserved up front
/// when the message can report its WireSize().
template <typename Message>
ByteVec EncodeMessage(MessageType type, std::uint64_t request_id,
                      const Message& msg) {
  ByteWriter w = [&] {
    if constexpr (requires { msg.WireSize(); }) {
      return ByteWriter(kEnvelopeHeaderSize + msg.WireSize());
    } else {
      return ByteWriter();
    }
  }();
  AppendEnvelopeHeader(w, type, request_id, 0);
  msg.Encode(w);
  COIC_CHECK_MSG(w.size() - kEnvelopeHeaderSize <= kMaxPayloadBytes,
                 "payload too large");
  w.PatchU32(16, static_cast<std::uint32_t>(w.size() - kEnvelopeHeaderSize));
  return w.TakeBytes();
}

/// EncodeMessage writing into caller-provided storage: `storage`'s heap
/// capacity is reused (cleared first), so an arena-recycled buffer makes
/// the encode allocation-free once warm. Returns the same bytes
/// EncodeMessage would.
template <typename Message>
ByteVec EncodeMessageInto(ByteVec&& storage, MessageType type,
                          std::uint64_t request_id, const Message& msg) {
  ByteWriter w(std::move(storage));
  AppendEnvelopeHeader(w, type, request_id, 0);
  msg.Encode(w);
  COIC_CHECK_MSG(w.size() - kEnvelopeHeaderSize <= kMaxPayloadBytes,
                 "payload too large");
  w.PatchU32(16, static_cast<std::uint32_t>(w.size() - kEnvelopeHeaderSize));
  return w.TakeBytes();
}

/// Parses a full envelope from `head` followed by `tail` (empty for a
/// contiguous frame) without copying or fusing the payload (see
/// EnvelopeView for the lifetime rule). Fails with kDataLoss on bad
/// magic, unsupported version, truncated header/payload or oversized
/// length — exactly where DecodeEnvelope does on the fused bytes.
Result<EnvelopeView> DecodeEnvelopeView(std::span<const std::uint8_t> head,
                                        std::span<const std::uint8_t> tail = {});

/// Owning form of DecodeEnvelopeView: identical validation, then the
/// payload is copied out so the caller may retire the input buffer.
Result<Envelope> DecodeEnvelope(std::span<const std::uint8_t> data);

/// Request id from an encoded envelope header (bytes 8..16 LE), without
/// validating the rest. Precondition: frame holds at least a header.
inline std::uint64_t PeekRequestId(
    std::span<const std::uint8_t> frame) noexcept {
  COIC_CHECK(frame.size() >= kEnvelopeHeaderSize);
  std::uint64_t id = 0;
  std::memcpy(&id, frame.data() + 8, 8);
  return id;
}

/// Message type from an encoded envelope header (byte 6) — enough to
/// dispatch control frames without a full decode. Precondition: frame
/// holds at least a header.
inline MessageType PeekMessageType(
    std::span<const std::uint8_t> frame) noexcept {
  COIC_CHECK(frame.size() >= kEnvelopeHeaderSize);
  return static_cast<MessageType>(frame[6]);
}

/// Incremental framing helper for stream transports: given the bytes
/// accumulated so far, returns the total frame size (header + payload) if
/// the header is complete, 0 if more header bytes are needed, or an error
/// if the header is invalid.
Result<std::size_t> PeekFrameSize(std::span<const std::uint8_t> data);

// ---------------------------------------------------------------------------
// FederatedRelay fast path
// ---------------------------------------------------------------------------
//
// Relay forwarding is the federation hot path: an intermediate venue only
// needs to read dest/ttl and decrement ttl, so a full decode→re-encode
// (which copies the inner envelope twice) is pure waste. These helpers
// operate on the encoded frame in place. The wire layout after the
// 20-byte envelope header is fixed by FederatedRelay::Encode:
//
//   offset  size  field
//   20      4     src_edge
//   24      4     dest_edge
//   28      1     ttl
//   29      4     inner length N
//   33      N     inner (a complete encoded envelope)

/// Borrowed view of an encoded kFederatedRelay frame.
struct RelayFrameView {
  std::uint32_t src_edge = 0;
  std::uint32_t dest_edge = 0;
  std::uint8_t ttl = 0;
  /// Offset of the inner envelope within the frame (= 33).
  std::size_t inner_offset = 0;
  std::size_t inner_size = 0;
};

/// Validates the envelope header and relay payload structure without
/// copying; fails with kDataLoss exactly where DecodeEnvelope +
/// FederatedRelay::Decode would.
Result<RelayFrameView> PeekRelayFrame(std::span<const std::uint8_t> frame);

/// Decrements the ttl byte of an encoded relay frame. While the frame's
/// buffer is uniquely held — the normal case at an intermediate relay
/// hop, where the link just delivered the only reference — the patch
/// lands in place with zero copies; a shared buffer copies-on-write
/// first (counted in frame_stats()), so other holders never observe the
/// mutation. The result is byte-identical to decode → --ttl → re-encode
/// (covered by a proto test). Precondition: PeekRelayFrame succeeded,
/// ttl > 0.
void DecrementRelayTtl(Frame& frame);

/// The inner envelope of a relay frame as a slice sharing the wrapper's
/// buffer (zero copy, replaces the old memmove-based unwrap).
/// Precondition: `view` was peeked from `frame`.
[[nodiscard]] Frame UnwrapRelay(const Frame& frame, const RelayFrameView& view);

/// Encodes a complete kFederatedRelay frame around an already-encoded
/// inner envelope in one buffer (the envelope request id mirrors the
/// inner frame's, as SendEdgeToEdge requires). One inherent copy of the
/// inner bytes; byte-identical to EncodeMessage over a FederatedRelay
/// struct without the struct detour.
[[nodiscard]] ByteVec EncodeRelayFrame(std::uint32_t src_edge,
                                       std::uint32_t dest_edge,
                                       std::uint8_t ttl,
                                       std::span<const std::uint8_t> inner);

/// Leading fields of an encoded kSummaryUpdate or kSummaryDeltaUpdate
/// frame, read at their fixed offsets without decoding the bloom bits /
/// key list and centroids. Lets a receiver drop a stale or duplicate
/// summary before paying the full decode. Fails with kDataLoss if the
/// frame is not a summary(-delta) envelope or is too short. (A layout
/// test pins these offsets to the Encode field order both types share.)
struct SummaryFrameHeader {
  std::uint32_t edge_id = 0;
  std::uint64_t version = 0;
};
Result<SummaryFrameHeader> PeekSummaryFrame(
    std::span<const std::uint8_t> frame);

/// Delta-specific peek: additionally reads `base_version` so a receiver
/// whose table is not at exactly that version can drop the frame before
/// decoding the key list. kSummaryDeltaUpdate frames only.
struct SummaryDeltaFrameHeader {
  std::uint32_t edge_id = 0;
  std::uint64_t version = 0;
  std::uint64_t base_version = 0;
};
Result<SummaryDeltaFrameHeader> PeekSummaryDeltaFrame(
    std::span<const std::uint8_t> frame);

/// Decodes the payload of `env` as message type M, checking that the
/// envelope type tag matches `expected`. Works for owning Envelope and
/// borrowed EnvelopeView alike (M may itself be a *View type whose
/// fields borrow from the underlying buffer); a view's payload_tail is
/// read after its payload in the same pass.
template <typename M, typename AnyEnvelope>
Result<M> DecodePayloadAs(const AnyEnvelope& env, MessageType expected) {
  if (env.type != expected) {
    return Status(StatusCode::kDataLoss, "unexpected message type");
  }
  ByteReader r = [&env] {
    if constexpr (requires { env.payload_tail; }) {
      return ByteReader(env.payload, env.payload_tail);
    } else {
      return ByteReader(env.payload);
    }
  }();
  auto result = M::Decode(r);
  if (!result.ok()) return result.status();
  if (!r.AtEnd()) {
    return Status(StatusCode::kDataLoss, "trailing bytes after payload");
  }
  return result;
}

}  // namespace coic::proto
