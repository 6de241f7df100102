// CoIC wire messages.
//
// One struct per protocol message, each with Encode/Decode. The message
// set covers the three IC task families the paper identifies (object
// recognition, 3D rendering, panoramic VR streaming) in both CoIC mode
// (descriptor-first) and Origin mode (full input offload), plus the
// edge<->cloud forwarding and cache-maintenance messages from Figure 1.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "proto/descriptor.h"

namespace coic::proto {

/// Wire message discriminator (envelope `type` field).
enum class MessageType : std::uint8_t {
  kPing = 0,
  kPong = 1,
  kError = 2,
  kRecognitionRequest = 10,
  kRecognitionResult = 11,
  kRenderRequest = 12,
  kRenderResult = 13,
  kPanoramaRequest = 14,
  kPanoramaResult = 15,
  kCacheStatsRequest = 20,
  kCacheStatsReply = 21,
  /// Edge <-> edge cooperation (the "cooperative" in CoIC): an edge that
  /// misses locally may probe a peer edge's cache before paying the
  /// cloud round trip.
  kPeerLookupRequest = 30,
  kPeerLookupReply = 31,
  /// Edge federation: a compact digest of one edge's cache content,
  /// gossiped periodically so peers can direct lookups instead of
  /// broadcasting.
  kSummaryUpdate = 32,
  /// Edge federation: source-routed wrapper for edge-to-edge frames
  /// between venues that are not directly linked in the topology.
  kFederatedRelay = 33,
  /// Edge federation: incremental cache-summary update — only the
  /// content-hash keys inserted since a base version the receiver
  /// already holds, plus replacement centroid sketches. Falls back to a
  /// full kSummaryUpdate when the base is unknown, the sender's change
  /// journal overflowed, or keys were erased (Bloom bits only compose
  /// under insertion).
  kSummaryDeltaUpdate = 34,
  /// Edge federation: cumulative acknowledgement of a peer's summary
  /// stream, piggybacked on PeerLookup traffic. A sender that sees an
  /// ack older than what it last shipped knows a summary frame was lost
  /// and resends a full summary immediately instead of waiting for the
  /// periodic refresh.
  kSummaryAck = 35,
  /// Unreliable transport: one MTU-sized chunk of a larger message. The
  /// envelope request id carries the per-directed-pair reassembly
  /// sequence number; the payload carries chunk index/count and bytes.
  kDatagramChunk = 36,
  // 37 is retired (a deleted two-tier gossip digest); never reuse it.
  /// Unreliable transport: the receiver of a chunk train asks the sender
  /// to re-send the chunk indices it is missing. The envelope request id
  /// carries the train's sequence number.
  kDatagramNack = 38,
};

std::string_view MessageTypeName(MessageType t) noexcept;

/// How a request wants the task executed.
enum class OffloadMode : std::uint8_t {
  kCoic = 0,    ///< Descriptor-first: edge cache consulted (Figure 1 path).
  kOrigin = 1,  ///< Baseline: full input offloaded straight to the cloud.
};

/// Where a result was produced — clients use this to account hit/miss QoE.
enum class ResultSource : std::uint8_t {
  kEdgeCache = 0,  ///< Served from the local edge IC cache (hit).
  kCloud = 1,      ///< Computed by the cloud (miss or Origin).
  kLocal = 2,      ///< Computed on-device (Local baseline).
  kPeerEdge = 3,   ///< Served from a cooperating peer edge's cache.
};

// ---------------------------------------------------------------------------
// Recognition (AR object recognition; Figure 2a workload)
// ---------------------------------------------------------------------------

/// Client -> edge. In kCoic mode carries only the descriptor; in kOrigin
/// mode carries the full camera frame for cloud inference.
struct RecognitionRequest {
  std::uint32_t user_id = 0;
  std::uint32_t app_id = 0;
  std::uint64_t frame_id = 0;
  OffloadMode mode = OffloadMode::kCoic;
  FeatureDescriptor descriptor;  ///< Valid in kCoic mode.
  ByteVec image;                 ///< Full frame; non-empty in kOrigin mode.
  /// Remaining latency budget the client grants this request, stamped at
  /// send time. 0 = no deadline. The edge sheds already-expired work
  /// before spending a cloud fetch on it.
  std::uint32_t deadline_ms = 0;

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<RecognitionRequest> Decode(ByteReader& r);
  friend bool operator==(const RecognitionRequest&,
                         const RecognitionRequest&) = default;
};

/// Edge/cloud -> client. The annotation blob is the "high-quality 3D
/// annotation" the paper's demo app overlays on recognized objects.
struct RecognitionResult {
  std::uint64_t frame_id = 0;
  std::string label;
  float confidence = 0;
  ResultSource source = ResultSource::kCloud;
  ByteVec annotation;

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<RecognitionResult> Decode(ByteReader& r);
  friend bool operator==(const RecognitionResult&,
                         const RecognitionResult&) = default;
};

/// Borrowed-view twin of RecognitionResult: `label` and `annotation`
/// point into the decoded buffer (valid only while it lives — in
/// practice while the receive-path Frame is held). Identical wire
/// validation; the owning Decode is a thin wrapper over this one.
struct RecognitionResultView {
  std::uint64_t frame_id = 0;
  std::string_view label;
  float confidence = 0;
  ResultSource source = ResultSource::kCloud;
  std::span<const std::uint8_t> annotation;

  static Result<RecognitionResultView> Decode(ByteReader& r);
};

// ---------------------------------------------------------------------------
// 3D model rendering (Figure 2b workload)
// ---------------------------------------------------------------------------

/// Client -> edge: load (and cache) the 3D model named by content digest.
struct RenderRequest {
  std::uint32_t user_id = 0;
  std::uint32_t app_id = 0;
  std::uint64_t model_id = 0;
  OffloadMode mode = OffloadMode::kCoic;
  FeatureDescriptor descriptor;  ///< kContentHash of the model bytes.
  std::uint8_t level_of_detail = 0;
  std::uint32_t deadline_ms = 0;  ///< Latency budget; 0 = no deadline.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<RenderRequest> Decode(ByteReader& r);
  friend bool operator==(const RenderRequest&, const RenderRequest&) = default;
};

/// Edge/cloud -> client: the loaded model payload ready for draw.
struct RenderResult {
  std::uint64_t model_id = 0;
  ResultSource source = ResultSource::kCloud;
  ByteVec model_bytes;  ///< Parsed/loaded model representation.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<RenderResult> Decode(ByteReader& r);
  friend bool operator==(const RenderResult&, const RenderResult&) = default;
};

/// Borrowed-view twin of RenderResult: `model_bytes` points into the
/// decoded buffer — the multi-hundred-KB model body is never duplicated
/// on the client receive path.
struct RenderResultView {
  std::uint64_t model_id = 0;
  ResultSource source = ResultSource::kCloud;
  std::span<const std::uint8_t> model_bytes;

  static Result<RenderResultView> Decode(ByteReader& r);
};

// ---------------------------------------------------------------------------
// Panoramic VR streaming (paper §1.2, third redundancy insight)
// ---------------------------------------------------------------------------

/// Client viewport orientation; the client crops the panorama locally, so
/// the request carries it only for logging/prefetch purposes.
struct Viewport {
  float yaw_deg = 0;
  float pitch_deg = 0;
  float fov_deg = 90;
  friend bool operator==(const Viewport&, const Viewport&) = default;
};

struct PanoramaRequest {
  std::uint32_t user_id = 0;
  std::uint64_t video_id = 0;
  std::uint32_t frame_index = 0;
  OffloadMode mode = OffloadMode::kCoic;
  FeatureDescriptor descriptor;  ///< kContentHash of the panorama identity.
  Viewport viewport;
  std::uint32_t deadline_ms = 0;  ///< Latency budget; 0 = no deadline.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<PanoramaRequest> Decode(ByteReader& r);
  friend bool operator==(const PanoramaRequest&, const PanoramaRequest&) = default;
};

struct PanoramaResult {
  std::uint64_t video_id = 0;
  std::uint32_t frame_index = 0;
  ResultSource source = ResultSource::kCloud;
  std::uint16_t width = 0;   ///< Panorama pixel width.
  std::uint16_t height = 0;  ///< Panorama pixel height.
  ByteVec frame;             ///< Encoded panoramic frame.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<PanoramaResult> Decode(ByteReader& r);
  friend bool operator==(const PanoramaResult&, const PanoramaResult&) = default;
};

/// Borrowed-view twin of PanoramaResult: `frame` points into the decoded
/// buffer (multi-MB panorama rasters stay un-copied on receive).
struct PanoramaResultView {
  std::uint64_t video_id = 0;
  std::uint32_t frame_index = 0;
  ResultSource source = ResultSource::kCloud;
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::span<const std::uint8_t> frame;

  static Result<PanoramaResultView> Decode(ByteReader& r);
};

// ---------------------------------------------------------------------------
// Control / diagnostics
// ---------------------------------------------------------------------------

struct ErrorReply {
  std::uint16_t code = 0;  ///< StatusCode as integer.
  std::string message;

  void Encode(ByteWriter& w) const;
  static Result<ErrorReply> Decode(ByteReader& r);
  friend bool operator==(const ErrorReply&, const ErrorReply&) = default;
};

// ---------------------------------------------------------------------------
// Edge cooperation
// ---------------------------------------------------------------------------

/// Edge -> peer edge: "do you have a result for this descriptor?"
struct PeerLookupRequest {
  FeatureDescriptor descriptor;
  /// The result message type the payload decodes as (kRecognitionResult,
  /// kRenderResult or kPanoramaResult).
  MessageType reply_type = MessageType::kRecognitionResult;

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<PeerLookupRequest> Decode(ByteReader& r);
  friend bool operator==(const PeerLookupRequest&,
                         const PeerLookupRequest&) = default;
};

/// Peer edge -> edge: cached payload if found. A peer never forwards to
/// the cloud on the querier's behalf — cooperation is probe-only, so a
/// slow peer can only ever add one LAN round trip, never a WAN one.
struct PeerLookupReply {
  bool found = false;
  MessageType reply_type = MessageType::kRecognitionResult;
  ByteVec payload;  ///< Result message body; empty when !found.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<PeerLookupReply> Decode(ByteReader& r);
  friend bool operator==(const PeerLookupReply&, const PeerLookupReply&) = default;
};

/// Borrowed-view twin of PeerLookupReply: `payload` points into the
/// decoded buffer, so the probing edge can adopt a peer's cached result
/// as a Frame slice instead of copying it twice (decode + insert).
struct PeerLookupReplyView {
  bool found = false;
  MessageType reply_type = MessageType::kRecognitionResult;
  std::span<const std::uint8_t> payload;

  static Result<PeerLookupReplyView> Decode(ByteReader& r);
};

/// Edge -> peer edges: a compact, periodically gossiped digest of one
/// edge's cache content. Content-hash descriptors (render / panorama)
/// are summarized by a Bloom filter over their index keys; feature-vector
/// descriptors (recognition) by a per-task centroid sketch. Receivers use
/// it to send *directed* PeerLookupRequests to the most likely holder
/// instead of broadcasting to the whole cluster.
struct SummaryUpdate {
  std::uint32_t edge_id = 0;
  /// Monotonic per-edge version; receivers drop stale updates.
  std::uint64_t version = 0;
  /// Bloom filter over FeatureDescriptor::IndexKey() of hash-keyed
  /// entries: `bloom_hashes` probe positions per key into the
  /// `bloom_bits` bit array (LSB-first within each byte).
  std::uint32_t bloom_hashes = 0;
  std::uint64_t bloom_inserted = 0;  ///< Keys inserted (FP-rate estimate).
  ByteVec bloom_bits;
  /// Coarse per-task sketch of vector-keyed entries: entry count and the
  /// (unnormalized) mean descriptor vector. One slot per TaskKind, in
  /// enum order; empty slots have count 0 and an empty centroid.
  struct TaskCentroid {
    std::uint32_t count = 0;
    std::vector<float> centroid;
    friend bool operator==(const TaskCentroid&, const TaskCentroid&) = default;
  };
  std::array<TaskCentroid, 3> centroids;

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<SummaryUpdate> Decode(ByteReader& r);
  friend bool operator==(const SummaryUpdate&, const SummaryUpdate&) = default;
};

/// Edge -> peer edges: the incremental form of SummaryUpdate. Where a
/// full summary re-ships the whole Bloom bit array every time the cache
/// mutated, a delta carries only the content-hash IndexKeys inserted
/// since `base_version` (Bloom insertion is an order-independent OR, so
/// a receiver holding exactly `base_version` reproduces the sender's
/// fresh bit array byte-for-byte) plus the replacement per-task centroid
/// sketches, which are small enough to always send whole. Deltas never
/// encode erasures: removing a key cannot be expressed on shared Bloom
/// bits, so any erase since the base forces the sender back to a full
/// kSummaryUpdate. Leading fields share SummaryUpdate's fixed layout
/// (u32 edge_id, u64 version) so the stale-drop peek works on both.
struct SummaryDeltaUpdate {
  std::uint32_t edge_id = 0;
  /// Version after applying this delta (monotonic per edge).
  std::uint64_t version = 0;
  /// Version the receiver must currently hold for the delta to apply;
  /// anything else is dropped (a later full resend resynchronizes).
  std::uint64_t base_version = 0;
  /// Absolute Bloom key count after apply — lets the receiver verify the
  /// delta composes before mutating its copy.
  std::uint64_t bloom_inserted = 0;
  /// FeatureDescriptor::IndexKey() of content-hash entries inserted
  /// since the base version.
  std::vector<std::uint64_t> keys_inserted;
  /// Replacement sketches (absolute, not incremental); layout matches
  /// SummaryUpdate::centroids.
  std::array<SummaryUpdate::TaskCentroid, 3> centroids;

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<SummaryDeltaUpdate> Decode(ByteReader& r);
  friend bool operator==(const SummaryDeltaUpdate&,
                         const SummaryDeltaUpdate&) = default;
};

/// Source-routed edge-to-edge wrapper. Federation topologies need not be
/// full meshes; a frame for a non-adjacent venue is wrapped in a relay
/// and forwarded hop by hop along the precomputed shortest path. `ttl`
/// is the number of *additional* forwards allowed after the first hop —
/// an intermediate edge drops the frame when it reaches 0.
struct FederatedRelay {
  std::uint32_t src_edge = 0;
  std::uint32_t dest_edge = 0;
  std::uint8_t ttl = 0;
  ByteVec inner;  ///< A complete encoded envelope for dest_edge.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<FederatedRelay> Decode(ByteReader& r);
  friend bool operator==(const FederatedRelay&, const FederatedRelay&) = default;
};

/// Edge -> peer edge: cumulative summary acknowledgement. "I (acker)
/// currently hold subject_edge's summary at `version`." Piggybacked on
/// PeerLookup traffic when the transport is lossy; versions only ever
/// increase, so the message is idempotent and safe to duplicate or
/// reorder. version 0 means "no summary held" (a nack for everything),
/// which is what a rebooted edge reports until the first full summary
/// lands.
struct SummaryAck {
  std::uint32_t acker_edge = 0;    ///< Edge sending the ack.
  std::uint32_t subject_edge = 0;  ///< Edge whose summary is acknowledged.
  std::uint64_t version = 0;       ///< Highest applied summary version.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<SummaryAck> Decode(ByteReader& r);
  friend bool operator==(const SummaryAck&, const SummaryAck&) = default;
};

/// One fragment of a message that exceeded the datagram MTU. The
/// envelope request id field carries the sender's per-directed-pair
/// sequence number (all chunks of one message share it). The receiver
/// keeps chunk i as the i-th slice of the message, so chunks may land in
/// any order; a missing one is asked for again with a DatagramNack.
struct DatagramChunk {
  std::uint16_t chunk_index = 0;  ///< 0-based position in the message.
  std::uint16_t chunk_count = 0;  ///< Total chunks (>= 1).
  ByteVec data;                   ///< This fragment's bytes.

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<DatagramChunk> Decode(ByteReader& r);
  friend bool operator==(const DatagramChunk&, const DatagramChunk&) = default;
};

/// Borrowed-view twin of DatagramChunk: `data` points into the decoded
/// buffer so reassembly appends straight from the delivered frame.
struct DatagramChunkView {
  std::uint16_t chunk_index = 0;
  std::uint16_t chunk_count = 0;
  std::span<const std::uint8_t> data;

  static Result<DatagramChunkView> Decode(ByteReader& r);
};

/// The chunk indices of one train its receiver is still missing. The
/// envelope request id carries the train's sequence number (as on its
/// chunks). Indices are strictly ascending and non-empty, so a NACK has
/// exactly one encoding.
struct DatagramNack {
  std::vector<std::uint16_t> missing;

  [[nodiscard]] Bytes WireSize() const noexcept;
  void Encode(ByteWriter& w) const;
  static Result<DatagramNack> Decode(ByteReader& r);
  friend bool operator==(const DatagramNack&, const DatagramNack&) = default;
};

/// Borrowed-view twin of DatagramNack: the packed little-endian u16
/// indices stay in the delivered buffer.
struct DatagramNackView {
  std::span<const std::uint8_t> packed;

  [[nodiscard]] std::size_t size() const noexcept { return packed.size() / 2; }
  [[nodiscard]] std::uint16_t operator[](std::size_t i) const noexcept {
    std::uint16_t v = 0;
    std::memcpy(&v, packed.data() + 2 * i, 2);
    return v;
  }

  static Result<DatagramNackView> Decode(ByteReader& r);
};

/// Reads the OffloadMode byte of an encoded request payload
/// (Recognition/Render/PanoramaRequest) at its fixed offset without
/// decoding the rest — the edge routes Origin-mode requests (which may
/// carry a multi-hundred-KB camera image) to the cloud untouched, so a
/// full owning decode just to read one byte is pure copy waste. All
/// three request encoders lead with 16 bytes of fixed-width ids, then
/// the mode byte (pinned by a proto test). Fails with kDataLoss on a
/// wrong message type, short payload, or invalid mode byte.
Result<OffloadMode> PeekRequestOffloadMode(
    MessageType type, std::span<const std::uint8_t> payload);

/// Byte offset of the ResultSource field inside an encoded result
/// payload (Recognition/Render/PanoramaResult), found without walking
/// the (possibly multi-MB) annotation/model/frame blob. Scatter-gather
/// senders split a cached payload at this offset: everything before it
/// plus the rewritten source byte goes into a small head, the tail
/// after it is shared by reference. Fails with kDataLoss for non-result
/// types or short payloads.
Result<std::size_t> ResultSourceOffset(MessageType type,
                                       std::span<const std::uint8_t> payload);

struct CacheStatsReply {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_used = 0;
  std::uint64_t bytes_capacity = 0;

  void Encode(ByteWriter& w) const;
  static Result<CacheStatsReply> Decode(ByteReader& r);
  friend bool operator==(const CacheStatsReply&, const CacheStatsReply&) = default;
};

}  // namespace coic::proto
