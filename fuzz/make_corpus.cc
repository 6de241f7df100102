// Seed-corpus generator for coic_fuzz_decode: writes one well-formed
// sample frame per MessageType (plus a couple of structural corner
// cases) into the directory given as argv[1]. Coverage-guided mutation
// starts from valid frames, so the fuzzer reaches the deep per-field
// validation branches immediately instead of spending its budget
// rediscovering the magic number.
#include <cstdio>
#include <span>
#include <string>

#include "proto/envelope.h"
#include "proto/messages.h"

namespace {

using namespace coic;        // NOLINT(google-build-using-namespace)
using namespace coic::proto; // NOLINT(google-build-using-namespace)

bool WriteFile(const std::string& dir, const std::string& name,
               const ByteVec& bytes) {
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  if (!bytes.empty()) {
    std::fwrite(bytes.data(), 1, bytes.size(), f);
  }
  std::fclose(f);
  return true;
}

FeatureDescriptor SampleVectorKey() {
  return FeatureDescriptor::ForVector(TaskKind::kRecognition,
                                      {0.5f, -0.5f, 0.5f, 0.5f});
}

FeatureDescriptor SampleHashKey() {
  return FeatureDescriptor::ForHash(TaskKind::kRender, Digest128{7, 9});
}

/// `msg` encoded as a split sample: the harness splits a result frame at
/// its request id (modulo the frame size), so the id is set to a point
/// three bytes past the source field — inside the scalar field after it,
/// a legal split that straddles the seam.
template <typename Message>
ByteVec SplitSample(MessageType type, const Message& msg) {
  const ByteVec plain = EncodeMessage(type, 0, msg);
  const auto offset = ResultSourceOffset(
      type, std::span<const std::uint8_t>(plain).subspan(kEnvelopeHeaderSize));
  if (!offset.ok()) return plain;
  return EncodeMessage(type, kEnvelopeHeaderSize + offset.value() + 1 + 3,
                       msg);
}

/// `msg` encoded with its request id at the payload start, so the
/// harness's fuzz-chosen split is the cloud's own: header | payload.
template <typename Message>
ByteVec CloudSplitSample(MessageType type, const Message& msg) {
  return EncodeMessage(type, kEnvelopeHeaderSize, msg);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  bool ok = true;

  ok &= WriteFile(dir, "ping", EncodeEnvelope(MessageType::kPing, 1, {}));
  ok &= WriteFile(dir, "pong", EncodeEnvelope(MessageType::kPong, 2, {}));

  ErrorReply error;
  error.code = 7;
  error.message = "sample";
  ok &= WriteFile(dir, "error", EncodeMessage(MessageType::kError, 3, error));

  RecognitionRequest recognition_request;
  recognition_request.user_id = 1;
  recognition_request.frame_id = 4;
  recognition_request.descriptor = SampleVectorKey();
  ok &= WriteFile(dir, "recognition_request",
                  EncodeMessage(MessageType::kRecognitionRequest, 4,
                                recognition_request));

  RecognitionResult recognition_result;
  recognition_result.frame_id = 4;
  recognition_result.label = "object_4";
  recognition_result.confidence = 0.75f;
  recognition_result.annotation = DeterministicBytes(48, 4);
  ok &= WriteFile(dir, "recognition_result",
                  EncodeMessage(MessageType::kRecognitionResult, 5,
                                recognition_result));
  ok &= WriteFile(
      dir, "recognition_result_split",
      SplitSample(MessageType::kRecognitionResult, recognition_result));
  ok &= WriteFile(
      dir, "recognition_result_cloud_split",
      CloudSplitSample(MessageType::kRecognitionResult, recognition_result));

  RenderRequest render_request;
  render_request.model_id = 6;
  render_request.descriptor = SampleHashKey();
  ok &= WriteFile(dir, "render_request",
                  EncodeMessage(MessageType::kRenderRequest, 6, render_request));

  RenderResult render_result;
  render_result.model_id = 6;
  render_result.model_bytes = DeterministicBytes(96, 6);
  ok &= WriteFile(dir, "render_result",
                  EncodeMessage(MessageType::kRenderResult, 7, render_result));
  ok &= WriteFile(dir, "render_result_split",
                  SplitSample(MessageType::kRenderResult, render_result));
  ok &= WriteFile(dir, "render_result_cloud_split",
                  CloudSplitSample(MessageType::kRenderResult, render_result));

  PanoramaRequest panorama_request;
  panorama_request.video_id = 8;
  panorama_request.frame_index = 2;
  panorama_request.descriptor = SampleHashKey();
  ok &= WriteFile(dir, "panorama_request",
                  EncodeMessage(MessageType::kPanoramaRequest, 8,
                                panorama_request));

  PanoramaResult panorama_result;
  panorama_result.video_id = 8;
  panorama_result.frame_index = 2;
  panorama_result.width = 64;
  panorama_result.height = 32;
  panorama_result.frame = DeterministicBytes(128, 8);
  ok &= WriteFile(dir, "panorama_result",
                  EncodeMessage(MessageType::kPanoramaResult, 9,
                                panorama_result));
  ok &= WriteFile(dir, "panorama_result_split",
                  SplitSample(MessageType::kPanoramaResult, panorama_result));
  ok &= WriteFile(
      dir, "panorama_result_cloud_split",
      CloudSplitSample(MessageType::kPanoramaResult, panorama_result));

  ok &= WriteFile(dir, "cache_stats_request",
                  EncodeEnvelope(MessageType::kCacheStatsRequest, 10, {}));

  CacheStatsReply stats;
  stats.hits = 3;
  stats.misses = 1;
  ok &= WriteFile(dir, "cache_stats_reply",
                  EncodeMessage(MessageType::kCacheStatsReply, 11, stats));

  PeerLookupRequest lookup_request;
  lookup_request.descriptor = SampleHashKey();
  lookup_request.reply_type = MessageType::kRenderResult;
  ok &= WriteFile(dir, "peer_lookup_request",
                  EncodeMessage(MessageType::kPeerLookupRequest, 12,
                                lookup_request));

  PeerLookupReply lookup_reply;
  lookup_reply.found = true;
  lookup_reply.reply_type = MessageType::kRenderResult;
  lookup_reply.payload = DeterministicBytes(40, 12);
  ok &= WriteFile(dir, "peer_lookup_reply",
                  EncodeMessage(MessageType::kPeerLookupReply, 13,
                                lookup_reply));

  SummaryUpdate summary;
  summary.edge_id = 1;
  summary.version = 3;
  summary.bloom_hashes = 4;
  summary.bloom_inserted = 5;
  summary.bloom_bits = DeterministicBytes(32, 14);
  summary.centroids[0].count = 2;
  summary.centroids[0].centroid = {0.25f, 0.5f};
  ok &= WriteFile(dir, "summary_update",
                  EncodeMessage(MessageType::kSummaryUpdate, 14, summary));

  SummaryDeltaUpdate delta;
  delta.edge_id = 1;
  delta.version = 4;
  delta.base_version = 3;
  delta.bloom_inserted = 7;
  delta.keys_inserted = {11, 22};
  delta.centroids[0].count = 2;
  delta.centroids[0].centroid = {0.25f, 0.5f};
  ok &= WriteFile(dir, "summary_delta_update",
                  EncodeMessage(MessageType::kSummaryDeltaUpdate, 15, delta));

  SummaryAck ack;
  ack.acker_edge = 2;
  ack.subject_edge = 1;
  ack.version = 3;
  ok &= WriteFile(dir, "summary_ack",
                  EncodeMessage(MessageType::kSummaryAck, 18, ack));

  DatagramChunk chunk;
  chunk.chunk_index = 1;
  chunk.chunk_count = 3;
  chunk.data = DeterministicBytes(64, 18);
  ok &= WriteFile(dir, "datagram_chunk",
                  EncodeMessage(MessageType::kDatagramChunk, 19, chunk));

  DatagramNack nack;
  nack.missing = {0, 2, 7};
  ok &= WriteFile(dir, "datagram_nack",
                  EncodeMessage(MessageType::kDatagramNack, 19, nack));

  FederatedRelay relay;
  relay.src_edge = 0;
  relay.dest_edge = 2;
  relay.ttl = 1;
  relay.inner = EncodeEnvelope(MessageType::kPing, 16, {});
  ok &= WriteFile(dir, "federated_relay",
                  EncodeMessage(MessageType::kFederatedRelay, 16, relay));

  // Structural corners: empty input and a bare header.
  ok &= WriteFile(dir, "empty", {});
  ByteWriter header;
  AppendEnvelopeHeader(header, MessageType::kPing, 17, 0);
  ok &= WriteFile(dir, "bare_header", header.TakeBytes());

  return ok ? 0 : 1;
}
