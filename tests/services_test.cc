// Direct unit tests of EdgeService / CloudService against fake
// transports — no simulator, immediate delays — covering the protocol
// corners the pipeline tests do not reach (ping, stats, error replies,
// malformed forwards, pending-state bookkeeping).
#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "core/client.h"
#include "core/services.h"
#include "vision/image.h"

namespace coic::core {
namespace {

using proto::Envelope;
using proto::MessageType;
using proto::OffloadMode;

/// Captures frames per destination and hands them out FIFO.
struct FakeWire {
  std::deque<Frame> to_client;
  std::deque<Frame> to_cloud;
  std::deque<Frame> to_peer;

  SendFn MakeSendFn() {
    return [this](Peer to, Frame frame) {
      switch (to) {
        case Peer::kClient: to_client.push_back(std::move(frame)); break;
        case Peer::kCloud: to_cloud.push_back(std::move(frame)); break;
        case Peer::kPeerEdge: to_peer.push_back(std::move(frame)); break;
      }
    };
  }

  static Envelope Decode(std::deque<Frame>& queue) {
    EXPECT_FALSE(queue.empty());
    auto env = proto::DecodeEnvelope(queue.front().span());
    EXPECT_TRUE(env.ok()) << env.status().ToString();
    queue.pop_front();
    return std::move(env).value();
  }
};

DelayFn ImmediateDelay() {
  return [](Duration, std::function<void()> fn) { fn(); };
}

NowFn FixedNow() {
  return [] { return SimTime::Epoch(); };
}

EdgeService MakeEdge(FakeWire& wire, bool cooperative = false) {
  EdgeService::Config config;
  config.cooperative = cooperative;
  return EdgeService(config, wire.MakeSendFn(), ImmediateDelay(), FixedNow());
}

CloudService MakeCloud(FakeWire& wire) {
  CloudService::Config config;
  config.recognition_classes = 5;
  return CloudService(config, wire.MakeSendFn(), ImmediateDelay());
}

proto::RecognitionRequest CoicRecognitionRequest(std::uint64_t scene) {
  const vision::FeatureExtractor extractor;
  proto::RecognitionRequest req;
  req.frame_id = 1;
  req.mode = OffloadMode::kCoic;
  req.descriptor = proto::FeatureDescriptor::ForVector(
      proto::TaskKind::kRecognition,
      extractor.Extract(vision::SyntheticImage::Generate({.scene_id = scene})));
  return req;
}

// ---------------------------------------------------------------------------
// EdgeService protocol corners
// ---------------------------------------------------------------------------

TEST(EdgeServiceTest, PingPong) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  edge.OnClientFrame(proto::EncodeEnvelope(MessageType::kPing, 9, {}));
  const auto reply = FakeWire::Decode(wire.to_client);
  EXPECT_EQ(reply.type, MessageType::kPong);
  EXPECT_EQ(reply.request_id, 9u);
}

TEST(EdgeServiceTest, CacheStatsReflectState) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  edge.mutable_cache().Insert(
      proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                        Digest128{1, 2}),
      DeterministicBytes(100, 1), SimTime::Epoch());
  edge.OnClientFrame(
      proto::EncodeEnvelope(MessageType::kCacheStatsRequest, 5, {}));
  const auto env = FakeWire::Decode(wire.to_client);
  ASSERT_EQ(env.type, MessageType::kCacheStatsReply);
  auto stats = proto::DecodePayloadAs<proto::CacheStatsReply>(
      env, MessageType::kCacheStatsReply);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().insertions, 1u);
  EXPECT_GT(stats.value().bytes_used, 100u);
}

TEST(EdgeServiceTest, CoicMissForwardsDescriptorOnly) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  const auto req = CoicRecognitionRequest(3);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  EXPECT_TRUE(wire.to_client.empty());  // no premature reply
  const auto forwarded = FakeWire::Decode(wire.to_cloud);
  EXPECT_EQ(forwarded.type, MessageType::kRecognitionRequest);
  EXPECT_EQ(forwarded.request_id, 7u);
  EXPECT_EQ(edge.forwards(), 1u);
  // Forwarded payload is the original (descriptor, no image).
  auto decoded = proto::DecodePayloadAs<proto::RecognitionRequest>(
      forwarded, MessageType::kRecognitionRequest);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().image.empty());
}

TEST(EdgeServiceTest, CloudReplyInsertedAndRelayed) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 7,
                                          CoicRecognitionRequest(3)));
  (void)FakeWire::Decode(wire.to_cloud);

  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(256, 1);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));

  const auto relayed = FakeWire::Decode(wire.to_client);
  EXPECT_EQ(relayed.type, MessageType::kRecognitionResult);
  EXPECT_EQ(edge.cache().stats().insertions, 1u);

  // The same descriptor now hits locally.
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 8,
                                          CoicRecognitionRequest(3)));
  const auto hit = FakeWire::Decode(wire.to_client);
  auto hit_result = proto::DecodePayloadAs<proto::RecognitionResult>(
      hit, MessageType::kRecognitionResult);
  ASSERT_TRUE(hit_result.ok());
  EXPECT_EQ(hit_result.value().source, proto::ResultSource::kEdgeCache);
  EXPECT_EQ(hit_result.value().label, "object_3");
}

TEST(EdgeServiceTest, UnknownCloudReplyDropped) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  proto::RecognitionResult result;
  result.frame_id = 99;
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 99, result));
  EXPECT_TRUE(wire.to_client.empty());
  EXPECT_EQ(edge.cache().stats().insertions, 0u);
}

TEST(EdgeServiceTest, ErrorReplyNotCached) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 7,
                                          CoicRecognitionRequest(3)));
  (void)FakeWire::Decode(wire.to_cloud);
  proto::ErrorReply err;
  err.message = "boom";
  edge.OnCloudFrame(proto::EncodeMessage(MessageType::kError, 7, err));
  const auto relayed = FakeWire::Decode(wire.to_client);
  EXPECT_EQ(relayed.type, MessageType::kError);
  EXPECT_EQ(edge.cache().stats().insertions, 0u);
}

TEST(EdgeServiceTest, PeerLookupAnsweredFromCache) {
  FakeWire wire;
  auto edge = MakeEdge(wire, /*cooperative=*/true);
  const auto key = proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                                     Digest128{3, 4});
  proto::RenderResult cached;
  cached.model_id = 1;
  cached.model_bytes = DeterministicBytes(64, 2);
  ByteWriter w;
  cached.Encode(w);
  edge.mutable_cache().Insert(key, w.TakeBytes(), SimTime::Epoch());

  proto::PeerLookupRequest query;
  query.descriptor = key;
  query.reply_type = MessageType::kRenderResult;
  edge.OnPeerFrame(
      proto::EncodeMessage(MessageType::kPeerLookupRequest, 11, query));
  const auto reply_env = FakeWire::Decode(wire.to_peer);
  auto reply = proto::DecodePayloadAs<proto::PeerLookupReply>(
      reply_env, MessageType::kPeerLookupReply);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().found);
  EXPECT_EQ(edge.peer_queries_served(), 1u);
}

TEST(EdgeServiceTest, PeerLookupMissSaysNo) {
  FakeWire wire;
  auto edge = MakeEdge(wire, /*cooperative=*/true);
  proto::PeerLookupRequest query;
  query.descriptor = proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                                       Digest128{9, 9});
  query.reply_type = MessageType::kRenderResult;
  edge.OnPeerFrame(
      proto::EncodeMessage(MessageType::kPeerLookupRequest, 12, query));
  auto reply = proto::DecodePayloadAs<proto::PeerLookupReply>(
      FakeWire::Decode(wire.to_peer), MessageType::kPeerLookupReply);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().found);
  EXPECT_TRUE(reply.value().payload.empty());
}

TEST(EdgeServiceTest, GarbagePeerFrameIgnored) {
  FakeWire wire;
  auto edge = MakeEdge(wire, /*cooperative=*/true);
  edge.OnPeerFrame(DeterministicBytes(40, 1));
  EXPECT_TRUE(wire.to_peer.empty());
  EXPECT_TRUE(wire.to_client.empty());
}

// ---------------------------------------------------------------------------
// CloudService protocol corners
// ---------------------------------------------------------------------------

TEST(CloudServiceTest, PingPong) {
  FakeWire wire;
  auto cloud = MakeCloud(wire);
  cloud.OnFrame(proto::EncodeEnvelope(MessageType::kPing, 1, {}));
  EXPECT_EQ(FakeWire::Decode(wire.to_client).type, MessageType::kPong);
}

TEST(CloudServiceTest, UnhandledTypeGetsError) {
  FakeWire wire;
  auto cloud = MakeCloud(wire);
  cloud.OnFrame(proto::EncodeEnvelope(MessageType::kCacheStatsRequest, 2, {}));
  const auto env = FakeWire::Decode(wire.to_client);
  ASSERT_EQ(env.type, MessageType::kError);
  auto err = proto::DecodePayloadAs<proto::ErrorReply>(env, MessageType::kError);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().code,
            static_cast<std::uint16_t>(StatusCode::kUnimplemented));
}

TEST(CloudServiceTest, CoicRecognitionNeedsVectorDescriptor) {
  FakeWire wire;
  auto cloud = MakeCloud(wire);
  proto::RecognitionRequest req;
  req.mode = OffloadMode::kCoic;
  req.descriptor = proto::FeatureDescriptor::ForHash(
      proto::TaskKind::kRecognition, Digest128{1, 1});
  cloud.OnFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 3, req));
  EXPECT_EQ(FakeWire::Decode(wire.to_client).type, MessageType::kError);
}

TEST(CloudServiceTest, OriginRecognitionClassifiesUploadedFrame) {
  FakeWire wire;
  auto cloud = MakeCloud(wire);
  const auto image = vision::SyntheticImage::Generate({.scene_id = 2});
  proto::RecognitionRequest req;
  req.frame_id = 4;
  req.mode = OffloadMode::kOrigin;
  req.descriptor = proto::FeatureDescriptor::ForHash(
      proto::TaskKind::kRecognition, image.ContentHash());
  req.image = image.SerializeForWire(20'000);
  cloud.OnFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 4, req));
  auto result = proto::DecodePayloadAs<proto::RecognitionResult>(
      FakeWire::Decode(wire.to_client), MessageType::kRecognitionResult);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().label, "object_2");
  EXPECT_EQ(result.value().frame_id, 4u);
  EXPECT_EQ(cloud.tasks_executed(), 1u);
}

TEST(CloudServiceTest, RenderUnknownDigestIsNotFound) {
  FakeWire wire;
  auto cloud = MakeCloud(wire);
  proto::RenderRequest req;
  req.descriptor = proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                                     Digest128{5, 5});
  cloud.OnFrame(proto::EncodeMessage(MessageType::kRenderRequest, 6, req));
  auto err = proto::DecodePayloadAs<proto::ErrorReply>(
      FakeWire::Decode(wire.to_client), MessageType::kError);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err.value().code, static_cast<std::uint16_t>(StatusCode::kNotFound));
}

TEST(CloudServiceTest, PanoramaResultPaddedAndDecodable) {
  FakeWire wire;
  auto cloud = MakeCloud(wire);
  proto::PanoramaRequest req;
  req.video_id = 3;
  req.frame_index = 1;
  req.descriptor = proto::FeatureDescriptor::ForHash(proto::TaskKind::kPanorama,
                                                     Digest128{6, 6});
  cloud.OnFrame(proto::EncodeMessage(MessageType::kPanoramaRequest, 8, req));
  auto result = proto::DecodePayloadAs<proto::PanoramaResult>(
      FakeWire::Decode(wire.to_client), MessageType::kPanoramaResult);
  ASSERT_TRUE(result.ok());
  const CostModel costs;
  EXPECT_EQ(result.value().frame.size(), costs.panorama.frame_bytes);
  EXPECT_EQ(result.value().video_id, 3u);
}

// ---------------------------------------------------------------------------
// Zero-copy frame fabric: the shared-buffer paths must be byte-identical
// to the copy paths they replaced, and must actually share buffers.
// ---------------------------------------------------------------------------

TEST(FrameFabricTest, CloudRelayForwardsTheOriginalFrameBytes) {
  // Old path: decode cloud reply → re-encode envelope for the client.
  // New path: relay the delivered frame itself. Must be byte-identical,
  // and the client's frame must share the cloud frame's buffer.
  FakeWire wire;
  auto edge = MakeEdge(wire);
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 7,
                                          CoicRecognitionRequest(3)));
  wire.to_cloud.clear();

  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(256, 1);
  const Frame cloud_frame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  edge.OnCloudFrame(cloud_frame);

  ASSERT_EQ(wire.to_client.size(), 1u);
  const Frame& relayed = wire.to_client.front();
  EXPECT_TRUE(relayed.SharesBufferWith(cloud_frame));
  EXPECT_EQ(relayed.CloneBytes(), cloud_frame.CloneBytes());
  // What the old path would have produced, byte for byte.
  const auto env = proto::DecodeEnvelope(cloud_frame.span());
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(relayed.CloneBytes(),
            proto::EncodeEnvelope(env.value().type, env.value().request_id,
                                  env.value().payload));
}

TEST(FrameFabricTest, CacheAdoptsASliceOfTheDeliveredCloudFrame) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  const auto req = CoicRecognitionRequest(3);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));

  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(128, 2);
  const Frame cloud_frame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  const std::uint64_t copies_before = frame_stats().copies();
  edge.OnCloudFrame(cloud_frame);

  const auto outcome =
      edge.mutable_cache().Lookup(req.descriptor, SimTime::Epoch());
  ASSERT_TRUE(outcome.hit);
  // Zero-copy adoption: the cached payload is a slice of the delivered
  // frame, not a duplicate, and the whole insert+relay path made no
  // counted payload copies.
  EXPECT_TRUE(outcome.payload.SharesBufferWith(cloud_frame));
  EXPECT_EQ(frame_stats().copies(), copies_before);
  EXPECT_EQ(outcome.payload.CloneBytes(),
            ByteVec(cloud_frame.span().begin() + proto::kEnvelopeHeaderSize,
                    cloud_frame.span().end()));
}

TEST(FrameFabricTest, OriginForwardSharesTheClientFrame) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  proto::RecognitionRequest req;
  req.frame_id = 1;
  req.mode = OffloadMode::kOrigin;
  req.image = DeterministicBytes(4096, 9);
  req.descriptor = proto::FeatureDescriptor::ForHash(
      proto::TaskKind::kRecognition, Digest128{1, 2});
  const Frame client_frame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 5, req));
  edge.OnClientFrame(client_frame);
  ASSERT_EQ(wire.to_cloud.size(), 1u);
  // The multi-KB Origin image rides the original buffer to the cloud.
  EXPECT_TRUE(wire.to_cloud.front().SharesBufferWith(client_frame));
  EXPECT_EQ(wire.to_cloud.front().CloneBytes(), client_frame.CloneBytes());
}

TEST(FrameFabricTest, PeerLookupReplyByteIdenticalToStructEncode) {
  // HandlePeerLookupRequest writes the reply envelope in one buffer;
  // pin its layout to PeerLookupReply::Encode.
  FakeWire wire;
  auto edge = MakeEdge(wire, /*cooperative=*/true);
  const auto key = proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                                     Digest128{3, 4});
  proto::RenderResult cached;
  cached.model_id = 1;
  cached.model_bytes = DeterministicBytes(64, 2);
  ByteWriter w;
  cached.Encode(w);
  const ByteVec cached_payload = w.TakeBytes();
  edge.mutable_cache().Insert(key, ByteVec(cached_payload), SimTime::Epoch());

  proto::PeerLookupRequest query;
  query.descriptor = key;
  query.reply_type = MessageType::kRenderResult;
  edge.OnPeerFrame(
      proto::EncodeMessage(MessageType::kPeerLookupRequest, 11, query));

  proto::PeerLookupReply expected;
  expected.found = true;
  expected.reply_type = MessageType::kRenderResult;
  expected.payload = cached_payload;
  ASSERT_EQ(wire.to_peer.size(), 1u);
  EXPECT_EQ(wire.to_peer.front().CloneBytes(),
            proto::EncodeMessage(MessageType::kPeerLookupReply, 11, expected));
}

TEST(FrameFabricTest, CloudRecognitionReplyByteIdenticalToStructEncode) {
  // HandleRecognition writes header + result fields + shared annotation
  // into one buffer; pin that layout to RecognitionResult::Encode.
  FakeWire wire;
  auto cloud = MakeCloud(wire);
  const auto req = CoicRecognitionRequest(2);
  cloud.OnFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 21, req));
  ASSERT_EQ(wire.to_client.size(), 1u);
  const ByteVec raw = wire.to_client.front().CloneBytes();

  auto env = proto::DecodeEnvelope(raw);
  ASSERT_TRUE(env.ok());
  auto decoded = proto::DecodePayloadAs<proto::RecognitionResult>(
      env.value(), MessageType::kRecognitionResult);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(raw, proto::EncodeMessage(MessageType::kRecognitionResult, 21,
                                      decoded.value()));
}

// ---------------------------------------------------------------------------
// Same-key request coalescing
// ---------------------------------------------------------------------------

TEST(CoalescingTest, ConcurrentSameKeyMissesShareOneCloudFetch) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  const auto req = CoicRecognitionRequest(3);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 9, req));

  // One upstream fetch; the two later misses parked on the wait-list.
  EXPECT_EQ(edge.forwards(), 1u);
  EXPECT_EQ(wire.to_cloud.size(), 1u);
  EXPECT_EQ(edge.coalesced_requests(), 2u);
  EXPECT_EQ(edge.pending_inflight(), 3u);

  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(64, 3);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));

  // Leader + both waiters answered; one insert; nothing left parked.
  ASSERT_EQ(wire.to_client.size(), 3u);
  EXPECT_EQ(edge.cache().stats().insertions, 1u);
  EXPECT_EQ(edge.pending_inflight(), 0u);
  std::set<std::uint64_t> ids;
  while (!wire.to_client.empty()) {
    const auto env = FakeWire::Decode(wire.to_client);
    EXPECT_EQ(env.type, MessageType::kRecognitionResult);
    auto reply = proto::DecodePayloadAs<proto::RecognitionResult>(
        env, MessageType::kRecognitionResult);
    ASSERT_TRUE(reply.ok());
    // Waiters share the leader's upstream result and source.
    EXPECT_EQ(reply.value().source, proto::ResultSource::kCloud);
    EXPECT_EQ(reply.value().label, "object_3");
    ids.insert(env.request_id);
  }
  EXPECT_EQ(ids, (std::set<std::uint64_t>{7, 8, 9}));
}

TEST(CoalescingTest, WaitersFailWhenTheLeaderGetsAnError) {
  FakeWire wire;
  auto edge = MakeEdge(wire);
  const auto req = CoicRecognitionRequest(4);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  EXPECT_EQ(edge.coalesced_requests(), 1u);

  proto::ErrorReply err;
  err.message = "boom";
  edge.OnCloudFrame(proto::EncodeMessage(MessageType::kError, 7, err));

  ASSERT_EQ(wire.to_client.size(), 2u);
  std::set<std::uint64_t> ids;
  while (!wire.to_client.empty()) {
    const auto env = FakeWire::Decode(wire.to_client);
    EXPECT_EQ(env.type, MessageType::kError);
    ids.insert(env.request_id);
  }
  EXPECT_EQ(ids, (std::set<std::uint64_t>{7, 8}));
  EXPECT_EQ(edge.pending_inflight(), 0u);
  EXPECT_EQ(edge.cache().stats().insertions, 0u);
}

TEST(CoalescingTest, NextMissAfterResolutionStartsAFreshFetch) {
  FakeWire wire;
  EdgeService::Config config;
  // A 1-byte budget evicts every insert on the spot, so the re-request
  // below misses again instead of hitting the adopted result.
  config.cache.capacity_bytes = 1;
  auto edge = EdgeService(config, wire.MakeSendFn(), ImmediateDelay(),
                          FixedNow());
  const auto req = CoicRecognitionRequest(5);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_5";
  result.annotation = DeterministicBytes(16, 4);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  // The key was released on resolution: an (expired-cache) re-miss pays
  // its own fetch instead of waiting on the resolved leader.
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  EXPECT_EQ(edge.forwards(), 2u);
  EXPECT_EQ(edge.coalesced_requests(), 0u);
}

TEST(CoalescingTest, DisabledConfigPaysDuplicateFetches) {
  FakeWire wire;
  EdgeService::Config config;
  config.coalesce_requests = false;
  auto edge = EdgeService(config, wire.MakeSendFn(), ImmediateDelay(),
                          FixedNow());
  const auto req = CoicRecognitionRequest(6);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  EXPECT_EQ(edge.forwards(), 2u);
  EXPECT_EQ(edge.coalesced_requests(), 0u);
}

// ---------------------------------------------------------------------------
// Loss tolerance: duplicate drop, memo replay, grace window, gather hits
// ---------------------------------------------------------------------------

TEST(LossToleranceTest, InFlightDuplicatesDropAndResolvedOnesReplayFromMemo) {
  FakeWire wire;
  EdgeService::Config config;
  config.resolved_memo_capacity = 4;
  auto edge =
      EdgeService(config, wire.MakeSendFn(), ImmediateDelay(), FixedNow());
  const ByteVec frame = proto::EncodeMessage(MessageType::kRecognitionRequest,
                                             7, CoicRecognitionRequest(3));
  edge.OnClientFrame(ByteVec(frame));
  // A retransmit while the fetch is in flight must not double-park or
  // double-forward; the in-flight resolution answers the client.
  edge.OnClientFrame(ByteVec(frame));
  EXPECT_EQ(edge.duplicates_dropped(), 1u);
  EXPECT_EQ(edge.forwards(), 1u);
  EXPECT_EQ(wire.to_cloud.size(), 1u);

  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(64, 3);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  ASSERT_EQ(wire.to_client.size(), 1u);
  const ByteVec first_reply = wire.to_client.front().CloneBytes();
  wire.to_client.pop_front();

  // A retransmit arriving after resolution (the reply was lost on the
  // way down) is answered from the memo: byte-identical reply, and the
  // result is not fetched or inserted a second time.
  edge.OnClientFrame(ByteVec(frame));
  EXPECT_EQ(edge.replayed_from_memo(), 1u);
  EXPECT_EQ(edge.forwards(), 1u);
  EXPECT_EQ(edge.cache().stats().insertions, 1u);
  ASSERT_EQ(wire.to_client.size(), 1u);
  EXPECT_EQ(wire.to_client.front().CloneBytes(), first_reply);
}

/// DelayFn that runs zero-cost work inline but parks positive-delay work
/// (the deferred cache insert) until the test releases it — the window
/// the grace entry exists to cover.
struct StepDelay {
  std::deque<std::function<void()>> parked;

  DelayFn MakeDelayFn() {
    return [this](Duration d, std::function<void()> fn) {
      if (d <= Duration::Zero()) {
        fn();
      } else {
        parked.push_back(std::move(fn));
      }
    };
  }

  void RunAll() {
    while (!parked.empty()) {
      auto fn = std::move(parked.front());
      parked.pop_front();
      fn();
    }
  }
};

TEST(LossToleranceTest, GraceEntryCoversTheCacheInsertDelayWindow) {
  FakeWire wire;
  StepDelay delay;
  EdgeService::Config config;
  config.costs.edge.cache_lookup = Duration::Zero();
  config.costs.edge.cache_insert = Duration::Millis(1);
  auto edge =
      EdgeService(config, wire.MakeSendFn(), delay.MakeDelayFn(), FixedNow());
  const auto req = CoicRecognitionRequest(3);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  EXPECT_EQ(edge.forwards(), 1u);

  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(64, 3);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  // The insert (and the leader's reply) are parked behind the insert
  // delay; the cache itself still misses this key.
  EXPECT_TRUE(wire.to_client.empty());
  EXPECT_EQ(edge.cache().stats().insertions, 0u);

  // A same-key request in that window rides the grace entry instead of
  // paying a duplicate cloud fetch (the pre-fix behavior).
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  EXPECT_EQ(edge.grace_hits(), 1u);
  EXPECT_EQ(edge.forwards(), 1u);
  ASSERT_EQ(wire.to_client.size(), 1u);
  const auto win = FakeWire::Decode(wire.to_client);
  EXPECT_EQ(win.request_id, 8u);
  EXPECT_EQ(win.type, MessageType::kRecognitionResult);

  // Once the insert lands the grace entry retires and later requests
  // are ordinary cache hits.
  delay.RunAll();
  EXPECT_EQ(edge.cache().stats().insertions, 1u);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 9, req));
  EXPECT_EQ(edge.grace_hits(), 1u);
  EXPECT_EQ(edge.forwards(), 1u);
  EXPECT_EQ(edge.cache().stats().hits, 1u);
}

TEST(LossToleranceTest, DisablingTheGraceWindowPaysTheDuplicateFetch) {
  FakeWire wire;
  StepDelay delay;
  EdgeService::Config config;
  config.costs.edge.cache_lookup = Duration::Zero();
  config.costs.edge.cache_insert = Duration::Millis(1);
  config.resolved_grace = false;
  auto edge =
      EdgeService(config, wire.MakeSendFn(), delay.MakeDelayFn(), FixedNow());
  const auto req = CoicRecognitionRequest(3);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  proto::RecognitionResult result;
  result.frame_id = 7;
  result.annotation = DeterministicBytes(64, 3);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  EXPECT_EQ(edge.grace_hits(), 0u);
  EXPECT_EQ(edge.forwards(), 2u);  // the duplicate-fetch window, unpatched
  delay.RunAll();
}

TEST(FrameFabricTest, GatherHitRepliesMatchTheFusedBytesAndShareTheCache) {
  // Baseline edge: fused single-buffer replies.
  FakeWire plain_wire;
  auto plain = MakeEdge(plain_wire);
  // Gather edge: head/tail pairs captured before fusing.
  FakeWire wire;
  std::vector<std::pair<Frame, Frame>> gathers;
  EdgeService::Config config;
  config.gather_send = [&gathers](Peer to, Frame head, Frame tail) {
    EXPECT_EQ(to, Peer::kClient);
    gathers.emplace_back(std::move(head), std::move(tail));
  };
  auto edge =
      EdgeService(config, wire.MakeSendFn(), ImmediateDelay(), FixedNow());

  const auto req = CoicRecognitionRequest(3);
  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(4096, 3);
  for (EdgeService* e : {&plain, &edge}) {
    e->OnClientFrame(
        proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
    e->OnCloudFrame(
        proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  }
  plain_wire.to_client.clear();
  wire.to_client.clear();

  // Cache hits: the plain edge re-encodes the multi-KB payload; the
  // gather edge writes only the head and shares the cached tail.
  const std::uint64_t copies_before = frame_stats().copies();
  plain.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  EXPECT_EQ(frame_stats().copies(), copies_before);

  ASSERT_EQ(plain_wire.to_client.size(), 1u);
  ASSERT_EQ(gathers.size(), 1u);
  EXPECT_TRUE(wire.to_client.empty());
  ByteVec fused_from_gather = gathers[0].first.CloneBytes();
  const ByteVec tail_bytes = gathers[0].second.CloneBytes();
  fused_from_gather.insert(fused_from_gather.end(), tail_bytes.begin(),
                           tail_bytes.end());
  EXPECT_EQ(fused_from_gather, plain_wire.to_client.front().CloneBytes());

  // The tail is the cached payload itself (a refcount, not a copy).
  const auto cached = edge.mutable_cache().Lookup(req.descriptor,
                                                  SimTime::Epoch());
  ASSERT_TRUE(cached.hit);
  EXPECT_TRUE(gathers[0].second.SharesBufferWith(cached.payload));
}

/// A client on a self-advancing clock: each modeled delay moves `now`
/// forward and runs inline, so outcomes carry real latencies.
struct ClockedClient {
  SimTime now = SimTime::Epoch();
  std::vector<Frame> sent;
  std::vector<RequestOutcome> outcomes;
  CoicClient client{CoicClient::Config{},
                    [this](Frame f) { sent.push_back(std::move(f)); },
                    [this](Duration d, std::function<void()> fn) {
                      now = now + d;
                      fn();
                    },
                    [this] { return now; }};

  CoicClient::CompletionFn Record() {
    return [this](RequestOutcome o) { outcomes.push_back(std::move(o)); };
  }
};

TEST(FrameFabricTest, GatherPairSplitAtTheSourceByteGivesTheFusedOutcome) {
  // The edge's cache-hit reply reaches the client as a head ending just
  // after the source byte plus the shared tail. Decoding that pair must
  // give exactly the outcome the fused bytes give, for every result
  // type, and copy nothing.
  FakeWire cloud_wire;
  CloudService cloud = MakeCloud(cloud_wire);
  cloud.RegisterModel(5, 64 * 1024);
  const auto digest = cloud.model_registry().DigestFor(5);
  ASSERT_TRUE(digest.ok());

  const std::vector<std::function<void(ClockedClient&)>> starts = {
      [](ClockedClient& c) {
        c.client.StartRecognition({.scene_id = 3}, "object_3", c.Record());
      },
      [&](ClockedClient& c) {
        c.client.StartRender(5, digest.value(), c.Record());
      },
      [](ClockedClient& c) {
        c.client.StartPanorama(7, 2, proto::Viewport{}, c.Record());
      },
  };
  for (const auto& start : starts) {
    ClockedClient fused, split;
    start(fused);
    start(split);
    ASSERT_EQ(fused.sent.size(), 1u);
    cloud.OnFrame(fused.sent.back());
    ASSERT_EQ(cloud_wire.to_client.size(), 1u);
    const Frame reply = std::move(cloud_wire.to_client.front());
    cloud_wire.to_client.pop_front();

    const auto env = proto::DecodeEnvelopeView(reply);
    ASSERT_TRUE(env.ok());
    const auto offset =
        proto::ResultSourceOffset(env.value().type, env.value().payload);
    ASSERT_TRUE(offset.ok());
    const std::size_t cut = proto::kEnvelopeHeaderSize + offset.value() + 1;
    ASSERT_LT(cut, reply.size());

    const std::uint64_t copies_before = frame_stats().copies();
    fused.client.OnEdgeFrame(reply);
    split.client.OnEdgeFrame(reply.Slice(0, cut),
                             reply.Slice(cut, reply.size() - cut));
    EXPECT_EQ(frame_stats().copies(), copies_before);

    ASSERT_EQ(fused.outcomes.size(), 1u);
    ASSERT_EQ(split.outcomes.size(), 1u);
    const RequestOutcome& want = fused.outcomes[0];
    const RequestOutcome& got = split.outcomes[0];
    EXPECT_FALSE(want.error);
    EXPECT_GT(want.result_bytes, 0u);
    EXPECT_EQ(got.task, want.task);
    EXPECT_EQ(got.source, want.source);
    EXPECT_EQ(got.latency, want.latency);
    EXPECT_EQ(got.client_compute, want.client_compute);
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.correct, want.correct);
    EXPECT_EQ(got.object_id, want.object_id);
    EXPECT_EQ(got.result_bytes, want.result_bytes);
    EXPECT_EQ(got.error, want.error);
  }
}

// ---------------------------------------------------------------------------
// Overload control: admission bound, deadline sheds, circuit breaker
// ---------------------------------------------------------------------------

/// Decodes the head of `queue` and asserts it is an ErrorReply carrying
/// `code`; returns the request id it answered.
std::uint64_t ExpectShedReply(std::deque<Frame>& queue, StatusCode code) {
  const auto env = FakeWire::Decode(queue);
  EXPECT_EQ(env.type, MessageType::kError);
  auto err = proto::DecodePayloadAs<proto::ErrorReply>(env, MessageType::kError);
  EXPECT_TRUE(err.ok());
  if (err.ok()) {
    EXPECT_EQ(err.value().code, static_cast<std::uint16_t>(code));
  }
  return env.request_id;
}

TEST(OverloadControlTest, AdmissionBoundShedsBeyondMaxPending) {
  FakeWire wire;
  EdgeService::Config config;
  config.max_pending = 1;
  auto edge =
      EdgeService(config, wire.MakeSendFn(), ImmediateDelay(), FixedNow());
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 7,
                                          CoicRecognitionRequest(1)));
  EXPECT_EQ(edge.forwards(), 1u);
  EXPECT_TRUE(wire.to_client.empty());

  // A different-key miss while the queue is full is answered immediately
  // with kResourceExhausted — no forward, no parked state.
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 8,
                                          CoicRecognitionRequest(2)));
  EXPECT_EQ(edge.overload_sheds(), 1u);
  EXPECT_EQ(edge.forwards(), 1u);
  EXPECT_EQ(ExpectShedReply(wire.to_client, StatusCode::kResourceExhausted),
            8u);

  // Resolving the in-flight request frees the slot; the next miss is
  // admitted again.
  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_1";
  result.annotation = DeterministicBytes(64, 1);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));
  wire.to_client.clear();
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 9,
                                          CoicRecognitionRequest(3)));
  EXPECT_EQ(edge.forwards(), 2u);
  EXPECT_EQ(edge.overload_sheds(), 1u);
}

TEST(OverloadControlTest, ExpiredWireDeadlineShedsBeforeTheCloudFetch) {
  FakeWire wire;
  StepDelay delay;
  SimTime now = SimTime::Epoch();
  EdgeService::Config config;
  config.costs.edge.cache_lookup = Duration::Millis(2);
  auto edge = EdgeService(config, wire.MakeSendFn(), delay.MakeDelayFn(),
                          [&now] { return now; });
  auto req = CoicRecognitionRequest(1);
  req.deadline_ms = 5;
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  // The lookup delay is parked; the request's deadline expires while it
  // waits. The would-be cloud fetch is shed instead of spent.
  now = now + Duration::Millis(10);
  delay.RunAll();
  EXPECT_EQ(edge.deadline_sheds(), 1u);
  EXPECT_EQ(edge.forwards(), 0u);
  EXPECT_TRUE(wire.to_cloud.empty());
  EXPECT_EQ(ExpectShedReply(wire.to_client, StatusCode::kResourceExhausted),
            7u);

  // A live deadline passes through untouched.
  auto live = CoicRecognitionRequest(2);
  live.deadline_ms = 50'000;
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, live));
  delay.RunAll();
  EXPECT_EQ(edge.forwards(), 1u);
  EXPECT_EQ(edge.deadline_sheds(), 1u);
}

TEST(OverloadControlTest, BreakerOpensFailsFastProbesAndRecloses) {
  FakeWire wire;
  StepDelay delay;
  SimTime now = SimTime::Epoch();
  EdgeService::Config config;
  config.costs.edge.cache_lookup = Duration::Zero();
  config.costs.edge.cache_insert = Duration::Zero();
  config.breaker_failure_threshold = 2;
  config.breaker_open_duration = Duration::Millis(100);
  config.cloud_retry.timeout = Duration::Millis(10);
  config.cloud_retry.max_retries = 0;  // first timeout is the failure
  auto edge = EdgeService(config, wire.MakeSendFn(), delay.MakeDelayFn(),
                          [&now] { return now; });
  std::uint64_t next_id = 1;
  const auto miss = [&](std::uint64_t scene) {
    edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest,
                                            next_id++,
                                            CoicRecognitionRequest(scene)));
  };

  // Two consecutive cloud timeouts trip the breaker.
  miss(1);
  delay.RunAll();  // retry timer fires -> cloud timeout #1
  EXPECT_EQ(edge.breaker_state(), EdgeService::BreakerState::kClosed);
  miss(2);
  delay.RunAll();
  EXPECT_EQ(edge.cloud_timeouts(), 2u);
  EXPECT_EQ(edge.breaker_state(), EdgeService::BreakerState::kOpen);
  EXPECT_EQ(edge.breaker_opens(), 1u);
  wire.to_client.clear();
  wire.to_cloud.clear();

  // While open, misses fail fast with kUnavailable and never reach the
  // cloud.
  miss(3);
  EXPECT_EQ(edge.breaker_sheds(), 1u);
  EXPECT_TRUE(wire.to_cloud.empty());
  ExpectShedReply(wire.to_client, StatusCode::kUnavailable);

  // After the cooldown the next miss is the half-open probe: it flies,
  // and concurrent misses keep shedding behind it.
  now = now + Duration::Millis(200);
  miss(4);
  EXPECT_EQ(edge.breaker_state(), EdgeService::BreakerState::kHalfOpen);
  EXPECT_EQ(wire.to_cloud.size(), 1u);
  miss(5);
  EXPECT_EQ(edge.breaker_sheds(), 2u);
  EXPECT_EQ(wire.to_cloud.size(), 1u);

  // The probe succeeds -> breaker closes and traffic flows again.
  proto::RecognitionResult result;
  result.frame_id = 4;
  result.label = "object_4";
  result.annotation = DeterministicBytes(64, 4);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 4, result));
  EXPECT_EQ(edge.breaker_state(), EdgeService::BreakerState::kClosed);
  wire.to_cloud.clear();
  miss(6);
  EXPECT_EQ(wire.to_cloud.size(), 1u);
}

TEST(OverloadControlTest, FailedProbeReopensTheBreaker) {
  FakeWire wire;
  StepDelay delay;
  SimTime now = SimTime::Epoch();
  EdgeService::Config config;
  config.costs.edge.cache_lookup = Duration::Zero();
  config.breaker_failure_threshold = 1;
  config.breaker_open_duration = Duration::Millis(100);
  config.cloud_retry.timeout = Duration::Millis(10);
  config.cloud_retry.max_retries = 0;
  auto edge = EdgeService(config, wire.MakeSendFn(), delay.MakeDelayFn(),
                          [&now] { return now; });
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 1,
                                          CoicRecognitionRequest(1)));
  delay.RunAll();
  EXPECT_EQ(edge.breaker_state(), EdgeService::BreakerState::kOpen);

  // Probe after cooldown; its timeout re-opens the breaker for another
  // full cooldown instead of closing it.
  now = now + Duration::Millis(200);
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 2,
                                          CoicRecognitionRequest(2)));
  EXPECT_EQ(edge.breaker_state(), EdgeService::BreakerState::kHalfOpen);
  delay.RunAll();
  EXPECT_EQ(edge.breaker_state(), EdgeService::BreakerState::kOpen);
  EXPECT_EQ(edge.breaker_opens(), 2u);
  // Still shedding: the reopen started a fresh cooldown from "now".
  edge.OnClientFrame(proto::EncodeMessage(MessageType::kRecognitionRequest, 3,
                                          CoicRecognitionRequest(3)));
  EXPECT_EQ(edge.breaker_sheds(), 1u);
}

TEST(OverloadControlTest, NoRequestIsStrandedByADeadlineShed) {
  // Two same-key requests whose shared deadline expires in the lookup
  // window: the first shed releases the coalesce key, so the second
  // runs (and sheds) as its own leader — both clients get a verdict,
  // nobody is parked forever.
  FakeWire wire;
  StepDelay delay;
  SimTime now = SimTime::Epoch();
  EdgeService::Config config;
  config.costs.edge.cache_lookup = Duration::Millis(2);
  auto edge = EdgeService(config, wire.MakeSendFn(), delay.MakeDelayFn(),
                          [&now] { return now; });
  auto req = CoicRecognitionRequest(1);
  req.deadline_ms = 5;
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  now = now + Duration::Millis(10);
  delay.RunAll();
  EXPECT_EQ(edge.deadline_sheds(), 2u);
  EXPECT_EQ(edge.forwards(), 0u);
  std::set<std::uint64_t> answered;
  answered.insert(
      ExpectShedReply(wire.to_client, StatusCode::kResourceExhausted));
  answered.insert(
      ExpectShedReply(wire.to_client, StatusCode::kResourceExhausted));
  EXPECT_EQ(answered, (std::set<std::uint64_t>{7, 8}));
}

// ---------------------------------------------------------------------------
// Probe-aware coalescing: peer probes park on in-flight fetches
// ---------------------------------------------------------------------------

TEST(ProbeParkingTest, PeerProbeParksOnInflightFetchAndSharesItsResult) {
  FakeWire wire;
  std::vector<std::pair<std::uint32_t, Frame>> peer_out;
  EdgeService::Config config;
  config.park_peer_probes = true;
  config.peer_send = [&peer_out](std::uint32_t peer, Frame frame) {
    peer_out.emplace_back(peer, std::move(frame));
  };
  auto edge = EdgeService(config, wire.MakeSendFn(), ImmediateDelay(),
                          FixedNow());
  const auto req = CoicRecognitionRequest(3);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  EXPECT_EQ(edge.forwards(), 1u);  // leader fetch is in flight

  // A peer probes the same key: it misses here, but instead of a "not
  // found" reply (which would send the prober to the cloud for bytes
  // already on the wire to us) the probe parks on the leader's fetch.
  proto::PeerLookupRequest query;
  query.descriptor = req.descriptor;
  query.reply_type = MessageType::kRecognitionResult;
  edge.OnPeerFrame(/*from_peer=*/5, proto::EncodeMessage(
                       MessageType::kPeerLookupRequest, 42, query));
  EXPECT_EQ(edge.peer_probes_parked(), 1u);
  EXPECT_TRUE(peer_out.empty());  // no immediate miss reply

  proto::RecognitionResult result;
  result.frame_id = 7;
  result.label = "object_3";
  result.source = proto::ResultSource::kCloud;
  result.annotation = DeterministicBytes(64, 3);
  edge.OnCloudFrame(
      proto::EncodeMessage(MessageType::kRecognitionResult, 7, result));

  // The leader's client reply and the parked probe's hit reply both ride
  // the one cloud fetch.
  EXPECT_EQ(FakeWire::Decode(wire.to_client).type,
            MessageType::kRecognitionResult);
  ASSERT_EQ(peer_out.size(), 1u);
  EXPECT_EQ(peer_out.front().first, 5u);
  auto env = proto::DecodeEnvelope(peer_out.front().second.span());
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().request_id, 42u);
  auto reply = proto::DecodePayloadAs<proto::PeerLookupReply>(
      env.value(), MessageType::kPeerLookupReply);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().found);
  EXPECT_EQ(reply.value().reply_type, MessageType::kRecognitionResult);
  EXPECT_FALSE(reply.value().payload.empty());
  EXPECT_EQ(edge.forwards(), 1u);  // the probe never caused a second fetch
  EXPECT_EQ(edge.pending_inflight(), 0u);
}

TEST(ProbeParkingTest, ParkedProbeGetsNotFoundWhenTheLeaderFails) {
  FakeWire wire;
  std::vector<std::pair<std::uint32_t, Frame>> peer_out;
  EdgeService::Config config;
  config.park_peer_probes = true;
  config.peer_send = [&peer_out](std::uint32_t peer, Frame frame) {
    peer_out.emplace_back(peer, std::move(frame));
  };
  auto edge = EdgeService(config, wire.MakeSendFn(), ImmediateDelay(),
                          FixedNow());
  const auto req = CoicRecognitionRequest(4);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));

  proto::PeerLookupRequest query;
  query.descriptor = req.descriptor;
  query.reply_type = MessageType::kRecognitionResult;
  edge.OnPeerFrame(/*from_peer=*/2, proto::EncodeMessage(
                       MessageType::kPeerLookupRequest, 42, query));
  EXPECT_EQ(edge.peer_probes_parked(), 1u);

  proto::ErrorReply err;
  err.message = "boom";
  edge.OnCloudFrame(proto::EncodeMessage(MessageType::kError, 7, err));

  // Leader failed: the remote waiter is released with a plain miss (the
  // prober falls through to its own cloud fetch), never stranded.
  ASSERT_EQ(peer_out.size(), 1u);
  auto env = proto::DecodeEnvelope(peer_out.front().second.span());
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().request_id, 42u);
  auto reply = proto::DecodePayloadAs<proto::PeerLookupReply>(
      env.value(), MessageType::kPeerLookupReply);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().found);
  EXPECT_TRUE(reply.value().payload.empty());
  EXPECT_EQ(edge.pending_inflight(), 0u);
}

TEST(ProbeParkingTest, DisabledConfigRepliesMissImmediately) {
  FakeWire wire;
  std::vector<std::pair<std::uint32_t, Frame>> peer_out;
  EdgeService::Config config;  // park_peer_probes defaults to false
  config.peer_send = [&peer_out](std::uint32_t peer, Frame frame) {
    peer_out.emplace_back(peer, std::move(frame));
  };
  auto edge = EdgeService(config, wire.MakeSendFn(), ImmediateDelay(),
                          FixedNow());
  const auto req = CoicRecognitionRequest(5);
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));

  proto::PeerLookupRequest query;
  query.descriptor = req.descriptor;
  query.reply_type = MessageType::kRecognitionResult;
  edge.OnPeerFrame(/*from_peer=*/2, proto::EncodeMessage(
                       MessageType::kPeerLookupRequest, 42, query));
  EXPECT_EQ(edge.peer_probes_parked(), 0u);
  ASSERT_EQ(peer_out.size(), 1u);
  auto reply = proto::DecodePayloadAs<proto::PeerLookupReply>(
      proto::DecodeEnvelope(peer_out.front().second.span()).value(),
      MessageType::kPeerLookupReply);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().found);
}

// ---------------------------------------------------------------------------
// Peer-hit adoption filter
// ---------------------------------------------------------------------------

TEST(AdoptionFilterTest, LowReusePeerHitsAreServedButNotAdopted) {
  FakeWire wire;
  EdgeService::Config config;
  config.cooperative = true;  // pairwise probe via SendFn(kPeerEdge)
  config.peer_hit_adopt_min_uses = 2;
  auto edge = EdgeService(config, wire.MakeSendFn(), ImmediateDelay(),
                          FixedNow());
  const auto req = CoicRecognitionRequest(6);

  proto::RecognitionResult peer_result;
  peer_result.frame_id = 7;
  peer_result.label = "object_6";
  peer_result.annotation = DeterministicBytes(64, 6);
  ByteWriter w;
  peer_result.Encode(w);
  proto::PeerLookupReply hit;
  hit.found = true;
  hit.reply_type = MessageType::kRecognitionResult;
  hit.payload = w.TakeBytes();

  // First use of the key: the peer hit serves the client but is NOT
  // copied into the local cache — a 1-hop neighbor already holds it.
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  ASSERT_EQ(wire.to_peer.size(), 1u);
  wire.to_peer.clear();
  edge.OnPeerFrame(proto::EncodeMessage(MessageType::kPeerLookupReply, 7, hit));
  EXPECT_EQ(edge.peer_adoptions_skipped(), 1u);
  EXPECT_EQ(edge.cache().stats().insertions, 0u);
  auto served = proto::DecodePayloadAs<proto::RecognitionResult>(
      FakeWire::Decode(wire.to_client), MessageType::kRecognitionResult);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().source, proto::ResultSource::kPeerEdge);

  // Second use crosses the threshold: this peer hit is adopted.
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 8, req));
  ASSERT_EQ(wire.to_peer.size(), 1u);
  edge.OnPeerFrame(proto::EncodeMessage(MessageType::kPeerLookupReply, 8, hit));
  EXPECT_EQ(edge.peer_adoptions_skipped(), 1u);
  EXPECT_EQ(edge.cache().stats().insertions, 1u);

  // Third request now hits locally — no probe, no upstream.
  wire.to_peer.clear();
  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 9, req));
  EXPECT_TRUE(wire.to_peer.empty());
  EXPECT_EQ(edge.cache().stats().hits, 1u);
}

TEST(AdoptionFilterTest, DefaultConfigAdoptsEveryPeerHit) {
  FakeWire wire;
  auto edge = MakeEdge(wire, /*cooperative=*/true);
  const auto req = CoicRecognitionRequest(7);
  proto::RecognitionResult peer_result;
  peer_result.frame_id = 7;
  peer_result.label = "object_7";
  peer_result.annotation = DeterministicBytes(32, 7);
  ByteWriter w;
  peer_result.Encode(w);
  proto::PeerLookupReply hit;
  hit.found = true;
  hit.reply_type = MessageType::kRecognitionResult;
  hit.payload = w.TakeBytes();

  edge.OnClientFrame(
      proto::EncodeMessage(MessageType::kRecognitionRequest, 7, req));
  edge.OnPeerFrame(proto::EncodeMessage(MessageType::kPeerLookupReply, 7, hit));
  EXPECT_EQ(edge.peer_adoptions_skipped(), 0u);
  EXPECT_EQ(edge.cache().stats().insertions, 1u);
}

}  // namespace
}  // namespace coic::core
