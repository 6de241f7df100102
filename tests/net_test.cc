// Live-transport tests: RAII sockets, framing, and a full three-tier
// deployment on loopback TCP exercising the same protocol as the sim.
#include <gtest/gtest.h>

#include <thread>

#include "net/frame_stream.h"
#include "net/servers.h"
#include "net/socket.h"

namespace coic::net {
namespace {

using core::CloudService;
using core::EdgeService;
using proto::OffloadMode;
using proto::ResultSource;

// ---------------------------------------------------------------------------
// Sockets + framing
// ---------------------------------------------------------------------------

TEST(SocketTest, FdHandleMoveSemantics) {
  FdHandle empty;
  EXPECT_FALSE(empty.valid());
  FdHandle a(::dup(0));
  ASSERT_TRUE(a.valid());
  const int raw = a.get();
  FdHandle b(std::move(a));
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.get(), raw);
  b.Reset();
  EXPECT_FALSE(b.valid());
}

TEST(SocketTest, BindEphemeralReportsPort) {
  auto listener = TcpListener::Bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener.value().bound_port(), 0);
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Bind + close to find a port that is very likely unbound now.
  auto listener = TcpListener::Bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().bound_port();
  listener.value().Close();
  auto stream = TcpStream::Connect({"127.0.0.1", port});
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kUnavailable);
}

TEST(SocketTest, BadAddressRejected) {
  EXPECT_FALSE(TcpStream::Connect({"not-an-ip", 80}).ok());
  EXPECT_FALSE(TcpListener::Bind({"999.1.1.1", 0}).ok());
}

TEST(SocketTest, RoundTripBytes) {
  auto listener = TcpListener::Bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    ByteVec buf(5);
    ASSERT_TRUE(conn.value().ReadExact(buf).ok());
    ASSERT_TRUE(conn.value().WriteAll(buf).ok());
  });
  auto client = TcpStream::Connect({"127.0.0.1", listener.value().bound_port()});
  ASSERT_TRUE(client.ok());
  const ByteVec sent = {1, 2, 3, 4, 5};
  ASSERT_TRUE(client.value().WriteAll(sent).ok());
  ByteVec received(5);
  ASSERT_TRUE(client.value().ReadExact(received).ok());
  EXPECT_EQ(received, sent);
  server.join();
}

TEST(FrameStreamTest, FrameRoundTripOverLoopback) {
  auto listener = TcpListener::Bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const ByteVec frame =
      proto::EncodeEnvelope(proto::MessageType::kPing, 42,
                            DeterministicBytes(100'000, 7));
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    auto got = ReadFrame(conn.value());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(WriteFrame(conn.value(), got.value()).ok());
  });
  auto client = TcpStream::Connect({"127.0.0.1", listener.value().bound_port()});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(WriteFrame(client.value(), frame).ok());
  auto echoed = ReadFrame(client.value());
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed.value(), frame);
  server.join();
}

TEST(FrameStreamTest, WriteFrameValidatesHeader) {
  auto listener = TcpListener::Bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto client = TcpStream::Connect({"127.0.0.1", listener.value().bound_port()});
  ASSERT_TRUE(client.ok());
  ByteVec bogus = DeterministicBytes(64, 1);
  EXPECT_FALSE(WriteFrame(client.value(), bogus).ok());
  ByteVec frame = proto::EncodeEnvelope(proto::MessageType::kPing, 1, {});
  frame.push_back(0);  // length disagrees with header
  EXPECT_FALSE(WriteFrame(client.value(), frame).ok());
}

TEST(FrameStreamTest, OrderlyCloseIsUnavailable) {
  auto listener = TcpListener::Bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener.value().Accept();
    ASSERT_TRUE(conn.ok());
    // Close immediately without sending.
  });
  auto client = TcpStream::Connect({"127.0.0.1", listener.value().bound_port()});
  ASSERT_TRUE(client.ok());
  server.join();
  auto frame = ReadFrame(client.value());
  EXPECT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

// Stop wakes the accept thread with shutdown(2), joins it, and only then
// closes the listener fd that accept() reads (closing first is a data
// race TSan reports). Half the rounds also land a connection, so Stop
// meets the accept loop both parked in accept() and serving a client.
TEST(ServerRestart, StartStopFiftyTimes) {
  CloudService::Config cloud_config;
  cloud_config.recognition_classes = 1;  // start-up cost is not under test
  for (int round = 0; round < 50; ++round) {
    CloudServer cloud(ServerOptions{}, cloud_config);
    ASSERT_TRUE(cloud.Start().ok());
    EdgeServer edge(ServerOptions{}, EdgeService::Config{},
                    SocketAddress{"127.0.0.1", cloud.port()});
    ASSERT_TRUE(edge.Start().ok());
    if (round % 2 == 1) {
      ASSERT_TRUE(TcpStream::Connect({"127.0.0.1", edge.port()}).ok());
    }
    edge.Stop();
    cloud.Stop();
  }
}

// ---------------------------------------------------------------------------
// Full three-tier deployment on loopback
// ---------------------------------------------------------------------------

class LiveDeployment : public ::testing::Test {
 protected:
  void SetUp() override {
    core::CloudService::Config cloud_config;
    cloud_config.recognition_classes = 10;
    cloud_ = std::make_unique<CloudServer>(ServerOptions{}, cloud_config);
    ASSERT_TRUE(cloud_->Start().ok());
    cloud_->service().RegisterModel(1, KB(231));

    EdgeService::Config edge_config;
    edge_ = std::make_unique<EdgeServer>(
        ServerOptions{}, edge_config,
        SocketAddress{"127.0.0.1", cloud_->port()});
    ASSERT_TRUE(edge_->Start().ok());
  }

  void TearDown() override {
    edge_->Stop();
    cloud_->Stop();
  }

  std::unique_ptr<LiveClient> MakeClient(OffloadMode mode = OffloadMode::kCoic) {
    LiveClient::Options options;
    options.edge = {"127.0.0.1", edge_->port()};
    options.client.mode = mode;
    auto client = LiveClient::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<CloudServer> cloud_;
  std::unique_ptr<EdgeServer> edge_;
};

TEST_F(LiveDeployment, RecognitionMissThenHit) {
  auto client = MakeClient();
  auto miss = client->Recognize({.scene_id = 3}, "object_3");
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(miss.value().source, ResultSource::kCloud);
  EXPECT_TRUE(miss.value().correct);

  auto hit = client->Recognize({.scene_id = 3, .view_angle_deg = 2}, "object_3");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().source, ResultSource::kEdgeCache);
  EXPECT_TRUE(hit.value().correct);
  EXPECT_EQ(edge_->service().cache().stats().hits, 1u);
}

TEST_F(LiveDeployment, OriginModePassesThrough) {
  auto client = MakeClient(OffloadMode::kOrigin);
  for (int i = 0; i < 2; ++i) {
    auto outcome = client->Recognize({.scene_id = 5}, "object_5");
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.value().source, ResultSource::kCloud);
    EXPECT_TRUE(outcome.value().correct);
  }
  EXPECT_EQ(edge_->service().cache().stats().hits, 0u);
  EXPECT_EQ(edge_->service().cache().stats().misses, 0u);
}

TEST_F(LiveDeployment, RenderDeliversExactModelBytes) {
  auto client = MakeClient();
  const auto digest = cloud_->service().model_registry().DigestFor(1);
  ASSERT_TRUE(digest.ok());
  auto miss = client->LoadModel(1, digest.value());
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_EQ(miss.value().source, ResultSource::kCloud);
  EXPECT_EQ(miss.value().result_bytes, KB(231));
  EXPECT_FALSE(miss.value().error);

  auto hit = client->LoadModel(1, digest.value());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().source, ResultSource::kEdgeCache);
  EXPECT_EQ(hit.value().result_bytes, KB(231));
}

TEST_F(LiveDeployment, RenderUnknownDigestReturnsError) {
  auto client = MakeClient();
  auto outcome = client->LoadModel(99, Digest128{1, 2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().error);
}

TEST_F(LiveDeployment, PanoramaSharedAcrossClients) {
  auto alice = MakeClient();
  auto bob = MakeClient();
  auto first = alice->FetchPanorama(7, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().source, ResultSource::kCloud);
  // Bob requests the same frame: served from the edge, no cloud trip.
  auto second = bob->FetchPanorama(7, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().source, ResultSource::kEdgeCache);
}

TEST_F(LiveDeployment, CrossClientRecognitionSharing) {
  // The paper's motivating scenario: two users, same stop sign,
  // different angle — the second user hits the first user's result.
  auto alice = MakeClient();
  auto bob = MakeClient();
  auto first = alice->Recognize({.scene_id = 4}, "object_4");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().source, ResultSource::kCloud);
  auto second =
      bob->Recognize({.scene_id = 4, .view_angle_deg = -3}, "object_4");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().source, ResultSource::kEdgeCache);
  EXPECT_TRUE(second.value().correct);
}

TEST_F(LiveDeployment, ConcurrentClientsNoCrosstalk) {
  constexpr int kClients = 4;
  constexpr int kRequestsEach = 5;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = MakeClient();
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::uint64_t scene = 1 + (c + i) % 6;
        auto outcome = client->Recognize(
            {.scene_id = scene, .view_angle_deg = static_cast<double>(i)},
            "object_" + std::to_string(scene));
        if (!outcome.ok() || outcome.value().error ||
            !outcome.value().correct) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto& stats = edge_->service().cache().stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kClients * kRequestsEach));
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace coic::net
