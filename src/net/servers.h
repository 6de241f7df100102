// Live CoIC deployment: the cloud and edge processes, and a blocking
// client — the same EdgeService/CloudService logic as the simulator,
// bound to real TCP sockets.
//
// Topology mirrors the paper's testbed: clients connect to the edge; the
// edge keeps one upstream connection to the cloud and multiplexes
// forwarded requests over it (replies are routed back to the issuing
// client by request id, which clients randomize at connect time).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/client.h"
#include "core/services.h"
#include "net/frame_stream.h"
#include "net/socket.h"

namespace coic::net {

/// Shared server options.
struct ServerOptions {
  SocketAddress listen{"127.0.0.1", 0};  ///< Port 0 = ephemeral.
  /// When true, DelayFn sleeps for the cost-model duration, giving the
  /// live system the calibrated compute times (demo mode). When false,
  /// handlers run at host speed (test mode).
  bool simulate_compute_delays = false;
};

/// The cloud process: executes complete IC tasks for the edge.
class CloudServer {
 public:
  CloudServer(ServerOptions options, core::CloudService::Config service_config);
  ~CloudServer();

  CloudServer(const CloudServer&) = delete;
  CloudServer& operator=(const CloudServer&) = delete;

  /// Binds and starts the accept loop.
  Status Start();
  /// Stops accepting and joins all connection threads.
  void Stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] core::CloudService& service() noexcept { return *service_; }

 private:
  void AcceptLoop();
  void ServeConnection(const std::shared_ptr<TcpStream>& stream);

  ServerOptions options_;
  std::unique_ptr<core::CloudService> service_;
  std::mutex service_mutex_;
  TcpStream* current_reply_target_ = nullptr;  // guarded by service_mutex_
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;
  std::vector<std::weak_ptr<TcpStream>> active_streams_;  // guarded by threads_mutex_
  std::atomic<bool> stopping_{false};
};

/// The edge process: owns the IC cache, terminates clients, forwards
/// misses upstream.
class EdgeServer {
 public:
  EdgeServer(ServerOptions options, core::EdgeService::Config service_config,
             SocketAddress cloud_address);
  ~EdgeServer();

  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  /// Connects upstream, binds, and starts serving.
  Status Start();
  void Stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] core::EdgeService& service() noexcept { return *service_; }

 private:
  void AcceptLoop();
  void ServeClient(std::shared_ptr<TcpStream> stream);
  void CloudReplyLoop();
  /// Writes a reply (head, then tail) to the connection its request
  /// came in on.
  void RouteToClient(const Frame& frame, const Frame& tail);

  ServerOptions options_;
  core::EdgeService::Config service_config_;
  SocketAddress cloud_address_;
  std::unique_ptr<core::EdgeService> service_;
  std::mutex service_mutex_;
  TcpStream upstream_;
  std::mutex upstream_write_mutex_;
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::thread cloud_reply_thread_;
  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;
  std::vector<std::weak_ptr<TcpStream>> active_streams_;  // guarded by threads_mutex_
  /// request id -> client connection awaiting the reply.
  std::mutex routes_mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<TcpStream>> routes_;
  std::atomic<bool> stopping_{false};
};

/// Blocking client for the live deployment. Single-threaded: each call
/// sends one request and pumps the socket until its reply arrives.
class LiveClient {
 public:
  struct Options {
    SocketAddress edge;
    core::CoicClient::Config client;
  };

  /// Connects; randomizes the request-id base unless the caller pinned
  /// one (first_request_id != 1).
  static Result<std::unique_ptr<LiveClient>> Connect(Options options);

  Result<core::RequestOutcome> Recognize(const vision::SceneParams& scene,
                                         std::string expected_label = "");
  Result<core::RequestOutcome> LoadModel(std::uint64_t model_id,
                                         const Digest128& digest);
  Result<core::RequestOutcome> FetchPanorama(std::uint64_t video_id,
                                             std::uint32_t frame_index,
                                             const proto::Viewport& viewport = {});

  /// Wall-clock time observed by the client (monotonic).
  static SimTime WallClock() noexcept;

 private:
  explicit LiveClient(TcpStream stream);

  /// Pumps frames until the pending request completes.
  Result<core::RequestOutcome> AwaitCompletion();

  TcpStream stream_;
  std::unique_ptr<core::CoicClient> client_;
  bool done_ = false;
  core::RequestOutcome outcome_;
  Status transport_error_ = Status::Ok();
};

}  // namespace coic::net
