// FederationPipeline — an N-edge cooperative cluster on the netsim
// substrate.
//
// K venues × M mobiles each, sharing one cloud. Venues are joined by a
// Topology (star / ring / full mesh / custom); each edge periodically
// gossips a CacheSummary of its content, and on a local miss a
// PeerSelectPolicy picks which peers to probe (broadcast-all,
// summary-directed, or random-k) within a per-edge probe budget and hop
// limit. Frames between non-adjacent venues ride FederatedRelay envelopes
// hop by hop along shortest paths.
//
//   mobile(v,m) —wifi— edge(v) —peer links per Topology— edge(u) ...
//                        \________ WAN ________ cloud ______/
//
// EdgeService and CloudService are reused unchanged apart from the new
// message kinds; the pipeline owns only topology, routing, gossip and
// policy wiring. It is the simulator's one wiring of client, edge and
// cloud: core::SimPipeline (one venue) and core::CoopPipeline (two) are
// thin adapters over it.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/retry.h"
#include "core/services.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "federation/peer_select.h"
#include "federation/summary.h"
#include "federation/topology.h"
#include "netsim/chaos.h"
#include "netsim/network.h"
#include "netsim/shard.h"
#include "trace/workload.h"

namespace coic::federation {

enum class TopologyKind : std::uint8_t {
  kStar = 0,
  kRing = 1,
  kFullMesh = 2,
  kCustom = 3,
};

/// The metro-LAN link regular topologies use between venues.
inline netsim::LinkConfig DefaultPeerLink() noexcept {
  netsim::LinkConfig link;
  link.bandwidth = Bandwidth::Gbps(1);
  link.propagation = Duration::Millis(1);
  return link;
}

/// Unreliable-transport knobs for the cluster. Everything defaults to
/// the reliable PR 5 wire behavior (no loss, no datagrams, no retries,
/// no acks) so existing configs stay bit-identical; `Lossy()` flips the
/// whole recovery stack on at a given loss rate.
struct FederationTransportConfig {
  /// Route frames larger than `datagram_mtu` as sequenced DatagramChunk
  /// trains whose lost chunks are NACKed and re-sent selectively
  /// (netsim::DatagramConfig); only a train recovery gives up on is left
  /// to the request retries below.
  bool datagram = false;
  Bytes datagram_mtu = 16 * 1024;
  /// Bernoulli per-frame loss applied to every link in the cluster
  /// (wifi, WAN and peer links alike — the paper's `tc netem` analogue).
  double loss_rate = 0;
  /// Client->edge timeout/retry (CoicClient::Config::retry). Disabled
  /// retries with loss_rate > 0 means lost requests never complete —
  /// only do that in tests that drive recovery by hand.
  core::RetryConfig client_retry;
  /// Edge->cloud timeout/retry (EdgeService::Config::cloud_retry). On
  /// budget exhaustion the edge promotes the oldest parked follower of
  /// the coalesced group to leader and retries its fetch.
  core::RetryConfig cloud_retry;
  /// Edge peer-probe timeout (EdgeService::Config::peer_probe_timeout):
  /// a miss whose probes all vanish falls back to the cloud instead of
  /// hanging. Infinite keeps the reply/decline accounting authoritative.
  Duration peer_probe_timeout = Duration::Infinite();
  /// Gossip ack/nack: edges piggyback SummaryAck frames (the version of
  /// the peer's summary they hold) on PeerLookup traffic; a sender that
  /// learns a peer is behind resends the full summary, rate-limited to
  /// one resend per gossip period per peer. A delta arriving over an
  /// unknown/mismatched base nacks immediately (version-0 ack).
  bool summary_ack = false;
  /// Edge admission bound (EdgeService::Config::max_pending): misses
  /// beyond this many in-flight forwards are shed with an early
  /// kResourceExhausted reply instead of queued. 0 = unbounded.
  std::size_t edge_max_pending = 0;
  /// Edge->cloud circuit breaker (EdgeService::Config): this many
  /// consecutive cloud-fetch failures open the circuit for
  /// `breaker_open_duration`, then a single half-open probe decides
  /// between closing and re-opening. 0 = breaker off.
  std::uint32_t breaker_failure_threshold = 0;
  Duration breaker_open_duration = Duration::Millis(2000);
  /// Per-request latency budget stamped on the wire by every client
  /// (CoicClient::Config::deadline); the edge sheds expired work before
  /// spending a cloud fetch on it. Zero = no deadlines.
  Duration client_deadline = Duration::Zero();
  /// Clients degrade overload/breaker rejects into on-device results
  /// (ResultSource::kLocal) instead of error outcomes.
  bool client_local_fallback = false;
  /// Age out a peer's summary when nothing has been received from it for
  /// this long (checked each gossip round) — the crashed-edge seam:
  /// probes stop chasing a dead venue, and its rejoin starts from a
  /// full-summary first contact. Infinite never ages.
  Duration summary_max_age = Duration::Infinite();

  /// Everything enabled, tuned for the loss sweep: datagram mode,
  /// conservative client/cloud retries (timeouts sized to sit above the
  /// lossless worst-case response so a slow reply is never mistaken for
  /// a lost one), probe timeout, and summary acks.
  static FederationTransportConfig Lossy(double loss_rate);
};

/// Multi-core execution knobs. Every run goes through one engine, the
/// conservative time-window runner in netsim/shard.h, at S shards: venue
/// v (its edge, its mobiles, their wifi links and every link the venue's
/// nodes *send* on) lives on shard v % S, each shard with its own
/// EventScheduler, Network, MetricsRegistry and tracer. With workers == 1
/// (default) that is one shard on the calling thread with no cross-shard
/// traffic — the reference the 1-vs-N determinism pins diff against.
/// Only RunOpenLoop runs at S > 1 (the closed loop is one-request-at-a-
/// time by definition).
struct ExecutionConfig {
  /// Worker threads; clamped to the venue count (a shard owns >= 1
  /// venue). 1 = one shard, no worker threads spawned.
  std::uint32_t workers = 1;
  enum class Mode : std::uint8_t {
    /// Window = the cluster's cross-shard lookahead (min propagation of
    /// any cross-shard link): outcomes are bit-identical to the
    /// one-shard run.
    kDeterministic = 0,
    /// Window = `fast_window`, typically much wider than the lookahead:
    /// cross-shard arrivals that land in the receiver's past are clamped
    /// to "now", so per-request latencies shift by up to one window;
    /// only aggregate invariants (ops completed, conservation counts)
    /// are pinned. Fewer barriers -> higher events/sec.
    kFast = 1,
  };
  Mode mode = Mode::kDeterministic;
  Duration fast_window = Duration::Millis(8);
};

struct FederationPipelineConfig {
  /// Venues (edges) in the cluster.
  std::uint32_t venues = 4;
  /// Mobiles attached to each venue.
  std::uint32_t mobiles_per_venue = 1;
  /// Every client's offload mode: CoIC (descriptor first, the edge cache
  /// in the loop) or Origin (raw input to the cloud, the baseline the
  /// Figure 2 reductions are measured against).
  proto::OffloadMode client_mode = proto::OffloadMode::kCoic;
  /// Per-venue access + WAN bandwidths (venues symmetric).
  core::NetworkCondition network{Bandwidth::Mbps(100), Bandwidth::Mbps(10)};
  TopologyKind topology = TopologyKind::kFullMesh;
  /// Edge-to-edge link used by the regular topologies.
  netsim::LinkConfig peer_link = DefaultPeerLink();
  /// kCustom adjacency (per-link bandwidth/propagation).
  std::vector<TopologyLink> custom_links;
  /// Disable to measure the non-cooperative baseline on an identical
  /// topology (misses go straight to the cloud).
  bool cooperative = true;
  PeerSelectConfig policy;
  /// Per-request cap on peer probes at each edge.
  std::uint32_t probe_budget = 8;
  /// Same-key request coalescing at every edge (see EdgeService::Config)
  /// — N concurrent misses on one object share a single peer-probe round
  /// / cloud fetch. Invisible in the closed loop; under open-loop storms
  /// it cuts duplicate upstream traffic.
  bool coalesce_requests = true;
  /// Peers farther than this many topology hops are never probed or
  /// gossiped to.
  std::uint32_t hop_limit = 8;
  /// Cache-summary gossip period; Infinite disables gossip entirely
  /// (summary-directed selection then degenerates to cloud-only misses).
  /// The closed loop drives gossip rounds from the operation loop (at
  /// most one round per period, at issue time); the open loop runs one
  /// free-running timer per shard, cancelled once the workload is done
  /// so the schedulers drain.
  Duration gossip_period = Duration::Millis(250);
  BloomFilterConfig bloom;
  /// Delta gossip: when true, an edge whose peer already holds its
  /// previous summary version sends a SummaryDeltaUpdate (just the
  /// content-hash keys inserted since, plus replacement centroid
  /// sketches) instead of re-shipping the whole Bloom bit array, and
  /// skips the send entirely when the peer is already current. Falls
  /// back to a full SummaryUpdate per peer when the base version is
  /// unknown (first contact), the cache change journal overflowed or is
  /// disabled, any key was erased since the base (Bloom bits only
  /// compose under insertion), a periodic refresh is due, or the delta
  /// would not be smaller than the full frame. Off by default — full
  /// gossip is the original wire behavior, kept bit-identical.
  bool delta_gossip = false;
  /// With delta gossip (version-gated) on lossy links a dropped frame
  /// would strand a peer on an old base forever: sent-state is
  /// sent-not-acked, so the sender believes the peer is current, skips
  /// it every round, and — once the cache quiesces — never sends
  /// again. Forcing a full summary every Nth gossip *round*
  /// per peer (counting quiet rounds, which is exactly when a stranded
  /// peer would otherwise be unreachable) bounds that divergence; 0
  /// (default) never forces — the netsim peer links are reliable.
  std::uint32_t delta_full_refresh_rounds = 0;
  /// Peer-aware eviction: wire each edge cache's replicated-entry hint
  /// to the 1-hop neighbors' gossiped Bloom filters, so eviction prefers
  /// victims some adjacent peer also advertises over cluster-unique
  /// entries (which would cost a cloud fetch to recover). Off by
  /// default — byte-identical victim choice to every earlier PR.
  bool peer_aware_eviction = false;
  /// Peer-hit adoption filter (EdgeService::Config::peer_hit_adopt_min_uses):
  /// skip the local cache insert when a peer hit resolves a key this
  /// edge has seen fewer than this many times — low-reuse content stays
  /// single-copy in the cluster instead of being replicated on first
  /// touch. 0 (default) always adopts, the original behavior.
  std::uint32_t peer_hit_adopt_min_uses = 0;
  /// Loss / datagram / retry / ack behavior; defaults are the reliable
  /// PR 5 transport, bit-identical outcomes included.
  FederationTransportConfig transport;
  /// Request-lifecycle tracing (obs::RequestTracer). Disabled by default:
  /// no tracer is constructed at all and every instrumentation site in
  /// the client/edge hot paths pays a single null-pointer test.
  obs::TraceConfig trace;
  /// Scripted fault injection (crashes, partitions, brownouts, loss
  /// bursts), armed on the scheduler at construction. Empty = no chaos.
  netsim::FaultSchedule chaos;
  /// Multi-core sharding (see ExecutionConfig). Defaults to one worker.
  ExecutionConfig execution;
  core::CostModel costs;
  cache::IcCacheConfig cache;
  vision::FeatureExtractorConfig extractor;
  std::uint32_t recognition_classes = 20;
  Duration mobile_edge_propagation = core::kMobileEdgePropagation;
  Duration edge_cloud_propagation = core::kEdgeCloudPropagation;
};

/// A RequestOutcome tagged with the venue that issued it.
struct FederationOutcome {
  std::uint32_t venue = 0;
  core::RequestOutcome outcome;
  /// Sim time the outcome was delivered — the chaos soak derives
  /// post-heal recovery curves from the completion stream.
  SimTime completed_at;
};

/// Engine counters from the most recent Run or RunOpenLoop (named for the
/// throughput regime, where they matter).
struct OpenLoopStats {
  /// Operations replayed.
  std::uint64_t operations = 0;
  /// High-water mark of concurrently in-flight operations — the queueing
  /// depth the closed loop (always 1) never exercises. Each shard tracks
  /// its own mark and this is their *sum* (the instants need not
  /// coincide): exact at one shard, an upper bound on the true
  /// cluster-wide mark at more.
  std::uint32_t max_inflight = 0;
  /// Per-edge gossip firings in either loop, round 0 included.
  std::uint64_t gossip_rounds = 0;
  /// First scheduled arrival and last operation completion, for
  /// achieved-throughput computation.
  SimTime first_arrival;
  SimTime last_completion;
  /// Scheduler actions executed during the run (simulator work, for
  /// wall-clock events/sec reporting), summed over shards.
  std::uint64_t events_fired = 0;
  /// Scheduler actions per worker thread (one entry per shard).
  std::vector<std::uint64_t> per_worker_events_fired;
  /// Synchronization barrier rounds (a one-shard run still counts the
  /// windows it stepped through) and frames that crossed a shard
  /// boundary (always 0 at one shard).
  std::uint64_t sync_windows = 0;
  std::uint64_t cross_shard_messages = 0;
  /// Recognition frames synthesized and described by the parallel
  /// pre-run pass: every queued recognition in CoIC mode, 0 in Origin
  /// mode or with no recognitions queued.
  std::uint64_t frames_described = 0;
};

class FederationPipeline {
 public:
  explicit FederationPipeline(FederationPipelineConfig config);

  /// Registers a model with the shared cloud store; returns its digest.
  Digest128 RegisterModel(std::uint64_t model_id, Bytes serialized_size);

  /// Enqueue operations. `at` is the trace arrival time: RunOpenLoop
  /// issues the operation at that instant; the closed-loop Run ignores it
  /// (operations go one at a time, back to back).
  void EnqueueRecognitionAt(std::uint32_t venue,
                            const vision::SceneParams& scene,
                            std::uint32_t mobile = 0,
                            SimTime at = SimTime::Epoch());
  void EnqueueRenderAt(std::uint32_t venue, std::uint64_t model_id,
                       std::uint32_t mobile = 0,
                       SimTime at = SimTime::Epoch());
  void EnqueuePanoramaAt(std::uint32_t venue, std::uint64_t video_id,
                         std::uint32_t frame_index, std::uint32_t mobile = 0,
                         SimTime at = SimTime::Epoch(),
                         const proto::Viewport& viewport = {});

  /// Queues a cluster-trace record at its placed venue (arrival time
  /// preserved for open-loop replay); render records must reference a
  /// registered model.
  void EnqueuePlaced(const trace::PlacedRecord& placed);

  /// Closed loop: runs all queued operations one at a time (the paper's
  /// latency-study regime); outcomes in issue order. Gossip rounds are
  /// driven from the operation loop. One shard only. CHECK-fails with
  /// the stuck request ids if any operation never completes.
  std::vector<FederationOutcome> Run();

  /// Open loop: schedules every queued operation at its arrival time —
  /// many requests in flight per venue and per mobile — with cache
  /// summaries gossiped on one free-running timer per shard. Timers are
  /// cancelled once the last operation completes, so every scheduler
  /// drains fully (pending() == 0 afterwards). Outcomes are in canonical
  /// (completed_at, venue) order at every shard count; open_loop_stats()
  /// reports concurrency, gossip rounds and events fired. CHECK-fails
  /// with the stuck request ids if any operation never completes.
  std::vector<FederationOutcome> RunOpenLoop();

  [[nodiscard]] const OpenLoopStats& open_loop_stats() const noexcept {
    return open_loop_;
  }

  [[nodiscard]] core::EdgeService& edge(std::uint32_t venue);
  [[nodiscard]] const core::EdgeService& edge(std::uint32_t venue) const {
    return *edges_.at(venue);
  }
  [[nodiscard]] core::CloudService& cloud() noexcept { return *cloud_; }
  /// Shard 0's scheduler (the only one at workers == 1).
  [[nodiscard]] netsim::EventScheduler& scheduler() noexcept {
    return shards_.front()->sched;
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const FederationPipelineConfig& config() const noexcept {
    return config_;
  }

  /// Probe traffic across the whole cluster (sum of per-edge counters).
  [[nodiscard]] std::uint64_t total_peer_probes() const;
  [[nodiscard]] std::uint64_t total_peer_hits() const;
  /// Misses that coalesced onto an in-flight same-key fetch, cluster-wide.
  [[nodiscard]] std::uint64_t total_coalesced_requests() const;
  /// Requests forwarded to the cloud, cluster-wide (the traffic request
  /// coalescing exists to cut).
  [[nodiscard]] std::uint64_t total_cloud_forwards() const;
  /// SummaryUpdate messages sent (gossip overhead). With delta gossip
  /// this counts full summaries only; deltas are tallied separately.
  /// Summed over shards in sharded runs, as are all gossip counters
  /// below.
  [[nodiscard]] std::uint64_t summary_updates_sent() const noexcept;
  /// SummaryDeltaUpdate messages sent (delta gossip only).
  [[nodiscard]] std::uint64_t summary_deltas_sent() const noexcept;
  /// Encoded bytes of full-summary / delta-summary frames handed to the
  /// peer links (relay wrappers excluded) — the wire cost the delta
  /// ablation compares.
  [[nodiscard]] std::uint64_t summary_bytes_full() const noexcept;
  [[nodiscard]] std::uint64_t summary_bytes_delta() const noexcept;
  /// Venue `venue`'s view of its peers' summaries (tests compare delta-
  /// built tables against full-gossip tables byte for byte).
  [[nodiscard]] const SummaryTable& summary_table(std::uint32_t venue) const {
    return summary_tables_.at(venue);
  }
  /// Relay forwards performed by intermediate venues.
  [[nodiscard]] std::uint64_t relay_forwards() const noexcept;

  /// Always 0 (two-tier gossip is gone); benchmark/coic_bench.cc reads them.
  [[nodiscard]] std::uint64_t region_digests_sent() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t region_digest_bytes() const noexcept { return 0; }
  /// Arena recycling stats summed over shards (bench_micro rows).
  [[nodiscard]] std::uint64_t arena_reuses() const noexcept;
  [[nodiscard]] std::uint64_t arena_allocations() const noexcept;

  /// SummaryAck frames piggybacked on peer traffic (transport.summary_ack).
  [[nodiscard]] std::uint64_t summary_acks_sent() const noexcept;
  /// Targeted full-summary resends triggered by a behind/zero ack.
  [[nodiscard]] std::uint64_t summary_ack_resends() const noexcept;
  /// Peer summaries dropped by the max-age sweep.
  [[nodiscard]] std::uint64_t summaries_aged_out() const noexcept;

  /// The cluster-wide metrics registry: every edge/client/gossip counter
  /// under a dotted path ("edge.2.forwards", "client.0.3.timeouts",
  /// "gossip.relay_forwards"), plus samplers over storage that lives
  /// elsewhere ("net.datagram.*", "net.links.frames_lost", "frame.*",
  /// "cloud.tasks_executed"). Snapshot()/DiffSince replace the manual
  /// record-before/subtract-after dance in benches.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return *shards_.front()->metrics;
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept {
    return *shards_.front()->metrics;
  }
  /// Counter values summed per path across every shard's registry — the
  /// cluster-wide view. Identical to metrics().Snapshot() at one shard.
  [[nodiscard]] obs::MetricsSnapshot MergedMetricsSnapshot() const;
  /// The request tracer, or nullptr when config.trace.enabled is false.
  /// Shard 0's ring in sharded runs; DumpChromeTrace() merges all shards.
  [[nodiscard]] obs::RequestTracer* tracer() noexcept {
    return shards_.front()->tracer.get();
  }
  /// Chrome trace-event JSON with every shard's spans on one timeline
  /// (sim clocks are a shared virtual time, so stamps compose directly).
  /// "{}" when tracing is disabled.
  [[nodiscard]] std::string DumpChromeTrace() const;

  /// Cluster-wide transport counters (sums over clients / edges).
  [[nodiscard]] std::uint64_t total_client_retransmissions() const;
  [[nodiscard]] std::uint64_t total_client_timeouts() const;
  [[nodiscard]] std::uint64_t total_cloud_retransmissions() const;
  [[nodiscard]] std::uint64_t total_cloud_timeouts() const;
  [[nodiscard]] std::uint64_t total_leader_promotions() const;
  [[nodiscard]] std::uint64_t total_grace_hits() const;

  /// Cluster-wide overload-control counters: edge-side sheds (admission
  /// + deadline + breaker) and client-side overload rejects received.
  [[nodiscard]] std::uint64_t total_overload_sheds() const;
  [[nodiscard]] std::uint64_t total_overload_rejects() const;

  /// Shard 0's counted chaos engine, or nullptr when config.chaos is
  /// empty. The full schedule at one shard; sharded runs split the
  /// schedule, so use chaos_events_fired() for cluster totals.
  [[nodiscard]] netsim::ChaosEngine* chaos() noexcept {
    return counted_chaos_.empty() ? nullptr : counted_chaos_.front().get();
  }
  /// Chaos events fired cluster-wide (summed over the counted engines).
  [[nodiscard]] std::uint64_t chaos_events_fired() const noexcept;

  /// Shards in the execution plan (1 = everything on the calling thread).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Simulator access for fault-injection tests (ForceDropNext / SetDown
  /// on specific links) and the loss-sweep bench. Shard 0's network.
  [[nodiscard]] netsim::Network& network() noexcept {
    return shards_.front()->net;
  }
  /// The network replica of the shard that owns `venue`'s nodes (equal
  /// to network() at one shard), e.g. to wrap its edge's handler.
  [[nodiscard]] netsim::Network& venue_network(std::uint32_t venue) {
    COIC_CHECK(venue < config_.venues);
    return NetOf(venue);
  }
  [[nodiscard]] netsim::NodeId cloud_node() const noexcept {
    return cloud_node_;
  }
  [[nodiscard]] netsim::NodeId edge_node(std::uint32_t venue) const {
    return edge_nodes_.at(venue);
  }
  [[nodiscard]] netsim::NodeId mobile_node(std::uint32_t venue,
                                           std::uint32_t mobile) const {
    return mobile_nodes_.at(ClientIndex(venue, mobile));
  }
  [[nodiscard]] core::CoicClient& client(std::uint32_t venue,
                                         std::uint32_t mobile) {
    return *clients_.at(ClientIndex(venue, mobile));
  }

 private:
  /// One queued operation, held inline: enqueueing allocates nothing.
  struct Op {
    enum class Kind : std::uint8_t { kRecognition, kRender, kPanorama };
    Kind kind = Kind::kRecognition;
    std::uint32_t venue = 0;
    std::uint32_t client = 0;  ///< ClientIndex of the issuing mobile.
    SimTime at;                ///< Arrival time; only RunOpenLoop honors it.
    /// Recognition: the scene, and its CoIC descriptor once
    /// DescribeQueuedScenes has filled the slot (empty until then).
    vision::SceneParams scene;
    std::vector<float> descriptor;
    /// Render: model id and asset digest. Panorama: video id, frame and
    /// viewport.
    std::uint64_t object_id = 0;
    Digest128 digest;
    std::uint32_t frame_index = 0;
    proto::Viewport viewport;
  };

  /// One shard's gossip counter cells, bound once at shard construction
  /// (same paths as ever; the public accessors sum the cells over
  /// shards).
  struct GossipCounters {
    explicit GossipCounters(obs::MetricsRegistry& m)
        : summary_updates_sent(m.GetCounter("gossip.summary_updates_sent")),
          summary_deltas_sent(m.GetCounter("gossip.summary_deltas_sent")),
          summary_bytes_full(m.GetCounter("gossip.summary_bytes_full")),
          summary_bytes_delta(m.GetCounter("gossip.summary_bytes_delta")),
          relay_forwards(m.GetCounter("gossip.relay_forwards")),
          summary_acks_sent(m.GetCounter("gossip.summary_acks_sent")),
          summary_ack_resends(m.GetCounter("gossip.summary_ack_resends")),
          summaries_aged_out(m.GetCounter("gossip.summaries_aged_out")) {}
    obs::Counter& summary_updates_sent;
    obs::Counter& summary_deltas_sent;
    obs::Counter& summary_bytes_full;
    obs::Counter& summary_bytes_delta;
    obs::Counter& relay_forwards;
    obs::Counter& summary_acks_sent;
    obs::Counter& summary_ack_resends;
    obs::Counter& summaries_aged_out;
  };

  /// Everything one worker thread owns: a scheduler, a full replica of
  /// the cluster Network (every shard adds all nodes in the same order,
  /// so node ids match; it only *creates* the links its own nodes send
  /// on), a metrics shard, a tracer ring, and the live run counters. A
  /// workers == 1 pipeline is exactly one of these.
  struct ShardState {
    explicit ShardState(const obs::TraceConfig& trace)
        : metrics(std::make_unique<obs::MetricsRegistry>()),
          tracer(trace.enabled ? std::make_unique<obs::RequestTracer>(trace)
                               : nullptr),
          gossip(*metrics),
          install_memo(metrics->GetCounter("client.model_parses")) {}
    netsim::EventScheduler sched;
    netsim::Network net{sched};
    /// unique_ptrs: edges and clients bind Counter& cells (and hold the
    /// tracer pointer) for their whole lifetime, so both need stable
    /// addresses that outlive the actors.
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::unique_ptr<obs::RequestTracer> tracer;
    GossipCounters gossip;
    /// Model parse verdicts shared by every client homed on this shard.
    core::ModelInstallMemo install_memo;
    /// Recycles the small control-frame buffers (probes, acks)
    /// this shard's venues encode. The deleter-based free list is
    /// thread-safe, so a frame whose last reference drops on another
    /// shard still recycles here without a race.
    FrameArena arena;
    std::vector<std::uint32_t> venues;  ///< Venues homed on this shard.
    std::vector<FederationOutcome> outcomes;
    std::uint32_t inflight = 0;
    std::uint32_t max_inflight = 0;
    std::uint64_t completed = 0;
    std::uint64_t gossip_rounds = 0;
    SimTime last_completion;
  };

  /// Venue -> owning shard: v % shard_count(). The venue's edge, its
  /// mobiles, and every link those nodes send on live there; cloud state
  /// (and the links the cloud sends on) is on shard 0.
  [[nodiscard]] std::uint32_t ShardIndexOf(std::uint32_t venue) const noexcept {
    return venue % static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] ShardState& ShardOf(std::uint32_t venue) noexcept {
    return *shards_[ShardIndexOf(venue)];
  }
  [[nodiscard]] const ShardState& ShardOf(std::uint32_t venue) const noexcept {
    return *shards_[ShardIndexOf(venue)];
  }
  [[nodiscard]] netsim::EventScheduler& SchedOf(std::uint32_t venue) noexcept {
    return ShardOf(venue).sched;
  }
  [[nodiscard]] netsim::Network& NetOf(std::uint32_t venue) noexcept {
    return ShardOf(venue).net;
  }
  [[nodiscard]] GossipCounters& Gc(std::uint32_t venue) noexcept {
    return ShardOf(venue).gossip;
  }
  [[nodiscard]] FrameArena& ArenaOf(std::uint32_t venue) noexcept {
    return ShardOf(venue).arena;
  }
  [[nodiscard]] obs::RequestTracer* TracerOf(std::uint32_t venue) noexcept {
    return ShardOf(venue).tracer.get();
  }

  static Topology BuildTopology(const FederationPipelineConfig& config);

  void WireCloud();
  void WireVenue(std::uint32_t venue);
  void WireClient(std::uint32_t venue, std::uint32_t mobile);

  /// Routes an edge-to-edge frame: direct when adjacent, otherwise
  /// wrapped in a FederatedRelay along the shortest path. Broadcast
  /// callers pass the same refcounted Frame for every destination. A
  /// non-empty `tail` (a peer's hit reply) reaches an adjacent peer
  /// unjoined; a relayed one is fused first.
  void SendEdgeToEdge(std::uint32_t from, std::uint32_t to, Frame frame,
                      Frame tail = {});
  void OnPeerEdgeFrame(std::uint32_t venue, std::uint32_t src_index,
                       Frame frame, Frame tail);
  /// Forwards or terminates a relay frame. Intermediate hops patch the
  /// TTL in the uniquely-held buffer and forward it (no decode, no
  /// re-encode, no copy); the terminal hop unwraps by slicing.
  /// Stamps the transport config onto the link configs (peer links must
  /// carry the loss rate before BuildTopology snapshots them).
  static FederationPipelineConfig ApplyTransport(
      FederationPipelineConfig config);

  void HandleRelayFrame(std::uint32_t venue, Frame frame);
  void HandleSummaryFrame(std::uint32_t venue, const Frame& frame);
  /// Gossip ack/nack (transport.summary_ack): `venue` tells `peer` which
  /// version of peer's summary it holds (0 = none — a nack). Piggybacked
  /// on every peer-bound lookup frame, deduplicated by last version
  /// acked; `force` bypasses the dedup (delta-over-bad-base nacks).
  void MaybeSendSummaryAck(std::uint32_t venue, std::uint32_t peer,
                           bool force);
  /// Handles a SummaryAck about `venue`'s own summary: when the acker
  /// holds an older version than what was already sent, the gossip frame
  /// was lost — resend the full summary, rate-limited per peer. Inert
  /// under full gossip, which records no sent-state.
  void HandleSummaryAck(std::uint32_t venue, const Frame& frame);
  /// Drops peer summaries older than transport.summary_max_age (the
  /// crashed-edge aging sweep); runs at each gossip round.
  void AgeOutSummaries(std::uint32_t venue);

  /// One gossip round for `venue`: age out silent peers, rebuild the
  /// summary on change, send each reachable peer nothing, a delta or the
  /// full summary (ChooseSummarySend).
  void GossipEdge(std::uint32_t venue);
  /// One peer's share of a gossip round (`delta` set for kDelta).
  struct SummarySend {
    enum Kind : std::uint8_t { kNothing, kDelta, kFull } kind = kNothing;
    const Frame* delta = nullptr;
  };
  /// A round's delta frames by base version (empty = none viable).
  using DeltaMemo = std::unordered_map<std::uint64_t, Frame>;
  /// The per-peer send rule. Full gossip: full, every round. Delta
  /// gossip (version-gated): full when a refresh is due; else nothing
  /// when the peer holds the current version (a quiet round, counted
  /// toward the refresh); else a delta when one is viable and smaller;
  /// else full.
  [[nodiscard]] SummarySend ChooseSummarySend(std::uint32_t venue,
                                              std::uint32_t peer,
                                              DeltaMemo& memo);
  /// Sends `venue`'s memoized full summary to `peer`, counting it and,
  /// under delta gossip, recording the peer's sent-state.
  void SendFullSummary(std::uint32_t venue, std::uint32_t peer);
  /// Rebuilds venue's summary + memoized full frame if the cache changed
  /// since the last build.
  void RefreshSummary(std::uint32_t venue);
  /// Diagnostic for a stranded run (either loop): names the stuck request
  /// ids, per-venue pending counts and any operations never issued.
  [[nodiscard]] std::string StrandedDiagnostic() const;
  /// Runs a gossip round if the period elapsed (called between ops).
  void MaybeGossip();
  /// Gossips `shard`'s venues ascending, one counted round each: the
  /// open loop's round 0 and timers and the closed loop's MaybeGossip.
  void GossipShardRound(std::uint32_t shard);
  /// True when the config calls for summary gossip at all.
  [[nodiscard]] bool GossipEnabled() const noexcept;
  /// True when the transport can lose or duplicate frames — reply-route
  /// misses are then expected races, not wiring bugs.
  [[nodiscard]] bool LossyTransport() const noexcept {
    return config_.transport.loss_rate > 0 ||
           config_.transport.client_retry.enabled() ||
           config_.transport.cloud_retry.enabled();
  }
  /// Free-running batched gossip timer (open-loop regime): one per
  /// shard, gossiping the shard's venues in ascending order every
  /// gossip_period. The runner detects stalls itself.
  void ArmGossipTimer(std::uint32_t shard);
  /// Cancels `shard`'s timer only (a scheduler may only be touched from
  /// its owning worker thread).
  void StopGossipTimer(std::uint32_t shard);
  /// Appends an op of `kind` for (venue, mobile) arriving at `at`; the
  /// caller fills its kind-specific fields.
  Op& PushOp(Op::Kind kind, std::uint32_t venue, std::uint32_t mobile,
             SimTime at);
  /// Starts `op` on its venue's shard and counts its completion there;
  /// in the closed loop the completion issues the next operation.
  void StartOp(Op op, bool closed_loop);
  /// Closed loop: gossips if due, then starts the next queued operation.
  void IssueNext();
  /// Fills the descriptor slot of every queued CoIC recognition with
  /// its client's DescribeScene, on min(hardware threads, slots) threads
  /// (the caller among them), before any scheduler runs; returns the
  /// slots filled. Each descriptor is a pure function of its scene, so
  /// outcomes do not depend on it; it only takes frame synthesis and
  /// extraction off the simulator's single-threaded critical path.
  std::uint64_t DescribeQueuedScenes();

  /// Splits config_.chaos across shards: each fault is armed *counted*
  /// on its home shard (with that shard's metrics/tracer and, for
  /// crashes, the cache wipe) and *silent* on every other shard that
  /// replicates one of its links.
  void ArmChaos();
  /// The runner's synchronization window. Deterministic sharding: the
  /// smallest propagation delay of any link whose endpoints live on
  /// different shards (the conservative lookahead); fast mode:
  /// fast_window; one shard: a WAN hop (nothing crosses, so any finite
  /// window is exact).
  [[nodiscard]] Duration SyncWindow() const;
  [[nodiscard]] std::uint64_t TotalCompleted() const noexcept;
  /// The one run loop behind Run and RunOpenLoop: describes the queued
  /// recognition frames (DescribeQueuedScenes), issues the queued
  /// operations (closed loop: one at a time; open loop: each at its
  /// arrival on its venue's shard), drives every shard's scheduler
  /// through a netsim::ShardRunner (shard 0 on the calling thread, one
  /// worker thread per further shard), CHECKs that every operation
  /// completed, and merges the outcomes and stats.
  std::vector<FederationOutcome> Drive(bool closed_loop);

  [[nodiscard]] std::uint32_t ClientIndex(std::uint32_t venue,
                                          std::uint32_t mobile) const {
    return venue * config_.mobiles_per_venue + mobile;
  }

  FederationPipelineConfig config_;
  Topology topology_;
  /// Execution shards, built before any actor. Exactly one at
  /// workers == 1. unique_ptrs: ShardState pins the addresses of
  /// its scheduler/network/registry, which everything else binds.
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Owning shard of every node id (ids are identical across the shard
  /// network replicas).
  std::vector<std::uint32_t> node_shard_;
  netsim::NodeId cloud_node_ = 0;
  std::vector<netsim::NodeId> edge_nodes_;
  std::vector<netsim::NodeId> mobile_nodes_;  ///< Indexed by ClientIndex.
  std::unique_ptr<core::CloudService> cloud_;
  /// Per-shard chaos engines (empty without a schedule); see ArmChaos().
  std::vector<std::unique_ptr<netsim::ChaosEngine>> counted_chaos_;
  std::vector<std::unique_ptr<netsim::ChaosEngine>> silent_chaos_;
  /// Non-null only inside Drive: the shard networks' remote-dispatch
  /// hooks feed it.
  netsim::ShardRunner* runner_ = nullptr;
  std::vector<std::unique_ptr<core::EdgeService>> edges_;
  std::vector<std::unique_ptr<core::CoicClient>> clients_;
  /// Peers each venue may probe (within hop_limit), ascending.
  std::vector<std::vector<std::uint32_t>> reachable_;
  /// Per venue, the summaries received from its peers (the send side
  /// lives in gossip_).
  std::vector<SummaryTable> summary_tables_;
  std::vector<std::unique_ptr<PeerSelectPolicy>> policies_;
  /// request id -> issuing mobile node, per venue (several mobiles share
  /// one edge, so client replies are routed like cloud replies are).
  std::vector<std::unordered_map<std::uint64_t, netsim::NodeId>> client_routes_;

  /// What a venue knows about one peer, gossip-wise.
  struct PeerGossip {
    /// Version-gated sent-state: summary version last sent (0 = none, so
    /// first contact is full), the journal cursor at that version's build
    /// (where the next delta slice starts), and rounds since the last
    /// full send, quiet rounds included (delta_full_refresh_rounds).
    std::uint64_t sent_version = 0;
    std::uint64_t journal_cursor = 0;
    std::uint32_t rounds_since_full = 0;
    /// Last version of the peer's summary acked to it; UINT64_MAX =
    /// never, so the first ack goes out even at version 0 — that
    /// zero-ack is how a peer learns its first gossip frame was lost.
    std::uint64_t ack_sent_version = UINT64_MAX;
    /// Last summary frame from the peer (age-out sweep), and the earliest
    /// time an ack may trigger a resend to it.
    SimTime received_at = SimTime::Epoch();
    SimTime next_ack_resend_at = SimTime::Epoch();
  };
  /// A venue's own gossip build state plus its per-peer records.
  struct VenueGossip {
    /// The last built summary (deltas read it), its memoized SummaryUpdate
    /// frame that a round fans to every peer, the cache insert+evict count
    /// it digested (rebuilt only when that moves), and the cache journal
    /// cursor at that build.
    std::uint64_t version = 0;
    CacheSummary summary;
    Frame frame;
    std::uint64_t mutations = 0;
    std::uint64_t journal_cursor = 0;
    /// Indexed by peer venue.
    std::vector<PeerGossip> peers;
  };
  /// Indexed by venue; each entry is touched only on its venue's shard.
  std::vector<VenueGossip> gossip_;
  std::unordered_map<std::uint64_t, Digest128> model_digests_;
  SimTime next_gossip_ = SimTime::Epoch();
  std::deque<Op> ops_;
  /// Open-loop state: one armed batched timer per shard (0 = none;
  /// empty outside an open-loop run).
  /// Each entry is written only by its owning shard — distinct vector
  /// elements are distinct objects, so no cross-thread race. Live run
  /// counters and outcomes live per shard (ShardState) and merge after
  /// the run.
  std::vector<netsim::EventId> gossip_timers_;
  OpenLoopStats open_loop_;
  std::uint64_t expected_ = 0;
};

}  // namespace coic::federation
