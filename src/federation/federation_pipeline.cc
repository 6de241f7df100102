#include "federation/federation_pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <iterator>
#include <string>
#include <thread>

#include "common/log.h"

namespace coic::federation {
namespace {

using core::CloudService;
using core::CoicClient;
using core::EdgeService;
using proto::MessageType;
using proto::PeekMessageType;
using proto::PeekRequestId;

}  // namespace

FederationTransportConfig FederationTransportConfig::Lossy(double loss_rate) {
  FederationTransportConfig t;
  t.datagram = true;
  t.loss_rate = loss_rate;
  // Timeouts sit well above the lossless worst-case response time (a
  // multi-MB model over a 10 Mbps WAN takes seconds), so a slow reply is
  // never mistaken for a lost one — spurious retransmits would inflate
  // load and distort the sweep. Lost frames pay the timeout; that is the
  // p99 story the loss bench tells.
  t.client_retry.timeout = Duration::Millis(10'000);
  t.client_retry.max_retries = 4;
  t.client_retry.max_timeout = Duration::Millis(40'000);
  t.cloud_retry.timeout = Duration::Millis(4'000);
  t.cloud_retry.max_retries = 3;
  t.cloud_retry.max_timeout = Duration::Millis(16'000);
  t.peer_probe_timeout = Duration::Millis(500);
  t.summary_ack = true;
  return t;
}

FederationPipelineConfig FederationPipeline::ApplyTransport(
    FederationPipelineConfig config) {
  // Peer-link loss has to be stamped before BuildTopology snapshots the
  // link configs into the Topology (the constructor's init order).
  const double loss = config.transport.loss_rate;
  if (loss > 0) {
    config.peer_link.loss_rate = loss;
    for (TopologyLink& l : config.custom_links) l.link.loss_rate = loss;
  }
  return config;
}

Topology FederationPipeline::BuildTopology(
    const FederationPipelineConfig& config) {
  switch (config.topology) {
    case TopologyKind::kStar:
      return Topology::Star(config.venues, config.peer_link);
    case TopologyKind::kRing:
      return Topology::Ring(config.venues, config.peer_link);
    case TopologyKind::kFullMesh:
      return Topology::FullMesh(config.venues, config.peer_link);
    case TopologyKind::kCustom:
      return Topology::Custom(config.venues, config.custom_links);
  }
  COIC_CHECK_MSG(false, "unknown topology kind");
  return Topology::FullMesh(config.venues, config.peer_link);
}

FederationPipeline::FederationPipeline(FederationPipelineConfig config)
    : config_(ApplyTransport(std::move(config))),
      topology_(BuildTopology(config_)) {
  COIC_CHECK(config_.venues >= 1);
  COIC_CHECK(config_.mobiles_per_venue >= 1);
  COIC_CHECK(config_.probe_budget >= 1);
  if (config_.delta_gossip && config_.cache.journal_capacity == 0) {
    // Delta gossip needs the cache change journal; without one every
    // send would fall back to a full summary. Journaling is off by
    // default so non-delta caches pay nothing — enable a window deep
    // enough to cover any realistic gossip period here.
    config_.cache.journal_capacity = 4096;
  }

  // Execution plan: venue v (its edge, its mobiles, every link those
  // nodes send on) lives on shard v % S; the cloud and its outbound
  // links live on shard 0. One shard runs on the calling thread.
  const std::uint32_t shard_count =
      config_.execution.workers <= 1
          ? 1u
          : std::min(config_.execution.workers, config_.venues);
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<ShardState>(config_.trace));
  }
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    ShardOf(v).venues.push_back(v);
  }

  // Every shard's Network replica adds ALL nodes in the same order, so a
  // node id names the same endpoint on every shard (cross-shard messages
  // carry ids verbatim); node_shard_ records the owner.
  const auto add_node = [this](const std::string& name, std::uint32_t shard) {
    netsim::NodeId id = 0;
    for (auto& sh : shards_) id = sh->net.AddNode(name);
    node_shard_.push_back(shard);
    return id;
  };

  cloud_node_ = add_node("cloud", 0);
  edge_nodes_.reserve(config_.venues);
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    edge_nodes_.push_back(
        add_node("edge" + std::to_string(v), ShardIndexOf(v)));
  }
  mobile_nodes_.resize(
      static_cast<std::size_t>(config_.venues) * config_.mobiles_per_venue);
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      mobile_nodes_[ClientIndex(v, m)] =
          add_node("mobile" + std::to_string(v) + "_" + std::to_string(m),
                   ShardIndexOf(v));
    }
  }

  netsim::LinkConfig wifi;
  wifi.bandwidth = config_.network.mobile_edge;
  wifi.propagation = config_.mobile_edge_propagation;
  netsim::LinkConfig wan;
  wan.bandwidth = config_.network.edge_cloud;
  wan.propagation = config_.edge_cloud_propagation;
  if (config_.transport.loss_rate > 0) {
    // Per-link rng decorrelation happens inside Network::ConnectOneWay.
    wifi.loss_rate = config_.transport.loss_rate;
    wan.loss_rate = config_.transport.loss_rate;
  }
  // A directed link is created only on the shard that owns its *sender*:
  // the sending side runs the link model (serialization, loss, delivery
  // stamp); cross-shard frames are handed over already stamped. Link rng
  // seeds mix only the directed node pair, so the per-shard split seeds
  // identically to the single-network engine. Creation order matches the
  // old single-network Connect expansion exactly (same links_ insertion
  // order, hence identical ForEachLink iteration for chaos all_links).
  const auto connect = [this](netsim::NodeId from, netsim::NodeId to,
                              const netsim::LinkConfig& link) {
    shards_[node_shard_[from]]->net.ConnectOneWay(from, to, link);
  };
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    connect(edge_nodes_[v], cloud_node_, wan);
    connect(cloud_node_, edge_nodes_[v], wan);
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      connect(mobile_nodes_[ClientIndex(v, m)], edge_nodes_[v], wifi);
      connect(edge_nodes_[v], mobile_nodes_[ClientIndex(v, m)], wifi);
    }
  }
  for (const TopologyLink& l : topology_.links()) {
    connect(edge_nodes_[l.a], edge_nodes_[l.b], l.link);
    connect(edge_nodes_[l.b], edge_nodes_[l.a], l.link);
  }
  if (config_.transport.datagram) {
    for (auto& sh : shards_) {
      sh->net.EnableDatagram(config_.transport.datagram_mtu);
    }
  }

  if (shards_.size() > 1) {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      ShardState& sh = *shards_[s];
      for (std::uint32_t n = 0;
           n < static_cast<std::uint32_t>(node_shard_.size()); ++n) {
        if (node_shard_[n] != s) sh.net.MarkRemote(n);
      }
      sh.net.SetRemoteDispatch([this, s](netsim::NodeId from, netsim::NodeId to,
                                         SimTime deliver_at, Frame payload,
                                         Frame tail) {
        COIC_CHECK_MSG(runner_ != nullptr,
                       "cross-shard traffic outside a run");
        runner_->Send(s, node_shard_[to],
                      netsim::ShardMessage{from, to, deliver_at,
                                           std::move(payload),
                                           std::move(tail)});
      });
    }
  }

  reachable_.resize(config_.venues);
  client_routes_.resize(config_.venues);
  gossip_.resize(config_.venues);
  for (VenueGossip& own : gossip_) own.peers.resize(config_.venues);
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    reachable_[v] = topology_.ReachableWithin(v, config_.hop_limit);
    summary_tables_.emplace_back(config_.venues);
    PeerSelectConfig policy = config_.policy;
    policy.seed = config_.policy.seed ^ (0x9E37u + v);  // decorrelate edges
    policies_.push_back(MakePeerSelectPolicy(policy));
  }

  WireCloud();
  edges_.resize(config_.venues);
  clients_.resize(mobile_nodes_.size());
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    WireVenue(v);
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      WireClient(v, m);
    }
  }

  // Samplers over counters whose storage already lives elsewhere: read at
  // Snapshot() time, zero cost on the hot paths that maintain them. The
  // frame-stat and cloud samplers are cluster-global (atomic counters /
  // shard-0 state), so they live on shard 0's registry only; per-network
  // stats register on their own shard and sum in MergedMetricsSnapshot.
  obs::MetricsRegistry& root = *shards_.front()->metrics;
  root.RegisterSampler("frame.copies", [] { return frame_stats().copies(); });
  root.RegisterSampler("frame.bytes_copied",
                       [] { return frame_stats().bytes_copied(); });
  root.RegisterSampler("frame.gather_fuses",
                       [] { return frame_stats().fuses(); });
  root.RegisterSampler("frame.gather_fused_bytes",
                       [] { return frame_stats().fused_bytes(); });
  root.RegisterSampler("cloud.tasks_executed",
                       [this] { return cloud_->tasks_executed(); });
  for (auto& sh : shards_) {
    netsim::Network* const net = &sh->net;
    obs::MetricsRegistry& m = *sh->metrics;
    m.RegisterSampler("net.datagram.messages_fragmented", [net] {
      return net->datagram_stats().messages_fragmented;
    });
    m.RegisterSampler("net.datagram.chunks_sent", [net] {
      return net->datagram_stats().chunks_sent;
    });
    m.RegisterSampler("net.datagram.messages_reassembled", [net] {
      return net->datagram_stats().messages_reassembled;
    });
    m.RegisterSampler("net.datagram.partials_discarded", [net] {
      return net->datagram_stats().partials_discarded;
    });
    m.RegisterSampler("net.datagram.nacks_sent", [net] {
      return net->datagram_stats().nacks_sent;
    });
    m.RegisterSampler("net.datagram.chunks_retransmitted", [net] {
      return net->datagram_stats().chunks_retransmitted;
    });
    m.RegisterSampler("net.datagram.messages_recovered", [net] {
      return net->datagram_stats().messages_recovered;
    });
    m.RegisterSampler("net.links.frames_lost", [net] {
      std::uint64_t lost = 0;
      net->ForEachLink([&lost](const netsim::Link& l) {
        lost += l.stats().frames_dropped_loss;
      });
      return lost;
    });
    m.RegisterSampler("net.links.down_drops", [net] {
      std::uint64_t down = 0;
      net->ForEachLink([&down](const netsim::Link& l) {
        down += l.stats().frames_dropped_down;
      });
      return down;
    });
  }

  ArmChaos();
}

void FederationPipeline::ArmChaos() {
  if (config_.chaos.empty()) return;
  const auto shard_total = static_cast<std::uint32_t>(shards_.size());

  // Split the schedule. Every fault is armed *counted* on its home shard
  // — the one owning the faulted venue's state, which takes the metrics
  // bumps, trace marks and (for crashes) the cache wipe — and *silent*
  // on every other shard, so each replica of an affected link changes
  // state at the same instant. Single-shard runs get one counted engine
  // holding the whole schedule: exactly the old behavior.
  std::vector<netsim::FaultSchedule> counted(shard_total);
  std::vector<netsim::FaultSchedule> silent(shard_total);
  const auto place = [&](std::uint32_t home, const auto& fault, auto member) {
    for (std::uint32_t s = 0; s < shard_total; ++s) {
      ((s == home ? counted[s] : silent[s]).*member).push_back(fault);
    }
  };
  for (const auto& c : config_.chaos.crashes) {
    place(ShardIndexOf(c.venue), c, &netsim::FaultSchedule::crashes);
  }
  for (const auto& p : config_.chaos.partitions) {
    std::uint32_t home = 0;
    if (!p.island.empty()) {
      home = ShardIndexOf(*std::min_element(p.island.begin(), p.island.end()));
    }
    place(home, p, &netsim::FaultSchedule::partitions);
  }
  for (const auto& b : config_.chaos.brownouts) {
    place(ShardIndexOf(b.venue), b, &netsim::FaultSchedule::brownouts);
  }
  for (const auto& l : config_.chaos.loss_bursts) {
    place(0, l, &netsim::FaultSchedule::loss_bursts);
  }
  // A silent crash must not wipe the cache: the wipe happens exactly
  // once, on the shard that owns the edge.
  for (auto& sched : silent) {
    for (auto& c : sched.crashes) c.wipe_cache = false;
  }

  // netsim knows links, not venues: the binding resolves venue-scoped
  // fault groups to directed Links. Per-shard networks hold only the
  // directions their own nodes send on, so the pair visitor takes
  // whichever of the two exists locally.
  const auto make_binding = [this](std::uint32_t s) {
    netsim::Network* const net = &shards_[s]->net;
    const auto both_ways = [net](netsim::NodeId a, netsim::NodeId b,
                                 const netsim::ChaosBinding::LinkVisitor& fn) {
      if (net->Adjacent(a, b)) fn(net->LinkBetween(a, b));
      if (net->Adjacent(b, a)) fn(net->LinkBetween(b, a));
    };
    netsim::ChaosBinding binding;
    binding.venue_links =
        [this, both_ways](std::uint32_t venue,
                          const netsim::ChaosBinding::LinkVisitor& fn) {
          COIC_CHECK(venue < config_.venues);
          const netsim::NodeId self = edge_nodes_[venue];
          for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
            both_ways(mobile_nodes_[ClientIndex(venue, m)], self, fn);
          }
          both_ways(self, cloud_node_, fn);
          for (std::uint32_t peer = 0; peer < config_.venues; ++peer) {
            if (peer != venue && topology_.Adjacent(venue, peer)) {
              both_ways(self, edge_nodes_[peer], fn);
            }
          }
        };
    binding.cut_links =
        [this, both_ways](const std::vector<std::uint32_t>& island,
                          const netsim::ChaosBinding::LinkVisitor& fn) {
          std::vector<bool> inside(config_.venues, false);
          for (const std::uint32_t v : island) {
            COIC_CHECK(v < config_.venues);
            inside[v] = true;
          }
          for (std::uint32_t a = 0; a < config_.venues; ++a) {
            if (!inside[a]) continue;
            for (std::uint32_t b = 0; b < config_.venues; ++b) {
              if (inside[b] || !topology_.Adjacent(a, b)) continue;
              both_ways(edge_nodes_[a], edge_nodes_[b], fn);
            }
          }
        };
    binding.wan_links =
        [this, both_ways](std::uint32_t venue,
                          const netsim::ChaosBinding::LinkVisitor& fn) {
          COIC_CHECK(venue < config_.venues);
          both_ways(edge_nodes_[venue], cloud_node_, fn);
        };
    binding.all_links = [net](const netsim::ChaosBinding::LinkVisitor& fn) {
      net->ForEachMutableLink(fn);
    };
    binding.wipe_cache = [this](std::uint32_t venue) {
      COIC_CHECK(venue < config_.venues);
      edges_[venue]->mutable_cache().Clear();
    };
    return binding;
  };

  counted_chaos_.reserve(shard_total);
  for (std::uint32_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    // One counted engine per shard even when its slice is empty, so
    // counted_chaos_[s] stays index-aligned with shards_.
    auto engine = std::make_unique<netsim::ChaosEngine>(
        sh.sched, make_binding(s), sh.metrics.get(), sh.tracer.get());
    engine->Apply(std::move(counted[s]));
    counted_chaos_.push_back(std::move(engine));
    if (!silent[s].empty()) {
      auto quiet = std::make_unique<netsim::ChaosEngine>(
          sh.sched, make_binding(s), /*metrics=*/nullptr, /*tracer=*/nullptr);
      quiet->Apply(std::move(silent[s]));
      silent_chaos_.push_back(std::move(quiet));
    }
  }
}

void FederationPipeline::WireCloud() {
  // The cloud lives on shard 0, as do the links it sends on.
  const core::DelayFn delay = [this](Duration d, std::function<void()> fn) {
    shards_.front()->sched.ScheduleAfter(d, std::move(fn));
  };

  CloudService::Config cloud_config;
  cloud_config.costs = config_.costs;
  cloud_config.recognition_classes = config_.recognition_classes;
  cloud_config.extractor = config_.extractor;
  // One shared cloud; replies route to whichever edge forwarded the
  // request (looked up by request id at send time).
  auto routes =
      std::make_shared<std::unordered_map<std::uint64_t, netsim::NodeId>>();
  // Under retries the cloud can process one request id twice (the edge
  // retransmitted; both copies arrived) and produce two replies for one
  // recorded route — the second is dropped here, and the edge's own
  // duplicate handling absorbs whichever one lands. With the reliable
  // transport a missing route still means a wiring bug, so keep the
  // CHECK there.
  const bool lossy = LossyTransport();
  cloud_ = std::make_unique<CloudService>(
      cloud_config,
      [this, routes, lossy](core::Peer /*to*/, Frame frame, Frame tail) {
        const std::uint64_t id = PeekRequestId(frame.span());
        const auto it = routes->find(id);
        if (it == routes->end()) {
          COIC_CHECK_MSG(lossy, "cloud reply with no route");
          return;
        }
        const netsim::NodeId target = it->second;
        routes->erase(it);
        shards_.front()->net.SendGather(cloud_node_, target, std::move(frame),
                                        std::move(tail));
      },
      delay);
  shards_.front()->net.SetHandler(
      cloud_node_,
      [this, routes](netsim::NodeId from, Frame frame, Frame tail) {
        COIC_CHECK_MSG(tail.empty(), "the cloud receives no gather frames");
        (*routes)[PeekRequestId(frame.span())] = from;
        cloud_->OnFrame(std::move(frame));
      });
}

void FederationPipeline::WireVenue(std::uint32_t venue) {
  // Everything this venue touches — scheduler, network, metrics, tracer
  // — belongs to its owning shard; the lambdas re-resolve through
  // `this` so they stay valid for the pipeline's whole lifetime.
  ShardState& shard = ShardOf(venue);
  const core::DelayFn delay = [this, venue](Duration d,
                                            std::function<void()> fn) {
    SchedOf(venue).ScheduleAfter(d, std::move(fn));
  };
  const core::NowFn now = [this, venue] { return SchedOf(venue).now(); };

  EdgeService::Config edge_config;
  edge_config.costs = config_.costs;
  edge_config.cache = config_.cache;
  edge_config.metrics = shard.metrics.get();
  edge_config.metrics_prefix = "edge." + std::to_string(venue) + ".";
  edge_config.tracer = shard.tracer.get();
  edge_config.cooperative = config_.cooperative && config_.venues > 1;
  edge_config.probe_budget = config_.probe_budget;
  edge_config.coalesce_requests = config_.coalesce_requests;
  edge_config.peer_hit_adopt_min_uses = config_.peer_hit_adopt_min_uses;
  // Small control frames (probes, probe replies) recycle through the
  // shard arena instead of hitting the allocator per miss.
  edge_config.frame_arena = &shard.arena;
  if (config_.peer_aware_eviction && edge_config.cooperative) {
    // Peer-aware eviction: an entry some 1-hop neighbor also advertises
    // is recoverable at peer-link cost, so evict it ahead of
    // cluster-unique content. Bloom false positives only mis-order the
    // victim scan; they never evict more than capacity demands.
    edge_config.cache.replicated_hint = [this, venue](std::uint64_t key) {
      for (const std::uint32_t peer : reachable_[venue]) {
        if (topology_.HopDistance(venue, peer) != 1) continue;
        const CacheSummary* summary = summary_tables_[venue].For(peer);
        if (summary != nullptr && summary->bloom().MayContain(key)) {
          return true;
        }
      }
      return false;
    };
  }
  edge_config.cloud_retry = config_.transport.cloud_retry;
  edge_config.peer_probe_timeout = config_.transport.peer_probe_timeout;
  edge_config.max_pending = config_.transport.edge_max_pending;
  edge_config.breaker_failure_threshold =
      config_.transport.breaker_failure_threshold;
  edge_config.breaker_open_duration = config_.transport.breaker_open_duration;
  if (config_.transport.client_retry.enabled()) {
    // Client retransmits only help if the edge can replay a reply whose
    // first copy was lost instead of re-fetching.
    edge_config.resolved_memo_capacity = 256;
  }
  edge_config.peer_send = [this, venue](std::uint32_t peer, Frame frame,
                                        Frame tail) {
    // Gossip ack/nack rides on lookup traffic: before any peer-bound
    // probe or reply, tell that peer which version of its summary we
    // hold (deduplicated, so steady state adds no frames).
    MaybeSendSummaryAck(venue, peer, /*force=*/false);
    SendEdgeToEdge(venue, peer, std::move(frame), std::move(tail));
  };
  edge_config.peer_select =
      [this, venue](const proto::FeatureDescriptor& key) {
        return policies_[venue]->Select(key, reachable_[venue],
                                        summary_tables_[venue]);
      };
  const netsim::NodeId self = edge_nodes_[venue];
  const bool lossy = LossyTransport();
  // Result replies travel as (per-request head, shared payload tail):
  // one wire frame, byte-identical to the fused encode, that reaches the
  // client as the same two segments.
  edges_[venue] = std::make_unique<EdgeService>(
      edge_config,
      [this, venue, self, lossy](core::Peer to, Frame frame, Frame tail) {
        COIC_CHECK_MSG(to != core::Peer::kPeerEdge,
                       "federation edges route peers via peer_send");
        if (to == core::Peer::kCloud) {
          NetOf(venue).SendGather(self, cloud_node_, std::move(frame),
                                  std::move(tail));
          return;
        }
        // Client replies: several mobiles share this edge, so route by
        // the request id recorded when the request came in. A missing
        // route under retries means a duplicate reply raced a lost
        // request — drop it; the client's own retry recovers.
        auto& routes = client_routes_[venue];
        const auto it = routes.find(PeekRequestId(frame.span()));
        if (it == routes.end()) {
          COIC_CHECK_MSG(lossy, "edge reply with no client route");
          return;
        }
        const netsim::NodeId target = it->second;
        routes.erase(it);
        NetOf(venue).SendGather(self, target, std::move(frame),
                                std::move(tail));
      },
      delay, now);

  shard.metrics->RegisterSampler(
      "edge." + std::to_string(venue) + ".pending_inflight",
      [this, venue] { return edges_[venue]->pending_inflight(); });
  shard.metrics->RegisterSampler(
      "edge." + std::to_string(venue) + ".peak_pending",
      [this, venue] { return edges_[venue]->peak_pending(); });

  shard.net.SetHandler(self, [this, venue](netsim::NodeId from, Frame frame,
                                           Frame tail) {
    if (from == cloud_node_) {
      edges_[venue]->OnCloudFrame(std::move(frame), std::move(tail));
      return;
    }
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      if (mobile_nodes_[ClientIndex(venue, m)] == from) {
        COIC_CHECK_MSG(tail.empty(), "clients send no gather frames");
        client_routes_[venue][PeekRequestId(frame.span())] = from;
        edges_[venue]->OnClientFrame(std::move(frame));
        return;
      }
    }
    for (std::uint32_t peer = 0; peer < config_.venues; ++peer) {
      if (edge_nodes_[peer] == from) {
        OnPeerEdgeFrame(venue, peer, std::move(frame), std::move(tail));
        return;
      }
    }
    COIC_CHECK_MSG(false, "edge frame from unknown node");
  });
}

void FederationPipeline::WireClient(std::uint32_t venue, std::uint32_t mobile) {
  const core::DelayFn delay = [this, venue](Duration d,
                                            std::function<void()> fn) {
    SchedOf(venue).ScheduleAfter(d, std::move(fn));
  };
  const core::NowFn now = [this, venue] { return SchedOf(venue).now(); };
  const std::uint32_t index = ClientIndex(venue, mobile);
  const netsim::NodeId client_node = mobile_nodes_[index];
  const netsim::NodeId edge_node = edge_nodes_[venue];
  ShardState& shard = ShardOf(venue);

  CoicClient::Config client_config;
  client_config.costs = config_.costs;
  client_config.mode = config_.client_mode;
  client_config.extractor = config_.extractor;
  client_config.user_id = index + 1;
  // Disjoint id spaces so concurrent clients' requests never collide at
  // the shared cloud or in the per-venue client routes.
  client_config.first_request_id = (std::uint64_t{index} << 40) | 1;
  client_config.retry = config_.transport.client_retry;
  client_config.metrics = shard.metrics.get();
  client_config.metrics_prefix = "client." + std::to_string(venue) + "." +
                                 std::to_string(mobile) + ".";
  client_config.install_memo = &shard.install_memo;
  client_config.tracer = shard.tracer.get();
  client_config.trace_track = venue;
  client_config.deadline = config_.transport.client_deadline;
  client_config.local_fallback = config_.transport.client_local_fallback;
  clients_[index] = std::make_unique<CoicClient>(
      client_config,
      [this, venue, client_node, edge_node](Frame frame) {
        NetOf(venue).Send(client_node, edge_node, std::move(frame));
      },
      delay, now);
  shard.net.SetHandler(client_node,
                       [this, index](netsim::NodeId, Frame frame, Frame tail) {
                         clients_[index]->OnEdgeFrame(std::move(frame),
                                                      std::move(tail));
                       });
}

// ---------------------------------------------------------------------------
// Edge-to-edge routing and federation control frames
// ---------------------------------------------------------------------------

void FederationPipeline::SendEdgeToEdge(std::uint32_t from, std::uint32_t to,
                                        Frame frame, Frame tail) {
  COIC_CHECK(from != to && from < config_.venues && to < config_.venues);
  if (topology_.Adjacent(from, to)) {
    NetOf(from).SendGather(edge_nodes_[from], edge_nodes_[to], std::move(frame),
                           std::move(tail));
    return;
  }
  const std::uint32_t dist = topology_.HopDistance(from, to);
  if (dist == Topology::kUnreachable) {
    COIC_LOG(kWarn) << "federation: dropping frame for unreachable venue "
                    << to;
    return;
  }
  // The relay wrapper carries its inner envelope contiguously, so a
  // gather is joined first (a counted fuse).
  const Frame inner = Frame::Fuse(std::move(frame), tail);
  NetOf(from).Send(edge_nodes_[from],
                   edge_nodes_[topology_.NextHop(from, to)],
                   proto::EncodeRelayFrame(
                       from, to, static_cast<std::uint8_t>(dist - 1),
                       inner.span()));  // forwards after hop 1
}

void FederationPipeline::OnPeerEdgeFrame(std::uint32_t venue,
                                         std::uint32_t src_index,
                                         Frame frame, Frame tail) {
  if (!tail.empty()) {
    // Only a peer's hit reply travels as a gather (header fields, then
    // the shared cached payload).
    edges_[venue]->OnPeerFrame(src_index, std::move(frame), std::move(tail));
    return;
  }
  switch (PeekMessageType(frame.span())) {
    case MessageType::kFederatedRelay:
      HandleRelayFrame(venue, std::move(frame));
      return;
    case MessageType::kSummaryUpdate:
    case MessageType::kSummaryDeltaUpdate:
      HandleSummaryFrame(venue, frame);
      return;
    case MessageType::kSummaryAck:
      HandleSummaryAck(venue, frame);
      return;
    default:
      edges_[venue]->OnPeerFrame(src_index, std::move(frame));
  }
}

void FederationPipeline::HandleRelayFrame(std::uint32_t venue, Frame frame) {
  // Hot path: relay forwarding never decodes the (possibly large) inner
  // envelope. Peek the routing fields in place; an intermediate hop
  // patches the TTL byte of the uniquely-held buffer and forwards it,
  // the terminal hop strips the wrapper by slicing (both zero-copy).
  // Byte-for-byte equivalent to the old decode → mutate → re-encode
  // (covered by a proto test).
  const auto view = proto::PeekRelayFrame(frame.span());
  if (!view.ok() || view.value().dest_edge >= config_.venues ||
      view.value().src_edge >= config_.venues ||
      view.value().inner_size < proto::kEnvelopeHeaderSize) {
    COIC_LOG(kWarn) << "federation: bad relay frame";
    return;
  }
  const proto::RelayFrameView relay = view.value();
  obs::RequestTracer* const tracer = TracerOf(venue);
  if (relay.dest_edge == venue) {
    // Terminal hop: unwrap and dispatch as if it arrived directly from
    // the logical source.
    Frame inner = proto::UnwrapRelay(frame, relay);
    const MessageType inner_type = PeekMessageType(inner.span());
    if (tracer && (inner_type == MessageType::kPeerLookupRequest ||
                   inner_type == MessageType::kPeerLookupReply)) {
      // Request-scoped only: summary/ack relays reuse the id field for
      // versions, which would collide with live request timelines.
      tracer->Annotate(PeekRequestId(inner.span()), "relay-delivered",
                       SchedOf(venue).now());
    }
    if (inner_type == MessageType::kSummaryUpdate ||
        inner_type == MessageType::kSummaryDeltaUpdate) {
      HandleSummaryFrame(venue, inner);
    } else if (inner_type == MessageType::kSummaryAck) {
      HandleSummaryAck(venue, inner);
    } else {
      edges_[venue]->OnPeerFrame(relay.src_edge, std::move(inner));
    }
    return;
  }
  if (relay.ttl == 0) {
    COIC_LOG(kWarn) << "federation: relay TTL expired at venue " << venue;
    return;
  }
  if (tracer) {
    // Peek the inner envelope through a temporary slice, released before
    // DecrementRelayTtl needs the buffer uniquely held.
    const Frame inner = proto::UnwrapRelay(frame, relay);
    const MessageType inner_type = PeekMessageType(inner.span());
    if (inner_type == MessageType::kPeerLookupRequest ||
        inner_type == MessageType::kPeerLookupReply) {
      tracer->Annotate(PeekRequestId(inner.span()), "relay-hop",
                       SchedOf(venue).now());
    }
  }
  proto::DecrementRelayTtl(frame);
  ++Gc(venue).relay_forwards;
  NetOf(venue).Send(edge_nodes_[venue],
                    edge_nodes_[topology_.NextHop(venue, relay.dest_edge)],
                    std::move(frame));
}

void FederationPipeline::HandleSummaryFrame(std::uint32_t venue,
                                            const Frame& frame) {
  // Stale-version fast drop: a duplicate or outdated update — the
  // common case once summaries are only rebuilt on cache change — is
  // discarded without decoding the bloom bits / key list and centroid
  // vectors. Mirrors SummaryTable::Update's `<=` staleness rule; works
  // for full and delta frames alike (shared leading layout).
  if (const auto header = proto::PeekSummaryFrame(frame.span());
      header.ok() && header.value().edge_id < config_.venues) {
    // Any summary frame — fresh, stale or unusable — proves the sender
    // is alive; the age-out sweep keys off this stamp.
    gossip_[venue].peers[header.value().edge_id].received_at =
        SchedOf(venue).now();
    const CacheSummary* current =
        summary_tables_[venue].For(header.value().edge_id);
    if (current != nullptr && header.value().version <= current->version()) {
      return;
    }
  }
  if (PeekMessageType(frame.span()) == MessageType::kSummaryDeltaUpdate) {
    // Base-version fast drop: a delta only applies on top of exactly its
    // base. A mismatch (missed frame on a lossy link) is not an error —
    // the table keeps its current view, which is merely stale, until the
    // sender's next full resend resynchronizes.
    const auto header = proto::PeekSummaryDeltaFrame(frame.span());
    if (!header.ok() || header.value().edge_id >= config_.venues) {
      COIC_LOG(kWarn) << "federation: bad summary-delta frame";
      return;
    }
    const CacheSummary* current =
        summary_tables_[venue].For(header.value().edge_id);
    if (current == nullptr ||
        current->version() != header.value().base_version) {
      COIC_LOG(kDebug) << "federation: delta base mismatch at venue " << venue
                       << " for edge " << header.value().edge_id;
      // Nack: tell the sender which version we actually hold (0 when
      // none) so it resends the full summary instead of stranding us on
      // a base we lost. Forced past the dedup — the sender believes we
      // are current, so only an explicit ack corrects it.
      if (header.value().edge_id != venue) {
        MaybeSendSummaryAck(venue, header.value().edge_id, /*force=*/true);
      }
      return;
    }
    auto env = proto::DecodeEnvelopeView(frame.span());
    if (!env.ok()) {
      COIC_LOG(kWarn) << "federation: undecodable summary-delta frame";
      return;
    }
    auto wire = proto::DecodePayloadAs<proto::SummaryDeltaUpdate>(
        env.value(), MessageType::kSummaryDeltaUpdate);
    if (!wire.ok()) {
      COIC_LOG(kWarn) << "federation: bad summary-delta payload";
      return;
    }
    if (const Status applied = summary_tables_[venue].ApplyDelta(wire.value());
        !applied.ok()) {
      COIC_LOG(kWarn) << "federation: unusable summary delta: "
                      << applied.ToString();
    }
    return;
  }
  auto env = proto::DecodeEnvelopeView(frame.span());
  if (!env.ok()) {
    COIC_LOG(kWarn) << "federation: undecodable summary frame";
    return;
  }
  auto wire = proto::DecodePayloadAs<proto::SummaryUpdate>(
      env.value(), MessageType::kSummaryUpdate);
  if (!wire.ok() || wire.value().edge_id >= config_.venues) {
    COIC_LOG(kWarn) << "federation: bad summary frame";
    return;
  }
  auto summary = CacheSummary::FromWire(wire.value());
  if (!summary.ok()) {
    COIC_LOG(kWarn) << "federation: unusable summary: "
                    << summary.status().ToString();
    return;
  }
  summary_tables_[venue].Update(std::move(summary).value());
}

void FederationPipeline::MaybeSendSummaryAck(std::uint32_t venue,
                                             std::uint32_t peer, bool force) {
  if (!config_.transport.summary_ack || peer == venue ||
      peer >= config_.venues) {
    return;
  }
  const CacheSummary* held = summary_tables_[venue].For(peer);
  const std::uint64_t version = held != nullptr ? held->version() : 0;
  std::uint64_t& acked = gossip_[venue].peers[peer].ack_sent_version;
  if (!force && acked == version) return;
  acked = version;
  ++Gc(venue).summary_acks_sent;
  proto::SummaryAck ack;
  ack.acker_edge = venue;
  ack.subject_edge = peer;
  ack.version = version;
  FrameArena& arena = ArenaOf(venue);
  SendEdgeToEdge(venue, peer,
                 arena.Seal(proto::EncodeMessageInto(
                     arena.Acquire(proto::kEnvelopeHeaderSize +
                                   static_cast<std::size_t>(ack.WireSize())),
                     MessageType::kSummaryAck, version, ack)));
}

void FederationPipeline::HandleSummaryAck(std::uint32_t venue,
                                          const Frame& frame) {
  auto env = proto::DecodeEnvelopeView(frame.span());
  if (!env.ok()) {
    COIC_LOG(kWarn) << "federation: undecodable summary ack";
    return;
  }
  auto ack = proto::DecodePayloadAs<proto::SummaryAck>(
      env.value(), MessageType::kSummaryAck);
  if (!ack.ok() || ack.value().subject_edge != venue ||
      ack.value().acker_edge >= config_.venues) {
    COIC_LOG(kWarn) << "federation: bad summary ack at venue " << venue;
    return;
  }
  const std::uint32_t acker = ack.value().acker_edge;
  PeerGossip& sent = gossip_[venue].peers[acker];
  if (sent.sent_version == 0 || ack.value().version >= sent.sent_version) {
    // Nothing ever sent (always so under full gossip), or the acker is
    // current (>= covers acks that raced a newer send) — no repair
    // needed.
    return;
  }
  // The acker holds an older version than what we already sent: a gossip
  // frame was lost (or the peer aged our summary out). Resend the full
  // summary, at most once per gossip period per peer so an ack burst
  // cannot amplify into a resend storm.
  if (SchedOf(venue).now() < sent.next_ack_resend_at) return;
  sent.next_ack_resend_at =
      SchedOf(venue).now() + (GossipEnabled() ? config_.gossip_period
                                              : Duration::Millis(250));
  RefreshSummary(venue);
  ++Gc(venue).summary_ack_resends;
  SendFullSummary(venue, acker);
}

void FederationPipeline::AgeOutSummaries(std::uint32_t venue) {
  if (config_.transport.summary_max_age == Duration::Infinite()) return;
  const SimTime now = SchedOf(venue).now();
  for (const std::uint32_t peer : reachable_[venue]) {
    if (summary_tables_[venue].For(peer) == nullptr) continue;
    PeerGossip& state = gossip_[venue].peers[peer];
    if (now - state.received_at > config_.transport.summary_max_age) {
      // The peer has gone silent (crashed or partitioned): stop steering
      // probes at it. If it is merely slow, its next frame after our
      // erase is a full-version install or a delta whose base we no
      // longer hold — the nack/full-resend path rebuilds the view.
      summary_tables_[venue].Erase(peer);
      // Force the next piggybacked ack to announce "holding nothing".
      state.ack_sent_version = UINT64_MAX;
      ++Gc(venue).summaries_aged_out;
    }
  }
}

bool FederationPipeline::GossipEnabled() const noexcept {
  return config_.cooperative && config_.venues >= 2 &&
         config_.gossip_period != Duration::Infinite();
}

void FederationPipeline::RefreshSummary(std::uint32_t venue) {
  // Rebuild + re-encode only when the cache content changed since the
  // last round (IcCache's monotonic mutation counter as the signal);
  // otherwise the memoized frame under the same version stands. Wire
  // sizes are unchanged either way (version is fixed-width), so link
  // timing — and with it every closed-loop latency — is identical to
  // rebuilding each round.
  VenueGossip& own = gossip_[venue];
  const cache::IcCache& cache = edges_[venue]->cache();
  const std::uint64_t mutations = cache.mutation_count();
  if (!own.frame.empty() && own.mutations == mutations) return;
  own.summary =
      CacheSummary::Build(venue, ++own.version, cache, config_.bloom);
  own.frame = Frame(proto::EncodeMessage(
      MessageType::kSummaryUpdate, own.version, own.summary.ToWire()));
  own.mutations = mutations;
  own.journal_cursor = cache.journal_cursor();
}

void FederationPipeline::GossipEdge(std::uint32_t venue) {
  AgeOutSummaries(venue);
  RefreshSummary(venue);
  // In steady state every peer shares the same base version (they all
  // applied the previous send), so a delta frame is built once per
  // distinct base and shared by every peer on it — mirroring the
  // memoized full frame.
  DeltaMemo delta_memo;
  GossipCounters& gc = Gc(venue);
  VenueGossip& own = gossip_[venue];
  for (const std::uint32_t peer : reachable_[venue]) {
    const SummarySend send = ChooseSummarySend(venue, peer, delta_memo);
    switch (send.kind) {
      case SummarySend::kNothing:
        break;
      case SummarySend::kFull:
        SendFullSummary(venue, peer);
        break;
      case SummarySend::kDelta: {
        PeerGossip& sent = own.peers[peer];
        ++gc.summary_deltas_sent;
        gc.summary_bytes_delta += send.delta->size();
        sent.sent_version = own.version;
        sent.journal_cursor = own.journal_cursor;
        ++sent.rounds_since_full;
        SendEdgeToEdge(venue, peer, *send.delta);
        break;
      }
    }
  }
}

FederationPipeline::SummarySend FederationPipeline::ChooseSummarySend(
    std::uint32_t venue, std::uint32_t peer, DeltaMemo& memo) {
  // Full gossip: the whole summary to every peer, every round.
  if (!config_.delta_gossip) return {SummarySend::kFull};
  VenueGossip& own = gossip_[venue];
  PeerGossip& sent = own.peers[peer];
  const bool refresh_due =
      config_.delta_full_refresh_rounds != 0 &&
      sent.rounds_since_full + 1 >= config_.delta_full_refresh_rounds;
  if (refresh_due) return {SummarySend::kFull};
  if (sent.sent_version == own.version) {
    // Peer is (believed) current: say nothing — but keep counting
    // rounds, so a due refresh still reaches a peer that a lost frame
    // left stale while the cache quiesced.
    ++sent.rounds_since_full;
    return {SummarySend::kNothing};
  }
  // A delta applies only when the peer holds a known base, the journal
  // still covers the interval, and nothing was erased in it (Bloom bits
  // compose under insertion only); it is sent only when actually
  // smaller than re-shipping the full bit array. The memo is keyed by
  // base version alone: journal_cursor is snapshotted together with
  // sent_version, so equal versions imply equal cursors.
  const cache::IcCache& cache = edges_[venue]->cache();
  if (sent.sent_version == 0 || cache.config().journal_capacity == 0) {
    return {SummarySend::kFull};
  }
  const auto [memo_slot, first_look] = memo.try_emplace(sent.sent_version);
  Frame& delta = memo_slot->second;
  if (first_look) {
    std::vector<std::uint64_t> inserted;
    bool erased = false;
    const bool covered = cache.ForEachJournaled(
        sent.journal_cursor, [&](const cache::CacheJournalEntry& entry) {
          if (entry.erased) {
            erased = true;
          } else {
            inserted.push_back(entry.index_key);
          }
        });
    if (covered && !erased) {
      const proto::SummaryDeltaUpdate wire =
          own.summary.ToWireDelta(sent.sent_version, std::move(inserted));
      if (proto::kEnvelopeHeaderSize + wire.WireSize() < own.frame.size()) {
        delta = Frame(proto::EncodeMessage(MessageType::kSummaryDeltaUpdate,
                                           own.version, wire));
      }
    }
  }
  if (delta.empty()) return {SummarySend::kFull};
  return {SummarySend::kDelta, &delta};
}

void FederationPipeline::SendFullSummary(std::uint32_t venue,
                                         std::uint32_t peer) {
  VenueGossip& own = gossip_[venue];
  GossipCounters& gc = Gc(venue);
  ++gc.summary_updates_sent;
  gc.summary_bytes_full += own.frame.size();
  if (config_.delta_gossip) {
    // Full gossip never reads sent-state; leaving it at 0 keeps acks
    // inert there.
    PeerGossip& sent = own.peers[peer];
    sent.sent_version = own.version;
    sent.journal_cursor = own.journal_cursor;
    sent.rounds_since_full = 0;
  }
  // One buffer for the whole broadcast: each peer gets a refcount on the
  // memoized frame, never a payload copy.
  SendEdgeToEdge(venue, peer, own.frame);
}

void FederationPipeline::MaybeGossip() {
  // Closed-loop only (single shard): shard 0's clock is the clock.
  if (!GossipEnabled()) return;
  if (shards_.front()->sched.now() < next_gossip_) return;
  next_gossip_ = shards_.front()->sched.now() + config_.gossip_period;
  GossipShardRound(0);
}

void FederationPipeline::GossipShardRound(std::uint32_t shard) {
  ShardState& sh = *shards_[shard];
  for (const std::uint32_t v : sh.venues) {
    ++sh.gossip_rounds;
    GossipEdge(v);
  }
}

void FederationPipeline::ArmGossipTimer(std::uint32_t shard) {
  // Free-running batched timer per shard, gossiping the shard's venues in
  // ascending order on the shard's own clock — the order N per-venue
  // timers armed in venue order fired in, at 1/N the scheduler events.
  // No stall bookkeeping here: the ShardRunner's decide barrier detects
  // stalls (idle-floor match or no-progress backstop) and quiesces
  // through StopGossipTimer.
  ShardState& sh = *shards_[shard];
  gossip_timers_[shard] =
      sh.sched.ScheduleAfter(config_.gossip_period, [this, shard] {
        GossipShardRound(shard);
        ArmGossipTimer(shard);
      });
}

void FederationPipeline::StopGossipTimer(std::uint32_t shard) {
  if (gossip_timers_.empty()) return;  // never armed (closed loop / no ops)
  if (gossip_timers_[shard] != 0) {
    shards_[shard]->sched.Cancel(gossip_timers_[shard]);
    gossip_timers_[shard] = 0;
  }
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

core::EdgeService& FederationPipeline::edge(std::uint32_t venue) {
  COIC_CHECK(venue < config_.venues);
  return *edges_[venue];
}

std::uint64_t FederationPipeline::total_peer_probes() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->peer_probes_sent();
  return total;
}

std::uint64_t FederationPipeline::total_peer_hits() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->peer_hits();
  return total;
}

std::uint64_t FederationPipeline::total_coalesced_requests() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->coalesced_requests();
  return total;
}

std::uint64_t FederationPipeline::total_cloud_forwards() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->forwards();
  return total;
}

std::uint64_t FederationPipeline::total_client_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->retransmissions();
  return total;
}

std::uint64_t FederationPipeline::total_client_timeouts() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->timeouts();
  return total;
}

std::uint64_t FederationPipeline::total_cloud_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->cloud_retransmissions();
  return total;
}

std::uint64_t FederationPipeline::total_cloud_timeouts() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->cloud_timeouts();
  return total;
}

std::uint64_t FederationPipeline::total_leader_promotions() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->leader_promotions();
  return total;
}

std::uint64_t FederationPipeline::total_overload_sheds() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) {
    total += e->overload_sheds() + e->deadline_sheds() + e->breaker_sheds();
  }
  return total;
}

std::uint64_t FederationPipeline::total_overload_rejects() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->overload_rejects();
  return total;
}

std::uint64_t FederationPipeline::total_grace_hits() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->grace_hits();
  return total;
}

// Gossip counters live in per-shard registry cells; the cluster-wide
// view is their sum (one non-zero cell per venue's home shard).
std::uint64_t FederationPipeline::summary_updates_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_updates_sent.value();
  }
  return total;
}

std::uint64_t FederationPipeline::summary_deltas_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_deltas_sent.value();
  }
  return total;
}

std::uint64_t FederationPipeline::summary_bytes_full() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->gossip.summary_bytes_full.value();
  return total;
}

std::uint64_t FederationPipeline::summary_bytes_delta() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_bytes_delta.value();
  }
  return total;
}

std::uint64_t FederationPipeline::relay_forwards() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->gossip.relay_forwards.value();
  return total;
}

std::uint64_t FederationPipeline::summary_acks_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->gossip.summary_acks_sent.value();
  return total;
}

std::uint64_t FederationPipeline::summary_ack_resends() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_ack_resends.value();
  }
  return total;
}

std::uint64_t FederationPipeline::summaries_aged_out() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summaries_aged_out.value();
  }
  return total;
}

std::uint64_t FederationPipeline::arena_reuses() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->arena.reuses();
  return total;
}

std::uint64_t FederationPipeline::arena_allocations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->arena.allocations();
  return total;
}

std::uint64_t FederationPipeline::chaos_events_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : counted_chaos_) total += e->events_fired();
  return total;
}

std::uint64_t FederationPipeline::TotalCompleted() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->completed;
  return total;
}

obs::MetricsSnapshot FederationPipeline::MergedMetricsSnapshot() const {
  obs::MetricsSnapshot merged = shards_.front()->metrics->Snapshot();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    for (const auto& [path, value] : shards_[s]->metrics->Snapshot().values) {
      merged.values[path] += value;
    }
  }
  return merged;
}

std::string FederationPipeline::DumpChromeTrace() const {
  if (shards_.front()->tracer == nullptr) return "{}";
  if (shards_.size() == 1) return shards_.front()->tracer->DumpChromeTrace();
  // Merge every shard's {"traceEvents": [...]} onto one timeline by
  // splicing the array bodies: sim clocks share one virtual time, so
  // the stamps compose without adjustment.
  std::string merged = "{\"traceEvents\": [";
  bool first = true;
  for (const auto& sh : shards_) {
    if (sh->tracer == nullptr) continue;
    const std::string dump = sh->tracer->DumpChromeTrace();
    const std::size_t open = dump.find('[');
    const std::size_t close = dump.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1) {
      continue;
    }
    const std::string body = dump.substr(open + 1, close - open - 1);
    if (body.find_first_not_of(" \t\n") == std::string::npos) continue;
    if (!first) merged += ", ";
    merged += body;
    first = false;
  }
  merged += "]}";
  return merged;
}

Digest128 FederationPipeline::RegisterModel(std::uint64_t model_id,
                                            Bytes serialized_size) {
  cloud_->RegisterModel(model_id, serialized_size);
  const auto digest = cloud_->model_registry().DigestFor(model_id);
  COIC_CHECK(digest.ok());
  model_digests_[model_id] = digest.value();
  return digest.value();
}

FederationPipeline::Op& FederationPipeline::PushOp(Op::Kind kind,
                                                  std::uint32_t venue,
                                                  std::uint32_t mobile,
                                                  SimTime at) {
  COIC_CHECK(venue < config_.venues && mobile < config_.mobiles_per_venue);
  Op& op = ops_.emplace_back();
  op.kind = kind;
  op.venue = venue;
  op.client = ClientIndex(venue, mobile);
  op.at = at;
  return op;
}

void FederationPipeline::EnqueueRecognitionAt(std::uint32_t venue,
                                              const vision::SceneParams& scene,
                                              std::uint32_t mobile,
                                              SimTime at) {
  PushOp(Op::Kind::kRecognition, venue, mobile, at).scene = scene;
}

void FederationPipeline::EnqueueRenderAt(std::uint32_t venue,
                                         std::uint64_t model_id,
                                         std::uint32_t mobile, SimTime at) {
  const auto it = model_digests_.find(model_id);
  COIC_CHECK_MSG(it != model_digests_.end(),
                 "EnqueueRenderAt before RegisterModel");
  Op& op = PushOp(Op::Kind::kRender, venue, mobile, at);
  op.object_id = model_id;
  op.digest = it->second;
}

void FederationPipeline::EnqueuePanoramaAt(std::uint32_t venue,
                                           std::uint64_t video_id,
                                           std::uint32_t frame_index,
                                           std::uint32_t mobile, SimTime at,
                                           const proto::Viewport& viewport) {
  Op& op = PushOp(Op::Kind::kPanorama, venue, mobile, at);
  op.object_id = video_id;
  op.frame_index = frame_index;
  op.viewport = viewport;
}

void FederationPipeline::EnqueuePlaced(const trace::PlacedRecord& placed) {
  const std::uint32_t mobile =
      placed.record.user_id % config_.mobiles_per_venue;
  switch (placed.record.type) {
    case trace::IcTaskType::kRecognition:
      EnqueueRecognitionAt(placed.venue, placed.record.scene, mobile,
                           placed.record.at);
      return;
    case trace::IcTaskType::kRender:
      EnqueueRenderAt(placed.venue, placed.record.model_id, mobile,
                      placed.record.at);
      return;
    case trace::IcTaskType::kPanorama:
      EnqueuePanoramaAt(placed.venue, placed.record.video_id,
                        placed.record.frame_index, mobile, placed.record.at);
      return;
  }
  COIC_CHECK_MSG(false, "unknown trace record type");
}

void FederationPipeline::StartOp(Op op, bool closed_loop) {
  ShardState& sh = ShardOf(op.venue);
  ++sh.inflight;
  sh.max_inflight = std::max(sh.max_inflight, sh.inflight);
  const std::uint32_t venue = op.venue;
  CoicClient::CompletionFn done = [this, &sh, venue,
                                   closed_loop](core::RequestOutcome outcome) {
    sh.outcomes.push_back({venue, std::move(outcome), sh.sched.now()});
    --sh.inflight;
    ++sh.completed;
    sh.last_completion = sh.sched.now();
    if (closed_loop) IssueNext();
  };
  CoicClient& client = *clients_[op.client];
  switch (op.kind) {
    case Op::Kind::kRecognition:
      client.StartRecognition(op.scene,
                              CloudService::LabelForScene(op.scene.scene_id),
                              std::move(done), std::move(op.descriptor));
      return;
    case Op::Kind::kRender:
      client.StartRender(op.object_id, op.digest, std::move(done));
      return;
    case Op::Kind::kPanorama:
      client.StartPanorama(op.object_id, op.frame_index, op.viewport,
                           std::move(done));
      return;
  }
}

std::uint64_t FederationPipeline::DescribeQueuedScenes() {
  std::vector<Op*> slots;
  if (config_.client_mode == proto::OffloadMode::kCoic) {
    for (Op& op : ops_) {
      if (op.kind == Op::Kind::kRecognition) slots.push_back(&op);
    }
  }
  if (slots.empty()) return 0;
  const std::size_t threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), slots.size());
  // Each slot has one writer; the joins order every write before the
  // schedulers start, so no lock is needed. A thread's exception lands
  // in its own failure slot and is rethrown once all have joined.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> failures(threads);
  const auto describe = [this, &slots, &next, &failures](std::size_t t) {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < slots.size();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        Op& op = *slots[i];
        op.descriptor = clients_[op.client]->DescribeScene(op.scene);
      }
    } catch (...) {
      failures[t] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined on every exit path
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(describe, t);
    describe(0);
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  return slots.size();
}

void FederationPipeline::IssueNext() {
  if (ops_.empty()) return;
  MaybeGossip();
  Op op = std::move(ops_.front());
  ops_.pop_front();
  StartOp(std::move(op), /*closed_loop=*/true);
}

std::vector<FederationOutcome> FederationPipeline::Run() {
  COIC_CHECK_MSG(shards_.size() == 1,
                 "closed-loop Run is one-request-at-a-time by definition; "
                 "sharded pipelines must use RunOpenLoop");
  return Drive(/*closed_loop=*/true);
}

std::vector<FederationOutcome> FederationPipeline::RunOpenLoop() {
  return Drive(/*closed_loop=*/false);
}

std::string FederationPipeline::StrandedDiagnostic() const {
  // A stranded run (dropped frame, lossy link): name the stuck request
  // ids and where they are parked, so the CHECK is actionable.
  std::string msg = "run drained with " +
                    std::to_string(expected_ - TotalCompleted()) + " of " +
                    std::to_string(expected_) + " operations incomplete";
  if (!ops_.empty()) {
    // Closed loop: a request stranded mid-run leaves the rest unissued.
    msg += " (" + std::to_string(ops_.size()) + " never issued)";
  }
  msg += ':';
  constexpr std::size_t kMaxIdsNamed = 8;
  const auto append_ids = [&msg](const std::vector<std::uint64_t>& ids) {
    msg += " [ids";
    for (std::size_t i = 0; i < ids.size() && i < kMaxIdsNamed; ++i) {
      msg += ' ' + std::to_string(ids[i]);
    }
    if (ids.size() > kMaxIdsNamed) {
      msg += " +" + std::to_string(ids.size() - kMaxIdsNamed) + " more";
    }
    msg += ']';
  };
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    std::vector<std::uint64_t> client_ids;
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      const auto ids = clients_[ClientIndex(v, m)]->inflight_request_ids();
      client_ids.insert(client_ids.end(), ids.begin(), ids.end());
    }
    const auto edge_ids = edges_[v]->pending_request_ids();
    if (client_ids.empty() && edge_ids.empty()) continue;
    msg += " venue " + std::to_string(v) + ": " +
           std::to_string(client_ids.size()) + " awaiting reply at clients";
    append_ids(client_ids);
    msg += ", " + std::to_string(edge_ids.size()) + " parked at edge";
    append_ids(edge_ids);
    msg += ';';
    if (obs::RequestTracer* const tracer = ShardOf(v).tracer.get()) {
      // With tracing on, say exactly which phase each stuck request is
      // parked in and for how long — "phase=cloud_fetch since=+8123ms"
      // beats grepping the scheduler for where a request went quiet.
      for (std::size_t i = 0; i < client_ids.size() && i < kMaxIdsNamed;
           ++i) {
        const std::string live = tracer->DescribeLive(client_ids[i]);
        if (!live.empty()) {
          msg += " id " + std::to_string(client_ids[i]) + " " + live + ';';
        }
      }
    }
  }
  return msg;
}

Duration FederationPipeline::SyncWindow() const {
  // One shard: no link crosses shards, so any finite window is exact.
  // A WAN hop keeps the barrier rounds to a few per cloud round trip
  // (idle stretches are skipped whatever the width); the floor keeps a
  // zero-propagation WAN from shrinking the window to nothing.
  if (shards_.size() == 1) {
    return std::max(config_.edge_cloud_propagation, Duration::Millis(1));
  }
  if (config_.execution.mode == ExecutionConfig::Mode::kFast) {
    return config_.execution.fast_window;
  }
  // Deterministic: the smallest propagation delay on any link whose
  // endpoints are owned by different shards. Wifi links never cross (a
  // venue's mobiles live with their edge); WAN links cross for every
  // venue not homed on shard 0 (the cloud's shard); peer links cross per
  // the venue->shard map. Brownout LinkConditionSteps cannot shrink
  // propagation (no such field), so the minimum holds mid-chaos.
  std::int64_t lookahead = INT64_MAX;
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    if (ShardIndexOf(v) != 0) {
      lookahead =
          std::min(lookahead, config_.edge_cloud_propagation.micros());
    }
  }
  for (const TopologyLink& l : topology_.links()) {
    if (ShardIndexOf(l.a) != ShardIndexOf(l.b)) {
      lookahead = std::min(lookahead, l.link.propagation.micros());
    }
  }
  COIC_CHECK_MSG(lookahead != INT64_MAX,
                 "sharded run with no cross-shard links");
  COIC_CHECK_MSG(lookahead > 0,
                 "deterministic sharding needs nonzero cross-shard "
                 "propagation for a conservative window");
  return Duration::Micros(lookahead);
}

std::vector<FederationOutcome> FederationPipeline::Drive(bool closed_loop) {
  const std::size_t shard_total = shards_.size();
  open_loop_ = OpenLoopStats{};
  open_loop_.operations = ops_.size();
  open_loop_.frames_described = DescribeQueuedScenes();
  expected_ = ops_.size();
  std::vector<std::uint64_t> fired_before(shard_total);
  for (std::size_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    sh.outcomes.clear();
    sh.inflight = 0;
    sh.max_inflight = 0;
    sh.completed = 0;
    sh.gossip_rounds = 0;
    sh.last_completion = sh.sched.now();
    fired_before[s] = sh.sched.total_fired();
  }
  // Shard 0's stream becomes the merged result.
  shards_.front()->outcomes.reserve(expected_);
  open_loop_.first_arrival = shards_.front()->sched.now();
  open_loop_.last_completion = open_loop_.first_arrival;

  if (closed_loop) {
    // One operation in flight: the first issues now and each completion
    // issues the next, with gossip rounds driven at issue time.
    IssueNext();
  } else {
    if (GossipEnabled() && expected_ > 0) {
      // Round 0 runs as the first event on each shard at the shard's
      // clock, gossiping its venues ascending; each shard's batched
      // timer then carries on every gossip_period, decoupled from
      // operation progress.
      gossip_timers_.assign(shard_total, 0);
      for (std::uint32_t s = 0; s < shard_total; ++s) {
        ShardState& sh = *shards_[s];
        if (sh.venues.empty()) continue;
        sh.sched.ScheduleAt(sh.sched.now(), [this, s] {
          GossipShardRound(s);
          ArmGossipTimer(s);
        });
      }
    }
    // Schedule every operation at its trace arrival time on its venue's
    // shard: arrivals do not wait for completions, so queueing and
    // probe/link contention show up exactly as offered load dictates.
    bool first_set = false;
    while (!ops_.empty()) {
      Op op = std::move(ops_.front());
      ops_.pop_front();
      netsim::EventScheduler& sched = SchedOf(op.venue);
      const SimTime at = std::max(op.at, sched.now());
      if (!first_set || at < open_loop_.first_arrival) {
        open_loop_.first_arrival = at;
        first_set = true;
      }
      sched.ScheduleAt(at, [this, op = std::move(op)]() mutable {
        StartOp(std::move(op), /*closed_loop=*/false);
      });
    }
  }

  const bool deterministic =
      config_.execution.mode == ExecutionConfig::Mode::kDeterministic;
  std::vector<netsim::ShardHooks> hooks(shard_total);
  for (std::size_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    hooks[s].sched = &sh.sched;
    hooks[s].deliver = [&sh, deterministic](netsim::ShardMessage msg) {
      SimTime at = msg.deliver_at;
      if (deterministic) {
        // The sender stamped this inside window k; with window <=
        // lookahead it cannot land before the receiver's clock (which
        // sits at the window edge during the drain phase).
        COIC_CHECK_MSG(at.micros() >= sh.sched.now().micros(),
                       "cross-shard delivery in the receiver's past "
                       "(window wider than the lookahead?)");
      } else if (at.micros() < sh.sched.now().micros()) {
        // Fast mode: clamp to now. Latency shifts by < one window;
        // aggregate conservation invariants are unaffected.
        at = sh.sched.now();
      }
      sh.sched.ScheduleAt(at, [&sh, msg = std::move(msg)]() mutable {
        sh.net.DeliverRemote(msg.from, msg.to, std::move(msg.payload),
                             std::move(msg.tail));
      });
    };
    hooks[s].completed = [&sh] { return sh.completed; };
    hooks[s].idle_floor = [this, s] {
      // One batched timer per shard: the shard's idle floor is 1 while
      // it is armed, 0 once quiesced (and always 0 in the closed loop).
      if (gossip_timers_.empty()) return std::uint64_t{0};
      return std::uint64_t{gossip_timers_[s] != 0 ? 1u : 0u};
    };
    hooks[s].quiesce = [this, s] {
      StopGossipTimer(static_cast<std::uint32_t>(s));
    };
  }

  netsim::ShardRunnerConfig runner_config;
  runner_config.window = SyncWindow();
  runner_config.expected_completions = expected_;

  netsim::ShardRunner runner(runner_config, std::move(hooks));
  runner_ = &runner;
  const netsim::ShardRunner::Result result = runner.Run();
  runner_ = nullptr;
  gossip_timers_.clear();

  COIC_CHECK_MSG(TotalCompleted() == expected_, StrandedDiagnostic());

  open_loop_.sync_windows = result.windows;
  open_loop_.cross_shard_messages = result.cross_messages;
  open_loop_.per_worker_events_fired.resize(shard_total);
  bool any_completion = false;
  for (std::size_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    const std::uint64_t fired = sh.sched.total_fired() - fired_before[s];
    open_loop_.per_worker_events_fired[s] = fired;
    open_loop_.events_fired += fired;
    open_loop_.max_inflight += sh.max_inflight;
    open_loop_.gossip_rounds += sh.gossip_rounds;
    if (sh.completed > 0 &&
        (!any_completion ||
         open_loop_.last_completion < sh.last_completion)) {
      open_loop_.last_completion = sh.last_completion;
      any_completion = true;
    }
  }
  std::vector<FederationOutcome> merged = std::move(shards_.front()->outcomes);
  for (std::size_t s = 1; s < shard_total; ++s) {
    std::vector<FederationOutcome>& outcomes = shards_[s]->outcomes;
    merged.insert(merged.end(), std::make_move_iterator(outcomes.begin()),
                  std::make_move_iterator(outcomes.end()));
    outcomes.clear();
  }
  // The closed loop's one stream is already in issue order. Open loop:
  // canonical completion order at every shard count — each shard's
  // stream is in completion order already; interleave them on
  // (completed_at, venue). Venue breaks ties deterministically because
  // any one venue's outcomes come from a single shard (stable_sort keeps
  // their relative order).
  if (!closed_loop) {
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const FederationOutcome& a, const FederationOutcome& b) {
          if (a.completed_at.micros() != b.completed_at.micros()) {
            return a.completed_at.micros() < b.completed_at.micros();
          }
          return a.venue < b.venue;
        });
  }
  return merged;
}

}  // namespace coic::federation
