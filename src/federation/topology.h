// Federation topology — which edge venues are wired to which.
//
// A metro-scale cluster needs an explicit graph, not one LAN link
// between two edges. A Topology holds the peer links of an
// N-venue cluster (star / ring / full mesh / custom adjacency, each link
// with its own Bandwidth and propagation), precomputes all-pairs
// shortest paths, and can stamp itself onto a netsim::Network. Frames
// between non-adjacent venues are source-routed hop by hop along
// NextHop() by the federation pipeline's relay layer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "netsim/link.h"
#include "netsim/network.h"

namespace coic::federation {

/// One duplex peer link between venues `a` and `b` (both directions get
/// the same LinkConfig).
struct TopologyLink {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  netsim::LinkConfig link;
};

class Topology {
 public:
  static constexpr std::uint32_t kUnreachable = 0xFFFFFFFF;

  /// Hub-and-spoke: venue 0 is the hub, venues 1..n-1 link to it.
  static Topology Star(std::uint32_t venues, const netsim::LinkConfig& link);
  /// Cycle: venue i links to (i+1) mod n.
  static Topology Ring(std::uint32_t venues, const netsim::LinkConfig& link);
  /// Every pair of venues directly linked.
  static Topology FullMesh(std::uint32_t venues,
                           const netsim::LinkConfig& link);
  /// Arbitrary adjacency; per-link Bandwidth/propagation. Links must name
  /// venues < `venues`, no self-loops, no duplicate pairs.
  static Topology Custom(std::uint32_t venues,
                         std::vector<TopologyLink> links);

  [[nodiscard]] std::uint32_t venues() const noexcept { return venues_; }
  [[nodiscard]] const std::vector<TopologyLink>& links() const noexcept {
    return links_;
  }

  [[nodiscard]] bool Adjacent(std::uint32_t a, std::uint32_t b) const;
  [[nodiscard]] std::span<const std::uint32_t> Neighbors(std::uint32_t v) const;

  /// Hops on the shortest path a -> b; 0 for a == b, kUnreachable if the
  /// venues are in different components.
  [[nodiscard]] std::uint32_t HopDistance(std::uint32_t a,
                                          std::uint32_t b) const;
  /// First hop on the shortest path from -> to. Precondition: reachable
  /// and from != to.
  [[nodiscard]] std::uint32_t NextHop(std::uint32_t from,
                                      std::uint32_t to) const;

  /// All venues other than `from` within `max_hops`, ascending by id.
  [[nodiscard]] std::vector<std::uint32_t> ReachableWithin(
      std::uint32_t from, std::uint32_t max_hops) const;

  /// Connects `edge_nodes[a] <-> edge_nodes[b]` for every link.
  /// `edge_nodes` must hold one netsim node per venue.
  void ApplyTo(netsim::Network& net,
               std::span<const netsim::NodeId> edge_nodes) const;

 private:
  Topology(std::uint32_t venues, std::vector<TopologyLink> links);

  [[nodiscard]] std::size_t Cell(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * venues_ + b;
  }

  std::uint32_t venues_ = 1;
  std::vector<TopologyLink> links_;
  std::vector<std::vector<std::uint32_t>> neighbors_;
  /// Row-major venues_ x venues_ BFS products.
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> next_hop_;
};

}  // namespace coic::federation
