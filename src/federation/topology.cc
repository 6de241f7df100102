#include "federation/topology.h"

#include <algorithm>
#include <deque>

#include "common/log.h"

namespace coic::federation {

Topology Topology::Star(std::uint32_t venues, const netsim::LinkConfig& link) {
  COIC_CHECK(venues >= 1);
  std::vector<TopologyLink> links;
  links.reserve(venues > 0 ? venues - 1 : 0);
  for (std::uint32_t v = 1; v < venues; ++v) {
    links.push_back({0, v, link});
  }
  return Topology(venues, std::move(links));
}

Topology Topology::Ring(std::uint32_t venues, const netsim::LinkConfig& link) {
  COIC_CHECK(venues >= 1);
  std::vector<TopologyLink> links;
  if (venues == 2) {
    links.push_back({0, 1, link});  // a 2-ring degenerates to one link
  } else if (venues > 2) {
    for (std::uint32_t v = 0; v < venues; ++v) {
      links.push_back({v, (v + 1) % venues, link});
    }
  }
  return Topology(venues, std::move(links));
}

Topology Topology::FullMesh(std::uint32_t venues,
                            const netsim::LinkConfig& link) {
  COIC_CHECK(venues >= 1);
  std::vector<TopologyLink> links;
  for (std::uint32_t a = 0; a < venues; ++a) {
    for (std::uint32_t b = a + 1; b < venues; ++b) {
      links.push_back({a, b, link});
    }
  }
  return Topology(venues, std::move(links));
}

Topology Topology::Custom(std::uint32_t venues,
                          std::vector<TopologyLink> links) {
  return Topology(venues, std::move(links));
}

Topology::Topology(std::uint32_t venues, std::vector<TopologyLink> links)
    : venues_(venues), links_(std::move(links)), neighbors_(venues) {
  COIC_CHECK(venues_ >= 1);
  for (const auto& l : links_) {
    COIC_CHECK_MSG(l.a < venues_ && l.b < venues_, "link names unknown venue");
    COIC_CHECK_MSG(l.a != l.b, "self-loop link");
    COIC_CHECK_MSG(std::find(neighbors_[l.a].begin(), neighbors_[l.a].end(),
                             l.b) == neighbors_[l.a].end(),
                   "duplicate link");
    neighbors_[l.a].push_back(l.b);
    neighbors_[l.b].push_back(l.a);
  }
  for (auto& n : neighbors_) std::sort(n.begin(), n.end());

  // All-pairs BFS; clusters are small (tens of venues), so O(V * (V+E))
  // at construction beats per-send path searches.
  dist_.assign(static_cast<std::size_t>(venues_) * venues_, kUnreachable);
  next_hop_.assign(static_cast<std::size_t>(venues_) * venues_, kUnreachable);
  for (std::uint32_t src = 0; src < venues_; ++src) {
    dist_[Cell(src, src)] = 0;
    std::deque<std::uint32_t> frontier{src};
    while (!frontier.empty()) {
      const std::uint32_t v = frontier.front();
      frontier.pop_front();
      for (const std::uint32_t n : neighbors_[v]) {
        if (dist_[Cell(src, n)] != kUnreachable) continue;
        dist_[Cell(src, n)] = dist_[Cell(src, v)] + 1;
        // First hop from src toward n: inherit v's first hop, unless v is
        // src itself (then n is the first hop).
        next_hop_[Cell(src, n)] = v == src ? n : next_hop_[Cell(src, v)];
        frontier.push_back(n);
      }
    }
  }
}

bool Topology::Adjacent(std::uint32_t a, std::uint32_t b) const {
  COIC_CHECK(a < venues_ && b < venues_);
  return std::binary_search(neighbors_[a].begin(), neighbors_[a].end(), b);
}

std::span<const std::uint32_t> Topology::Neighbors(std::uint32_t v) const {
  COIC_CHECK(v < venues_);
  return neighbors_[v];
}

std::uint32_t Topology::HopDistance(std::uint32_t a, std::uint32_t b) const {
  COIC_CHECK(a < venues_ && b < venues_);
  return dist_[Cell(a, b)];
}

std::uint32_t Topology::NextHop(std::uint32_t from, std::uint32_t to) const {
  COIC_CHECK(from < venues_ && to < venues_);
  const std::uint32_t hop = next_hop_[Cell(from, to)];
  COIC_CHECK_MSG(hop != kUnreachable, "NextHop between unreachable venues");
  return hop;
}

std::vector<std::uint32_t> Topology::ReachableWithin(
    std::uint32_t from, std::uint32_t max_hops) const {
  COIC_CHECK(from < venues_);
  std::vector<std::uint32_t> result;
  for (std::uint32_t v = 0; v < venues_; ++v) {
    if (v == from) continue;
    const std::uint32_t d = dist_[Cell(from, v)];
    if (d != kUnreachable && d <= max_hops) result.push_back(v);
  }
  return result;
}

void Topology::ApplyTo(netsim::Network& net,
                       std::span<const netsim::NodeId> edge_nodes) const {
  COIC_CHECK(edge_nodes.size() == venues_);
  for (const auto& l : links_) {
    net.Connect(edge_nodes[l.a], edge_nodes[l.b], l.link);
  }
}

}  // namespace coic::federation
