// Peer-selection policies — who gets probed on a local miss.
//
// The policy is the knob the federation bench sweeps: broadcast-all is
// the hit-rate ceiling (and probe-traffic worst case), summary-directed
// uses gossiped CacheSummaries to probe only the likeliest holders, and
// random-k is the summary-free middle ground. All policies see only the
// peers within the configured hop limit; the edge's probe budget caps
// whatever they return.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "federation/summary.h"
#include "proto/descriptor.h"

namespace coic::federation {

enum class PeerSelectKind : std::uint8_t {
  kBroadcastAll = 0,     ///< Probe every reachable peer (baseline).
  kSummaryDirected = 1,  ///< Probe the best summary matches only.
  kRandomK = 2,          ///< Probe k uniformly random reachable peers.
};

std::string_view PeerSelectKindName(PeerSelectKind kind) noexcept;

struct PeerSelectConfig {
  PeerSelectKind kind = PeerSelectKind::kSummaryDirected;
  /// kRandomK: probes per miss.
  std::uint32_t random_k = 2;
  /// kSummaryDirected: how many positive-scoring peers to probe. 1 is the
  /// directed ideal; 2 buys insurance against Bloom false positives and
  /// summary staleness at double the probe cost.
  std::uint32_t directed_fanout = 1;
  std::uint64_t seed = 0xFEDE;
};

class PeerSelectPolicy {
 public:
  virtual ~PeerSelectPolicy() = default;

  /// Ordered probe candidates (best first) for `key`, drawn from
  /// `reachable`. `summaries` holds the freshest gossip per peer; peers
  /// without a summary are treated as empty by summary-aware policies.
  virtual std::vector<std::uint32_t> Select(
      const proto::FeatureDescriptor& key,
      std::span<const std::uint32_t> reachable,
      const SummaryTable& summaries) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

std::unique_ptr<PeerSelectPolicy> MakePeerSelectPolicy(
    const PeerSelectConfig& config);

}  // namespace coic::federation
