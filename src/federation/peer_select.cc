#include "federation/peer_select.h"

#include <algorithm>

namespace coic::federation {
namespace {

class BroadcastAllPolicy final : public PeerSelectPolicy {
 public:
  std::vector<std::uint32_t> Select(const proto::FeatureDescriptor&,
                                    std::span<const std::uint32_t> reachable,
                                    const SummaryTable&) override {
    return {reachable.begin(), reachable.end()};
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "broadcast-all";
  }
};

class SummaryDirectedPolicy final : public PeerSelectPolicy {
 public:
  explicit SummaryDirectedPolicy(std::uint32_t fanout) : fanout_(fanout) {}

  std::vector<std::uint32_t> Select(const proto::FeatureDescriptor& key,
                                    std::span<const std::uint32_t> reachable,
                                    const SummaryTable& summaries) override {
    struct Scored {
      double score;
      std::uint32_t peer;
    };
    std::vector<Scored> scored;
    for (const std::uint32_t peer : reachable) {
      const CacheSummary* summary = summaries.For(peer);
      if (summary == nullptr) continue;  // no gossip yet => assume empty
      const double score = summary->MatchScore(key);
      if (score > 0) scored.push_back({score, peer});
    }
    // Best first; ties broken by peer id so runs are deterministic.
    std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.peer < b.peer;
    });
    if (scored.size() > fanout_) scored.resize(fanout_);
    std::vector<std::uint32_t> result;
    result.reserve(scored.size());
    for (const auto& s : scored) result.push_back(s.peer);
    return result;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "summary-directed";
  }

 private:
  std::uint32_t fanout_;
};

class RandomKPolicy final : public PeerSelectPolicy {
 public:
  RandomKPolicy(std::uint32_t k, std::uint64_t seed) : k_(k), rng_(seed) {}

  std::vector<std::uint32_t> Select(const proto::FeatureDescriptor&,
                                    std::span<const std::uint32_t> reachable,
                                    const SummaryTable&) override {
    std::vector<std::uint32_t> pool(reachable.begin(), reachable.end());
    // Partial Fisher–Yates: the first k slots become the sample.
    const std::size_t take = std::min<std::size_t>(k_, pool.size());
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t j = i + rng_.NextBelow(pool.size() - i);
      std::swap(pool[i], pool[j]);
    }
    pool.resize(take);
    return pool;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "random-k";
  }

 private:
  std::uint32_t k_;
  Rng rng_;
};

}  // namespace

std::string_view PeerSelectKindName(PeerSelectKind kind) noexcept {
  switch (kind) {
    case PeerSelectKind::kBroadcastAll: return "broadcast-all";
    case PeerSelectKind::kSummaryDirected: return "summary-directed";
    case PeerSelectKind::kRandomK: return "random-k";
  }
  return "unknown";
}

std::unique_ptr<PeerSelectPolicy> MakePeerSelectPolicy(
    const PeerSelectConfig& config) {
  switch (config.kind) {
    case PeerSelectKind::kBroadcastAll:
      return std::make_unique<BroadcastAllPolicy>();
    case PeerSelectKind::kSummaryDirected:
      return std::make_unique<SummaryDirectedPolicy>(config.directed_fanout);
    case PeerSelectKind::kRandomK:
      return std::make_unique<RandomKPolicy>(config.random_k, config.seed);
  }
  return std::make_unique<BroadcastAllPolicy>();
}

}  // namespace coic::federation
