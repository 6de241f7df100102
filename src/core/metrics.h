// QoE aggregation over RequestOutcome streams.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "core/client.h"

namespace coic::core {

/// Accumulates outcomes into the numbers the paper's figures report:
/// mean/percentile latency, hit rate, and reduction vs a baseline.
class QoeAggregator {
 public:
  void Add(const RequestOutcome& outcome);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }
  [[nodiscard]] std::uint64_t edge_hits() const noexcept { return edge_hits_; }
  [[nodiscard]] std::uint64_t peer_hits() const noexcept { return peer_hits_; }
  [[nodiscard]] std::uint64_t cloud_served() const noexcept { return cloud_served_; }
  /// Fraction of served results that came out of an IC cache — local edge
  /// or a cooperating peer edge — rather than cloud compute.
  [[nodiscard]] double HitRate() const noexcept;
  /// Fraction of recognition outcomes whose label matched ground truth.
  [[nodiscard]] double Accuracy() const noexcept;

  [[nodiscard]] double MeanLatencyMs() const { return latency_ms_.mean(); }
  [[nodiscard]] double PercentileLatencyMs(double q) const {
    return latency_ms_.Percentile(q);
  }
  [[nodiscard]] const Sample& latencies_ms() const noexcept { return latency_ms_; }

  /// Latency distribution of the outcomes served by one source — the
  /// where-did-the-time-go split of the overall curve: an edge hit is
  /// two LAN hops, a peer hit adds the probe round, a cloud trip the
  /// WAN. Empty Sample when no outcome had that source.
  [[nodiscard]] const Sample& latencies_ms_for(
      proto::ResultSource source) const {
    return latency_by_source_[SourceIndex(source)];
  }

  /// Latency reduction of `this` relative to `baseline` mean latency,
  /// in percent (the paper's "reduce up to 52.28%" metric).
  [[nodiscard]] double ReductionPercentVs(const QoeAggregator& baseline) const;

  /// {"count": N, "errors": N, "hit_rate": f, "accuracy": f, "latency_ms":
  /// {...}, "by_source": {"edge_cache": {...}, ...}} — sources with no
  /// outcomes are omitted; each {...} carries count/mean/p50/p95/p99.
  [[nodiscard]] std::string DumpJson() const;

 private:
  static constexpr int kSourceCount = 4;
  static int SourceIndex(proto::ResultSource source) noexcept {
    return static_cast<int>(source) & 3;
  }

  Sample latency_ms_;
  Sample latency_by_source_[kSourceCount];
  std::uint64_t count_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t edge_hits_ = 0;
  std::uint64_t peer_hits_ = 0;
  std::uint64_t cloud_served_ = 0;
  std::uint64_t recognition_total_ = 0;
  std::uint64_t recognition_correct_ = 0;
};

}  // namespace coic::core
