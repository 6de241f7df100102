// Measurement primitives used by benches and QoE accounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"

namespace coic {

/// Streaming mean/variance/min/max via Welford's algorithm. O(1) memory,
/// numerically stable; used for per-link utilization and compute-time
/// accounting inside the simulator where storing samples would distort
/// the hot loop.
class OnlineStats {
 public:
  void Add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void Merge(const OnlineStats& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples and answers exact percentile queries. Benches use
/// this for p50/p95/p99 latency rows; sample counts there are small
/// enough (<= a few 100k) that exactness beats sketching.
class Sample {
 public:
  void Add(double x) { values_.push_back(x); dirty_ = true; }
  void Reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double mean() const noexcept;

  /// Exact percentile with linear interpolation; q in [0, 100].
  /// Precondition: !empty().
  [[nodiscard]] double Percentile(double q) const;

  [[nodiscard]] double min() const { return Percentile(0); }
  [[nodiscard]] double median() const { return Percentile(50); }
  [[nodiscard]] double max() const { return Percentile(100); }

  void Clear() noexcept { values_.clear(); dirty_ = true; }

 private:
  mutable std::vector<double> values_;
  mutable bool dirty_ = true;
};

/// Log-linear latency histogram with bounded relative error (the
/// HDR-histogram layout): values below kExact microseconds get a bucket
/// each; above that every power-of-two octave [2^e, 2^(e+1)) splits into
/// kSubBuckets equal-width buckets. A bucket is then at most 1/kSubBuckets
/// of its lower bound wide, so a quantile read at the bucket's midpoint
/// is within 1/(2 * kSubBuckets) < 1% of every value in it. Quantiles are
/// also clamped to the observed [min, max], so a constant-latency stream
/// reports its exact value. Buckets are allocated up to the largest
/// value seen (~1k for second-scale latencies).
class LatencyHistogram {
 public:
  /// Linear sub-buckets per octave (and half the exactly-counted range).
  static constexpr std::int64_t kSubBuckets = 64;
  /// Values below this are counted exactly, one bucket per microsecond.
  static constexpr std::int64_t kExact = 2 * kSubBuckets;

  /// Negative values count as 0.
  void AddMicros(std::int64_t us);

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// Exact sum of added values (the buckets are approximate; the mean
  /// is not).
  [[nodiscard]] std::int64_t sum_micros() const noexcept { return sum_us_; }
  [[nodiscard]] double MeanMicros() const noexcept {
    return total_ == 0 ? 0
                       : static_cast<double>(sum_us_) /
                             static_cast<double>(total_);
  }

  /// The value at rank floor(q * (count - 1)) (q in [0,1]), read as its
  /// bucket's midpoint clamped to [min, max]: within 1% of the true
  /// sample at that rank.
  [[nodiscard]] double QuantileMicros(double q) const noexcept;

  /// One bucket per row: "[lo_us, hi_us) count".
  [[nodiscard]] std::string ToString() const;

 private:
  static std::size_t BucketFor(std::int64_t us) noexcept;
  /// First value of bucket `b`, and its width.
  static std::int64_t BucketLowerBound(std::size_t b) noexcept;
  static std::int64_t BucketWidth(std::size_t b) noexcept;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::int64_t sum_us_ = 0;
  std::int64_t min_us_ = 0;
  std::int64_t max_us_ = 0;
};

}  // namespace coic
