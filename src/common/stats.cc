#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace coic {

void OnlineStats::Merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(n_ + other.n_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double Sample::mean() const noexcept {
  if (values_.empty()) return 0;
  double acc = 0;
  for (const double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

double Sample::Percentile(double q) const {
  COIC_CHECK(!values_.empty());
  COIC_CHECK(q >= 0 && q <= 100);
  if (dirty_) {
    std::sort(values_.begin(), values_.end());
    dirty_ = false;
  }
  if (values_.size() == 1) return values_[0];
  const double pos = q / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values_.size()) return values_.back();
  return values_[lo] * (1 - frac) + values_[lo + 1] * frac;
}

std::size_t LatencyHistogram::BucketFor(std::int64_t us) noexcept {
  if (us < kExact) return static_cast<std::size_t>(us);
  // Octave e = floor(log2(us)) >= log2(kExact); within it the bucket is
  // us >> shift, which lands in [kSubBuckets, 2 * kSubBuckets).
  const int e = std::bit_width(static_cast<std::uint64_t>(us)) - 1;
  const int shift = e - std::countr_zero(static_cast<std::uint64_t>(kSubBuckets));
  const int octave = e - std::countr_zero(static_cast<std::uint64_t>(kExact));
  return static_cast<std::size_t>(kExact + octave * kSubBuckets +
                                  ((us >> shift) - kSubBuckets));
}

std::int64_t LatencyHistogram::BucketWidth(std::size_t b) noexcept {
  if (b < static_cast<std::size_t>(kExact)) return 1;
  const auto octave = static_cast<int>(
      (b - static_cast<std::size_t>(kExact)) / kSubBuckets);
  return std::int64_t{2} << octave;
}

std::int64_t LatencyHistogram::BucketLowerBound(std::size_t b) noexcept {
  if (b < static_cast<std::size_t>(kExact)) return static_cast<std::int64_t>(b);
  const std::size_t rel = b - static_cast<std::size_t>(kExact);
  const auto sub = static_cast<std::int64_t>(rel % kSubBuckets);
  return (kSubBuckets + sub) * BucketWidth(b);
}

void LatencyHistogram::AddMicros(std::int64_t us) {
  us = std::max<std::int64_t>(us, 0);
  const std::size_t b = BucketFor(us);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  min_us_ = total_ == 0 ? us : std::min(min_us_, us);
  max_us_ = total_ == 0 ? us : std::max(max_us_, us);
  ++total_;
  sum_us_ += us;
}

double LatencyHistogram::QuantileMicros(double q) const noexcept {
  if (total_ == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  std::size_t b = 0;
  for (; b + 1 < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > target) break;
  }
  // Midpoint of the integer values the bucket holds.
  const double mid = static_cast<double>(BucketLowerBound(b)) +
                     static_cast<double>(BucketWidth(b) - 1) / 2.0;
  return std::clamp(mid, static_cast<double>(min_us_),
                    static_cast<double>(max_us_));
}

std::string LatencyHistogram::ToString() const {
  std::string out;
  char line[96];
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const std::int64_t lo = BucketLowerBound(b);
    std::snprintf(line, sizeof(line), "[%9lld, %9lld) us  %llu\n",
                  static_cast<long long>(lo),
                  static_cast<long long>(lo + BucketWidth(b)),
                  static_cast<unsigned long long>(buckets_[b]));
    out += line;
  }
  return out;
}

}  // namespace coic
