#include "federation/summary.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace coic::federation {
namespace {

/// SplitMix64 finalizer — the same avalanche the content digest uses;
/// gives two independent probe streams from one 64-bit key.
constexpr std::uint64_t Mix(std::uint64_t x, std::uint64_t seed) noexcept {
  x += seed;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

BloomFilter::BloomFilter(BloomFilterConfig config)
    : hashes_(config.hashes), bits_((config.bits + 7) / 8, 0) {
  COIC_CHECK(config.bits >= 8);
  COIC_CHECK(config.hashes >= 1 && config.hashes <= 16);
}

BloomFilter::BloomFilter(std::uint32_t hashes, ByteVec bits,
                         std::uint64_t inserted)
    : hashes_(hashes), inserted_(inserted), bits_(std::move(bits)) {
  COIC_CHECK(hashes_ >= 1 && hashes_ <= 16);
  COIC_CHECK(!bits_.empty());
}

void BloomFilter::Insert(std::uint64_t key) {
  const std::uint64_t h1 = Mix(key, 0x9E3779B97F4A7C15ULL);
  // An even/zero stride would cycle through a subset of positions; force
  // it odd so the probe sequence covers the whole array.
  const std::uint64_t h2 = Mix(key, 0xC2B2AE3D27D4EB4FULL) | 1;
  const std::uint64_t m = bit_count();
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % m;
    bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  ++inserted_;
}

bool BloomFilter::MayContain(std::uint64_t key) const {
  const std::uint64_t h1 = Mix(key, 0x9E3779B97F4A7C15ULL);
  const std::uint64_t h2 = Mix(key, 0xC2B2AE3D27D4EB4FULL) | 1;
  const std::uint64_t m = bit_count();
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % m;
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) return false;
  }
  return true;
}

void BloomFilter::Clear() {
  std::fill(bits_.begin(), bits_.end(), 0);
  inserted_ = 0;
}

double BloomFilter::EstimatedFpRate() const noexcept {
  const double k = hashes_;
  const double n = static_cast<double>(inserted_);
  const double m = bit_count();
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

// ------------------------------- CacheSummary ------------------------------

CacheSummary CacheSummary::Build(std::uint32_t edge_id, std::uint64_t version,
                                 const cache::IcCache& cache,
                                 const BloomFilterConfig& bloom_config) {
  CacheSummary s;
  s.edge_id_ = edge_id;
  s.version_ = version;
  s.bloom_ = BloomFilter(bloom_config);

  std::array<std::vector<double>, 3> sums;
  cache.ForEachKey([&](const proto::FeatureDescriptor& key) {
    if (key.kind() == proto::DescriptorKind::kContentHash) {
      s.bloom_.Insert(key.IndexKey());
      return;
    }
    auto& sketch = s.sketches_[static_cast<std::size_t>(key.task())];
    auto& sum = sums[static_cast<std::size_t>(key.task())];
    const auto vec = key.vector();
    if (sum.empty()) sum.resize(vec.size(), 0.0);
    if (sum.size() != vec.size()) return;  // mixed dims: keep first family
    for (std::size_t i = 0; i < vec.size(); ++i) sum[i] += vec[i];
    ++sketch.count;
  });
  for (std::size_t t = 0; t < 3; ++t) {
    auto& sketch = s.sketches_[t];
    if (sketch.count == 0) continue;
    sketch.centroid.resize(sums[t].size());
    for (std::size_t i = 0; i < sums[t].size(); ++i) {
      sketch.centroid[i] = static_cast<float>(sums[t][i] / sketch.count);
    }
  }
  return s;
}

double CacheSummary::MatchScore(const proto::FeatureDescriptor& key) const {
  if (key.kind() == proto::DescriptorKind::kContentHash) {
    return bloom_.MayContain(key.IndexKey()) ? 1.0 : 0.0;
  }
  const auto& sketch = sketches_[static_cast<std::size_t>(key.task())];
  if (sketch.count == 0 || sketch.centroid.size() != key.vector().size()) {
    return 0.0;
  }
  double sq = 0;
  const auto vec = key.vector();
  for (std::size_t i = 0; i < vec.size(); ++i) {
    const double d = static_cast<double>(vec[i]) - sketch.centroid[i];
    sq += d * d;
  }
  return 1.0 / (1.0 + std::sqrt(sq));
}

proto::SummaryUpdate CacheSummary::ToWire() const {
  proto::SummaryUpdate wire;
  wire.edge_id = edge_id_;
  wire.version = version_;
  wire.bloom_hashes = bloom_.hashes();
  wire.bloom_inserted = bloom_.inserted();
  wire.bloom_bits = bloom_.bits();
  for (std::size_t t = 0; t < 3; ++t) {
    wire.centroids[t].count = sketches_[t].count;
    wire.centroids[t].centroid = sketches_[t].centroid;
  }
  return wire;
}

proto::SummaryDeltaUpdate CacheSummary::ToWireDelta(
    std::uint64_t base_version,
    std::vector<std::uint64_t> keys_inserted) const {
  proto::SummaryDeltaUpdate wire;
  wire.edge_id = edge_id_;
  wire.version = version_;
  wire.base_version = base_version;
  wire.bloom_inserted = bloom_.inserted();
  wire.keys_inserted = std::move(keys_inserted);
  for (std::size_t t = 0; t < 3; ++t) {
    wire.centroids[t].count = sketches_[t].count;
    wire.centroids[t].centroid = sketches_[t].centroid;
  }
  return wire;
}

Status CacheSummary::ApplyDelta(const proto::SummaryDeltaUpdate& wire) {
  if (wire.edge_id != edge_id_) {
    return Status(StatusCode::kInvalidArgument, "delta names another edge");
  }
  if (wire.base_version != version_) {
    return Status(StatusCode::kFailedPrecondition,
                  "delta base does not match held version");
  }
  if (wire.bloom_inserted != bloom_.inserted() + wire.keys_inserted.size()) {
    return Status(StatusCode::kDataLoss,
                  "delta key count does not compose with held summary");
  }
  for (const std::uint64_t key : wire.keys_inserted) bloom_.Insert(key);
  for (std::size_t t = 0; t < 3; ++t) {
    sketches_[t].count = wire.centroids[t].count;
    sketches_[t].centroid = wire.centroids[t].centroid;
  }
  version_ = wire.version;
  return Status::Ok();
}

Result<CacheSummary> CacheSummary::FromWire(const proto::SummaryUpdate& wire) {
  if (wire.bloom_bits.empty()) {
    return Status(StatusCode::kDataLoss, "summary with empty bloom filter");
  }
  if (wire.bloom_hashes < 1 || wire.bloom_hashes > 16) {
    return Status(StatusCode::kDataLoss, "summary with bad hash count");
  }
  CacheSummary s;
  s.edge_id_ = wire.edge_id;
  s.version_ = wire.version;
  s.bloom_ = BloomFilter(wire.bloom_hashes, wire.bloom_bits,
                         wire.bloom_inserted);
  for (std::size_t t = 0; t < 3; ++t) {
    s.sketches_[t].count = wire.centroids[t].count;
    s.sketches_[t].centroid = wire.centroids[t].centroid;
  }
  return s;
}

// ------------------------------- SummaryTable ------------------------------

bool SummaryTable::Update(CacheSummary summary) {
  COIC_CHECK(summary.edge_id() < summaries_.size());
  auto& slot = summaries_[summary.edge_id()];
  if (slot.has_value() && slot->version() >= summary.version()) return false;
  slot = std::move(summary);
  return true;
}

Status SummaryTable::ApplyDelta(const proto::SummaryDeltaUpdate& wire) {
  if (wire.edge_id >= summaries_.size()) {
    return Status(StatusCode::kInvalidArgument, "delta from unknown edge");
  }
  auto& slot = summaries_[wire.edge_id];
  if (!slot.has_value()) {
    return Status(StatusCode::kFailedPrecondition,
                  "delta without a base summary");
  }
  return slot->ApplyDelta(wire);
}

const CacheSummary* SummaryTable::For(std::uint32_t edge) const {
  COIC_CHECK(edge < summaries_.size());
  const auto& slot = summaries_[edge];
  return slot.has_value() ? &*slot : nullptr;
}

}  // namespace coic::federation
