// Deterministic feature extraction — the client-side half of CoIC's
// recognition path.
//
// Real CoIC runs the lower layers of a DNN on the phone and ships the
// intermediate feature vector as the descriptor. Our substitute keeps the
// two properties the framework relies on and nothing else:
//   1. determinism — same frame, same descriptor, everywhere;
//   2. metric structure — views of the same object land close in L2,
//      different objects land far (tested as a margin property).
//
// Pipeline: grid average-pooling (a convolution-ish local summary) ->
// fixed Gaussian random projection (the "learned" mixing) -> tanh
// squashing -> L2 normalization. The projection matrix is derived from a
// seed, so client and tests agree on the extractor by sharing a config.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "vision/image.h"

namespace coic::vision {

struct FeatureExtractorConfig {
  /// Pooling grid (gxg cells over the frame).
  std::uint32_t grid = 8;
  /// Output dimensionality of the descriptor vector.
  std::uint32_t output_dim = 64;
  /// Seed for the fixed projection matrix ("network weights").
  std::uint64_t seed = 0xFEA7;
};

class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureExtractorConfig config = {});

  /// Extracts the descriptor vector; length == config().output_dim,
  /// L2 norm == 1 (within FP rounding). Thread-safe: it only reads the
  /// projection fixed at construction, so one extractor serves many
  /// threads at once (the federation pipeline's streamed describe pass).
  [[nodiscard]] std::vector<float> Extract(const SyntheticImage& image) const;

  [[nodiscard]] const FeatureExtractorConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::vector<float> Pool(const SyntheticImage& image) const;

  FeatureExtractorConfig config_;
  /// Row-major output_dim x grid^2 projection.
  std::vector<float> projection_;
};

/// L2 distance between two descriptor vectors of equal length.
double DescriptorDistance(std::span<const float> a, std::span<const float> b);

/// Cosine similarity (both inputs need not be normalized).
double CosineSimilarity(std::span<const float> a, std::span<const float> b);

}  // namespace coic::vision
