// Synthetic camera frames.
//
// The paper's AR workload feeds camera frames of physical objects (stop
// signs, avatars) to a DNN. We have no camera, so frames are generated
// procedurally from a SceneParams: `scene_id` selects the physical object
// (two users looking at the same stop sign share a scene_id), and the
// view parameters (angle / distance / illumination) perturb the rendering
// the way a second user at the same crossroads would see it. The
// substitution preserves the property CoIC depends on: frames of the same
// scene under small view changes yield nearby feature descriptors, frames
// of different scenes yield distant ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/units.h"

namespace coic::vision {

/// What the camera is looking at, and from where.
struct SceneParams {
  /// Identity of the physical object/scene. Same scene_id == same object.
  std::uint64_t scene_id = 0;
  /// Camera azimuth around the object, degrees.
  double view_angle_deg = 0;
  /// Normalized camera distance; 1.0 = canonical framing.
  double distance = 1.0;
  /// Illumination multiplier; 1.0 = canonical lighting.
  double illumination = 1.0;
  /// Raster resolution fed to the feature extractor (DNN input size).
  std::uint32_t width = 96;
  std::uint32_t height = 96;
};

/// A grayscale float raster plus the byte size it would occupy encoded
/// (what a real client would upload in Origin mode).
class SyntheticImage {
 public:
  /// Deterministically renders the scene. Identical params produce
  /// identical pixels on every platform. Thread-safe: a pure function of
  /// `params` with no shared state, so the federation pipeline's helper
  /// threads describe queued recognition frames while the run loop runs.
  ///
  /// Separable: each blob's Gaussian is a per-column table times a
  /// per-row factor around the blob's rotated centre, and the texture
  /// splits by the angle-addition identities, so a W x H raster costs
  /// blobs x (W + H) exp calls instead of blobs x W x H. The float pixels
  /// equal the per-pixel form's (vision_test's ReferenceGenerate) on all
  /// but about one pixel in 10^7, which lands 1 ulp away; that is
  /// measured over a seeded sweep, not guaranteed by construction.
  /// A raster too large for a vector (UINT32_MAX squared) throws
  /// std::length_error before any table is allocated.
  static SyntheticImage Generate(const SceneParams& params);

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }
  [[nodiscard]] std::span<const float> pixels() const noexcept { return pixels_; }
  [[nodiscard]] const SceneParams& params() const noexcept { return params_; }

  /// Pixel accessor (row-major). Precondition: in range.
  [[nodiscard]] float at(std::uint32_t x, std::uint32_t y) const noexcept {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Size of the camera frame on the wire in Origin mode. The paper's
  /// client uploads a high-resolution frame; we model a 1080p-class JPEG
  /// (configurable by the pipelines) independent of the raster used for
  /// extraction.
  static constexpr Bytes kDefaultEncodedSize = 1'500'000;

  /// Quantized pixel bytes; stable input for content digests.
  [[nodiscard]] ByteVec EncodePixels() const;

  /// Digest of the quantized pixels.
  [[nodiscard]] Digest128 ContentHash() const;

  /// Wire form for Origin-mode offload: scene metadata + quantized
  /// pixels, padded with deterministic filler to `padded_total` bytes so
  /// the transfer cost models a high-resolution camera JPEG while the
  /// raster stays extraction-sized. `padded_total` of 0 means no padding.
  [[nodiscard]] ByteVec SerializeForWire(Bytes padded_total) const;

  /// Parses a wire frame back into an image. The pixel floats are
  /// reconstructed from the quantized bytes (i.e. this round-trip is
  /// lossy exactly the way camera JPEG is); descriptor extraction on the
  /// decoded image lands within the matcher threshold of the original.
  static Result<SyntheticImage> DecodeWire(std::span<const std::uint8_t> bytes);

  /// Constructs directly from a pixel buffer (decoder path).
  static SyntheticImage FromPixels(const SceneParams& params,
                                   std::vector<float> pixels);

 private:
  SyntheticImage(SceneParams params, std::vector<float> pixels) noexcept
      : params_(params), width_(params.width), height_(params.height),
        pixels_(std::move(pixels)) {}

  SceneParams params_;
  std::uint32_t width_ = 0;
  std::uint32_t height_ = 0;
  std::vector<float> pixels_;
};

}  // namespace coic::vision
