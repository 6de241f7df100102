#include "vision/image.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/status.h"

namespace coic::vision {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// A scene is a fixed set of Gaussian blobs whose geometry is derived
/// from scene_id; the view parameters move the camera, not the blobs.
struct Blob {
  double cx, cy;     // canonical center in [-1, 1]^2
  double sigma;      // spread
  double amplitude;  // brightness
};

std::vector<Blob> BlobsForScene(std::uint64_t scene_id) {
  Rng rng(scene_id * 0x9E3779B97F4A7C15ULL + 0xC01C);
  const std::size_t count = 6 + rng.NextBelow(5);  // 6..10 blobs
  std::vector<Blob> blobs(count);
  for (auto& b : blobs) {
    b.cx = rng.NextDouble() * 1.4 - 0.7;
    b.cy = rng.NextDouble() * 1.4 - 0.7;
    b.sigma = 0.08 + rng.NextDouble() * 0.25;
    b.amplitude = 0.35 + rng.NextDouble() * 0.65;
  }
  return blobs;
}

std::uint64_t SceneTextureKey(std::uint64_t scene_id) noexcept {
  std::uint64_t s = scene_id ^ 0xA5A5A5A5DEADBEEFULL;
  return SplitMix64(s);
}

}  // namespace

SyntheticImage SyntheticImage::Generate(const SceneParams& params) {
  COIC_CHECK_MSG(params.width >= 8 && params.height >= 8,
                 "image raster too small");
  COIC_CHECK_MSG(params.distance > 0.05, "camera inside the object");
  const auto blobs = BlobsForScene(params.scene_id);

  const double theta = params.view_angle_deg * kPi / 180.0;
  const double cos_t = std::cos(theta);
  const double sin_t = std::sin(theta);
  const double zoom = 1.0 / params.distance;
  const std::uint32_t width = params.width;
  const std::uint32_t height = params.height;

  // The raster is allocated before any table, so a raster larger than a
  // vector can hold fails here with std::length_error, not later with
  // std::bad_alloc from a table sized by one of its sides.
  std::vector<float> pixels(static_cast<std::size_t>(width) * height);

  // A pixel p (coordinates in [-1, 1]) samples the scene at s = R p / zoom,
  // R the inverse camera rotation: rotating the camera by +theta is
  // sampling the scene rotated by -theta. R preserves distance, so a
  // blob's |s - c|^2 is |p / zoom - R^T c|^2, a column term plus a row
  // term, and its Gaussian is a column factor times a row factor. The
  // texture sin(7 sx + a) * cos(5 sy + b) splits the same way by the
  // angle-addition identities. Per blob that is W + H exp calls instead
  // of W * H.
  const auto scene_coord = [zoom](std::uint32_t i, std::uint32_t n) {
    return (2.0 * (static_cast<double>(i) + 0.5) / n - 1.0) / zoom;
  };
  const std::size_t count = blobs.size();
  std::vector<double> ux(count), uy(count), denoms(count);
  for (std::size_t i = 0; i < count; ++i) {
    ux[i] = cos_t * blobs[i].cx - sin_t * blobs[i].cy;
    uy[i] = sin_t * blobs[i].cx + cos_t * blobs[i].cy;
    denoms[i] = 2 * blobs[i].sigma * blobs[i].sigma;
  }
  // Deterministic high-frequency texture keyed by scene identity —
  // distinguishes scenes whose blob layouts happen to be close.
  const std::uint64_t tex = SceneTextureKey(params.scene_id);
  const double tex_sin_phase = static_cast<double>(tex & 7);
  const double tex_cos_phase = static_cast<double>((tex >> 3) & 7);

  // Column tables: blob i's amplitude-scaled factor at column x is
  // col_gauss[i * width + x]; the texture's column angles are
  // a = 7 cos qx + phase and b = -5 sin qx.
  std::vector<double> col_gauss(count * width);
  std::vector<double> sin_a(width), cos_a(width), sin_b(width), cos_b(width);
  for (std::uint32_t x = 0; x < width; ++x) {
    const double qx = scene_coord(x, width);
    for (std::size_t i = 0; i < count; ++i) {
      const double d = qx - ux[i];
      col_gauss[i * width + x] =
          blobs[i].amplitude * std::exp(-(d * d) / denoms[i]);
    }
    const double a = 7.0 * cos_t * qx + tex_sin_phase;
    const double b = -5.0 * sin_t * qx;
    sin_a[x] = std::sin(a);
    cos_a[x] = std::cos(a);
    sin_b[x] = std::sin(b);
    cos_b[x] = std::cos(b);
  }

  std::vector<double> row(width);
  for (std::uint32_t y = 0; y < height; ++y) {
    const double qy = scene_coord(y, height);
    std::fill(row.begin(), row.end(), 0.0);
    for (std::size_t i = 0; i < count; ++i) {
      const double d = qy - uy[i];
      const double g = std::exp(-(d * d) / denoms[i]);
      const double* col = &col_gauss[i * width];
      for (std::uint32_t x = 0; x < width; ++x) row[x] += col[x] * g;
    }
    // Row angles c = 7 sin qy and e = 5 cos qy + phase; the texture is
    // sin(a + c) * cos(b + e).
    const double c = 7.0 * sin_t * qy;
    const double e = 5.0 * cos_t * qy + tex_cos_phase;
    const double sin_c = std::sin(c), cos_c = std::cos(c);
    const double sin_e = std::sin(e), cos_e = std::cos(e);
    float* out = &pixels[static_cast<std::size_t>(y) * width];
    for (std::uint32_t x = 0; x < width; ++x) {
      double v = row[x] + 0.05 * (sin_a[x] * cos_c + cos_a[x] * sin_c) *
                              (cos_b[x] * cos_e - sin_b[x] * sin_e);
      v *= params.illumination;
      out[x] = static_cast<float>(std::clamp(v, 0.0, 4.0));
    }
  }
  return SyntheticImage(params, std::move(pixels));
}

ByteVec SyntheticImage::EncodePixels() const {
  ByteVec out(pixels_.size());
  for (std::size_t i = 0; i < pixels_.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::clamp(pixels_[i] * 64.0f, 0.0f, 255.0f));
  }
  return out;
}

Digest128 SyntheticImage::ContentHash() const {
  const ByteVec bytes = EncodePixels();
  return ContentDigest(bytes);
}

SyntheticImage SyntheticImage::FromPixels(const SceneParams& params,
                                          std::vector<float> pixels) {
  COIC_CHECK(pixels.size() ==
             static_cast<std::size_t>(params.width) * params.height);
  return SyntheticImage(params, std::move(pixels));
}

ByteVec SyntheticImage::SerializeForWire(Bytes padded_total) const {
  ByteWriter w;
  w.WriteU64(params_.scene_id);
  w.WriteF64(params_.view_angle_deg);
  w.WriteF64(params_.distance);
  w.WriteF64(params_.illumination);
  w.WriteU32(params_.width);
  w.WriteU32(params_.height);
  w.WriteBlob(EncodePixels());
  const std::size_t body = w.size() + 4;  // +4 for the pad length field
  const std::size_t pad =
      padded_total > body ? static_cast<std::size_t>(padded_total) - body : 0;
  w.WriteBlob(DeterministicBytes(pad, params_.scene_id ^ 0x4A50454Bu));
  return w.TakeBytes();
}

Result<SyntheticImage> SyntheticImage::DecodeWire(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SceneParams params;
  COIC_RETURN_IF_ERROR(r.ReadU64(params.scene_id));
  COIC_RETURN_IF_ERROR(r.ReadF64(params.view_angle_deg));
  COIC_RETURN_IF_ERROR(r.ReadF64(params.distance));
  COIC_RETURN_IF_ERROR(r.ReadF64(params.illumination));
  COIC_RETURN_IF_ERROR(r.ReadU32(params.width));
  COIC_RETURN_IF_ERROR(r.ReadU32(params.height));
  ByteVec quantized;
  COIC_RETURN_IF_ERROR(r.ReadBlob(quantized));
  if (quantized.size() !=
      static_cast<std::size_t>(params.width) * params.height) {
    return Status(StatusCode::kDataLoss, "pixel payload size mismatch");
  }
  ByteVec padding;
  COIC_RETURN_IF_ERROR(r.ReadBlob(padding));  // discarded filler
  std::vector<float> pixels(quantized.size());
  for (std::size_t i = 0; i < quantized.size(); ++i) {
    pixels[i] = static_cast<float>(quantized[i]) / 64.0f;
  }
  return FromPixels(params, std::move(pixels));
}

}  // namespace coic::vision
