// Vision substrate tests: determinism, the metric-structure property
// CoIC depends on (same object close, different objects far), and the
// recognition model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "vision/features.h"
#include "vision/image.h"
#include "vision/recognition.h"

namespace coic::vision {
namespace {

// ---------------------------------------------------------------------------
// SyntheticImage
// ---------------------------------------------------------------------------

TEST(ImageTest, DeterministicGeneration) {
  SceneParams params;
  params.scene_id = 17;
  params.view_angle_deg = 5;
  const auto a = SyntheticImage::Generate(params);
  const auto b = SyntheticImage::Generate(params);
  ASSERT_EQ(a.pixels().size(), b.pixels().size());
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    ASSERT_EQ(a.pixels()[i], b.pixels()[i]) << "pixel " << i;
  }
}

TEST(ImageTest, DifferentScenesDiffer) {
  SceneParams a, b;
  a.scene_id = 1;
  b.scene_id = 2;
  const auto ia = SyntheticImage::Generate(a);
  const auto ib = SyntheticImage::Generate(b);
  EXPECT_NE(ia.ContentHash(), ib.ContentHash());
}

TEST(ImageTest, ViewPerturbationChangesPixelsSlightly) {
  SceneParams base;
  base.scene_id = 5;
  SceneParams turned = base;
  turned.view_angle_deg = 4;
  const auto a = SyntheticImage::Generate(base);
  const auto b = SyntheticImage::Generate(turned);
  double diff = 0, energy = 0;
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    diff += std::abs(static_cast<double>(a.pixels()[i]) - b.pixels()[i]);
    energy += a.pixels()[i];
  }
  EXPECT_GT(diff, 0.0);              // not identical
  EXPECT_LT(diff, energy);           // but far from unrelated
}

TEST(ImageTest, DimensionsRespected) {
  SceneParams params;
  params.width = 64;
  params.height = 48;
  const auto img = SyntheticImage::Generate(params);
  EXPECT_EQ(img.width(), 64u);
  EXPECT_EQ(img.height(), 48u);
  EXPECT_EQ(img.pixels().size(), 64u * 48u);
}

TEST(ImageTest, IlluminationScalesBrightness) {
  SceneParams dim, bright;
  dim.scene_id = bright.scene_id = 9;
  dim.illumination = 0.5;
  bright.illumination = 1.5;
  const auto a = SyntheticImage::Generate(dim);
  const auto b = SyntheticImage::Generate(bright);
  double sum_a = 0, sum_b = 0;
  for (const float p : a.pixels()) sum_a += p;
  for (const float p : b.pixels()) sum_b += p;
  EXPECT_GT(sum_b, sum_a * 1.5);
}

TEST(ImageTest, WireRoundTripPreservesIdentity) {
  SceneParams params;
  params.scene_id = 23;
  params.view_angle_deg = -3;
  const auto img = SyntheticImage::Generate(params);
  const ByteVec wire = img.SerializeForWire(50'000);
  EXPECT_EQ(wire.size(), 50'000u);
  auto decoded = SyntheticImage::DecodeWire(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().params().scene_id, 23u);
  EXPECT_EQ(decoded.value().width(), img.width());
  // Quantization-lossy round trip: pixels within one quantization step.
  for (std::size_t i = 0; i < img.pixels().size(); i += 101) {
    EXPECT_NEAR(decoded.value().pixels()[i], img.pixels()[i], 1.0f / 32.0f);
  }
}

TEST(ImageTest, WireDecodeRejectsCorruptPayload) {
  const auto img = SyntheticImage::Generate(SceneParams{});
  ByteVec wire = img.SerializeForWire(0);
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(SyntheticImage::DecodeWire(wire).ok());
}

TEST(ImageTest, ContentHashMatchesAcrossIdenticalViews) {
  SceneParams params;
  params.scene_id = 31;
  EXPECT_EQ(SyntheticImage::Generate(params).ContentHash(),
            SyntheticImage::Generate(params).ContentHash());
}

TEST(ImageTest, OversizedRasterThrowsLengthError) {
  SceneParams params;
  params.width = UINT32_MAX;
  params.height = UINT32_MAX;
  EXPECT_THROW(SyntheticImage::Generate(params), std::length_error);
}

// The per-pixel rasterizer that Generate's separable kernel replaced,
// kept as the reference with the same arithmetic in the same order: per
// pixel, each blob's Gaussian at the inverse-rotated sample point plus
// the texture product.
std::vector<float> ReferenceGenerate(const SceneParams& params) {
  constexpr double kPi = 3.14159265358979323846;
  struct Blob {
    double cx, cy, sigma, amplitude;
  };
  Rng rng(params.scene_id * 0x9E3779B97F4A7C15ULL + 0xC01C);
  std::vector<Blob> blobs(6 + rng.NextBelow(5));
  for (auto& b : blobs) {
    b.cx = rng.NextDouble() * 1.4 - 0.7;
    b.cy = rng.NextDouble() * 1.4 - 0.7;
    b.sigma = 0.08 + rng.NextDouble() * 0.25;
    b.amplitude = 0.35 + rng.NextDouble() * 0.65;
  }
  std::uint64_t tex_state = params.scene_id ^ 0xA5A5A5A5DEADBEEFULL;
  const std::uint64_t tex = SplitMix64(tex_state);

  const double theta = params.view_angle_deg * kPi / 180.0;
  const double cos_t = std::cos(theta);
  const double sin_t = std::sin(theta);
  const double zoom = 1.0 / params.distance;
  std::vector<float> pixels(static_cast<std::size_t>(params.width) *
                            params.height);
  const double tex_sin_phase = static_cast<double>(tex & 7);
  const double tex_cos_phase = static_cast<double>((tex >> 3) & 7);
  std::vector<double> denoms(blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    denoms[i] = 2 * blobs[i].sigma * blobs[i].sigma;
  }
  for (std::uint32_t y = 0; y < params.height; ++y) {
    const double py = 2.0 * (static_cast<double>(y) + 0.5) / params.height - 1.0;
    for (std::uint32_t x = 0; x < params.width; ++x) {
      const double px = 2.0 * (static_cast<double>(x) + 0.5) / params.width - 1.0;
      const double sx = (px * cos_t + py * sin_t) / zoom;
      const double sy = (-px * sin_t + py * cos_t) / zoom;
      double v = 0;
      for (std::size_t i = 0; i < blobs.size(); ++i) {
        const Blob& b = blobs[i];
        const double dx = sx - b.cx;
        const double dy = sy - b.cy;
        v += b.amplitude * std::exp(-(dx * dx + dy * dy) / denoms[i]);
      }
      v += 0.05 * std::sin(7.0 * sx + tex_sin_phase) *
           std::cos(5.0 * sy + tex_cos_phase);
      v *= params.illumination;
      pixels[static_cast<std::size_t>(y) * params.width + x] =
          static_cast<float>(std::clamp(v, 0.0, 4.0));
    }
  }
  return pixels;
}

// Float ulps between two non-negative finite floats (the rasterizer
// clamps to [0, 4]).
std::uint32_t UlpDistance(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua > ub ? ua - ub : ub - ua;
}

// Counts the pixels where Generate differs from the reference. The
// separable form reassociates the arithmetic, so bit identity is a
// measured property, not one guaranteed by construction: a draw that
// does differ must stay within 1 ulp per pixel and keep the descriptor.
std::size_t PixelsOffReference(const SceneParams& params,
                               const FeatureExtractor& extractor) {
  const auto image = SyntheticImage::Generate(params);
  const auto reference = ReferenceGenerate(params);
  EXPECT_EQ(image.pixels().size(), reference.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (image.pixels()[i] == reference[i]) continue;
    ++off;
    EXPECT_LE(UlpDistance(image.pixels()[i], reference[i]), 1u)
        << "pixel " << i << " of scene " << params.scene_id;
  }
  if (off > 0) {
    std::cout << "scene " << params.scene_id << " angle "
              << params.view_angle_deg << " distance " << params.distance
              << " illumination " << params.illumination << " raster "
              << params.width << "x" << params.height << ": " << off
              << " pixel(s) 1 ulp off the reference\n";
    EXPECT_EQ(extractor.Extract(image),
              extractor.Extract(SyntheticImage::FromPixels(params, reference)));
  }
  return off;
}

TEST(ImageTest, SeparableRasterMatchesPerPixelReference) {
  const FeatureExtractor extractor;
  Rng rng(0x5E9A2AB1E);
  const auto uniform = [&rng](double lo, double hi) {
    return lo + rng.NextDouble() * (hi - lo);
  };
  std::size_t pixels = 0, off = 0;
  const auto check = [&](const SceneParams& params) {
    pixels += static_cast<std::size_t>(params.width) * params.height;
    off += PixelsOffReference(params, extractor);
  };
  // The workload's jitter (trace::WorkloadConfig defaults) at the
  // benchmark's raster and the library default.
  for (const std::uint32_t raster : {32u, 96u}) {
    for (std::uint64_t scene = 0; scene < 64; ++scene) {
      check({.scene_id = scene,
             .view_angle_deg = uniform(-6, 6),
             .distance = uniform(0.92, 1.08),
             .illumination = uniform(0.9, 1.1),
             .width = raster,
             .height = raster});
    }
  }
  // Every raster side from 8 to 128, odd and even (H = 136 - W).
  for (std::uint32_t raster = 8; raster <= 128; ++raster) {
    check({.scene_id = rng.NextBelow(1000),
           .view_angle_deg = uniform(-6, 6),
           .width = raster,
           .height = 136 - raster});
  }
  // The wide range: any angle, distance, lighting, raster and scene.
  const auto raster = [&rng] {
    return static_cast<std::uint32_t>(8 + rng.NextBelow(120));
  };
  for (int draw = 0; draw < 300; ++draw) {
    check({.scene_id = rng.NextU64(),
           .view_angle_deg = uniform(-180, 180),
           .distance = uniform(0.3, 3.0),
           .illumination = uniform(0.2, 2.2),
           .width = raster(),
           .height = raster()});
  }
  std::cout << off << " of " << pixels << " pixels differ from the reference\n";
}

// ---------------------------------------------------------------------------
// FeatureExtractor — metric structure properties
// ---------------------------------------------------------------------------

TEST(FeatureTest, DescriptorIsUnitNorm) {
  const FeatureExtractor extractor;
  const auto desc = extractor.Extract(SyntheticImage::Generate({.scene_id = 3}));
  EXPECT_EQ(desc.size(), extractor.config().output_dim);
  double norm = 0;
  for (const float v : desc) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-5);
}

TEST(FeatureTest, DeterministicGivenConfig) {
  const FeatureExtractor a, b;
  const auto img = SyntheticImage::Generate({.scene_id = 4});
  EXPECT_EQ(a.Extract(img), b.Extract(img));
}

TEST(FeatureTest, SeedChangesProjection) {
  FeatureExtractorConfig other;
  other.seed = 999;
  const FeatureExtractor a, b(other);
  const auto img = SyntheticImage::Generate({.scene_id = 4});
  EXPECT_NE(a.Extract(img), b.Extract(img));
}

TEST(FeatureTest, DistanceHelpersAgree) {
  const FeatureExtractor extractor;
  const auto d1 = extractor.Extract(SyntheticImage::Generate({.scene_id = 1}));
  const auto d2 = extractor.Extract(SyntheticImage::Generate({.scene_id = 2}));
  EXPECT_DOUBLE_EQ(DescriptorDistance(d1, d1), 0.0);
  EXPECT_GT(DescriptorDistance(d1, d2), 0.0);
  EXPECT_NEAR(CosineSimilarity(d1, d1), 1.0, 1e-6);
  // Unit vectors: ||a-b||^2 = 2 - 2 cos.
  const double dist = DescriptorDistance(d1, d2);
  const double cos = CosineSimilarity(d1, d2);
  EXPECT_NEAR(dist * dist, 2 - 2 * cos, 1e-4);
}

// The federation pipeline describes every queued recognition frame on
// several threads at once, so Generate and Extract must be safe to run
// concurrently and give the same bytes as a sequential pass. The TSan CI
// job runs this test.
TEST(FeatureTest, ConcurrentDescribeMatchesSequentialBytes) {
  const FeatureExtractor extractor;
  constexpr std::size_t kScenes = 64;
  const auto scene = [](std::size_t i) {
    return SceneParams{.scene_id = 1 + i % 16,
                       .view_angle_deg = 3.0 * static_cast<double>(i),
                       .distance = 0.9 + 0.01 * static_cast<double>(i),
                       .illumination = 1.1 - 0.005 * static_cast<double>(i),
                       .width = 32,
                       .height = 32};
  };
  std::vector<std::vector<float>> sequential(kScenes);
  for (std::size_t i = 0; i < kScenes; ++i) {
    sequential[i] = extractor.Extract(SyntheticImage::Generate(scene(i)));
  }
  std::vector<std::vector<float>> parallel(kScenes);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < kScenes;
           i = next.fetch_add(1)) {
        parallel[i] = extractor.Extract(SyntheticImage::Generate(scene(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kScenes; ++i) {
    ASSERT_EQ(parallel[i].size(), sequential[i].size()) << "scene " << i;
    EXPECT_EQ(std::memcmp(parallel[i].data(), sequential[i].data(),
                          sequential[i].size() * sizeof(float)),
              0)
        << "scene " << i;
  }
}

// The margin property: a perturbed view of the same object must be
// closer in descriptor space than any different object — with margin —
// across many objects and perturbations. This is the fact that makes
// the paper's threshold-based hit rule sound.
class MarginPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarginPropertyTest, SameSceneCloserThanDifferentScene) {
  const FeatureExtractor extractor;
  const std::uint64_t scene = GetParam();
  SceneParams canonical;
  canonical.scene_id = scene;
  const auto base = extractor.Extract(SyntheticImage::Generate(canonical));

  double worst_same = 0;
  for (const double angle : {-6.0, -3.0, 3.0, 6.0}) {
    for (const double dist : {0.94, 1.06}) {
      SceneParams view = canonical;
      view.view_angle_deg = angle;
      view.distance = dist;
      view.illumination = 1.0 + angle / 100.0;
      const auto desc = extractor.Extract(SyntheticImage::Generate(view));
      worst_same = std::max(worst_same, DescriptorDistance(base, desc));
    }
  }

  double best_other = 1e300;
  for (std::uint64_t other = scene + 1; other < scene + 20; ++other) {
    SceneParams params;
    params.scene_id = other * 131 + 7;
    const auto desc = extractor.Extract(SyntheticImage::Generate(params));
    best_other = std::min(best_other, DescriptorDistance(base, desc));
  }

  EXPECT_LT(worst_same * 1.2, best_other)
      << "margin violated: same-scene " << worst_same << " vs other "
      << best_other;
}

INSTANTIATE_TEST_SUITE_P(Scenes, MarginPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 11, 23, 42, 99, 1234));

// ---------------------------------------------------------------------------
// RecognitionModel
// ---------------------------------------------------------------------------

std::vector<ObjectClass> MakeClasses(std::uint32_t n) {
  std::vector<ObjectClass> classes;
  for (std::uint32_t c = 1; c <= n; ++c) {
    classes.push_back({c, "object_" + std::to_string(c)});
  }
  return classes;
}

TEST(RecognitionTest, ClassifiesCanonicalViewsCorrectly) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(15), extractor);
  for (std::uint64_t scene = 1; scene <= 15; ++scene) {
    const auto result =
        model.Classify(SyntheticImage::Generate({.scene_id = scene}));
    EXPECT_EQ(result.label, "object_" + std::to_string(scene));
    EXPECT_EQ(result.scene_id, scene);
    EXPECT_GT(result.confidence, 0.5f);
  }
}

TEST(RecognitionTest, RobustToViewPerturbation) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(10), extractor);
  int correct = 0, total = 0;
  for (std::uint64_t scene = 1; scene <= 10; ++scene) {
    for (const double angle : {-8.0, 8.0}) {
      SceneParams params;
      params.scene_id = scene;
      params.view_angle_deg = angle;
      params.distance = 1.05;
      ++total;
      correct += model.Classify(SyntheticImage::Generate(params)).label ==
                 "object_" + std::to_string(scene);
    }
  }
  EXPECT_GE(correct, total * 9 / 10);
}

TEST(RecognitionTest, ClassifyDescriptorMatchesClassifyImage) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(8), extractor);
  const auto img = SyntheticImage::Generate({.scene_id = 5});
  const auto via_image = model.Classify(img);
  const auto via_descriptor = model.ClassifyDescriptor(extractor.Extract(img));
  EXPECT_EQ(via_image.label, via_descriptor.label);
  EXPECT_EQ(via_image.confidence, via_descriptor.confidence);
}

TEST(RecognitionTest, AnnotationDeterministicPerLabelAndSized) {
  const auto a = RecognitionModel::MakeAnnotation("stop_sign", 1024);
  const auto b = RecognitionModel::MakeAnnotation("stop_sign", 1024);
  const auto c = RecognitionModel::MakeAnnotation("yield_sign", 1024);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1024u);
}

TEST(RecognitionTest, ConfidenceInUnitRange) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(5), extractor);
  for (std::uint64_t scene : {1ull, 3ull, 999ull}) {  // 999 = unknown object
    const auto r = model.Classify(SyntheticImage::Generate({.scene_id = scene}));
    EXPECT_GE(r.confidence, 0.0f);
    EXPECT_LE(r.confidence, 1.0f);
  }
}

}  // namespace
}  // namespace coic::vision
