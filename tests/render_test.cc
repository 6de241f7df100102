// Render substrate tests: mesh invariants, byte-exact procedural models,
// loader, software renderer, panorama generation/cropping, registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "render/loader.h"
#include "render/mesh.h"
#include "render/model.h"
#include "render/panorama.h"
#include "render/registry.h"
#include "render/renderer.h"

namespace coic::render {
namespace {

// ---------------------------------------------------------------------------
// Mesh
// ---------------------------------------------------------------------------

Mesh UnitQuad() {
  Mesh mesh;
  mesh.vertices = {{.position = {0, 0, 0}},
                   {.position = {1, 0, 0}},
                   {.position = {1, 1, 0}},
                   {.position = {0, 1, 0}}};
  mesh.indices = {0, 1, 2, 0, 2, 3};
  return mesh;
}

TEST(MeshTest, ValidateAcceptsSoundMesh) {
  EXPECT_TRUE(UnitQuad().Validate().ok());
}

TEST(MeshTest, ValidateRejectsBadIndexCount) {
  Mesh mesh = UnitQuad();
  mesh.indices.push_back(0);
  EXPECT_EQ(mesh.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(MeshTest, ValidateRejectsOutOfRangeIndex) {
  Mesh mesh = UnitQuad();
  mesh.indices[0] = 99;
  EXPECT_EQ(mesh.Validate().code(), StatusCode::kOutOfRange);
}

TEST(MeshTest, BoundsAreTight) {
  const auto box = UnitQuad().Bounds();
  EXPECT_EQ(box.min, (Vec3{0, 0, 0}));
  EXPECT_EQ(box.max, (Vec3{1, 1, 0}));
}

TEST(MeshTest, RecomputeNormalsUnitLength) {
  Mesh mesh = UnitQuad();
  mesh.RecomputeNormals();
  for (const Vertex& v : mesh.vertices) {
    EXPECT_NEAR(Length(v.normal), 1.0f, 1e-5f);
    // Planar quad in z=0: normals along +/- z.
    EXPECT_NEAR(std::abs(v.normal.z), 1.0f, 1e-5f);
  }
}

TEST(MeshTest, VectorAlgebra) {
  EXPECT_EQ(Cross(Vec3{1, 0, 0}, Vec3{0, 1, 0}), (Vec3{0, 0, 1}));
  EXPECT_EQ(Dot(Vec3{1, 2, 3}, Vec3{4, 5, 6}), 32.0f);
  EXPECT_NEAR(Length(Vec3{3, 4, 0}), 5.0f, 1e-6f);
  const Vec3 n = Normalized(Vec3{10, 0, 0});
  EXPECT_EQ(n, (Vec3{1, 0, 0}));
  EXPECT_EQ(Normalized(Vec3{0, 0, 0}), (Vec3{0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Procedural models + serialization
// ---------------------------------------------------------------------------

class ModelSizeTest : public ::testing::TestWithParam<Bytes> {};

TEST_P(ModelSizeTest, BuildsByteExactModels) {
  ProceduralModelParams params;
  params.model_id = 3;
  params.target_serialized_bytes = GetParam();
  const Model3D model = BuildProceduralModel(params);
  EXPECT_EQ(SerializedModelSize(model), GetParam());
  EXPECT_EQ(SerializeModel(model).size(), GetParam());
  EXPECT_TRUE(model.mesh.Validate().ok());
  EXPECT_GT(model.mesh.triangle_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Figure2bSizes, ModelSizeTest,
                         ::testing::Values(kMinModelBytes, KB(231), KB(1073),
                                           KB(1949), KB(7050), KB(13072),
                                           KB(15053)));

TEST(ModelTest, SerializationRoundTrip) {
  ProceduralModelParams params;
  params.model_id = 7;
  params.target_serialized_bytes = KB(64);
  const Model3D model = BuildProceduralModel(params);
  auto decoded = DeserializeModel(SerializeModel(model));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), model);
}

TEST(ModelTest, LargerBudgetGetsMoreGeometry) {
  ProceduralModelParams small, large;
  small.target_serialized_bytes = KB(64);
  large.target_serialized_bytes = KB(4000);
  EXPECT_GT(BuildProceduralModel(large).mesh.vertices.size(),
            BuildProceduralModel(small).mesh.vertices.size());
}

TEST(ModelTest, DistinctSeedsDistinctDigests) {
  ProceduralModelParams a, b;
  a.target_serialized_bytes = b.target_serialized_bytes = KB(100);
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(ModelContentDigest(BuildProceduralModel(a)),
            ModelContentDigest(BuildProceduralModel(b)));
}

TEST(ModelTest, DeserializeRejectsCorruptMagic) {
  ProceduralModelParams params;
  params.target_serialized_bytes = KB(16);
  ByteVec bytes = SerializeModel(BuildProceduralModel(params));
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeModel(bytes).ok());
}

TEST(ModelTest, DeserializeRejectsTruncation) {
  ProceduralModelParams params;
  params.target_serialized_bytes = KB(16);
  ByteVec bytes = SerializeModel(BuildProceduralModel(params));
  bytes.resize(bytes.size() - 100);
  EXPECT_FALSE(DeserializeModel(bytes).ok());
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

TEST(LoaderTest, LoadsValidModel) {
  ProceduralModelParams params;
  params.target_serialized_bytes = KB(128);
  const Model3D model = BuildProceduralModel(params);
  auto loaded = LoadModel(SerializeModel(model));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().model, model);
  EXPECT_EQ(loaded.value().vertex_buffer.size(),
            model.mesh.vertices.size() * 8);
  EXPECT_EQ(loaded.value().index_count, model.mesh.indices.size());
  // The vertex buffer interleaves position, normal, uv per vertex.
  const auto& buffer = loaded.value().vertex_buffer;
  for (std::size_t i = 0; i < model.mesh.vertices.size(); ++i) {
    const Vertex& v = model.mesh.vertices[i];
    const float expected[8] = {v.position.x, v.position.y, v.position.z,
                               v.normal.x,   v.normal.y,   v.normal.z,
                               v.u,          v.v};
    for (std::size_t k = 0; k < 8; ++k) {
      ASSERT_EQ(buffer[i * 8 + k], expected[k])
          << "vertex " << i << " field " << k;
    }
  }
  // Texture histogram covers exactly the texture bytes.
  std::uint64_t histogram_total = 0;
  for (const auto c : loaded.value().texture_histogram) histogram_total += c;
  EXPECT_EQ(histogram_total, model.texture.size());
  EXPECT_GE(loaded.value().ResidentBytes(), model.texture.size());
}

TEST(LoaderTest, RejectsGarbage) {
  EXPECT_FALSE(LoadModel(DeterministicBytes(1000, 1)).ok());
}

// ---------------------------------------------------------------------------
// Renderer
// ---------------------------------------------------------------------------

LoadedModel LoadSphere(Bytes size = KB(64)) {
  ProceduralModelParams params;
  params.target_serialized_bytes = size;
  auto loaded = LoadModel(SerializeModel(BuildProceduralModel(params)));
  EXPECT_TRUE(loaded.ok());
  return std::move(loaded).value();
}

TEST(RendererTest, MatrixIdentityAndMultiply) {
  const Mat4 identity = Identity4();
  const Mat4 persp = Perspective(60, 16.0f / 9.0f, 0.1f, 100.0f);
  const Mat4 product = Multiply(identity, persp);
  for (int i = 0; i < 16; ++i) EXPECT_NEAR(product[i], persp[i], 1e-6f);
}

TEST(RendererTest, DrawVisibleSphereCoversPixels) {
  const Renderer renderer(640, 480);
  const auto model = LoadSphere();
  const Mat4 view = LookAtOrigin({0, 0, 3});
  const Mat4 proj = Perspective(60, 640.0f / 480.0f, 0.1f, 100.0f);
  const DrawStats stats = renderer.Draw(model, Multiply(proj, view));
  EXPECT_EQ(stats.triangles_submitted, model.index_count / 3);
  EXPECT_GT(stats.triangles_rasterized, 0u);
  EXPECT_GT(stats.pixels_covered, 0u);
  // A closed sphere back-face culls roughly half its triangles.
  EXPECT_GT(stats.triangles_culled, stats.triangles_submitted / 4);
  EXPECT_EQ(stats.triangles_rasterized + stats.triangles_culled,
            stats.triangles_submitted);
}

TEST(RendererTest, BehindCameraFullyCulled) {
  const Renderer renderer(640, 480);
  const auto model = LoadSphere();
  const Mat4 view = LookAtOrigin({0, 0, -3});  // camera looking away
  const Mat4 proj = Perspective(60, 640.0f / 480.0f, 0.1f, 100.0f);
  // Move the camera to +z looking at origin, then a model translated far
  // behind: emulate by using a view that keeps the sphere behind w<=0.
  Mat4 behind = Multiply(proj, view);
  // Flip the z row so every vertex lands behind the eye plane.
  for (int col = 0; col < 4; ++col) behind[col * 4 + 3] = -behind[col * 4 + 3];
  const DrawStats stats = renderer.Draw(model, behind);
  EXPECT_EQ(stats.triangles_rasterized, 0u);
}

TEST(RendererTest, DrawDeterministic) {
  const Renderer renderer(320, 240);
  const auto model = LoadSphere();
  const Mat4 vp = Multiply(Perspective(70, 320.0f / 240.0f, 0.1f, 50.0f),
                           LookAtOrigin({1, 1, 2.5f}));
  EXPECT_EQ(renderer.Draw(model, vp), renderer.Draw(model, vp));
}

TEST(RendererTest, CloserCameraCoversMorePixels) {
  const Renderer renderer(640, 480);
  const auto model = LoadSphere();
  const Mat4 proj = Perspective(60, 640.0f / 480.0f, 0.1f, 100.0f);
  const auto near_stats =
      renderer.Draw(model, Multiply(proj, LookAtOrigin({0, 0, 2})));
  const auto far_stats =
      renderer.Draw(model, Multiply(proj, LookAtOrigin({0, 0, 8})));
  EXPECT_GT(near_stats.pixels_covered, far_stats.pixels_covered);
}

// ---------------------------------------------------------------------------
// Panorama
// ---------------------------------------------------------------------------

TEST(PanoramaTest, DeterministicPerVideoAndFrame) {
  const auto a = Panorama::Generate(5, 10);
  const auto b = Panorama::Generate(5, 10);
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_NE(a.ContentHash(), Panorama::Generate(5, 11).ContentHash());
  EXPECT_NE(a.ContentHash(), Panorama::Generate(6, 10).ContentHash());
}

/// FNV-1a over the raw float bits of every pixel, row-major. Unlike
/// ContentHash, which hashes 8-bit quantized pixels, it moves on a
/// one-ulp change.
std::uint64_t PixelBitsHash(const Panorama& pano) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(pano.width()) * pano.height() *
                sizeof(float));
  for (std::int32_t y = 0; y < pano.height(); ++y) {
    for (std::int32_t x = 0; x < pano.width(); ++x) {
      const float p = pano.at(x, y);
      std::uint8_t b[sizeof(float)];
      std::memcpy(b, &p, sizeof(float));
      bytes.insert(bytes.end(), b, b + sizeof(float));
    }
  }
  return Fnv1a64(bytes);
}

// Pins the exact pixels of several (video, frame, size) frames, odd sizes
// included, through ContentHash and the raw float bits: a rewrite of
// Generate's inner loop must keep every pixel bit-identical.
TEST(PanoramaTest, ContentHashPinned) {
  struct Pin {
    std::uint64_t video_id;
    std::uint32_t frame_index;
    std::uint16_t width, height;
    Digest128 hash;
    std::uint64_t pixel_bits;
  };
  const Pin pins[] = {
      {5, 10, 512, 256, {0x8aff567c830c2aa7ull, 0x6f93fca060a83138ull},
       0x695073f054f28248ull},
      {0, 0, 16, 8, {0xfa24f8f4fd7baa2full, 0x89a53f50bf6d22cull},
       0xcb971999bfdda4e1ull},
      {7, 3, 256, 128, {0xbdcd1696a71a0d1ull, 0xc75df6b8db6c85afull},
       0x76add95807f054cull},
      {42, 63, 512, 256, {0x4d5f95577c7568a1ull, 0xf8ecfd4d83590ac6ull},
       0x9338a1ef260a75c0ull},
      {1234567, 1000, 100, 50, {0xaba3080da4704ffcull, 0xdbfa7db8da80ef97ull},
       0xda7dceca08278546ull},
      {3, 17, 1024, 512, {0xe8a024582255b8c0ull, 0xbeb050407510cf37ull},
       0x9be4a373663be881ull},
  };
  for (const Pin& pin : pins) {
    const Panorama pano = Panorama::Generate(pin.video_id, pin.frame_index,
                                             pin.width, pin.height);
    EXPECT_EQ(pano.ContentHash(), pin.hash)
        << "video " << pin.video_id << " frame " << pin.frame_index << ' '
        << pin.width << 'x' << pin.height;
    EXPECT_EQ(PixelBitsHash(pano), pin.pixel_bits)
        << "video " << pin.video_id << " frame " << pin.frame_index << ' '
        << pin.width << 'x' << pin.height << std::hex << " pixel bits 0x"
        << PixelBitsHash(pano);
  }
}

TEST(PanoramaTest, HorizontalWrapVerticalClamp) {
  const auto pano = Panorama::Generate(1, 0, 64, 32);
  EXPECT_EQ(pano.at(-1, 5), pano.at(63, 5));
  EXPECT_EQ(pano.at(64, 5), pano.at(0, 5));
  EXPECT_EQ(pano.at(10, -5), pano.at(10, 0));
  EXPECT_EQ(pano.at(10, 99), pano.at(10, 31));
}

TEST(PanoramaTest, EncodeContainsHeaderAndPixels) {
  const auto pano = Panorama::Generate(2, 3, 64, 32);
  const ByteVec encoded = pano.Encode();
  EXPECT_EQ(encoded.size(), 16u + 64u * 32u);
}

TEST(CropperTest, CenterViewportSamplesForwardDirection) {
  const auto pano = Panorama::Generate(7, 0, 256, 128);
  const ViewportCropper cropper(64, 64);
  const auto view = cropper.Crop(pano, proto::Viewport{0, 0, 90});
  EXPECT_EQ(view.width, 64);
  EXPECT_EQ(view.height, 64);
  // The center pixel of a yaw=0/pitch=0 crop looks along +z, which maps
  // to the panorama's horizontal center row.
  const float center_crop = view.pixels[32 * 64 + 32];
  const float center_pano = pano.at(128, 64);
  EXPECT_NEAR(center_crop, center_pano, 0.05f);
}

TEST(CropperTest, YawRotationShiftsSampling) {
  const auto pano = Panorama::Generate(8, 0, 256, 128);
  const ViewportCropper cropper(32, 32);
  const auto front = cropper.Crop(pano, proto::Viewport{0, 0, 90});
  const auto side = cropper.Crop(pano, proto::Viewport{90, 0, 90});
  double diff = 0;
  for (std::size_t i = 0; i < front.pixels.size(); ++i) {
    diff += std::abs(front.pixels[i] - side.pixels[i]);
  }
  EXPECT_GT(diff, 0.1);
}

TEST(CropperTest, NarrowFovZoomsIn) {
  // A narrower FOV samples a smaller region: neighboring output pixels
  // are more correlated (smaller total variation).
  const auto pano = Panorama::Generate(9, 0, 256, 128);
  const ViewportCropper cropper(32, 32);
  const auto wide = cropper.Crop(pano, proto::Viewport{0, 0, 110});
  const auto narrow = cropper.Crop(pano, proto::Viewport{0, 0, 30});
  const auto variation = [](const CroppedView& v) {
    double tv = 0;
    for (std::size_t i = 1; i < v.pixels.size(); ++i) {
      tv += std::abs(v.pixels[i] - v.pixels[i - 1]);
    }
    return tv;
  };
  EXPECT_LT(variation(narrow), variation(wide));
}

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

TEST(RegistryTest, RegisterAndFetch) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.RegisterProcedural(1, KB(64)).ok());
  const auto bytes = registry.BytesFor(1);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().size(), KB(64));
  const auto digest = registry.DigestFor(1);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(registry.FindByDigest(digest.value()), 1u);
}

TEST(RegistryTest, DuplicateIdRejected) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.RegisterProcedural(1, KB(16)).ok());
  EXPECT_EQ(registry.RegisterProcedural(1, KB(16)).code(),
            StatusCode::kAlreadyExists);
  // An id's bytes are immutable: different bytes under it are refused
  // and the first registration keeps serving.
  const ByteVec first(registry.BytesFor(1).value().begin(),
                      registry.BytesFor(1).value().end());
  EXPECT_EQ(registry.RegisterBytes(1, DeterministicBytes(KB(16), 9)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(std::ranges::equal(registry.BytesFor(1).value(), first));
}

TEST(RegistryTest, UnknownLookupsFail) {
  ModelRegistry registry;
  EXPECT_EQ(registry.BytesFor(9).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.DigestFor(9).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.FindByDigest(Digest128{1, 2}), std::nullopt);
}

TEST(RegistryTest, Figure2bSetMatchesPaperSizes) {
  const auto registry = ModelRegistry::MakeFigure2bSet();
  const auto& sizes = ModelRegistry::Figure2bSizes();
  ASSERT_EQ(sizes.size(), 6u);
  EXPECT_EQ(sizes.front(), KB(231));
  EXPECT_EQ(sizes.back(), KB(15053));
  EXPECT_EQ(registry.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto bytes = registry.BytesFor(i + 1);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value().size(), sizes[i]);
  }
}

}  // namespace
}  // namespace coic::render
