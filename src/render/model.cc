#include "render/model.h"

#include <cmath>
#include <type_traits>

#include "common/bytes.h"
#include "common/rng.h"

namespace coic::render {
namespace {

constexpr std::uint32_t kModelMagic = 0x4344334D;  // "M3DC" LE
constexpr Bytes kHeaderBytes = 4 + 8 + 4 + 4 + 4;
constexpr Bytes kVertexBytes = 32;  // 8 f32: pos(3) + normal(3) + uv(2)
constexpr Bytes kIndexBytes = 4;
constexpr double kPi = 3.14159265358979323846;

/// Serialized geometry bytes for a UV sphere with `rings` rings and
/// 2*rings segments.
constexpr Bytes SphereGeometryBytes(std::uint32_t rings) noexcept {
  const Bytes verts = static_cast<Bytes>(rings + 1) * (2 * rings + 1);
  const Bytes tris = static_cast<Bytes>(rings) * (2 * rings) * 2;
  return verts * kVertexBytes + tris * 3 * kIndexBytes;
}

Mesh BuildSphere(std::uint32_t rings, Rng& rng) {
  const std::uint32_t segments = 2 * rings;
  Mesh mesh;
  mesh.vertices.reserve(static_cast<std::size_t>(rings + 1) * (segments + 1));
  // Small deterministic radial jitter makes every model's bytes unique,
  // so two models of equal size never collide on content digest.
  const float jitter_phase = static_cast<float>(rng.NextDouble() * 2 * kPi);
  for (std::uint32_t r = 0; r <= rings; ++r) {
    const double phi = kPi * r / rings;  // 0..pi
    for (std::uint32_t s = 0; s <= segments; ++s) {
      const double theta = 2 * kPi * s / segments;  // 0..2pi
      Vertex v;
      const float radius =
          1.0f + 0.02f * std::sin(5.0f * static_cast<float>(theta) + jitter_phase);
      v.position = {radius * static_cast<float>(std::sin(phi) * std::cos(theta)),
                    radius * static_cast<float>(std::cos(phi)),
                    radius * static_cast<float>(std::sin(phi) * std::sin(theta))};
      v.u = static_cast<float>(s) / segments;
      v.v = static_cast<float>(r) / rings;
      mesh.vertices.push_back(v);
    }
  }
  for (std::uint32_t r = 0; r < rings; ++r) {
    for (std::uint32_t s = 0; s < segments; ++s) {
      const std::uint32_t a = r * (segments + 1) + s;
      const std::uint32_t b = a + segments + 1;
      mesh.indices.insert(mesh.indices.end(), {a, b, a + 1});
      mesh.indices.insert(mesh.indices.end(), {b, b + 1, a + 1});
    }
  }
  mesh.RecomputeNormals();
  return mesh;
}

}  // namespace

Bytes SerializedModelSize(const Model3D& model) noexcept {
  return kHeaderBytes + model.mesh.vertices.size() * kVertexBytes +
         model.mesh.indices.size() * kIndexBytes + model.texture.size();
}

ByteVec SerializeModel(const Model3D& model) {
  ByteWriter w(SerializedModelSize(model));
  w.WriteU32(kModelMagic);
  w.WriteU64(model.id);
  w.WriteU32(static_cast<std::uint32_t>(model.mesh.vertices.size()));
  w.WriteU32(static_cast<std::uint32_t>(model.mesh.indices.size()));
  w.WriteU32(static_cast<std::uint32_t>(model.texture.size()));
  for (const Vertex& v : model.mesh.vertices) {
    w.WriteF32(v.position.x);
    w.WriteF32(v.position.y);
    w.WriteF32(v.position.z);
    w.WriteF32(v.normal.x);
    w.WriteF32(v.normal.y);
    w.WriteF32(v.normal.z);
    w.WriteF32(v.u);
    w.WriteF32(v.v);
  }
  for (const std::uint32_t idx : model.mesh.indices) w.WriteU32(idx);
  w.WriteRaw(model.texture);
  return w.TakeBytes();
}

Result<Model3D> DeserializeModel(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  std::uint32_t magic = 0, vcount = 0, icount = 0, tlen = 0;
  Model3D model;
  COIC_RETURN_IF_ERROR(r.ReadU32(magic));
  if (magic != kModelMagic) {
    return Status(StatusCode::kDataLoss, "bad model magic");
  }
  COIC_RETURN_IF_ERROR(r.ReadU64(model.id));
  COIC_RETURN_IF_ERROR(r.ReadU32(vcount));
  COIC_RETURN_IF_ERROR(r.ReadU32(icount));
  COIC_RETURN_IF_ERROR(r.ReadU32(tlen));
  if (r.remaining() != static_cast<std::size_t>(vcount) * kVertexBytes +
                           static_cast<std::size_t>(icount) * kIndexBytes + tlen) {
    return Status(StatusCode::kDataLoss, "model size mismatch");
  }
  // Bulk reads: the wire layout is packed little-endian f32/u32 arrays
  // in Vertex's field order and the total size was validated above, so
  // each array lands in one bounds check + memcpy.
  static_assert(sizeof(Vertex) == kVertexBytes &&
                std::is_trivially_copyable_v<Vertex>);
  model.mesh.vertices.resize(vcount);
  if (vcount != 0) {
    (void)r.ReadRaw(model.mesh.vertices.data(),
                    static_cast<std::size_t>(vcount) * kVertexBytes);
  }
  model.mesh.indices.resize(icount);
  if (icount != 0) {
    (void)r.ReadRaw(model.mesh.indices.data(),
                    static_cast<std::size_t>(icount) * 4);
  }
  COIC_RETURN_IF_ERROR(r.ReadBytes(model.texture, tlen));
  COIC_RETURN_IF_ERROR(model.mesh.Validate());
  return model;
}

Model3D BuildProceduralModel(const ProceduralModelParams& params) {
  COIC_CHECK_MSG(params.target_serialized_bytes >= kMinModelBytes,
                 "model size budget below minimum");
  Rng rng(params.seed ^ params.model_id * 0x9E3779B97F4A7C15ULL);

  // Geometry gets at most ~60% of the budget; texture fills the rest,
  // mirroring the texture-dominated composition of production assets.
  const Bytes geometry_budget =
      (params.target_serialized_bytes - kHeaderBytes) * 6 / 10;
  std::uint32_t rings = 2;
  while (SphereGeometryBytes(rings + 1) <= geometry_budget && rings < 512) {
    ++rings;
  }
  if (SphereGeometryBytes(rings) > geometry_budget) rings = 2;

  Model3D model;
  model.id = params.model_id;
  model.mesh = BuildSphere(rings, rng);

  const Bytes geom = SerializedModelSize(model) - model.texture.size();
  COIC_CHECK_MSG(geom <= params.target_serialized_bytes,
                 "geometry overshot the size budget");
  model.texture =
      DeterministicBytes(params.target_serialized_bytes - geom,
                         params.seed * 0x2545F4914F6CDD1DULL + params.model_id);

  COIC_CHECK(SerializedModelSize(model) == params.target_serialized_bytes);
  return model;
}

Digest128 ModelContentDigest(const Model3D& model) {
  const ByteVec bytes = SerializeModel(model);
  return ContentDigest(bytes);
}

}  // namespace coic::render
