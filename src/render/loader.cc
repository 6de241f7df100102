#include "render/loader.h"

#include <cstring>

namespace coic::render {

Result<LoadedModel> LoadModel(std::span<const std::uint8_t> serialized) {
  auto parsed = DeserializeModel(serialized);
  if (!parsed.ok()) return parsed.status();

  LoadedModel loaded;
  loaded.model = std::move(parsed).value();

  // Vertex is the interleaved layout itself (DeserializeModel pins it).
  const auto& mesh = loaded.model.mesh;
  loaded.vertex_buffer.resize(mesh.vertices.size() * 8);
  if (!mesh.vertices.empty()) {
    std::memcpy(loaded.vertex_buffer.data(), mesh.vertices.data(),
                mesh.vertices.size() * sizeof(Vertex));
  }
  loaded.index_count = static_cast<std::uint32_t>(mesh.indices.size());

  for (const std::uint8_t b : loaded.model.texture) {
    ++loaded.texture_histogram[b >> 2];
  }
  return loaded;
}

}  // namespace coic::render
