#include "common/bytes.h"

#include <bit>

#include "common/rng.h"

namespace coic {

static_assert(std::endian::native == std::endian::little,
              "CoIC wire codec assumes a little-endian host; add byte "
              "swapping in ByteWriter/ByteReader before porting");

void ByteReader::EnterTail() noexcept {
  base_ += data_.size();
  data_ = next_;
  next_ = {};
  pos_ = 0;
}

Status ByteReader::ReadAcross(std::uint8_t* out, std::size_t n) noexcept {
  if (remaining() < n) {
    return Status(StatusCode::kDataLoss, "buffer truncated");
  }
  const std::size_t in_head = data_.size() - pos_;
  if (in_head != 0) std::memcpy(out, data_.data() + pos_, in_head);
  EnterTail();
  std::memcpy(out + in_head, data_.data(), n - in_head);
  pos_ = n - in_head;
  return Status::Ok();
}

bool ByteReader::Contiguous(std::size_t n) noexcept {
  if (data_.size() - pos_ >= n) return true;
  if (pos_ != data_.size() || next_.size() < n) return false;
  EnterTail();
  return true;
}

Status ByteReader::ReadBlobView(std::span<const std::uint8_t>& out) noexcept {
  // The one implementation of the length-prefix read; the owning and
  // string forms delegate here so bounds/rewind behavior cannot diverge.
  const ByteReader start = *this;
  std::uint32_t len = 0;
  COIC_RETURN_IF_ERROR(ReadU32(len));
  if (remaining() < len) {
    *this = start;
    return Status(StatusCode::kDataLoss, "blob length exceeds buffer");
  }
  if (!Contiguous(len)) {
    *this = start;
    return Status(StatusCode::kDataLoss, "blob straddles the gather seam");
  }
  out = data_.subspan(pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status ByteReader::ReadBlob(ByteVec& out) {
  std::span<const std::uint8_t> view;
  COIC_RETURN_IF_ERROR(ReadBlobView(view));
  out.assign(view.begin(), view.end());
  return Status::Ok();
}

Status ByteReader::ReadStringView(std::string_view& out) noexcept {
  std::span<const std::uint8_t> view;
  COIC_RETURN_IF_ERROR(ReadBlobView(view));
  out = std::string_view(reinterpret_cast<const char*>(view.data()),
                         view.size());
  return Status::Ok();
}

Status ByteReader::ReadView(std::span<const std::uint8_t>& out,
                            std::size_t n) noexcept {
  if (remaining() < n) {
    return Status(StatusCode::kDataLoss, "raw read past end of buffer");
  }
  if (!Contiguous(n)) {
    return Status(StatusCode::kDataLoss, "raw view straddles the gather seam");
  }
  out = data_.subspan(pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::ReadBytes(ByteVec& out, std::size_t n) {
  std::span<const std::uint8_t> view;
  COIC_RETURN_IF_ERROR(ReadView(view, n));
  out.assign(view.begin(), view.end());
  return Status::Ok();
}

Status ByteReader::ReadString(std::string& out) {
  std::string_view view;
  COIC_RETURN_IF_ERROR(ReadStringView(view));
  out.assign(view);
  return Status::Ok();
}

Status ByteReader::ReadF32Vector(std::vector<float>& out) {
  const ByteReader start = *this;
  std::uint32_t count;
  COIC_RETURN_IF_ERROR(ReadU32(count));
  const std::size_t bytes = static_cast<std::size_t>(count) * 4;
  if (remaining() < bytes) {
    *this = start;
    return Status(StatusCode::kDataLoss, "f32 vector exceeds buffer");
  }
  out.resize(count);
  // Packed little-endian f32s on a little-endian host: one bulk copy
  // replaces count bounds-checked element reads (identical bit
  // patterns). Guarded: memcpy with a null destination (empty vector)
  // is UB even at length 0.
  if (count != 0) return ReadLE(out.data(), bytes);
  return Status::Ok();
}

Status ByteReader::ReadU64Vector(std::vector<std::uint64_t>& out) {
  const ByteReader start = *this;
  std::uint32_t count;
  COIC_RETURN_IF_ERROR(ReadU32(count));
  const std::size_t bytes = static_cast<std::size_t>(count) * 8;
  if (remaining() < bytes) {
    *this = start;
    return Status(StatusCode::kDataLoss, "u64 vector exceeds buffer");
  }
  out.resize(count);
  if (count != 0) return ReadLE(out.data(), bytes);
  return Status::Ok();
}

Status ByteReader::Skip(std::size_t n) noexcept {
  if (remaining() < n) {
    return Status(StatusCode::kDataLoss, "skip past end of buffer");
  }
  const std::size_t in_segment = data_.size() - pos_;
  if (n <= in_segment) {
    pos_ += n;
    return Status::Ok();
  }
  EnterTail();
  pos_ = n - in_segment;
  return Status::Ok();
}

void FillDeterministicBytes(std::span<std::uint8_t> out, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t size = out.size();
  std::size_t i = 0;
  while (i + 8 <= size) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(out.data() + i, &word, 8);
    i += 8;
  }
  if (i < size) {
    const std::uint64_t word = rng.NextU64();
    std::memcpy(out.data() + i, &word, size - i);
  }
}

ByteVec DeterministicBytes(std::size_t size, std::uint64_t seed) {
  ByteVec out(size);
  FillDeterministicBytes(out, seed);
  return out;
}

}  // namespace coic
