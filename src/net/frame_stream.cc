#include "net/frame_stream.h"

namespace coic::net {

Status WriteFrame(TcpStream& stream, std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> tail) {
  // Sanity: refuse to emit bytes the peer would reject.
  auto size = proto::PeekFrameSize(head);
  if (!size.ok()) return size.status();
  if (size.value() != head.size() + tail.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "frame length disagrees with its header");
  }
  COIC_RETURN_IF_ERROR(stream.WriteAll(head));
  return tail.empty() ? Status::Ok() : stream.WriteAll(tail);
}

Result<ByteVec> ReadFrame(TcpStream& stream) {
  ByteVec frame(proto::kEnvelopeHeaderSize);
  COIC_RETURN_IF_ERROR(stream.ReadExact(frame));
  auto total = proto::PeekFrameSize(frame);
  if (!total.ok()) return total.status();
  COIC_CHECK(total.value() >= proto::kEnvelopeHeaderSize);
  const std::size_t payload = total.value() - proto::kEnvelopeHeaderSize;
  frame.resize(total.value());
  if (payload > 0) {
    COIC_RETURN_IF_ERROR(stream.ReadExact(
        std::span(frame.data() + proto::kEnvelopeHeaderSize, payload)));
  }
  return frame;
}

}  // namespace coic::net
