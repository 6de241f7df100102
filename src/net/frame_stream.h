// Envelope framing over a TcpStream.
//
// The wire format is identical to the simulator's: a 20-byte envelope
// header (with an explicit payload length) followed by the payload, so a
// tcpdump of the live demo decodes with the same proto functions the
// tests exercise.
#pragma once

#include "common/bytes.h"
#include "net/socket.h"
#include "proto/envelope.h"

namespace coic::net {

/// Writes one full envelope frame: `head`, then `tail` (empty for a
/// contiguous frame) under the one length prefix in head's header — a
/// scatter-gather reply reaches the socket without being joined.
Status WriteFrame(TcpStream& stream, std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> tail = {});

/// Reads one full envelope frame (header, then exactly the advertised
/// payload). kUnavailable on orderly close between frames.
Result<ByteVec> ReadFrame(TcpStream& stream);

}  // namespace coic::net
