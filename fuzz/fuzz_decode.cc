// libFuzzer harness over the CoIC decode surface.
//
// PR 4's fuzz sweep is property-based and fixed-seed: truncation ladders
// and 10k seeded-random buffers. This harness upgrades that to
// coverage-guided exploration — libFuzzer mutates inputs toward new
// branches in the envelope framing, every peek fast path, and every
// per-type payload decoder (owning and borrowed-view alike), under
// ASan/UBSan. The invariant is the decoders' contract: hostile bytes may
// be rejected with Status, but must never crash, over-read, or trip UB.
//
// It also runs one differential check. A cache-hit reply reaches the
// client as a scatter-gather pair (head, tail) that is decoded unfused,
// so every input whose envelope carries a result type is decoded split
// as well: at the byte after its source field (where the edge splits a
// reply), and at a fuzz-chosen point (the request id modulo the input
// size) when that point is legal, i.e. not inside a blob or string the
// decode borrows. The split decode must equal the contiguous decode, or
// both must reject; anything else aborts.
//
// Build (Clang only; excluded from tier-1):
//   cmake -B build-fuzz -S . -DCMAKE_C_COMPILER=clang \
//     -DCMAKE_CXX_COMPILER=clang++ -DCOIC_BUILD_FUZZERS=ON -DCOIC_SANITIZE=ON
//   cmake --build build-fuzz --target coic_fuzz_decode coic_fuzz_seed_corpus
// Seed and run:
//   build-fuzz/coic_fuzz_seed_corpus corpus/
//   build-fuzz/coic_fuzz_decode -max_total_time=30 corpus/
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "proto/envelope.h"
#include "proto/messages.h"

namespace {

using namespace coic;        // NOLINT(google-build-using-namespace)
using namespace coic::proto; // NOLINT(google-build-using-namespace)

/// Runs one payload decoder (owning or view form) over arbitrary bytes.
template <typename M>
void TryDecode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  (void)M::Decode(r);
}

void DecodeAllTypes(std::span<const std::uint8_t> payload) {
  TryDecode<RecognitionRequest>(payload);
  TryDecode<RecognitionResult>(payload);
  TryDecode<RecognitionResultView>(payload);
  TryDecode<RenderRequest>(payload);
  TryDecode<RenderResult>(payload);
  TryDecode<RenderResultView>(payload);
  TryDecode<PanoramaRequest>(payload);
  TryDecode<PanoramaResult>(payload);
  TryDecode<PanoramaResultView>(payload);
  TryDecode<ErrorReply>(payload);
  TryDecode<PeerLookupRequest>(payload);
  TryDecode<PeerLookupReply>(payload);
  TryDecode<PeerLookupReplyView>(payload);
  TryDecode<SummaryUpdate>(payload);
  TryDecode<SummaryDeltaUpdate>(payload);
  TryDecode<FederatedRelay>(payload);
  TryDecode<CacheStatsReply>(payload);
  TryDecode<DatagramNack>(payload);
  TryDecode<DatagramNackView>(payload);
}

// --- differential split decode --------------------------------------

/// A decoded result as owned values (the confidence as its bit pattern,
/// so a NaN compares equal to itself), plus the spans it borrowed.
struct Decoded {
  std::tuple<std::uint64_t, std::uint64_t, std::string, std::uint32_t,
             std::uint8_t, std::uint16_t, std::uint16_t, std::string>
      fields;
  std::vector<std::span<const std::uint8_t>> borrowed;
};

std::string Owned(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

Decoded Fields(const RecognitionResultView& v) {
  return {{v.frame_id, 0, std::string(v.label),
           std::bit_cast<std::uint32_t>(v.confidence),
           static_cast<std::uint8_t>(v.source), 0, 0, Owned(v.annotation)},
          {std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(v.label.data()),
               v.label.size()),
           v.annotation}};
}

Decoded Fields(const RenderResultView& v) {
  return {{v.model_id, 0, {}, 0, static_cast<std::uint8_t>(v.source), 0, 0,
           Owned(v.model_bytes)},
          {v.model_bytes}};
}

Decoded Fields(const PanoramaResultView& v) {
  return {{v.video_id, v.frame_index, {}, 0,
           static_cast<std::uint8_t>(v.source), v.width, v.height,
           Owned(v.frame)},
          {v.frame}};
}

template <typename View>
std::optional<Decoded> DecodeResult(MessageType type,
                                    std::span<const std::uint8_t> head,
                                    std::span<const std::uint8_t> tail) {
  const auto env = DecodeEnvelopeView(head, tail);
  if (!env.ok()) return std::nullopt;
  const auto view = DecodePayloadAs<View>(env.value(), type);
  if (!view.ok()) return std::nullopt;
  return Fields(view.value());
}

/// Split at `cut` must decode like the whole frame, or both reject.
template <typename View>
void CheckSplitAt(MessageType type, std::span<const std::uint8_t> frame,
                  const std::optional<Decoded>& whole, std::size_t cut) {
  const auto split =
      DecodeResult<View>(type, frame.first(cut), frame.subspan(cut));
  if (whole.has_value() != split.has_value()) std::abort();
  if (whole && whole->fields != split->fields) std::abort();
}

template <typename View>
void CheckSplitDecode(MessageType type, std::span<const std::uint8_t> frame,
                      std::uint64_t request_id) {
  const auto whole = DecodeResult<View>(type, frame, {});
  // Where the edge splits its hit replies: always legal.
  const auto offset =
      ResultSourceOffset(type, frame.subspan(kEnvelopeHeaderSize));
  if (offset.ok()) {
    CheckSplitAt<View>(type, frame, whole,
                       kEnvelopeHeaderSize + offset.value() + 1);
  }
  // A fuzz-chosen point, legal unless it would cut through a span the
  // contiguous decode borrows (a view cannot straddle two buffers).
  const std::size_t cut = request_id % (frame.size() + 1);
  if (whole) {
    for (const auto sub : whole->borrowed) {
      const auto begin = static_cast<std::size_t>(sub.data() - frame.data());
      if (begin < cut && cut < begin + sub.size()) return;
    }
  }
  CheckSplitAt<View>(type, frame, whole, cut);
}

void CheckResultSplits(std::span<const std::uint8_t> frame,
                       const EnvelopeView& env) {
  switch (env.type) {
    case MessageType::kRecognitionResult:
      CheckSplitDecode<RecognitionResultView>(env.type, frame, env.request_id);
      break;
    case MessageType::kRenderResult:
      CheckSplitDecode<RenderResultView>(env.type, frame, env.request_id);
      break;
    case MessageType::kPanoramaResult:
      CheckSplitDecode<PanoramaResultView>(env.type, frame, env.request_id);
      break;
    default:
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);

  // Framing peeks: must reject or report without reading past `size`.
  (void)PeekFrameSize(input);
  (void)PeekRelayFrame(input);
  (void)PeekSummaryFrame(input);
  (void)PeekSummaryDeltaFrame(input);

  // Envelope decode, borrowed-view and owning (the owning form is a thin
  // wrapper; running both keeps their validation pinned together).
  const auto view = DecodeEnvelopeView(input);
  (void)DecodeEnvelope(input);

  if (view.ok()) {
    // A structurally valid envelope: run every payload decoder over the
    // payload window, not just the tagged one — decoders must be safe on
    // any bytes regardless of the envelope's type claim.
    DecodeAllTypes(view.value().payload);
    CheckResultSplits(input, view.value());
  } else if (size >= kEnvelopeHeaderSize) {
    // No valid envelope: still exercise the payload decoders on the
    // post-header window so mutations reach them through bad framing.
    DecodeAllTypes(input.subspan(kEnvelopeHeaderSize));
  }
  return 0;
}
