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
// Build (Clang only; excluded from tier-1):
//   cmake -B build-fuzz -S . -DCMAKE_C_COMPILER=clang \
//     -DCMAKE_CXX_COMPILER=clang++ -DCOIC_BUILD_FUZZERS=ON -DCOIC_SANITIZE=ON
//   cmake --build build-fuzz --target coic_fuzz_decode coic_fuzz_seed_corpus
// Seed and run:
//   build-fuzz/coic_fuzz_seed_corpus corpus/
//   build-fuzz/coic_fuzz_decode -max_total_time=30 corpus/
#include <cstddef>
#include <cstdint>
#include <span>

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
  } else if (size >= kEnvelopeHeaderSize) {
    // No valid envelope: still exercise the payload decoders on the
    // post-header window so mutations reach them through bad framing.
    DecodeAllTypes(input.subspan(kEnvelopeHeaderSize));
  }
  return 0;
}
