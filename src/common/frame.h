// Frame — the zero-copy unit of frame transport.
//
// Every encoded envelope that moves between Link, Network, the services
// and decode used to travel as a `ByteVec` that each fan-out point
// (gossip broadcast, peer-probe fan-out, relay forwarding) had to copy
// per recipient. A Frame is an immutable refcounted view instead: a
// `std::shared_ptr<const ByteVec>` plus an (offset, length) window, so
//
//   * copying a Frame is a refcount bump (one buffer, N holders);
//   * slicing (e.g. stripping a relay wrapper) shares the same buffer;
//   * the rare mutating paths (in-place relay-TTL patching) go through
//     MutableSpan(), which mutates in place while the buffer is uniquely
//     held and copies-on-write only when it is shared.
//
// Copies are never silent: the only ways to duplicate payload bytes
// through this type are Copy() / CloneBytes() / a CoW trigger, and each
// one bumps the process-wide FrameCopyStats counters that
// bench_micro/bench_throughput_replay report — so "zero payload copies
// on broadcast fan-out" is asserted, not assumed. Joining a
// scatter-gather pair into one buffer (Fuse()) is counted too, on
// counters of its own, so a receive-side copy never hides behind
// frame_copies == 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"

namespace coic {

/// Process-wide tally of payload-byte duplications made through the
/// Frame API. Atomic because the live TCP servers move frames across
/// threads; the simulator is single-threaded and pays only uncontended
/// relaxed increments.
struct FrameCopyStats {
  std::atomic<std::uint64_t> frame_copies{0};
  std::atomic<std::uint64_t> frame_bytes_copied{0};
  /// Scatter-gather segments joined into one buffer (Frame::Fuse), kept
  /// apart from frame_copies: a fuse is a transport fallback (a dropped
  /// gather handed back whole, a datagram train that crossed shards, a
  /// gather that needs a relay wrapper), not a copy on a sender's or
  /// receiver's hot path.
  std::atomic<std::uint64_t> gather_fuses{0};
  std::atomic<std::uint64_t> gather_fused_bytes{0};

  void Record(std::size_t bytes) noexcept {
    frame_copies.fetch_add(1, std::memory_order_relaxed);
    frame_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordFuse(std::size_t bytes) noexcept {
    gather_fuses.fetch_add(1, std::memory_order_relaxed);
    gather_fused_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t copies() const noexcept {
    return frame_copies.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_copied() const noexcept {
    return frame_bytes_copied.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fuses() const noexcept {
    return gather_fuses.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fused_bytes() const noexcept {
    return gather_fused_bytes.load(std::memory_order_relaxed);
  }
  void Reset() noexcept {
    frame_copies.store(0, std::memory_order_relaxed);
    frame_bytes_copied.store(0, std::memory_order_relaxed);
    gather_fuses.store(0, std::memory_order_relaxed);
    gather_fused_bytes.store(0, std::memory_order_relaxed);
  }
};

/// The global counter instance (see FrameCopyStats).
FrameCopyStats& frame_stats() noexcept;

class Frame {
 public:
  /// Empty frame (no buffer).
  Frame() = default;

  /// Adopts `bytes` without copying. Implicit on purpose: every encoder
  /// returns a ByteVec rvalue, and wrapping it is free — while wrapping
  /// an lvalue would hide a copy, so only rvalues convert. The buffer is
  /// allocated as a non-const ByteVec and only the stored pointer is
  /// const-qualified, so MutableSpan's cast-back is defined behavior.
  Frame(ByteVec&& bytes)  // NOLINT(google-explicit-constructor)
      : buf_(std::make_shared<ByteVec>(std::move(bytes))),
        size_(buf_->size()) {}

  /// Named form of the adopting constructor.
  [[nodiscard]] static Frame Own(ByteVec&& bytes) {
    return Frame(std::move(bytes));
  }

  /// Adopts an already-shared buffer (no copy) — the FrameArena seal
  /// path, where the shared_ptr carries a custom deleter that recycles
  /// the buffer instead of freeing it. The pointee must have been
  /// allocated non-const (see the adopting constructor's note on
  /// MutableSpan).
  [[nodiscard]] static Frame FromShared(std::shared_ptr<const ByteVec> buf) {
    const std::size_t size = buf ? buf->size() : 0;
    return Frame(std::move(buf), 0, size);
  }

  /// Duplicates `bytes` into a fresh buffer. Counted in frame_stats() —
  /// this is the escape hatch, not the default.
  [[nodiscard]] static Frame Copy(std::span<const std::uint8_t> bytes);

  /// Joins scatter-gather segments into one contiguous frame. Empty
  /// segments are skipped; a single non-empty one is returned itself (no
  /// copy, nothing counted). Otherwise every segment is copied, in order,
  /// into one fresh buffer, counted as one gather fuse in frame_stats().
  [[nodiscard]] static Frame Fuse(std::span<const Frame> segments);
  /// The pair form: an empty `tail` moves `head`'s reference straight
  /// through.
  [[nodiscard]] static Frame Fuse(Frame head, const Frame& tail) {
    if (tail.empty()) return head;
    const Frame pair[] = {std::move(head), tail};
    return Fuse(pair);
  }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return buf_ ? buf_->data() + offset_ : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {data(), size_};
  }
  /// Frames decode everywhere a span does.
  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return span();
  }

  /// A sub-window sharing the same buffer (no copy). The window must lie
  /// within this frame.
  [[nodiscard]] Frame Slice(std::size_t offset, std::size_t length) const {
    COIC_CHECK(offset + length <= size_);
    return Frame(buf_, offset_ + offset, length);
  }

  /// The slice whose bytes are exactly `sub`, which must point into this
  /// frame's span (e.g. a borrowed-view decoder's blob field) — how a
  /// receive path turns "the payload I just parsed" into a shareable
  /// Frame without copying it.
  [[nodiscard]] Frame SliceOf(std::span<const std::uint8_t> sub) const {
    COIC_CHECK(sub.data() >= data() && sub.data() + sub.size() <= data() + size_);
    return Frame(buf_, offset_ + static_cast<std::size_t>(sub.data() - data()),
                 sub.size());
  }

  /// An owned copy of the viewed bytes. Counted in frame_stats().
  [[nodiscard]] ByteVec CloneBytes() const;

  /// Holders of the underlying buffer (0 for an empty frame). The
  /// buffer-sharing assertions in tests key on this.
  [[nodiscard]] long use_count() const noexcept { return buf_.use_count(); }

  /// Size of the whole underlying buffer, regardless of this frame's
  /// window. A long-lived holder (e.g. a cache) compares this against
  /// size() to detect a small slice pinning a large delivery buffer.
  [[nodiscard]] std::size_t backing_size() const noexcept {
    return buf_ ? buf_->size() : 0;
  }

  /// True when both frames view the same underlying buffer (regardless
  /// of window).
  [[nodiscard]] bool SharesBufferWith(const Frame& other) const noexcept {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  /// Grows this window over `next` when `next` views the same buffer and
  /// starts exactly where this window ends — how a receiver rejoins
  /// adjacent slices of one frame (a datagram train's chunks) without
  /// moving a byte. Returns false, leaving this frame unchanged, otherwise.
  bool ExtendWith(const Frame& next) noexcept {
    if (!SharesBufferWith(next) || next.offset_ != offset_ + size_) {
      return false;
    }
    size_ += next.size_;
    return true;
  }

  /// Mutable access for the rare in-place patches (relay TTL). While the
  /// buffer is uniquely held the patch lands in place (no copy — the
  /// sole-owner case of an intermediate relay hop); when it is shared
  /// the viewed bytes are first copied out (copy-on-write, counted), so
  /// other holders never observe the mutation.
  [[nodiscard]] std::span<std::uint8_t> MutableSpan();

 private:
  Frame(std::shared_ptr<const ByteVec> buf, std::size_t offset,
        std::size_t length)
      : buf_(std::move(buf)), offset_(offset), size_(length) {}

  std::shared_ptr<const ByteVec> buf_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

/// Buffer pool for small control frames (peer probes, summary acks).
/// These are encoded at high rate, fanned out by refcount, and dropped
/// microseconds later — so the heap churn is pure allocator traffic for
/// buffers of near-identical size. The arena hands
/// out ByteVecs whose capacity survives recycling: Acquire() pops a
/// warm buffer (or allocates on a cold start), Seal() wraps the encoded
/// bytes in a Frame whose deleter pushes the buffer back onto the free
/// list when the last holder drops it. Only the shared_ptr control
/// block remains a per-frame allocation.
///
/// Thread-safety: the free list is mutex-protected because a frame's
/// last reference may drop on a different shard thread than the one
/// that acquired the buffer (cross-shard gossip). The deleter holds a
/// shared_ptr to the free list, so destroying the arena while sealed
/// frames are still in flight is safe — late returns land on the
/// orphaned list and are freed with it.
class FrameArena {
 public:
  /// `max_free` bounds the free list; buffers returned beyond it are
  /// simply freed.
  explicit FrameArena(std::size_t max_free = 64);

  /// A cleared buffer, reserving `reserve` bytes, with capacity retained
  /// from a previously recycled control frame when one is available.
  [[nodiscard]] ByteVec Acquire(std::size_t reserve);

  /// Wraps `bytes` in a Frame whose backing buffer returns to this
  /// arena's free list when the last holder drops it.
  [[nodiscard]] Frame Seal(ByteVec&& bytes);

  /// Buffers handed out from the free list (vs freshly allocated).
  [[nodiscard]] std::uint64_t reuses() const;
  /// Cold-start allocations made by Acquire().
  [[nodiscard]] std::uint64_t allocations() const;

 private:
  struct FreeList;
  std::shared_ptr<FreeList> list_;
};

}  // namespace coic
