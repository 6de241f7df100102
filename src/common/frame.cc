#include "common/frame.h"

#include <mutex>
#include <vector>

namespace coic {

FrameCopyStats& frame_stats() noexcept {
  static FrameCopyStats stats;
  return stats;
}

Frame Frame::Copy(std::span<const std::uint8_t> bytes) {
  frame_stats().Record(bytes.size());
  return Frame(ByteVec(bytes.begin(), bytes.end()));
}

Frame Frame::Fuse(std::span<const Frame> segments) {
  std::size_t total = 0;
  std::size_t non_empty = 0;
  const Frame* only = nullptr;
  for (const Frame& s : segments) {
    if (s.empty()) continue;
    total += s.size();
    ++non_empty;
    only = &s;
  }
  if (non_empty == 0) return Frame();
  if (non_empty == 1) return *only;
  frame_stats().RecordFuse(total);
  ByteWriter w(total);
  for (const Frame& s : segments) w.WriteRaw(s.span());
  return Frame(w.TakeBytes());
}

ByteVec Frame::CloneBytes() const {
  frame_stats().Record(size_);
  const auto s = span();
  return ByteVec(s.begin(), s.end());
}

std::span<std::uint8_t> Frame::MutableSpan() {
  COIC_CHECK(buf_ != nullptr);
  if (buf_.use_count() == 1) {
    // Sole owner: every buffer is allocated as a non-const ByteVec (see
    // the adopting constructor) with only the stored pointer
    // const-qualified, so casting the const away is defined behavior —
    // and nobody else can observe the patch.
    auto* mutable_buf = const_cast<ByteVec*>(buf_.get());
    return {mutable_buf->data() + offset_, size_};
  }
  // Shared: copy-on-write the viewed window (counted).
  *this = Copy(span());
  auto* mutable_buf = const_cast<ByteVec*>(buf_.get());
  return {mutable_buf->data(), size_};
}

struct FrameArena::FreeList {
  std::mutex mu;
  std::vector<ByteVec> free;
  std::size_t max_free = 0;
  std::uint64_t reuses = 0;
  std::uint64_t allocations = 0;
};

FrameArena::FrameArena(std::size_t max_free)
    : list_(std::make_shared<FreeList>()) {
  list_->max_free = max_free;
}

ByteVec FrameArena::Acquire(std::size_t reserve) {
  ByteVec buf;
  {
    std::lock_guard<std::mutex> lock(list_->mu);
    if (!list_->free.empty()) {
      buf = std::move(list_->free.back());
      list_->free.pop_back();
      ++list_->reuses;
    } else {
      ++list_->allocations;
    }
  }
  buf.clear();
  buf.reserve(reserve);
  return buf;
}

Frame FrameArena::Seal(ByteVec&& bytes) {
  // The deleter returns the buffer to the free list (or frees it when
  // the list is full) and holds its own reference to the list, so
  // returns after arena destruction are safe. Sealed buffers are
  // allocated non-const here; reclaiming the storage through the
  // original type is defined behavior.
  return Frame::FromShared(std::shared_ptr<const ByteVec>(
      new ByteVec(std::move(bytes)),
      [list = list_](const ByteVec* buf) noexcept {
        auto* owned = const_cast<ByteVec*>(buf);
        {
          std::lock_guard<std::mutex> lock(list->mu);
          if (list->free.size() < list->max_free) {
            list->free.push_back(std::move(*owned));
          }
        }
        delete owned;
      }));
}

std::uint64_t FrameArena::reuses() const {
  std::lock_guard<std::mutex> lock(list_->mu);
  return list_->reuses;
}

std::uint64_t FrameArena::allocations() const {
  std::lock_guard<std::mutex> lock(list_->mu);
  return list_->allocations;
}

}  // namespace coic
