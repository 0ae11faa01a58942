// rsf::core — a FIFO ring of fixed-size chunks.
//
// push_back / pop_front / clear / random access by age, for a sliding
// window pushed on every event. It allocates only while it grows to
// its peak occupancy, one chunk at a time and without moving what it
// holds; after that every push reuses a slot. That is the
// difference from its two alternatives: std::deque frees and allocates
// a node buffer every few pushes forever, and a single contiguous ring
// grows by doubling, so at its last growth it holds the old buffer, the
// new one and up to 2x slack at once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace rsf::core {

template <typename T, std::size_t ChunkShift = 11>
class ChunkedRing {
 public:
  static constexpr std::size_t kChunk = std::size_t{1} << ChunkShift;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots held (a multiple of kChunk): the peak occupancy rounded up.
  [[nodiscard]] std::size_t capacity() const { return chunks_.size() << ChunkShift; }

  /// The i-th oldest element; requires i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const { return slot(i); }
  [[nodiscard]] const T& front() const { return slot(0); }

  void push_back(const T& value) {
    if (size_ == capacity()) grow();
    ++size_;
    slot(size_ - 1) = value;
  }

  /// Requires !empty().
  void pop_front() {
    if (++head_ == capacity()) head_ = 0;
    --size_;
  }

  /// Drops every element and keeps the chunks.
  void clear() { head_ = size_ = 0; }

 private:
  [[nodiscard]] T& slot(std::size_t i) const {
    std::size_t p = head_ + i;
    if (p >= capacity()) p -= capacity();
    return chunks_[p >> ChunkShift][p & (kChunk - 1)];
  }

  void grow() {
    // Full, so the tail has wrapped into the head's chunk: that chunk's
    // first `offset` slots hold the newest elements. Insert a fresh
    // chunk just before it and move them there; the fresh chunk then
    // sits between the newest elements and the oldest, and its other
    // slots are the new free space.
    const std::size_t chunk = head_ >> ChunkShift;
    const std::size_t offset = head_ & (kChunk - 1);
    auto fresh = std::make_unique<T[]>(kChunk);
    if (offset != 0) std::copy_n(chunks_[chunk].get(), offset, fresh.get());
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(chunk), std::move(fresh));
    if (size_ != 0) head_ += kChunk;
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t head_ = 0;  // slot of the oldest element
  std::size_t size_ = 0;
};

}  // namespace rsf::core
