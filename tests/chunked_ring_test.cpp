// core::ChunkedRing against a std::deque reference: FIFO order and
// random access across wrap-around, growth while wrapped (the chunk
// insertion that moves the newest elements), slot reuse once warm, and
// clear() keeping its chunks.
#include "core/chunked_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "sim/random.hpp"

namespace rsf::core {
namespace {

// Four-element chunks so a few dozen operations cross every boundary.
using SmallRing = ChunkedRing<std::uint64_t, 2>;

void expect_same(const SmallRing& ring, const std::deque<std::uint64_t>& ref, int step) {
  ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
  ASSERT_EQ(ring.empty(), ref.empty());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ring[i], ref[i]) << "step " << step << " index " << i;
  }
  if (!ref.empty()) ASSERT_EQ(ring.front(), ref.front());
}

TEST(ChunkedRing, MatchesDequeUnderRandomPushPop) {
  rsf::sim::RandomStream rng(5, "chunked-ring");
  SmallRing ring;
  std::deque<std::uint64_t> ref;
  std::uint64_t next = 0;
  for (int step = 0; step < 20'000; ++step) {
    // Phases that grow, hold and shrink the window, so the ring grows
    // at every head offset and drains to empty now and then.
    const int phase = (step / 500) % 3;
    const std::int64_t push_odds = phase == 0 ? 3 : (phase == 1 ? 2 : 1);
    if (ref.empty() || rng.uniform_int(0, 3) < push_odds) {
      ring.push_back(next);
      ref.push_back(next);
      ++next;
    } else {
      ring.pop_front();
      ref.pop_front();
    }
    expect_same(ring, ref, step);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(ring.capacity() % SmallRing::kChunk, 0u);
    ASSERT_GE(ring.capacity(), ring.size());
  }
}

TEST(ChunkedRing, GrowsWhileWrappedWithoutReordering) {
  SmallRing ring;
  std::deque<std::uint64_t> ref;
  // Fill two chunks, slide the head to offset 3 of a chunk, refill to
  // full, then push once more: the growth must splice a chunk in
  // between the newest and the oldest elements.
  for (std::uint64_t v = 0; v < 8; ++v) {
    ring.push_back(v);
    ref.push_back(v);
  }
  for (int i = 0; i < 3; ++i) {
    ring.pop_front();
    ref.pop_front();
  }
  for (std::uint64_t v = 8; v < 11; ++v) {
    ring.push_back(v);
    ref.push_back(v);
  }
  ASSERT_EQ(ring.size(), ring.capacity());
  ring.push_back(11);
  ref.push_back(11);
  EXPECT_EQ(ring.capacity(), 3 * SmallRing::kChunk);
  expect_same(ring, ref, 0);
}

TEST(ChunkedRing, SteadyWindowStopsGrowing) {
  SmallRing ring;
  for (std::uint64_t v = 0; v < 10; ++v) ring.push_back(v);
  const std::size_t warm = ring.capacity();
  for (std::uint64_t v = 10; v < 10'000; ++v) {
    ring.push_back(v);
    ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), warm);
  EXPECT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.front(), 9'990u);
  EXPECT_EQ(ring[9], 9'999u);
}

TEST(ChunkedRing, ClearEmptiesAndKeepsItsChunks) {
  SmallRing ring;
  std::deque<std::uint64_t> ref;
  // Wrapped first: the head sits mid-chunk when the ring is cleared.
  for (std::uint64_t v = 0; v < 10; ++v) ring.push_back(v);
  for (int i = 0; i < 3; ++i) ring.pop_front();
  const std::size_t held = ring.capacity();
  ring.clear();
  expect_same(ring, ref, 0);
  EXPECT_EQ(ring.capacity(), held);
  // Refilled to capacity it reuses every slot in FIFO order; one more
  // push grows it by a chunk.
  for (std::uint64_t v = 100; v < 100 + held; ++v) {
    ring.push_back(v);
    ref.push_back(v);
  }
  expect_same(ring, ref, 1);
  EXPECT_EQ(ring.capacity(), held);
  ring.push_back(999);
  ref.push_back(999);
  expect_same(ring, ref, 2);
  EXPECT_EQ(ring.capacity(), held + SmallRing::kChunk);
  ring.clear();
  ring.clear();  // clearing an empty ring is a no-op
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace rsf::core
