// rsf::fabric — packets and flows.
#pragma once

#include <cstdint>

#include "phy/types.hpp"
#include "phy/units.hpp"
#include "sim/time.hpp"

namespace rsf::fabric {

using FlowId = std::uint64_t;
inline constexpr FlowId kNoFlow = 0;

/// What a packet in flight keeps outside its events. Network keeps
/// every in-flight packet in one slot pool; each hop event carries the
/// slot index plus the state a hop reads (node, destination, hop
/// count, frame size, tail arrival), so a hop leaves this slot alone.
/// The slot is read at delivery and on the rare paths (reroute wait,
/// retransmit, drop). Every packet belongs to a flow slot (a probe is a
/// one-packet flow), named by the dense index and claim generation
/// resolved once at injection, so no path hashes the 64-bit flow id
/// and a stale packet can never touch a recycled slot's next occupant.
struct Packet {
  phy::NodeId src = phy::kInvalidNode;
  int retries = 0;
  /// The full frame size; an event carries it only below 2^32 bits.
  phy::DataSize size = phy::DataSize::zero();
  rsf::sim::SimTime injected = rsf::sim::SimTime::zero();
  /// Tail arrival at the next node, written only when it lies 2^32 ps
  /// or more after the hop event that reads it.
  rsf::sim::SimTime tail = rsf::sim::SimTime::zero();
  std::uint32_t flow_idx = 0;
  std::uint32_t flow_gen = 0;
};
static_assert(sizeof(Packet) == 40, "one packet-pool slot per packet in flight");

/// A flow request: `size` bytes from src to dst, injected as
/// `packet_size` packets starting at `start`. Network::send_probe
/// makes one with id kNoFlow and packet_size == size.
struct FlowSpec {
  FlowId id = kNoFlow;
  phy::NodeId src = phy::kInvalidNode;
  phy::NodeId dst = phy::kInvalidNode;
  phy::DataSize size = phy::DataSize::zero();
  phy::DataSize packet_size = phy::DataSize::bytes(1024);
  rsf::sim::SimTime start = rsf::sim::SimTime::zero();
};

/// Completion record for a finished flow.
struct FlowResult {
  FlowSpec spec;
  rsf::sim::SimTime started = rsf::sim::SimTime::zero();
  rsf::sim::SimTime finished = rsf::sim::SimTime::zero();
  std::uint64_t packets = 0;
  std::uint64_t retransmits = 0;
  /// Hop count of the last packet delivered or dropped.
  int hops = 0;
  bool failed = false;

  [[nodiscard]] rsf::sim::SimTime completion_time() const { return finished - started; }
};

}  // namespace rsf::fabric
