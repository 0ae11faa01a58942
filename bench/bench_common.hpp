// Shared helpers for the experiment benches. Each bench binary
// regenerates one figure/table of the paper (see DESIGN.md §4): it
// builds a rack through the FabricRuntime facade, drives a workload,
// and prints the series as a table.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/runtime.hpp"
#include "telemetry/table.hpp"

namespace rsf::bench {

/// Parses the fleet sweeps' (ext9/10/11) one flag, `--json <path>`
/// (where the JSON artifact is written), and returns the path. Any
/// other argument or a missing value prints a usage line and exits 2,
/// so a mistyped flag never silently runs the defaults.
inline std::string parse_json_path(int argc, char** argv, std::string default_json) {
  if (argc == 1) return default_json;
  if (argc != 3 || std::strcmp(argv[1], "--json") != 0) {
    std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
    std::exit(2);
  }
  return argv[2];
}

inline void print_header(const char* id, const char* paper_artifact, const char* claim) {
  std::printf("\n################################################################\n");
  std::printf("# %s — reproduces %s\n", id, paper_artifact);
  std::printf("# Paper claim: %s\n", claim);
  std::printf("################################################################\n");
}

/// Aggregate traffic metrics over a finished generator run.
struct RunMetrics {
  double goodput_gbps = 0;
  double fct_p50_us = 0;
  double fct_p99_us = 0;
  double pkt_p50_us = 0;
  double pkt_p99_us = 0;
  double mean_hops = 0;
  std::uint64_t flows = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t failed = 0;
};

inline RunMetrics collect(const workload::FlowGenerator& gen, const fabric::Network& net) {
  RunMetrics m;
  m.goodput_gbps = gen.goodput_gbps();
  const auto fct = gen.completion_histogram();
  m.fct_p50_us = fct.p50() * 1e-6;  // ps -> us
  m.fct_p99_us = fct.p99() * 1e-6;
  m.pkt_p50_us = net.packet_latency().p50() * 1e-6;
  m.pkt_p99_us = net.packet_latency().p99() * 1e-6;
  m.mean_hops = net.hop_counts().mean();
  m.flows = gen.flows_generated();
  m.failed = net.flows_failed();
  for (const auto& r : gen.results()) m.retransmits += r.retransmits;
  return m;
}

/// Snapshot of a network's cumulative histograms at a phase boundary.
/// Take one before a measurement window, then diff with `since()` for
/// the window's own distribution — no mean*count arithmetic in benches.
struct NetSnapshot {
  telemetry::Histogram packet_latency;
  telemetry::Histogram hop_counts;

  [[nodiscard]] static NetSnapshot of(const fabric::Network& net) {
    return {net.packet_latency().snapshot(), net.hop_counts().snapshot()};
  }

  /// Distribution of packets recorded since this snapshot was taken.
  [[nodiscard]] telemetry::Histogram packets_since(const fabric::Network& net) const {
    return net.packet_latency().since(packet_latency);
  }
  [[nodiscard]] telemetry::Histogram hops_since(const fabric::Network& net) const {
    return net.hop_counts().since(hop_counts);
  }
};

}  // namespace rsf::bench
