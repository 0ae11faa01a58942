// Shared helpers for the experiment benches. Each bench binary
// regenerates one figure/table of the paper (see DESIGN.md §4): it
// builds a rack through the FabricRuntime facade, drives a workload,
// and prints the series as a table.
#pragma once

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"
#include "sim/log.hpp"
#include "telemetry/table.hpp"

namespace rsf::bench {

/// Benches run quiet: component logs off, results via tables only.
inline void quiet_logs() { rsf::sim::LogConfig::set_level(rsf::sim::LogLevel::kOff); }

/// Command line of the fleet sweeps (ext9/10/11).
struct SweepArgs {
  /// --json <path>: where the JSON artifact is written.
  std::string json_path;
  /// --workers <N>: arm-level parallelism (see run_indexed).
  int workers = 1;
};

/// Parses `--json <path>` and `--workers <N>`. An unknown flag, a
/// missing value or a worker count below 1 prints a usage line and
/// exits 2, so a mistyped flag never silently runs the defaults.
inline SweepArgs parse_sweep_args(int argc, char** argv, std::string default_json) {
  SweepArgs args{std::move(default_json), 1};
  const auto usage = [argv] {
    std::fprintf(stderr, "usage: %s [--json <path>] [--workers <N >= 1>]\n", argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const bool json = std::strcmp(argv[i], "--json") == 0;
    if ((!json && std::strcmp(argv[i], "--workers") != 0) || i + 1 == argc) usage();
    const char* value = argv[++i];
    if (json) {
      args.json_path = value;
      continue;
    }
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, args.workers);
    if (ec != std::errc{} || ptr != end || args.workers < 1) usage();
  }
  return args;
}

/// Runs fn(i) for every i in [0, n) on `workers` threads (the caller's
/// plus up to workers - 1 helpers, never more threads than indices)
/// pulling indices from a shared counter.
/// Each call must write only its own index-addressed result slot; the
/// caller assembles output afterwards in index order, so the output
/// never depends on completion order or on `workers`.
template <typename Fn>
void run_indexed(std::size_t n, int workers, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  const auto pump = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < workers && static_cast<std::size_t>(t) < n; ++t) pool.emplace_back(pump);
  pump();
  for (std::thread& t : pool) t.join();
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
