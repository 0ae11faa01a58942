// rsf::sim — a no-op stub. Nothing in the simulator logs; the benchmark
// harness in perfbench/, kept unchanged so its runs stay comparable,
// still includes this header and calls LogConfig::set_level at
// startup. That caller is the only reason the header exists.
#pragma once

namespace rsf::sim {

enum class LogLevel { kOff };

struct LogConfig {
  static void set_level(LogLevel /*level*/) {}
};

}  // namespace rsf::sim
