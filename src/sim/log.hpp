// rsf::sim — lightweight leveled logging bound to simulation time.
//
// Components log through a Logger that prefixes simulation time and a
// component tag. The level is process-global, so benches can silence it.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace rsf::sim {

class Simulator;

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

[[nodiscard]] std::string_view to_string(LogLevel level);

/// Global log configuration. Default level kWarn; lines go to stderr.
class LogConfig {
 public:
  static LogLevel level();
  static void set_level(LogLevel level);
  static void emit(std::string_view line);
};

/// Per-component logger. Cheap to copy; holds only a tag and a pointer
/// to the simulator whose clock timestamps the lines.
class Logger {
 public:
  Logger(const Simulator* sim, std::string tag) : sim_(sim), tag_(std::move(tag)) {}
  explicit Logger(std::string tag) : Logger(nullptr, std::move(tag)) {}

  [[nodiscard]] bool enabled(LogLevel level) const { return level >= LogConfig::level(); }

  template <typename... Args>
  void log(LogLevel level, const Args&... args) const {
    if (!enabled(level)) return;
    std::ostringstream oss;
    format_prefix(oss, level);
    (oss << ... << args);
    LogConfig::emit(oss.str());
  }

  template <typename... Args>
  void debug(const Args&... args) const {
    log(LogLevel::kDebug, args...);
  }

  [[nodiscard]] const std::string& tag() const { return tag_; }

 private:
  void format_prefix(std::ostream& os, LogLevel level) const;

  const Simulator* sim_;
  std::string tag_;
};

}  // namespace rsf::sim
