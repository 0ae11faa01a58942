#include "sim/log.hpp"

#include <cstdio>
#include <mutex>

#include "sim/simulator.hpp"

namespace rsf::sim {

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

namespace {

struct GlobalLogState {
  std::mutex mu;
  LogLevel level = LogLevel::kWarn;
};

GlobalLogState& state() {
  static GlobalLogState s;
  return s;
}

}  // namespace

LogLevel LogConfig::level() {
  std::lock_guard lock(state().mu);
  return state().level;
}

void LogConfig::set_level(LogLevel level) {
  std::lock_guard lock(state().mu);
  state().level = level;
}

void LogConfig::emit(std::string_view line) {
  std::fprintf(stderr, "%.*s\n", static_cast<int>(line.size()), line.data());
}

void Logger::format_prefix(std::ostream& os, LogLevel level) const {
  os << '[';
  if (sim_ != nullptr) {
    os << sim_->now().to_string();
  } else {
    os << "--";
  }
  os << "] [" << to_string(level) << "] [" << tag_ << "] ";
}

}  // namespace rsf::sim
