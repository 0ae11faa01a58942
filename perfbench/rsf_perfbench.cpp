// rsf_perfbench — one benchmark workload, run once, in one process.
//
//   rsf_perfbench --workload torus_upgrade|hotspot_steady|fleet_regimes
//                 [--seed N] [--size full|smoke] [--trace-out FILE]
//
// perfbench/run.py launches this binary repeatedly and aggregates the
// runs; a fresh process per run is what makes peak_rss_mb the
// high-water mark of exactly one workload. The last line of stdout is
// one JSON object: the output digest, the invariant violations, the
// build provenance and every metric with its unit.
//
// Timing boundaries (see perfbench/README.md for the definitions):
//  - wall_s / cpu_s: first run_until (or SlottedFleetScenario::run) to
//    the last result read, metrics_table() included;
//  - setup_s: construction plus start() of every runtime or scenario,
//    timed in two bursts of kSetupReps set-ups, one before the run and
//    one after it (the run's own set-up opens the second); the faster
//    burst's median is reported;
//  - peak_rss_mb: ru_maxrss right after the last result read, before
//    the probes and the set-ups that follow the run;
//  - the read-only layer probes run on the final state after the digest
//    is taken, so they cannot perturb it.
//
// --trace-out arms a weak, self-rescheduling sampler on every Simulator
// at a fixed slice of simulated time and records spans (setup, slices,
// fleet cells, metrics tables, probes) in memory; they are written as
// Chrome trace-event JSON when the run ends. Weak events never hold the
// clock and the sampler only reads state, so a traced run must
// reproduce the untraced digest; it still adds events to the kernel's
// queue, so end-to-end timings come only from untraced runs. Those carry
// only the lap clock (see Laps): one weak event per ~1% of the run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/fleet.hpp"
#include "runtime/runtime.hpp"
#include "sim/log.hpp"
#include "workload/slotted.hpp"

namespace {

using namespace rsf;
using rsf::sim::SimTime;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- clocks

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU of the whole process (every thread), in seconds.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

// Probe results flow into this sink so the compiler cannot drop the
// timed calls.
volatile double g_sink = 0.0;

// ---------------------------------------------------------------- digest

/// FNV-1a 64 over the deterministic output text, fed incrementally so
/// large per-flow result lists never sit in memory as one string.
class Digest {
 public:
  void feed(std::string_view s) {
    for (const unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
  }
  void line(const std::string& s) {
    feed(s);
    feed("\n");
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// ---------------------------------------------------------------- spans

/// In-memory spans (name, start, end, parent), written once at the end
/// as Chrome trace-event JSON. Disabled, every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  int open(std::string name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, now_us(), -1.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }
  /// A span whose interval the caller already measured (sampler slices).
  void add(std::string name, int parent, double start_us, double end_us, std::string args) {
    if (enabled_) spans_.push_back({std::move(name), parent, start_us, end_us, std::move(args)});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open trace file " + path);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char times[96];
      std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                    std::max(0.0, s.end_us - s.start_us));
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
          << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << (s.args.empty() ? "" : ",") << s.args << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
    std::string args;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Wall and CPU time of the measured interval, cut into laps. A lap ends
/// at every multiple of a fixed step of simulated time (a weak event,
/// ~100-250 per workload) and at each phase boundary the workload marks.
/// Every process of one seed ends the same laps in the same order, so
/// run.py can line lap i up across processes and filter host contention
/// lap by lap.
class Laps {
 public:
  Laps() = default;
  Laps(const Laps&) = delete;
  Laps& operator=(const Laps&) = delete;

  void start() {
    last_wall_ = start_wall_ = Clock::now();
    last_cpu_ = start_cpu_ = process_cpu_seconds();
  }
  void mark() {
    const auto wall = Clock::now();
    const double cpu = process_cpu_seconds();
    wall_.push_back(seconds_between(last_wall_, wall));
    cpu_.push_back(cpu - last_cpu_);
    last_wall_ = wall;
    last_cpu_ = cpu;
  }
  /// End a lap at every multiple of `step` on `sim`'s clock until
  /// unfollow().
  void follow(sim::Simulator& sim, SimTime step) {
    sim_ = &sim;
    step_ = step;
    arm();
  }
  void unfollow() {
    sim_->cancel(next_);
    sim_ = nullptr;
  }

  [[nodiscard]] double wall_s() const { return seconds_between(start_wall_, last_wall_); }
  [[nodiscard]] double cpu_s() const { return last_cpu_ - start_cpu_; }
  /// Lap events executed so far (they are not part of the workload).
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  [[nodiscard]] std::string json() const {
    auto list = [](const std::vector<double>& v) {
      std::string out = "[";
      for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ",", v[i]);
        out += buf;
      }
      return out + "]";
    };
    return "{\"wall\":" + list(wall_) + ",\"cpu\":" + list(cpu_) + "}";
  }

 private:
  void arm() {
    next_ = sim_->schedule_weak_after(step_, [this] {
      ++ticks_;
      mark();
      arm();
    });
  }

  sim::Simulator* sim_ = nullptr;
  SimTime step_;
  sim::EventId next_ = sim::kInvalidEventId;
  std::uint64_t ticks_ = 0;
  Clock::time_point start_wall_;
  Clock::time_point last_wall_;
  double start_cpu_ = 0.0;
  double last_cpu_ = 0.0;
  std::vector<double> wall_;
  std::vector<double> cpu_;
};

/// Closes a span at scope exit.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, int parent)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// The traced run's kernel observer: a weak event every kSlice of
/// simulated time records wall time, events executed, pending events
/// and the caller's slot-pool gauge (slots in use), then reschedules
/// itself. Slices are kept as plain numbers while the run goes;
/// finish() turns them into spans, merging neighbours so one sampler
/// writes at most kMaxSpans of them (a fleet cell runs ~10^5 slices).
class Sampler {
 public:
  using Gauge = std::function<std::size_t()>;

  // Shorter than the kernel's 1024 x 4096 ps calendar window, so a
  // sample lands at most one window ahead of the clock.
  static constexpr SimTime kSlice = SimTime::microseconds(4);
  static constexpr std::size_t kMaxSpans = 2000;

  Sampler(sim::Simulator& sim, Tracer& tracer, int parent, Gauge slots_in_use)
      : sim_(sim), tracer_(tracer), parent_(parent), slots_in_use_(std::move(slots_in_use)) {
    start_us_ = tracer_.now_us();
    last_events_ = sim_.executed();
    arm();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  [[nodiscard]] std::uint64_t ticks() const { return slices_.size(); }
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }
  [[nodiscard]] std::vector<double> slice_ns_per_event() const {
    std::vector<double> ns;
    double prev_us = start_us_;
    for (const Slice& s : slices_) {
      if (s.events > 0) ns.push_back((s.end_us - prev_us) * 1e3 / static_cast<double>(s.events));
      prev_us = s.end_us;
    }
    return ns;
  }

  /// Stop sampling and emit the slice spans.
  void finish() {
    sim_.cancel(next_);
    const std::size_t group = (slices_.size() + kMaxSpans - 1) / kMaxSpans;
    double prev_us = start_us_;
    for (std::size_t i = 0; i < slices_.size(); i += group) {
      const std::size_t end = std::min(slices_.size(), i + group);
      std::uint64_t events = 0;
      std::size_t pending = 0;
      for (std::size_t k = i; k < end; ++k) {
        events += slices_[k].events;
        pending = std::max(pending, slices_[k].pending);
      }
      const Slice& last = slices_[end - 1];
      tracer_.add("slice", parent_, prev_us, last.end_us,
                  "\"sim_us\":" + std::to_string(last.sim_ps / 1000000) +
                      ",\"slices\":" + std::to_string(end - i) +
                      ",\"events\":" + std::to_string(events) +
                      ",\"pending_max\":" + std::to_string(pending) +
                      ",\"slots_in_use\":" + std::to_string(last.slots_in_use));
      prev_us = last.end_us;
    }
  }

 private:
  struct Slice {
    double end_us;
    std::int64_t sim_ps;
    std::uint64_t events;
    std::size_t pending;
    std::size_t slots_in_use;
  };

  void arm() {
    next_ = sim_.schedule_weak_after(kSlice, [this] { tick(); });
  }
  void tick() {
    const double now = tracer_.now_us();
    // The delta includes this tick itself.
    const std::uint64_t events = sim_.executed() - last_events_ - 1;
    const std::size_t pending = sim_.pending() + sim_.pending_weak();
    pending_peak_ = std::max(pending_peak_, pending);
    slices_.push_back({now, sim_.now().ps(), events, pending, slots_in_use_()});
    last_events_ = sim_.executed();
    arm();
  }

  sim::Simulator& sim_;
  Tracer& tracer_;
  int parent_;
  Gauge slots_in_use_;
  sim::EventId next_ = sim::kInvalidEventId;
  double start_us_ = 0.0;
  std::uint64_t last_events_ = 0;
  std::size_t pending_peak_ = 0;
  std::vector<Slice> slices_;
};

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric every run reports, in output order; layers a workload
// does not exercise report 0. run.py checks names and units against
// BENCHMARK.json. bench.trace_overhead_pct is computed by run.py.
constexpr MetricDef kMetrics[] = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_peak", "count"},
    {"sim.slice_ns_per_event.p50", "ns"},
    {"sim.slice_ns_per_event.p99", "ns"},
    {"fabric.net.packets_injected", "count"},
    {"fabric.net.packets_delivered", "count"},
    {"fabric.net.delivery_ratio", "ratio"},
    {"fabric.net.retransmits", "count"},
    {"fabric.net.flows_completed", "count"},
    {"fabric.net.flows_failed", "count"},
    {"fabric.net.flow_slots_peak", "count"},
    {"fabric.net.hops_mean", "hops"},
    {"fabric.net.ns_per_packet_hop", "ns"},
    {"fabric.net.probes", "count"},
    {"fabric.router.cold_all_pairs_ms", "ms"},
    {"fabric.router.warm_lookup_ns", "ns"},
    {"fabric.spine.packets", "count"},
    {"fabric.spine.bytes", "bytes"},
    {"fabric.spine.packet_drops", "count"},
    {"fabric.spine.retransmits", "count"},
    {"fabric.spine.packet_reroutes", "count"},
    {"fabric.spine.route_cache_hit_ratio", "ratio"},
    {"fabric.spine.reserved_bytes", "bytes"},
    {"fabric.spine.slotted_bytes", "bytes"},
    {"fabric.spine.slot_refusals", "count"},
    {"fabric.spine.slot_expirations", "count"},
    {"fabric.spine.preemptions", "count"},
    {"fabric.spine.ns_per_packet", "ns"},
    {"fabric.spine.compute_route_ns", "ns"},
    {"runtime.fleet.flow_slots_peak", "count"},
    {"runtime.fleet.packet_slots_peak", "count"},
    {"runtime.fleet.flows_completed", "count"},
    {"runtime.fleet.flows_failed", "count"},
    {"runtime.fleet.controller_epochs", "count"},
    {"runtime.fleet.reprices", "count"},
    {"runtime.fleet.promotions", "count"},
    {"runtime.fleet.schedule_splits", "count"},
    {"runtime.fleet.cell_wall_s.skew_packet", "s"},
    {"runtime.fleet.cell_wall_s.skew_carve", "s"},
    {"runtime.fleet.cell_wall_s.skew_slotted", "s"},
    {"runtime.fleet.cell_wall_s.flap_carve", "s"},
    {"runtime.fleet.cell_wall_s.flap_slotted", "s"},
    {"core.crc.epochs", "count"},
    {"core.crc.torus_wraps_created", "count"},
    {"core.crc.torus_failures", "count"},
    {"plp.commands_completed", "count"},
    {"plp.commands_failed", "count"},
    {"phy.bypass_joints", "count"},
    {"phy.total_power_ns", "ns"},
    {"runtime.setup.construct_ms", "ms"},
    {"runtime.setup.start_ms", "ms"},
    {"telemetry.metrics_table_ms", "ms"},
};

class Report {
 public:
  Report() : values_(std::size(kMetrics), 0.0) {}

  void set(std::string_view name, double value) { values_[index(name)] = value; }
  void add(std::string_view name, double value) { values_[index(name)] += value; }
  void max(std::string_view name, double value) {
    double& v = values_[index(name)];
    v = std::max(v, value);
  }
  [[nodiscard]] double get(std::string_view name) const { return values_[index(name)]; }

  /// Record an invariant; a false condition is a violation.
  void check(bool ok, const std::string& what) {
    if (!ok) violations_.push_back(what);
  }

  Digest digest;
  Laps laps;

  [[nodiscard]] std::string metrics_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", values_[i]);
      out += (i == 0 ? "\"" : ",\"") + std::string(kMetrics[i].name) + "\":{\"value\":" + value +
             ",\"unit\":\"" + kMetrics[i].unit + "\"}";
    }
    return out + "}";
  }
  [[nodiscard]] std::string violations_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < violations_.size(); ++i) {
      out += (i == 0 ? "\"" : ",\"") + json_escape(violations_[i]) + "\"";
    }
    return out + "]";
  }
  [[nodiscard]] bool ok() const { return violations_.empty(); }

 private:
  static std::size_t index(std::string_view name) {
    for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
      if (name == kMetrics[i].name) return i;
    }
    throw std::logic_error("unknown metric " + std::string(name));
  }
  std::vector<double> values_;
  std::vector<std::string> violations_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string trace_out;
};

// Repetitions of each read-only probe; the probe reports the median.
constexpr int kProbeReps = 15;
// Set-ups per burst. A set-up takes tens of microseconds, so one alone
// is mostly timer and cache noise, and a whole burst finishes within a
// few milliseconds: on a shared host it runs either at full speed or
// ~1.6x slower as a whole. Two bursts seconds apart, the faster one
// reported, halve the chance that a process sees only the slow mode.
constexpr int kSetupReps = 16;

// ---------------------------------------------------------------- probes

/// Mean over the workload's routers of one all-pairs next_hop sweep
/// after bump_prices() (cold), and ns per lookup of the same sweep
/// repeated on the memoized tables (warm).
void probe_routers(const std::vector<runtime::FabricRuntime*>& racks, Report& rep, Tracer& tr,
                   int parent) {
  SpanScope span(tr, "probe:router_sweeps", parent);
  std::vector<double> cold_ms;
  std::vector<double> warm_ns;
  for (int r = 0; r < kProbeReps; ++r) {
    double cold = 0.0;
    double warm = 0.0;
    double lookups = 0.0;
    for (runtime::FabricRuntime* rt : racks) {
      fabric::Router& router = rt->router();
      const std::uint32_t n = rt->node_count();
      double sink = 0.0;
      auto sweep = [&] {
        const auto t0 = Clock::now();
        for (std::uint32_t at = 0; at < n; ++at) {
          for (std::uint32_t dst = 0; dst < n; ++dst) {
            if (at == dst) continue;
            const auto hop = router.next_hop(at, dst);
            sink += hop ? static_cast<double>(*hop) : -1.0;
          }
        }
        return seconds_between(t0, Clock::now());
      };
      router.bump_prices();
      cold += sweep();
      warm += sweep();
      lookups += static_cast<double>(n) * (n - 1);
      g_sink = g_sink + sink;
    }
    cold_ms.push_back(cold * 1e3 / static_cast<double>(racks.size()));
    warm_ns.push_back(warm * 1e9 / lookups);
  }
  rep.set("fabric.router.cold_all_pairs_ms", median(cold_ms));
  rep.set("fabric.router.warm_lookup_ns", median(warm_ns));
}

/// ns per FabricRuntime::total_power_watts() call.
void probe_power(const std::vector<runtime::FabricRuntime*>& racks, Report& rep, Tracer& tr,
                 int parent) {
  SpanScope span(tr, "probe:total_power", parent);
  constexpr int kCalls = 64;
  std::vector<double> ns;
  for (int r = 0; r < kProbeReps; ++r) {
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      for (runtime::FabricRuntime* rt : racks) sink += rt->total_power_watts();
    }
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(kCalls * racks.size()));
    g_sink = g_sink + sink;
  }
  rep.set("phy.total_power_ns", median(ns));
}

/// ms to build every metrics table of the workload once.
template <typename TableFn>
void probe_metrics_table(TableFn&& build_all, Report& rep, Tracer& tr, int parent) {
  SpanScope span(tr, "probe:metrics_table", parent);
  std::vector<double> ms;
  for (int r = 0; r < kProbeReps; ++r) {
    const auto t0 = Clock::now();
    g_sink = g_sink + static_cast<double>(build_all());
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  rep.set("telemetry.metrics_table_ms", median(ms));
}

// ---------------------------------------------------------------- rack counters

void collect_network(fabric::Network& net, Report& rep) {
  const telemetry::CounterSet& c = net.counters();
  rep.add("fabric.net.packets_injected", static_cast<double>(c.get("net.packets_injected")));
  rep.add("fabric.net.packets_delivered", static_cast<double>(c.get("net.packets_delivered")));
  rep.add("fabric.net.retransmits", static_cast<double>(c.get("net.retransmits")));
  rep.add("fabric.net.flows_completed", static_cast<double>(net.flows_completed()));
  rep.add("fabric.net.flows_failed", static_cast<double>(net.flows_failed()));
  rep.max("fabric.net.flow_slots_peak", static_cast<double>(net.flow_slots()));
  rep.add("fabric.net.probes", static_cast<double>(c.get("net.probes")));
  rep.check(c.get("net.packets_delivered") <= c.get("net.packets_injected"),
            "net: delivered > injected");
  rep.check(net.free_flow_slots() == net.flow_slots(), "net: flow slots not all free");
}

std::uint64_t sum_prefixed(const telemetry::CounterSet& c, std::string_view prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : c.counters()) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += value;
  }
  return total;
}

void collect_rack(runtime::FabricRuntime& rt, Report& rep) {
  collect_network(rt.network(), rep);
  if (rt.has_controller()) {
    const telemetry::CounterSet& crc = rt.controller().counters();
    rep.add("core.crc.epochs", static_cast<double>(crc.get("crc.epochs")));
    rep.add("core.crc.torus_wraps_created",
            static_cast<double>(crc.get("crc.torus_wraps_created")));
    rep.add("core.crc.torus_failures", static_cast<double>(crc.get("crc.torus_failures")));
  }
  const telemetry::CounterSet& plp = rt.engine().counters();
  rep.add("plp.commands_completed", static_cast<double>(sum_prefixed(plp, "plp.completed.")));
  rep.add("plp.commands_failed", static_cast<double>(sum_prefixed(plp, "plp.failed.")));
  rep.add("phy.bypass_joints", rt.plant().total_bypass_joints());
}

/// Totals that need every rack collected first.
void finish_net_ratios(const std::vector<runtime::FabricRuntime*>& racks, double wall_s,
                       Report& rep) {
  double hops = 0.0;
  double packets = 0.0;
  for (runtime::FabricRuntime* rt : racks) {
    const telemetry::Histogram& h = rt->network().hop_counts();
    hops += h.mean() * static_cast<double>(h.count());
    packets += static_cast<double>(h.count());
  }
  const double injected = rep.get("fabric.net.packets_injected");
  rep.set("fabric.net.delivery_ratio",
          injected > 0 ? rep.get("fabric.net.packets_delivered") / injected : 0.0);
  rep.set("fabric.net.hops_mean", packets > 0 ? hops / packets : 0.0);
  rep.set("fabric.net.ns_per_packet_hop", hops > 0 ? wall_s * 1e9 / hops : 0.0);
}

// ---------------------------------------------------------------- rack workloads

struct RackWorkload {
  runtime::RuntimeConfig config;
  workload::TrafficMatrix matrix;
  workload::GeneratorConfig gen;
  /// Run to this horizon with the CRC live, then stop() it and drain.
  SimTime stop_at;
  /// Simulated time per lap: ~100 laps over the workload.
  SimTime lap;
  bool expect_torus = false;
};

/// fig2 Part B's shape: a 6x6 grid under max-distance load converts
/// itself to a torus (auto-torus trigger) while traffic runs.
RackWorkload torus_upgrade(std::uint64_t seed, bool smoke) {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  cfg.rack.net_config.seed = seed;
  cfg.crc.epoch = SimTime::microseconds(250);
  cfg.crc.enable_auto_torus = true;
  cfg.crc.torus_util_threshold = 0.25;
  cfg.crc.torus_trigger_epochs = 2;
  workload::GeneratorConfig gen;
  gen.mean_interarrival = SimTime::microseconds(20);
  gen.horizon = smoke ? SimTime::microseconds(300) : SimTime::milliseconds(5);
  gen.sizes = workload::SizeDistribution::fixed_size(phy::DataSize::kilobytes(64));
  gen.seed = seed;
  return {cfg,
          workload::TrafficMatrix::opposite(36),
          gen,
          smoke ? SimTime::microseconds(600) : SimTime::milliseconds(10),
          SimTime::microseconds(100),
          !smoke};
}

/// ext6's "crc balanced" arm, longer: a native 6x6 torus with min-cost
/// routing under CRC prices, half the demand aimed at node 14.
RackWorkload hotspot_steady(std::uint64_t seed, bool smoke) {
  runtime::RuntimeConfig cfg;
  cfg.shape = runtime::RackShape::kTorus;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  cfg.rack.routing = fabric::RoutingPolicy::kMinCost;
  cfg.rack.net_config.seed = seed;
  cfg.crc.epoch = SimTime::microseconds(100);
  cfg.crc.weights = core::PriceWeights::balanced();
  workload::GeneratorConfig gen;
  gen.mean_interarrival = SimTime::microseconds(12);
  gen.horizon = smoke ? SimTime::microseconds(300) : SimTime::milliseconds(48);
  gen.sizes = workload::SizeDistribution::heavy_tail(1.3, 4e3, 5e5);
  gen.seed = seed;
  return {cfg,
          workload::TrafficMatrix::hotspot(36, /*hot_node=*/14, /*hot_fraction=*/0.5),
          gen,
          gen.horizon,
          SimTime::microseconds(500),
          false};
}

struct RackSetup {
  std::unique_ptr<runtime::FabricRuntime> rt;
  workload::FlowGenerator* gen = nullptr;
  double construct_s = 0.0;
  double start_s = 0.0;
};

RackSetup set_up_rack(const RackWorkload& w) {
  RackSetup s;
  const auto t0 = Clock::now();
  s.rt = std::make_unique<runtime::FabricRuntime>(w.config);
  s.gen = &s.rt->add_generator(w.matrix, w.gen);
  const auto t1 = Clock::now();
  s.rt->start();
  s.gen->start();
  const auto t2 = Clock::now();
  s.construct_s = seconds_between(t0, t1);
  s.start_s = seconds_between(t1, t2);
  return s;
}

/// Consecutive set-ups of one burst.
struct SetupBurst {
  std::vector<double> construct_s;
  std::vector<double> start_s;

  void add(double construct, double start) {
    construct_s.push_back(construct);
    start_s.push_back(start);
  }
  [[nodiscard]] double median_total() const {
    std::vector<double> total;
    for (std::size_t i = 0; i < construct_s.size(); ++i) {
      total.push_back(construct_s[i] + start_s[i]);
    }
    return median(total);
  }
};

/// setup_s and runtime.setup.* from the faster burst.
void record_setups(const SetupBurst& before, const SetupBurst& after, Report& rep) {
  const SetupBurst& b = before.median_total() <= after.median_total() ? before : after;
  rep.set("setup_s", b.median_total());
  rep.set("runtime.setup.construct_ms", median(b.construct_s) * 1e3);
  rep.set("runtime.setup.start_ms", median(b.start_s) * 1e3);
}

void run_rack(const RackWorkload& w, Report& rep, Tracer& tr) {
  const int root = tr.open("workload", -1);
  SetupBurst before;
  SetupBurst after;
  for (int i = 0; i < kSetupReps; ++i) {
    const RackSetup extra = set_up_rack(w);
    before.add(extra.construct_s, extra.start_s);
  }
  RackSetup s;
  {
    SpanScope span(tr, "setup", root);
    s = set_up_rack(w);
  }
  after.add(s.construct_s, s.start_s);
  runtime::FabricRuntime& rt = *s.rt;

  std::optional<Sampler> sampler;
  const int run_span = tr.open("run", root);
  if (tr.enabled()) {
    fabric::Network& net = rt.network();
    sampler.emplace(rt.sim(), tr, run_span,
                    [&net] { return net.flow_slots() - net.free_flow_slots(); });
  }
  rep.laps.start();
  rep.laps.follow(rt.sim(), w.lap);
  rt.run_until(w.stop_at);
  rt.stop();
  rt.run_until();
  rep.laps.unfollow();
  rep.laps.mark();
  tr.close(run_span);

  {
    SpanScope span(tr, "read_results", root);
    {
      SpanScope table_span(tr, "metrics_table", span.id());
      rep.digest.line(rt.metrics_table().to_string());
    }
    for (const fabric::FlowResult& r : s.gen->results()) {
      rep.digest.line(std::to_string(r.spec.id) + " " + std::to_string(r.spec.src) + " " +
                      std::to_string(r.spec.dst) + " " + std::to_string(r.spec.size.bit_count()) +
                      " " + std::to_string(r.started.ps()) + " " +
                      std::to_string(r.finished.ps()) + " " + std::to_string(r.packets) + " " +
                      std::to_string(r.retransmits) + (r.failed ? " failed" : " ok"));
    }
    rep.digest.line("bypass_joints " + std::to_string(rt.plant().total_bypass_joints()));
  }
  rep.laps.mark();
  const double wall_s = rep.laps.wall_s();
  rep.set("wall_s", wall_s);
  rep.set("cpu_s", rep.laps.cpu_s());
  rep.set("peak_rss_mb", peak_rss_mb());
  tr.close(root);

  const std::uint64_t sampler_ticks = sampler ? sampler->ticks() : 0;
  const double events =
      static_cast<double>(rt.sim().executed() - sampler_ticks - rep.laps.ticks());
  rep.set("sim.events", events);
  rep.set("sim.ns_per_event", events > 0 ? wall_s * 1e9 / events : 0.0);
  if (sampler) {
    sampler->finish();
    rep.set("sim.pending_peak", static_cast<double>(sampler->pending_peak()));
    rep.set("sim.slice_ns_per_event.p50", percentile(sampler->slice_ns_per_event(), 0.50));
    rep.set("sim.slice_ns_per_event.p99", percentile(sampler->slice_ns_per_event(), 0.99));
  }
  collect_rack(rt, rep);
  const std::vector<runtime::FabricRuntime*> racks{&rt};
  finish_net_ratios(racks, wall_s, rep);

  fabric::Network& net = rt.network();
  rep.check(s.gen->flows_generated() == net.flows_completed() + net.flows_failed(),
            "flows offered != completed + failed");
  rep.check(s.gen->results().size() == s.gen->flows_generated(),
            "generator results != flows generated");
  if (w.expect_torus) {
    rep.check(rt.plant().total_bypass_joints() == 48,
              "bypass joints " + std::to_string(rt.plant().total_bypass_joints()) + " != 48");
    rep.check(rep.get("core.crc.torus_failures") == 0, "torus failures");
  }

  const int probes = tr.open("probes", -1);
  probe_routers(racks, rep, tr, probes);
  probe_power(racks, rep, tr, probes);
  probe_metrics_table([&rt] { return rt.metrics_table().rows().size(); }, rep, tr, probes);
  tr.close(probes);

  for (int i = 1; i < kSetupReps; ++i) {
    const RackSetup extra = set_up_rack(w);
    after.add(extra.construct_s, extra.start_s);
  }
  record_setups(before, after, rep);
}

// ---------------------------------------------------------------- fleet workload

struct Cell {
  const char* name;
  workload::SlottedArm arm;
  workload::SlottedRegime regime;
};

constexpr Cell kCells[] = {
    {"skew_packet", workload::SlottedArm::kSkew, workload::SlottedRegime::kPacket},
    {"skew_carve", workload::SlottedArm::kSkew, workload::SlottedRegime::kCarve},
    {"skew_slotted", workload::SlottedArm::kSkew, workload::SlottedRegime::kSlotted},
    {"flap_carve", workload::SlottedArm::kFlap, workload::SlottedRegime::kCarve},
    {"flap_slotted", workload::SlottedArm::kFlap, workload::SlottedRegime::kSlotted},
};

workload::SlottedScenarioConfig cell_config(const Cell& cell, std::uint64_t seed, bool smoke) {
  workload::SlottedScenarioConfig cfg;
  cfg.arm = cell.arm;
  cfg.regime = cell.regime;
  cfg.loss_prob = 0.005;
  cfg.seed = seed;
  cfg.hot_bytes = smoke ? phy::DataSize::kilobytes(96) : phy::DataSize::megabytes(12);
  return cfg;
}

using Scenarios = std::vector<std::unique_ptr<workload::SlottedFleetScenario>>;

/// Constructs every cell. start() happens inside run(), so the whole
/// set-up is construction.
Scenarios set_up_fleet(std::uint64_t seed, bool smoke, double& construct_s) {
  Scenarios cells;
  const auto t0 = Clock::now();
  for (const Cell& cell : kCells) {
    cells.push_back(
        std::make_unique<workload::SlottedFleetScenario>(cell_config(cell, seed, smoke)));
  }
  construct_s = seconds_between(t0, Clock::now());
  return cells;
}

void digest_cross_rack(Digest& d, const char* label, const workload::CrossRackResult& r) {
  d.line(std::string(label) + " " + std::to_string(r.job_completion.ps()) + " " +
         std::to_string(r.median_flow.ps()) + " " + std::to_string(r.max_flow.ps()) + " " +
         std::to_string(r.flows) + " " + std::to_string(r.failed) + " " +
         std::to_string(r.cross_rack_flows) + " " + std::to_string(r.spine_hops) + " " +
         std::to_string(r.retransmits));
}

void run_fleet(const Options& opt, Report& rep, Tracer& tr) {
  const int root = tr.open("workload", -1);
  SetupBurst before;
  SetupBurst after;
  for (int i = 0; i < kSetupReps; ++i) {
    double construct_s = 0.0;
    set_up_fleet(opt.seed, opt.smoke, construct_s);
    before.add(construct_s, 0.0);
  }
  Scenarios cells;
  {
    SpanScope span(tr, "setup", root);
    double construct_s = 0.0;
    cells = set_up_fleet(opt.seed, opt.smoke, construct_s);
    after.add(construct_s, 0.0);
  }

  std::vector<workload::SlottedScenarioResult> results;
  // One per cell when traced, else empty.
  std::vector<std::unique_ptr<Sampler>> samplers;
  // A cell simulates 75-120 ms: ~230 laps over the five.
  const SimTime lap = opt.smoke ? SimTime::microseconds(20) : SimTime::milliseconds(2);
  rep.laps.start();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto cell0 = Clock::now();
    runtime::FleetRuntime& fleet = cells[i]->fleet();
    const int cell_span = tr.open(std::string("cell:") + kCells[i].name, root);
    if (tr.enabled()) {
      samplers.push_back(std::make_unique<Sampler>(
          fleet.sim(), tr, cell_span,
          [&fleet] { return fleet.packet_slots() - fleet.free_packet_slots(); }));
    }
    rep.laps.follow(fleet.sim(), lap);
    results.push_back(cells[i]->run());
    rep.laps.unfollow();
    rep.laps.mark();
    {
      SpanScope table_span(tr, "metrics_table", cell_span);
      rep.digest.line(std::string("cell ") + kCells[i].name);
      rep.digest.line(fleet.metrics_table().to_string());
    }
    const workload::SlottedScenarioResult& r = results.back();
    digest_cross_rack(rep.digest, "hot", r.hot);
    digest_cross_rack(rep.digest, "background", r.background);
    rep.digest.line(std::to_string(r.promotions) + " " + std::to_string(r.demotions) + " " +
                    std::to_string(r.schedule_splits) + " " + std::to_string(r.slot_reservations) +
                    " " + std::to_string(r.slot_expirations) + " " +
                    std::to_string(r.slot_preemptions) + " " + std::to_string(r.slot_refusals) +
                    " " + std::to_string(r.slotted_bytes) + " " +
                    std::to_string(r.reserved_bytes) + " " +
                    std::to_string(r.reservation_preemptions));
    tr.close(cell_span);
    rep.laps.mark();
    rep.set(std::string("runtime.fleet.cell_wall_s.") + kCells[i].name,
            seconds_between(cell0, Clock::now()));
  }
  const double wall_s = rep.laps.wall_s();
  rep.set("wall_s", wall_s);
  rep.set("cpu_s", rep.laps.cpu_s());
  rep.set("peak_rss_mb", peak_rss_mb());
  tr.close(root);

  std::vector<double> slice_ns;
  for (const auto& sampler : samplers) {
    sampler->finish();
    rep.max("sim.pending_peak", static_cast<double>(sampler->pending_peak()));
    const std::vector<double> ns = sampler->slice_ns_per_event();
    slice_ns.insert(slice_ns.end(), ns.begin(), ns.end());
  }

  std::vector<runtime::FabricRuntime*> racks;
  double events = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    runtime::FleetRuntime& fleet = cells[i]->fleet();
    const workload::SlottedScenarioResult& r = results[i];
    const std::string cell = kCells[i].name;
    events += static_cast<double>(fleet.sim().executed() -
                                  (samplers.empty() ? 0 : samplers[i]->ticks()));
    for (std::size_t k = 0; k < fleet.rack_count(); ++k) {
      racks.push_back(&fleet.rack(k));
      collect_rack(fleet.rack(k), rep);
    }

    const telemetry::CounterSet& c = fleet.spine().counters();
    rep.add("fabric.spine.packets", static_cast<double>(c.get("spine.packets")));
    rep.add("fabric.spine.bytes", static_cast<double>(c.get("spine.bytes")));
    rep.add("fabric.spine.packet_drops", static_cast<double>(c.get("spine.packet_drops")));
    rep.add("fabric.spine.retransmits", static_cast<double>(c.get("spine.retransmits")));
    rep.add("fabric.spine.packet_reroutes", static_cast<double>(c.get("spine.packet_reroutes")));
    rep.add("fabric.spine.reserved_bytes", static_cast<double>(c.get("spine.reserved_bytes")));
    rep.add("fabric.spine.slotted_bytes", static_cast<double>(c.get("spine.slotted_bytes")));
    rep.add("fabric.spine.slot_refusals", static_cast<double>(c.get("spine.slot_refusals")));
    rep.add("fabric.spine.slot_expirations",
            static_cast<double>(c.get("spine.slot_expirations")));
    rep.add("fabric.spine.preemptions", static_cast<double>(c.get("spine.slot_preemptions") +
                                                            c.get("spine.reservation_preemptions")));
    cache_hits += static_cast<double>(c.get("spine.route_cache_hits"));
    cache_lookups +=
        static_cast<double>(c.get("spine.route_cache_hits") + c.get("spine.route_cache_misses"));

    runtime::FleetController& ctl = fleet.controller();
    rep.max("runtime.fleet.flow_slots_peak", static_cast<double>(fleet.flow_slots()));
    rep.max("runtime.fleet.packet_slots_peak", static_cast<double>(fleet.packet_slots()));
    rep.add("runtime.fleet.flows_completed", static_cast<double>(fleet.flows_completed()));
    rep.add("runtime.fleet.flows_failed", static_cast<double>(fleet.flows_failed()));
    rep.add("runtime.fleet.controller_epochs", static_cast<double>(ctl.epochs_completed()));
    rep.add("runtime.fleet.reprices", static_cast<double>(ctl.reprices()));
    rep.add("runtime.fleet.promotions", static_cast<double>(ctl.promotions()));
    rep.add("runtime.fleet.schedule_splits",
            static_cast<double>(ctl.counters().get("fleet.schedule_splits")));

    const std::uint64_t offered = r.hot.flows + r.background.flows;
    rep.check(fleet.flows_completed() + fleet.flows_failed() == offered,
              cell + ": fleet flows offered != completed + failed");
    rep.check(fleet.flows_failed() == 0 && r.hot.failed == 0 && r.background.failed == 0,
              cell + ": a fleet flow failed");
    rep.check(fleet.free_flow_slots() == fleet.flow_slots(), cell + ": fleet flow slots leaked");
    rep.check(fleet.free_packet_slots() == fleet.packet_slots(),
              cell + ": fleet packet slots leaked");
  }
  events -= static_cast<double>(rep.laps.ticks());
  rep.set("sim.events", events);
  rep.set("sim.ns_per_event", events > 0 ? wall_s * 1e9 / events : 0.0);
  if (tr.enabled()) {
    rep.set("sim.slice_ns_per_event.p50", percentile(slice_ns, 0.50));
    rep.set("sim.slice_ns_per_event.p99", percentile(slice_ns, 0.99));
  }
  rep.set("fabric.spine.route_cache_hit_ratio",
          cache_lookups > 0 ? cache_hits / cache_lookups : 0.0);
  const double spine_packets = rep.get("fabric.spine.packets");
  rep.set("fabric.spine.ns_per_packet", spine_packets > 0 ? wall_s * 1e9 / spine_packets : 0.0);
  finish_net_ratios(racks, wall_s, rep);

  const int probes = tr.open("probes", -1);
  probe_routers(racks, rep, tr, probes);
  probe_power(racks, rep, tr, probes);
  probe_metrics_table(
      [&cells] {
        std::size_t rows = 0;
        for (auto& cell : cells) rows += cell->fleet().metrics_table().rows().size();
        return rows;
      },
      rep, tr, probes);
  {
    SpanScope span(tr, "probe:compute_route", probes);
    std::vector<double> ns;
    for (int r = 0; r < kProbeReps; ++r) {
      double calls = 0.0;
      double sink = 0.0;
      const auto t0 = Clock::now();
      for (auto& cell : cells) {
        fabric::Interconnect& spine = cell->fleet().spine();
        const auto n = static_cast<std::uint32_t>(cell->fleet().rack_count());
        for (std::uint32_t a = 0; a < n; ++a) {
          for (std::uint32_t b = 0; b < n; ++b) {
            if (a == b) continue;
            const auto route = spine.compute_route(a, b);
            sink += route ? static_cast<double>(route->size()) : -1.0;
            calls += 1.0;
          }
        }
      }
      ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / calls);
      g_sink = g_sink + sink;
    }
    rep.set("fabric.spine.compute_route_ns", median(ns));
  }
  tr.close(probes);

  for (int i = 1; i < kSetupReps; ++i) {
    double construct_s = 0.0;
    set_up_fleet(opt.seed, opt.smoke, construct_s);
    after.add(construct_s, 0.0);
  }
  record_setups(before, after, rep);
}

// ---------------------------------------------------------------- main

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--size") {
      if (value != "full" && value != "smoke") throw std::invalid_argument("--size full|smoke");
      opt.smoke = value == "smoke";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  return opt;
}

std::string build_json() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  return std::string("{\"compiler\":\"") + json_escape(__VERSION__) +
         "\",\"build_type\":\"" RSF_PERFBENCH_BUILD_TYPE "\",\"optimized\":" +
         (optimized ? "true" : "false") + ",\"ndebug\":" + (ndebug ? "true" : "false") + "}";
}

}  // namespace

int main(int argc, char** argv) {
  rsf::sim::LogConfig::set_level(rsf::sim::LogLevel::kOff);
  try {
    const Options opt = parse(argc, argv);
    Report rep;
    Tracer tracer(!opt.trace_out.empty());
    if (opt.workload == "torus_upgrade") {
      run_rack(torus_upgrade(opt.seed, opt.smoke), rep, tracer);
    } else if (opt.workload == "hotspot_steady") {
      run_rack(hotspot_steady(opt.seed, opt.smoke), rep, tracer);
    } else if (opt.workload == "fleet_regimes") {
      run_fleet(opt, rep, tracer);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    if (tracer.enabled()) tracer.write(opt.trace_out);
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"size\":\"%s\",\"traced\":%s,\"ok\":%s,"
        "\"violations\":%s,\"digest\":\"%s\",\"build\":%s,\"laps\":%s,\"metrics\":%s}\n",
        json_escape(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
        opt.smoke ? "smoke" : "full", tracer.enabled() ? "true" : "false",
        rep.ok() ? "true" : "false", rep.violations_json().c_str(), rep.digest.hex().c_str(),
        build_json().c_str(), rep.laps.json().c_str(), rep.metrics_json().c_str());
    return rep.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("{\"ok\":false,\"violations\":[\"exception: %s\"]}\n", json_escape(e.what()).c_str());
    return 1;
  }
}
