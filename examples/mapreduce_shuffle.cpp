// MapReduce shuffle on an adaptive rack — the paper's §2 motivation.
//
// A reducer waits for every mapper, so the slowest transfer gates the
// job. This example runs the same shuffle twice on a 6x6 rack:
// first on the stock grid, then after asking the CRC to execute the
// Figure-2 move (grid -> torus via lane splitting and bypass), and
// prints how the barrier time and the straggler gap change.
#include <cstdio>
#include <optional>

#include "runtime/runtime.hpp"

using namespace rsf;
using namespace rsf::sim::literals;

namespace {

workload::ShuffleResult run_shuffle(runtime::FabricRuntime& rt) {
  workload::ShuffleConfig cfg;
  const auto& p = rt.rack_params();
  for (int x = 0; x < p.width; ++x) {
    cfg.mappers.push_back(rt.node_at(x, 0));
    cfg.reducers.push_back(rt.node_at(x, p.height - 1));
  }
  cfg.bytes_per_pair = phy::DataSize::kilobytes(256);
  cfg.start = rt.now();
  cfg.first_flow_id = 1'000'000 + static_cast<fabric::FlowId>(rt.now().ps());
  auto& job = rt.add_shuffle(cfg);
  std::optional<workload::ShuffleResult> result;
  job.run([&](const workload::ShuffleResult& r) { result = r; });
  rt.run_until();
  return *result;
}

}  // namespace

int main() {
  runtime::RuntimeConfig cfg;
  cfg.rack.width = 6;
  cfg.rack.height = 6;
  runtime::FabricRuntime rt(cfg);
  rt.start();

  std::printf("shuffle: 6 mappers (top row) x 6 reducers (bottom row), 256 KB/pair\n\n");

  const auto on_grid = run_shuffle(rt);
  std::printf("grid  : job %s  median flow %s  slowest flow %s  straggler x%.2f\n",
              on_grid.job_completion.to_string().c_str(),
              on_grid.median_flow.to_string().c_str(),
              on_grid.max_flow.to_string().c_str(), on_grid.straggler_ratio());

  // The Figure-2 move: split every 2-lane link, chain the spare lanes
  // into wraparound links -> torus at 1 lane per link.
  bool converted = false;
  rt.controller().request_grid_to_torus([&](const core::TopologyPlanner::Report& r) {
    converted = r.failures == 0;
    std::printf("\ncrc   : closed %d rows + %d columns with %zu wrap links\n\n",
                r.rows_closed, r.cols_closed, r.wrap_links.size());
  });
  rt.run_until();
  if (!converted) {
    std::printf("conversion failed\n");
    return 1;
  }

  const auto on_torus = run_shuffle(rt);
  std::printf("torus : job %s  median flow %s  slowest flow %s  straggler x%.2f\n",
              on_torus.job_completion.to_string().c_str(),
              on_torus.median_flow.to_string().c_str(),
              on_torus.max_flow.to_string().c_str(), on_torus.straggler_ratio());

  std::printf("\nspeedup: x%.2f on the job barrier\n",
              static_cast<double>(on_grid.job_completion.ps()) /
                  static_cast<double>(on_torus.job_completion.ps()));
  rt.stop();
  rt.run_until();
  return 0;
}
