#include "fabric/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "fabric/builders.hpp"
#include "sim/random.hpp"

namespace rsf::fabric {
namespace {

using phy::LinkId;
using phy::NodeId;
using rsf::sim::Simulator;

struct GridFixture : ::testing::Test {
  Simulator sim;
  Rack rack;

  GridFixture() {
    RackParams p;
    p.width = 4;
    p.height = 4;
    rack = build_grid(&sim, p);
  }
};

TEST_F(GridFixture, NextHopNulloptAtDestination) {
  EXPECT_FALSE(rack.router->next_hop(3, 3).has_value());
}

TEST_F(GridFixture, MinCostFindsManhattanPath) {
  // 0 (0,0) -> 15 (3,3): 6 hops on a 4x4 grid.
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(3, 3)), 6);
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(1, 0)), 1);
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(0, 0)), 0);
}

TEST_F(GridFixture, PathWalksConnectedLinks) {
  const NodeId src = rack.node_at(0, 0);
  const NodeId dst = rack.node_at(3, 2);
  const auto path = rack.router->path(src, dst);
  ASSERT_EQ(path.size(), 5u);
  NodeId at = src;
  for (LinkId id : path) {
    const auto& l = rack.plant->link(id);
    ASSERT_TRUE(l.connects(at));
    at = l.other_end(at);
  }
  EXPECT_EQ(at, dst);
}

TEST_F(GridFixture, PathCostIsPositiveAndAdditive) {
  const auto c1 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(1, 0));
  const auto c2 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(2, 0));
  ASSERT_TRUE(c1 && c2);
  EXPECT_GT(*c1, 0.0);
  EXPECT_NEAR(*c2, 2.0 * *c1, 1e-6);
  EXPECT_DOUBLE_EQ(rack.router->path_cost(5, 5).value(), 0.0);
}

TEST_F(GridFixture, UnreachableAfterLinkShutdown) {
  // Cut both links of corner (0,0): unreachable.
  for (LinkId id : rack.topology->links_at(rack.node_at(0, 0))) {
    rack.engine->submit(plp::ShutdownCommand{id});
  }
  sim.run_until();
  EXPECT_FALSE(rack.router->next_hop(rack.node_at(0, 0), rack.node_at(3, 3)).has_value());
  EXPECT_EQ(rack.router->hop_count(rack.node_at(0, 0), rack.node_at(3, 3)), -1);
  EXPECT_FALSE(rack.router->path_cost(rack.node_at(0, 0), rack.node_at(3, 3)).has_value());
}

TEST_F(GridFixture, PriceFnSteersRouting) {
  // Make the direct west-east row prohibitively expensive; the path
  // from (0,0) to (3,0) should then dodge through row 1.
  const NodeId src = rack.node_at(0, 0);
  const NodeId dst = rack.node_at(3, 0);
  EXPECT_EQ(rack.router->hop_count(src, dst), 3);

  rack.router->set_price_fn([this](LinkId id) {
    const auto& l = rack.plant->link(id);
    const auto ca = rack.topology->coord(l.end_a());
    const auto cb = rack.topology->coord(l.end_b());
    const bool in_row0 = ca && cb && ca->y == 0 && cb->y == 0;
    return in_row0 ? 1e9 : 100.0;
  });
  const int hops = rack.router->hop_count(src, dst);
  EXPECT_EQ(hops, 5);  // down, 3 east, up
  // Restoring default prices restores the short path.
  rack.router->set_price_fn(nullptr);
  EXPECT_EQ(rack.router->hop_count(src, dst), 3);
}

TEST_F(GridFixture, BumpPricesInvalidatesCache) {
  double price = 100.0;
  rack.router->set_price_fn([&price](LinkId) { return price; });
  const auto c1 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(1, 0));
  price = 200.0;
  rack.router->bump_prices();
  const auto c2 = rack.router->path_cost(rack.node_at(0, 0), rack.node_at(1, 0));
  ASSERT_TRUE(c1 && c2);
  EXPECT_GT(*c2, *c1);
}

TEST_F(GridFixture, InfinitePriceExcludesLink) {
  // Price the (0,0)-(1,0) link infinite: routing goes around it.
  const auto direct = rack.topology->link_between(rack.node_at(0, 0), rack.node_at(1, 0));
  ASSERT_TRUE(direct.has_value());
  rack.router->set_price_fn([&](LinkId id) {
    return id == *direct ? std::numeric_limits<double>::infinity() : 100.0;
  });
  const auto next = rack.router->next_hop(rack.node_at(0, 0), rack.node_at(1, 0));
  ASSERT_TRUE(next.has_value());
  EXPECT_NE(*next, *direct);
}

TEST_F(GridFixture, DefaultCostReflectsLatencyPlusHopPenalty) {
  const LinkId id = rack.plant->link_ids().front();
  const double cost = rack.router->default_cost(id);
  const double latency_ns =
      rack.plant->link(id).one_way_latency(phy::DataSize::bytes(1024)).ns();
  EXPECT_NEAR(cost, latency_ns + 450.0, 1.0);
}

TEST_F(GridFixture, DimensionOrderRoutesXThenY) {
  // The policy is fixed at construction: build the same grid with
  // dimension-order routing.
  Simulator dim_sim;
  RackParams p;
  p.width = 4;
  p.height = 4;
  p.routing = RoutingPolicy::kDimensionOrder;
  const Rack dim = build_grid(&dim_sim, p);
  const NodeId src = dim.node_at(0, 0);
  const NodeId dst = dim.node_at(2, 2);
  // First hop must move in x.
  const auto first = dim.router->next_hop(src, dst);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(dim.plant->link(*first).other_end(src), dim.node_at(1, 0));
  // From (2,0) the x is correct: moves in y.
  const auto later = dim.router->next_hop(dim.node_at(2, 0), dst);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(dim.plant->link(*later).other_end(dim.node_at(2, 0)), dim.node_at(2, 1));
}

TEST(RouterTorus, DimensionOrderUsesWraparound) {
  Simulator sim;
  RackParams p;
  p.width = 4;
  p.height = 4;
  p.routing = RoutingPolicy::kDimensionOrder;
  Rack rack = build_torus(&sim, p);
  // 0 (0,0) -> (3,0): wrap is 1 hop, interior is 3.
  const auto first = rack.router->next_hop(rack.node_at(0, 0), rack.node_at(3, 0));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(rack.plant->link(*first).other_end(rack.node_at(0, 0)), rack.node_at(3, 0));
}

TEST(RouterTorus, MinCostExploitsWraparound) {
  Simulator sim;
  RackParams p;
  p.width = 6;
  p.height = 6;
  Rack rack = build_torus(&sim, p);
  // Opposite corners on a 6x6 torus: <= 6 hops (3+3 with wraps),
  // where the grid needs 10.
  const int hops = rack.router->hop_count(rack.node_at(0, 0), rack.node_at(5, 5));
  EXPECT_LE(hops, 6);
  EXPECT_GE(hops, 2);
}

TEST(Router, NullTopologyRejected) {
  EXPECT_THROW(Router(nullptr), std::invalid_argument);
}

TEST_F(GridFixture, MemoizedNextHopEqualsFreshSearch) {
  // Every (at, dst) pair, asked twice of the long-lived router (the
  // second answer is the memo hit), must match what a cold router
  // computes from scratch.
  auto expect_all_equal_fresh = [&] {
    for (NodeId at = 0; at < 16; ++at) {
      for (NodeId dst = 0; dst < 16; ++dst) {
        Router cold(rack.topology.get());
        const auto fresh = cold.next_hop(at, dst);
        EXPECT_EQ(rack.router->next_hop(at, dst), fresh) << at << " -> " << dst;
        EXPECT_EQ(rack.router->next_hop(at, dst), fresh) << at << " -> " << dst;
      }
    }
  };
  expect_all_equal_fresh();
}

TEST_F(GridFixture, SetReservationBumpsTheVersionAndRefreshesTheMemo) {
  const NodeId a = rack.node_at(0, 0);
  const NodeId b = rack.node_at(1, 0);
  const auto direct = rack.topology->link_between(a, b);
  ASSERT_TRUE(direct.has_value());
  // Warm the memo on the direct hop.
  const auto before = rack.router->next_hop(a, b);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(*before, *direct);

  // Reserving the link must invalidate the memo: set_reservation
  // bumps the plant's version, which the router's tables key on.
  const std::uint64_t version = rack.topology->version();
  rack.plant->set_reservation(*direct, 42);
  EXPECT_GT(rack.topology->version(), version);
  const auto around = rack.router->next_hop(a, b);
  ASSERT_TRUE(around.has_value());
  EXPECT_NE(*around, *direct);  // private circuits are invisible
  {
    Router cold(rack.topology.get());
    EXPECT_EQ(cold.next_hop(a, b), around);  // hit == fresh search
  }

  // A redundant set is a no-op (no version churn), and clearing the
  // reservation restores the direct hop.
  const std::uint64_t reserved_version = rack.topology->version();
  rack.plant->set_reservation(*direct, 42);
  EXPECT_EQ(rack.topology->version(), reserved_version);
  rack.plant->set_reservation(*direct, std::nullopt);
  EXPECT_EQ(rack.router->next_hop(a, b), before);
}

/// Router's min-cost search as written before the edge graph: a heap
/// Dijkstra that prices every relaxation, and a next-hop argmin that
/// prices every candidate link in links_at order. It reads the graph
/// from a fresh scan of the plant, never from Topology.
class ReferenceRouter {
 public:
  ReferenceRouter(const Rack& rack, const std::vector<double>* prices)
      : rack_(rack), prices_(prices) {}

  /// Links at `node` from a fresh scan of the plant's link set, in
  /// ascending id order — what Topology::links_at must return.
  std::vector<LinkId> links_at(NodeId node) const {
    std::vector<LinkId> out;
    for (const LinkId id : rack_.plant->link_ids()) {
      if (rack_.plant->link(id).connects(node)) out.push_back(id);
    }
    return out;
  }

  /// What Topology::usable must return: the link exists, its lanes
  /// are up and no PLP command is actuating on it.
  bool usable(LinkId id) const {
    return rack_.plant->has_link(id) && rack_.plant->link(id).ready() &&
           !rack_.plant->link_busy(id);
  }

  std::vector<double> dist_to(NodeId dst) const {
    const std::uint32_t n = rack_.topology->node_count();
    std::vector<double> dist(n, kInf);
    using Item = std::pair<double, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[dst] = 0.0;
    pq.emplace(0.0, dst);
    while (!pq.empty()) {
      const auto [d, node] = pq.top();
      pq.pop();
      if (d > dist[node]) continue;
      for (LinkId id : links_at(node)) {
        if (!public_link(id)) continue;
        const NodeId next = rack_.plant->link(id).other_end(node);
        if (next >= n) continue;
        const double nd = d + cost(id);
        if (nd < dist[next]) {
          dist[next] = nd;
          pq.emplace(nd, next);
        }
      }
    }
    return dist;
  }

  std::optional<LinkId> next_hop(NodeId at, const std::vector<double>& dist) const {
    if (dist[at] == kInf) return std::nullopt;
    double best = kInf;
    std::optional<LinkId> best_link;
    for (LinkId id : links_at(at)) {
      if (!public_link(id)) continue;
      const NodeId next = rack_.plant->link(id).other_end(at);
      if (next >= dist.size() || dist[next] == kInf) continue;
      const double through = cost(id) + dist[next];
      if (through < best) {
        best = through;
        best_link = id;
      }
    }
    return best_link;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  bool public_link(LinkId id) const {
    return usable(id) && !rack_.plant->link(id).reserved_for().has_value();
  }
  double cost(LinkId id) const {
    const double p = id < prices_->size() ? (*prices_)[id] : std::nan("");
    if (!std::isnan(p)) return std::max(p, 0.0) + kSwitchLatency.ns();
    return rack_.router->default_cost(id);
  }

  const Rack& rack_;
  const std::vector<double>* prices_;
};

TEST(RouterOracle, EdgeGraphSearchMatchesHeapDijkstraOnRandomRacks) {
  // Grids and tori from 3x3 to 9x9, random prices
  // including NaN (no opinion), +inf (priced out), negatives and ties,
  // random lane failures and reservations. Every pair's next hop, path
  // cost and path must match the reference exactly.
  rsf::sim::RandomStream rng(53, "router-oracle");
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  int compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Simulator sim;
    RackParams p;
    p.width = static_cast<int>(rng.uniform_int(3, trial % 4 == 3 ? 9 : 6));
    p.height = static_cast<int>(rng.uniform_int(3, trial % 4 == 3 ? 9 : 6));
    Rack rack = trial % 2 == 0 ? build_grid(&sim, p) : build_torus(&sim, p);
    std::vector<double> prices;
    const ReferenceRouter ref(rack, &prices);
    for (int round = 0; round < 4; ++round) {
      const std::vector<LinkId> ids = rack.plant->link_ids();
      if (round > 0) {
        prices.assign(ids.back() + 1, std::nan(""));
        for (const LinkId id : ids) {
          const int kind = static_cast<int>(rng.uniform_int(0, 9));
          prices[id] = kind == 0   ? std::nan("")
                       : kind == 1 ? std::numeric_limits<double>::infinity()
                       : kind == 2 ? -5.0
                       : kind <= 5 ? 100.0  // ties
                                   : rng.uniform(0.0, 2000.0);
        }
        rack.router->set_price_fn([&prices](LinkId id) {
          return id < prices.size() ? prices[id] : std::nan("");
        });
      }
      if (round >= 2) {
        const LinkId failed = ids[pick(ids.size())];
        rack.plant->fail_lane({rack.plant->link(failed).segments().front().cable, 0});
        rack.plant->set_reservation(ids[pick(ids.size())], 7);
      }
      const auto n = static_cast<NodeId>(rack.node_count());
      std::vector<NodeId> order(n);
      for (NodeId v = 0; v < n; ++v) order[v] = v;
      for (NodeId i = n; i > 1; --i) std::swap(order[i - 1], order[pick(i)]);
      for (const NodeId dst : order) {
        const std::vector<double> dist = ref.dist_to(dst);
        for (NodeId src = 0; src < n; ++src) {
          const auto cost = rack.router->path_cost(src, dst);
          if (src == dst) {
            EXPECT_EQ(cost, std::optional<double>(0.0));
            continue;
          }
          ASSERT_EQ(cost.has_value(), dist[src] != std::numeric_limits<double>::infinity());
          if (cost) ASSERT_EQ(*cost, dist[src]) << src << "->" << dst;
          ASSERT_EQ(rack.router->next_hop(src, dst), ref.next_hop(src, dist))
              << "trial " << trial << " round " << round << " " << src << "->" << dst;
          std::vector<LinkId> want;
          NodeId at = src;
          for (std::uint32_t hop = 0; hop <= n && at != dst; ++hop) {
            const auto link = ref.next_hop(at, dist);
            if (!link) break;
            want.push_back(*link);
            at = rack.plant->link(*link).other_end(at);
          }
          if (at != dst) want.clear();
          ASSERT_EQ(rack.router->path(src, dst), want) << src << "->" << dst;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 10000);
}

TEST(RouterOracle, InterleavedInvalidationsNeverServeAStaleRow) {
  // Every input the router keys on, changed one step at a time: in-place
  // price changes with bump_prices and set_price_fn,
  // reservation set and clear, lane failure and repair (under a retrain
  // too), PLP commands run only part-way (so busy windows overlap the
  // queries), and, on the plant with no engine involved, link creation
  // and destruction, lane training and power-off, and FEC changes.
  // After every step, Topology's adjacency equals a fresh scan of the
  // plant, usable() equals has_link && ready && !busy, and on a random
  // subset of destinations (rows built under older stamps sit next to
  // fresh ones) next_hop, path_cost and path match the reference for
  // every source; at == dst and out-of-range nodes answer nullopt (cost
  // 0 for src == dst).
  rsf::sim::RandomStream rng(67, "router-interleave");
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int compared = 0;
  int invalidations = 0;
  int commands = 0;
  int plant_edits = 0;
  int retrain_repairs = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Simulator sim;
    RackParams p;
    p.width = static_cast<int>(rng.uniform_int(3, 7));
    p.height = static_cast<int>(rng.uniform_int(3, 7));
    // Spare lanes on every cable for provisioning and plant-side links.
    p.lanes_per_cable = static_cast<int>(rng.uniform_int(2, 4));
    Rack rack = trial % 2 == 0 ? build_grid(&sim, p) : build_torus(&sim, p);
    Router& router = *rack.router;
    phy::PhysicalPlant& plant = *rack.plant;
    const Topology& topo = *rack.topology;
    const auto n = static_cast<NodeId>(rack.node_count());
    std::vector<double> prices;
    ReferenceRouter ref(rack, &prices);
    const auto random_price = [&] {
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      return kind == 0   ? std::nan("")
             : kind == 1 ? kInf
             : kind == 2 ? -5.0
             : kind <= 5 ? 100.0  // ties
                         : rng.uniform(0.0, 2000.0);
    };
    const auto price_links = [&](const std::vector<LinkId>& ids) {
      if (prices.size() <= ids.back()) prices.resize(ids.back() + 1, std::nan(""));
    };
    // A cable with free, unfailed lanes (eight random tries), and a
    // partner for `a` that a bundle or a bypass join accepts.
    const auto free_cable_lanes = [&](std::vector<int>& lanes) -> std::optional<phy::CableId> {
      for (std::size_t tries = 0; tries < 8; ++tries) {
        const auto cable = static_cast<phy::CableId>(pick(plant.cable_count()));
        lanes = plant.free_lanes(cable);
        const phy::Cable& c = std::as_const(plant).cable(cable);
        std::erase_if(lanes, [&c](int l) { return c.lane(l).is_failed(); });
        if (!lanes.empty()) return cable;
      }
      return std::nullopt;
    };
    const auto bundle_pair = [&](LinkId a) -> std::optional<LinkId> {
      const phy::LogicalLink& la = plant.link(a);
      for (const LinkId b : plant.links_at(la.end_a())) {
        const phy::LogicalLink& lb = plant.link(b);
        if (b == a || lb.end_a() != la.end_a() || lb.end_b() != la.end_b()) continue;
        if (lb.segments().size() != la.segments().size()) continue;
        bool same_chain = true;
        for (std::size_t i = 0; i < la.segments().size(); ++i) {
          same_chain = same_chain && la.segments()[i].cable == lb.segments()[i].cable;
        }
        if (same_chain) return b;
      }
      return std::nullopt;
    };
    const auto join_pair = [&](LinkId a) -> std::optional<LinkId> {
      const phy::LogicalLink& la = plant.link(a);
      for (const NodeId joint : {la.end_a(), la.end_b()}) {
        for (const LinkId b : plant.links_at(joint)) {
          const phy::LogicalLink& lb = plant.link(b);
          if (b == a || lb.lane_count() != la.lane_count()) continue;
          if (lb.connects(la.other_end(joint))) continue;  // shares both ends
          return b;
        }
      }
      return std::nullopt;
    };
    // Whether every live lane of the link is training: only then may
    // the plant complete its training.
    const auto training = [&](LinkId a) {
      bool any = false;
      for (const phy::LinkSegment& seg : plant.link(a).segments()) {
        for (const int lane : seg.lanes) {
          const phy::Lane& ln = std::as_const(plant).cable(seg.cable).lane(lane);
          if (ln.is_failed()) continue;
          if (ln.state() != phy::LaneState::kTraining) return false;
          any = true;
        }
      }
      return any;
    };
    bool priced = false;  // the router has a price function installed
    std::vector<phy::LaneRef> failed;
    for (int step = 0; step < 80; ++step) {
      const int op = static_cast<int>(rng.uniform_int(0, 8));
      const std::vector<LinkId> ids = plant.link_ids();
      ASSERT_FALSE(ids.empty());
      price_links(ids);
      const LinkId id = ids[pick(ids.size())];
      if (op == 0) {
        // In place, behind the router's back, then announced.
        if (priced) {
          for (int k = 0; k < 4; ++k) prices[ids[pick(ids.size())]] = random_price();
        }
        router.bump_prices();
      } else if (op == 1) {
        priced = rng.uniform_int(0, 3) != 0;
        if (!priced) {
          std::fill(prices.begin(), prices.end(), std::nan(""));
          router.set_price_fn(nullptr);
        } else {
          for (const LinkId l : ids) prices[l] = random_price();
          router.set_price_fn([&prices](LinkId l) { return l < prices.size() ? prices[l] : std::nan(""); });
        }
      } else if (op == 2) {
        plant.set_reservation(id, rng.uniform_int(0, 1) == 0 ? std::optional<std::uint64_t>(7)
                                                             : std::nullopt);
      } else if (op == 3) {
        const phy::LaneRef lane{plant.link(id).segments().front().cable,
                                static_cast<int>(pick(static_cast<std::size_t>(p.lanes_per_cable)))};
        plant.fail_lane(lane);
        failed.push_back(lane);
      } else if (op == 4 && !failed.empty()) {
        // Repairs land under a retrain too: its completion leaves the
        // repaired lane dark, and the bring-up (queued behind a busy
        // link) retrains it.
        const std::size_t i = pick(failed.size());
        const phy::LaneRef lane = failed[i];
        failed.erase(failed.begin() + static_cast<std::ptrdiff_t>(i));
        plant.repair_lane(lane);
        if (const auto owner = plant.lane_owner(lane)) {
          if (plant.link_busy(*owner) || training(*owner)) ++retrain_repairs;
          rack.engine->submit(plp::BringUpCommand{*owner});
        }
      } else if (op == 5) {
        // A PLP command, run only part-way: its busy window, queueing
        // and completion land between later queries.
        plp::PlpCommand cmd = plp::ShutdownCommand{id};  // kind 6, and the fallback
        const int kind = static_cast<int>(rng.uniform_int(0, 8));
        const phy::LogicalLink& l = plant.link(id);
        std::vector<int> lanes;
        if (kind == 0 && l.lane_count() >= 2) {
          cmd = plp::SplitCommand{id, static_cast<int>(rng.uniform_int(1, l.lane_count() - 1))};
        } else if (kind == 1 && bundle_pair(id)) {
          cmd = plp::BundleCommand{id, *bundle_pair(id)};
        } else if (kind == 2 && join_pair(id)) {
          cmd = plp::BypassJoinCommand{id, *join_pair(id)};
        } else if (kind == 3 && l.segments().size() >= 2) {
          cmd = plp::BypassSeverCommand{
              id, std::as_const(plant).cable(l.segments().front().cable).other_end(l.end_a())};
        } else if (kind == 4) {
          if (const auto cable = free_cable_lanes(lanes)) {
            cmd = plp::ProvisionCommand{*cable, lanes, phy::FecScheme::kRsKr4};
          }
        } else if (kind == 5) {
          cmd = plp::DecommissionCommand{id};
        } else if (kind == 7) {
          cmd = plp::BringUpCommand{id};
        } else if (kind == 8) {
          cmd = plp::SetFecCommand{id, phy::kAllFecSchemes[pick(phy::kAllFecSchemes.size())]};
        }
        rack.engine->submit(cmd);
        sim.run_until(sim.now() + rsf::sim::SimTime::nanoseconds(rng.uniform_int(0, 80'000)));
        ++commands;
      } else if (op == 6) {
        // The plant changed with no engine involved: a link created
        // (sometimes trained) on free lanes, or an idle link destroyed.
        std::vector<int> lanes;
        if (rng.uniform_int(0, 1) == 0) {
          if (const auto cable = free_cable_lanes(lanes)) {
            const LinkId made = plant.create_adjacent_link(*cable, lanes);
            if (rng.uniform_int(0, 1) == 0) {
              plant.lane_begin_training(made);
              plant.lane_complete_training(made);
            }
          }
        } else if (!plant.link_busy(id) && ids.size() > 4) {
          plant.destroy_link(id);
        }
        ++plant_edits;
      } else if (op == 7) {
        sim.run_until();  // every in-flight command completes
      } else if (op == 8 && !plant.link_busy(id)) {
        // An idle link's lanes or FEC changed on the plant directly,
        // one transition per step.
        if (training(id)) {
          plant.lane_complete_training(id);
        } else if (const int kind = static_cast<int>(rng.uniform_int(0, 2)); kind == 0) {
          const phy::FecScheme scheme = phy::kAllFecSchemes[pick(phy::kAllFecSchemes.size())];
          plant.set_fec(id, phy::FecSpec::of(scheme));
        } else if (kind == 1 && plant.link(id).ready()) {
          plant.lane_power_off(id);
        } else {
          plant.lane_begin_training(id);
        }
        ++plant_edits;
      }
      ++invalidations;
      const std::vector<LinkId> now_ids = plant.link_ids();
      ASSERT_FALSE(now_ids.empty());
      price_links(now_ids);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(topo.links_at(v), ref.links_at(v)) << "trial " << trial << " step " << step
                                                     << " node " << v;
      }
      for (LinkId l = 0; l <= now_ids.back() + 1; ++l) {
        ASSERT_EQ(topo.usable(l), ref.usable(l)) << "trial " << trial << " step " << step
                                                 << " link " << l;
      }
      // A random third of the destinations, in random order.
      for (NodeId dst = 0; dst < n; ++dst) {
        if (rng.uniform_int(0, 2) != 0) continue;
        const std::vector<double> dist = ref.dist_to(dst);
        for (NodeId src = 0; src < n; ++src) {
          const auto where = [&] {
            return "trial " + std::to_string(trial) + " step " + std::to_string(step) + " op " +
                   std::to_string(op) + " " + std::to_string(src) + "->" + std::to_string(dst);
          };
          if (src == dst) {
            ASSERT_EQ(router.next_hop(src, dst), std::nullopt) << where();
            ASSERT_EQ(router.path_cost(src, dst), std::optional<double>(0.0)) << where();
            ASSERT_TRUE(router.path(src, dst).empty()) << where();
            continue;
          }
          const auto cost = router.path_cost(src, dst);
          ASSERT_EQ(cost.has_value(), dist[src] != kInf) << where();
          if (cost) ASSERT_EQ(*cost, dist[src]) << where();
          ASSERT_EQ(router.next_hop(src, dst), ref.next_hop(src, dist)) << where();
          std::vector<LinkId> want;
          NodeId at = src;
          for (std::uint32_t hop = 0; hop <= n && at != dst; ++hop) {
            const auto link = ref.next_hop(at, dist);
            if (!link) break;
            want.push_back(*link);
            at = plant.link(*link).other_end(at);
          }
          if (at != dst) want.clear();
          ASSERT_EQ(router.path(src, dst), want) << where();
          ++compared;
        }
        for (const NodeId out : {n, n + 1, phy::kInvalidNode}) {
          ASSERT_EQ(router.next_hop(out, dst), std::nullopt) << out << "->" << dst;
          ASSERT_EQ(router.next_hop(dst, out), std::nullopt) << dst << "->" << out;
          ASSERT_EQ(router.path_cost(out, dst), std::nullopt) << out << "->" << dst;
          ASSERT_TRUE(router.path(dst, out).empty()) << dst << "->" << out;
        }
      }
    }
  }
  EXPECT_GT(compared, 20000);
  EXPECT_GT(invalidations, 900);
  EXPECT_GT(commands, 80);
  EXPECT_GT(plant_edits, 80);
  EXPECT_GT(retrain_repairs, 0);
}

}  // namespace
}  // namespace rsf::fabric
