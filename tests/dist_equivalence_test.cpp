// Equivalence of the two engines: for any adversarial schedule, the
// distributed protocol must produce exactly the topology of the centralized
// reference implementation (both execute the same deterministic ComputeHaft
// plan over the same piece set — docs/DESIGN.md invariant 6). This is the
// strongest correctness evidence for the message-passing implementation.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace fg {
namespace {

struct EquivCase {
  const char* graph;
  int n;
  double p_delete;
  int steps;
  uint64_t seed;
};

void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << c.graph << " n=" << c.n << " p_delete=" << c.p_delete << " steps=" << c.steps
      << " seed=" << c.seed;
}

Graph build_graph(const std::string& kind, int n, Rng& rng) {
  if (kind == "star") return make_star(n);
  if (kind == "path") return make_path(n);
  if (kind == "cycle") return make_cycle(n);
  if (kind == "grid") return make_grid(n / 6, 6);
  if (kind == "er") return make_erdos_renyi(n, 5.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  if (kind == "complete") return make_complete(n);
  ADD_FAILURE() << "unknown graph kind";
  return Graph(1);
}

class EngineEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EngineEquivalence, IdenticalTopologyOnRandomSchedule) {
  const EquivCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph distributed(g0);

  for (int step = 0; step < c.steps; ++step) {
    bool del = central.healed().alive_count() > 2 && rng.next_bool(c.p_delete);
    if (del) {
      auto alive = central.healed().alive_nodes();
      NodeId v = rng.pick(alive);
      central.remove(v);
      distributed.remove(v);
    } else {
      auto alive = central.healed().alive_nodes();
      rng.shuffle(alive);
      int want = static_cast<int>(rng.next_int(1, 3));
      alive.resize(static_cast<size_t>(std::min<int>(want, static_cast<int>(alive.size()))));
      NodeId a = central.insert(alive);
      NodeId b = distributed.insert(alive);
      ASSERT_EQ(a, b);
    }
    ASSERT_TRUE(central.healed().same_topology(distributed.image()))
        << "diverged at step " << step << " (" << (del ? "delete" : "insert") << ")";
  }
  central.validate();
  distributed.validate();
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, EngineEquivalence,
    ::testing::Values(EquivCase{"star", 17, 1.0, 14, 1}, EquivCase{"star", 33, 0.7, 30, 2},
                      EquivCase{"path", 30, 0.8, 25, 3}, EquivCase{"cycle", 24, 0.9, 20, 4},
                      EquivCase{"er", 40, 0.6, 45, 5}, EquivCase{"er", 60, 0.75, 60, 6},
                      EquivCase{"ba", 50, 0.65, 55, 7}, EquivCase{"grid", 36, 0.8, 30, 8},
                      EquivCase{"complete", 12, 0.9, 9, 9}, EquivCase{"er", 30, 0.4, 70, 10},
                      EquivCase{"ba", 35, 1.0, 32, 11}, EquivCase{"path", 50, 0.5, 70, 12}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      const auto& c = info.param;
      return std::string(c.graph) + "_n" + std::to_string(c.n) + "_s" +
             std::to_string(c.seed);
    });

TEST(EngineEquivalence, HubChainCollapse) {
  // Deleting a chain of hubs whose RTs repeatedly merge: the hardest case
  // for plan/representative agreement between the engines.
  Graph g0 = make_star(20);
  for (NodeId v = 1; v < 20; v += 3) g0.add_edge(v, (v % 19) + 1 == v ? v - 1 : (v % 19) + 1);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph distributed(g0);
  for (NodeId v = 0; v < 15; ++v) {
    central.remove(v);
    distributed.remove(v);
    ASSERT_TRUE(central.healed().same_topology(distributed.image())) << "at " << v;
  }
  central.validate();
  distributed.validate();
}

}  // namespace
}  // namespace fg
