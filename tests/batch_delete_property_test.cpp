// Property suite for batched deletions (delete_batch): a batch of k
// simultaneous victims healed in one repair round — one merged plan and
// one new RT per connected dirty region — must be *semantically*
// equivalent to k sequential deletions. The structures need not be
// identical (the batch's RT partition follows its regions), but both must
// satisfy invariants I1-I5, the same Theorem 1 degree/stretch bounds, and
// preserve connectivity. In kGlobalPlan mode the distributed engine must
// stay bit-identical to the centralized engine on batched schedules too,
// since both run the shared core::StructuralCore. (The region machinery
// itself is pinned by tests/sharded_repair_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>

#include "adversary/adversary.h"
#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "haft/haft.h"
#include "harness/experiment.h"
#include "harness/metrics.h"
#include "harness/trace.h"
#include "heal/healer.h"
#include "util/rng.h"

namespace fg {
namespace {

Graph build_graph(const std::string& kind, int n, Rng& rng) {
  if (kind == "star") return make_star(n);
  if (kind == "path") return make_path(n);
  if (kind == "cycle") return make_cycle(n);
  if (kind == "grid") return make_grid(n / 6, 6);
  if (kind == "er") return make_erdos_renyi(n, 6.0 / n, rng);
  if (kind == "ba") return make_barabasi_albert(n, 2, rng);
  if (kind == "complete") return make_complete(n);
  ADD_FAILURE() << "unknown graph kind";
  return Graph(1);
}

/// Both bounds of Theorem 1, asserted on an engine's current state.
void assert_bounds(const ForgivingGraph& fg, Rng& rng) {
  DegreeStats ds = degree_stats(fg.healed(), fg.gprime());
  EXPECT_LE(ds.max_ratio, 4.0);
  StretchStats ss = sample_stretch(fg.healed(), fg.gprime(), 16, rng);
  double bound = std::max(1, haft::ceil_log2(fg.gprime().node_capacity()));
  EXPECT_LE(ss.max_stretch, bound);
  EXPECT_EQ(ss.broken_pairs, 0);
}

struct BatchCase {
  const char* graph;
  int n;
  int batch;
  int waves;
  uint64_t seed;
};

// Prints the case by value: gtest's default dumps the raw bytes, which
// include the address of `graph` and so change from run to run, and the
// printed value is part of each test's name under ctest.
void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << c.graph << " n=" << c.n << " batch=" << c.batch << " waves=" << c.waves
      << " seed=" << c.seed;
}

class BatchVsSequential : public ::testing::TestWithParam<BatchCase> {};

// The headline property: drive identical victim waves through a batched
// engine and a sequential engine. After every wave both must validate,
// agree on the alive set, stay connected, and satisfy the same bounds.
TEST_P(BatchVsSequential, SameInvariantsAndBounds) {
  const BatchCase& c = GetParam();
  Rng rng(c.seed);
  Graph g0 = build_graph(c.graph, c.n, rng);
  ForgivingGraph batched(g0);
  ForgivingGraph sequential(g0);

  for (int wave = 0; wave < c.waves; ++wave) {
    auto alive = batched.healed().alive_nodes();
    if (static_cast<int>(alive.size()) <= c.batch + 2) break;
    rng.shuffle(alive);
    alive.resize(static_cast<size_t>(c.batch));

    batched.delete_batch(alive);
    for (NodeId v : alive) sequential.remove(v);

    ASSERT_NO_FATAL_FAILURE(batched.validate());
    ASSERT_NO_FATAL_FAILURE(sequential.validate());
    ASSERT_EQ(batched.healed().alive_count(), sequential.healed().alive_count());
    for (NodeId v : alive) {
      ASSERT_FALSE(batched.is_alive(v));
      ASSERT_FALSE(sequential.is_alive(v));
    }
    ASSERT_TRUE(is_connected(batched.healed()));
    ASSERT_TRUE(is_connected(sequential.healed()));
  }
  assert_bounds(batched, rng);
  assert_bounds(sequential, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Waves, BatchVsSequential,
    ::testing::Values(BatchCase{"star", 40, 3, 8, 1}, BatchCase{"er", 60, 4, 8, 2},
                      BatchCase{"ba", 50, 5, 6, 3}, BatchCase{"cycle", 36, 3, 7, 4},
                      BatchCase{"grid", 36, 4, 5, 5}, BatchCase{"path", 40, 2, 10, 6},
                      BatchCase{"complete", 16, 4, 3, 7}, BatchCase{"er", 80, 8, 6, 8}),
    [](const ::testing::TestParamInfo<BatchCase>& info) {
      const auto& c = info.param;
      return std::string(c.graph) + "_n" + std::to_string(c.n) + "_k" +
             std::to_string(c.batch) + "_s" + std::to_string(c.seed);
    });

TEST(BatchDelete, SingletonBatchIsExactlyRemove) {
  // delete_batch({v}) and remove(v) must be the *same* code path: identical
  // topology, identical repair stats.
  Rng rng(17);
  Graph g0 = make_erdos_renyi(40, 6.0 / 40, rng);
  ForgivingGraph a(g0);
  ForgivingGraph b(g0);
  auto order = g0.alive_nodes();
  rng.shuffle(order);
  order.resize(20);
  for (NodeId v : order) {
    a.remove(v);
    b.delete_batch({&v, 1});
    ASSERT_TRUE(a.healed().same_topology(b.healed()));
    ASSERT_EQ(a.last_repair().pieces, b.last_repair().pieces);
    ASSERT_EQ(a.last_repair().helpers_created, b.last_repair().helpers_created);
  }
  a.validate();
  b.validate();
}

TEST(BatchDelete, AdjacentVictimsSpawnNoLeaves) {
  // An edge between two victims must not leave a slot behind: both
  // endpoints die, so nobody survives to simulate its real node. This is
  // the state sequential deletions converge to.
  Graph g0 = make_path(6);  // 0-1-2-3-4-5
  ForgivingGraph fg(g0);
  std::vector<NodeId> victims{2, 3};
  fg.delete_batch(victims);
  fg.validate();
  EXPECT_FALSE(fg.is_alive(2));
  EXPECT_FALSE(fg.is_alive(3));
  EXPECT_TRUE(is_connected(fg.healed()));
  // Exactly two fresh real nodes: (1,2) and (4,3).
  EXPECT_EQ(fg.last_repair().new_leaves, 2);
  EXPECT_EQ(fg.last_repair().pieces, 2);
}

TEST(BatchDelete, WholeNeighborhoodBatch) {
  // Delete a hub together with half its spokes in one round.
  ForgivingGraph fg(make_star(24));
  std::vector<NodeId> victims{0};
  for (NodeId v = 1; v <= 11; ++v) victims.push_back(v);
  fg.delete_batch(victims);
  fg.validate();
  EXPECT_TRUE(is_connected(fg.healed()));
  EXPECT_EQ(fg.healed().alive_count(), 12);
}

TEST(BatchDelete, MassExtinctionToTwoSurvivors) {
  Rng rng(23);
  Graph g0 = make_erdos_renyi(30, 8.0 / 30, rng);
  ForgivingGraph fg(g0);
  auto alive = g0.alive_nodes();
  rng.shuffle(alive);
  alive.resize(28);
  fg.delete_batch(alive);
  fg.validate();
  EXPECT_EQ(fg.healed().alive_count(), 2);
  EXPECT_TRUE(is_connected(fg.healed()));
}

TEST(BatchDelete, DistGlobalPlanBitIdentical) {
  // Invariant 6 extends to batches: both engines run the shared structural
  // core, so batched repairs are bit-identical in kGlobalPlan mode.
  Rng rng(31);
  Graph g0 = make_erdos_renyi(50, 6.0 / 50, rng);
  ForgivingGraph central(g0);
  dist::DistForgivingGraph distributed(g0);
  for (int wave = 0; wave < 6; ++wave) {
    auto alive = central.healed().alive_nodes();
    if (alive.size() <= 8) break;
    rng.shuffle(alive);
    alive.resize(4);
    central.delete_batch(alive);
    distributed.delete_batch(alive);
    ASSERT_TRUE(central.healed().same_topology(distributed.image()))
        << "diverged at wave " << wave;
    ASSERT_GT(distributed.last_repair_cost().messages, 0);
  }
  central.validate();
  distributed.validate();
}

TEST(BatchDelete, DistStageWiseKeepsInvariants) {
  Rng rng(37);
  Graph g0 = make_barabasi_albert(40, 2, rng);
  dist::DistForgivingGraph distributed(g0, dist::MergeMode::kStageWise);
  for (int wave = 0; wave < 5; ++wave) {
    auto alive = distributed.image().alive_nodes();
    if (alive.size() <= 8) break;
    rng.shuffle(alive);
    alive.resize(4);
    distributed.delete_batch(alive);
    ASSERT_NO_FATAL_FAILURE(distributed.validate());
    ASSERT_TRUE(is_connected(distributed.image()));
  }
}

TEST(BatchDelete, BatchRepairCostBeatsSequential) {
  // The point of batching: one detection round, one report/broadcast wave,
  // one merged plan. Total protocol traffic for a wave must come in below
  // the same victims healed one repair at a time.
  Rng rng(41);
  Graph g0 = make_erdos_renyi(60, 8.0 / 60, rng);
  dist::DistForgivingGraph batched(g0);
  dist::DistForgivingGraph sequential(g0);
  auto victims = g0.alive_nodes();
  rng.shuffle(victims);
  victims.resize(12);

  batched.delete_batch(victims);
  int64_t batched_msgs = batched.last_repair_cost().messages;
  int batched_rounds = batched.last_repair_cost().rounds;

  int64_t seq_msgs = 0;
  int seq_rounds = 0;
  for (NodeId v : victims) {
    sequential.remove(v);
    seq_msgs += sequential.last_repair_cost().messages;
    seq_rounds += sequential.last_repair_cost().rounds;
  }
  EXPECT_LT(batched_msgs, seq_msgs);
  EXPECT_LT(batched_rounds, seq_rounds);
  batched.validate();
  sequential.validate();
}

TEST(BatchDelete, HealerInterfaceAndAdversary) {
  // remove_batch flows through the Healer interface; baselines fall back to
  // sequential removals, the Forgiving Graph takes its native batch path.
  Rng rng(43);
  Graph g0 = make_erdos_renyi(80, 6.0 / 80, rng);
  auto healer = make_healer("forgiving", g0);
  auto adversary = make_adversary("batch:5");
  RunConfig cfg;
  cfg.max_steps = 10;
  cfg.sample_every = 5;
  RunResult r = run_experiment(*healer, *adversary, cfg, rng);
  EXPECT_EQ(r.deletions % 5, 0);
  EXPECT_GE(r.deletions, 25);
  EXPECT_LE(r.worst_degree_ratio, 4.0);
  EXPECT_EQ(r.broken_pairs_total, 0);
  EXPECT_EQ(r.final.components, 1);

  auto baseline = make_healer("binary-tree", g0);
  Rng rng2(43);
  auto adversary2 = make_adversary("batch:5");
  RunResult rb = run_experiment(*baseline, *adversary2, cfg, rng2);
  EXPECT_GE(rb.deletions, 25);
}

TEST(BatchDelete, TraceRoundTripWithBatches) {
  Rng rng(47);
  Graph g0 = make_erdos_renyi(50, 6.0 / 50, rng);
  ForgivingGraphHealer recorded(g0);
  BatchDeleteAdversary adversary(3);
  Trace t = record_run(recorded, adversary, 6, rng);
  ASSERT_GE(t.size(), 1u);

  std::stringstream ss;
  t.save(ss);
  Trace loaded = Trace::load(ss);
  ASSERT_EQ(loaded.size(), t.size());

  ForgivingGraphHealer replayed(g0);
  loaded.replay(replayed);
  EXPECT_TRUE(recorded.healed().same_topology(replayed.healed()));
  replayed.engine().validate();
}

TEST(BatchDelete, RejectsDuplicateVictims) {
  ForgivingGraph fg(make_cycle(8));
  std::vector<NodeId> victims{3, 3};
  EXPECT_DEATH(fg.delete_batch(victims), "duplicate victim");
}

TEST(BatchDelete, RejectsDeadVictims) {
  ForgivingGraph fg(make_cycle(8));
  fg.remove(3);
  std::vector<NodeId> victims{2, 3};
  EXPECT_DEATH(fg.delete_batch(victims), "dead or unknown");
}

}  // namespace
}  // namespace fg
