// The parallel break fan-out (contract C4 extended to the break phase,
// docs/CONCURRENCY.md):
//
//   * Concurrent break_region calls over a WorkerPool — the exact shape
//     ShardedForest::execute runs — must land on the byte-identical
//     checkpoint the same breaks produce inline on the calling thread. The
//     engine-level fan-out gate may keep breaks inline on boxes with no
//     spare hardware threads, so this suite drives the pool directly; it
//     is what keeps the parallel break TSan-covered everywhere (the
//     tsan/asan preset filters include BreakPool).
//   * The BreakEffects stitch is correct, not just deterministic: after
//     region-local buffers are applied in region id order, validate()
//     rebuilds I1-I5 from ground truth and fg::audit recomputes every
//     image multiplicity — a dropped image-edge drop or slot op fails
//     both.
//   * The engine-level knob (set_break_workers) composes with the merge
//     fan-out across waves and worker-count changes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/sharded_forest.h"
#include "fg/stabilizer.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace fg {
namespace {

std::string checkpoint(const ForgivingGraph& fg) {
  std::stringstream ss;
  fg.save(ss);
  return ss.str();
}

// Break every region of one wave on a WorkerPool with `background` threads
// (0: inline on the calling thread), recording each region's side effects,
// then stitch in region id order — the pipeline ShardedForest::execute runs.
std::vector<std::vector<VNodeId>> pooled_break(core::StructuralCore& core,
                                               const core::RepairPlan& plan,
                                               int background) {
  const int regions = static_cast<int>(plan.regions.size());
  std::vector<std::vector<VNodeId>> pieces(static_cast<size_t>(regions));
  std::vector<core::StructuralCore::BreakEffects> effects(
      static_cast<size_t>(regions));
  core.begin_break(plan);
  WorkerPool pool(background);
  pool.run(background + 1, regions, [&](int r) {
    pieces[static_cast<size_t>(r)] = core.break_region(
        plan.regions[static_cast<size_t>(r)], &effects[static_cast<size_t>(r)]);
  });
  for (int r = 0; r < regions; ++r)
    core.apply_break_effects(plan.regions[static_cast<size_t>(r)],
                             effects[static_cast<size_t>(r)]);
  core.finish_break(plan);
  return pieces;
}

// Finish the wave (in-order merges) so the cores are comparable as full
// checkpoints, not just mid-repair state.
void finish_merge(core::StructuralCore& core, const core::RepairPlan& plan,
                  std::vector<std::vector<VNodeId>> pieces) {
  const int regions = static_cast<int>(plan.regions.size());
  std::vector<core::StructuralCore::MergeEffects> effects(
      static_cast<size_t>(regions));
  for (int r = 0; r < regions; ++r)
    core.merge_region(plan.regions[static_cast<size_t>(r)],
                      std::move(pieces[static_cast<size_t>(r)]),
                      &effects[static_cast<size_t>(r)]);
  for (int r = 0; r < regions; ++r)
    core.apply_merge_effects(effects[static_cast<size_t>(r)]);
  core.check_reservation_settled(plan);
}

TEST(BreakPool, ConcurrentBreakRegionsMatchSequential) {
  Rng rng(311);
  Graph g0 = make_erdos_renyi(150, 7.0 / 150, rng);
  core::StructuralCore sequential(g0);
  core::StructuralCore concurrent(g0);

  auto alive = sequential.image().alive_nodes();
  rng.shuffle(alive);
  alive.resize(8);

  {
    core::RepairPlan plan = sequential.plan_deletion(alive);
    finish_merge(sequential, plan, pooled_break(sequential, plan, 0));
  }
  {
    core::RepairPlan plan = concurrent.plan_deletion(alive);
    finish_merge(concurrent, plan, pooled_break(concurrent, plan, 3));
  }

  std::stringstream a, b;
  sequential.save(a);
  concurrent.save(b);
  EXPECT_EQ(a.str(), b.str());
  sequential.validate();
  concurrent.validate();
  EXPECT_TRUE(audit(concurrent).clean()) << audit(concurrent).summary();
}

TEST(BreakPool, RepeatedWavesThroughTheSamePoolStayIdentical) {
  // Several waves, the concurrent core breaking each on a fresh pool
  // run — the stitch must keep derived state (slot tables, healed
  // image, live count) in lockstep so later waves plan identically.
  Rng rng(313);
  Graph g0 = make_erdos_renyi(140, 7.0 / 140, rng);
  core::StructuralCore sequential(g0);
  core::StructuralCore concurrent(g0);

  for (int wave = 0; wave < 5; ++wave) {
    auto alive = sequential.image().alive_nodes();
    if (alive.size() <= 16) break;
    rng.shuffle(alive);
    alive.resize(6);
    {
      core::RepairPlan plan = sequential.plan_deletion(alive);
      finish_merge(sequential, plan, pooled_break(sequential, plan, 0));
    }
    {
      core::RepairPlan plan = concurrent.plan_deletion(alive);
      finish_merge(concurrent, plan, pooled_break(concurrent, plan, 2));
    }
    std::stringstream a, b;
    sequential.save(a);
    concurrent.save(b);
    ASSERT_EQ(a.str(), b.str()) << "wave " << wave;
    const AuditReport report = audit(concurrent);
    ASSERT_TRUE(report.clean()) << "wave " << wave << ": " << report.summary();
  }
  sequential.validate();
  concurrent.validate();
}

TEST(BreakPool, EngineKnobComposesWithMergeWorkersAcrossWaves) {
  // The engine-level path: set_break_workers with and without commit
  // workers, reconfigured mid-run — every combination must track the
  // single-threaded engine's checkpoints wave for wave.
  Rng rng(317);
  Graph g0 = make_erdos_renyi(130, 7.0 / 130, rng);
  ForgivingGraph single(g0);
  ForgivingGraph pooled(g0);
  pooled.set_break_workers(4);

  for (int wave = 0; wave < 6; ++wave) {
    if (wave == 2) pooled.set_commit_workers(2);   // both fan-outs, one pool
    if (wave == 4) pooled.set_break_workers(2);    // resize the shared pool
    auto alive = single.healed().alive_nodes();
    if (alive.size() <= 12) break;
    rng.shuffle(alive);
    alive.resize(5);
    single.delete_batch(alive);
    pooled.delete_batch(alive);
    ASSERT_EQ(checkpoint(single), checkpoint(pooled)) << "wave " << wave;
  }
  single.validate();
  pooled.validate();
  EXPECT_TRUE(is_connected(pooled.healed()));
}

TEST(BreakPool, GlobalSplitSingleRegionBreaksInline) {
  // A kGlobal wave has one region; the fan-out runs inline (items <= 1)
  // and must still be byte-identical.
  Rng rng(331);
  Graph g0 = make_erdos_renyi(100, 7.0 / 100, rng);
  ForgivingGraph single(g0);
  ForgivingGraph pooled(g0);
  single.set_region_split(core::RegionSplit::kGlobal);
  pooled.set_region_split(core::RegionSplit::kGlobal);
  pooled.set_break_workers(4);

  auto alive = single.healed().alive_nodes();
  rng.shuffle(alive);
  alive.resize(6);
  single.delete_batch(alive);
  pooled.delete_batch(alive);
  EXPECT_EQ(checkpoint(single), checkpoint(pooled));
  pooled.validate();
}

}  // namespace
}  // namespace fg
