// Sharding layer over the virtual forest (docs/DESIGN.md, "Plan/commit
// pipeline and the sharded forest"; docs/CONCURRENCY.md for the full
// concurrency model).
//
// A deletion wave decomposes into *connected dirty regions*: victims and
// the RTs their virtual nodes live in, united whenever two victims share an
// RT or a G' edge. The paper's repair is inherently local — every broken
// RT is rebuilt from its own neighborhood — so disjoint regions heal
// independently: their plans read disjoint parts of the structure and
// their commits build disjoint RTs.
//
// ShardedForest exploits that locality across the whole pipeline, with one
// fan-out primitive (WorkerPool::run) and one commit path:
//
//   * Plan: it partitions a wave (core::StructuralCore::analyze_deletion),
//     then drains the read-only per-region planning over the pool
//     (set_workers).
//   * Break: it drains the per-region break scripts over the pool
//     (set_break_workers). Each region's break mutates only its own forest
//     nodes and reserved arena handles; every shared-state write —
//     image-edge drops, slot-table entries, counters, the forest live
//     count — is recorded into a region-local
//     core::StructuralCore::BreakEffects buffer and applied by a
//     single-threaded stitch in region id order.
//   * Merge: it drains the per-region merges over the same pool
//     (set_commit_workers). This is safe because the plan carries an
//     *arena-id reservation*: every vnode handle the commit allocates is
//     fixed at plan time by region order alone, so concurrent merges write
//     disjoint, pre-grown parts of the arena, and the shared-state side
//     effects (image edges, counters) are recorded per region and applied
//     by a final single-threaded stitch in deterministic region order.
//
// The break and merge always record and stitch — at one worker the drain
// simply runs inline — so there is a single commit path at every worker
// count. All three fan-outs preserve the Healer contract C4, strengthened
// from "single-threaded commit" to "schedule-independent commit": the
// healed structure — checkpoint bytes included — is a pure function of the
// input partition, never of scheduling; the workers only decide *who*
// computes a region's plan or applies its merge, never *what* it contains
// (pinned by tests/shard_determinism_test.cpp and
// tests/arena_reservation_test.cpp, in Release/Debug and under the TSan
// preset).
//
// It also remembers, per committed wave, which region every victim and
// every newly built RT belonged to — the assignment trace `r` lines record
// so a replay divergence can be localized to one region.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/virtual_forest.h"

namespace fg {

/// A persistent pool of background threads for drain-style jobs — the one
/// fan-out primitive of the repair pipeline. Spawned once per worker-knob
/// change, not per wave: a wave pays one notify, not thread creation.
///
/// run(participants, items, fn) calls fn(i) exactly once for every i in
/// [0, items) and returns once all of them have finished. Every
/// participant — the caller and at most participants - 1 background
/// threads — pulls indices off a shared atomic counter, so participation
/// is symmetric and completion is a property of the *work*, not the
/// threads: the caller never waits for a thread to park. The counters live
/// in a shared_ptr-owned context; a worker that wakes after the job is done
/// finds the counter exhausted and never calls fn, so a stale job is a
/// no-op, never a dangling reference. Each caller drains its own job, so
/// concurrent run calls on one pool are safe too.
class WorkerPool {
 public:
  explicit WorkerPool(int background);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int background() const { return static_cast<int>(threads_.size()); }

  /// Run fn(0) .. fn(items - 1) and return when all have finished. Loops
  /// inline when participants <= 1, items <= 1 or the pool has no threads.
  /// fn must be safe to call concurrently for distinct indices.
  void run(int participants, int items, const std::function<void(int)>& fn);

 private:
  struct Job;
  void worker();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable parked_cv_;
  std::shared_ptr<Job> job_;
  uint64_t generation_ = 0;
  int parked_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Region partitioning + concurrent planning + parallel deterministic
/// commit + shard bookkeeping.
class ShardedForest {
 public:
  explicit ShardedForest(int workers = 1) { set_workers(workers); }

  /// Participants used to plan disjoint regions concurrently: 1 plans
  /// inline on the calling thread. Any value yields the identical plan.
  void set_workers(int n);
  int workers() const { return workers_; }

  /// Participants used to merge disjoint regions concurrently: 1 merges
  /// inline. Any value replays byte-identical checkpoints — the arena-id
  /// reservation makes the commit schedule-independent (contract C4,
  /// docs/CONCURRENCY.md).
  void set_commit_workers(int n);
  int commit_workers() const { return commit_workers_; }

  /// Participants used to break disjoint regions concurrently: 1 breaks
  /// inline. Any value replays byte-identical checkpoints and certificate
  /// bytes (contract C4 — the BreakEffects stitch applies every
  /// shared-state write in region id order).
  void set_break_workers(int n);
  int break_workers() const { return break_workers_; }

  /// Execute a reserved plan end to end against `core`: begin_break, the
  /// region breaks drained over the pool, their BreakEffects stitch and
  /// finish_break, then the region merges drained over the pool and their
  /// MergeEffects stitch; verify the reservation settled and record the
  /// shard bookkeeping. Returns each region's final RT root, aligned with
  /// plan.regions. The one commit path of both engines (the distributed
  /// engine runs it at one worker).
  std::vector<VNodeId> execute(core::StructuralCore& core,
                               const core::RepairPlan& plan);

  /// Plan a deletion wave against `core`: bit-identical to
  /// core.plan_deletion(victims, split) at every worker count.
  core::RepairPlan plan(const core::StructuralCore& core,
                        std::span<const NodeId> victims,
                        core::RegionSplit split = core::RegionSplit::kPerRegion) const;

  /// Record a committed plan: the wave's victim -> region assignment and
  /// each final RT root's region id. `region_roots` is aligned with
  /// plan.regions (kNoVNode for a region that produced no RT).
  void note_commit(const core::RepairPlan& plan,
                   std::span<const VNodeId> region_roots);

  /// Region id the wave that created `root` assigned to it, or -1 if this
  /// root was not a final RT of a committed wave (or has since been broken
  /// up by a later repair).
  int region_of_root(VNodeId root) const;

  /// Victim -> region ids of the most recently committed wave, aligned
  /// with that wave's victim order (the payload of trace `r` lines).
  const std::vector<int>& last_assignment() const { return last_assignment_; }

  /// Final RT root per region of the most recently committed wave, aligned
  /// with that wave's plan.regions (kNoVNode for a region that produced no
  /// RT). What the certificate layer normalizes into per-region witnesses
  /// (harness/certificate.h) — identical at every worker count, like the
  /// rest of the commit (contract C4).
  const std::vector<VNodeId>& last_region_roots() const {
    return last_region_roots_;
  }

 private:
  /// (Re)build the pool for the largest of the three knobs; every setter
  /// funnels through here so one pool serves all three fan-outs.
  void rebuild_pool();

  int workers_ = 1;
  int commit_workers_ = 1;
  int break_workers_ = 1;
  std::unique_ptr<WorkerPool> pool_ = std::make_unique<WorkerPool>(0);
  /// Per-region side-effect buffers, reused across waves, grow-only: a
  /// smaller wave must not destroy the trailing slots' capacity, so a
  /// steady-state commit allocates no per-region bookkeeping.
  std::vector<core::StructuralCore::BreakEffects> break_effects_scratch_;
  std::vector<core::StructuralCore::MergeEffects> merge_effects_scratch_;
  /// Root -> region id of the wave that built it: sorted flat pairs,
  /// binary-searched (no hash container on the commit path).
  std::vector<std::pair<VNodeId, int>> region_of_root_;
  std::vector<int> last_assignment_;
  std::vector<VNodeId> last_region_roots_;
};

}  // namespace fg
