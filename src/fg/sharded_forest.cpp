#include "fg/sharded_forest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "util/check.h"

namespace fg {

// ---------------------------------------------------------------------------
// WorkerPool.

/// One run's shared state, owned jointly by the caller and every worker
/// that picked it up, so a late waker never touches freed memory.
struct WorkerPool::Job {
  Job(int items, int seats, const std::function<void(int)>* fn)
      : items(items), seats(seats), fn(fn) {}

  /// Pull indices until the counter runs out. `fn` is only dereferenced
  /// for a claimed index below `items`, i.e. while run() still waits for
  /// that index to finish, so it never dangles.
  void drain() {
    for (int i = next.fetch_add(1); i < items; i = next.fetch_add(1)) {
      (*fn)(i);
      done.fetch_add(1, std::memory_order_release);
    }
  }

  const int items;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  /// Background threads still allowed to join (participants - 1).
  std::atomic<int> seats;
  const std::function<void(int)>* fn;
};

WorkerPool::WorkerPool(int background) {
  FG_CHECK_MSG(background >= 0, "negative pool size");
  threads_.reserve(static_cast<size_t>(background));
  for (int i = 0; i < background; ++i) threads_.emplace_back([this] { worker(); });
  // Startup barrier: don't return until every worker is parked on the
  // condition variable. Without it the threads' first-ever scheduling
  // lands inside whatever the caller times next — on a single-core box
  // that bills thread startup to the first wave.
  std::unique_lock<std::mutex> lock(mutex_);
  parked_cv_.wait(lock, [&] { return parked_ == background; });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run(int participants, int items, const std::function<void(int)>& fn) {
  if (participants <= 1 || items <= 1 || threads_.empty()) {
    for (int i = 0; i < items; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>(items, participants - 1, &fn);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++generation_;
  }
  wake_.notify_all();
  job->drain();  // the caller participates too
  // Wait for the work, not the threads: the release increments in drain()
  // pair with this acquire, so every index's writes are visible on return.
  while (job->done.load(std::memory_order_acquire) < items) std::this_thread::yield();
}

void WorkerPool::worker() {
  uint64_t seen = 0;
  bool first = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (first) {
        first = false;
        ++parked_;
        parked_cv_.notify_one();
      }
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      // A worker that slept through several generations joins only the
      // newest job: every earlier one is drained by its own caller.
      seen = generation_;
      job = job_;
    }
    if (job->seats.fetch_sub(1) > 0) job->drain();
  }
}

// ---------------------------------------------------------------------------
// ShardedForest.

void ShardedForest::set_workers(int n) {
  FG_CHECK_MSG(n >= 1, "worker count must be at least 1");
  workers_ = n;
  rebuild_pool();
}

void ShardedForest::set_commit_workers(int n) {
  FG_CHECK_MSG(n >= 1, "worker count must be at least 1");
  commit_workers_ = n;
  rebuild_pool();
}

void ShardedForest::set_break_workers(int n) {
  FG_CHECK_MSG(n >= 1, "worker count must be at least 1");
  break_workers_ = n;
  rebuild_pool();
}

void ShardedForest::rebuild_pool() {
  // One pool serves the plan, break and merge fan-outs; size it for the
  // largest knob. Don't build threads the fan-out can never use well: on a
  // box with a single hardware thread, merely having extra threads
  // switches the allocator out of its single-threaded fast path and slows
  // the (alloc-heavy) inline repair — with zero chance of a fan-out win.
  // Contract C4 makes the structure identical either way.
  static const unsigned hw_threads = std::thread::hardware_concurrency();
  const int n = std::max({workers_, commit_workers_, break_workers_});
  const int background = (n > 1 && hw_threads != 1) ? n - 1 : 0;
  if (background != pool_->background()) pool_ = std::make_unique<WorkerPool>(background);
}

core::RepairPlan ShardedForest::plan(const core::StructuralCore& core,
                                     std::span<const NodeId> victims,
                                     core::RegionSplit split) const {
  auto t0 = std::chrono::steady_clock::now();
  core::DeletionAnalysis analysis = core.analyze_deletion(victims, split);
  auto t1 = std::chrono::steady_clock::now();

  // Every participant writes into its own pre-sized RegionPlan slot and
  // plan_region only reads the core, so the result is the sequential plan
  // regardless of scheduling.
  core::RepairPlan plan;
  plan.regions.resize(analysis.seeds.size());
  pool_->run(workers_, static_cast<int>(plan.regions.size()), [&](int r) {
    core.plan_region(analysis, r, &plan.regions[static_cast<size_t>(r)]);
  });

  core.finalize_plan(analysis, &plan);
  plan.profile.partition_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return plan;
}

std::vector<VNodeId> ShardedForest::execute(core::StructuralCore& core,
                                            const core::RepairPlan& plan) {
  const int regions = static_cast<int>(plan.regions.size());
  const size_t n = plan.regions.size();
  std::vector<core::StructuralCore::BreakEffects>& break_fx = break_effects_scratch_;
  std::vector<core::StructuralCore::MergeEffects>& merge_fx = merge_effects_scratch_;
  if (break_fx.size() < n) break_fx.resize(n);
  if (merge_fx.size() < n) merge_fx.resize(n);

  // Break: each region mutates only its own forest nodes and reserved
  // handles and records its shared-state writes; the stitch replays them
  // in region id order (contract C4; docs/CONCURRENCY.md, the
  // break-effects argument).
  std::vector<std::vector<VNodeId>> pieces(n);
  core.begin_break(plan);
  pool_->run(break_workers_, regions, [&](int r) {
    const size_t i = static_cast<size_t>(r);
    pieces[i] = core.break_region(plan.regions[i], &break_fx[i]);
  });
  for (size_t i = 0; i < n; ++i) core.apply_break_effects(plan.regions[i], break_fx[i]);
  core.finish_break(plan);

  // Merge: each region builds its RT inside its reserved arena range and
  // records its image edges and counters; the stitch folds them into the
  // shared state in region id order. The schedule decides *who* merges a
  // region, never *what* the merge produces (contract C4).
  pool_->run(commit_workers_, regions, [&](int r) {
    const size_t i = static_cast<size_t>(r);
    core.merge_region(plan.regions[i], std::move(pieces[i]), &merge_fx[i]);
  });
  std::vector<VNodeId> region_roots(n, kNoVNode);
  for (size_t i = 0; i < n; ++i) region_roots[i] = core.apply_merge_effects(merge_fx[i]);

  core.check_reservation_settled(plan);
  note_commit(plan, region_roots);
  // The wave is fully settled (reservation checked, stitch applied): let
  // the snapshot layer read the touched state's final values and emit the
  // wave's delta record (core::DeltaRecorder contract).
  if (core::DeltaRecorder* rec = core.delta_recorder()) rec->on_wave_committed(core, plan);
  return region_roots;
}

void ShardedForest::note_commit(const core::RepairPlan& plan,
                                std::span<const VNodeId> region_roots) {
  FG_CHECK(region_roots.size() == plan.regions.size());
  auto lookup = [this](VNodeId root) {
    return std::lower_bound(
        region_of_root_.begin(), region_of_root_.end(), root,
        [](const std::pair<VNodeId, int>& e, VNodeId r) { return e.first < r; });
  };
  // RTs the wave broke up no longer exist; drop their stale assignments so
  // region_of_root never reports a region for a destroyed root.
  for (const core::RegionPlan& region : plan.regions)
    for (VNodeId r : region.roots) {
      auto it = lookup(r);
      if (it != region_of_root_.end() && it->first == r) region_of_root_.erase(it);
    }
  for (size_t i = 0; i < region_roots.size(); ++i) {
    if (region_roots[i] == kNoVNode) continue;
    auto it = lookup(region_roots[i]);
    if (it != region_of_root_.end() && it->first == region_roots[i])
      it->second = plan.regions[i].id;
    else
      region_of_root_.insert(it, {region_roots[i], plan.regions[i].id});
  }
  last_assignment_ = plan.victim_region;
  last_region_roots_.assign(region_roots.begin(), region_roots.end());
}

int ShardedForest::region_of_root(VNodeId root) const {
  auto it = std::lower_bound(
      region_of_root_.begin(), region_of_root_.end(), root,
      [](const std::pair<VNodeId, int>& e, VNodeId r) { return e.first < r; });
  return (it == region_of_root_.end() || it->first != root) ? -1 : it->second;
}

}  // namespace fg
