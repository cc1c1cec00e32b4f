// The shared structural core of the Forgiving Graph (Sections 3-4).
//
// Both execution engines — the centralized reference implementation
// (fg::ForgivingGraph) and the distributed protocol
// (fg::dist::DistForgivingGraph) — commit through this single mutation
// path, fg::ShardedForest::execute. The core owns all structural state and
// performs every container mutation:
//
//   * G'  — the graph of all insertions, with no deletions applied;
//   * G   — the healed network: the homomorphic image of G' minus deleted
//           processors plus the virtual forest (maintained incrementally
//           through an edge-multiplicity map);
//   * the virtual forest of Reconstruction Trees and the per-processor
//     slot table (Table 1 of the paper).
//
// The distributed engine derives its message-dependency DAG from the
// immutable plan and read-only reads of the pre-commit forest, then commits
// the same way the centralized engine does. Because there is exactly one
// code path, the piece sequence, the deterministic haft::merge_plan, the
// arena layout and therefore the healed structure cannot drift between the
// engines (docs/DESIGN.md invariant 6).
//
// A deletion (or a batch of deletions) runs as a two-phase PLAN / COMMIT
// pipeline (docs/DESIGN.md, "Plan/commit pipeline"):
//
//   1. plan_deletion (const, read-only): partition the wave into its
//      *connected dirty regions* — victims and the RTs their virtual nodes
//      live in, united whenever two victims share an RT or a G' edge — and
//      produce one immutable RegionPlan per region: the exact break-phase
//      event script (pieces and teardowns, the Strip of Section 4.1.1,
//      walked over the dirty region only, so its cost is O(d log^2 n), not
//      O(RT size)), the anchor leaves to spawn, and the deterministic
//      k-way ComputeHaft merge steps. Planning never mutates the core, so
//      disjoint regions can be planned concurrently (fg::ShardedForest);
//      the resulting RepairPlan is a pure function of (core, victims).
//   2. break, then merge: apply the plan region by region — break every
//      region, spawn its anchor leaves, tombstone the victims, then
//      reassemble each region's pieces into one RT per region. Each region
//      records its shared-state writes (BreakEffects, MergeEffects) for a
//      stitch in region id order, and the plan carries a per-region
//      *arena-id reservation*: every vnode handle the commit will allocate
//      is fixed at plan time by region-order arithmetic alone, so disjoint
//      regions may break and merge concurrently and any worker count
//      replays byte-identical checkpoints — contract C4, strengthened from
//      "single-threaded commit" to "schedule-independent commit"
//      (docs/CONCURRENCY.md).
//
// Invariants maintained after every insert_node / committed repair
// (checked by validate(); numbering follows docs/DESIGN.md):
//   I1. Slot consistency: processor u has a slot keyed by w iff (u, w) is a
//       G' edge whose far endpoint w is dead; the slot always holds the real
//       (leaf) node of that edge and at most one helper.
//   I2. Every Reconstruction Tree in the virtual forest is a haft over the
//       real nodes of its dead edge slots (Lemma 1 bounds its depth by
//       ceil(log2 leaves)).
//   I3. Representative: every internal RT node's `rep` is the unique leaf of
//       its subtree whose slot simulates no helper inside that subtree.
//   I4. Each helper is an ancestor of its own slot's leaf (Lemma 3).
//   I5. G is exactly the homomorphic image: G' minus dead processors, plus
//       one edge per virtual tree edge whose endpoints have distinct owners.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "fg/core/slot_table.h"
#include "fg/virtual_forest.h"
#include "graph/graph.h"
#include "haft/haft.h"
#include "util/flat_count_map.h"

namespace fg::snap {
struct BaseImage;
struct VRow;
struct WaveDelta;
}  // namespace fg::snap

namespace fg::core {

/// The one codec between an in-memory arena row and its serialized form
/// (snap::VRow: the FRST and delta row, and the text checkpoint's fields).
/// to_vrow widens. from_vrow rejects aggregates outside
/// [0, VirtualForest::kMaxHeight] x [1, INT32_MAX] before narrowing them
/// into the packed row, returning false and leaving *out untouched.
snap::VRow to_vrow(const VirtualForest::VNode& n);
bool from_vrow(const snap::VRow& r, VirtualForest::VNode* out);

class StructuralCore;

/// How a batched deletion groups its repair. kPerRegion (the default) heals
/// each connected dirty region into its own RT, which is what lets disjoint
/// regions plan concurrently and repair in parallel rounds; kGlobal merges
/// the whole wave into a single RT (the pre-sharding behaviour, kept for
/// A/B measurement — bench/repair_path.cpp).
enum class RegionSplit { kPerRegion, kGlobal };

/// Structural statistics of the most recent committed repair (one deletion
/// or one batch). Reset by begin_break; the break and merge stitches update
/// the counters, which sum over the wave's regions.
struct RepairStats {
  int regions = 0;          ///< Connected dirty regions healed (RTs built).
  int affected_rts = 0;     ///< RTs broken by the deletion(s).
  int pieces = 0;           ///< Perfect trees to merge (incl. new leaves).
  int new_leaves = 0;       ///< Fresh real nodes (alive direct neighbors).
  int helpers_created = 0;  ///< Helper nodes instantiated by the merge.
  int helpers_removed = 0;  ///< "Red" helpers discarded by stripping.
  int64_t final_rt_leaves = 0;  ///< Total leaves of the resulting RTs.
  int deleted_degree_gprime = 0;  ///< Total G' degree of the victims.
};

/// The immutable repair recipe for one connected dirty region. Produced by
/// the read-only planner, applied by the commit phase; a pure function of
/// (core state, victim wave), so concurrent planning cannot change it (the
/// Healer contract C4 determinism argument).
struct RegionPlan {
  /// One step of the break-phase script, in the deterministic left-to-right
  /// walk order of the dirty region. A piece event detaches the maximal
  /// clean perfect subtree rooted at `h`; a teardown removes the dead or
  /// red node `h` (children already processed).
  struct Event {
    bool is_piece = false;
    VNodeId h = kNoVNode;
  };
  /// A fresh real node to spawn on alive processor `owner` for its lost G'
  /// edge to the dead processor `dead`.
  struct FreshLeaf {
    NodeId owner = kInvalidNode;
    NodeId dead = kInvalidNode;
  };

  int id = 0;                      ///< Commit order (regions heal in id order).
  /// First arena handle of this region's reservation: the commit allocates
  /// exactly fresh.size() anchor leaves at [arena_base, arena_base +
  /// fresh.size()) and steps.size() helpers right after them, in step
  /// order. Computed from region order alone (finalize_plan), so the arena
  /// layout is identical at every commit worker count. -1 until finalized.
  int arena_base = -1;
  std::vector<NodeId> victims;     ///< Region's victims, in wave order.
  std::vector<VNodeId> roots;      ///< Affected RT roots, ascending.
  std::vector<Event> events;       ///< Break-phase script.
  std::vector<FreshLeaf> fresh;    ///< Anchor leaves, in (victim, neighbor) order.
  /// Merge-plan input, aligned with the region's piece order: the detached
  /// pieces in event order, then the fresh leaves.
  std::vector<haft::PieceInfo> pieces;
  /// Deterministic k-way ComputeHaft steps over `pieces` (piece numbering
  /// as in haft::merge_plan): always pieces - 1 joins, one helper each.
  /// The distributed engine's kStageWise mode rewrites its own copy with
  /// the BottomupRTMerge association — same numbering, same count.
  std::vector<haft::MergeStep> steps;
  /// G' edges between two victims of this region, (smaller, larger), in
  /// victim wave order: the break drops their image multiplicity with no
  /// surviving endpoint to spawn an anchor for. Precomputed at plan time so
  /// the break never needs the wave-wide victim set — one region's break
  /// reads nothing but its own plan (the parallel-break locality argument,
  /// docs/CONCURRENCY.md).
  std::vector<std::pair<NodeId, NodeId>> victim_edges;
  int red_teardowns = 0;           ///< Red (helper) nodes the break removes.
  double collect_ms = 0.0;         ///< Planner timings (informational only;
  double merge_ms = 0.0;           ///< never part of the plan's identity).
};

/// The full plan for one deletion wave: the per-region recipes in
/// deterministic commit order, plus wave-level bookkeeping.
struct RepairPlan {
  std::vector<NodeId> victims;     ///< The wave, in the order given.
  std::vector<int> victim_region;  ///< Region id per victim, aligned above.
  std::vector<RegionPlan> regions;
  RegionSplit split = RegionSplit::kPerRegion;
  /// The wave's arena-id reservation: the commit reserves arena_total
  /// handles starting at arena_start (== the arena size the
  /// plan was computed against) and every region draws from its own
  /// [arena_base, arena_base + fresh + steps) sub-range. See
  /// docs/CONCURRENCY.md.
  int arena_start = -1;
  int arena_total = 0;
  /// The core's mutation epoch the plan was computed against; begin_break
  /// FG_CHECKs it, so *any* intervening mutation — even one that leaves
  /// the arena size unchanged, like a teardown-only repair — makes the
  /// plan refuse to commit instead of replaying a stale script.
  uint64_t epoch = 0;
  /// Recovery plans (fg::Stabilizer) rebuild structure for processors that
  /// are *already dead*: begin_break inverts the per-victim liveness check,
  /// the break spawns anchors without dropping (long-gone) image edges, and
  /// finish_break skips the re-kill. Everything else — regions, arena
  /// reservation, merge steps, contract C4 — is the ordinary pipeline.
  bool recovery = false;
  /// Planner phase timings (milliseconds), for bench/repair_path.cpp:
  /// region partitioning, dirty-region piece collection, merge-step
  /// computation. Informational only — never part of the plan's identity.
  struct Profile {
    double partition_ms = 0.0;
    double collect_ms = 0.0;
    double merge_ms = 0.0;
  } profile;
};

/// The region partition and shared lookup sets a plan is built from.
/// Produced once per wave by analyze_deletion; plan_region then fills each
/// RegionPlan independently (and, if the caller wishes, concurrently — it
/// only ever reads the core and this analysis).
/// Membership is flat, not hashed (PR 5's shedding argument; the `is_*`
/// helpers below are the only lookup API): the small victim set is a
/// sorted vector probed by binary search. The vnode sets — probed once
/// per visited node on the collect walk's hot path — switch
/// representation by density: when the wave's dirty set is a meaningful
/// fraction of the arena, one O(arena) zeroed mark array buys O(1)
/// probes; for a tiny wave in an old arena (where the memset would dwarf
/// the handful of probes it serves) the sorted vectors are binary-searched
/// instead.
struct DeletionAnalysis {
  std::vector<NodeId> victims;              ///< Wave order.
  std::vector<NodeId> victim_sorted;        ///< Victims, ascending.
  std::vector<VNodeId> dead_vnodes;         ///< Victims' leaves and helpers, ascending.
  std::vector<VNodeId> dirty;               ///< Dead vnodes + ancestors, ascending.
  /// Dense marks over [0, arena), or empty when the wave is too sparse to
  /// amortize the zeroing: kClean, kDirtyMark (a dead vnode's strict
  /// ancestor — a red helper), or kDeadMark. dirty ⊇ dead, so one byte
  /// answers both membership probes.
  enum : uint8_t { kClean = 0, kDirtyMark = 1, kDeadMark = 2 };
  std::vector<uint8_t> vnode_marks;
  /// Seed index per victim, aligned with `victims` (finalize_plan derives
  /// RepairPlan::victim_region from it without any lookup table).
  std::vector<int> victim_seed;
  RegionSplit split = RegionSplit::kPerRegion;
  int deleted_degree_gprime = 0;
  /// Per region: victims in wave order, affected roots ascending. Regions
  /// are ordered by their smallest victim id — the deterministic commit
  /// order (docs/DESIGN.md, "shard ordering rule").
  struct Seed {
    std::vector<NodeId> victims;
    std::vector<VNodeId> roots;
  };
  std::vector<Seed> seeds;

  bool is_victim(NodeId v) const {
    return std::binary_search(victim_sorted.begin(), victim_sorted.end(), v);
  }
  bool is_dead_vnode(VNodeId h) const {
    if (!vnode_marks.empty()) return vnode_marks[static_cast<size_t>(h)] == kDeadMark;
    return std::binary_search(dead_vnodes.begin(), dead_vnodes.end(), h);
  }
  bool is_dirty(VNodeId h) const {
    if (!vnode_marks.empty()) return vnode_marks[static_cast<size_t>(h)] != kClean;
    return std::binary_search(dirty.begin(), dirty.end(), h);
  }
};

/// Hooks the snapshot layer installs to capture, per committed wave, the
/// exact set of structural changes (docs/SNAPSHOTS.md). The delta recorder
/// only *accumulates touched keys*; the final values are
/// read from the core when fg::ShardedForest fires on_wave_committed after
/// the commit settles. Every callback runs on the single-threaded parts of
/// the pipeline (insert_node, the region-id-ordered effect stitches), so a
/// recorder needs no synchronization, and the accumulated sets are a pure
/// function of the op stream — snapshot bytes join contract C4.
class DeltaRecorder {
 public:
  virtual ~DeltaRecorder() = default;

  /// insert_node applied: processor `id` attached to `neighbors`. The
  /// image-edge touches of the insertion arrive through on_image_touch.
  virtual void on_insert(NodeId id, std::span<const NodeId> neighbors) {
    (void)id, (void)neighbors;
  }

  /// The image multiplicity of edge (u, v) is about to change (u != v).
  /// Fired by every multiplicity funnel — add_image_edge and the batched
  /// break/merge stitches — so the accumulated key set covers
  /// every healed-image edge the wave (or an insertion) touched.
  virtual void on_image_touch(NodeId u, NodeId v) { (void)u, (void)v; }

  /// A wave's commit fully settled (fired by fg::ShardedForest::execute,
  /// after the merge stitch): read the touched rows'/slots'/multiplicities'
  /// final values and emit the wave's delta record. `plan` names the
  /// victims, the break-script handles, and the arena reservation — the
  /// complete touched-row set of the wave.
  virtual void on_wave_committed(const StructuralCore& core, const RepairPlan& plan) {
    (void)core, (void)plan;
  }
};

/// The structural state and the single mutation path both engines commit
/// through.
class StructuralCore {
 public:
  /// Start from a connected network G0; ids 0..n-1 become live processors.
  explicit StructuralCore(const Graph& g0);
  StructuralCore() = default;  // empty core, populated by load()

  /// Adversarial insertion: a new processor attached to `neighbors` (all
  /// alive, no duplicates). Returns the new processor id.
  NodeId insert_node(std::span<const NodeId> neighbors);

  // --- Plan phase (read-only; safe to run concurrently per region). ------

  /// Partition a wave of victims (alive, distinct) into its connected
  /// dirty regions and build the shared lookup sets. With kGlobal the
  /// whole wave becomes one region.
  DeletionAnalysis analyze_deletion(std::span<const NodeId> victims,
                                    RegionSplit split = RegionSplit::kPerRegion) const;

  /// Fill `out` with the complete immutable recipe for region
  /// `analysis.seeds[region]`. Pure read-only: callable from worker
  /// threads on disjoint regions of the same analysis.
  void plan_region(const DeletionAnalysis& analysis, int region, RegionPlan* out) const;

  /// analyze_deletion + plan_region over every region, sequentially. The
  /// returned plan is bit-identical to what any concurrent planner
  /// produces (fg::ShardedForest fans the plan_region calls out).
  RepairPlan plan_deletion(std::span<const NodeId> victims,
                           RegionSplit split = RegionSplit::kPerRegion) const;

  /// Fill the wave-level fields of a plan whose regions are already
  /// populated (victims, victim_region, profile sums), stamp this core's
  /// arena size and mutation epoch (what begin_break validates against),
  /// and assign the arena-id reservation: each region's arena_base
  /// follows by prefix sums over (fresh + steps) counts in region id
  /// order — a pure function of the plan, never of scheduling. Shared by
  /// plan_deletion and concurrent planners (fg::ShardedForest).
  void finalize_plan(const DeletionAnalysis& analysis, RepairPlan* plan) const;

  // --- Commit phase (deterministic region order; see docs/CONCURRENCY.md).
  //
  // fg::ShardedForest::execute composes these: begin_break, break_region
  // per region (concurrently), apply_break_effects per region in id order,
  // finish_break, merge_region per region (concurrently),
  // apply_merge_effects per region in id order, check_reservation_settled.

  /// The side effects of one region's break that touch state shared across
  /// regions, recorded by break_region and applied by apply_break_effects
  /// in region id order (the mirror of MergeEffects on the merge side).
  struct BreakEffects {
    /// One deferred slot-table write, in break-script order.
    struct SlotOp {
      NodeId owner = kInvalidNode;  ///< Slot's owning processor.
      NodeId other = kInvalidNode;  ///< Slot key (far endpoint).
      VNodeId h = kNoVNode;         ///< The vnode written into / out of it.
      bool is_leaf = false;         ///< Which field of the slot.
      bool attach = false;          ///< true: install h; false: clear h.
    };
    /// Image-multiplicity decrements in break order: each event teardown's
    /// (owner, parent owner) pair, then each fresh leaf's (dead, owner)
    /// G' edge, then the region's victim-victim edges.
    std::vector<std::pair<NodeId, NodeId>> edge_drops;
    std::vector<SlotOp> slot_ops;
    int teardowns = 0;   ///< Forest removals to credit (dead + red nodes).
    int new_leaves = 0;  ///< Anchor leaves spawned.
    int affected_rts = 0;

    void reset() {
      edge_drops.clear();
      slot_ops.clear();
      teardowns = 0;
      new_leaves = 0;
      affected_rts = 0;
    }
  };

  /// Validate and open the break: epoch + arena staleness checks, the one
  /// arena growth (reserve_range of the plan's whole reservation), stats
  /// reset, per-victim liveness checks. Must precede any break_region call
  /// of the same plan.
  void begin_break(const RepairPlan& plan);

  /// Replay one region's break script (detach pieces, tear down dead and
  /// red vnodes, spawn the anchor leaves at their reserved handles).
  /// Mutates only region-local state — unlinks and tombstones the region's
  /// own vnodes (remove_uncounted) and constructs its anchor leaves — while
  /// every shared-state write (image multiplicities and edges, slot-table
  /// entries, counters, forest live count) is recorded into `effects`
  /// (required), so disjoint regions may run this concurrently
  /// (fg::ShardedForest::execute does). Returns the region's materialized
  /// pieces, aligned with RegionPlan::pieces.
  std::vector<VNodeId> break_region(const RegionPlan& region, BreakEffects* effects);

  /// Fold one region's recorded break effects into the shared state:
  /// multiplicity decrements (1 -> 0 transitions flip image edges in one
  /// batched Graph::apply_edge_deltas pass), slot writes in script order,
  /// counters, live-count credit. Single-threaded, called in region id
  /// order — the deterministic stitch.
  void apply_break_effects(const RegionPlan& region, const BreakEffects& effects);

  /// Close the break: tombstone the victims (their slot tables are wiped
  /// wholesale; every image edge must already be gone — FG_CHECKed).
  void finish_break(const RepairPlan& plan);

  /// The side effects of one region's merge that touch state shared across
  /// regions, recorded by merge_region and applied by apply_merge_effects
  /// in region id order. Buffers are reused wave to wave.
  struct MergeEffects {
    VNodeId root = kNoVNode;  ///< The region's final RT root (kNoVNode: no pieces).
    /// Image edges each join adds, in join order: (helper owner, left child
    /// owner), then (helper owner, right child owner).
    std::vector<std::pair<NodeId, NodeId>> image_edges;
    int helpers_created = 0;

    void reset() {
      root = kNoVNode;
      image_edges.clear();
      helpers_created = 0;
    }
  };

  /// Replay one region's planned merge steps over its materialized pieces
  /// (from break_region), constructing every helper at its reserved
  /// arena handle. Mutates only region-local state — the region's subtree
  /// nodes and its own slot entries — and records the shared-state side
  /// effects (image edges, counters) into `effects` (required) instead of
  /// applying them, so disjoint regions of one reserved plan may run this
  /// concurrently (fg::ShardedForest::execute does); apply_merge_effects
  /// folds them in. `pieces` is consumed as scratch. Returns the region's
  /// final RT root (kNoVNode for no pieces).
  VNodeId merge_region(const RegionPlan& region, std::vector<VNodeId>&& pieces,
                       MergeEffects* effects);

  /// Fold one region's recorded merge effects into the shared state:
  /// image edges in join order, repair counters, the final RT's leaves.
  /// Single-threaded, called in region id order — the deterministic
  /// stitch. Returns the region's final RT root.
  VNodeId apply_merge_effects(const MergeEffects& effects);

  /// FG_CHECK that every handle of the plan's arena reservation was
  /// constructed — an undersized plan or a skipped region fails loudly
  /// instead of leaving silent holes in the arena. Call after the last
  /// region's merge.
  void check_reservation_settled(const RepairPlan& plan) const;

  /// Plan input for a piece root: leaf count plus the deterministic
  /// representative slot key (the paper's NodeID tie-break).
  haft::PieceInfo piece_info(VNodeId root) const;

  const Graph& image() const { return g_; }
  const Graph& gprime() const { return gprime_; }

  // --- Audit surface (fg::Stabilizer; read-only). ------------------------

  /// The per-processor slot tables, read-only — the auditor cross-checks
  /// every slot entry against the forest rows and vice versa.
  const SlotTable& slot_table() const { return slots_; }

  /// The healed image's edge-multiplicity map, read-only — the auditor
  /// recomputes expected multiplicities and compares.
  const util::FlatCountMap& image_multiplicity() const { return image_multiplicity_; }

  // --- Recovery surface (fg::Stabilizer). --------------------------------

  /// Quarantine for self-stabilizing recovery: keep exactly the forest rows
  /// with keep[h] != 0 (each must be alive, and kept rows' links must stay
  /// within the kept set — FG_CHECKed), tombstone and unlink everything
  /// else, then rebuild all derived state from ground truth: the slot table
  /// from the kept rows, and the healed image (edges + multiplicities) from
  /// alive-alive G' edges plus kept parent links. Bumps the mutation epoch;
  /// the caller then plans and commits a recovery wave (RepairPlan::recovery)
  /// to re-anchor every dead edge the quarantine left uncovered.
  void rebuild_for_recovery(const std::vector<uint8_t>& keep);

  // --- Fault-injection seams (tests/fuzz/corruptor; never the engines). ---
  //
  // Each seam overwrites one piece of state the invariants I1-I5 protect,
  // bypassing every FG_CHECK the normal mutation path would trip, and bumps
  // the mutation epoch (corrupted state must stale any outstanding plan).

  /// Overwrite forest row `h` wholesale (links, flags, aggregates, rep).
  void inject_vnode_row(VNodeId h, const VirtualForest::VNode& row);

  /// Create or overwrite the slot entry (owner, other) with the given
  /// leaf/helper handles (kNoVNode clears a field).
  void inject_slot(NodeId owner, NodeId other, VNodeId leaf, VNodeId helper);

  /// Erase the slot entry (owner, other) if present.
  void inject_erase_slot(NodeId owner, NodeId other);

  /// Toggle the healed-image edge (u, v) in G without touching the
  /// multiplicity map (both endpoints must be alive).
  void inject_image_edge_flip(NodeId u, NodeId v);

  /// Bump the image multiplicity of (u, v) by one, desyncing it from G.
  void inject_multiplicity_bump(NodeId u, NodeId v);

  /// Monotone counter bumped by every structural mutation (insert_node,
  /// begin_break). Plans are stamped with it and refuse to commit if it
  /// moved — the staleness guard behind the arena-id reservation.
  uint64_t mutation_epoch() const { return epoch_; }
  const VirtualForest& forest() const { return forest_; }
  bool is_alive(NodeId v) const { return g_.is_alive(v); }
  const RepairStats& last_repair() const { return last_repair_; }

  /// Number of helper nodes currently simulated by processor v.
  int helper_count(NodeId v) const;

  /// Roots of the RTs holding v's slot vnodes — the RTs a deletion of v
  /// would break. Sorted ascending, unique. (Adversaries and the region
  /// tests use this to reason about wave disjointness.)
  std::vector<VNodeId> slot_roots(NodeId v) const;

  /// Checkpoint the complete structure (G', liveness, virtual forest) to a
  /// line-oriented text stream; `load` restores an equivalent core. The
  /// slot table and healed image are derived state, rebuilt on load.
  void save(std::ostream& os) const;

  /// Restore a core from a text checkpoint, or abort on malformed input
  /// (FG_CHECK) — the trusted-input path. Untrusted streams go through
  /// try_load below.
  static StructuralCore load(std::istream& is);

  /// Restore a core from a text checkpoint, returning false with a typed
  /// parse error instead of aborting: truncated streams, garbage tokens,
  /// out-of-range ids, and inconsistent derived state are all reported
  /// through *error (never FG_CHECKed). On failure *out is unspecified.
  static bool try_load(std::istream& is, StructuralCore* out, std::string* error);

  // --- Binary snapshots (src/snap; docs/SNAPSHOTS.md). --------------------

  /// Fill a binary base image with the complete structure, derived state
  /// included (slot tables, image multiplicities), every list in canonical
  /// sorted order — the bytes snap::encode_base produces from it are a
  /// pure function of the structure (contract C4). Leaves the image's
  /// wave/cursor header fields untouched; epoch is stamped from this core.
  void to_base_image(snap::BaseImage* out) const;

  /// Restore a core from a base image. Same error contract as try_load:
  /// malformed images (out-of-range handles, duplicate edges, derived
  /// state inconsistent with the forest) return false + *error, never
  /// abort. The restored core's mutation epoch is the image's.
  static bool from_base_image(const snap::BaseImage& image, StructuralCore* out,
                              std::string* error);

  /// Replay one wave delta (final-value semantics) on top of this core:
  /// insertions in stream order, the touched forest rows / slots /
  /// multiplicities overwritten with their recorded final values, victims
  /// tombstoned, epoch advanced to the delta's. O(changes), not O(n).
  /// Same typed-error contract as from_base_image; on failure the core is
  /// partially mutated and must be discarded.
  bool apply_wave_delta(const snap::WaveDelta& delta, std::string* error);

  /// Install the snapshot layer's per-wave change recorder (nullptr
  /// disables). The core fires the insertion/image-touch callbacks; the
  /// wave-committed callback is fired by fg::ShardedForest::execute once a
  /// commit fully settles. Recording is only meaningful on the reserved
  /// sharded pipeline — the path both engines' batch deletes and the
  /// healer service drive.
  void set_delta_recorder(DeltaRecorder* recorder) { recorder_ = recorder; }
  DeltaRecorder* delta_recorder() const { return recorder_; }

  /// Full invariant check I1-I5 (expensive; used by tests).
  void validate() const;

 private:
  struct Proc {
    bool alive = true;
  };

  static uint64_t edge_key(NodeId u, NodeId v);
  void add_image_edge(NodeId u, NodeId v);

  /// Tell the delta recorder (if any) that edge (u, v)'s multiplicity is
  /// about to change. Called from every multiplicity funnel, all of which
  /// are single-threaded (insert_node, recovery rebuilds, the
  /// region-id-ordered stitches) — never from the concurrent recorded
  /// break/merge phases, which only buffer.
  void note_image_touch(NodeId u, NodeId v) {
    if (recorder_ != nullptr) recorder_->on_image_touch(u, v);
  }

  /// The read-only twin of the commit walk: append the break-phase event
  /// script of the RT rooted at `root` to `out`. Iterative worklist over
  /// the dirty region only; `dirty` holds the dead vnodes and all their
  /// ancestors, so a node is clean (subtree free of dead vnodes) iff it is
  /// not in `dirty`. The commit replays the recorded events with exactly
  /// the mutations the old single-pass walk performed, in the same order.
  void collect_events(VNodeId root, const DeletionAnalysis& analysis,
                      RegionPlan* out) const;

  Graph gprime_;
  Graph g_;
  VirtualForest forest_;
  std::vector<Proc> procs_;
  /// Per-processor slot tables (Table 1): pooled sorted flat arrays keyed
  /// by the far endpoint — see slot_table.h for the storage model and the
  /// concurrency contract the parallel commit relies on.
  SlotTable slots_;
  /// Multiplicity of every healed-image edge (flat open addressing — an
  /// edge flip probes a contiguous cell array, no hash-node allocation).
  util::FlatCountMap image_multiplicity_;
  /// Reusable buffer for the batched image-edge stitch (apply_merge_effects
  /// collects a region's 0 -> 1 transitions here, then hands the whole span
  /// to Graph::apply_edge_deltas). Pooled wave to wave.
  std::vector<EdgeDelta> delta_scratch_;
  RepairStats last_repair_;
  uint64_t epoch_ = 0;  ///< See mutation_epoch().
  DeltaRecorder* recorder_ = nullptr;  ///< See set_delta_recorder().
};

}  // namespace fg::core
