// The virtual forest underlying the Forgiving Graph (Sections 3 and 4.2).
//
// Every deleted processor is replaced by a Reconstruction Tree (RT): a haft
// whose leaves are "real nodes" — one per surviving endpoint of an edge of
// G' incident to a deleted processor — and whose internal nodes are "helper"
// nodes, each simulated by the processor chosen through the representative
// mechanism. The actual network G is the homomorphic image of this forest:
// a virtual tree edge (a, b) becomes a network edge between owner(a) and
// owner(b); edges between two virtual nodes of the same processor vanish.
//
// Identity of a virtual node follows Table 1 of the paper: it is determined
// by an edge (owner, other) of G' plus a kind bit — the *real* (leaf) node of
// that edge, or the at-most-one *helper* node the owner simulates for it.
//
// Invariants maintained on every live node (asserted by valid_haft and the
// virtual_forest tests):
//   V1. Parent/child links are symmetric, and height/leaf_count are exact
//       aggregates of the subtree.
//   V2. Every subtree satisfies the haft property: the left child of an
//       internal node is perfect and at least as leafy as the right child.
//   V3. `rep` of an internal node is a leaf of its subtree; make_helper_in
//       installs the left child's rep as the new helper's simulator and
//       propagates the right child's rep upward (Algorithm A.9), keeping
//       each (owner, other) slot to at most one helper forest-wide.
//   V4. Tombstoned nodes are never resurrected; handles stay stable across
//       dump()/from_dump() so engine checkpoints can round-trip.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace fg {

/// Handle into the virtual node arena; -1 is "none".
using VNodeId = int;
constexpr VNodeId kNoVNode = -1;

/// Key identifying the G' edge slot (owner, other); used as the
/// deterministic merge tie-break (the paper's "NodeID" ordering).
constexpr uint64_t slot_key(NodeId owner, NodeId other) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(owner)) << 32) |
         static_cast<uint32_t>(other);
}

/// Arena of virtual nodes (RT leaves and helpers).
class VirtualForest {
 public:
  /// One arena row, packed to 32 bytes: the arena keeps every tombstone for
  /// good, so its footprint grows with history (docs/DESIGN.md). The
  /// aggregates are narrow on purpose — Lemma 1 bounds an RT's height by
  /// O(log n), and a leaf count never exceeds the G' edge slots — while
  /// every API that sums them (piece_info, RepairStats) stays int64.
  struct VNode {
    NodeId owner = kInvalidNode;  ///< Processor simulating this node.
    NodeId other = kInvalidNode;  ///< Other endpoint of the G' edge slot.
    VNodeId parent = kNoVNode;
    VNodeId left = kNoVNode;
    VNodeId right = kNoVNode;
    /// Representative: the unique leaf of this subtree whose slot simulates
    /// no helper inside this subtree (leaf nodes are their own
    /// representative). Maintained incrementally per Algorithm A.9.
    VNodeId rep = kNoVNode;
    int32_t leaf_count = 1;
    int16_t height = 0;
    bool is_leaf = true;  ///< Real node (leaf) vs helper (internal).
    bool alive = true;
  };

  /// Largest height a row may carry: is_perfect shifts 1 by it in 64 bits.
  /// Loaders reject rows outside [0, kMaxHeight] x [1, INT32_MAX].
  static constexpr int kMaxHeight = 62;

  // --- Reservation-aware allocation (docs/CONCURRENCY.md). ----------------
  //
  // A reserved commit pre-computes, at plan time, exactly how many vnodes a
  // repair will allocate and fixes every handle by region-order arithmetic
  // alone. reserve_range appends that many *unconstructed* placeholder
  // handles in one arena growth (single-threaded); make_leaf_in /
  // make_helper_in then construct into a specific reserved handle. Because
  // the arena never grows while reserved handles are being constructed, and
  // two disjoint regions only ever touch their own handles, constructions
  // may run concurrently — the layout, and hence the checkpoint bytes, are
  // a pure function of the plan, never of scheduling (contract C4:
  // schedule-independent commit).

  /// Append `count` unconstructed reserved handles in one growth; returns
  /// the first handle of the range (== the pre-call arena_size()).
  /// Single-threaded; live_count() is credited here, so it assumes every
  /// reserved handle will be constructed (checked by unconstructed_in).
  VNodeId reserve_range(int count);

  /// Construct the real (leaf) node of slot (owner, other) into the
  /// reserved handle `h`. Fails loudly (FG_CHECK) if `h` was never
  /// reserved, is out of range, or is already constructed — a reservation
  /// can never silently grow or overwrite the arena.
  void make_leaf_in(VNodeId h, NodeId owner, NodeId other);

  /// Construct a helper in slot (owner, other) into the reserved handle
  /// `h`, joining two roots; left becomes the left child. Representative
  /// is inherited from the right child (Algorithm A.9). Safe to call
  /// concurrently with other make_*_in calls on *disjoint*
  /// handles/subtrees: it writes only the reserved node and its two
  /// children's parent links, and the arena storage is pre-grown by
  /// reserve_range.
  VNodeId make_helper_in(VNodeId h, NodeId owner, NodeId other, VNodeId left,
                         VNodeId right);

  /// Unconstructed reserved handles left in [begin, end): 0 after a fully
  /// settled commit (the commit path FG_CHECKs exactly that).
  int unconstructed_in(VNodeId begin, VNodeId end) const;

  /// Detach `child` from its parent (both links cleared).
  void unlink_from_parent(VNodeId child);

  /// Tombstone a node without touching live_count(). It must have no
  /// child links left; it is unlinked from its parent first. A concurrent
  /// break region tombstones its own dead and red vnodes with this and
  /// reports the count through its BreakEffects buffer; the
  /// single-threaded stitch settles the shared scalar via credit_removals —
  /// the same discipline reserve_range uses on the allocation side
  /// (contract C4).
  void remove_uncounted(VNodeId h);

  /// Debit live_count() by `count` remove_uncounted() calls.
  void credit_removals(int count);

  const VNode& node(VNodeId h) const;
  bool exists(VNodeId h) const;
  VNodeId root_of(VNodeId h) const;
  bool is_root(VNodeId h) const { return node(h).parent == kNoVNode; }

  /// Perfect (the paper's "complete"): leaf_count == 2^height.
  bool is_perfect(VNodeId h) const;

  int live_count() const { return live_count_; }

  /// Total handles ever allocated (live + tombstoned); handles are
  /// 0..arena_size()-1 and `exists` filters the live ones.
  int arena_size() const { return static_cast<int>(nodes_.size()); }

  /// Structural validation of the subtree at `root`: parent/child link
  /// symmetry, height/leaf_count bookkeeping, haft property (left child
  /// perfect and at least as leafy as the right).
  bool valid_haft(VNodeId root) const;

  /// All leaves of the subtree, left-to-right.
  std::vector<VNodeId> leaves_of(VNodeId root) const;

  /// All nodes of the subtree (preorder).
  std::vector<VNodeId> subtree_of(VNodeId root) const;

  /// True iff `anc` is an ancestor of `h` (or equal).
  bool is_ancestor(VNodeId anc, VNodeId h) const;

  /// Graphviz rendering of the RT at `root`: leaves as boxes labelled
  /// "(owner,other)", helpers as ellipses. Handy for docs and debugging.
  std::string to_dot(VNodeId root) const;

  /// Snapshot / restore of the whole arena (including tombstones, so node
  /// handles survive a round-trip). Used by ForgivingGraph::save/load.
  const std::vector<VNode>& dump() const { return nodes_; }
  static VirtualForest from_dump(std::vector<VNode> nodes);

  // --- Snapshot-restore seam (core::StructuralCore::apply_wave_delta). ----
  //
  // A wave delta carries the *final* value of every arena row the commit
  // touched (src/snap); replaying it is a raw overwrite of those rows, not
  // a re-execution of the commit. These three bypass every construction
  // check — they are for restoring a state a real commit already produced
  // (and that a Stabilizer audit re-verifies), never for engine mutations.

  /// Grow the arena to `arena_size` tombstoned placeholder rows (grow-only;
  /// live_count is untouched — restore_live_count settles it).
  void restore_grow(int arena_size);

  /// Overwrite row `h` wholesale.
  void restore_row(VNodeId h, const VNode& row);

  /// Set the live-row count (the delta records the post-commit value).
  void restore_live_count(int n);

 private:
  std::pair<int64_t, int> validate_rec(VNodeId h, bool* ok) const;

  std::vector<VNode> nodes_;
  int live_count_ = 0;
};

static_assert(sizeof(VirtualForest::VNode) <= 32,
              "VNode is an arena row kept for every tombstone: keep it packed");

}  // namespace fg
