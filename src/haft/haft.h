// Half-full trees (hafts) — Section 4 of the paper.
//
// A haft is a rooted binary tree in which every internal node has exactly two
// children and its left child roots a *complete* (perfect) subtree holding at
// least half of the node's leaf descendants. Lemma 1 shows haft(l) is unique,
// corresponds to the binary representation of l, and has depth ceil(log2 l).
//
// Two things live here:
//
//  1. `HaftForest`, an arena of explicit haft nodes with the paper's
//     operations: Strip (Section 4.1.1, decompose into the perfect subtrees
//     rooted at "primary roots") and Merge (Section 4.1.2, binary addition
//     over perfect trees).
//
//  2. `merge_plan`, the pure ordering logic of Algorithm A.9 (ComputeHaft):
//     given the leaf counts of a set of perfect trees, produce the exact
//     deterministic sequence of pairwise joins that assembles the unique
//     merged haft. Both the centralized Forgiving Graph engine and the
//     distributed protocol execute this same plan, which is what makes the
//     two implementations produce bit-identical topologies.
//
// Invariants of every haft with l leaves (asserted by is_haft / the tests):
//   H1. Each internal node has exactly two children.
//   H2. Each internal node's left child is perfect (leaf_count == 2^height)
//       and holds at least half of the node's leaf descendants.
//   H3. depth == ceil(log2 l), and the multiset of primary-root sizes
//       produced by Strip is exactly the binary representation of l
//       (popcount(l) perfect trees of distinct power-of-two sizes).
//   H4. haft(l) is unique: any join order merge_plan emits reassembles the
//       same shape (Lemma 1), which is what makes merging deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fg::haft {

/// Describes one input piece (a perfect tree) for `merge_plan`.
struct PieceInfo {
  int64_t leaf_count = 1;  ///< Number of leaves; must be a power of two.
  uint64_t key = 0;        ///< Deterministic tie-break (paper: NodeID).
};

/// One pairwise join in a merge plan. Pieces are numbered: inputs are
/// 0..k-1 in the order given; each step creates piece `result` (k, k+1, ...).
/// `left` always designates the subtree that becomes the left child. Per
/// Algorithm A.9, the helper node simulating the new parent is provided by
/// the representative of the *left* child and the new root inherits the
/// representative of the *right* child.
struct MergeStep {
  int left = -1;
  int right = -1;
  int result = -1;
};

/// Algorithm A.9 (ComputeHaft): deterministic join order.
///
/// Phase 1 pairs equal-sized trees (binary addition with carries); phase 2
/// chains the remaining, pairwise-distinct sizes in ascending order, always
/// hanging the accumulated smaller haft below the next bigger tree (bigger
/// tree = left child). Requires every leaf_count to be a positive power of
/// two. Returns an empty plan for k <= 1 pieces.
std::vector<MergeStep> merge_plan(const std::vector<PieceInfo>& pieces);

/// Phase 1 only: binary addition without the final chain. The result is a
/// forest of perfect trees with pairwise-distinct sizes — the intermediate
/// state the paper's BottomupRTMerge carries between BT_v stages, which is
/// what keeps its piece lists (and thus message sizes) at O(log n) entries.
std::vector<MergeStep> carry_plan(const std::vector<PieceInfo>& pieces);

/// Scratch buffers of the planner. A caller that plans many times (the
/// distributed engine plans once per aggregation stage) keeps one and
/// passes it to plan_into, so repeated plans allocate nothing once the
/// buffers have grown.
class PlanWorkspace {
 public:
  /// A piece or carry as the planner sorts it.
  struct Item {
    int64_t size;
    uint64_t key;
    int idx;
  };

 private:
  friend void plan_into(std::span<const PieceInfo>, bool, PlanWorkspace&,
                        std::vector<MergeStep>&);
  std::vector<Item> items_, survivors_, carry_, cls_, next_carry_;
};

/// The one planner behind merge_plan (`chain` true) and carry_plan
/// (`chain` false): replaces `plan` with the joins for `pieces`, using
/// `ws` for scratch.
void plan_into(std::span<const PieceInfo> pieces, bool chain, PlanWorkspace& ws,
               std::vector<MergeStep>& plan);

/// Returns true iff v is a positive power of two.
constexpr bool is_pow2(int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

/// ceil(log2(l)) for l >= 1; this is the depth bound of Lemma 1.3.
int ceil_log2(int64_t l);

/// Arena of haft nodes. Node handles are ints; -1 means "none". Removed
/// nodes are tombstoned and must not be accessed again.
class HaftForest {
 public:
  struct Node {
    int parent = -1;
    int left = -1;
    int right = -1;
    int height = 0;          ///< Longest downward path (leaf = 0).
    int64_t leaf_count = 1;  ///< Leaves in this subtree (leaf = 1).
    uint64_t label = 0;      ///< Caller-supplied identity (leaves only).
    bool is_leaf = true;
    bool alive = true;
  };

  /// Create a fresh leaf with the given label; returns its handle.
  int make_leaf(uint64_t label);

  /// Join two roots under a fresh internal node (left/right as given).
  /// Both must be roots. Returns the new internal node's handle.
  int join(int left, int right);

  /// Build haft(l) bottom-up by merging l fresh leaves labelled
  /// first_label..first_label+l-1 (Lemma 1: the result is the unique haft).
  int build(int64_t l, uint64_t first_label = 0);

  /// Strip (Section 4.1.1): remove the non-primary internal nodes of the
  /// haft rooted at `root`, returning the primary roots in descending size
  /// order. The removed nodes are tombstoned.
  std::vector<int> strip(int root);

  /// Generalized strip for arbitrary *fragments* (Figure 4 "simple variant
  /// for non-hafts"): returns the maximal perfect subtrees under `root`,
  /// tombstoning every non-perfect internal node on the way.
  std::vector<int> strip_fragment(int root);

  /// Merge (Section 4.1.2): strip every input haft and reassemble all
  /// resulting perfect trees into one haft using `merge_plan`. Returns the
  /// new root (or the single surviving root). Inputs must be roots.
  int merge(const std::vector<int>& roots);

  /// Detach `node` from its parent (if any), leaving it a root.
  void detach(int node);

  const Node& node(int h) const;
  bool exists(int h) const;
  int root_of(int h) const;

  /// True iff the subtree at `h` is perfect: leaf_count == 2^height.
  bool is_perfect(int h) const;

  /// True iff `h` is a primary root: perfect, and parent absent or
  /// non-perfect.
  bool is_primary_root(int h) const;

  /// Full structural validation of the haft definition at `root`.
  bool is_haft(int root) const;

  /// Leaf labels in left-to-right order.
  std::vector<uint64_t> leaf_labels(int root) const;

  /// Depth of the subtree (== node(root).height, revalidated structurally).
  int depth(int root) const;

  int live_node_count() const { return live_count_; }

 private:
  void tombstone(int h);
  void collect_perfect(int h, std::vector<int>* out);

  std::vector<Node> nodes_;
  int live_count_ = 0;
};

}  // namespace fg::haft
