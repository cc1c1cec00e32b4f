// Distributed Forgiving Graph protocol (Sections 3-5, Lemma 4).
//
// The same self-healing algorithm as fg::ForgivingGraph — literally: both
// engines plan through core::StructuralCore and commit through
// fg::ShardedForest::execute. This class adds the protocol layer on top:
// every repair derives a dependency DAG of messages from the immutable plan
// and read-only reads of the pre-commit forest, replays that DAG over the
// round-synchronous simulator in net::Network with the paper's cost
// metrics measured per repair (messages, words, rounds, largest message,
// per-node traffic), then commits the plan.
//
// Model assumptions (the paper's, Figure 1):
//   * When processor v is deleted, every processor owning a virtual node in
//     an RT touched by the deletion learns of it in the detection round
//     (processors replicate, per incident edge slot, the Table-1 metadata of
//     the far endpoint — a node's "will" in the self-healing literature).
//     A batched deletion (delete_batch) models simultaneous failures: one
//     detection round covers all victims.
//   * Messages are delivered reliably but, under a non-default
//     net::DeliveryPolicy, with arbitrary per-message delay and order. The
//     protocol must tolerate this; only `rounds` may change.
//
// A batched deletion splits into its connected dirty regions (the plan
// phase of the shared core); each region repairs through an *independent
// branch* of the message DAG — its own coordinator, report wave, merge —
// so the measured `rounds` is the maximum over regions, not their sum:
// Lemma-4 round counting reflects the true parallelism of disjoint waves.
// Per region, the repair pipeline for deleted degree d is:
//   1. Teardown   — owners of dead and red virtual nodes notify their tree
//                   neighbors; maximal clean perfect subtrees ("pieces")
//                   detach. O(d log n) messages of O(1) words.
//   2. Report     — every participant (anchor or piece owner) reports its
//                   piece list to the region coordinator (least-id
//                   participant).
//   3. Merge      — mode-dependent, see MergeMode below.
//   4. Execute    — each helper's owner (the representative of the join's
//                   left subtree, Algorithm A.9) links the join's children.
//
// Two merge modes:
//   * kGlobalPlan: the region coordinator computes the full deterministic
//     ComputeHaft plan (haft::merge_plan) and broadcasts it down a binary
//     tree over the region's participants. Every helper owner then acts in
//     parallel, giving O(log d + log n) rounds — within the paper's
//     O(log d log n) budget — at the price of O(pieces)-word plan messages.
//     The plan is exactly the one the centralized engine executes, and it
//     commits through the same path, so the healed structure — arena
//     handles and snapshot bytes included — is bit-identical to
//     fg::ForgivingGraph under every adversarial schedule and every
//     delivery policy.
//   * kStageWise: the paper-faithful BottomupRTMerge. Piece lists climb the
//     region's participant tree; at each stage equal-sized trees are joined
//     immediately (haft::carry_plan), so every list in flight has pairwise
//     distinct sizes and every message stays at O(log n) words. The
//     association is written into the engine's copy of the region's merge
//     steps before the commit; it may differ from the centralized engine's,
//     but the result is the same leaf set in a valid haft, so all
//     Theorem-1 bounds hold.
//
// validate() checks invariants I1-I5 through the shared core.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/sharded_forest.h"
#include "fg/virtual_forest.h"
#include "graph/graph.h"
#include "haft/haft.h"
#include "net/network.h"

namespace fg::harness {
class CertificateSink;
}

namespace fg::dist {

/// How the pieces of broken RTs are reassembled after a deletion.
enum class MergeMode {
  kGlobalPlan,  ///< Coordinator broadcasts the full ComputeHaft plan.
  kStageWise,   ///< BottomupRTMerge: carry-merge at every aggregation stage.
};

/// Cost sheet of the most recent repair (the quantities Lemma 4 bounds).
/// For a batched repair, `deleted_degree` sums over the victims and
/// `rounds` is the max over the regions' independent DAG branches.
struct RepairCost {
  int deleted_degree = 0;  ///< G' degree of the victim(s).
  int anchors = 0;         ///< Alive direct G'-neighbors of the victim(s).
  int pieces = 0;          ///< Perfect trees merged (incl. fresh leaves).
  int regions = 0;         ///< Independent DAG branches (dirty regions).
  int bt_edges = 0;        ///< Edges of the participant aggregation trees.
  int64_t messages = 0;    ///< Messages sent during the repair.
  int64_t words = 0;       ///< Total payload words sent.
  int rounds = 0;          ///< Rounds to quiescence.
  int max_message_words = 0;        ///< Largest single message.
  int64_t max_node_messages = 0;    ///< Most messages sent by one processor.
  int64_t max_node_round_words = 0; ///< Paper metric 3: words/node/round.
};

/// Traffic accumulated over the object's lifetime (all inserts + repairs).
struct LifetimeStats {
  int64_t messages = 0;
  int64_t words = 0;
  int64_t rounds = 0;
};

/// The Forgiving Graph as a distributed protocol over net::Network.
class DistForgivingGraph {
 public:
  /// Start from a connected network G0; ids 0..n-1 become live processors.
  explicit DistForgivingGraph(const Graph& g0,
                              MergeMode mode = MergeMode::kGlobalPlan);

  /// Adversarial insertion: the new processor introduces itself to each
  /// neighbor (one message per new edge). Returns the new processor id.
  NodeId insert(std::span<const NodeId> neighbors);

  /// Adversarial deletion of `v` followed by the distributed repair.
  void remove(NodeId v) { delete_batch({&v, 1}); }

  /// Batched adversarial deletion: all of `victims` fail simultaneously;
  /// one detection round, one repair DAG with an independent branch per
  /// connected dirty region. Structural semantics match
  /// ForgivingGraph::delete_batch bit-for-bit in kGlobalPlan mode.
  void delete_batch(std::span<const NodeId> victims);

  /// The healed network G (homomorphic image of G' + virtual forest).
  const Graph& image() const { return core_.image(); }

  /// The insertions-only graph G' (deleted processors still present).
  const Graph& gprime() const { return core_.gprime(); }

  bool is_alive(NodeId v) const { return core_.is_alive(v); }

  const RepairCost& last_repair_cost() const { return last_cost_; }
  const LifetimeStats& lifetime_stats() const { return lifetime_; }

  /// The underlying simulator (stats access; resettable between phases).
  net::Network& network() { return net_; }

  /// Install a delivery policy (asynchrony knobs). Structure is unaffected;
  /// only `rounds` may change.
  void set_delivery_policy(const net::DeliveryPolicy& policy) {
    net_.set_policy(policy);
  }

  /// Per-region healing (default) vs the pre-sharding single wave-wide RT;
  /// mirrors ForgivingGraph::set_region_split so the engines stay
  /// comparable in either mode.
  void set_region_split(core::RegionSplit split) { split_ = split; }
  core::RegionSplit region_split() const { return split_; }

  const VirtualForest& forest() const { return core_.forest(); }
  MergeMode mode() const { return mode_; }

  /// Install a certificate sink: every subsequent delete_batch emits a
  /// per-wave cert::WaveCertificate carrying this engine's Lemma-4 cost
  /// claim (harness/certificate.h; docs/CERTIFICATES.md). nullptr disables.
  /// In kGlobalPlan mode the structural bytes match the centralized
  /// engine's certificates exactly (contract C4 extension).
  void set_certificate_sink(harness::CertificateSink* sink) { cert_sink_ = sink; }
  harness::CertificateSink* certificate_sink() const { return cert_sink_; }

  /// Full invariant check I1-I5 through the shared core (expensive).
  void validate() const { core_.validate(); }

  /// The structural core, read-only — the fg::Stabilizer audit surface and
  /// the checkpoint seam (core().save()) the fault tests hand to the
  /// centralized engine for recovery experiments.
  const core::StructuralCore& core() const { return core_; }

 private:
  /// One protocol message in the repair's dependency DAG. A message is sent
  /// once every message it depends on has been delivered; messages with
  /// from == to are local computation and bypass the network (uncounted,
  /// instantaneous), exactly like the homomorphism collapses same-processor
  /// virtual edges. Messages append their dependencies to dep_pool_ in
  /// message order, so message i's are dep_pool_[msgs_[i - 1].dep_end,
  /// msgs_[i].dep_end).
  struct DagMsg {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    int words = 1;
    int dep_end = 0;
  };

  /// A piece (perfect subtree) awaiting merge, as the DAG builder tracks it
  /// before any mutation: its root's owner, its representative's owner and
  /// plan input, and the DAG event that detached it (-1 if it was never
  /// attached, e.g. a fresh anchor leaf or a join result). Its number in
  /// the region's merge-step numbering is its position in table_.
  struct PieceCtx {
    NodeId owner = kInvalidNode;
    NodeId rep_owner = kInvalidNode;
    haft::PieceInfo info;
    int detach_msg = -1;
  };

  /// The DAG branch of one region's merge: its coordinator, the report
  /// messages the coordinator waits on, and the plan-knowledge event per
  /// participating processor. A processor appearing in several regions
  /// holds independent knowledge per region — the branches never share
  /// dependencies, which is what makes the measured rounds the max, not
  /// the sum, over regions.
  struct RegionDag {
    NodeId coordinator = kInvalidNode;
    std::vector<int> report_msgs;
    /// Plan-knowledge event per participating processor: sorted flat pairs
    /// keyed by processor id, binary-searched — no hash container anywhere
    /// on the repair path (PR 5 idiom).
    std::vector<std::pair<NodeId, int>> know;
  };

  /// The piece a join of `l` (left) and `r` creates (Algorithm A.9): the
  /// left representative's owner simulates the new helper, which inherits
  /// the right representative.
  static PieceCtx join(const PieceCtx& l, const PieceCtx& r) {
    return PieceCtx{l.rep_owner, r.rep_owner,
                    {l.info.leaf_count + r.info.leaf_count, r.info.key}, -1};
  }

  // --- DAG construction helpers (see dist_forgiving_graph.cpp).
  void begin_dag();
  int add_msg(NodeId from, NodeId to, int words, std::span<const int> deps);
  bool is_deleting(NodeId v) const;
  /// The events processor `u` waits on before acting on the current
  /// region's plan. Valid until the region's knowledge next changes.
  std::span<const int> know_deps(NodeId u) const;
  void break_messages(const core::RegionPlan& region);
  void group_pieces();
  std::span<const int> own_pieces(size_t participant) const;
  void merge_global(const core::RegionPlan& region);
  void merge_stage_wise(core::RegionPlan& region);
  void run_dag();
  void dispatch_msg(int i);
  void on_delivered(int i);

  MergeMode mode_ = MergeMode::kGlobalPlan;
  core::RegionSplit split_ = core::RegionSplit::kPerRegion;
  core::StructuralCore core_;
  /// The commit path both engines share, at one worker: this engine's
  /// parallelism is the protocol's, measured in rounds.
  ShardedForest shards_;

  net::Network net_;
  RepairCost last_cost_;
  LifetimeStats lifetime_;
  harness::CertificateSink* cert_sink_ = nullptr;
  long certified_waves_ = 0;  ///< Wave index of the next certificate.

  // Per-repair DAG state. Every buffer below is cleared, never freed,
  // between repairs, so building and replaying a wave's DAG allocates
  // nothing once the buffers have grown to the largest wave seen.
  std::vector<DagMsg> msgs_;
  std::vector<int> dep_pool_;  ///< Every message's deps, back to back.
  std::vector<int> unmet_;
  /// Dependents as CSR: message d's are
  /// dependents_[dependents_off_[d], dependents_off_[d + 1]), ascending.
  std::vector<int> dependents_off_;
  std::vector<int> dependents_;
  /// Victims of the repair in flight: sorted per batch, binary-searched.
  std::vector<NodeId> deleting_;
  /// Every region's pieces, back to back; region r's are
  /// pieces_[piece_off_[r], piece_off_[r + 1]).
  std::vector<PieceCtx> pieces_;
  std::vector<int> piece_off_;
  /// The region being merged: its piece table (the region's pieces, then
  /// each join's result, indexed by piece number), its participants (piece
  /// owners, ascending), participant i's pieces own_[own_off_[i],
  /// own_off_[i + 1]) in piece order, the sort keys that grouped them, and
  /// its DAG branch.
  std::vector<PieceCtx> table_;
  std::vector<NodeId> participants_;
  std::vector<int> own_;
  std::vector<int> own_off_;
  std::vector<uint64_t> keys_;
  RegionDag dag_;
  // Merge scratch, all piece lists as piece numbers. kGlobalPlan: a
  // report's deps and the broadcast events. kStageWise: the stage's
  // pieces, every participant's carried survivors and ready events (flat,
  // with per-participant ranges), and the stage planner's input,
  // workspace, plan and consumed flags.
  struct Range {
    int begin = 0;
    int end = 0;
  };
  std::vector<int> deps_;
  std::vector<int> bcast_;
  std::vector<int> stage_;
  std::vector<int> carried_;
  std::vector<Range> carried_at_;
  std::vector<int> ready_pool_;
  std::vector<Range> ready_at_;
  std::vector<haft::PieceInfo> infos_;
  haft::PlanWorkspace plan_ws_;
  std::vector<haft::MergeStep> stage_plan_;
  std::vector<char> consumed_;
};

}  // namespace fg::dist
