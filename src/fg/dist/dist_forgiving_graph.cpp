#include "fg/dist/dist_forgiving_graph.h"

#include <algorithm>
#include <any>

#include "harness/certificate.h"
#include "util/check.h"

namespace fg::dist {

namespace {

/// Sorted-flat map probe for RegionDag::know (nullptr when absent).
const int* know_find(const std::vector<std::pair<NodeId, int>>& know, NodeId u) {
  auto it = std::lower_bound(
      know.begin(), know.end(), u,
      [](const std::pair<NodeId, int>& e, NodeId v) { return e.first < v; });
  return (it != know.end() && it->first == u) ? &it->second : nullptr;
}

/// Sorted insert-or-update for RegionDag::know.
void know_set(std::vector<std::pair<NodeId, int>>& know, NodeId u, int msg) {
  auto it = std::lower_bound(
      know.begin(), know.end(), u,
      [](const std::pair<NodeId, int>& e, NodeId v) { return e.first < v; });
  if (it != know.end() && it->first == u)
    it->second = msg;
  else
    know.insert(it, {u, msg});
}

}  // namespace

// Every structural mutation below happens inside core::StructuralCore — the
// same code path the centralized engine executes, so in kGlobalPlan mode the
// region partition, the piece order, the ComputeHaft plan, and therefore the
// healed topology are bit-identical to fg::ForgivingGraph by construction
// (the invariant the dist_equivalence and exhaustive_small suites pin down).
// What this file adds is the protocol layer: a DagRecorder observer mirrors
// each repair's structural work into a dependency DAG of messages — one
// independent branch per dirty region — which is replayed through the
// net::Network simulator, where all cost figures come from.

// Mirrors core repair callbacks into teardown/detach messages, bucketed per
// region. The core reports every cross-RT structural change before applying
// it, in deterministic order, so the message sequence is deterministic too.
class DistForgivingGraph::DagRecorder final : public core::RepairObserver {
 public:
  explicit DagRecorder(DistForgivingGraph* d) : d_(d) {}

  /// detach_msg per piece of one region, aligned with the core's per-region
  /// piece order.
  const std::vector<int>& detach_msgs(int region) const {
    return detach_msgs_.at(static_cast<size_t>(region));
  }

  void on_region_begin(int region_id) override {
    FG_CHECK(region_id == static_cast<int>(detach_msgs_.size()));
    detach_msgs_.emplace_back();
  }

  void on_piece(VNodeId /*root*/, NodeId owner, NodeId parent_owner) override {
    int msg = -1;
    if (parent_owner != kInvalidNode && parent_owner != owner &&
        !d_->is_deleting(parent_owner) && !d_->is_deleting(owner))
      msg = d_->add_msg(parent_owner, owner, 2, {});  // "you are detached"
    FG_CHECK_MSG(!detach_msgs_.empty(), "piece reported outside a region");
    detach_msgs_.back().push_back(msg);
  }

  void on_teardown(VNodeId /*h*/, NodeId owner, NodeId parent_owner) override {
    if (parent_owner != kInvalidNode && parent_owner != owner &&
        !d_->is_deleting(owner) && !d_->is_deleting(parent_owner))
      d_->add_msg(owner, parent_owner, 2, {});  // teardown notice to parent
  }

 private:
  DistForgivingGraph* d_;
  std::vector<std::vector<int>> detach_msgs_;
};

DistForgivingGraph::DistForgivingGraph(const Graph& g0, MergeMode mode)
    : mode_(mode), core_(g0) {
  net_.set_handler([this](NodeId /*to*/, NodeId /*from*/, const std::any& payload) {
    on_delivered(std::any_cast<int>(payload));
  });
}

// ---------------------------------------------------------------------------
// Message DAG plumbing.

int DistForgivingGraph::add_msg(NodeId from, NodeId to, int words,
                                std::vector<int> deps) {
  msgs_.push_back(DagMsg{from, to, words, std::move(deps)});
  return static_cast<int>(msgs_.size() - 1);
}

bool DistForgivingGraph::is_deleting(NodeId v) const {
  return std::binary_search(deleting_.begin(), deleting_.end(), v);
}

std::vector<int> DistForgivingGraph::know_deps(const RegionDag& dag, NodeId u) const {
  if (u == dag.coordinator) return dag.report_msgs;
  const int* msg = know_find(dag.know, u);
  FG_CHECK_MSG(msg != nullptr, "processor acts before learning the plan");
  return {*msg};
}

void DistForgivingGraph::dispatch_msg(int i) {
  const DagMsg& m = msgs_[static_cast<size_t>(i)];
  if (m.from == m.to) {
    on_delivered(i);  // local computation: free and instantaneous
  } else {
    net_.send(m.from, m.to, i, m.words);
  }
}

void DistForgivingGraph::on_delivered(int i) {
  for (int j : dependents_[static_cast<size_t>(i)])
    if (--unmet_[static_cast<size_t>(j)] == 0) dispatch_msg(j);
}

void DistForgivingGraph::run_dag() {
  unmet_.assign(msgs_.size(), 0);
  dependents_.assign(msgs_.size(), {});
  for (size_t i = 0; i < msgs_.size(); ++i)
    for (int d : msgs_[i].deps) {
      ++unmet_[i];
      dependents_[static_cast<size_t>(d)].push_back(static_cast<int>(i));
    }
  for (size_t i = 0; i < msgs_.size(); ++i)
    if (unmet_[i] == 0) dispatch_msg(static_cast<int>(i));
  if (!net_.idle()) net_.run_to_quiescence();
}

// ---------------------------------------------------------------------------
// Insertions.

NodeId DistForgivingGraph::insert(std::span<const NodeId> neighbors) {
  msgs_.clear();
  net_.stats().reset();

  NodeId id = core_.insert_node(neighbors);
  for (NodeId y : neighbors) add_msg(id, y, 2, {});  // "I am your new neighbor"
  run_dag();
  const auto& s = net_.stats();
  lifetime_.messages += s.messages;
  lifetime_.words += s.words;
  lifetime_.rounds += s.rounds;
  return id;
}

// ---------------------------------------------------------------------------
// Deletions.

void DistForgivingGraph::delete_batch(std::span<const NodeId> victims) {
  msgs_.clear();
  deleting_.assign(victims.begin(), victims.end());
  std::sort(deleting_.begin(), deleting_.end());
  net_.stats().reset();
  last_cost_ = RepairCost{};

  // Plan (read-only, shared core), then commit the break phase; the
  // recorder turns each structural change into the teardown/detach
  // messages of the repair DAG, bucketed per region.
  core::RepairPlan plan = core_.plan_deletion(victims, split_);
  harness::CertificateBuilder cert_builder;
  if (cert_sink_ != nullptr) cert_builder.begin_wave(core_, plan);
  DagRecorder recorder(this);
  // On-demand allocation: the distributed merge modes apply joins as the
  // DAG replays, interleaving regions (and, in kStageWise, choosing a
  // different association), so the plan's arena-id reservation does not
  // describe this engine's allocation order. Commits here are never
  // concurrent — determinism across delivery policies comes from the DAG,
  // not from handle arithmetic.
  std::vector<std::vector<VNodeId>> region_pieces =
      core_.commit_break(plan, &recorder, core::CommitAlloc::kOnDemand);
  const core::RepairStats& rs = core_.last_repair();
  last_cost_.deleted_degree = rs.deleted_degree_gprime;
  last_cost_.anchors = rs.new_leaves;
  last_cost_.pieces = rs.pieces;
  last_cost_.regions = static_cast<int>(plan.regions.size());

  // Each region merges through its own independent DAG branch: its own
  // coordinator, report wave, and plan knowledge. Branches share no
  // dependencies, so when the wave's regions are disjoint the simulator
  // counts their repairs in parallel rounds.
  for (const core::RegionPlan& region : plan.regions) {
    const std::vector<VNodeId>& roots = region_pieces[static_cast<size_t>(region.id)];
    const std::vector<int>& detach = recorder.detach_msgs(region.id);
    FG_CHECK(detach.size() == roots.size());
    std::vector<PieceCtx> pieces;
    pieces.reserve(roots.size());
    for (size_t i = 0; i < roots.size(); ++i)
      pieces.push_back(PieceCtx{roots[i], detach[i]});

    std::vector<NodeId> participants;
    for (const PieceCtx& p : pieces) participants.push_back(piece_owner(p));
    std::sort(participants.begin(), participants.end());
    participants.erase(std::unique(participants.begin(), participants.end()),
                       participants.end());
    last_cost_.bt_edges +=
        participants.empty() ? 0 : static_cast<int>(participants.size()) - 1;

    if (pieces.empty()) continue;
    RegionDag dag;
    if (mode_ == MergeMode::kGlobalPlan)
      merge_global(dag, region, std::move(pieces), participants);
    else
      merge_stage_wise(dag, std::move(pieces), participants);
  }

  run_dag();
  const auto& s = net_.stats();
  last_cost_.messages = s.messages;
  last_cost_.words = s.words;
  last_cost_.rounds = s.rounds;
  last_cost_.max_message_words = s.max_message_words;
  last_cost_.max_node_messages = s.max_node_sent();
  last_cost_.max_node_round_words = s.max_node_round_words;
  lifetime_.messages += s.messages;
  lifetime_.words += s.words;
  lifetime_.rounds += s.rounds;
  deleting_.clear();

  if (cert_sink_ != nullptr) {
    // Each region's final RT root: whatever its first committed piece now
    // roots at (the merges only ever join pieces within a region).
    std::vector<VNodeId> roots(plan.regions.size(), kNoVNode);
    for (size_t r = 0; r < plan.regions.size(); ++r)
      if (!region_pieces[r].empty())
        roots[r] = core_.forest().root_of(region_pieces[r][0]);
    cert::CostClaim claim;
    claim.present = true;
    claim.messages = last_cost_.messages;
    claim.words = last_cost_.words;
    claim.rounds = last_cost_.rounds;
    claim.deleted_degree = last_cost_.deleted_degree;
    cert_sink_->on_certificate(cert_builder.end_wave(
        core_, plan, certified_waves_++, roots, &claim));
  }
}

// ---------------------------------------------------------------------------
// kGlobalPlan: report -> plan broadcast -> parallel execution (per region).

void DistForgivingGraph::merge_global(RegionDag& dag, const core::RegionPlan& region,
                                      std::vector<PieceCtx> pieces,
                                      const std::vector<NodeId>& participants) {
  FG_CHECK(!pieces.empty());
  dag.coordinator = participants.front();

  // Reports: every participant sends its piece list straight to the
  // coordinator (8 words per piece + header). The coordinator's own pieces
  // only gate its sends. Owners bucket into dense per-participant vectors
  // via binary search — `participants` is sorted-unique by construction and
  // every piece owner appears in it.
  auto part_idx = [&](NodeId o) {
    auto it = std::lower_bound(participants.begin(), participants.end(), o);
    FG_CHECK(it != participants.end() && *it == o);
    return static_cast<size_t>(it - participants.begin());
  };
  std::vector<std::vector<int>> detach_by_owner(participants.size());
  std::vector<int> count_by_owner(participants.size(), 0);
  for (const PieceCtx& p : pieces) {
    size_t o = part_idx(piece_owner(p));
    ++count_by_owner[o];
    if (p.detach_msg >= 0) detach_by_owner[o].push_back(p.detach_msg);
  }
  for (size_t mi = 0; mi < participants.size(); ++mi) {
    NodeId m = participants[mi];
    if (m == dag.coordinator) {
      for (int d : detach_by_owner[mi]) dag.report_msgs.push_back(d);
      continue;
    }
    int rep = add_msg(m, dag.coordinator, 8 * count_by_owner[mi] + 1,
                      detach_by_owner[mi]);
    dag.report_msgs.push_back(rep);
  }

  if (pieces.size() == 1) {
    core_.finish_repair(pieces.front().root);
    return;  // single piece: nothing to merge
  }

  // Plan broadcast down the region's participant binary tree (heap
  // layout). The plan names every piece, so the message is O(pieces) words
  // — the price kGlobalPlan pays for O(log d + log n) rounds.
  int bcast_words = 8 * static_cast<int>(pieces.size()) + 1;
  std::vector<int> bcast(participants.size(), -1);
  for (size_t i = 0; i < participants.size(); ++i) {
    for (size_t c : {2 * i + 1, 2 * i + 2}) {
      if (c >= participants.size()) continue;
      std::vector<int> deps = i == 0 ? dag.report_msgs : std::vector<int>{bcast[i]};
      bcast[c] = add_msg(participants[i], participants[c], bcast_words,
                         std::move(deps));
      know_set(dag.know, participants[c], bcast[c]);
    }
  }

  // The deterministic ComputeHaft steps straight from the region's plan —
  // literally the object the centralized engine's merge_region replays,
  // hence the identical topology (and no second planning pass). Execution
  // is fully parallel: every helper owner knows the whole plan and links
  // its join's children without waiting.
  for (const auto& step : region.steps) {
    const PieceCtx& l = pieces[static_cast<size_t>(step.left)];
    const PieceCtx& r = pieces[static_cast<size_t>(step.right)];
    NodeId lo = piece_owner(l);
    NodeId ro = piece_owner(r);
    NodeId u = core_.forest().node(core_.forest().node(l.root).rep).owner;
    if (u != dag.coordinator && know_find(dag.know, u) == nullptr) {
      // The left root's owner forwards the relevant plan excerpt to the
      // representative that must act (it is a leaf owner, not necessarily a
      // participant).
      know_set(dag.know, u, add_msg(lo, u, 4, know_deps(dag, lo)));
    }
    std::vector<int> kd = know_deps(dag, u);
    if (u != lo) add_msg(u, lo, 2, kd);
    if (u != ro) add_msg(u, ro, 2, kd);
    PieceCtx res = join_pieces(l, r);
    FG_CHECK(static_cast<int>(pieces.size()) == step.result);
    pieces.push_back(res);
  }
  core_.finish_repair(pieces.back().root);
}

// ---------------------------------------------------------------------------
// kStageWise: BottomupRTMerge — carry-merge at every aggregation stage,
// per region.

void DistForgivingGraph::merge_stage_wise(RegionDag& dag, std::vector<PieceCtx> pieces,
                                          const std::vector<NodeId>& participants) {
  FG_CHECK(!pieces.empty());
  dag.coordinator = participants.front();
  if (pieces.size() == 1) {
    core_.finish_repair(pieces.front().root);
    return;
  }

  // `participants` is sorted-unique and contains every piece owner, so a
  // binary search replaces the old member-index hash map.
  auto member_idx = [&](NodeId o) {
    auto it = std::lower_bound(participants.begin(), participants.end(), o);
    FG_CHECK(it != participants.end() && *it == o);
    return static_cast<size_t>(it - participants.begin());
  };

  std::vector<std::vector<PieceCtx>> lists(participants.size());
  std::vector<std::vector<int>> ready(participants.size());
  for (const PieceCtx& p : pieces) {
    size_t i = member_idx(piece_owner(p));
    lists[i].push_back(p);
    if (p.detach_msg >= 0) ready[i].push_back(p.detach_msg);
  }

  // Execute the carry plan for stage `i`; `chain` additionally runs the
  // final ascending chain (coordinator only). Orders go out to each helper
  // owner as soon as the stage's inputs are ready; the surviving roots stay
  // in `list`.
  auto run_stage = [&](size_t i, bool chain) {
    std::vector<PieceCtx>& list = lists[i];
    std::vector<haft::PieceInfo> infos;
    infos.reserve(list.size());
    for (const PieceCtx& p : list) infos.push_back(core_.piece_info(p.root));
    auto plan = chain ? haft::merge_plan(std::move(infos))
                      : haft::carry_plan(std::move(infos));
    std::vector<char> consumed(list.size() + plan.size(), 0);
    for (const auto& step : plan) {
      const PieceCtx& l = list[static_cast<size_t>(step.left)];
      const PieceCtx& r = list[static_cast<size_t>(step.right)];
      NodeId lo = piece_owner(l);
      NodeId ro = piece_owner(r);
      NodeId u = core_.forest().node(core_.forest().node(l.root).rep).owner;
      std::vector<int> deps = ready[i];
      if (u != participants[i])
        deps = {add_msg(participants[i], u, 4, ready[i])};  // join order
      if (u != lo) add_msg(u, lo, 2, deps);
      if (u != ro) add_msg(u, ro, 2, deps);
      consumed[static_cast<size_t>(step.left)] = 1;
      consumed[static_cast<size_t>(step.right)] = 1;
      PieceCtx res = join_pieces(l, r);
      FG_CHECK(static_cast<int>(list.size()) == step.result);
      list.push_back(res);
    }
    std::vector<PieceCtx> survivors;
    for (size_t j = 0; j < list.size(); ++j)
      if (!consumed[j]) survivors.push_back(list[j]);
    list = std::move(survivors);
  };

  // Bottom-up over the heap-shaped participant tree: children have larger
  // indices, so a descending loop visits them first.
  for (size_t ii = participants.size(); ii-- > 0;) {
    for (size_t c : {2 * ii + 1, 2 * ii + 2}) {
      if (c >= participants.size()) continue;
      // The child's carried list arrives as one O(log n)-piece message.
      int up = add_msg(participants[c], participants[ii],
                       8 * static_cast<int>(lists[c].size()) + 1, ready[c]);
      ready[ii].push_back(up);
      for (const PieceCtx& p : lists[c]) lists[ii].push_back(p);
      lists[c].clear();
    }
    // Carries keep every in-flight list at pairwise-distinct sizes; the
    // coordinator finishes with the ascending chain (Algorithm A.9 phase 2).
    run_stage(ii, /*chain=*/ii == 0);
  }
  FG_CHECK(lists[0].size() == 1);
  core_.finish_repair(lists[0].front().root);
}

}  // namespace fg::dist
