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

// Every structural mutation happens in core::StructuralCore, committed
// through fg::ShardedForest::execute — the same path, plan and arena
// reservation the centralized engine uses, so in kGlobalPlan mode the
// healed structure is bit-identical to fg::ForgivingGraph by construction
// (the invariant the dist_equivalence, certificate_equivalence and
// exhaustive_small suites pin down). What this file adds is the protocol
// layer: before the commit, each repair's structural work is read off the
// immutable plan and the pre-commit forest into a dependency DAG of
// messages — one independent branch per dirty region — which is replayed
// through the net::Network simulator, where all cost figures come from.

DistForgivingGraph::DistForgivingGraph(const Graph& g0, MergeMode mode)
    : mode_(mode), core_(g0) {
  net_.set_handler([this](NodeId /*to*/, NodeId /*from*/, const std::any& payload) {
    on_delivered(std::any_cast<int>(payload));
  });
}

// ---------------------------------------------------------------------------
// Message DAG plumbing.

void DistForgivingGraph::begin_dag() {
  msgs_.clear();
  dep_pool_.clear();
}

int DistForgivingGraph::add_msg(NodeId from, NodeId to, int words,
                                std::span<const int> deps) {
  dep_pool_.insert(dep_pool_.end(), deps.begin(), deps.end());
  msgs_.push_back(DagMsg{from, to, words, static_cast<int>(dep_pool_.size())});
  return static_cast<int>(msgs_.size() - 1);
}

bool DistForgivingGraph::is_deleting(NodeId v) const {
  return std::binary_search(deleting_.begin(), deleting_.end(), v);
}

std::span<const int> DistForgivingGraph::know_deps(NodeId u) const {
  if (u == dag_.coordinator) return dag_.report_msgs;
  const int* msg = know_find(dag_.know, u);
  FG_CHECK_MSG(msg != nullptr, "processor acts before learning the plan");
  return {msg, 1};
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
  const auto d = static_cast<size_t>(i);
  for (int k = dependents_off_[d]; k < dependents_off_[d + 1]; ++k) {
    const int j = dependents_[static_cast<size_t>(k)];
    if (--unmet_[static_cast<size_t>(j)] == 0) dispatch_msg(j);
  }
}

void DistForgivingGraph::run_dag() {
  // Dependents as CSR by counting sort: message d's dependents are
  // dependents_[dependents_off_[d], dependents_off_[d + 1]), in ascending
  // message order. That order is the dispatch order, which fixes FIFO
  // delivery and the draw order of a seeded DeliveryPolicy.
  const size_t n = msgs_.size();
  dependents_off_.assign(n + 1, 0);
  for (int d : dep_pool_) ++dependents_off_[static_cast<size_t>(d)];
  for (size_t d = 1; d <= n; ++d) dependents_off_[d] += dependents_off_[d - 1];
  dependents_.resize(dep_pool_.size());
  unmet_.resize(n);
  // Filling back to front leaves each range ascending and each offset at
  // its range's start.
  for (size_t i = n; i-- > 0;) {
    const int dep_begin = i == 0 ? 0 : msgs_[i - 1].dep_end;
    unmet_[i] = msgs_[i].dep_end - dep_begin;
    for (int k = msgs_[i].dep_end; k-- > dep_begin;) {
      const auto d = static_cast<size_t>(dep_pool_[static_cast<size_t>(k)]);
      dependents_[static_cast<size_t>(--dependents_off_[d])] = static_cast<int>(i);
    }
  }
  for (size_t i = 0; i < n; ++i)
    if (unmet_[i] == 0) dispatch_msg(static_cast<int>(i));
  if (!net_.idle()) net_.run_to_quiescence();
}

// ---------------------------------------------------------------------------
// Insertions.

NodeId DistForgivingGraph::insert(std::span<const NodeId> neighbors) {
  begin_dag();
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
  begin_dag();
  deleting_.assign(victims.begin(), victims.end());
  std::sort(deleting_.begin(), deleting_.end());
  net_.stats().reset();
  last_cost_ = RepairCost{};

  // 1. Plan (read-only, shared core). The engine owns this copy: kStageWise
  //    rewrites each region's merge steps with its own association.
  core::RepairPlan plan = core_.plan_deletion(victims, split_);
  harness::CertificateBuilder cert_builder;
  if (cert_sink_ != nullptr) cert_builder.begin_wave(core_, plan);

  // 2. The whole message DAG, before any mutation: first every region's
  //    teardown/detach messages in commit order, then each region's merge
  //    branch — its own coordinator, report wave, and plan knowledge.
  //    Branches share no dependencies, so when the wave's regions are
  //    disjoint the simulator counts their repairs in parallel rounds.
  pieces_.clear();
  piece_off_.assign(1, 0);
  for (const core::RegionPlan& region : plan.regions) {
    break_messages(region);
    piece_off_.push_back(static_cast<int>(pieces_.size()));
  }
  for (size_t ri = 0; ri < plan.regions.size(); ++ri) {
    table_.assign(pieces_.begin() + piece_off_[ri], pieces_.begin() + piece_off_[ri + 1]);
    group_pieces();
    last_cost_.bt_edges +=
        participants_.empty() ? 0 : static_cast<int>(participants_.size()) - 1;

    if (table_.empty()) continue;
    dag_.coordinator = participants_.front();
    dag_.report_msgs.clear();
    dag_.know.clear();
    if (mode_ == MergeMode::kGlobalPlan)
      merge_global(plan.regions[ri]);
    else
      merge_stage_wise(plan.regions[ri]);
  }
  run_dag();

  // 3. Commit through the path the centralized engine uses.
  std::vector<VNodeId> roots = shards_.execute(core_, plan);

  const core::RepairStats& rs = core_.last_repair();
  last_cost_.deleted_degree = rs.deleted_degree_gprime;
  last_cost_.anchors = rs.new_leaves;
  last_cost_.pieces = rs.pieces;
  last_cost_.regions = static_cast<int>(plan.regions.size());
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
// Break: teardown and detach messages, read off the plan's script.

// A node's owner never changes, and its RT parent when the commit reaches
// its event is its pre-commit parent: the script is post-order, so the
// parent is torn down (if at all) only after all of its children. Hence the
// pre-commit forest names every message's endpoints.
void DistForgivingGraph::break_messages(const core::RegionPlan& region) {
  const VirtualForest& forest = core_.forest();
  const size_t first = pieces_.size();
  auto add_piece = [&](NodeId owner, NodeId rep_owner, int detach) {
    const size_t i = pieces_.size() - first;
    pieces_.push_back(PieceCtx{owner, rep_owner, region.pieces[i], detach});
  };
  for (const core::RegionPlan::Event& e : region.events) {
    const auto& n = forest.node(e.h);
    const NodeId parent_owner =
        n.parent == kNoVNode ? kInvalidNode : forest.node(n.parent).owner;
    const bool notify = parent_owner != kInvalidNode && parent_owner != n.owner &&
                        !is_deleting(parent_owner) && !is_deleting(n.owner);
    if (!e.is_piece) {
      if (notify) add_msg(n.owner, parent_owner, 2, {});  // teardown notice to parent
      continue;
    }
    // "you are detached"
    const int detach = notify ? add_msg(parent_owner, n.owner, 2, {}) : -1;
    add_piece(n.owner, forest.node(n.rep).owner, detach);
  }
  // Fresh anchor leaves were never attached: no detach message.
  for (const core::RegionPlan::FreshLeaf& f : region.fresh) add_piece(f.owner, f.owner, -1);
  FG_CHECK(pieces_.size() - first == region.pieces.size());
}

// The region's participants are its piece owners, ascending; one sort of
// (owner, piece number) keys yields them together with every participant's
// pieces in piece order.
void DistForgivingGraph::group_pieces() {
  keys_.clear();
  for (size_t k = 0; k < table_.size(); ++k)
    keys_.push_back((static_cast<uint64_t>(table_[k].owner) << 32) | k);
  std::sort(keys_.begin(), keys_.end());
  participants_.clear();
  own_off_.clear();
  own_.clear();
  for (uint64_t key : keys_) {
    const auto owner = static_cast<NodeId>(key >> 32);
    if (participants_.empty() || participants_.back() != owner) {
      participants_.push_back(owner);
      own_off_.push_back(static_cast<int>(own_.size()));
    }
    own_.push_back(static_cast<int>(key & 0xffffffffu));
  }
  own_off_.push_back(static_cast<int>(own_.size()));
}

std::span<const int> DistForgivingGraph::own_pieces(size_t i) const {
  return {own_.data() + own_off_[i], static_cast<size_t>(own_off_[i + 1] - own_off_[i])};
}

// ---------------------------------------------------------------------------
// kGlobalPlan: report -> plan broadcast -> parallel execution (per region).

void DistForgivingGraph::merge_global(const core::RegionPlan& region) {
  const std::vector<NodeId>& participants = participants_;

  // Reports: every participant sends its piece list straight to the
  // coordinator (8 words per piece + header) once its pieces have
  // detached. The coordinator's own pieces only gate its sends.
  for (size_t mi = 0; mi < participants.size(); ++mi) {
    const std::span<const int> own = own_pieces(mi);
    deps_.clear();
    for (int k : own)
      if (table_[static_cast<size_t>(k)].detach_msg >= 0)
        deps_.push_back(table_[static_cast<size_t>(k)].detach_msg);
    if (mi == 0) {  // the coordinator
      dag_.report_msgs.assign(deps_.begin(), deps_.end());
      continue;
    }
    dag_.report_msgs.push_back(add_msg(participants[mi], dag_.coordinator,
                                       8 * static_cast<int>(own.size()) + 1, deps_));
  }

  if (table_.size() == 1) return;  // single piece: nothing to merge

  // Plan broadcast down the region's participant binary tree (heap
  // layout). The plan names every piece, so the message is O(pieces) words
  // — the price kGlobalPlan pays for O(log d + log n) rounds.
  int bcast_words = 8 * static_cast<int>(table_.size()) + 1;
  bcast_.assign(participants.size(), -1);
  for (size_t i = 0; i < participants.size(); ++i) {
    for (size_t c : {2 * i + 1, 2 * i + 2}) {
      if (c >= participants.size()) continue;
      std::span<const int> deps =
          i == 0 ? std::span<const int>(dag_.report_msgs) : std::span<const int>(&bcast_[i], 1);
      bcast_[c] = add_msg(participants[i], participants[c], bcast_words, deps);
      know_set(dag_.know, participants[c], bcast_[c]);
    }
  }

  // The deterministic ComputeHaft steps straight from the region's plan —
  // literally the object merge_region replays at the commit, hence the
  // identical structure (and no second planning pass). Execution is fully
  // parallel: every helper owner knows the whole plan and links its join's
  // children without waiting.
  for (const auto& step : region.steps) {
    const PieceCtx l = table_[static_cast<size_t>(step.left)];
    const PieceCtx r = table_[static_cast<size_t>(step.right)];
    NodeId u = l.rep_owner;
    if (u != dag_.coordinator && know_find(dag_.know, u) == nullptr) {
      // The left root's owner forwards the relevant plan excerpt to the
      // representative that must act (it is a leaf owner, not necessarily a
      // participant).
      const int fwd = add_msg(l.owner, u, 4, know_deps(l.owner));
      know_set(dag_.know, u, fwd);
    }
    const std::span<const int> kd = know_deps(u);
    if (u != l.owner) add_msg(u, l.owner, 2, kd);
    if (u != r.owner) add_msg(u, r.owner, 2, kd);
    FG_CHECK(static_cast<int>(table_.size()) == step.result);
    table_.push_back(join(l, r));
  }
}

// ---------------------------------------------------------------------------
// kStageWise: BottomupRTMerge — carry-merge at every aggregation stage,
// per region. The association it chooses replaces the region's merge steps
// (in the region's piece numbering), which the commit then replays.

void DistForgivingGraph::merge_stage_wise(core::RegionPlan& region) {
  if (table_.size() == 1) return;
  const std::vector<NodeId>& participants = participants_;

  // The region's association replaces its planned steps: same numbering,
  // same count (checked below).
  const size_t planned_steps = region.steps.size();
  std::vector<haft::MergeStep>& steps = region.steps;
  steps.clear();

  // Execute the carry plan on `list`, the pieces at stage `i`; `chain`
  // additionally runs the final ascending chain (coordinator only). Orders
  // go out to each helper owner once the stage's `ready` events are in;
  // the surviving roots stay in `list`, and every join is appended to
  // `steps` and table_ under the next piece number of the region.
  auto run_stage = [&](std::vector<int>& list, size_t i, std::span<const int> ready,
                       bool chain) {
    if (list.size() < 2) return;  // nothing to join: the plan is empty
    infos_.clear();
    for (int k : list) infos_.push_back(table_[static_cast<size_t>(k)].info);
    haft::plan_into(infos_, chain, plan_ws_, stage_plan_);
    consumed_.assign(list.size() + stage_plan_.size(), 0);
    for (const auto& step : stage_plan_) {
      const int lk = list[static_cast<size_t>(step.left)];
      const int rk = list[static_cast<size_t>(step.right)];
      const PieceCtx l = table_[static_cast<size_t>(lk)];
      const PieceCtx r = table_[static_cast<size_t>(rk)];
      NodeId u = l.rep_owner;
      std::span<const int> deps = ready;
      int order = -1;
      if (u != participants[i]) {
        order = add_msg(participants[i], u, 4, ready);  // join order
        deps = {&order, 1};
      }
      if (u != l.owner) add_msg(u, l.owner, 2, deps);
      if (u != r.owner) add_msg(u, r.owner, 2, deps);
      consumed_[static_cast<size_t>(step.left)] = 1;
      consumed_[static_cast<size_t>(step.right)] = 1;
      const int made = static_cast<int>(table_.size());
      steps.push_back({lk, rk, made});
      table_.push_back(join(l, r));
      FG_CHECK(static_cast<int>(list.size()) == step.result);
      list.push_back(made);
    }
    size_t kept = 0;
    for (size_t j = 0; j < list.size(); ++j)
      if (!consumed_[j]) list[kept++] = list[j];
    list.resize(kept);
  };

  // Bottom-up over the heap-shaped participant tree: children have larger
  // indices, so a descending loop visits them first. A participant's stage
  // takes its own pieces, then each child's carried survivors; it is ready
  // once its own pieces have detached and each child's list has arrived.
  // Survivors and ready events wait for the parent in flat pools.
  carried_.clear();
  ready_pool_.clear();
  carried_at_.resize(participants.size());
  ready_at_.resize(participants.size());
  for (size_t ii = participants.size(); ii-- > 0;) {
    const std::span<const int> own = own_pieces(ii);
    stage_.assign(own.begin(), own.end());
    const int ready_begin = static_cast<int>(ready_pool_.size());
    for (int k : own)
      if (table_[static_cast<size_t>(k)].detach_msg >= 0)
        ready_pool_.push_back(table_[static_cast<size_t>(k)].detach_msg);
    for (size_t c : {2 * ii + 1, 2 * ii + 2}) {
      if (c >= participants.size()) continue;
      // The child's carried list arrives as one O(log n)-piece message.
      const Range cl = carried_at_[c];
      const Range cr = ready_at_[c];
      int up = add_msg(participants[c], participants[ii], 8 * (cl.end - cl.begin) + 1,
                       {ready_pool_.data() + cr.begin, static_cast<size_t>(cr.end - cr.begin)});
      ready_pool_.push_back(up);
      stage_.insert(stage_.end(), carried_.begin() + cl.begin, carried_.begin() + cl.end);
    }
    const int ready_end = static_cast<int>(ready_pool_.size());
    ready_at_[ii] = {ready_begin, ready_end};
    // Carries keep every in-flight list at pairwise-distinct sizes; the
    // coordinator finishes with the ascending chain (Algorithm A.9 phase 2).
    run_stage(stage_, ii,
              {ready_pool_.data() + ready_begin, static_cast<size_t>(ready_end - ready_begin)},
              /*chain=*/ii == 0);
    carried_at_[ii] = {static_cast<int>(carried_.size()),
                       static_cast<int>(carried_.size() + stage_.size())};
    carried_.insert(carried_.end(), stage_.begin(), stage_.end());
  }
  FG_CHECK(stage_.size() == 1);
  // One helper per join, as in the planned merge: the arena reservation
  // (fresh + steps per region) holds unchanged.
  FG_CHECK_MSG(steps.size() == planned_steps,
               "stage-wise association must join the region's pieces exactly once each");
}

}  // namespace fg::dist
