#include "fg/core/structural_core.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <tuple>

#include "snap/snapshot.h"
#include "util/check.h"

namespace fg::core {

StructuralCore::StructuralCore(const Graph& g0) : gprime_(g0), g_(g0) {
  procs_.resize(static_cast<size_t>(g0.node_capacity()));
  slots_.resize(static_cast<size_t>(g0.node_capacity()));
  image_multiplicity_.reserve(static_cast<size_t>(g0.edge_count()));
  for (NodeId v = 0; v < g0.node_capacity(); ++v) {
    FG_CHECK_MSG(g0.is_alive(v), "initial graph must have no tombstones");
    for (NodeId w : g0.neighbors(v))
      if (v < w) image_multiplicity_.increment(edge_key(v, w));
  }
}

uint64_t StructuralCore::edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return slot_key(u, v);
}

void StructuralCore::add_image_edge(NodeId u, NodeId v) {
  if (u == v) return;  // homomorphism collapses same-processor virtual edges
  note_image_touch(u, v);
  if (image_multiplicity_.increment(edge_key(u, v)) == 1) g_.add_edge(u, v);
}

NodeId StructuralCore::insert_node(std::span<const NodeId> neighbors) {
  ++epoch_;  // any outstanding plan is stale from here on
  NodeId id = gprime_.add_node();
  NodeId id2 = g_.add_node();
  FG_CHECK(id == id2);
  procs_.emplace_back();
  slots_.resize(procs_.size());
  for (NodeId y : neighbors) {
    FG_CHECK_MSG(g_.is_alive(y), "insertion neighbor must be alive");
    // add_edge rejects an edge that already exists, so a duplicate in the
    // span surfaces here — no side lookup table needed.
    FG_CHECK_MSG(gprime_.add_edge(id, y), "duplicate insertion neighbor");
    add_image_edge(id, y);
  }
  if (recorder_ != nullptr) recorder_->on_insert(id, neighbors);
  return id;
}

namespace {

/// Deterministic union-find over the wave's victims (indexed by wave
/// position): the representative is always the smallest index, so the
/// partition is independent of the union order.
struct Dsu {
  std::vector<int> parent;
  explicit Dsu(int n) : parent(static_cast<size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] = parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[static_cast<size_t>(b)] = a;
  }
};

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

DeletionAnalysis StructuralCore::analyze_deletion(std::span<const NodeId> victims,
                                                  RegionSplit split) const {
  FG_CHECK_MSG(!victims.empty(), "empty deletion batch");
  DeletionAnalysis a;
  a.split = split;
  a.victims.assign(victims.begin(), victims.end());
  const int k = static_cast<int>(victims.size());

  // Wave membership and positions as sorted flat arrays: one sort up
  // front, then every probe is a binary search over contiguous memory.
  a.victim_sorted = a.victims;
  std::sort(a.victim_sorted.begin(), a.victim_sorted.end());
  FG_CHECK_MSG(std::adjacent_find(a.victim_sorted.begin(), a.victim_sorted.end()) ==
                   a.victim_sorted.end(),
               "duplicate victim in batch");
  std::vector<std::pair<NodeId, int>> wave_index;  // (victim, wave position)
  wave_index.reserve(victims.size());
  for (int i = 0; i < k; ++i) {
    NodeId v = a.victims[static_cast<size_t>(i)];
    FG_CHECK_MSG(g_.is_alive(v), "deleting a dead or unknown processor");
    wave_index.push_back({v, i});
    a.deleted_degree_gprime += gprime_.degree(v);
  }
  std::sort(wave_index.begin(), wave_index.end());

  // 1. The virtual nodes of the deleted processors — one real node per edge
  //    to an already-deleted neighbor, plus every helper they simulate —
  //    and the region partition. Two victims repair together iff they are
  //    connected through shared RTs or a G' edge: a shared RT means their
  //    debris merges, and a G' edge between two victims must be healed by
  //    a structure spanning *both* neighborhoods or the network could
  //    disconnect. (A victim never has a slot keyed by another victim:
  //    slots only exist for neighbors that were already dead.)
  Dsu dsu(k);
  std::vector<std::pair<VNodeId, int>> root_claims;  // (RT root, wave position)
  for (int i = 0; i < k; ++i) {
    NodeId v = a.victims[static_cast<size_t>(i)];
    for (const SlotTable::Entry& slot : slots_.entries(v)) {
      for (VNodeId h : {slot.leaf, slot.helper}) {
        if (h == kNoVNode) continue;
        a.dead_vnodes.push_back(h);
        root_claims.push_back({forest_.root_of(h), i});
      }
    }
    for (NodeId y : gprime_.neighbors(v)) {
      auto it = std::lower_bound(wave_index.begin(), wave_index.end(),
                                 std::pair<NodeId, int>{y, 0});
      if (it != wave_index.end() && it->first == y) dsu.unite(i, it->second);
    }
  }
  // Every vnode belongs to exactly one (owner, other) slot, so the
  // collected handles are already duplicate-free; sort for binary search.
  std::sort(a.dead_vnodes.begin(), a.dead_vnodes.end());
  // Victims sharing an RT repair together: group the claims by root and
  // unite each group (equivalent to the old first-claimant map — the
  // partition is independent of union order).
  std::sort(root_claims.begin(), root_claims.end());
  for (size_t j = 1; j < root_claims.size(); ++j)
    if (root_claims[j].first == root_claims[j - 1].first)
      dsu.unite(root_claims[j - 1].second, root_claims[j].second);
  if (split == RegionSplit::kGlobal)
    for (int i = 1; i < k; ++i) dsu.unite(0, i);

  // The dirty region: the dead vnodes and all their ancestors. A node is
  // clean — its subtree contains no dead vnode — iff it is not dirty.
  // Chains are walked in full (Lemma 1 bounds RT depth by O(log n), so
  // this is O(dead * log n)) and deduplicated by one sort.
  a.dirty.reserve(a.dead_vnodes.size() * 2);
  for (VNodeId h : a.dead_vnodes)
    for (VNodeId x = h; x != kNoVNode; x = forest_.node(x).parent)
      a.dirty.push_back(x);
  std::sort(a.dirty.begin(), a.dirty.end());
  a.dirty.erase(std::unique(a.dirty.begin(), a.dirty.end()), a.dirty.end());
  // Dense marks for the collect walk's O(1) membership probes (dead marks
  // second: dead ⊂ dirty, and kDeadMark must win) — but only when the
  // wave is dense enough to amortize zeroing the whole arena; a sparse
  // wave (e.g. one victim deep into a long-lived arena) keeps the marks
  // empty and binary-searches the sorted vectors instead.
  if (static_cast<int64_t>(forest_.arena_size()) <=
      static_cast<int64_t>(a.dirty.size()) * 64) {
    a.vnode_marks.assign(static_cast<size_t>(forest_.arena_size()),
                         DeletionAnalysis::kClean);
    for (VNodeId x : a.dirty)
      a.vnode_marks[static_cast<size_t>(x)] = DeletionAnalysis::kDirtyMark;
    for (VNodeId h : a.dead_vnodes)
      a.vnode_marks[static_cast<size_t>(h)] = DeletionAnalysis::kDeadMark;
  }

  // 2. Materialize the regions in deterministic commit order: sorted by the
  //    smallest victim id they contain (the shard ordering rule). Victims
  //    keep their wave order within a region; affected roots are sorted
  //    ascending, as the single-RT path always did. Representatives are
  //    wave positions, so dense arrays over [0, k) replace the maps.
  std::vector<int> rep(static_cast<size_t>(k));
  std::vector<NodeId> min_victim(static_cast<size_t>(k), kInvalidNode);  // by rep
  for (int i = 0; i < k; ++i) {
    rep[static_cast<size_t>(i)] = dsu.find(i);
    NodeId v = a.victims[static_cast<size_t>(i)];
    NodeId& mv = min_victim[static_cast<size_t>(rep[static_cast<size_t>(i)])];
    if (mv == kInvalidNode || v < mv) mv = v;
  }
  std::vector<std::pair<NodeId, int>> order;  // (min victim id, rep)
  for (int r = 0; r < k; ++r)
    if (min_victim[static_cast<size_t>(r)] != kInvalidNode)
      order.push_back({min_victim[static_cast<size_t>(r)], r});
  std::sort(order.begin(), order.end());
  std::vector<int> seed_of_rep(static_cast<size_t>(k), -1);
  for (size_t j = 0; j < order.size(); ++j)
    seed_of_rep[static_cast<size_t>(order[j].second)] = static_cast<int>(j);

  a.seeds.resize(order.size());
  a.victim_seed.resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    int s = seed_of_rep[static_cast<size_t>(rep[static_cast<size_t>(i)])];
    a.victim_seed[static_cast<size_t>(i)] = s;
    a.seeds[static_cast<size_t>(s)].victims.push_back(a.victims[static_cast<size_t>(i)]);
  }
  // One root entry per group (claims are sorted by root, so groups are
  // contiguous and the per-seed root lists come out ascending).
  for (size_t j = 0; j < root_claims.size(); ++j) {
    if (j > 0 && root_claims[j].first == root_claims[j - 1].first) continue;
    int s = seed_of_rep[static_cast<size_t>(rep[static_cast<size_t>(root_claims[j].second)])];
    a.seeds[static_cast<size_t>(s)].roots.push_back(root_claims[j].first);
  }
  return a;
}

void StructuralCore::plan_region(const DeletionAnalysis& analysis, int region,
                                 RegionPlan* out) const {
  const DeletionAnalysis::Seed& seed = analysis.seeds[static_cast<size_t>(region)];
  out->id = region;
  out->victims = seed.victims;
  out->roots = seed.roots;

  // Break-phase script: the Strip of Section 4.1.1 over each affected RT,
  // recorded instead of applied.
  auto t0 = std::chrono::steady_clock::now();
  for (VNodeId r : seed.roots) collect_events(r, analysis, out);

  // Surviving direct neighbors lose their edge to the victim and contribute
  // a fresh real node (a trivial one-node RT) for the edge slot (y, v). An
  // edge between two victims spawns no real node: both endpoints die, so
  // nobody survives to simulate one (exactly the state sequential deletions
  // converge to).
  for (NodeId v : seed.victims) {
    for (NodeId y : gprime_.neighbors(v)) {
      if (!g_.is_alive(y) || analysis.is_victim(y)) continue;
      out->fresh.push_back({y, v});
    }
  }

  // Victim-victim G' edges, in the exact order the break drops them. Both
  // endpoints always land in the same region (a shared G' edge unites
  // them), so recording the pairs here lets one region's break run with no
  // wave-wide lookup at all.
  for (NodeId v : seed.victims)
    for (NodeId y : gprime_.neighbors(v))
      if (v < y && analysis.is_victim(y)) out->victim_edges.push_back({v, y});

  // Merge-plan input: detached pieces in event order, then fresh leaves —
  // the same deterministic piece order the single-pass walk emitted.
  out->pieces.reserve(out->events.size() + out->fresh.size());
  for (const RegionPlan::Event& e : out->events)
    if (e.is_piece) out->pieces.push_back(piece_info(e.h));
  for (const RegionPlan::FreshLeaf& f : out->fresh)
    out->pieces.push_back({1, slot_key(f.owner, f.dead)});
  auto t1 = std::chrono::steady_clock::now();

  out->steps = haft::merge_plan(out->pieces);
  auto t2 = std::chrono::steady_clock::now();
  out->collect_ms = ms_between(t0, t1);
  out->merge_ms = ms_between(t1, t2);
}

RepairPlan StructuralCore::plan_deletion(std::span<const NodeId> victims,
                                         RegionSplit split) const {
  auto t0 = std::chrono::steady_clock::now();
  DeletionAnalysis analysis = analyze_deletion(victims, split);
  auto t1 = std::chrono::steady_clock::now();

  RepairPlan plan;
  plan.regions.resize(analysis.seeds.size());
  for (int r = 0; r < static_cast<int>(analysis.seeds.size()); ++r)
    plan_region(analysis, r, &plan.regions[static_cast<size_t>(r)]);

  finalize_plan(analysis, &plan);
  plan.profile.partition_ms = ms_between(t0, t1);
  return plan;
}

void StructuralCore::finalize_plan(const DeletionAnalysis& analysis,
                                   RepairPlan* plan) const {
  plan->split = analysis.split;
  plan->victims = analysis.victims;
  plan->epoch = epoch_;
  // The arena-id reservation: region r's commit allocates exactly its
  // anchor leaves plus one helper per merge step, so contiguous handle
  // ranges follow from region order by prefix sums — any commit schedule
  // lands every vnode at the same handle (contract C4).
  const int arena_start = forest_.arena_size();
  int next_handle = arena_start;
  for (RegionPlan& region : plan->regions) {
    plan->profile.collect_ms += region.collect_ms;
    plan->profile.merge_ms += region.merge_ms;
    region.arena_base = next_handle;
    next_handle += static_cast<int>(region.fresh.size() + region.steps.size());
  }
  plan->arena_start = arena_start;
  plan->arena_total = next_handle - arena_start;
  // Region ids are seed indices, so the per-victim region assignment is
  // the analysis' victim_seed verbatim — no lookup table.
  plan->victim_region = analysis.victim_seed;
}

void StructuralCore::collect_events(VNodeId root, const DeletionAnalysis& analysis,
                                    RegionPlan* out) const {
  FG_CHECK_MSG(analysis.is_dirty(root), "collecting from an unbroken RT");

  // Explicit worklist, left child before right child before the node itself
  // — the same order as the natural recursion, so the piece sequence (and
  // the dist engine's message sequence) is unchanged. Only dirty nodes and
  // the right spines of their clean children are ever visited: a clean perfect
  // subtree becomes a piece at first touch, in O(1), without being entered.
  // The recorded decisions stay valid at commit time because the commit
  // only clears links and tombstones nodes of this very script — the
  // leaf_count/height fields is_perfect reads are never touched.
  struct Frame {
    VNodeId h;
    VNodeId left = kNoVNode;
    VNodeId right = kNoVNode;
    int stage = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.stage == 0) {
      if (!analysis.is_dirty(f.h) && forest_.is_perfect(f.h)) {
        // Maximal clean perfect subtree: the next piece, detached whole.
        out->events.push_back({true, f.h});
        stack.pop_back();
        continue;
      }
      // Dead, red, or clean-but-imperfect: decompose.
      const auto& n = forest_.node(f.h);
      f.left = n.left;
      f.right = n.right;
      f.stage = 1;
      if (f.left != kNoVNode) stack.push_back({f.left});
    } else if (f.stage == 1) {
      f.stage = 2;
      if (f.right != kNoVNode) stack.push_back({f.right});
    } else {
      out->events.push_back({false, f.h});
      if (!analysis.is_dead_vnode(f.h)) ++out->red_teardowns;  // red helper
      stack.pop_back();
    }
  }
}

void StructuralCore::begin_break(const RepairPlan& plan) {
  // A stale plan — any mutation since planning, even one that left the
  // arena size unchanged (a teardown-only repair) — would replay a script
  // over state it no longer describes; fail loudly instead.
  FG_CHECK_MSG(plan.epoch == epoch_,
               "committing a stale plan: core mutated since planning");
  ++epoch_;
  FG_CHECK_MSG(plan.arena_start == forest_.arena_size(),
               "committing a stale plan: arena moved since planning");
  VNodeId base = forest_.reserve_range(plan.arena_total);
  FG_CHECK(base == plan.arena_start);
  last_repair_ = RepairStats{};
  last_repair_.regions = static_cast<int>(plan.regions.size());
  for (NodeId v : plan.victims) {
    // A recovery wave re-anchors processors that are already dead; a
    // deletion wave kills live ones. Either way, a liveness flip since
    // planning means the plan is stale.
    if (plan.recovery)
      FG_CHECK_MSG(!g_.is_alive(v), "recovery plan names a live processor");
    else
      FG_CHECK_MSG(g_.is_alive(v), "committing a stale plan: victim already dead");
    last_repair_.deleted_degree_gprime += gprime_.degree(v);
  }
}

std::vector<VNodeId> StructuralCore::break_region(const RegionPlan& region,
                                                  BreakEffects* effects) {
  // Everything mutated below is region-local — this region's own forest
  // nodes (unlinks, uncounted tombstones) and its reserved arena handles.
  // Shared state (multiplicity map, image graph, slot tables, counters, the
  // forest's live count) is only ever *recorded*, which is what makes
  // disjoint regions safe to break concurrently (docs/CONCURRENCY.md, the
  // break-effects argument).
  FG_CHECK_MSG(effects != nullptr, "break_region records into a BreakEffects");
  effects->reset();
  effects->affected_rts = static_cast<int>(region.roots.size());
  effects->edge_drops.reserve(region.events.size() + region.fresh.size() +
                              region.victim_edges.size());
  std::vector<VNodeId> out;
  out.reserve(region.pieces.size());

  // Replay the break-phase script: detach pieces, tear down dead and red
  // nodes (children always precede their parent in the script).
  for (const RegionPlan::Event& e : region.events) {
    const auto& n = forest_.node(e.h);
    if (n.parent != kNoVNode)
      effects->edge_drops.push_back({n.owner, forest_.node(n.parent).owner});
    if (e.is_piece) {
      forest_.unlink_from_parent(e.h);
      out.push_back(e.h);
    } else {
      effects->slot_ops.push_back({n.owner, n.other, e.h, n.is_leaf, false});
      forest_.remove_uncounted(e.h);
      ++effects->teardowns;
    }
  }

  // Spawn the anchor leaves: the j-th fresh leaf lands at its plan-time
  // handle arena_base + j; the region's helpers follow in the same range.
  // In a deletion wave f.dead is a victim still alive at this point, so its
  // image edge to the surviving owner drops. In a recovery wave
  // (RepairPlan::recovery) f.dead died long ago and the edge is already
  // gone — the anchor simply re-materializes.
  VNodeId leaf = region.arena_base;
  for (const RegionPlan::FreshLeaf& f : region.fresh) {
    if (g_.is_alive(f.dead)) effects->edge_drops.push_back({f.dead, f.owner});
    forest_.make_leaf_in(leaf, f.owner, f.dead);
    effects->slot_ops.push_back({f.owner, f.dead, leaf, true, true});
    ++effects->new_leaves;
    out.push_back(leaf++);
  }

  // Edges between two victims lose their image edge too; both endpoints
  // are in this region (G'-adjacent victims always share one), and the
  // pairs were fixed at plan time (RegionPlan::victim_edges).
  for (const auto& [v, y] : region.victim_edges) effects->edge_drops.push_back({v, y});

  FG_CHECK_MSG(out.size() == region.pieces.size(),
               "committed piece set diverged from the plan");
  return out;
}

void StructuralCore::apply_break_effects(const RegionPlan& region,
                                         const BreakEffects& effects) {
  last_repair_.affected_rts += effects.affected_rts;
  last_repair_.helpers_removed += region.red_teardowns;
  last_repair_.new_leaves += effects.new_leaves;
  last_repair_.pieces += static_cast<int>(region.pieces.size());

  // The batched stitch, mirror image of apply_merge_effects: replay every
  // multiplicity decrement in break order, collecting only the 1 -> 0
  // transitions, then flip the image edges in one Graph::apply_edge_deltas
  // pass. Each undirected edge reaches zero at most once per wave (the
  // break only ever decrements), so the batch contract holds.
  delta_scratch_.clear();
  for (const auto& [u, v] : effects.edge_drops) {
    if (u == v) continue;  // homomorphism collapses same-processor edges
    note_image_touch(u, v);
    if (image_multiplicity_.decrement(edge_key(u, v)) == 0)
      delta_scratch_.push_back({u, v, EdgeDelta::Op::kRemove});
  }
  g_.apply_edge_deltas(delta_scratch_);

  // Replay the slot writes in script order. A victim's own slots are
  // cleared here too, before finish_break wipes its table wholesale.
  for (const BreakEffects::SlotOp& op : effects.slot_ops) {
    if (op.attach) {
      SlotTable::Entry& s = slots_.ensure(op.owner, op.other);
      FG_CHECK(s.leaf == kNoVNode && s.helper == kNoVNode);
      s.leaf = op.h;  // only anchor leaves attach during a break
    } else {
      SlotTable::Entry* s = slots_.find(op.owner, op.other);
      FG_CHECK(s != nullptr);
      if (op.is_leaf) {
        FG_CHECK(s->leaf == op.h);
        s->leaf = kNoVNode;
      } else {
        FG_CHECK(s->helper == op.h);
        s->helper = kNoVNode;
      }
      if (s->leaf == kNoVNode && s->helper == kNoVNode) slots_.erase(op.owner, op.other);
    }
  }
  forest_.credit_removals(effects.teardowns);
}

void StructuralCore::finish_break(const RepairPlan& plan) {
  // Recovery victims are already dead — there is nothing to kill.
  if (plan.recovery) return;
  // The processors themselves die. All of their image edges must be gone.
  for (NodeId v : plan.victims) {
    procs_[static_cast<size_t>(v)].alive = false;
    slots_.clear(v);
    FG_CHECK_MSG(g_.degree(v) == 0, "image bookkeeping left edges on a deleted node");
    g_.remove_node(v);
  }
}

VNodeId StructuralCore::merge_region(const RegionPlan& region,
                                     std::vector<VNodeId>&& pieces,
                                     MergeEffects* effects) {
  FG_CHECK_MSG(effects != nullptr, "merge_region records into a MergeEffects");
  FG_CHECK(pieces.size() == region.pieces.size());
  effects->reset();
  if (pieces.empty()) return kNoVNode;
  FG_CHECK_MSG(region.arena_base >= 0, "merge_region requires a reserved plan");
  pieces.reserve(pieces.size() + region.steps.size());
  effects->image_edges.reserve(2 * region.steps.size());
  // The region's helpers live right after its fresh leaves in the reserved
  // range; step s constructs handle arena_base + fresh + s. Everything
  // below touches region-local state only — the helper's reserved slot in
  // the pre-grown arena, the children's parent links, and the (existing)
  // slot entry of the representative leaf — which is why disjoint regions
  // can run this concurrently (docs/CONCURRENCY.md, the reservation
  // argument); shared-state writes are recorded, not applied.
  VNodeId next = region.arena_base + static_cast<VNodeId>(region.fresh.size());
  for (const auto& step : region.steps) {
    VNodeId l = pieces[static_cast<size_t>(step.left)];
    VNodeId r = pieces[static_cast<size_t>(step.right)];
    // Representative mechanism (Algorithm A.9): the left tree's
    // representative simulates the new helper; the merged root inherits
    // the right tree's representative.
    const auto& rep = forest_.node(forest_.node(l).rep);
    NodeId rep_owner = rep.owner;
    NodeId rep_other = rep.other;
    NodeId left_owner = forest_.node(l).owner;
    NodeId right_owner = forest_.node(r).owner;
    VNodeId h = forest_.make_helper_in(next++, rep_owner, rep_other, l, r);
    // In-place write to an existing entry: concurrent merges never insert
    // or erase slots, so the flat entry arrays are stable and disjoint
    // regions write disjoint entries (slot_table.h's concurrency contract).
    SlotTable::Entry* slot = slots_.find(rep_owner, rep_other);
    FG_CHECK_MSG(slot != nullptr, "representative leaf has no slot entry");
    FG_CHECK_MSG(slot->helper == kNoVNode,
                 "representative already simulates a helper");
    slot->helper = h;
    effects->image_edges.push_back({rep_owner, left_owner});
    effects->image_edges.push_back({rep_owner, right_owner});
    ++effects->helpers_created;
    FG_CHECK(static_cast<int>(pieces.size()) == step.result);
    pieces.push_back(h);
  }
  effects->root = pieces.back();
  return effects->root;
}

VNodeId StructuralCore::apply_merge_effects(const MergeEffects& effects) {
  // The batched stitch: bump every multiplicity first, collecting only the
  // 0 -> 1 transitions, then flip the image edges in one
  // Graph::apply_edge_deltas pass over the pooled delta buffer.
  delta_scratch_.clear();
  for (const auto& [u, v] : effects.image_edges) {
    if (u == v) continue;  // homomorphism collapses same-processor edges
    note_image_touch(u, v);
    if (image_multiplicity_.increment(edge_key(u, v)) == 1)
      delta_scratch_.push_back({u, v, EdgeDelta::Op::kAdd});
  }
  g_.apply_edge_deltas(delta_scratch_);
  last_repair_.helpers_created += effects.helpers_created;
  if (effects.root != kNoVNode)
    last_repair_.final_rt_leaves += forest_.node(effects.root).leaf_count;
  return effects.root;
}

void StructuralCore::check_reservation_settled(const RepairPlan& plan) const {
  FG_CHECK_MSG(forest_.unconstructed_in(plan.arena_start,
                                        plan.arena_start + plan.arena_total) == 0,
               "arena reservation not fully constructed after commit");
}

haft::PieceInfo StructuralCore::piece_info(VNodeId root) const {
  const auto& n = forest_.node(root);
  FG_CHECK(forest_.is_perfect(root));
  const auto& rep = forest_.node(n.rep);
  return {n.leaf_count, slot_key(rep.owner, rep.other)};
}

int StructuralCore::helper_count(NodeId v) const {
  FG_CHECK(v >= 0 && static_cast<size_t>(v) < procs_.size());
  int count = 0;
  for (const SlotTable::Entry& slot : slots_.entries(v))
    if (slot.helper != kNoVNode) ++count;
  return count;
}

std::vector<VNodeId> StructuralCore::slot_roots(NodeId v) const {
  FG_CHECK(v >= 0 && static_cast<size_t>(v) < procs_.size());
  std::vector<VNodeId> roots;
  for (const SlotTable::Entry& slot : slots_.entries(v))
    for (VNodeId h : {slot.leaf, slot.helper})
      if (h != kNoVNode) roots.push_back(forest_.root_of(h));
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

snap::VRow to_vrow(const VirtualForest::VNode& n) {
  return {n.owner, n.other, n.parent, n.left, n.right, n.rep,
          n.height, n.leaf_count, n.is_leaf, n.alive};
}

bool from_vrow(const snap::VRow& r, VirtualForest::VNode* out) {
  if (r.height < 0 || r.height > VirtualForest::kMaxHeight || r.leaf_count < 1 ||
      r.leaf_count > INT32_MAX)
    return false;
  out->owner = r.owner;
  out->other = r.other;
  out->parent = r.parent;
  out->left = r.left;
  out->right = r.right;
  out->rep = r.rep;
  out->leaf_count = static_cast<int32_t>(r.leaf_count);
  out->height = static_cast<int16_t>(r.height);
  out->is_leaf = r.is_leaf;
  out->alive = r.alive;
  return true;
}

void StructuralCore::save(std::ostream& os) const {
  os << "FGv1\n";
  os << "capacity " << gprime_.node_capacity() << '\n';
  os << "dead";
  for (NodeId v = 0; v < gprime_.node_capacity(); ++v)
    if (!g_.is_alive(v)) os << ' ' << v;
  os << '\n';
  os << "edges " << gprime_.edge_count() << '\n';
  for (NodeId v = 0; v < gprime_.node_capacity(); ++v)
    for (NodeId w : gprime_.neighbors(v))
      if (v < w) os << v << ' ' << w << '\n';
  const auto& arena = forest_.dump();
  os << "vnodes " << arena.size() << '\n';
  for (const auto& n : arena)
    os << n.alive << ' ' << n.is_leaf << ' ' << n.owner << ' ' << n.other << ' '
       << n.parent << ' ' << n.left << ' ' << n.right << ' ' << n.height << ' '
       << n.leaf_count << ' ' << n.rep << '\n';
  os << "end\n";
}

namespace {

/// Structural pre-validation of a deserialized arena against the processor
/// table: every alive row must name an alive owner, an in-range far
/// endpoint and links into alive in-range rows (from_vrow has already
/// range-checked every row's aggregates). Returns
/// an empty string when clean — the typed loaders run this before handing
/// rows to any Graph/forest call whose FG_CHECKs would abort the process.
template <class IsAlive>
std::string check_arena_rows(const std::vector<VirtualForest::VNode>& rows,
                             NodeId capacity, IsAlive&& is_alive) {
  const auto arena = static_cast<VNodeId>(rows.size());
  for (VNodeId h = 0; h < arena; ++h) {
    const auto& n = rows[static_cast<size_t>(h)];
    if (!n.alive) continue;
    if (n.owner < 0 || n.owner >= capacity || !is_alive(n.owner))
      return "forest row " + std::to_string(h) + ": owner is not an alive processor";
    if (n.other < 0 || n.other >= capacity)
      return "forest row " + std::to_string(h) + ": far endpoint out of range";
    for (VNodeId l : {n.parent, n.left, n.right})
      if (l != kNoVNode && (l < 0 || l >= arena || !rows[static_cast<size_t>(l)].alive))
        return "forest row " + std::to_string(h) + ": link outside the live arena";
    if (n.rep != kNoVNode && (n.rep < 0 || n.rep >= arena))
      return "forest row " + std::to_string(h) + ": representative out of range";
  }
  return {};
}

}  // namespace

bool StructuralCore::try_load(std::istream& is, StructuralCore* out,
                              std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  auto expect = [&is](const char* token) {
    std::string word;
    return static_cast<bool>(is >> word) && word == token;
  };

  StructuralCore core;
  if (!expect("FGv1")) return fail("missing FGv1 header");
  if (!expect("capacity")) return fail("missing capacity section");
  NodeId capacity = 0;
  if (!(is >> capacity) || capacity < 0) return fail("bad capacity");
  for (NodeId i = 0; i < capacity; ++i) {
    core.gprime_.add_node();
    core.g_.add_node();
  }
  core.procs_.resize(static_cast<size_t>(capacity));
  core.slots_.resize(static_cast<size_t>(capacity));

  if (!expect("dead")) return fail("missing dead section");
  {
    std::string rest;
    std::getline(is, rest);
    std::istringstream ls(rest);
    NodeId v = kInvalidNode;
    while (ls >> v) {
      if (v < 0 || v >= capacity) return fail("dead id out of range");
      if (!core.g_.is_alive(v)) return fail("duplicate dead id");
      core.g_.remove_node(v);
      core.procs_[static_cast<size_t>(v)].alive = false;
    }
    if (!ls.eof()) return fail("garbage in dead section");
  }

  if (!expect("edges")) return fail("missing edges section");
  int64_t edges = 0;
  if (!(is >> edges) || edges < 0) return fail("bad edge count");
  core.image_multiplicity_.reserve(static_cast<size_t>(edges));
  for (int64_t i = 0; i < edges; ++i) {
    NodeId u = kInvalidNode, w = kInvalidNode;
    if (!(is >> u >> w)) return fail("truncated edge list");
    if (u < 0 || u >= capacity || w < 0 || w >= capacity || u == w)
      return fail("edge endpoint out of range");
    if (!core.gprime_.add_edge(u, w)) return fail("duplicate G' edge");
    if (core.g_.is_alive(u) && core.g_.is_alive(w)) {
      core.image_multiplicity_.increment(edge_key(u, w));
      core.g_.add_edge(u, w);
    }
  }

  if (!expect("vnodes")) return fail("missing vnodes section");
  int64_t arena_size = 0;
  if (!(is >> arena_size) || arena_size < 0) return fail("bad vnode count");
  std::vector<VirtualForest::VNode> arena;
  // Row-by-row growth: a truncated stream fails at its first missing row
  // instead of allocating a corrupt count's worth of arena up front.
  // Each row is read into the wide serialized form first, so narrowing into
  // the packed VNode follows from_vrow's range check instead of truncating.
  for (int64_t i = 0; i < arena_size; ++i) {
    snap::VRow r;
    if (!(is >> r.alive >> r.is_leaf >> r.owner >> r.other >> r.parent >> r.left >>
          r.right >> r.height >> r.leaf_count >> r.rep))
      return fail("truncated vnode row");
    if (!from_vrow(r, &arena.emplace_back()))
      return fail("forest row " + std::to_string(i) + ": aggregates out of range");
  }
  if (!expect("end")) return fail("missing end marker");
  if (std::string why = check_arena_rows(
          arena, capacity, [&](NodeId v) { return core.g_.is_alive(v); });
      !why.empty())
    return fail(std::move(why));
  core.forest_ = VirtualForest::from_dump(std::move(arena));

  // Rebuild the derived state: slot table and the virtual part of the image.
  const auto& nodes = core.forest_.dump();
  for (VNodeId h = 0; h < static_cast<VNodeId>(nodes.size()); ++h) {
    const auto& n = nodes[static_cast<size_t>(h)];
    if (!n.alive) continue;
    SlotTable::Entry& s = core.slots_.ensure(n.owner, n.other);
    if (n.is_leaf) {
      if (s.leaf != kNoVNode) return fail("slot leaf double-booked");
      s.leaf = h;
    } else {
      if (s.helper != kNoVNode) return fail("slot helper double-booked");
      s.helper = h;
    }
    if (n.parent != kNoVNode)
      core.add_image_edge(n.owner, nodes[static_cast<size_t>(n.parent)].owner);
  }
  *out = std::move(core);
  return true;
}

StructuralCore StructuralCore::load(std::istream& is) {
  StructuralCore core;
  std::string err;
  bool ok = try_load(is, &core, &err);
  FG_CHECK_MSG(ok, "malformed checkpoint");
  return core;
}

void StructuralCore::to_base_image(snap::BaseImage* out) const {
  out->epoch = epoch_;
  out->capacity = static_cast<uint32_t>(gprime_.node_capacity());

  out->dead.clear();
  for (NodeId v = 0; v < gprime_.node_capacity(); ++v)
    if (!g_.is_alive(v)) out->dead.push_back(static_cast<uint32_t>(v));

  // Canonical adjacency order, independent of how the edges accumulated.
  out->gprime_edges.clear();
  out->gprime_edges.reserve(static_cast<size_t>(gprime_.edge_count()));
  for (NodeId v = 0; v < gprime_.node_capacity(); ++v)
    for (NodeId w : gprime_.neighbors(v))
      if (v < w)
        out->gprime_edges.push_back(
            {static_cast<uint32_t>(v), static_cast<uint32_t>(w)});
  std::sort(out->gprime_edges.begin(), out->gprime_edges.end());

  out->forest_live = forest_.live_count();
  const auto& arena = forest_.dump();
  out->rows.clear();
  out->rows.reserve(arena.size());
  for (const auto& n : arena) out->rows.push_back(to_vrow(n));

  out->slots.clear();
  for (NodeId v = 0; v < static_cast<NodeId>(procs_.size()); ++v)
    for (const SlotTable::Entry& s : slots_.entries(v))
      out->slots.push_back({static_cast<uint32_t>(v), s.other, s.leaf, s.helper});

  out->mult.clear();
  out->mult.reserve(image_multiplicity_.size());
  image_multiplicity_.for_each([out](uint64_t key, int32_t count) {
    out->mult.push_back({static_cast<uint32_t>(key >> 32),
                         static_cast<uint32_t>(key & 0xFFFFFFFFu), count});
  });
  std::sort(out->mult.begin(), out->mult.end(),
            [](const snap::BaseImage::MultEntry& a, const snap::BaseImage::MultEntry& b) {
              return std::tie(a.u, a.v) < std::tie(b.u, b.v);
            });
}

bool StructuralCore::from_base_image(const snap::BaseImage& image, StructuralCore* out,
                                     std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };

  StructuralCore core;
  const NodeId capacity = static_cast<NodeId>(image.capacity);
  if (capacity < 0) return fail("capacity overflows NodeId");
  core.gprime_ = Graph(static_cast<int>(capacity));
  core.procs_.resize(static_cast<size_t>(capacity));
  core.slots_.resize(static_cast<size_t>(capacity));

  // Liveness first (the sections below validate against it); the healed
  // image G itself is built last, once the MULT section has been verified.
  for (uint32_t v : image.dead) {
    if (v >= image.capacity) return fail("dead id out of range");
    if (!core.procs_[v].alive) return fail("duplicate dead id");
    core.procs_[v].alive = false;
  }

  // Validate the G' section against the canonical on-disk order (strictly
  // ascending (u, v) with u < v — exactly what to_base_image emits), then
  // hand the whole list to the graph's bulk loader: O(E) appends instead of
  // one sorted insert per edge endpoint.
  {
    uint64_t prev_key = 0;
    for (const auto& [eu, ev] : image.gprime_edges) {
      if (eu >= image.capacity || ev >= image.capacity || eu == ev)
        return fail("G' edge endpoint out of range");
      if (eu > ev) return fail("duplicate or out-of-order G' edge");
      uint64_t key = slot_key(static_cast<NodeId>(eu), static_cast<NodeId>(ev));
      if (key <= prev_key) return fail("duplicate or out-of-order G' edge");
      prev_key = key;
    }
  }
  core.gprime_.add_edges_bulk(image.gprime_edges);

  // The healed image G and the multiplicity table are rebuilt straight from
  // the CRC-protected MULT section (a G edge exists iff its multiplicity is
  // positive). The section is not taken on faith: after the forest walk
  // below it is verified entry-by-entry against ground truth — the
  // alive-alive G' edges plus the forest's cross-processor parent links.
  std::vector<std::pair<uint64_t, int32_t>> mult_entries;
  mult_entries.reserve(image.mult.size());
  {
    uint64_t prev_key = 0;
    for (const snap::BaseImage::MultEntry& m : image.mult) {
      if (m.u >= m.v || m.v >= image.capacity || m.count <= 0)
        return fail("malformed MULT entry");
      if (!core.procs_[m.u].alive || !core.procs_[m.v].alive)
        return fail("MULT section disagrees with the rebuild");
      uint64_t key = slot_key(static_cast<NodeId>(m.u), static_cast<NodeId>(m.v));
      if (key <= prev_key) return fail("duplicate or out-of-order MULT entry");
      prev_key = key;
      mult_entries.emplace_back(key, m.count);
    }
  }
  std::vector<VirtualForest::VNode> arena;
  arena.reserve(image.rows.size());
  for (const snap::VRow& r : image.rows)
    if (!from_vrow(r, &arena.emplace_back()))
      return fail("forest row " + std::to_string(arena.size() - 1) +
                  ": aggregates out of range");
  if (std::string why = check_arena_rows(
          arena, capacity,
          [&](NodeId v) { return core.procs_[static_cast<size_t>(v)].alive; });
      !why.empty())
    return fail(std::move(why));
  core.forest_ = VirtualForest::from_dump(std::move(arena));
  if (core.forest_.live_count() != image.forest_live)
    return fail("forest live count disagrees with the rows");

  // Rebuild the slot table from ground truth (same walk as try_load) and
  // collect the forest's cross-processor parent-link keys for the MULT
  // verification merge below.
  std::vector<uint64_t> link_keys;
  const auto& nodes = core.forest_.dump();
  for (VNodeId h = 0; h < static_cast<VNodeId>(nodes.size()); ++h) {
    const auto& n = nodes[static_cast<size_t>(h)];
    if (!n.alive) continue;
    SlotTable::Entry& s = core.slots_.ensure(n.owner, n.other);
    if (n.is_leaf) {
      if (s.leaf != kNoVNode) return fail("slot leaf double-booked");
      s.leaf = h;
    } else {
      if (s.helper != kNoVNode) return fail("slot helper double-booked");
      s.helper = h;
    }
    if (n.parent != kNoVNode) {
      NodeId a = n.owner;
      NodeId b = nodes[static_cast<size_t>(n.parent)].owner;
      if (a != b) link_keys.push_back(edge_key(a, b));
    }
  }
  std::sort(link_keys.begin(), link_keys.end());
  // ...then hold the image's recorded SLOT and MULT sections against it: a
  // base whose derived sections disagree with its own forest was written by
  // a buggy producer or corrupted without tripping a CRC — refuse it.
  size_t slot_at = 0;
  for (NodeId v = 0; v < capacity; ++v) {
    for (const SlotTable::Entry& s : core.slots_.entries(v)) {
      if (slot_at >= image.slots.size()) return fail("SLOT section too short");
      const snap::BaseImage::SlotEntry& rec = image.slots[slot_at++];
      if (rec.owner != static_cast<uint32_t>(v) || rec.other != s.other ||
          rec.leaf != s.leaf || rec.helper != s.helper)
        return fail("SLOT section disagrees with the forest");
    }
  }
  if (slot_at != image.slots.size()) return fail("SLOT section too long");

  // Hold the recorded MULT section against ground truth: every key's count
  // must equal its alive-alive G' edges plus its parent links, with nothing
  // left over on either side. All three streams are in ascending key order
  // (validated or sorted above), so one linear merge replaces the hash
  // probe per entry that used to dominate large restores.
  if (image.dead.empty() && link_keys.empty()) {
    // Fast path (no deletions, no helpers — e.g. the first rotation after
    // an insert-only warmup): ground truth is exactly the G' edge list
    // with multiplicity one, so the verify is a straight comparison.
    if (mult_entries.size() != image.gprime_edges.size())
      return fail("MULT section disagrees with the rebuild");
    for (size_t i = 0; i < mult_entries.size(); ++i) {
      const auto& [eu, ev] = image.gprime_edges[i];
      if (mult_entries[i].first !=
              slot_key(static_cast<NodeId>(eu), static_cast<NodeId>(ev)) ||
          mult_entries[i].second != 1)
        return fail("MULT section disagrees with the rebuild");
    }
  } else {
    const auto& gp = image.gprime_edges;
    size_t ei = 0;
    size_t li = 0;
    auto next_alive_edge_key = [&]() -> uint64_t {
      while (ei < gp.size()) {
        const auto& [eu, ev] = gp[ei];
        if (core.procs_[eu].alive && core.procs_[ev].alive)
          return slot_key(static_cast<NodeId>(eu), static_cast<NodeId>(ev));
        ++ei;
      }
      return 0;  // exhausted; never a real key (low word of a key is v >= 1)
    };
    for (const auto& [key, count] : mult_entries) {
      int64_t derived = 0;
      while (next_alive_edge_key() == key) {
        ++derived;
        ++ei;
      }
      while (li < link_keys.size() && link_keys[li] == key) {
        ++derived;
        ++li;
      }
      if (derived != count) return fail("MULT section disagrees with the rebuild");
    }
    if (next_alive_edge_key() != 0 || li != link_keys.size())
      return fail("MULT section disagrees with the rebuild");
  }

  // Build the healed image G from the now-verified MULT section: an edge
  // exists iff its multiplicity is positive. When nobody is dead the MULT
  // keys equal the G' edge set (just proven above), so G is a straight
  // copy of G' — pool and all — instead of a rebuild.
  if (image.dead.empty() && mult_entries.size() == image.gprime_edges.size()) {
    core.g_ = core.gprime_;
  } else {
    core.g_ = Graph(static_cast<int>(capacity));
    for (uint32_t v : image.dead) core.g_.remove_node(static_cast<NodeId>(v));
    std::vector<std::pair<uint32_t, uint32_t>> image_pairs;
    image_pairs.reserve(mult_entries.size());
    for (const auto& [key, count] : mult_entries)
      image_pairs.emplace_back(static_cast<uint32_t>(key >> 32),
                               static_cast<uint32_t>(key & 0xFFFFFFFFu));
    core.g_.add_edges_bulk(image_pairs);
  }
  core.image_multiplicity_.load(mult_entries);

  core.epoch_ = image.epoch;
  *out = std::move(core);
  return true;
}

bool StructuralCore::apply_wave_delta(const snap::WaveDelta& delta,
                                      std::string* error) {
  auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };

  // 1. Insertions, in stream order: the delta pins each id, so replay must
  //    land on exactly the same consecutive ids the live run allocated.
  for (const snap::WaveDelta::Insert& ins : delta.inserts) {
    if (ins.id != static_cast<uint32_t>(gprime_.node_capacity()))
      return fail("insert id out of sequence");
    std::vector<NodeId> nb;
    nb.reserve(ins.neighbors.size());
    for (uint32_t y : ins.neighbors) {
      if (y >= ins.id) return fail("insert neighbor out of range");
      auto id = static_cast<NodeId>(y);
      if (!g_.is_alive(id)) return fail("insert neighbor is dead");
      nb.push_back(id);
    }
    std::vector<NodeId> dedup = nb;
    std::sort(dedup.begin(), dedup.end());
    if (std::adjacent_find(dedup.begin(), dedup.end()) != dedup.end())
      return fail("duplicate insert neighbor");
    insert_node(nb);
  }

  // 2. Forest: grow to the post-commit arena, overwrite the touched rows
  //    with their final values, settle the live count.
  const NodeId capacity = gprime_.node_capacity();
  if (delta.arena_size_after < static_cast<uint64_t>(forest_.arena_size()) ||
      delta.arena_size_after > static_cast<uint64_t>(INT32_MAX))
    return fail("arena size regressed or overflows");
  const auto arena_after = static_cast<VNodeId>(delta.arena_size_after);
  forest_.restore_grow(arena_after);
  for (const snap::WaveDelta::Row& rec : delta.rows) {
    if (rec.handle >= delta.arena_size_after) return fail("row handle out of range");
    VirtualForest::VNode n;
    if (!from_vrow(rec.row, &n)) return fail("row aggregates out of range");
    if (n.alive) {
      if (n.owner < 0 || n.owner >= capacity)
        return fail("row owner out of range");
      if (n.other < 0 || n.other >= capacity)
        return fail("row far endpoint out of range");
      for (VNodeId l : {n.parent, n.left, n.right})
        if (l != kNoVNode && (l < 0 || l >= arena_after))
          return fail("row link out of range");
      if (n.rep != kNoVNode && (n.rep < 0 || n.rep >= arena_after))
        return fail("row representative out of range");
    }
    forest_.restore_row(static_cast<VNodeId>(rec.handle), n);
  }
  if (delta.forest_live_after < 0 ||
      delta.forest_live_after > static_cast<int64_t>(delta.arena_size_after))
    return fail("forest live count out of range");
  forest_.restore_live_count(static_cast<int>(delta.forest_live_after));

  // 3. Multiplicities (final values), flipping the healed image's edges on
  //    present/absent transitions. Victims are still alive here, exactly as
  //    they were when the live wave dropped their edges to zero.
  for (const snap::WaveDelta::MultOp& m : delta.mult) {
    if (m.u >= m.v || m.v >= static_cast<uint32_t>(capacity) || m.count < 0)
      return fail("malformed multiplicity record");
    auto u = static_cast<NodeId>(m.u);
    auto v = static_cast<NodeId>(m.v);
    const uint64_t key = slot_key(u, v);
    const bool had = image_multiplicity_.count(key) > 0;
    const bool has = m.count > 0;
    image_multiplicity_.set_count(key, m.count);
    if (has && !had) {
      if (!g_.is_alive(u) || !g_.is_alive(v))
        return fail("image edge incident to a dead processor");
      if (!g_.add_edge(u, v)) return fail("image bookkeeping diverged (add)");
    } else if (!has && had) {
      if (!g_.remove_edge(u, v)) return fail("image bookkeeping diverged (remove)");
    }
  }

  // 4. Victims: tombstone, wipe their slot tables wholesale (mirrors
  //    finish_break — their per-slot erases are implicit).
  for (uint32_t vv : delta.victims) {
    if (vv >= static_cast<uint32_t>(capacity)) return fail("victim out of range");
    auto v = static_cast<NodeId>(vv);
    if (!g_.is_alive(v)) return fail("victim already dead");
    if (g_.degree(v) != 0) return fail("victim still has image edges");
    procs_[static_cast<size_t>(v)].alive = false;
    slots_.clear(v);
    g_.remove_node(v);
  }

  // 5. Surviving slots (final values; present == false erases).
  for (const snap::WaveDelta::SlotOp& op : delta.slots) {
    if (op.owner >= static_cast<uint32_t>(capacity) ||
        op.other >= static_cast<uint32_t>(capacity))
      return fail("slot key out of range");
    auto owner = static_cast<NodeId>(op.owner);
    auto other = static_cast<NodeId>(op.other);
    if (!op.present) {
      if (slots_.find(owner, other) != nullptr) slots_.erase(owner, other);
      continue;
    }
    if (!g_.is_alive(owner)) return fail("slot on a dead processor");
    if (op.leaf < 0 || op.leaf >= arena_after ||
        (op.helper != kNoVNode && (op.helper < 0 || op.helper >= arena_after)))
      return fail("slot handle out of range");
    SlotTable::Entry& s = slots_.ensure(owner, other);
    s.leaf = op.leaf;
    s.helper = op.helper;
  }

  epoch_ = delta.epoch_after;
  return true;
}

void StructuralCore::rebuild_for_recovery(const std::vector<uint8_t>& keep) {
  ++epoch_;  // corrupted-state surgery stales any outstanding plan
  const NodeId capacity = gprime_.node_capacity();

  // 1. Forest: tombstone everything outside the kept set. Kept rows must be
  //    alive and closed under links — the stabilizer's condemnation closure
  //    keeps whole components or nothing.
  std::vector<VirtualForest::VNode> rows = forest_.dump();
  FG_CHECK_MSG(keep.size() == rows.size(), "keep mask must cover the arena");
  for (size_t h = 0; h < rows.size(); ++h) {
    if (keep[h]) {
      FG_CHECK_MSG(rows[h].alive, "cannot keep a tombstoned forest row");
      for (VNodeId l : {rows[h].parent, rows[h].left, rows[h].right})
        FG_CHECK_MSG(l == kNoVNode ||
                         (l >= 0 && static_cast<size_t>(l) < rows.size() &&
                          keep[static_cast<size_t>(l)] != 0),
                     "kept forest row links outside the kept set");
      continue;
    }
    rows[h].alive = false;
    rows[h].parent = rows[h].left = rows[h].right = kNoVNode;
  }
  forest_ = VirtualForest::from_dump(std::move(rows));

  // 2. Slot table from scratch: exactly the kept rows' registrations.
  slots_ = SlotTable{};
  slots_.resize(static_cast<size_t>(capacity));

  // 3. Healed image from ground truth: alive-alive G' edges plus the kept
  //    parent links, with multiplicities recounted (same rebuild as load()).
  g_ = Graph{};
  for (NodeId v = 0; v < capacity; ++v) g_.add_node();
  for (NodeId v = 0; v < capacity; ++v)
    if (!procs_[static_cast<size_t>(v)].alive) g_.remove_node(v);
  image_multiplicity_ = util::FlatCountMap{};
  image_multiplicity_.reserve(static_cast<size_t>(gprime_.edge_count()));
  for (NodeId v = 0; v < capacity; ++v) {
    if (!procs_[static_cast<size_t>(v)].alive) continue;
    for (NodeId w : gprime_.neighbors(v))
      if (v < w && procs_[static_cast<size_t>(w)].alive) add_image_edge(v, w);
  }
  const auto& nodes = forest_.dump();
  for (VNodeId h = 0; h < static_cast<VNodeId>(nodes.size()); ++h) {
    const auto& n = nodes[static_cast<size_t>(h)];
    if (!n.alive) continue;
    SlotTable::Entry& s = slots_.ensure(n.owner, n.other);
    if (n.is_leaf) {
      FG_CHECK_MSG(s.leaf == kNoVNode, "kept rows double-book a slot leaf");
      s.leaf = h;
    } else {
      FG_CHECK_MSG(s.helper == kNoVNode, "kept rows double-book a slot helper");
      s.helper = h;
    }
    if (n.parent != kNoVNode)
      add_image_edge(n.owner, nodes[static_cast<size_t>(n.parent)].owner);
  }
}

void StructuralCore::inject_vnode_row(VNodeId h, const VirtualForest::VNode& row) {
  ++epoch_;
  std::vector<VirtualForest::VNode> rows = forest_.dump();
  FG_CHECK(h >= 0 && static_cast<size_t>(h) < rows.size());
  rows[static_cast<size_t>(h)] = row;
  forest_ = VirtualForest::from_dump(std::move(rows));
}

void StructuralCore::inject_slot(NodeId owner, NodeId other, VNodeId leaf,
                                 VNodeId helper) {
  ++epoch_;
  SlotTable::Entry& s = slots_.ensure(owner, other);
  s.leaf = leaf;
  s.helper = helper;
}

void StructuralCore::inject_erase_slot(NodeId owner, NodeId other) {
  ++epoch_;
  if (slots_.find(owner, other) != nullptr) slots_.erase(owner, other);
}

void StructuralCore::inject_image_edge_flip(NodeId u, NodeId v) {
  ++epoch_;
  if (g_.has_edge(u, v))
    g_.remove_edge(u, v);
  else
    g_.add_edge(u, v);
}

void StructuralCore::inject_multiplicity_bump(NodeId u, NodeId v) {
  ++epoch_;
  image_multiplicity_.increment(edge_key(u, v));
}

void StructuralCore::validate() const {
  // --- I1: slot consistency.
  for (NodeId u = 0; u < static_cast<NodeId>(procs_.size()); ++u) {
    const Proc& p = procs_[static_cast<size_t>(u)];
    FG_CHECK(p.alive == g_.is_alive(u));
    if (!p.alive) {
      FG_CHECK(slots_.count(u) == 0);
      continue;
    }
    for (const SlotTable::Entry& slot : slots_.entries(u)) {
      const NodeId other = slot.other;
      FG_CHECK_MSG(gprime_.has_edge(u, other), "slot without a G' edge");
      FG_CHECK_MSG(!g_.is_alive(other), "slot for an alive neighbor");
      FG_CHECK(slot.leaf != kNoVNode);  // helper implies leaf, leaf tracks dead edge
      const auto& leaf = forest_.node(slot.leaf);
      FG_CHECK(leaf.is_leaf && leaf.owner == u && leaf.other == other);
      if (slot.helper != kNoVNode) {
        const auto& h = forest_.node(slot.helper);
        FG_CHECK(!h.is_leaf && h.owner == u && h.other == other);
        // I4 (Lemma 3 corollary): the helper is an ancestor of its leaf.
        FG_CHECK_MSG(forest_.is_ancestor(slot.helper, slot.leaf),
                     "helper is not an ancestor of its real node");
      }
    }
    // Every dead G' neighbor must have a leaf slot.
    for (NodeId w : gprime_.neighbors(u))
      if (!g_.is_alive(w))
        FG_CHECK_MSG(slots_.find(u, w) != nullptr, "missing real node for dead edge");
  }

  // --- I2 + I3: forest structure, haft property, representative invariant.
  std::vector<VNodeId> seen_roots;
  for (NodeId u = 0; u < static_cast<NodeId>(procs_.size()); ++u)
    for (const SlotTable::Entry& slot : slots_.entries(u))
      for (VNodeId h : {slot.leaf, slot.helper})
        if (h != kNoVNode) seen_roots.push_back(forest_.root_of(h));
  std::sort(seen_roots.begin(), seen_roots.end());
  seen_roots.erase(std::unique(seen_roots.begin(), seen_roots.end()), seen_roots.end());
  for (VNodeId r : seen_roots) {
    FG_CHECK_MSG(forest_.valid_haft(r), "RT is not a haft");
    // Representative invariant on every internal node of the RT.
    for (VNodeId x : forest_.subtree_of(r)) {
      const auto& n = forest_.node(x);
      if (n.is_leaf) continue;
      int free_leaves = 0;
      VNodeId free_leaf = kNoVNode;
      for (VNodeId leaf : forest_.leaves_of(x)) {
        const auto& ln = forest_.node(leaf);
        const SlotTable::Entry* slot = slots_.find(ln.owner, ln.other);
        FG_CHECK(slot != nullptr);
        VNodeId helper = slot->helper;
        bool has_helper_inside = helper != kNoVNode && forest_.is_ancestor(x, helper);
        if (!has_helper_inside) {
          ++free_leaves;
          free_leaf = leaf;
        }
      }
      FG_CHECK_MSG(free_leaves == 1, "representative invariant violated (count)");
      FG_CHECK_MSG(free_leaf == n.rep, "representative invariant violated (identity)");
    }
  }

  // --- I5: the image graph equals a from-scratch rebuild.
  Graph rebuilt;
  for (NodeId u = 0; u < g_.node_capacity(); ++u) rebuilt.add_node();
  for (NodeId u = 0; u < g_.node_capacity(); ++u)
    if (!g_.is_alive(u)) rebuilt.remove_node(u);
  for (NodeId u = 0; u < gprime_.node_capacity(); ++u) {
    if (!g_.is_alive(u)) continue;
    for (NodeId w : gprime_.neighbors(u))
      if (u < w && g_.is_alive(w)) rebuilt.add_edge(u, w);
  }
  for (VNodeId r : seen_roots) {
    for (VNodeId x : forest_.subtree_of(r)) {
      const auto& n = forest_.node(x);
      if (n.parent == kNoVNode) continue;
      NodeId a = n.owner;
      NodeId b = forest_.node(n.parent).owner;
      if (a != b && !rebuilt.has_edge(a, b)) rebuilt.add_edge(a, b);
    }
  }
  FG_CHECK_MSG(g_.same_topology(rebuilt), "image graph diverged from rebuild");
}

}  // namespace fg::core
