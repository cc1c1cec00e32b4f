#include "harness/certificate.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "graph/algorithms.h"
#include "util/check.h"

namespace fg::harness {

void CertificateWriter::on_certificate(const cert::WaveCertificate& c) {
  c.save(*os_, include_cost_);
}

void CertificateBuilder::begin_wave(const core::StructuralCore& core,
                                    const core::RepairPlan& plan) {
  // The affected set: the only processors whose deg_G the commit can change
  // are the anchor owners (they lose the edge to the victim and gain their
  // fresh leaf's tree edges) and the owners of vnodes inside the affected
  // RT subtrees (their virtual edges are torn down and re-merged). Snapshot
  // deg_G for all of them before the commit mutates the image.
  degree_before_.clear();
  const Graph& g = core.image();
  const VirtualForest& forest = core.forest();
  auto note = [&](NodeId v) {
    if (!degree_before_.contains(v)) degree_before_.emplace(v, g.degree(v));
  };
  for (const core::RegionPlan& region : plan.regions) {
    for (const core::RegionPlan::FreshLeaf& fl : region.fresh) note(fl.owner);
    for (VNodeId root : region.roots)
      for (VNodeId h : forest.subtree_of(root)) note(forest.node(h).owner);
  }
  for (NodeId v : plan.victims) note(v);
}

namespace {

/// BFS over the healed image with first-discovery parents. The neighbor
/// views are sorted, so discovery order — and hence the witness path — is a
/// pure function of the topology.
std::vector<NodeId> bfs_parents(const Graph& g, NodeId src) {
  std::vector<NodeId> parent(static_cast<size_t>(g.node_capacity()), kInvalidNode);
  std::vector<char> seen(static_cast<size_t>(g.node_capacity()), 0);
  std::vector<NodeId> frontier{src}, next;
  seen[static_cast<size_t>(src)] = 1;
  while (!frontier.empty()) {
    next.clear();
    for (NodeId u : frontier)
      for (NodeId w : g.neighbors(u)) {
        if (seen[static_cast<size_t>(w)]) continue;
        seen[static_cast<size_t>(w)] = 1;
        parent[static_cast<size_t>(w)] = u;
        next.push_back(w);
      }
    frontier.swap(next);
  }
  return parent;
}

}  // namespace

cert::WaveCertificate CertificateBuilder::end_wave(
    const core::StructuralCore& core, const core::RepairPlan& plan, long wave,
    std::span<const VNodeId> region_roots, const cert::CostClaim* cost) const {
  FG_CHECK(region_roots.size() == plan.regions.size());
  const Graph& g = core.image();
  const Graph& gp = core.gprime();
  const VirtualForest& forest = core.forest();

  cert::WaveCertificate c;
  c.wave = wave;
  c.net_nodes = gp.node_capacity();
  c.alive_after = g.alive_count();
  c.degree_constant = cert::kDegreeConstant;
  c.stretch_bound = std::max(1, cert::ceil_log2(std::max(1, c.net_nodes)));
  c.victims = plan.victims;
  c.assign = plan.victim_region;

  // Region witnesses: each final RT in preorder, handles normalized to
  // local indices — only the tree shape survives, never an arena position,
  // so a checker needs no knowledge of the engine's arena.
  std::map<std::pair<NodeId, NodeId>, int> edge_region;
  for (size_t r = 0; r < plan.regions.size(); ++r) {
    const core::RegionPlan& region = plan.regions[r];
    cert::RegionCert rc;
    rc.id = region.id;
    rc.victims = region.victims;
    for (const core::RegionPlan::FreshLeaf& fl : region.fresh)
      rc.anchors.emplace_back(fl.owner, fl.dead);
    if (region_roots[r] != kNoVNode) {
      std::vector<VNodeId> pre = forest.subtree_of(region_roots[r]);
      std::unordered_map<VNodeId, int> local;
      local.reserve(pre.size());
      for (size_t i = 0; i < pre.size(); ++i)
        local.emplace(pre[i], static_cast<int>(i));
      auto idx = [&local](VNodeId h) {
        return h == kNoVNode ? -1 : local.at(h);
      };
      std::set<std::pair<NodeId, NodeId>> image;
      for (VNodeId h : pre) {
        const VirtualForest::VNode& n = forest.node(h);
        cert::RtNode rn;
        rn.owner = n.owner;
        rn.other = n.other;
        rn.is_leaf = n.is_leaf;
        rn.parent = h == region_roots[r] ? -1 : idx(n.parent);
        rn.left = idx(n.left);
        rn.right = idx(n.right);
        rc.nodes.push_back(rn);
        if (h != region_roots[r]) {
          NodeId a = n.owner;
          NodeId b = forest.node(n.parent).owner;
          if (a != b) image.insert({std::min(a, b), std::max(a, b)});
        }
      }
      rc.image_edges.assign(image.begin(), image.end());
      for (const auto& e : image) edge_region.emplace(e, region.id);
    }
    c.regions.push_back(std::move(rc));
  }

  // Degree claims for the surviving affected set, sorted by node id.
  {
    std::vector<std::pair<NodeId, int>> before(degree_before_.begin(),
                                               degree_before_.end());
    std::sort(before.begin(), before.end());
    for (const auto& [v, deg0] : before) {
      if (!g.is_alive(v)) continue;  // victims carry no survivor claim
      c.degrees.push_back(cert::DegreeClaim{v, gp.degree(v), deg0, g.degree(v)});
    }
  }

  // Stretch witnesses: a deterministic stride over the sorted alive nodes
  // picks the sources; each source pairs with its G'-farthest alive node
  // (smallest id on ties) and witnesses the healed-graph BFS path.
  std::map<std::pair<NodeId, NodeId>, cert::EdgeFact> facts;
  std::vector<NodeId> alive = g.alive_nodes();
  if (alive.size() >= 2) {
    size_t stride = std::max<size_t>(1, alive.size() / kStretchSamples);
    for (int s = 0; s < kStretchSamples; ++s) {
      size_t i = static_cast<size_t>(s) * stride;
      if (i >= alive.size()) break;
      NodeId x = alive[i];
      std::vector<int> dp = bfs_distances(gp, x);
      NodeId y = kInvalidNode;
      for (NodeId t : alive)
        if (t != x && dp[static_cast<size_t>(t)] > 0 &&
            (y == kInvalidNode ||
             dp[static_cast<size_t>(t)] > dp[static_cast<size_t>(y)]))
          y = t;
      if (y == kInvalidNode) continue;

      std::vector<NodeId> parent = bfs_parents(g, x);
      if (parent[static_cast<size_t>(y)] == kInvalidNode) continue;
      cert::StretchWitness w;
      w.x = x;
      w.y = y;
      w.dist_gprime = dp[static_cast<size_t>(y)];
      for (NodeId t = y; t != kInvalidNode; t = parent[static_cast<size_t>(t)]) {
        w.path.push_back(t);
        if (t == x) break;
      }
      std::reverse(w.path.begin(), w.path.end());
      FG_CHECK(w.path.front() == x && w.path.back() == y);

      for (size_t h = 0; h + 1 < w.path.size(); ++h) {
        NodeId u = std::min(w.path[h], w.path[h + 1]);
        NodeId v = std::max(w.path[h], w.path[h + 1]);
        if (facts.contains({u, v})) continue;
        cert::EdgeFact f;
        f.u = u;
        f.v = v;
        if (gp.has_edge(u, v)) {
          f.kind = cert::EdgeFact::Kind::kGPrime;
        } else if (auto it = edge_region.find({u, v}); it != edge_region.end()) {
          f.kind = cert::EdgeFact::Kind::kRtWave;
          f.region = it->second;
        } else {
          f.kind = cert::EdgeFact::Kind::kRtPrior;
        }
        facts.emplace(std::make_pair(u, v), f);
      }
      c.stretch.push_back(std::move(w));
    }
  }
  for (const auto& [key, f] : facts) {
    (void)key;
    c.facts.push_back(f);
  }

  if (cost != nullptr && cost->present) c.cost = *cost;
  return c;
}

}  // namespace fg::harness
