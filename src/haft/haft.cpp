#include "haft/haft.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "util/check.h"

namespace fg::haft {

int ceil_log2(int64_t l) {
  FG_CHECK(l >= 1);
  if (l == 1) return 0;
  return std::bit_width(static_cast<uint64_t>(l - 1));
}

namespace {

using Item = PlanWorkspace::Item;

bool item_less(const Item& a, const Item& b) {
  if (a.size != b.size) return a.size < b.size;
  if (a.key != b.key) return a.key < b.key;
  return a.idx < b.idx;
}

}  // namespace

std::vector<MergeStep> merge_plan(const std::vector<PieceInfo>& pieces) {
  PlanWorkspace ws;
  std::vector<MergeStep> plan;
  plan_into(pieces, /*chain=*/true, ws, plan);
  return plan;
}

std::vector<MergeStep> carry_plan(const std::vector<PieceInfo>& pieces) {
  PlanWorkspace ws;
  std::vector<MergeStep> plan;
  plan_into(pieces, /*chain=*/false, ws, plan);
  return plan;
}

// K-way bottom-up planner. Semantically this is still Algorithm A.9 —
// binary addition with carries, then the ascending chain — and it emits a
// step sequence *identical* to the textbook sorted-list formulation (pair
// the two smallest equal-sized trees, re-insert the carry, repeat; pinned
// by the MergePlan.MatchesReferenceImplementation regression test). The
// difference is purely mechanical: instead of erase/insert churn on one
// sorted vector (O(k) per carry, O(k^2) for the star-hub case where all k
// pieces have equal size), it sweeps the size classes bottom-up. A class's
// members are the input pieces of that size merged with the carries of the
// class below; both lists arrive sorted by (key, idx), so the merge is
// linear and the whole plan costs O(k log k) — the sort dominates.
//
// Why the class sweep reproduces the sorted-list order exactly:
//   * the scan of the sorted list only reaches size class s after class
//     s/2 is exhausted, so every carry into s exists before s is paired;
//   * carries are created left-to-right from a key-sorted class, so they
//     arrive in ascending (key, idx) order themselves;
//   * a carry is strictly bigger than every not-yet-paired piece of its
//     originating class, so pairing is always "two smallest first".
void plan_into(std::span<const PieceInfo> pieces, bool chain, PlanWorkspace& ws,
               std::vector<MergeStep>& plan) {
  for (const auto& p : pieces) FG_CHECK_MSG(is_pow2(p.leaf_count), "piece not perfect");
  const int k = static_cast<int>(pieces.size());
  plan.clear();
  if (k <= 1) return;

  std::vector<Item>& items = ws.items_;
  items.clear();
  for (int i = 0; i < k; ++i) items.push_back({pieces[i].leaf_count, pieces[i].key, i});
  std::sort(items.begin(), items.end(), item_less);
  plan.reserve(items.size());

  int next_idx = k;

  // Phase 1 (Algorithm A.9 lines 5-19): binary addition, one size class at
  // a time. `carry` always holds a single size (the class above the last
  // one processed); at most one piece per class survives unpaired.
  std::vector<Item>& survivors = ws.survivors_;  // distinct sizes, ascending
  std::vector<Item>& carry = ws.carry_;          // carries awaiting the next class
  std::vector<Item>& cls = ws.cls_;
  std::vector<Item>& next_carry = ws.next_carry_;
  survivors.clear();
  carry.clear();
  size_t i = 0;
  while (i < items.size() || !carry.empty()) {
    int64_t s = carry.empty() ? items[i].size
                              : (i < items.size() ? std::min(items[i].size, carry.front().size)
                                                  : carry.front().size);
    size_t j = i;
    while (j < items.size() && items[j].size == s) ++j;

    cls.clear();
    if (!carry.empty() && carry.front().size == s) {
      std::merge(items.begin() + static_cast<long>(i), items.begin() + static_cast<long>(j),
                 carry.begin(), carry.end(), std::back_inserter(cls), item_less);
      carry.clear();
    } else {
      cls.assign(items.begin() + static_cast<long>(i), items.begin() + static_cast<long>(j));
    }
    i = j;

    next_carry.clear();
    size_t m = 0;
    for (; m + 1 < cls.size(); m += 2) {
      // cls is key-sorted, so cls[m].key is the pair's minimum — the key
      // the carry inherits.
      plan.push_back({cls[m].idx, cls[m + 1].idx, next_idx});
      next_carry.push_back({s * 2, cls[m].key, next_idx++});
    }
    if (m < cls.size()) survivors.push_back(cls[m]);
    carry.swap(next_carry);
  }

  // Phase 2 (lines 20-28): all sizes now distinct; chain ascending, always
  // making the next (strictly bigger) tree the left child. Because the sizes
  // are distinct powers of two, the accumulated haft is always smaller than
  // the next tree, which keeps the haft property.
  if (chain) {
    for (size_t j = 0; j + 1 < survivors.size(); ++j) {
      MergeStep step{survivors[j + 1].idx, survivors[j].idx, next_idx++};
      plan.push_back(step);
      survivors[j + 1] = {survivors[j + 1].size + survivors[j].size,
                          std::min(survivors[j].key, survivors[j + 1].key), step.result};
    }
  }
}

// ---------------------------------------------------------------------------
// HaftForest

int HaftForest::make_leaf(uint64_t label) {
  Node n;
  n.label = label;
  nodes_.push_back(n);
  ++live_count_;
  return static_cast<int>(nodes_.size() - 1);
}

int HaftForest::join(int left, int right) {
  FG_CHECK(exists(left) && exists(right));
  FG_CHECK_MSG(nodes_[left].parent == -1 && nodes_[right].parent == -1,
               "join operands must be roots");
  Node n;
  n.is_leaf = false;
  n.left = left;
  n.right = right;
  n.height = 1 + std::max(nodes_[left].height, nodes_[right].height);
  n.leaf_count = nodes_[left].leaf_count + nodes_[right].leaf_count;
  nodes_.push_back(n);
  ++live_count_;
  int h = static_cast<int>(nodes_.size() - 1);
  nodes_[left].parent = h;
  nodes_[right].parent = h;
  return h;
}

int HaftForest::build(int64_t l, uint64_t first_label) {
  FG_CHECK(l >= 1);
  std::vector<int> leaves;
  leaves.reserve(static_cast<size_t>(l));
  for (int64_t i = 0; i < l; ++i) leaves.push_back(make_leaf(first_label + static_cast<uint64_t>(i)));
  return merge(leaves);
}

std::vector<int> HaftForest::strip(int root) {
  FG_CHECK(exists(root));
  FG_CHECK(nodes_[root].parent == -1);
  FG_CHECK_MSG(is_haft(root), "strip requires a haft");
  std::vector<int> out;
  int cur = root;
  // Walk the right spine (the "direct path towards the rightmost leaf"),
  // peeling off the complete left subtrees; the peeled nodes are exactly the
  // h-1 square-box nodes of Figure 3(b).
  while (!is_perfect(cur)) {
    int l = nodes_[cur].left;
    int r = nodes_[cur].right;
    FG_CHECK_MSG(is_perfect(l), "left child of a haft node must be complete");
    detach(l);
    detach(r);
    out.push_back(l);
    tombstone(cur);
    cur = r;
  }
  out.push_back(cur);
  return out;
}

std::vector<int> HaftForest::strip_fragment(int root) {
  FG_CHECK(exists(root));
  FG_CHECK(nodes_[root].parent == -1);
  std::vector<int> out;
  collect_perfect(root, &out);
  return out;
}

void HaftForest::collect_perfect(int h, std::vector<int>* out) {
  if (is_perfect(h)) {
    detach(h);
    out->push_back(h);
    return;
  }
  int l = nodes_[h].left;
  int r = nodes_[h].right;
  if (l != -1) collect_perfect(l, out);
  if (r != -1) collect_perfect(r, out);
  tombstone(h);
}

int HaftForest::merge(const std::vector<int>& roots) {
  FG_CHECK(!roots.empty());
  std::vector<int> piece_handles;
  for (int r : roots) {
    auto pieces = strip_fragment(r);
    piece_handles.insert(piece_handles.end(), pieces.begin(), pieces.end());
  }
  if (piece_handles.size() == 1) return piece_handles.front();

  std::vector<PieceInfo> infos;
  infos.reserve(piece_handles.size());
  for (int h : piece_handles) {
    // Deterministic key: the smallest leaf label in the piece.
    auto labels = leaf_labels(h);
    uint64_t key = *std::min_element(labels.begin(), labels.end());
    infos.push_back({nodes_[h].leaf_count, key});
  }
  auto plan = merge_plan(infos);
  for (const auto& step : plan) {
    int made = join(piece_handles[static_cast<size_t>(step.left)],
                    piece_handles[static_cast<size_t>(step.right)]);
    FG_CHECK(static_cast<int>(piece_handles.size()) == step.result);
    piece_handles.push_back(made);
  }
  int result = piece_handles.back();
  FG_CHECK_MSG(is_haft(result), "merge must produce a haft");
  return result;
}

void HaftForest::detach(int h) {
  FG_CHECK(exists(h));
  int p = nodes_[h].parent;
  if (p == -1) return;
  if (nodes_[p].left == h) nodes_[p].left = -1;
  if (nodes_[p].right == h) nodes_[p].right = -1;
  nodes_[h].parent = -1;
}

const HaftForest::Node& HaftForest::node(int h) const {
  FG_CHECK(exists(h));
  return nodes_[static_cast<size_t>(h)];
}

bool HaftForest::exists(int h) const {
  return h >= 0 && h < static_cast<int>(nodes_.size()) && nodes_[static_cast<size_t>(h)].alive;
}

int HaftForest::root_of(int h) const {
  FG_CHECK(exists(h));
  while (nodes_[static_cast<size_t>(h)].parent != -1) h = nodes_[static_cast<size_t>(h)].parent;
  return h;
}

bool HaftForest::is_perfect(int h) const {
  const Node& n = node(h);
  return n.leaf_count == (int64_t{1} << n.height);
}

bool HaftForest::is_primary_root(int h) const {
  const Node& n = node(h);
  if (!is_perfect(h)) return false;
  return n.parent == -1 || !is_perfect(n.parent);
}

namespace {
// Recompute (leaves, height) and verify the stored fields; returns false on
// any structural inconsistency.
struct Validator {
  const HaftForest& f;
  bool ok = true;

  std::pair<int64_t, int> visit(int h) {
    if (!f.exists(h)) {
      ok = false;
      return {0, 0};
    }
    const auto& n = f.node(h);
    if (n.is_leaf) {
      if (n.left != -1 || n.right != -1 || n.leaf_count != 1 || n.height != 0) ok = false;
      return {1, 0};
    }
    if (n.left == -1 || n.right == -1) {
      ok = false;
      return {0, 0};
    }
    if (f.node(n.left).parent != h || f.node(n.right).parent != h) ok = false;
    auto [ll, lh] = visit(n.left);
    auto [rl, rh] = visit(n.right);
    int64_t leaves = ll + rl;
    int height = 1 + std::max(lh, rh);
    if (leaves != n.leaf_count || height != n.height) ok = false;
    // Haft property: the left child roots a complete subtree holding at
    // least half the leaves.
    if (!(f.node(n.left).leaf_count == (int64_t{1} << f.node(n.left).height))) ok = false;
    if (ll < rl) ok = false;
    return {leaves, height};
  }
};
}  // namespace

bool HaftForest::is_haft(int root) const {
  if (!exists(root)) return false;
  Validator v{*this};
  v.visit(root);
  return v.ok;
}

std::vector<uint64_t> HaftForest::leaf_labels(int root) const {
  std::vector<uint64_t> out;
  std::vector<int> stack{root};
  while (!stack.empty()) {
    int h = stack.back();
    stack.pop_back();
    const Node& n = node(h);
    if (n.is_leaf) {
      out.push_back(n.label);
      continue;
    }
    // Right pushed first so that the left subtree is emitted first.
    if (n.right != -1) stack.push_back(n.right);
    if (n.left != -1) stack.push_back(n.left);
  }
  return out;
}

int HaftForest::depth(int root) const { return node(root).height; }

void HaftForest::tombstone(int h) {
  FG_CHECK(exists(h));
  detach(h);
  nodes_[static_cast<size_t>(h)].alive = false;
  nodes_[static_cast<size_t>(h)].left = -1;
  nodes_[static_cast<size_t>(h)].right = -1;
  --live_count_;
}

}  // namespace fg::haft
