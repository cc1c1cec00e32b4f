#include "fg/virtual_forest.h"

#include <gtest/gtest.h>

namespace fg {
namespace {

// Build through the reservation API the engines use: one handle reserved,
// then constructed in place.
VNodeId new_leaf(VirtualForest& f, NodeId owner, NodeId other) {
  VNodeId h = f.reserve_range(1);
  f.make_leaf_in(h, owner, other);
  return h;
}

VNodeId new_helper(VirtualForest& f, NodeId owner, NodeId other, VNodeId left,
                   VNodeId right) {
  return f.make_helper_in(f.reserve_range(1), owner, other, left, right);
}

TEST(SlotKey, OrderingAndUniqueness) {
  EXPECT_LT(slot_key(0, 1), slot_key(0, 2));
  EXPECT_LT(slot_key(0, 99), slot_key(1, 0));
  EXPECT_NE(slot_key(1, 2), slot_key(2, 1));
}

TEST(VirtualForest, LeafBasics) {
  VirtualForest f;
  VNodeId leaf = new_leaf(f, 3, 7);
  const auto& n = f.node(leaf);
  EXPECT_TRUE(n.is_leaf);
  EXPECT_EQ(n.owner, 3);
  EXPECT_EQ(n.other, 7);
  EXPECT_EQ(n.rep, leaf);  // a real node is its own representative
  EXPECT_EQ(n.leaf_count, 1);
  EXPECT_TRUE(f.is_perfect(leaf));
  EXPECT_TRUE(f.valid_haft(leaf));
}

TEST(VirtualForest, HelperJoinSetsFields) {
  VirtualForest f;
  VNodeId a = new_leaf(f, 0, 9);
  VNodeId b = new_leaf(f, 1, 9);
  VNodeId h = new_helper(f, 0, 9, a, b);
  const auto& n = f.node(h);
  EXPECT_FALSE(n.is_leaf);
  EXPECT_EQ(n.left, a);
  EXPECT_EQ(n.right, b);
  EXPECT_EQ(n.height, 1);
  EXPECT_EQ(n.leaf_count, 2);
  EXPECT_EQ(n.rep, b);  // inherits the right child's representative
  EXPECT_EQ(f.node(a).parent, h);
  EXPECT_EQ(f.node(b).parent, h);
  EXPECT_TRUE(f.valid_haft(h));
  EXPECT_EQ(f.root_of(a), h);
}

TEST(VirtualForest, UnlinkAndRemove) {
  VirtualForest f;
  VNodeId a = new_leaf(f, 0, 9);
  VNodeId b = new_leaf(f, 1, 9);
  VNodeId h = new_helper(f, 0, 9, a, b);
  f.unlink_from_parent(a);
  f.unlink_from_parent(b);
  EXPECT_EQ(f.node(a).parent, kNoVNode);
  EXPECT_EQ(f.node(h).left, kNoVNode);
  f.remove_uncounted(h);
  f.credit_removals(1);
  EXPECT_FALSE(f.exists(h));
  EXPECT_TRUE(f.exists(a));
  EXPECT_EQ(f.live_count(), 2);
}

TEST(VirtualForest, IsAncestor) {
  VirtualForest f;
  VNodeId a = new_leaf(f, 0, 9);
  VNodeId b = new_leaf(f, 1, 9);
  VNodeId c = new_leaf(f, 2, 9);
  VNodeId h1 = new_helper(f, 0, 9, a, b);
  VNodeId h2 = new_helper(f, 1, 9, h1, c);
  EXPECT_TRUE(f.is_ancestor(h2, a));
  EXPECT_TRUE(f.is_ancestor(h1, a));
  EXPECT_TRUE(f.is_ancestor(a, a));
  EXPECT_FALSE(f.is_ancestor(h1, c));
  EXPECT_FALSE(f.is_ancestor(a, h1));
}

TEST(VirtualForest, LeavesAndSubtreeEnumeration) {
  VirtualForest f;
  VNodeId a = new_leaf(f, 0, 9);
  VNodeId b = new_leaf(f, 1, 9);
  VNodeId c = new_leaf(f, 2, 9);
  VNodeId h1 = new_helper(f, 0, 9, a, b);
  VNodeId h2 = new_helper(f, 1, 9, h1, c);
  auto leaves = f.leaves_of(h2);
  EXPECT_EQ(leaves, (std::vector<VNodeId>{a, b, c}));  // left-to-right
  EXPECT_EQ(f.subtree_of(h2).size(), 5u);
  EXPECT_EQ(f.subtree_of(h1).size(), 3u);
}

TEST(VirtualForest, ValidHaftRejectsLeftImbalance) {
  VirtualForest f;
  VNodeId a = new_leaf(f, 0, 9);
  VNodeId b = new_leaf(f, 1, 9);
  VNodeId c = new_leaf(f, 2, 9);
  VNodeId h1 = new_helper(f, 0, 9, a, b);
  // Left child must be the bigger/perfect side; (c, h1) violates it.
  VNodeId bad = new_helper(f, 1, 9, c, h1);
  EXPECT_FALSE(f.valid_haft(bad));
}

TEST(VirtualForestDeathTest, HelperOverNonRootsRejected) {
  VirtualForest f;
  VNodeId a = new_leaf(f, 0, 9);
  VNodeId b = new_leaf(f, 1, 9);
  VNodeId h = new_helper(f, 0, 9, a, b);
  VNodeId c = new_leaf(f, 2, 9);
  (void)h;
  EXPECT_DEATH(new_helper(f, 2, 9, a, c), "roots");
}

TEST(VirtualForestDeathTest, RemoveWithChildrenRejected) {
  VirtualForest f;
  VNodeId a = new_leaf(f, 0, 9);
  VNodeId b = new_leaf(f, 1, 9);
  VNodeId h = new_helper(f, 0, 9, a, b);
  EXPECT_DEATH(f.remove_uncounted(h), "detached");
}

}  // namespace
}  // namespace fg
