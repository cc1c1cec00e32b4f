// Protocol-count goldens for the distributed engine.
//
// The repair's cost sheet (messages, words, rounds, largest message,
// per-node traffic) is the paper's Lemma-4 measurement, and the order in
// which the message DAG dispatches fixes both FIFO delivery and the draw
// order of a seeded net::DeliveryPolicy. These tests replay one fixed
// churn stream through both merge modes under three delivery policies and
// pin every summed count to constants, so any change to the DAG, its
// dependents order or the network's bookkeeping that moves a single
// message, word or round fails here. kGlobalPlan must also end in the
// centralized engine's exact base-image bytes.
#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "fg/dist/dist_forgiving_graph.h"
#include "fg/forgiving_graph.h"
#include "graph/generators.h"
#include "snap/snapshot.h"
#include "util/rng.h"

namespace fg::dist {
namespace {

constexpr int kNodes = 1 << 10;
constexpr int kWaves = 20;
constexpr int kWave = 16;

/// Summed per-wave cost sheets plus the engine's lifetime traffic.
struct Counts {
  int64_t messages = 0;
  int64_t words = 0;
  int64_t rounds = 0;
  int max_message_words = 0;
  int64_t max_node_messages = 0;
  int64_t max_node_round_words = 0;
  int64_t life_messages = 0;
  int64_t life_words = 0;
  int64_t life_rounds = 0;

  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{" << c.messages << ", " << c.words << ", " << c.rounds << ", "
            << c.max_message_words << ", " << c.max_node_messages << ", "
            << c.max_node_round_words << ", " << c.life_messages << ", "
            << c.life_words << ", " << c.life_rounds << "}";
}

enum class Policy { kDefault, kDelayShuffle, kDropDup };

net::DeliveryPolicy policy_of(Policy p) {
  net::DeliveryPolicy d;
  d.seed = 0x5eed;
  if (p == Policy::kDelayShuffle) {
    d.max_extra_delay = 2;
    d.shuffle = true;
  } else if (p == Policy::kDropDup) {
    d.drop_one_in = 7;
    d.dup_one_in = 5;
  }
  return d;
}

std::vector<uint8_t> base_bytes(const core::StructuralCore& core) {
  snap::BaseImage image;
  core.to_base_image(&image);
  return snap::encode_base(image);
}

/// Replays the stream: per wave, one insert with three alive neighbours,
/// then a batched deletion of kWave alive processors. The stream depends
/// only on the (mode-independent) alive set, so every engine sees it alike.
/// `central`, when given, follows the same stream.
Counts replay(DistForgivingGraph& net, ForgivingGraph* central) {
  Rng rng(1021);
  Counts c;
  for (int w = 0; w < kWaves; ++w) {
    std::vector<NodeId> alive = net.image().alive_nodes();
    rng.shuffle(alive);
    const std::vector<NodeId> nbrs(alive.begin(), alive.begin() + 3);
    net.insert(nbrs);
    if (central != nullptr) central->insert(nbrs);

    alive = net.image().alive_nodes();
    rng.shuffle(alive);
    const std::vector<NodeId> victims(alive.begin(), alive.begin() + kWave);
    net.delete_batch(victims);
    if (central != nullptr) central->delete_batch(victims);

    const RepairCost& r = net.last_repair_cost();
    c.messages += r.messages;
    c.words += r.words;
    c.rounds += r.rounds;
    c.max_message_words = std::max(c.max_message_words, r.max_message_words);
    c.max_node_messages = std::max(c.max_node_messages, r.max_node_messages);
    c.max_node_round_words = std::max(c.max_node_round_words, r.max_node_round_words);
  }
  c.life_messages = net.lifetime_stats().messages;
  c.life_words = net.lifetime_stats().words;
  c.life_rounds = net.lifetime_stats().rounds;
  return c;
}

struct GoldenCase {
  MergeMode mode;
  Policy policy;
  Counts expected;
};

void PrintTo(const GoldenCase& g, std::ostream* os) {
  *os << (g.mode == MergeMode::kGlobalPlan ? "global" : "stagewise") << "/"
      << (g.policy == Policy::kDefault        ? "default"
          : g.policy == Policy::kDelayShuffle ? "delay+shuffle"
                                              : "drop+dup");
}

class DistProtocolGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DistProtocolGolden, CountsMatchRecordedConstants) {
  const GoldenCase& g = GetParam();
  Rng rng(77);
  const Graph g0 = make_sparse_random(kNodes, 8.0, rng);
  DistForgivingGraph net(g0, g.mode);
  net.set_delivery_policy(policy_of(g.policy));
  ForgivingGraph central(g0);
  const bool global = g.mode == MergeMode::kGlobalPlan;

  const Counts got = replay(net, global ? &central : nullptr);
  EXPECT_EQ(got, g.expected);
  net.validate();
  if (global) {
    EXPECT_EQ(base_bytes(net.core()), base_bytes(central.core()));
  }
}

// Recorded from the engine before the flat message DAG and the hash-free
// network; fields in Counts order.
INSTANTIATE_TEST_SUITE_P(
    Stream, DistProtocolGolden,
    ::testing::Values(
        GoldenCase{MergeMode::kGlobalPlan, Policy::kDefault,
                   {15436, 2766052, 220, 2089, 15, 4194, 15496, 2766172, 240}},
        GoldenCase{MergeMode::kGlobalPlan, Policy::kDelayShuffle,
                   {15436, 2766052, 504, 2089, 15, 4194, 15496, 2766172, 560}},
        GoldenCase{MergeMode::kGlobalPlan, Policy::kDropDup,
                   {8194, 576353, 145, 1577, 12, 3164, 8254, 576473, 165}},
        GoldenCase{MergeMode::kStageWise, Policy::kDefault,
                   {13843, 76448, 168, 57, 14, 86, 13903, 76568, 188}},
        GoldenCase{MergeMode::kStageWise, Policy::kDelayShuffle,
                   {13843, 76448, 438, 57, 14, 83, 13903, 76568, 495}},
        GoldenCase{MergeMode::kStageWise, Policy::kDropDup,
                   {8052, 47459, 128, 57, 12, 75, 8112, 47579, 148}}));

}  // namespace
}  // namespace fg::dist
