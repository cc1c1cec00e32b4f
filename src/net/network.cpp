#include "net/network.h"

#include <algorithm>

#include "util/check.h"

namespace fg::net {

int64_t NetStats::max_node_sent() const {
  int64_t best = 0;
  for (NodeId v : senders_) best = std::max<int64_t>(best, sent_by[static_cast<size_t>(v)]);
  return best;
}

void NetStats::reset() {
  messages = 0;
  words = 0;
  rounds = 0;
  max_message_words = 0;
  for (NodeId v : senders_) sent_by[static_cast<size_t>(v)] = 0;
  senders_.clear();
  max_node_round_words = 0;
}

void Network::set_policy(const DeliveryPolicy& policy) {
  FG_CHECK(policy.max_extra_delay >= 0);
  FG_CHECK(policy.drop_one_in >= 0);
  FG_CHECK(policy.dup_one_in >= 0);
  policy_ = policy;
  rng_ = Rng(policy.seed);
}

void Network::enqueue(NodeId from, NodeId to, std::any payload) {
  // The drop decision comes before any delay draw, so enabling delays does
  // not reshuffle which messages an identically-seeded policy drops.
  if (policy_.drop_one_in > 0 &&
      rng_.next_below(static_cast<uint64_t>(policy_.drop_one_in)) == 0)
    return;
  int copies = 1;
  if (policy_.dup_one_in > 0 &&
      rng_.next_below(static_cast<uint64_t>(policy_.dup_one_in)) == 0)
    copies = 2;
  for (int c = copies; c > 0; --c) {
    int delay = 1;
    if (policy_.max_extra_delay > 0)
      delay += static_cast<int>(rng_.next_below(
          static_cast<uint64_t>(policy_.max_extra_delay) + 1));
    if (c > 1)
      queue_.push_back(Pending{from, to, payload, delay});
    else
      queue_.push_back(Pending{from, to, std::move(payload), delay});
  }
}

void Network::send(NodeId from, NodeId to, std::any payload, int words) {
  FG_CHECK(words >= 1);
  FG_CHECK(from >= 0);
  ++stats_.messages;
  stats_.words += words;
  stats_.max_message_words = std::max(stats_.max_message_words, words);
  const auto v = static_cast<size_t>(from);
  if (v >= stats_.sent_by.size()) stats_.sent_by.resize(v + 1, 0);
  if (stats_.sent_by[v]++ == 0) stats_.senders_.push_back(from);
  if (v >= round_words_.size()) round_words_.resize(v + 1, 0);
  if (round_words_[v] == 0) round_senders_.push_back(from);
  round_words_[v] += words;
  stats_.max_node_round_words =
      std::max<int64_t>(stats_.max_node_round_words, round_words_[v]);
  enqueue(from, to, std::move(payload));
}

void Network::clear_round_words() {
  for (NodeId v : round_senders_) round_words_[static_cast<size_t>(v)] = 0;
  round_senders_.clear();
}

int Network::run_to_quiescence(int max_rounds) {
  FG_CHECK_MSG(handler_, "network has no handler");
  int rounds = 0;
  while (!queue_.empty()) {
    FG_CHECK_MSG(rounds < max_rounds, "protocol did not quiesce");
    ++rounds;
    // This round delivers the messages whose delay runs out, in queue
    // order (or shuffled); the others stay queued in order, and handler
    // sends land behind them with their own delays.
    const size_t queued = queue_.size();
    due_.clear();
    for (size_t i = 0; i < queued; ++i)
      if (--queue_[i].delay <= 0) due_.push_back(static_cast<uint32_t>(i));
    if (policy_.shuffle) rng_.shuffle(due_);
    clear_round_words();  // sends below belong to this round
    for (uint32_t i : due_) {
      // Moved out first: the handler's sends may reallocate the queue.
      const Pending p = std::move(queue_[i]);
      handler_(p.to, p.from, p.payload);
    }
    size_t kept = 0;
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (i < queued && queue_[i].delay <= 0) continue;  // delivered
      if (kept != i) queue_[kept] = std::move(queue_[i]);
      ++kept;
    }
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept), queue_.end());
  }
  stats_.rounds += rounds;
  clear_round_words();
  return rounds;
}

}  // namespace fg::net
