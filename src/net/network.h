// Synchronous message-passing network simulator — the substrate standing in
// for a real peer-to-peer deployment (docs/DESIGN.md substitution S4).
//
// The paper's model (Figure 1) measures repairs in messages, bits per node,
// and rounds under unit edge latency. This simulator implements exactly that
// accounting: a message sent in round r is delivered in round r+1; a round
// executes all deliveries in deterministic (FIFO) order; quiescence ends the
// phase. Message payloads are protocol-defined (std::any); sizes are counted
// in machine words, each O(log n) bits wide. Per-processor bookkeeping is
// flat arrays indexed by NodeId, and the round buffers are reused, so a
// send allocates nothing once the arrays have grown.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace fg::net {

/// Cumulative traffic counters. `reset()` is used to carve out per-repair
/// figures.
struct NetStats {
  int64_t messages = 0;
  int64_t words = 0;              ///< Total payload words sent.
  int rounds = 0;                 ///< Rounds executed by run_to_quiescence.
  int max_message_words = 0;      ///< Largest single message.
  /// Per-processor sends since the last reset(), indexed by NodeId. Grown
  /// to the highest sender id seen; a processor that sent nothing reads 0.
  /// int32 keeps this id-sized array small: a count covers one repair.
  std::vector<int32_t> sent_by;
  /// The paper's success metric 3 ("Communication per node: the maximum
  /// number of bits sent by a single node in a single recovery round"),
  /// in words: max over (node, round) of words that node sent that round.
  int64_t max_node_round_words = 0;

  int64_t max_node_sent() const;
  /// Zero every counter; sent_by keeps its size, so a reset costs the
  /// number of processors that sent since the last one.
  void reset();

 private:
  friend class Network;
  std::vector<NodeId> senders_;  ///< Ids with a nonzero sent_by entry.
};

/// Message delivery policy. The default models the paper's unit-latency
/// synchronous rounds; the knobs introduce (deterministic, seeded)
/// asynchrony: arbitrary per-message extra delay and randomized delivery
/// order within a round. The repair protocol must tolerate both — the
/// paper's model only promises that messages are eventually delivered
/// uncorrupted.
struct DeliveryPolicy {
  uint64_t seed = 0;
  int max_extra_delay = 0;  ///< Each message waits 1 + U[0, this] rounds.
  bool shuffle = false;     ///< Randomize intra-round delivery order.
  /// Fault-injection knobs (tests/network_fault_test.cpp), deterministic
  /// given the seed. The repair DAG tolerates either: a drop leaves its
  /// dependents undispatched (the wave's structure comes from the plan,
  /// which commits through the shared core regardless), a duplicate
  /// re-delivers into an already-satisfied dependency count.
  int drop_one_in = 0;  ///< Drop ~1/k of messages before any delay draw (0: off).
  int dup_one_in = 0;   ///< Deliver ~1/k of messages twice, each copy with
                        ///< its own independent delay draw (0: off).
};

/// Round-based network with unit-latency links and optional asynchrony.
class Network {
 public:
  /// Handler invoked at delivery: (to, from, payload).
  using Handler = std::function<void(NodeId, NodeId, const std::any&)>;

  void set_handler(Handler h) { handler_ = std::move(h); }

  void set_policy(const DeliveryPolicy& policy);

  /// Enqueue a message for delivery next round. `words` is the payload size
  /// in O(log n)-bit words and must be >= 1.
  void send(NodeId from, NodeId to, std::any payload, int words = 1);

  /// Deliver rounds until no message is in flight. Returns the number of
  /// rounds executed; aborts if `max_rounds` is exceeded (protocol bug).
  int run_to_quiescence(int max_rounds = 1 << 20);

  bool idle() const { return queue_.empty(); }

  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }

 private:
  struct Pending {
    NodeId from;
    NodeId to;
    std::any payload;
    int delay;  ///< Rounds remaining before delivery.
  };

  void enqueue(NodeId from, NodeId to, std::any payload);
  /// Zero the words of every processor that sent in the current round.
  void clear_round_words();

  std::vector<Pending> queue_;
  std::vector<uint32_t> due_;  ///< Queue positions the round delivers.
  Handler handler_;
  NetStats stats_;
  DeliveryPolicy policy_;
  Rng rng_{0};
  /// Words sent per processor within the current round (for
  /// max_node_round_words), indexed by NodeId, with the processors that
  /// sent this round listed in round_senders_ so a round resets in
  /// O(senders).
  std::vector<int32_t> round_words_;
  std::vector<NodeId> round_senders_;
};

}  // namespace fg::net
