// The churn op stream every workload replays.
//
// Same alive-pool mirror as bench/churn_common.h: a victim leaves the pool
// the moment its delete is generated, and every insert's future id (the
// engine assigns ids sequentially) joins it, so every op is valid when it is
// applied even though the service defers ops behind an in-flight plan. The
// stream is a pure function of (nodes, seed): the benchmark builds it in one
// thread and the engine only ever sees the ops.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "fg/healer_service.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace healbench {

/// Mean degree of every workload's make_sparse_random substrate.
inline constexpr double kAvgDegree = 8.0;
/// Share of deletes in every op stream.
inline constexpr double kDeleteShare = 0.5;

/// The substrate of a workload: make_sparse_random(nodes, 8) from the seed.
inline fg::Graph make_substrate(int nodes, uint64_t seed) {
  fg::Rng rng(seed);
  return fg::make_sparse_random(nodes, kAvgDegree, rng);
}

class OpGenerator {
 public:
  OpGenerator(int nodes, uint64_t seed)
      : rng_(seed ^ 0x5bd1e9955bd1e995ULL),
        pool_(static_cast<size_t>(nodes)),
        next_id_(static_cast<fg::NodeId>(nodes)) {
    std::iota(pool_.begin(), pool_.end(), fg::NodeId{0});
  }

  fg::ChurnOp next() {
    // Never churn the substrate below a floor (as churn_common.h does).
    if (pool_.size() > 64 && rng_.next_bool(kDeleteShare)) {
      size_t j = static_cast<size_t>(rng_.next_below(pool_.size()));
      fg::NodeId victim = pool_[j];
      pool_[j] = pool_.back();
      pool_.pop_back();
      return fg::ChurnOp::Delete(victim);
    }
    fg::NodeId a = rng_.pick(pool_);
    fg::NodeId b = a;
    while (b == a) b = rng_.pick(pool_);
    pool_.push_back(next_id_++);
    return fg::ChurnOp::Insert({a, b});
  }

  std::vector<fg::ChurnOp> take(int64_t count) {
    std::vector<fg::ChurnOp> ops;
    ops.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) ops.push_back(next());
    return ops;
  }

 private:
  fg::Rng rng_;
  std::vector<fg::NodeId> pool_;
  fg::NodeId next_id_;
};

}  // namespace healbench
