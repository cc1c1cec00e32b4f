// WorkerPool::run, the one fan-out primitive of the repair pipeline
// (docs/CONCURRENCY.md, "Scheduling freedom"):
//
//   * fn(i) runs exactly once for every i in [0, items), and run returns
//     only once all of them have finished — including the degenerate
//     0- and 1-item runs and runs with fewer items than participants.
//   * At most `participants` threads (the caller included) ever call fn.
//   * Back-to-back runs never leak: a worker that wakes late finds its
//     job's counter exhausted and never calls a finished run's fn.
//
// The tsan and asan presets include this suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "fg/sharded_forest.h"

namespace fg {
namespace {

// Run `items` indices and check each ran exactly once by the time run
// returned.
void expect_each_index_once(WorkerPool& pool, int participants, int items) {
  std::vector<std::atomic<int>> hits(static_cast<size_t>(items));
  pool.run(participants, items, [&](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < items; ++i)
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
        << "index " << i << " of " << items << ", participants " << participants;
}

TEST(WorkerPool, ZeroAndOneItemsRunInlineOnTheCaller) {
  WorkerPool pool(3);
  int calls = 0;
  pool.run(4, 0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::thread::id ran_on;
  pool.run(4, 1, [&](int i) {
    EXPECT_EQ(i, 0);
    ++calls;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(WorkerPool, InlineWithoutThreadsOrWithOneParticipant) {
  for (int background : {0, 2}) {
    WorkerPool pool(background);
    const int participants = background == 0 ? 4 : 1;
    std::set<std::thread::id> ids;  // no lock: must all be this thread
    pool.run(participants, 16, [&](int) { ids.insert(std::this_thread::get_id()); });
    EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()})
        << "background " << background;
  }
}

TEST(WorkerPool, FewerItemsThanParticipants) {
  WorkerPool pool(3);
  for (int items = 0; items < 4; ++items) expect_each_index_once(pool, 4, items);
  expect_each_index_once(pool, 8, 5);  // more participants than threads
}

TEST(WorkerPool, AtMostParticipantsThreadsCallFn) {
  WorkerPool pool(3);
  for (int participants : {1, 2, 3, 4, 8}) {
    for (int round = 0; round < 5; ++round) {
      std::mutex mu;
      std::set<std::thread::id> ids;
      pool.run(participants, 32, [&](int) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ids.insert(std::this_thread::get_id());
        }
        // Long enough that every woken thread gets a chance to join.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
      EXPECT_LE(static_cast<int>(ids.size()), std::min(participants, 4))
          << "participants " << participants << ", round " << round;
    }
  }
}

TEST(WorkerPool, BackToBackRunsNeverRunAStaleJob) {
  // 10k runs with alternating sizes through one pool. Every run's
  // per-index counters live on this frame and die when the run returns, so
  // a late waker that ran a finished job's fn would write freed memory
  // (ASan/TSan) and bump `calls` past the expected total.
  std::atomic<int64_t> calls{0};
  int64_t expected = 0;
  auto pool = std::make_unique<WorkerPool>(3);
  constexpr int kSizes[] = {2, 7, 0, 1, 16, 3};
  for (int k = 0; k < 10000; ++k) {
    const int items = kSizes[k % 6];
    std::vector<std::atomic<int>> hits(static_cast<size_t>(items));
    pool->run(4, items, [&](int i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    expected += items;
    for (int i = 0; i < items; ++i)
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "run " << k << ", index " << i;
    ASSERT_EQ(calls.load(), expected) << "run " << k;
  }
  pool.reset();  // joins every worker, late wakers included
  EXPECT_EQ(calls.load(), expected);
}

}  // namespace
}  // namespace fg
