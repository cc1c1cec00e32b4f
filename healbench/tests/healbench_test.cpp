// The benchmark's own tests: the op generator, the tail rule, open-loop
// accounting against a fake system that stalls, and a tiny-scale smoke of
// every workload's measured and traced run (C4 digests included).
//
// Run with `python3 healbench/run.py --selftest` from the checkout root.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "fg/healer_service.h"
#include "loop.h"
#include "ops.h"
#include "stats.h"
#include "workloads.h"

namespace healbench {
namespace {

TEST(OpGenerator, SameSeedSameStream) {
  OpGenerator a(512, 7), b(512, 7), c(512, 8);
  bool differs = false;
  for (int i = 0; i < 5000; ++i) {
    fg::ChurnOp x = a.next(), y = b.next(), z = c.next();
    ASSERT_EQ(x.kind, y.kind);
    ASSERT_EQ(x.victim, y.victim);
    ASSERT_EQ(x.neighbors, y.neighbors);
    differs = differs || x.kind != z.kind || x.victim != z.victim || x.neighbors != z.neighbors;
  }
  EXPECT_TRUE(differs);
}

TEST(OpGenerator, EveryOpValidWhenApplied) {
  // Mirror the engine: ids are sequential, deletes kill at once.
  const int n = 256;
  OpGenerator gen(n, 3);
  std::set<fg::NodeId> alive;
  for (int v = 0; v < n; ++v) alive.insert(v);
  fg::NodeId next_id = n;
  int64_t deletes = 0;
  for (int i = 0; i < 20000; ++i) {
    fg::ChurnOp op = gen.next();
    if (op.kind == fg::ChurnOp::Kind::kDelete) {
      ASSERT_EQ(alive.erase(op.victim), 1u) << "op " << i;
      ++deletes;
    } else {
      ASSERT_EQ(op.neighbors.size(), 2u);
      ASSERT_NE(op.neighbors[0], op.neighbors[1]);
      for (fg::NodeId u : op.neighbors) ASSERT_TRUE(alive.count(u)) << "op " << i;
      alive.insert(next_id++);
    }
  }
  EXPECT_GT(deletes, 8000);
  EXPECT_LT(deletes, 12000);
}

TEST(OpGenerator, ServiceNeverDropsADelete) {
  // Deferred application (ops buffered behind an in-flight plan) must not
  // invalidate the stream either.
  fg::Graph g0 = make_substrate(512, 5);
  fg::HealerConfig cfg;
  cfg.wave_size = 16;
  fg::HealerService svc(g0, cfg);
  OpGenerator gen(512, 5);
  for (int i = 0; i < 6000; ++i) svc.push(gen.next());
  svc.flush();
  EXPECT_EQ(svc.stats().dropped_deletes, 0);
  EXPECT_EQ(svc.stats().ops, 6000);
}

TEST(TailRule, HighestPercentileKeepsTenBeyond) {
  EXPECT_EQ(samples_beyond(468, 97), 14);
  EXPECT_TRUE(tail_ok(468, 97));
  EXPECT_FALSE(tail_ok(468, 98));
  EXPECT_EQ(highest_tail_percentile(468), 97);
  EXPECT_EQ(highest_tail_percentile(176), 94);
  EXPECT_EQ(highest_tail_percentile(1000), 99);
  EXPECT_EQ(highest_tail_percentile(100), 90);
  EXPECT_EQ(highest_tail_percentile(9), 0);
}

TEST(TailRule, FullScaleWorkloadsCarryTheirTails) {
  // Pooled wave counts at run_seconds = 10 (all trials): each
  // workload's fixed tail must be one the rule allows there.
  struct Case {
    const char* name;
    int64_t waves;
  } cases[] = {{"aged_open", 465}, {"fresh_bigwave", 291}, {"guarded", 1560}, {"dist_stagewise", 1945}};
  for (const Case& c : cases) {
    Workload w;
    ASSERT_TRUE(find_workload(c.name, Scale::kFull, &w));
    EXPECT_TRUE(tail_ok(c.waves, w.tail_pct)) << c.name;
  }
}

TEST(Percentile, LinearInterpolation) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

/// A fake system: every wave_size-th delete commits a wave, and the push
/// that commits it stalls for `stall` (wave `long_wave` for `long_stall`).
class StallingSut {
 public:
  StallingSut(int wave_size, std::chrono::microseconds stall, int64_t long_wave = -1,
              std::chrono::microseconds long_stall = {})
      : wave_(wave_size), stall_(stall), long_wave_(long_wave), long_stall_(long_stall) {}
  void push(const fg::ChurnOp& op) {
    if (op.kind == fg::ChurnOp::Kind::kInsert) {
      ++inserts_;
      return;
    }
    if (++forming_ == wave_) {
      std::this_thread::sleep_for(waves_ == long_wave_ ? long_stall_ : stall_);
      forming_ = 0;
      ++waves_;
    }
  }
  void flush() {
    if (forming_ > 0) ++waves_;
    forming_ = 0;
  }
  int64_t waves() const { return waves_; }
  int64_t inserts() const { return inserts_; }

 private:
  int wave_;
  std::chrono::microseconds stall_;
  int64_t long_wave_;
  std::chrono::microseconds long_stall_;
  int forming_ = 0;
  int64_t waves_ = 0;
  int64_t inserts_ = 0;
};

/// Alternating delete / insert stream.
struct Alternating {
  int i = 0;
  fg::ChurnOp operator()() {
    return (i++ % 2 == 0) ? fg::ChurnOp::Delete(i) : fg::ChurnOp::Insert({0, 1});
  }
};

TEST(OpenLoop, TimesFromDueTimeAndChargesStalls) {
  // 2000 ops/s = one op per 0.5 ms; a wave closes every 8 ops (4 ms) and
  // its commit stalls 2 ms — sustainable, but each stall makes the next few
  // ops late.
  StallingSut sut(4, std::chrono::microseconds(2000));
  LoopConfig cfg;
  cfg.open = true;
  cfg.rate = 2000.0;
  cfg.seconds = 0.4;
  cfg.wave_size = 4;
  LoopResult r = run_loop(sut, Alternating{}, cfg);
  EXPECT_EQ(r.attempted, 800);
  EXPECT_EQ(r.incomplete, 0);
  EXPECT_TRUE(r.sustainable);
  ASSERT_FALSE(r.heal_ms.empty());
  // Committed inside the closing push: heal time is the stall plus any
  // lateness of that push, never less than the stall.
  EXPECT_GE(median(r.heal_ms), 2.0);
  // The op after a stall is due 0.5 ms later but starts ~2 ms later.
  EXPECT_GT(percentile(r.late_ms, 99.0), 1.0);
  EXPECT_GT(r.backlog_max, 0);
  EXPECT_NEAR(static_cast<double>(r.attempted) / r.window_s, 2000.0, 200.0);
}

TEST(OpenLoop, FlagsAnUnsustainableRate) {
  // Every wave's commit takes 12 ms but waves arrive every 4 ms: backlog
  // and lateness grow without bound, and the run must fail.
  StallingSut sut(4, std::chrono::microseconds(12000));
  LoopConfig cfg;
  cfg.open = true;
  cfg.rate = 2000.0;
  cfg.seconds = 0.4;
  cfg.wave_size = 4;
  LoopResult r = run_loop(sut, Alternating{}, cfg);
  EXPECT_FALSE(r.sustainable);
  EXPECT_GT(r.late_last_q_ms, r.late_first_q_ms);
  EXPECT_GT(r.backlog_max, 100);
}

TEST(OpenLoop, RecoveredLongWaveStaysSustainable) {
  // 800 ops at 2000 ops/s, 100 waves. Wave 85 (in the last quarter) takes
  // 30 ms: ~60 of the quarter's 200 ops are late by up to 30 ms, which
  // lifts the quarter's mean lateness past the growth rule, but the loop
  // catches up, so the rate is sustainable.
  StallingSut sut(4, std::chrono::microseconds(0), 85, std::chrono::microseconds(30000));
  LoopConfig cfg;
  cfg.open = true;
  cfg.rate = 2000.0;
  cfg.seconds = 0.4;
  cfg.wave_size = 4;
  LoopResult r = run_loop(sut, Alternating{}, cfg);
  EXPECT_EQ(r.incomplete, 0);
  EXPECT_GT(percentile(r.late_ms, 99.0), 20.0);
  EXPECT_TRUE(r.sustainable);
}

TEST(ClosedLoop, StopsAtTheRequestedWavePhase) {
  StallingSut sut(4, std::chrono::microseconds(0));
  LoopConfig cfg;
  cfg.ops = 100;
  cfg.stop_every = 8;
  cfg.stop_at = 3;
  cfg.wave_size = 4;
  LoopResult r = run_loop(sut, Alternating{}, cfg);
  EXPECT_GE(r.attempted, 100);
  EXPECT_EQ(r.deletes % 4, 0);
  EXPECT_EQ((r.deletes / 4) % 8, 3);
  EXPECT_EQ(sut.waves(), r.deletes / 4);
}

RunOptions tiny(const std::string& name, uint64_t seed) {
  RunOptions opt;
  EXPECT_TRUE(find_workload(name, Scale::kTiny, &opt.workload));
  opt.seed = seed;
  opt.seconds = 0.5;
  opt.work_dir = ".bench_build/healbench-test/work-" + name;
  opt.out_dir = ".bench_build/healbench-test/out";
  return opt;
}

void expect_metrics(const RunResult& r, const std::vector<std::string>& names) {
  ASSERT_EQ(r.metrics.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(r.metrics[i].name, names[i]);
    EXPECT_FALSE(r.metrics[i].unit.empty()) << names[i];
  }
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, MeasuredRunPassesItsChecks) {
  RunResult r = run_e2e(tiny(GetParam(), 11));
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.attempted, 0);
  EXPECT_EQ(r.failed, 0);
  expect_metrics(r, e2e_metric_names());
  for (const Metric& m : r.metrics) EXPECT_GT(m.value, 0.0) << m.name;
}

TEST_P(Smoke, TracedRunMatchesTheServiceDigest) {
  RunResult r = run_traced(tiny(GetParam(), 12));
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(r.correct);
  expect_metrics(r, layer_metric_names());
  ASSERT_EQ(r.replay_crcs.size(), 4u);  // traced, untraced, fan-out w1 and wN
  for (uint32_t crc : r.replay_crcs) EXPECT_EQ(crc, r.service_crc);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke, ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace healbench
