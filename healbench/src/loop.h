// The load loop: drives a system under test (the healer service, the dist
// engine, or a test fake) from outside, op by op, and observes completions
// only through its counters after each push()/flush() returns.
//
// Sut concept:
//   void push(const fg::ChurnOp&);  void flush();
//   int64_t waves() const;          // committed waves since the loop began
//   int64_t inserts() const;        // applied inserts since the loop began
//
// Open loop: op i is due at t0 + i / rate, whether or not the system kept up,
// and every latency is timed from the due time, so a stall is charged to the
// ops queued behind it. Closed loop: an op is due when the previous push
// returned, and the loop pushes a fixed stream, so every run of a seed does
// the same work. Wave w is closed by the stream's (w + 1) * wave_size-th delete —
// the benchmark's streams never drop a delete (checked), so wave indices and
// delete counts line up.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "fg/healer_service.h"
#include "stats.h"

namespace healbench {

struct LoopConfig {
  bool open = false;
  double rate = 0.0;      ///< Open loop: ops per second.
  double seconds = 1.0;   ///< Open loop: the window pushes rate * seconds ops.
  int64_t ops = 0;        ///< Closed loop: at least this many ops, then on to
  int stop_every = 1;     ///< the first wave boundary w (w waves closed) with
  int stop_at = 0;        ///< w % stop_every == stop_at.
  int wave_size = 64;
};

struct LoopResult {
  int64_t attempted = 0;        ///< Ops pushed.
  int64_t deletes = 0;
  int64_t inserts = 0;
  double window_s = 0.0;        ///< t0 to the return of the last push.
  double busy_ms = 0.0;         ///< Time spent inside push() and flush().
  std::vector<double> heal_ms;  ///< Per wave committed inside the window.
  std::vector<double> join_ms;  ///< Per insert applied inside the window.
  std::vector<double> late_ms;  ///< Per op: push start minus due time.
  int64_t backlog_max = 0;      ///< Most ops due but not yet pushed.
  int64_t incomplete = 0;       ///< Ops the final flush still left uncommitted.
  double late_first_q_ms = 0.0; ///< Median lateness, first / last quarter of ops.
  double late_last_q_ms = 0.0;
  bool sustainable = true;      ///< Open loop: lateness did not grow (see below).
};

/// The open loop is only a valid measurement while the rate is
/// sustainable. A sustainable loop's lateness is stationary — a long wave
/// delays the ops behind it, and the loop catches up before the next one —
/// while an unsustainable one accumulates backlog, so lateness keeps
/// growing. The run fails when the last quarter's median lateness exceeds
/// twice the first quarter's plus 2 ms (the slack absorbs the slow drift of
/// wave cost with accumulated churn, which stays well inside it). Medians,
/// not means: one long wave the loop recovers from (a 60 ms repair makes
/// ~360 of a quarter's 5000 ops late at 6000 ops/s) moves a quarter's mean
/// by milliseconds but not its median, while a growing backlog makes most
/// of the last quarter's ops late.
inline bool lateness_sustainable(double first_q_ms, double last_q_ms) {
  return last_q_ms <= 2.0 * first_q_ms + 2.0;
}

template <class Sut, class NextOp>
LoopResult run_loop(Sut& sut, NextOp&& next_op, const LoopConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  LoopResult r;
  const int64_t open_ops =
      cfg.open ? static_cast<int64_t>(std::llround(cfg.rate * cfg.seconds)) : 0;
  std::vector<double> wave_due;    // due time of each wave's closing delete
  std::vector<double> wave_done;   // completion time, per wave
  std::vector<double> insert_due;
  std::vector<double> insert_done;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(cfg.open ? 1 : 0);
  auto ms_at = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - t0).count();
  };
  auto observe = [&](double now_ms) {
    while (sut.waves() > static_cast<int64_t>(wave_done.size())) wave_done.push_back(now_ms);
    while (sut.inserts() > static_cast<int64_t>(insert_done.size())) insert_done.push_back(now_ms);
  };
  if (cfg.open) std::this_thread::sleep_until(t0);

  double window_end_ms = 0.0;
  for (int64_t i = 0;; ++i) {
    if (cfg.open) {
      if (i >= open_ops) break;
    } else if (i >= cfg.ops && r.deletes % cfg.wave_size == 0 &&
               (r.deletes / cfg.wave_size) % cfg.stop_every == cfg.stop_at) {
      break;
    }
    fg::ChurnOp op = next_op();
    double due_ms;
    Clock::time_point start;
    if (cfg.open) {
      due_ms = 1000.0 * static_cast<double>(i) / cfg.rate;
      Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(due_ms));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      start = Clock::now();
      int64_t due_count = static_cast<int64_t>(ms_at(start) * cfg.rate / 1000.0) + 1;
      r.backlog_max = std::max(r.backlog_max, due_count - i - 1);
    } else {
      due_ms = window_end_ms;
      start = Clock::now();
    }
    const double start_ms = ms_at(start);
    r.late_ms.push_back(start_ms - due_ms);
    if (op.kind == fg::ChurnOp::Kind::kDelete) {
      if (++r.deletes % cfg.wave_size == 0) wave_due.push_back(due_ms);
    } else {
      ++r.inserts;
      insert_due.push_back(due_ms);
    }
    sut.push(op);
    const double end_ms = ms_at(Clock::now());
    r.busy_ms += end_ms - start_ms;
    observe(end_ms);
    ++r.attempted;
    window_end_ms = end_ms;
  }
  r.window_s = window_end_ms / 1000.0;

  // Completions the final flush produces are not latency samples (the flush
  // retires the in-flight wave without waiting for a next one), but they do
  // count as completed.
  const size_t waves_in_window = wave_done.size();
  const size_t inserts_in_window = insert_done.size();
  Clock::time_point f0 = Clock::now();
  sut.flush();
  r.busy_ms += std::chrono::duration<double, std::milli>(Clock::now() - f0).count();
  const int64_t full_waves = r.deletes / cfg.wave_size;
  const int64_t expected_waves = full_waves + (r.deletes % cfg.wave_size != 0 ? 1 : 0);
  if (sut.waves() < expected_waves)
    r.incomplete += (expected_waves - sut.waves()) * cfg.wave_size;
  if (sut.inserts() < r.inserts) r.incomplete += r.inserts - sut.inserts();

  for (size_t w = 0; w < waves_in_window && w < wave_due.size(); ++w)
    r.heal_ms.push_back(wave_done[w] - wave_due[w]);
  for (size_t k = 0; k < inserts_in_window; ++k) r.join_ms.push_back(insert_done[k] - insert_due[k]);

  const size_t q = r.late_ms.size() / 4;
  if (q > 0) {
    r.late_first_q_ms = median({r.late_ms.begin(), r.late_ms.begin() + static_cast<std::ptrdiff_t>(q)});
    r.late_last_q_ms = median({r.late_ms.end() - static_cast<std::ptrdiff_t>(q), r.late_ms.end()});
  }
  if (cfg.open) r.sustainable = lateness_sustainable(r.late_first_q_ms, r.late_last_q_ms);
  return r;
}

}  // namespace healbench
