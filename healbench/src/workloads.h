// The healer benchmark's workloads, their end-to-end run and their traced
// run (healbench/README.md explains each choice).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace healbench {

/// kFull is what BENCHMARK.json runs; kTiny shrinks every size so the
/// self-tests can smoke every workload in seconds.
enum class Scale { kFull, kTiny };

struct Workload {
  std::string name;
  int nodes = 0;
  int64_t aging_ops = 0;        ///< Churn applied during set-up (aged substrate).
  bool open = false;            ///< Open loop at `rate`; closed loop otherwise.
  double rate = 0.0;            ///< Open loop: ops per second.
  int wave_size = 64;
  bool dist = false;            ///< Serve through DistForgivingGraph (kStageWise).
  int certify_every = 0;        ///< Guardrail periods (HealerConfig); 0 = off.
  int audit_every = 0;
  int snapshot_every = 0;
  /// Fixed tail percentile of heal and join times. Joins apply in batches
  /// behind waves, so the tail rule counts waves for both.
  double tail_pct = 95.0;
  double closed_rate = 0.0;     ///< Closed loop: ops pushed per requested second.
  int64_t dist_probe_ops = 0;   ///< Stream prefix replayed through the dist engine.
  /// Set-up + serve repetitions per run; each serves seconds / trials of
  /// stream (setup_s: their median). The short closed loops take more, so a
  /// run samples the host at more moments.
  int trials = 3;
  int restores = 3;             ///< Restores timed per trial (restore_ms: median of all).
};

const std::vector<std::string>& workload_names();
bool find_workload(const std::string& name, Scale scale, Workload* out);

/// Worker count for plan, commit and break: min(4, nproc). The one place
/// it is set.
int bench_workers();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  Workload workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;         ///< Scratch files (snapshots); removed after the run.
  std::string out_dir;          ///< Traced run: spans and summary land here.
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< Output checks that did not hold.
  std::vector<std::string> notes;     ///< Human-readable report lines.
  uint32_t service_crc = 0;           ///< Traced run: the C4 digests.
  std::vector<uint32_t> replay_crcs;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The measured run: every end-to-end metric, tracing off.
RunResult run_e2e(const RunOptions& opt);

/// The traced run: every per-layer metric, from the service's counters and
/// from replays of the same op stream through each layer's public calls.
RunResult run_traced(const RunOptions& opt);

/// Names of the end-to-end and per-layer metrics, in report order (every
/// workload reports every one of them).
const std::vector<std::string>& e2e_metric_names();
const std::vector<std::string>& layer_metric_names();

}  // namespace healbench
