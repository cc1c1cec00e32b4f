// Order statistics the benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace healbench {

/// Percentile p in [0, 100] with linear interpolation between closest ranks
/// (the numpy default, as HealerStats::latency_percentile). 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = (p / 100.0) * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Samples strictly beyond percentile p of n samples.
inline int64_t samples_beyond(int64_t n, double p) {
  return static_cast<int64_t>(std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

/// The tail rule: a tail percentile is reportable only with at least ten
/// samples beyond it. Each workload fixes its tail percentile; a run whose
/// sample count cannot carry it fails instead of reporting a thin tail.
inline constexpr int64_t kTailBeyond = 10;

inline bool tail_ok(int64_t n, double p) { return samples_beyond(n, p) >= kTailBeyond; }

/// Highest whole percentile n samples can carry under the tail rule (0 if
/// even the median cannot).
inline int highest_tail_percentile(int64_t n) {
  for (int p = 99; p > 0; --p)
    if (tail_ok(n, p)) return p;
  return 0;
}

}  // namespace healbench
