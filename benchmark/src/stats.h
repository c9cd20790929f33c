// Small numeric helpers shared by the benchmark's workloads: a monotonic
// clock, order statistics and the peak-RSS probe.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace remi::perf {

/// Seconds on the monotonic clock (the same clock every span and every
/// request timestamp uses).
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `values` (unsorted input,
/// copied). Returns 0 for an empty sample; callers that must not report
/// a 0 check the sample size first.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The median over consecutive windows of `window` samples of each
/// window's p99 (a short last window folds into the one before it). One
/// scheduling hiccup of a shared host then moves one window's p99, not
/// the reported one.
inline double WindowedP99(const std::vector<double>& values, size_t window) {
  std::vector<double> p99s;
  for (size_t begin = 0; begin < values.size(); begin += window) {
    size_t end = std::min(values.size(), begin + window);
    if (values.size() - end < window / 2) end = values.size();
    p99s.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<long>(begin),
                            values.begin() + static_cast<long>(end)),
        0.99));
    if (end == values.size()) break;
  }
  return Median(p99s);
}

inline double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// VmHWM (peak resident set) of process `pid` in MiB; "self" for this
/// process. 0 when /proc is unreadable.
inline double PeakRssMb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace remi::perf
