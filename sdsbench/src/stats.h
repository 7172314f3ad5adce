// Order statistics for the benchmark's timings. Every reported timing
// carries its sample count, and a tail percentile carries how many
// samples lie beyond it, so a reader can tell a well-supported p99 from
// one resting on a handful of cycles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace sdsbench {

/// Nearest-rank percentile (q in (0, 1]) of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Median, 90th and 99th percentile of a latency sample.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  /// Samples strictly above p99.
  std::size_t beyond_p99 = 0;
};

inline LatencySummary summarize(std::vector<double> samples) {
  LatencySummary out;
  std::sort(samples.begin(), samples.end());
  out.count = samples.size();
  out.p50 = median(samples);
  out.p90 = percentile_sorted(samples, 0.90);
  out.p99 = percentile_sorted(samples, 0.99);
  out.beyond_p99 = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), out.p99));
  return out;
}

/// One completed cycle of a closed loop: when it ended (wall and process
/// CPU seconds) and how long it took.
struct CycleSample {
  double end_s = 0;
  double cpu_s = 0;
  double latency_ms = 0;
};

/// A closed loop cut into consecutive windows of `window_cycles` cycles,
/// each window summarized on its own, and the medians over the windows
/// reported.
struct WindowSummary {
  std::size_t windows = 0;
  double cycles_per_s = 0;
  /// The median of the windows' own 90th-percentile latencies.
  double p90_ms = 0;
  double cpu_ms_per_cycle = 0;
};

/// `cycles` in completion order, the loop having started at `start_s` /
/// `start_cpu_s`. A trailing partial window is dropped unless it is the
/// only one.
inline WindowSummary summarize_windows(const std::vector<CycleSample>& cycles,
                                       double start_s, double start_cpu_s,
                                       std::size_t window_cycles) {
  std::vector<double> rates;
  std::vector<double> p90s;
  std::vector<double> cpu_ms;
  std::vector<double> latencies;
  double begin_s = start_s;
  double begin_cpu_s = start_cpu_s;
  const auto close = [&](const CycleSample& last) {
    const auto n = static_cast<double>(latencies.size());
    rates.push_back(n / (last.end_s - begin_s));
    cpu_ms.push_back((last.cpu_s - begin_cpu_s) * 1e3 / n);
    std::sort(latencies.begin(), latencies.end());
    p90s.push_back(percentile_sorted(latencies, 0.90));
    latencies.clear();
    begin_s = last.end_s;
    begin_cpu_s = last.cpu_s;
  };
  for (const CycleSample& c : cycles) {
    latencies.push_back(c.latency_ms);
    if (latencies.size() == window_cycles) close(c);
  }
  if (rates.empty() && !latencies.empty()) close(cycles.back());
  return {rates.size(), median(rates), median(p90s), median(cpu_ms)};
}

}  // namespace sdsbench
