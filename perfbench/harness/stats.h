// Order statistics for reported timings.

#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) with linear interpolation between closest
/// ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Samples strictly beyond the q-quantile's rank in a sample of n:
/// n - ceil(q * n).
int64_t SamplesBeyond(int64_t n, double q);

/// The highest percentile of {50, 75, 90, 95, 99, 99.5, 99.9} (as a
/// fraction) that leaves at least `min_beyond` samples beyond it in a
/// sample of n; 0 when even the median does not.
double TailQuantileFor(int64_t n, int64_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
