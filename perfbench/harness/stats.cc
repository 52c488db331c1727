#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * weight;
}

int64_t SamplesBeyond(int64_t n, double q) {
  // The 1e-9 slack keeps q * n = 90.0000000001 from rounding up a rank.
  return n - static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

double TailQuantileFor(int64_t n, int64_t min_beyond) {
  static const double kLadder[] = {0.999, 0.995, 0.99, 0.95,
                                   0.90,  0.75,  0.50};
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

}  // namespace perfbench
