#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

Tail SelectTail(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.size() <= kTailBeyond) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t index = samples.size() - kTailBeyond - 1;
  tail.valid = true;
  tail.value = samples[index];
  tail.percentile = 100.0 * static_cast<double>(samples.size() - kTailBeyond) /
                    static_cast<double>(samples.size());
  return tail;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double RelativeGap(double value, double base) {
  return base == 0 ? 0 : (value - base) / base;
}

double Throughput(double tuples_per_join, const std::vector<double>& seconds) {
  double total = 0;
  for (double s : seconds) total += s;
  return Ratio(tuples_per_join * static_cast<double>(seconds.size()), total);
}

}  // namespace perfbench
