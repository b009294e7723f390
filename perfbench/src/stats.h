// Summary statistics of the benchmark's samples: percentiles, the tail
// percentile the report uses, and guarded ratios.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile `p` in [0, 100] of `samples` by linear interpolation
/// between closest ranks (the rule of numpy's default and of Python's
/// statistics.quantiles(method="inclusive")). 0 for an empty input.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kTailBeyond = 10;

/// The highest percentile with at least kTailBeyond samples beyond it:
/// the (n - kTailBeyond)-th smallest sample, i.e. the percentile
/// 100 * (n - kTailBeyond) / n. `valid` is false when there are not
/// more than kTailBeyond samples.
struct Tail {
  bool valid = false;
  double percentile = 0;  // in [0, 100)
  double value = 0;
  size_t samples = 0;
};
Tail SelectTail(std::vector<double> samples);

/// num / den, or 0 when den is 0 (a workload that never did the work).
double Ratio(double num, double den);

/// (value - base) / base: the relative gap of `value` over `base`; 0
/// when base is 0.
double RelativeGap(double value, double base);

/// Tuples per second of a closed loop: `tuples_per_join` input tuples
/// times the number of joins, over the summed join wall time.
double Throughput(double tuples_per_join, const std::vector<double>& seconds);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
