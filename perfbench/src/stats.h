// Sample statistics for the fleet benchmark: medians, tail quantiles
// that refuse to report a tail the sample cannot support, and span
// self time. Everything works on raw samples, never on histograms.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the middle two for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// A nearest-rank quantile together with the sample it came from.
struct Tail {
  double value = 0;    ///< the sample at rank ceil(q * n)
  size_t samples = 0;  ///< n
  size_t beyond = 0;   ///< samples ranked strictly above it
};

/// The nearest-rank `q` quantile of `samples` (0 < q < 1): the value at
/// 1-based rank ceil(q * n). Returns nothing when fewer than ten
/// samples rank above it — a p95 needs at least 200 samples.
std::optional<Tail> TailQuantile(std::vector<double> samples, double q);

/// A closed time interval, in any unit.
struct Interval {
  double start = 0;
  double end = 0;
};

/// Self time of a span: its duration minus the part of it that the
/// union of `children` covers. Children may overlap each other or stick
/// out of the parent; only their union clipped to the parent counts.
double SelfTime(Interval parent, std::vector<Interval> children);

}  // namespace perfbench
