#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::optional<Tail> TailQuantile(std::vector<double> samples, double q) {
  // A tail is reported only when this many samples lie beyond it.
  constexpr size_t kMinBeyond = 10;
  if (samples.empty() || q <= 0 || q >= 1) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // ceil(q * n) in integer arithmetic on a per-mille grid, so 0.95 * 200
  // is exactly rank 190 rather than 190.00000000000003 -> 191.
  const auto q_milli = static_cast<size_t>(std::llround(q * 1000));
  const size_t rank = std::max<size_t>(1, (q_milli * n + 999) / 1000);
  Tail tail;
  tail.value = samples[rank - 1];
  tail.samples = n;
  tail.beyond = n - rank;
  if (tail.beyond < kMinBeyond) return std::nullopt;
  return tail;
}

double SelfTime(Interval parent, std::vector<Interval> children) {
  const double duration = parent.end - parent.start;
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0;
  double reach = parent.start;  // end of the union swept so far
  for (const Interval& child : children) {
    if (child.end <= child.start) continue;
    const double from = std::max(child.start, reach);
    if (child.end > from) covered += child.end - from;
    reach = std::max(reach, child.end);
  }
  return duration - covered;
}

}  // namespace perfbench
