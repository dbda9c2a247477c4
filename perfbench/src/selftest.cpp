// Self-test of the benchmark's statistics helpers. Exits 0 when every
// check passes; prints each failure otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

void TestMedian() {
  using perfbench::Median;
  Expect(Median({}) == 0, "median of nothing is 0");
  Expect(Median({3, 1, 2}) == 2, "odd-count median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even-count median averages the middle");
}

void TestTailQuantile() {
  using perfbench::TailQuantile;
  // 200 samples: rank ceil(0.95 * 200) = 190, ten samples beyond.
  auto p95 = TailQuantile(Ramp(200), 0.95);
  Expect(p95.has_value(), "p95 of 200 samples is supported");
  Expect(p95 && p95->value == 190, "p95 of 1..200 is 190");
  Expect(p95 && p95->samples == 200 && p95->beyond == 10,
         "p95 of 200 samples has ten beyond");
  // 199 samples: rank 190, only nine beyond -> refused.
  Expect(!TailQuantile(Ramp(199), 0.95).has_value(),
         "p95 of 199 samples is refused (nine beyond)");
  auto p50 = TailQuantile(Ramp(40), 0.5);
  Expect(p50 && p50->value == 20 && p50->beyond == 20, "nearest-rank p50");
  Expect(!TailQuantile({}, 0.95).has_value(), "empty sample has no tail");
  Expect(!TailQuantile(Ramp(1000), 1.0).has_value(), "q must be below 1");
  auto p99 = TailQuantile(Ramp(1000), 0.99);
  Expect(p99 && p99->value == 990 && p99->beyond == 10, "p99 of 1000 samples");
  Expect(!TailQuantile(Ramp(999), 0.99).has_value(), "p99 of 999 is refused");
}

void TestSelfTime() {
  using perfbench::Interval;
  using perfbench::SelfTime;
  Expect(Near(SelfTime({0, 10}, {}), 10), "no children: self is duration");
  Expect(Near(SelfTime({0, 10}, {{1, 3}, {5, 6}}), 7),
         "disjoint children are subtracted");
  Expect(Near(SelfTime({0, 10}, {{1, 5}, {3, 7}}), 4),
         "overlapping children count once");
  Expect(Near(SelfTime({0, 10}, {{2, 4}, {2, 4}}), 8),
         "duplicate children count once");
  Expect(Near(SelfTime({0, 10}, {{-5, 2}, {8, 20}}), 6),
         "children are clipped to the parent");
  Expect(Near(SelfTime({0, 10}, {{12, 15}}), 10),
         "a child outside the parent covers nothing");
  Expect(Near(SelfTime({0, 10}, {{6, 9}, {1, 4}, {3, 5}}), 3),
         "unsorted children");
  Expect(Near(SelfTime({0, 10}, {{0, 10}}), 0), "fully covered");
  Expect(Near(SelfTime({0, 10}, {{1, 8}, {2, 3}}), 3), "nested children");
}

}  // namespace

int main() {
  TestMedian();
  TestTailQuantile();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
