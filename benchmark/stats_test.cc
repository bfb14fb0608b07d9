// Tests of the benchmark's statistics and seeded input generation
// (stats.h). Standalone: exits nonzero and names the failed check.
//
//   cmake --build .bench_build --target stats_test && .bench_build/stats_test

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                 \
    }                                                             \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace rapid::e2e;

void TestMedian() {
  EXPECT(Median({}) == 0);
  EXPECT(Median({7}) == 7);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(Median({5, 5, 1, 9, 9}) == 5);
}

void TestTailPercentile() {
  // p90 needs 100 samples to have 10 beyond it; p99 needs 1000.
  EXPECT(SamplesBeyond(100, 0.9) == 10);
  EXPECT(SamplesBeyond(99, 0.9) == 9);
  EXPECT(SamplesForTail(0.9) == 100);
  EXPECT(SamplesForTail(0.99) == 1000);
  EXPECT(SamplesForTail(0.5) == 20);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  EXPECT(Percentile(v, 0.9) == 90);
  EXPECT(Percentile(v, 0.5) == 50);
  EXPECT(Percentile(v, 1.0) == 100);
  // Exactly SamplesBeyond() samples lie strictly above the percentile.
  size_t above = 0;
  for (double x : v) above += x > Percentile(v, 0.9);
  EXPECT(above == SamplesBeyond(v.size(), 0.9));
  EXPECT(Percentile({}, 0.9) == 0);
  EXPECT(Percentile({4}, 0.9) == 4);
}

void TestGeoMean() {
  EXPECT(Near(GeoMean({2, 8}), 4));
  EXPECT(Near(GeoMean({1, 10, 100}), 10));
  EXPECT(Near(GeoMean({5}), 5));
  EXPECT(GeoMean({}) == 0);
  EXPECT(GeoMean({3, 0}) == 0);
}

void TestShareDenominators() {
  // Every operation attempted is in the denominator; errors and oracle
  // mismatches both count as failures.
  OpCounts ops;
  EXPECT(ops.FailedShare() == 0);
  ops.attempted = 40;
  ops.errors = 1;
  ops.mismatches = 3;
  EXPECT(ops.failed() == 4);
  EXPECT(Near(ops.FailedShare(), 0.1));

  // Fallback share counts fragments, not queries.
  FragmentCounts f;
  EXPECT(f.FallbackShare() == 0);
  f.issued = 5;
  f.fell_back = 4;
  EXPECT(Near(f.FallbackShare(), 0.8));
}

void TestPassOrder() {
  const std::vector<size_t> a = PassOrder(7, 6, 0);
  EXPECT(a == PassOrder(7, 6, 0));  // same seed, same order
  EXPECT(std::set<size_t>(a.begin(), a.end()).size() == 6);
  // Pass p is pass 0 rotated by p.
  const std::vector<size_t> b = PassOrder(7, 6, 2);
  for (size_t i = 0; i < 6; ++i) EXPECT(b[i] == a[(i + 2) % 6]);
  EXPECT(PassOrder(7, 6, 6) == a);
  // Over n passes every query takes every position once.
  for (size_t pos = 0; pos < 6; ++pos) {
    std::set<size_t> seen;
    for (uint64_t p = 0; p < 6; ++p) seen.insert(PassOrder(7, 6, p)[pos]);
    EXPECT(seen.size() == 6);
  }
  // Some seed orders differently from seed 7.
  bool differs = false;
  for (uint64_t seed = 0; seed < 8 && !differs; ++seed) {
    differs = PassOrder(seed, 6, 0) != a;
  }
  EXPECT(differs);
  // Pinned values: a change to the generator changes every workload.
  EXPECT(SplitMix64(0).Next() == 0xE220A8397B1DCDAFull);
}

void TestWriteBatch() {
  const std::vector<RowCopy> a = WriteBatch(3, 0, 1000, 200);
  const std::vector<RowCopy> again = WriteBatch(3, 0, 1000, 200);
  EXPECT(a.size() == 200);
  bool same = again.size() == a.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].target == again[i].target && a[i].source == again[i].source;
  }
  EXPECT(same);
  std::set<uint64_t> targets;
  for (const RowCopy& c : a) {
    EXPECT(c.target < 1000 && c.source < 1000);
    EXPECT(c.source != c.target);
    targets.insert(c.target);
  }
  EXPECT(targets.size() == a.size());
  // Another batch or another seed writes other rows.
  EXPECT(WriteBatch(3, 1, 1000, 200)[0].target != a[0].target ||
         WriteBatch(3, 1, 1000, 200)[1].target != a[1].target);
  EXPECT(WriteBatch(4, 0, 1000, 200)[0].target != a[0].target ||
         WriteBatch(4, 0, 1000, 200)[1].target != a[1].target);
  // A batch may cover the whole table.
  EXPECT(WriteBatch(9, 0, 2, 2).size() == 2);
}

}  // namespace

int main() {
  TestMedian();
  TestTailPercentile();
  TestGeoMean();
  TestShareDenominators();
  TestPassOrder();
  TestWriteBatch();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "stats_test: all checks passed\n");
  return 0;
}
