// Statistics and seeded input generation for the end-to-end benchmark.
//
// Header-only and free of engine dependencies so stats_test.cc can
// check it on its own. Every function is deterministic: the same seed
// gives the same query order and the same write batches on every
// host.

#ifndef RAPID_BENCHMARK_STATS_H_
#define RAPID_BENCHMARK_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <unordered_set>
#include <vector>

namespace rapid::e2e {

// Median; the mean of the two middle values for an even count. 0 for
// no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Samples strictly above the nearest-rank `p` percentile of `n`
// samples: the rank is ceil(p * n), so n - ceil(p * n) lie beyond it.
inline size_t SamplesBeyond(size_t n, double p) {
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

// A tail percentile is reported only when at least this many samples
// lie beyond it.
inline constexpr size_t kTailSamples = 10;

// Smallest sample count for which the `p` percentile has kTailSamples
// samples beyond it.
inline size_t SamplesForTail(double p) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < kTailSamples) ++n;
  return n;
}

// Nearest-rank percentile (p in (0, 1]): the smallest sample with at
// least p * n samples at or below it. 0 for no samples.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// Geometric mean of positive values; 0 if any value is not positive
// or there are none.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// Failures over operations attempted. Every query and every write
// batch is one operation; an error status and a result that differs
// from the oracle each count as one failure of that operation.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;

  uint64_t failed() const { return errors + mismatches; }
  double FailedShare() const {
    return attempted == 0 ? 0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

// Fragments the host served with Volcano over fragments it issued to
// the offload path (a TPC-H query issues one or more fragments).
struct FragmentCounts {
  uint64_t issued = 0;
  uint64_t fell_back = 0;

  double FallbackShare() const {
    return issued == 0 ? 0
                       : static_cast<double>(fell_back) /
                             static_cast<double>(issued);
  }
};

// SplitMix64 (Steele et al.): tiny, seedable and identical everywhere.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n) for n > 0 (modulo bias is irrelevant here).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Stream-separated seed: distinct (seed, stream, index) triples give
// unrelated generators.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  SplitMix64 mix(seed ^ (stream * 0xD6E8FEB86659FD93ull));
  mix.Next();
  return mix.Next() ^ (index * 0x9E3779B97F4A7C15ull);
}

// Query order of pass `pass` over `n` queries: one seeded permutation,
// rotated by the pass number so every query takes every position once
// per n passes.
inline std::vector<size_t> PassOrder(uint64_t seed, size_t n, uint64_t pass) {
  std::vector<size_t> base(n);
  std::iota(base.begin(), base.end(), size_t{0});
  SplitMix64 rng(SubSeed(seed, /*stream=*/1, 0));
  for (size_t i = n; i > 1; --i) {
    std::swap(base[i - 1], base[rng.Below(i)]);
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = base[(i + pass) % n];
  return order;
}

// One row change of a write batch: row `target` takes the values of
// row `source`, so every written value is one the column already holds
// and every encoding stays valid.
struct RowCopy {
  uint64_t target = 0;
  uint64_t source = 0;
};

// Write batch `batch` of `rows` row copies within a table of
// `table_rows` rows: distinct targets, each source different from its
// target. Requires rows <= table_rows and table_rows >= 2.
inline std::vector<RowCopy> WriteBatch(uint64_t seed, uint64_t batch,
                                       uint64_t table_rows, size_t rows) {
  SplitMix64 rng(SubSeed(seed, /*stream=*/2, batch));
  std::vector<RowCopy> out;
  out.reserve(rows);
  std::unordered_set<uint64_t> targets;
  while (out.size() < rows) {
    const uint64_t target = rng.Below(table_rows);
    if (!targets.insert(target).second) continue;
    uint64_t source = rng.Below(table_rows - 1);
    if (source >= target) ++source;
    out.push_back({target, source});
  }
  return out;
}

}  // namespace rapid::e2e

#endif  // RAPID_BENCHMARK_STATS_H_
