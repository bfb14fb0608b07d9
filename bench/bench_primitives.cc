// Scalar vs SIMD-dispatched primitive throughput.
//
// Measures every dispatched kernel family (filter, agg, arith, hash,
// partition map, bucket indices) with dispatch pinned to scalar and
// then to the best level the host supports, prints the speedups, and
// records both arms' wall times (rows/s = rows / wall) in
// BENCH_primitives.json so the CostParams::HostCalibrated()
// multipliers can be re-derived after kernel changes. Each family's
// arms must leave bit-identical outputs in the last tile. An
// end-to-end TPC-H Q6-style scan (wall-clock, not modeled cycles)
// shows how much of the kernel-level win survives a whole query.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bitvector.h"
#include "common/simd.h"
#include "primitives/agg.h"
#include "primitives/arith.h"
#include "primitives/filter.h"
#include "primitives/hash.h"
#include "primitives/join_kernel.h"
#include "primitives/simd.h"
#include "tpch/queries.h"

namespace {

using namespace rapid;

constexpr int kReps = 10;
constexpr size_t kTileRows = 4096;
constexpr size_t kTiles = 2048;  // ~32 MiB of int32 per pass

// Runs `pass` (kTiles tiles; returns a hash of the last tile's output)
// with dispatch pinned to scalar and to `best`.
template <typename Pass>
void Family(bench::Harness& harness, const std::string& family, Pass pass) {
  const SimdLevel best = SimdLevelSupported();
  const bench::CaseResult& c = harness.Case<uint64_t>(
      family,
      {{"scalar", [] { ForceSimdLevel(SimdLevel::kScalar); }, pass},
       {SimdLevelName(best), [best] { ForceSimdLevel(best); }, pass}},
      [](uint64_t& h) {
        return bench::Sample{h, {{"rows", kTileRows * kTiles}}};
      });
  auto mrows = [](const bench::ArmResult& arm) {
    return arm.Metric("rows") / (arm.wall_ms.median * 1e3);
  };
  std::printf("  %.1f Mrows/s scalar, %.1f Mrows/s %s: %.2fx\n",
              mrows(c.arms[0]), mrows(c.arms[1]), c.arms[1].name.c_str(),
              mrows(c.arms[1]) / mrows(c.arms[0]));
}

}  // namespace

int main() {
  bench::Header("Primitives", "scalar vs SIMD-dispatched kernel throughput");
  const SimdLevel best = SimdLevelSupported();
  std::printf("best SIMD level on this host: %s\n", SimdLevelName(best));
  bench::Harness harness("primitives", kReps);

  Rng rng(7);
  std::vector<int32_t> values(kTileRows);
  std::vector<int32_t> values2(kTileRows);
  std::vector<int64_t> values64(kTileRows);
  std::vector<uint32_t> hashes(kTileRows);
  for (size_t i = 0; i < kTileRows; ++i) {
    values[i] = static_cast<int32_t>(rng.Next());
    values2[i] = static_cast<int32_t>(rng.Next());
    values64[i] = static_cast<int64_t>(rng.Next());
    hashes[i] = static_cast<uint32_t>(rng.Next());
  }

  Family(harness, "filter_bv_i32", [&] {
    BitVector bv;
    for (size_t t = 0; t < kTiles; ++t) {
      primitives::FilterConstBv<primitives::CmpOp::kLt, int32_t>(
          values.data(), kTileRows, 0, &bv);
    }
    return bench::HashValues(bv.words(), bv.num_words());
  });
  Family(harness, "filter_rid_i32", [&] {
    std::vector<uint32_t> rids;
    for (size_t t = 0; t < kTiles; ++t) {
      rids.clear();
      primitives::FilterConstRid<primitives::CmpOp::kEq, int32_t>(
          values.data(), kTileRows, values[17], &rids);
    }
    return bench::HashValues(rids.data(), rids.size());
  });
  auto agg_hash = [](const primitives::AggState& s) {
    const int64_t fields[] = {s.sum, s.min, s.max,
                              static_cast<int64_t>(s.count)};
    return bench::HashValues(fields, 4);
  };
  Family(harness, "agg_sum_i32", [&] {
    primitives::AggState state;
    for (size_t t = 0; t < kTiles; ++t) {
      primitives::AggTile(values.data(), kTileRows, &state);
    }
    return agg_hash(state);
  });
  Family(harness, "agg_sum_i64", [&] {
    primitives::AggState state;
    for (size_t t = 0; t < kTiles; ++t) {
      primitives::AggTile(values64.data(), kTileRows, &state);
    }
    return agg_hash(state);
  });
  Family(harness, "arith_mul_i32", [&] {
    std::vector<int32_t> out(kTileRows);
    for (size_t t = 0; t < kTiles; ++t) {
      primitives::ArithColCol<primitives::ArithOp::kMul, int32_t>(
          values.data(), values2.data(), kTileRows, out.data());
    }
    return bench::HashValues(out.data(), out.size());
  });
  Family(harness, "hash_crc32_i64", [&] {
    std::vector<uint32_t> out(kTileRows);
    for (size_t t = 0; t < kTiles; ++t) {
      primitives::HashTile(values64.data(), kTileRows, out.data());
    }
    return bench::HashValues(out.data(), out.size());
  });
  Family(harness, "partition_map", [&] {
    std::vector<uint16_t> parts(kTileRows);
    std::vector<uint32_t> counts(64);
    for (size_t t = 0; t < kTiles; ++t) {
      const auto& kernels = primitives::simd::partition_kernels();
      kernels.partition_of(hashes.data(), kTileRows, 0, 63, parts.data());
      std::fill(counts.begin(), counts.end(), 0u);
      kernels.histogram(parts.data(), kTileRows, counts.data(), 64);
    }
    return bench::HashValues(counts.data(), counts.size(),
                             bench::HashValues(parts.data(), parts.size()));
  });
  Family(harness, "bucket_indices", [&] {
    std::vector<uint32_t> buckets(kTileRows);
    for (size_t t = 0; t < kTiles; ++t) {
      primitives::ComputeBucketIndices(hashes.data(), kTileRows, 1024,
                                       buckets.data());
    }
    return bench::HashValues(buckets.data(), buckets.size());
  });

  // ---- End-to-end TPC-H-style query (wall clock) --------------------------
  hostdb::HostDatabase host;
  core::RapidEngine engine;
  const double sf = bench::ScaleFactor();
  RAPID_CHECK_OK(tpch::LoadTpch(sf, &host, &engine));
  const tpch::TpchQuery q6 = bench::Must(tpch::BuildQuery("Q6"));
  auto run = [&] { return bench::Must(tpch::RunOnRapid(engine, q6)); };
  const bench::CaseResult& e2e = harness.Case<tpch::QueryRun>(
      "tpch_q6",
      {{"scalar", [] { ForceSimdLevel(SimdLevel::kScalar); }, run},
       {SimdLevelName(best), [best] { ForceSimdLevel(best); }, run}},
      [sf](tpch::QueryRun& r) {
        return bench::Sample{bench::Fingerprint(r.result),
                             {{"sf", sf},
                              {"modeled_ms", r.modeled_dpu_seconds * 1e3}}};
      });
  std::printf("  TPC-H Q6 wall clock: %.2fx\n",
              e2e.arms[0].wall_ms.median / e2e.arms[1].wall_ms.median);
  return harness.Finish();
}
