// Tile-local memory ablation: (1) software-partition column scatter,
// scalar store loop vs the write-combining kernel that stages full
// cache lines in DMEM-modeled scratch and flushes them with streaming
// stores — measured in GB/s at fan-outs crossing the TLB/cache-line
// pressure point, with in-bench bit-identity; (2) heap allocations per
// tile on the TPC-H Q6 and Q14 paths, tile-pool recycling vs the
// pre-pool one-heap-allocation-per-acquire behavior (RAPID_TILE_POOL
// bypass).

#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/simd.h"
#include "hostdb/database.h"
#include "primitives/simd.h"
#include "tpch/queries.h"

namespace {

using namespace rapid;

constexpr int kReps = 4;
// Output must exceed the last-level cache for the streaming stores to
// pay off — that is the regime the partition scatter lives in (fresh
// destination vectors every tile, fan-out x columns outputs).
constexpr size_t kScatterRows = 1u << 23;  // 64 MiB of int64 per pass
constexpr size_t kTileRows = 2048;

// One destination set per arm, so the arms cannot alias. Each call
// restarts its cursors from the bases: repetitions overwrite in place
// and timing stays allocation-free.
struct Destinations {
  std::vector<std::vector<int64_t>> storage;
  std::vector<int64_t*> bases;
};

void ScatterCase(bench::Harness& harness, size_t fanout) {
  std::mt19937_64 rng(fanout * 7919 + 17);
  std::vector<int64_t> input(kScatterRows);
  std::vector<uint16_t> pof(kScatterRows);
  std::vector<uint32_t> counts(fanout, 0);
  for (size_t i = 0; i < kScatterRows; ++i) {
    input[i] = static_cast<int64_t>(rng());
    pof[i] = static_cast<uint16_t>(rng() % fanout);
    ++counts[pof[i]];
  }
  Arena arena;
  auto* wc = static_cast<uint8_t*>(
      arena.Allocate(primitives::simd::ScatterScratchBytes(fanout)));
  Destinations dst[2];
  for (Destinations& d : dst) {
    d.storage.resize(fanout);
    d.bases.resize(fanout);
    for (size_t p = 0; p < fanout; ++p) {
      d.storage[p].assign(counts[p] + 1, 0);
      d.bases[p] = d.storage[p].data();
    }
  }

  const SimdLevel levels[] = {SimdLevel::kScalar, SimdLevelSupported()};
  std::vector<bench::Arm<const Destinations*>> arms;
  for (int i = 0; i < 2; ++i) {
    arms.push_back({i == 0 ? "scalar" : SimdLevelName(levels[i]),
                    [level = levels[i]] { ForceSimdLevel(level); },
                    [&, d = &dst[i]] {
                      primitives::simd::partition_kernels().scatter_col(
                          input.data(), pof.data(), kScatterRows, fanout,
                          d->bases.data(), wc);
                      return static_cast<const Destinations*>(d);
                    }});
  }
  const bench::CaseResult& c = harness.Case<const Destinations*>(
      "scatter fanout " + std::to_string(fanout), arms,
      [&counts](const Destinations*& d) {
        uint64_t h = 0;
        for (size_t p = 0; p < counts.size(); ++p) {
          h = bench::HashValues(d->storage[p].data(), counts[p], h);
        }
        return bench::Sample{h, {{"bytes", kScatterRows * sizeof(int64_t)}}};
      });
  auto gbs = [&](const bench::ArmResult& arm) {
    return arm.Metric("bytes") / (arm.wall_ms.median * 1e-3) / 1e9;
  };
  std::printf("  %.2f GB/s scalar, %.2f GB/s %s\n", gbs(c.arms[0]),
              gbs(c.arms[1]), c.arms[1].name.c_str());
}

TilePoolStats PoolNow(core::RapidEngine& engine) {
  TilePoolStats total;
  for (int c = 0; c < engine.dpu().num_cores(); ++c) {
    total.Accumulate(engine.dpu().core(c).pool().stats());
  }
  return total;
}

struct AllocRun {
  tpch::QueryRun run;
  uint64_t heap_allocs = 0;  // pool misses; bypassed, every acquire misses
};

}  // namespace

int main() {
  bench::Header("Tile-local memory",
                "WC partition scatter + tile-pool allocation ablation");
  bench::Harness harness("memory", kReps);
  for (size_t fanout : {16u, 64u, 256u}) ScatterCase(harness, fanout);

  const double sf = bench::ScaleFactor(0.02);
  hostdb::HostDatabase host;
  core::RapidEngine engine{dpu::DpuConfig{}};
  RAPID_CHECK_OK(tpch::LoadTpch(sf, &host, &engine, 42, kTileRows));
  std::printf("\nTPC-H SF %.2f, %zu-row tiles\n", sf, kTileRows);
  for (const std::string name : {"Q6", "Q14"}) {
    const tpch::TpchQuery query = bench::Must(tpch::BuildQuery(name));
    auto run = [&engine, &query] {
      const uint64_t before = PoolNow(engine).misses;
      tpch::QueryRun run = bench::Must(tpch::RunOnRapid(engine, query));
      return AllocRun{std::move(run), PoolNow(engine).misses - before};
    };
    // "bypassed" is the pre-pool engine; "pool" reports the steady
    // state every query after the first runs in (its last run follows
    // the warm-up).
    const bench::CaseResult& c = harness.Case<AllocRun>(
        name,
        {{"pool bypassed", [] { TileBufferPool::ForceBypass(true); }, run},
         {"pool", [] { TileBufferPool::ForceBypass(false); }, run}},
        [sf](AllocRun& r) {
          const uint64_t scanned = r.run.workload.scanned_rows;
          return bench::Sample{
              bench::Fingerprint(r.run.result),
              {{"sf", sf},
               {"heap_allocs", static_cast<double>(r.heap_allocs)},
               {"tiles", scanned > 0 ? static_cast<double>(
                                           (scanned + kTileRows - 1) /
                                           kTileRows)
                                     : 1.0}}};
        });
    // The pool must at least halve per-tile heap allocations on these
    // paths (steady state is usually alloc-free).
    const double reduction =
        c.Get("pool bypassed").Metric("heap_allocs") /
        std::max(1.0, c.Get("pool").Metric("heap_allocs"));
    harness.Gate(name + ": heap alloc reduction >= 2.0x", reduction, 2.0,
                 reduction >= 2.0);
  }
  return harness.Finish();
}
