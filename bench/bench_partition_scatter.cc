// Tile-local memory ablation: heap allocations per tile on the TPC-H
// Q6 and Q14 paths, tile-pool recycling vs the pre-pool
// one-heap-allocation-per-acquire behavior (RAPID_TILE_POOL bypass).

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "hostdb/database.h"
#include "tpch/queries.h"

namespace {

using namespace rapid;

constexpr int kReps = 4;
constexpr size_t kTileRows = 2048;

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
  bench::Header("Tile-local memory", "tile-pool allocation ablation");
  bench::Harness harness("memory", kReps);

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
