// Figure 16: RAPID software vs System X on x86.
//
// Both engines run on this host's CPU over the same data: RAPID's
// vectorized, push-based, partitioned execution against System X's
// tuple-at-a-time Volcano engine. The paper reports speedups of
// 1.2x-8.5x with a 2.5x average — attributable purely to software
// design, since the hardware is identical. Wall-clock measured: each
// query runs on both engines as two arms (warmed, rotated rounds,
// median and quartiles), and the engines' rows must agree.

#include <algorithm>
#include <cmath>

#include "bench/bench_util.h"
#include "tpch/queries.h"

namespace {

constexpr int kReps = 6;

}  // namespace

int main() {
  using namespace rapid;
  bench::Header("Figure 16", "RAPID software vs System X on x86 (measured)");

  hostdb::HostDatabase host;
  core::RapidEngine engine;
  const double sf = bench::ScaleFactor();
  RAPID_CHECK_OK(tpch::LoadTpch(sf, &host, &engine));
  // Wall-clock measurement: run the simulated cores inline so OS
  // thread scheduling on small hosts does not pollute the timing.
  engine.dpu().SetInlineExecution(true);
  std::printf("TPC-H SF %.2f, wall-clock on this host\n", sf);

  bench::Harness harness("sw_comparison", kReps);
  double log_sum = 0;
  double lo = 1e30;
  double hi = 0;
  int count = 0;
  for (const tpch::TpchQuery& query : tpch::BuildQuerySet()) {
    const bench::CaseResult& c = harness.Case<tpch::QueryRun>(
        query.name,
        {{"RAPID-sw", {},
          [&] { return bench::Must(tpch::RunOnRapid(engine, query)); }},
         {"System X", {},
          [&] { return bench::Must(tpch::RunOnHost(host, query)); }}},
        [sf](tpch::QueryRun& r) {
          return bench::Sample{
              bench::Fingerprint(r.result),
              {{"sf", sf}, {"rows", static_cast<double>(r.result.num_rows())}}};
        });
    const double speedup =
        c.Get("System X").wall_ms.median / c.Get("RAPID-sw").wall_ms.median;
    std::printf("  speedup (median ratio): %.2fx\n", speedup);
    log_sum += std::log(speedup);
    lo = std::min(lo, speedup);
    hi = std::max(hi, speedup);
    ++count;
  }
  const double geomean = std::exp(log_sum / count);
  std::printf("\n%-36s | %10s | %10s\n", "metric", "paper", "repro");
  std::printf("-------------------------------------+------------+----------\n");
  std::printf("%-36s | %9.1fx | %9.2fx\n", "software speedup (repro: geomean)",
              2.5, geomean);
  std::printf("%-36s | %4.1f-%.1fx | %4.1f-%.1fx\n", "range", 1.2, 8.5, lo,
              hi);
  std::printf(
      "\nNote: RAPID software is 'not particularly tuned for x86' (the\n"
      "paper's words) — the win comes from vectorized push-based\n"
      "execution and partitioned joins vs tuple-at-a-time iteration.\n");
  return harness.Finish();
}
