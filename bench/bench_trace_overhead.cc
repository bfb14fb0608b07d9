// Trace-collector overhead ablation.
//
// Instrumentation sites are compiled into every hot path (per-morsel
// spans in scan/join/group-by/sort, per-transfer DMS events) and gated
// by TraceCollector::Recording — one relaxed atomic load plus a mode
// compare. This harness quantifies:
//
//   1. Microbenchmark: the disabled-span construct/destruct cost in
//      ns/site, and the full-mode event count of a representative
//      query; their product estimates the off-mode tax.
//   2. End-to-end: a Q6-style filter+aggregate and a partitioned join
//      under RAPID_TRACE=off|summary|full.
//
// Gates: the estimated off-mode overhead stays under 2% and full
// tracing (spans + args + JSON export) stays within 10% of off, with a
// small absolute allowance for timer noise on short queries.

#include "bench/bench_util.h"
#include "common/trace.h"

namespace {

using namespace rapid;
using namespace rapid::core;

constexpr int kReps = 21;  // a multiple of the 3 trace modes
constexpr size_t kSpanIters = 8'000'000;

size_t TraceEventCount() {
  size_t events = 0;
  for (const auto& track : TraceCollector::Instance().TakeSnapshot().tracks) {
    events += track.events.size();
  }
  return events;
}

}  // namespace

int main() {
  bench::Header("Trace collector", "overhead of compiled-in trace spans");
  bench::Harness harness("trace", kReps);
  auto mode = [](TraceMode m) { return [m] { ForceTraceMode(m); }; };

  // The cost of one *disabled* instrumentation site: TraceSpan
  // construction falls through on the Recording() gate.
  const bench::CaseResult& span = harness.Case<int>(
      "disabled span site",
      {{"off", mode(TraceMode::kOff),
        [] {
          for (size_t i = 0; i < kSpanIters; ++i) {
            TraceSpan site(TraceMode::kFull, 0, "bench.disabled");
            (void)site;
          }
          return 0;
        }}},
      [](int&) { return bench::Sample{0, {{"iters", kSpanIters}}}; });
  const double span_ns = span.Get("off").wall_ms.median * 1e6 / kSpanIters;
  std::printf("  per site: %.2f ns\n", span_ns);

  RapidEngine engine;
  bench::LoadOverheadTables(engine);
  // An off-mode run leaves the previous trace in the collector.
  auto sample = [](QueryResult& r) {
    bench::Sample s = bench::QuerySample(r);
    s.metrics.emplace_back(
        "trace_events",
        TraceModeActive() == TraceMode::kOff ? 0 : TraceEventCount());
    return s;
  };
  const std::pair<std::string, LogicalPtr> plans[] = {
      {"filter+group-by", bench::OverheadAggPlan()},
      {"partitioned join", bench::OverheadJoinPlan()}};
  for (const auto& [name, plan] : plans) {
    auto run = [&engine, &plan] { return bench::Must(engine.Execute(plan)); };
    const bench::CaseResult& c = harness.Case<QueryResult>(
        name,
        {{"off", mode(TraceMode::kOff), run},
         {"summary", mode(TraceMode::kSummary), run},
         {"full", mode(TraceMode::kFull), run}},
        sample);
    const double off = c.Get("off").wall_ms.median;
    const double full = c.Get("full").wall_ms.median;
    // Every event full mode records is one gated site the off-mode run
    // still visits. Estimated, not differenced: the tax is far below
    // timer noise, which is the point.
    const double off_tax =
        c.Get("full").Metric("trace_events") * span_ns * 1e-6 / off;
    harness.Gate(name + ": off-mode tax estimate <= 2%", off_tax, 0.02,
                 off_tax <= 0.02);
    harness.Gate(name + ": full <= off*1.10 + 0.5 ms", full,
                 off * 1.10 + 0.5, full <= off * 1.10 + 0.5);
  }
  return harness.Finish();
}
