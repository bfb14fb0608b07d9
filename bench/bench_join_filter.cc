// Join-filter pushdown A/B: RAPID_JOIN_FILTER=off vs auto through the
// full engine on a partitioned FK join.
//
// Two joins over the same fact table: a *selective* one (the dim
// build side filtered to ~1% of its keys, so ~99% of fact rows
// reference pruned dims and are Bloom-prunable before the probe-side
// partition rounds) and a *non-selective* one (every fact row has a
// build match, so the cost gate must decline the filter and the auto
// mode must cost nothing). The pushdown must (i) return bit-identical
// results, (ii) cut modeled join time >= 1.3x on the selective join,
// and (iii) cost <= 2% where nothing can be pruned — the auto gate
// has to be safe to leave on.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/join_filter.h"

namespace {

using namespace rapid;
using namespace rapid::core;

constexpr size_t kFactRows = 200'000;
constexpr size_t kDimRows = 8192;
constexpr int kReps = 4;  // modeled gates; wall time is reported only

void LoadTables(RapidEngine& engine) {
  {
    std::vector<storage::ColumnSpec> specs = {
        {"k", storage::ColumnKind::kInt64},
        {"w", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(2);
    for (size_t i = 0; i < kDimRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(i));
      data[1].ints.push_back(static_cast<int64_t>(i));
    }
    RAPID_CHECK(engine.Load(storage::LoadTable("dim", specs, data).value())
                    .ok());
  }
  {
    std::vector<storage::ColumnSpec> specs = {
        {"id", storage::ColumnKind::kInt64},
        {"v", storage::ColumnKind::kInt64}};
    std::vector<storage::ColumnData> data(2);
    Rng rng(4242);
    for (size_t i = 0; i < kFactRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(i));
      data[1].ints.push_back(
          rng.NextInRange(0, static_cast<int>(kDimRows) - 1));
    }
    RAPID_CHECK(engine.Load(storage::LoadTable("fact", specs, data).value())
                    .ok());
  }
}

// selective: build side filtered to ~1% of its keys. Non-selective:
// unfiltered build, every probe row passes — nothing to prune.
LogicalPtr JoinPlan(bool selective) {
  std::vector<Predicate> dim_preds;
  if (selective) {
    dim_preds.push_back(Predicate::Between("w", 0, 80, 0.01));
  }
  return LogicalNode::GroupBy(
      LogicalNode::Join(
          LogicalNode::Scan("dim", {"k", "w"}, std::move(dim_preds)),
          LogicalNode::Scan("fact", {"id", "v"}), {"k"}, {"v"},
          {"id", "w"}),
      {},
      {{"checksum", AggFunc::kSum, Expr::Col("id"), {}},
       {"rows", AggFunc::kCount, Expr::Col("id"), {}}});
}

}  // namespace

int main() {
  bench::Header("Join-filter pushdown (RAPID_JOIN_FILTER ablation)",
                "build-side Bloom filters pruning probe rows before the DMS");
  RapidEngine engine;
  LoadTables(engine);
  std::printf("%zu-row fact joins %zu-row dim (sum+count on top);\n"
              "off = plain partitioned join, auto = Bloom pruning in the"
              " probe scan\n",
              kFactRows, kDimRows);

  bench::Harness harness("join_filter", kReps);
  auto mode = [](JoinFilterMode m) { return [m] { ForceJoinFilter(m); }; };
  auto sample = [](QueryResult& r) {
    bench::Sample s = bench::QuerySample(r);
    s.metrics.insert(
        s.metrics.end(),
        {{"filters_built", static_cast<double>(r.stats.join_filter_built)},
         {"rows_pruned",
          static_cast<double>(r.stats.rows_pruned_by_join_filter)},
         {"filter_bytes", static_cast<double>(r.stats.filter_bytes)}});
    return s;
  };
  for (const bool selective : {true, false}) {
    const std::string name = selective ? "selective" : "nonselective";
    auto run = [&engine, selective] {
      // Unfused partitioned join: the headline saving is the probe-side
      // partition DMS round trips the pruned rows no longer pay.
      ExecOptions options;
      options.planner.enable_fusion = false;
      return bench::Must(engine.Execute(JoinPlan(selective), options));
    };
    const bench::CaseResult& c = harness.Case<QueryResult>(
        name,
        {{"off", mode(JoinFilterMode::kOff), run},
         {"auto", mode(JoinFilterMode::kAuto), run}},
        sample);
    const bench::ArmResult& off = c.Get("off");
    const bench::ArmResult& on = c.Get("auto");
    const double on_ms = on.Metric("modeled_ms");
    const double speedup = on_ms > 0 ? off.Metric("modeled_ms") / on_ms : 1.0;
    const double off_filtering =
        off.Metric("filters_built") + off.Metric("rows_pruned");
    harness.Gate(name + ": off builds and prunes nothing", off_filtering, 0,
                 off_filtering == 0);
    if (!selective) {
      // The cost gate declines the filter: auto must cost nothing.
      harness.Gate(name + ": modeled speedup >= 0.98x", speedup, 0.98,
                   speedup >= 0.98);
      continue;
    }
    harness.Gate(name + ": modeled speedup >= 1.3x", speedup, 1.3,
                 speedup >= 1.3);
    harness.Gate(name + ": auto prunes rows", on.Metric("rows_pruned"), 0,
                 on.Metric("rows_pruned") > 0);
    harness.Gate(name + ": auto builds a filter", on.Metric("filters_built"),
                 0, on.Metric("filters_built") > 0);
  }
  return harness.Finish();
}
