// Tile-pipeline fusion ablation.
//
// The same star-join query family executed twice through the full
// stack: once with the fused push-pipeline executor (scan/filter/
// project/broadcast-probe collapsed into one ParallelFor round, tiles
// staying DMEM-resident across the whole chain) and once with the
// step-materialized path (every operator materializes a ColumnSet,
// joins partition both sides). Chains grow from 2 to 4 operators. A
// fourth case runs Figure 4's aggregation example: fused, it is
// formation (c) — scan, filter and a low-NDV aggregate in one task,
// only the aggregate written out; unfused, formation (a).
//
// Reported per chain: step counts, wall time, modeled time and modeled
// DMS transfer cycles, with the fused and unfused results identical.
// The DMS ratio is the fusion win — data movement eliminated by not
// materializing intermediates and not partitioning — and must not come
// with a wall-clock regression.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "storage/dsb.h"

namespace {

using namespace rapid;
using namespace rapid::core;
using primitives::CmpOp;

constexpr size_t kFactRows = 200'000;
constexpr size_t kDimRows = 1'000;
constexpr int kReps = 4;  // modeled gate; wall time is reported only

void LoadData(RapidEngine& engine) {
  Rng rng(42);
  {
    std::vector<storage::ColumnSpec> specs = {
        {"f_id", storage::ColumnKind::kInt64},
        {"f_dim", storage::ColumnKind::kInt32},
        {"f_price", storage::ColumnKind::kDecimal},
        {"f_qty", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(4);
    for (size_t i = 0; i < kFactRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(i));
      data[1].ints.push_back(rng.NextInRange(0, kDimRows - 1));
      data[2].decimals.push_back(
          static_cast<double>(rng.NextInRange(100, 99999)) / 100.0);
      data[3].ints.push_back(rng.NextInRange(1, 50));
    }
    RAPID_CHECK(engine.Load(storage::LoadTable("facts", specs, data).value())
                    .ok());
  }
  {
    std::vector<storage::ColumnSpec> specs = {
        {"d_id", storage::ColumnKind::kInt32},
        {"d_class", storage::ColumnKind::kInt32}};
    std::vector<storage::ColumnData> data(2);
    for (size_t i = 0; i < kDimRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(i));
      data[1].ints.push_back(static_cast<int64_t>(i % 13));
    }
    RAPID_CHECK(engine.Load(storage::LoadTable("dims", specs, data).value())
                    .ok());
  }
}

}  // namespace

int main() {
  bench::Header("Tile-pipeline fusion (ablation)",
                "Fused push pipelines vs step-materialized execution");
  RapidEngine engine;
  LoadData(engine);

  auto facts = LogicalNode::Scan("facts", {"f_dim", "f_price", "f_qty"});
  auto dims = LogicalNode::Scan("dims", {"d_id", "d_class"});

  std::vector<std::pair<std::string, LogicalPtr>> chains;
  // 2 ops: scan -> broadcast probe.
  chains.emplace_back(
      "scan>probe",
      LogicalNode::Join(dims, facts, {"d_id"}, {"f_dim"},
                        {"d_class", "f_price", "f_qty"}));
  // 3 ops: scan -> filter -> probe.
  auto filtered = LogicalNode::Scan(
      "facts", {"f_dim", "f_price", "f_qty"},
      {Predicate::CmpConst("f_qty", CmpOp::kGe, 20)});
  chains.emplace_back(
      "scan>filter>probe",
      LogicalNode::Join(dims, filtered, {"d_id"}, {"f_dim"},
                        {"d_class", "f_price", "f_qty"}));
  // 4 ops: scan -> filter -> probe -> project (the project rides the
  // fused pipeline as a trailing filter+project stage).
  chains.emplace_back(
      "scan>filter>probe>project",
      LogicalNode::Project(
          LogicalNode::Join(dims, filtered, {"d_id"}, {"f_dim"},
                            {"d_class", "f_price", "f_qty"}),
          {{"gross", Expr::Mul(Expr::Col("f_price"), Expr::Col("f_qty"))},
           {"d_class", Expr::Col("d_class")}}));
  // Figure 4: SELECT sum(l_quantity * 0.5), min(l_quantity) FROM
  // lineitem WHERE l_extendedprice > 100, over the fact table.
  const storage::Table* fact_table = engine.GetTable("facts");
  const size_t price_col = fact_table->schema().IndexOf("f_price").value();
  const int64_t hundred =
      100 * storage::Pow10(fact_table->stats(price_col).dsb_scale);
  chains.emplace_back(
      "figure4:scan>filter>agg",
      LogicalNode::GroupBy(
          LogicalNode::Scan("facts", {"f_qty"},
                            {Predicate::CmpConst("f_price", CmpOp::kGt,
                                                 hundred)}),
          {},
          {{"sum_half_qty", AggFunc::kSum,
            Expr::Mul(Expr::Col("f_qty"), Expr::Dec(0.5, 1)), {}},
           {"min_qty", AggFunc::kMin, Expr::Col("f_qty"), {}}}));

  std::printf("facts %zu rows x dims %zu rows; fused = tile pipelines +\n"
              "broadcast probe (+ terminal aggregate), unfused = materialize\n"
              "+ partitioned join (+ separate group-by step)\n",
              kFactRows, kDimRows);
  bench::Harness harness("fusion", kReps);
  auto sample = [](QueryResult& r) {
    bench::Sample s = bench::QuerySample(r);
    s.metrics.emplace_back("steps", r.stats.steps.size());
    return s;
  };
  for (const auto& [name, plan] : chains) {
    auto run = [&engine, &plan](bool fused) {
      return [&engine, &plan, fused] {
        ExecOptions options;
        options.planner.enable_fusion = fused;
        return bench::Must(engine.Execute(plan, options));
      };
    };
    const bench::CaseResult& c = harness.Case<QueryResult>(
        name, {{"unfused", {}, run(false)}, {"fused", {}, run(true)}}, sample);
    const double fused_dms = c.Get("fused").Metric("dms_cycles");
    const double dms_ratio =
        fused_dms > 0 ? c.Get("unfused").Metric("dms_cycles") / fused_dms : 0;
    harness.Gate(name + ": modeled DMS cycles unfused/fused >= 1.3x",
                 dms_ratio, 1.3, dms_ratio >= 1.3);
  }
  return harness.Finish();
}
