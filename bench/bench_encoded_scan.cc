// Encoded-scan A/B: RAPID_ENCODED_SCAN=off vs auto through the full
// engine on a Q6-shaped scan+aggregate.
//
// Two tables with identical schema and row count: an RLE-friendly one
// (sorted date, long-run small domains — the shape clustering gives
// l_shipdate/l_quantity) and an incompressible one (every column
// shuffled high-entropy, so the encoding stack keeps everything
// plain). The encoded path must (i) return bit-identical aggregates,
// (ii) cut modeled scan time >= 1.3x where runs exist, and (iii) cost
// <= 2% where they don't — the auto gate has to be safe to leave on.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "storage/encoding_stack.h"

namespace {

using namespace rapid;
using namespace rapid::core;
using primitives::CmpOp;
using storage::EncodedScanMode;

constexpr size_t kRows = 200'000;
constexpr int kReps = 4;  // modeled gates; wall time is reported only

void LoadTables(RapidEngine& engine) {
  const std::vector<storage::ColumnSpec> specs = {
      {"shipdate", storage::ColumnKind::kDate},
      {"quantity", storage::ColumnKind::kInt32},
      {"discount", storage::ColumnKind::kInt32},
      {"price", storage::ColumnKind::kInt64}};

  // RLE-friendly: sorted date (runs of ~256 rows), coarse-grained
  // quantity/discount runs, and a price column that repeats within
  // order-sized groups.
  {
    std::vector<storage::ColumnData> data(4);
    Rng rng(42);
    for (size_t i = 0; i < kRows; ++i) {
      data[0].ints.push_back(static_cast<int64_t>(9131 + i / 256));
      data[1].ints.push_back(static_cast<int64_t>((i / 64) % 50 + 1));
      data[2].ints.push_back(static_cast<int64_t>((i / 128) % 11));
      data[3].ints.push_back(static_cast<int64_t>((i / 32) % 1000 + 90000));
    }
    RAPID_CHECK(
        engine.Load(storage::LoadTable("rle_friendly", specs, data).value())
            .ok());
  }

  // Incompressible: same domains, every row drawn independently.
  {
    std::vector<storage::ColumnData> data(4);
    Rng rng(43);
    for (size_t i = 0; i < kRows; ++i) {
      data[0].ints.push_back(9131 + rng.NextInRange(0, kRows / 256));
      data[1].ints.push_back(rng.NextInRange(1, 50));
      data[2].ints.push_back(rng.NextInRange(0, 10));
      data[3].ints.push_back(rng.NextInRange(90000, 91000));
    }
    RAPID_CHECK(
        engine.Load(storage::LoadTable("shuffled", specs, data).value()).ok());
  }
}

LogicalPtr Q6(const std::string& table) {
  return LogicalNode::GroupBy(
      LogicalNode::Scan(
          table, {"discount", "price"},
          {Predicate::Between("shipdate", 9200, 9500, 0.5),
           Predicate::CmpConst("quantity", CmpOp::kLt, 24, 0.5),
           Predicate::Between("discount", 3, 7, 0.45)}),
      {},
      {{"revenue", AggFunc::kSum,
        Expr::Mul(Expr::Col("price"), Expr::Col("discount")), {}}});
}

}  // namespace

int main() {
  bench::Header("Encoded scans (RAPID_ENCODED_SCAN ablation)",
                "RLE tiles over the DMS + run-level filters vs plain scans");
  RapidEngine engine;
  LoadTables(engine);
  std::printf("%zu rows/table, Q6-shaped scan+sum; off = plain tiles,\n"
              "auto = encoded transfers + run-level predicates\n",
              kRows);

  bench::Harness harness("encoding", kReps);
  auto mode = [](EncodedScanMode m) {
    return [m] { storage::ForceEncodedScan(m); };
  };
  auto sample = [](QueryResult& r) {
    bench::Sample s = bench::QuerySample(r);
    s.metrics.insert(
        s.metrics.end(),
        {{"encoded_bytes", static_cast<double>(r.stats.encoded_bytes_moved)},
         {"plain_bytes", static_cast<double>(r.stats.plain_bytes_moved)},
         {"runs_filtered", static_cast<double>(r.stats.runs_filtered)}});
    return s;
  };
  for (const std::string table : {"rle_friendly", "shuffled"}) {
    auto run = [&engine, table] {
      return bench::Must(engine.Execute(Q6(table)));
    };
    const bench::CaseResult& c = harness.Case<QueryResult>(
        table,
        {{"off", mode(EncodedScanMode::kOff), run},
         {"auto", mode(EncodedScanMode::kAuto), run}},
        sample);
    const bench::ArmResult& off = c.Get("off");
    const bench::ArmResult& on = c.Get("auto");
    const double on_ms = on.Metric("modeled_ms");
    const double speedup = on_ms > 0 ? off.Metric("modeled_ms") / on_ms : 1.0;
    harness.Gate(table + ": off moves no encoded bytes",
                 off.Metric("encoded_bytes"), 0,
                 off.Metric("encoded_bytes") == 0);
    if (table == "shuffled") {
      // Nothing encodable: the auto gate must be a no-op.
      harness.Gate(table + ": modeled speedup >= 0.98x", speedup, 0.98,
                   speedup >= 0.98);
      continue;
    }
    harness.Gate(table + ": modeled speedup >= 1.3x", speedup, 1.3,
                 speedup >= 1.3);
    harness.Gate(table + ": auto moves encoded bytes",
                 on.Metric("encoded_bytes"), 0,
                 on.Metric("encoded_bytes") > 0);
    harness.Gate(table + ": auto filters runs", on.Metric("runs_filtered"), 0,
                 on.Metric("runs_filtered") > 0);
  }
  return harness.Finish();
}
