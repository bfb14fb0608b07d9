// Morsel-driven scheduler ablation: static round-robin striding vs the
// dynamic LPT + work-stealing WorkQueue (RAPID_SCHED), on workloads
// with deliberately skewed morsel weights:
//
//   * Zipf scan    — chunk row counts follow a capped Zipf(1.1) decay
//                    (hot head of near-full chunks, long tail of small
//                    ones), so static round-robin lands the heavy
//                    chunks of every stride group on the same core.
//   * skewed join  — partition pair sizes follow a capped Zipf(1.2),
//                    the shape a heavy-hitter key distribution leaves
//                    behind after hash partitioning.
//
// Reports the modeled phase makespan (slowest core's compute cycles,
// summed over morsel phases), the imbalance ratio (max/mean) and steal
// counts for both modes and asserts the results are bit-identical.

#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/ops/join_exec.h"
#include "dpu/dpu.h"
#include "dpu/work_queue.h"
#include "storage/table.h"

namespace {

using namespace rapid;
using namespace rapid::core;

constexpr int kReps = 4;  // modeled gate; wall time is reported only

// Capped Zipf morsel weights: rank r carries (r+1)^-theta of the mass,
// clipped at `cap_rows` (the chunk/partition capacity bound) and
// floored at a 64-row minimum tile.
std::vector<size_t> CappedZipfRows(size_t n, double theta, size_t total_rows,
                                   size_t cap_rows) {
  std::vector<double> w(n);
  double tot = 0;
  for (size_t r = 0; r < n; ++r) {
    w[r] = std::pow(static_cast<double>(r + 1), -theta);
    tot += w[r];
  }
  std::vector<size_t> rows(n);
  for (size_t r = 0; r < n; ++r) {
    const auto scaled =
        static_cast<size_t>(std::llround(total_rows * w[r] / tot));
    rows[r] = std::max<size_t>(64, std::min(cap_rows, scaled));
  }
  return rows;
}

storage::Table ZipfChunkTable(const std::vector<size_t>& chunk_rows) {
  storage::Schema schema({{"k", storage::DataType::kInt64},
                          {"v", storage::DataType::kInt64}});
  storage::Table table("z", schema);
  storage::Partition part;
  Rng rng(1234);
  int64_t key = 0;
  for (const size_t rows : chunk_rows) {
    storage::Chunk chunk(schema, rows);
    for (size_t r = 0; r < rows; ++r) {
      chunk.column(0).Append(key++);
      chunk.column(1).Append(rng.NextInRange(0, 99));
    }
    part.AddChunk(std::move(chunk));
  }
  table.AddPartition(std::move(part));
  table.set_rows_per_chunk(4096);
  table.RecomputeStats();
  return table;
}

// One partition pair per Zipf rank: partition p holds keys congruent
// to p so the pair sizes are exactly the capped-Zipf weights (build
// rows_p distinct keys, each matched by two probe rows).
PartitionedData ZipfPartitions(const std::vector<size_t>& part_rows,
                               size_t probe_factor) {
  std::vector<ColumnMeta> metas(2);
  metas[0].name = "k";
  metas[1].name = "v";
  PartitionedData data;
  data.bits_used = 8;
  const auto num_parts = static_cast<int64_t>(part_rows.size());
  for (size_t p = 0; p < part_rows.size(); ++p) {
    ColumnSet set(metas);
    const size_t rows = part_rows[p] * probe_factor;
    for (size_t j = 0; j < rows; ++j) {
      const int64_t key =
          static_cast<int64_t>(p) +
          static_cast<int64_t>(j % part_rows[p]) * num_parts;
      set.column(0).push_back(key);
      set.column(1).push_back(static_cast<int64_t>(j));
    }
    data.partitions.push_back(std::move(set));
  }
  return data;
}

// Rows in order: the scheduler places each morsel's output by morsel
// id, so both modes must produce the same sequence, not just the same
// bag.
bench::Sample ScheduleSample(const ColumnSet& rows,
                             const dpu::ImbalanceStats& imb) {
  uint64_t h = 0;
  for (size_t c = 0; c < rows.num_columns(); ++c) {
    h = bench::HashValues(rows.column(c).data(), rows.column(c).size(), h);
  }
  return {h,
          {{"makespan_cycles", imb.max_core_cycles},
           {"imbalance", imb.Ratio()},
           {"steals", static_cast<double>(imb.steal_count)}}};
}

}  // namespace

int main() {
  bench::Header("Scheduler ablation",
                "Static round-robin vs morsel-driven LPT + stealing");
  std::printf("32 cores; makespan = summed per-phase slowest-core compute"
              " cycles\n");
  bench::Harness harness("scheduler", kReps);
  const dpu::SchedMode modes[] = {dpu::SchedMode::kStatic,
                                  dpu::SchedMode::kMorsel};

  // 512 chunks, capped Zipf(1.1): the largest chunk is ~one mean core
  // load, so the win comes from balancing, not from splitting one
  // dominant morsel (which no scheduler could).
  const std::vector<size_t> chunk_rows =
      CappedZipfRows(512, 1.1, 48 * 4096, 4096);
  const auto scan_plan = LogicalNode::Scan(
      "z", {"k", "v"},
      {Predicate::CmpConst("v", primitives::CmpOp::kLt, 50)});
  std::unique_ptr<RapidEngine> engine;
  std::vector<bench::Arm<QueryResult>> scan_arms;
  for (const dpu::SchedMode mode : modes) {
    scan_arms.push_back(
        {dpu::SchedModeName(mode),
         [&engine, &chunk_rows, mode] {
           dpu::ForceSchedMode(mode);
           engine = std::make_unique<RapidEngine>(dpu::DpuConfig{});
           RAPID_CHECK(engine->Load(ZipfChunkTable(chunk_rows)).ok());
         },
         [&engine, &scan_plan] {
           return bench::Must(engine->Execute(scan_plan));
         }});
  }
  const bench::CaseResult& scan = harness.Case<QueryResult>(
      "zipf scan", scan_arms, [](QueryResult& r) {
        return ScheduleSample(r.rows, r.stats.imbalance);
      });

  // 256 partition pairs, capped Zipf(1.2) pair sizes; each build key
  // matches exactly two probe rows so pair work stays linear in rows.
  const std::vector<size_t> pair_rows = CappedZipfRows(256, 1.2, 98304, 2048);
  const PartitionedData build = ZipfPartitions(pair_rows, 1);
  const PartitionedData probe = ZipfPartitions(pair_rows, 2);
  JoinSpec spec;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.outputs = {{true, 1}, {false, 1}};
  spec.large_skew_factor = 1e30;  // measure scheduling, not repartitioning
  std::unique_ptr<dpu::Dpu> join_dpu;
  std::vector<bench::Arm<ColumnSet>> join_arms;
  for (const dpu::SchedMode mode : modes) {
    join_arms.push_back(
        {dpu::SchedModeName(mode),
         [&join_dpu, mode] {
           dpu::ForceSchedMode(mode);
           join_dpu = std::make_unique<dpu::Dpu>(dpu::DpuConfig{});
         },
         [&] {
           return bench::Must(JoinExec::Execute(*join_dpu, build, probe, spec));
         }});
  }
  const bench::CaseResult& join = harness.Case<ColumnSet>(
      "skewed join", join_arms, [&join_dpu](ColumnSet& rows) {
        return ScheduleSample(rows, join_dpu->imbalance());
      });

  double makespan[2] = {0, 0};
  for (int m = 0; m < 2; ++m) {
    for (const bench::CaseResult* c : {&scan, &join}) {
      makespan[m] +=
          c->Get(dpu::SchedModeName(modes[m])).Metric("makespan_cycles");
    }
  }
  const double speedup = makespan[0] / makespan[1];
  harness.Gate("combined makespan speedup >= 1.3x", speedup, 1.3,
               speedup >= 1.3);
  return harness.Finish();
}
