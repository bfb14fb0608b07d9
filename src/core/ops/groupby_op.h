// Group-by operator (Section 5.4).
//
// RAPID has two group-by strategies chosen by QComp from NDV
// statistics:
//  * High NDV: a partitioning phase distributes distinct groups across
//    dpCores so each core's hash table fits in DMEM; this operator
//    then runs per partition with disjoint key sets (no merge needed).
//  * Low NDV: the operator runs on-the-fly over each morsel of the
//    input — as the terminal stage of the fused scan pipeline that
//    produces it (Figure 4c), or over a materialized input — and
//    leaves one PartialAggregate per morsel; a *merge operator* folds
//    the small partials afterwards (merge works on aggregated data,
//    low overhead).
//
// Both strategies use this operator; the strategy decides what input
// each core sees and whether MergeFrom runs afterwards.

#ifndef RAPID_CORE_OPS_GROUPBY_OP_H_
#define RAPID_CORE_OPS_GROUPBY_OP_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/expr.h"
#include "core/qef/column_set.h"
#include "core/qef/operator.h"
#include "primitives/agg.h"

namespace rapid::core {

enum class AggFunc { kSum, kMin, kMax, kCount };

struct AggSpec {
  std::string name;
  AggFunc func = AggFunc::kCount;
  ExprPtr expr;  // input expression; null for COUNT(*)
  // Optional FILTER clause: only qualifying rows feed this aggregate
  // (how the compiler lowers CASE WHEN <pred> THEN <expr> END inside
  // an aggregate, e.g. TPC-H Q14's promo_revenue numerator).
  std::shared_ptr<Predicate> filter;
};

// Chained hash table over columnar key/aggregate storage. Sized by
// the planner's NDV estimate; lives in DMEM in the real system.
class GroupHashTable {
 public:
  GroupHashTable(size_t num_keys, size_t num_aggs);

  // Returns the group index for `keys`, inserting a new group if
  // needed. `chain_steps` (optional) accumulates collision-chain
  // traversals for cycle accounting.
  size_t GroupFor(const int64_t* keys, uint64_t* chain_steps = nullptr);

  void UpdateSum(size_t group, size_t agg, int64_t value) {
    states_[agg][group].sum += value;
  }
  void UpdateMin(size_t group, size_t agg, int64_t value) {
    auto& st = states_[agg][group];
    if (value < st.min) st.min = value;
  }
  void UpdateMax(size_t group, size_t agg, int64_t value) {
    auto& st = states_[agg][group];
    if (value > st.max) st.max = value;
  }
  void UpdateCount(size_t group, size_t agg) { ++states_[agg][group].count; }
  void MergeState(size_t group, size_t agg, const primitives::AggState& st) {
    states_[agg][group].Merge(st);
  }

  size_t num_groups() const { return num_groups_; }
  int64_t key(size_t group, size_t k) const { return keys_[k][group]; }
  const primitives::AggState& state(size_t group, size_t agg) const {
    return states_[agg][group];
  }

  // Drops every group and returns to the initial bucket count, so the
  // next input walks the same collision chains a new table would.
  void Clear();

  // Approximate DMEM footprint (keys + states + buckets).
  size_t ByteSize() const;

 private:
  void MaybeGrow();

  size_t num_keys_;
  size_t num_groups_ = 0;
  std::vector<std::vector<int64_t>> keys_;  // [key][group]
  std::vector<std::vector<primitives::AggState>> states_;  // [agg][group]
  // Compact chained table (DMEM-style integer arrays, like the join
  // kernel): heads_ maps hash buckets to the last group inserted,
  // next_ chains groups with colliding hashes.
  std::vector<int32_t> heads_;
  std::vector<int32_t> next_;
  std::vector<uint32_t> hashes_;  // per group, for cheap rehashing
};

// The groups one morsel aggregated (low-NDV strategy), in
// first-appearance order: keys and aggregate states flattened group by
// group, the DSB scales observed and the input rows consumed. A morsel
// that saw no rows holds no groups and scale 0.
struct PartialAggregate {
  size_t num_groups = 0;
  std::vector<int64_t> keys;                 // [group * num_keys + k]
  std::vector<primitives::AggState> states;  // [group * num_aggs + a]
  std::vector<int> key_scales;
  std::vector<int> agg_scales;
  uint64_t rows = 0;
};

class GroupByOp : public PipelineOp {
 public:
  GroupByOp(std::vector<ExprPtr> keys, std::vector<AggSpec> aggs,
            ColumnBinding binding);

  size_t DmemBytes(size_t tile_rows) const override;
  Status Open(ExecCtx& ctx) override;
  Status Consume(ExecCtx& ctx, const Tile& tile) override;
  Status Finish(ExecCtx& ctx) override;

  // Input rows aggregated so far (the aggregate's workload volume).
  uint64_t rows() const { return rows_; }

  // Moves everything aggregated since the last call out as a partial
  // and starts over empty, so one operator serves every morsel a core
  // runs (low-NDV strategy).
  PartialAggregate TakePartial();

  // Merge operator (low-NDV strategy): folds `partial`'s groups into
  // this operator's table, appending groups it has not seen in the
  // partial's order. While this operator has seen no rows it adopts
  // the partial's DSB scales (those of the rows it aggregated).
  void MergeFrom(const PartialAggregate& partial);

  // Emits groups + aggregates into `out` (columns: keys then aggs).
  Status EmitInto(ColumnSet* out) const;

 private:
  std::vector<ExprPtr> keys_;
  std::vector<AggSpec> aggs_;
  ColumnBinding binding_;
  GroupHashTable table_;
  std::vector<int> key_scales_;
  std::vector<int> agg_scales_;
  uint64_t rows_ = 0;
  // Per-tile evaluation buffers, kept across tiles and morsels.
  std::vector<std::vector<int64_t>> key_scratch_;
  std::vector<std::vector<int64_t>> agg_scratch_;
  std::vector<BitVector> agg_filters_;
  std::vector<int64_t> key_row_;
};

}  // namespace rapid::core

#endif  // RAPID_CORE_OPS_GROUPBY_OP_H_
