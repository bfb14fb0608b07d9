#include "core/ops/partition_exec.h"

#include <algorithm>

#include "common/arena.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"
#include "primitives/hash.h"
#include "primitives/partition_map.h"

namespace rapid::core {

namespace {

int Log2Of(int fanout) {
  int bits = 0;
  while ((1 << bits) < fanout) ++bits;
  RAPID_CHECK((1 << bits) == fanout);
  return bits;
}

// Logical row width of a ColumnSet: physical widths of the logical
// types (intermediates are stored widened, but the DMS moves the
// encoded widths on the real machine, so cycle charges use these).
size_t LogicalRowBytes(const ColumnSet& set) {
  size_t bytes = 0;
  for (size_t c = 0; c < set.num_columns(); ++c) {
    bytes += storage::WidthOf(set.meta(c).type);
  }
  return bytes;
}

// One work unit of a round: rows [begin, end) of input bucket
// `bucket`. Units of one bucket are contiguous and in range order.
struct RangeUnit {
  size_t bucket;
  size_t begin;
  size_t end;
};

// The output of one round, laid out before any row moves: the
// in_buckets * fanout new buckets (bucket b's partition p at
// b * fanout + p) allocated at their exact final sizes, their carried
// hash columns (empty when not carried), and per unit u and partition
// p the row offset `cursors[u * fanout + p]` in new bucket
// unit.bucket * fanout + p where the unit's rows start.
struct RoundLayout {
  std::vector<ColumnSet> buckets;
  std::vector<std::vector<uint32_t>> hashes;
  std::vector<size_t> cursors;
};

// Count -> exclusive prefix sum -> allocate. A host pass counts each
// unit's rows per partition over the carried hashes; the prefix sum
// runs in (input bucket, partition, unit) order, so every partition
// receives its rows in (range order, tile order) — the order of the
// input bucket itself. This is uncharged host bookkeeping: the DPU
// learns the same counts from its own tile histograms.
RoundLayout LayoutRound(const std::vector<RangeUnit>& units,
                        const std::vector<std::vector<uint32_t>>& hashes,
                        const std::vector<ColumnMeta>& metas, int fanout,
                        int shift, bool carry_hashes) {
  const auto ufanout = static_cast<size_t>(fanout);
  const uint32_t mask = static_cast<uint32_t>(fanout) - 1;
  RoundLayout layout;
  layout.cursors.assign(units.size() * ufanout, 0);
  std::vector<size_t> sizes(hashes.size() * ufanout, 0);
  for (size_t u = 0; u < units.size(); ++u) {
    const RangeUnit& unit = units[u];
    size_t* cursor = layout.cursors.data() + u * ufanout;
    const uint32_t* h = hashes[unit.bucket].data();
    for (size_t i = unit.begin; i < unit.end; ++i) {
      ++cursor[(h[i] >> shift) & mask];
    }
    // Exclusive prefix sum: this unit's slice starts where the earlier
    // units of the same bucket end.
    size_t* size = sizes.data() + unit.bucket * ufanout;
    for (size_t p = 0; p < ufanout; ++p) {
      const size_t rows = cursor[p];
      cursor[p] = size[p];
      size[p] += rows;
    }
  }
  layout.buckets.reserve(sizes.size());
  if (carry_hashes) layout.hashes.resize(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    // SplitRange addresses rows within a new bucket as uint32 slots.
    RAPID_CHECK(sizes[i] <= UINT32_MAX);
    ColumnSet& bucket = layout.buckets.emplace_back(metas);
    for (size_t c = 0; c < bucket.num_columns(); ++c) {
      bucket.column(c).resize(sizes[i]);
    }
    if (carry_hashes) layout.hashes[i].resize(sizes[i]);
  }
  return layout;
}

// Splits rows [begin, end) of `bucket` `fanout` ways using hash bits
// [shift, shift+log2(fanout)) straight into the round's pre-sized new
// buckets `parts[0, fanout)`: partition p's rows go to
// parts[p][cursor[p]...], and cursor[p] advances by the tile's count.
// `part_hashes` (null when not carried) receives the rows' hashes the
// same way. Runs on one core; the unit's slices are disjoint from
// every other unit's, so nothing is resized or shared while cores run.
// The DMS charge covers the full stream through the partition engine
// (staging, CRC/CID resolution and the scatter back to DRAM in one
// pass, cf. Figure 8).
//
// The software stage gives each row its slot in its partition once
// per tile (slot[i] = cursor[p]++); every column and the carried hash
// are then one store loop, dst[p][slot[i]] = in[i]. All tile scratch
// comes from the core's buffer pool, so a warm core never touches the
// heap.
Status SplitRange(dpu::DpCore& core, const dpu::CostParams& params,
                  const ColumnSet& bucket, const std::vector<uint32_t>& hashes,
                  size_t begin, size_t end, int fanout, int hw_fanout,
                  int shift, size_t tile_rows, const CancelToken* cancel,
                  ColumnSet* parts, std::vector<uint32_t>* part_hashes,
                  size_t* cursor) {
  const size_t num_cols = bucket.num_columns();
  const int sw_fanout = fanout / hw_fanout;
  const size_t row_bytes = LogicalRowBytes(bucket);

  TileBufferPool& pool = core.pool();
  const auto ufanout = static_cast<size_t>(fanout);
  // Fallible acquires: "pool.acquire" faults (allocator pressure on
  // chunk growth) surface as a Status instead of aborting, so the
  // retry/fallback ladder can recover. The RAII handles return every
  // buffer to the pool on any exit — including cancellation mid-round.
  TileBufferPool::Handle pof;
  TileBufferPool::Handle counts;
  TileBufferPool::Handle slots;
  TileBufferPool::Handle bases;
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint16_t>(tile_rows, &pof));
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint32_t>(ufanout, &counts));
  RAPID_RETURN_NOT_OK(pool.TryAcquireArray<uint32_t>(tile_rows, &slots));
  RAPID_RETURN_NOT_OK(
      pool.TryAcquireArray<int64_t*>(num_cols * ufanout, &bases));
  // Column c of partition p starts at base[c * fanout + p].
  int64_t** base = bases.as<int64_t*>();
  for (size_t c = 0; c < num_cols; ++c) {
    for (size_t p = 0; p < ufanout; ++p) {
      base[c * ufanout + p] = parts[p].column(c).data();
    }
  }

  for (size_t start = begin; start < end; start += tile_rows) {
    RAPID_RETURN_NOT_OK(CancelToken::Check(cancel));
    const size_t rows = std::min(tile_rows, end - start);
    // compute_partition_map over this tile's hash values (Listing 2,
    // loops 1-2; the RID list is not needed on the scatter path).
    primitives::ComputePartitionIndex(hashes.data() + start, rows, fanout,
                                      shift, pof.as<uint16_t>(),
                                      counts.as<uint32_t>());
    const uint16_t* partition_of = pof.as<uint16_t>();
    // Within each partition rows land in tile order at the unit's
    // cursor.
    uint32_t* slot = slots.as<uint32_t>();
    for (size_t i = 0; i < rows; ++i) {
      slot[i] = static_cast<uint32_t>(cursor[partition_of[i]]++);
    }
    for (size_t c = 0; c < num_cols; ++c) {
      const int64_t* in = bucket.column(c).data() + start;
      int64_t* const* dst = base + c * ufanout;
      for (size_t i = 0; i < rows; ++i) dst[partition_of[i]][slot[i]] = in[i];
    }
    if (part_hashes != nullptr) {
      const uint32_t* h = hashes.data() + start;
      for (size_t i = 0; i < rows; ++i) {
        part_hashes[partition_of[i]][slot[i]] = h[i];
      }
    }

    // Cycle charges. One partition-engine pass moves the tile's data
    // (read + partitioned write); the dpCore's software stage runs the
    // map/gather loops for the software share of the fan-out.
    if (hw_fanout > 1) {
      core.cycles().ChargeDms(dpu::HwPartitionCycles(
          params, dpu::HwPartitionStrategy::kHash, 1, rows,
          rows * row_bytes));
    } else {
      core.cycles().ChargeDms(static_cast<double>(rows * row_bytes) /
                              params.partition_bytes_per_cycle);
    }
    if (sw_fanout > 1) {
      core.cycles().ChargeCompute(dpu::SwPartitionTileCycles(
          params, rows, static_cast<int>(num_cols), sw_fanout));
    } else {
      // Pure hardware round: the dpCore only drains DMEM buffers.
      core.cycles().ChargeCompute(static_cast<double>(rows));
    }
  }
  return Status::OK();
}

}  // namespace

bool PartitionProgress::CompatibleWith(const PartitionScheme& scheme) const {
  if (rounds_done <= 0 ||
      rounds_done > static_cast<int>(scheme.NumRounds())) {
    return false;
  }
  size_t expect_buckets = 1;
  int expect_bits = 0;
  for (int r = 0; r < rounds_done; ++r) {
    const int fanout = scheme.rounds[static_cast<size_t>(r)].fanout;
    expect_buckets *= static_cast<size_t>(fanout);
    for (int b = 1; b < fanout; b <<= 1) ++expect_bits;
  }
  return buckets.size() == expect_buckets &&
         bucket_hashes.size() == expect_buckets && bits_used == expect_bits;
}

std::vector<uint32_t> PartitionExec::HashColumn(
    const ColumnSet& input, const std::vector<size_t>& key_cols) {
  const size_t n = input.num_rows();
  std::vector<uint32_t> hashes(n, 0xFFFFFFFFu);
  for (size_t kc : key_cols) {
    primitives::HashCombineTile(input.column(kc).data(), n, hashes.data());
  }
  return hashes;
}

Result<PartitionedData> PartitionExec::Execute(
    dpu::Dpu& dpu, const ColumnSet& input,
    const std::vector<size_t>& key_cols, const PartitionScheme& scheme,
    size_t tile_rows, const CancelToken* cancel,
    PartitionProgress* progress) {
  if (scheme.rounds.empty()) {
    return Status::InvalidArgument("partition scheme needs >= 1 round");
  }
  for (const PartitionRound& r : scheme.rounds) {
    if (r.fanout < 2 || (r.fanout & (r.fanout - 1)) != 0) {
      return Status::InvalidArgument("round fan-out must be a power of two");
    }
    if (r.hw_fanout < 1 || r.fanout % r.hw_fanout != 0) {
      return Status::InvalidArgument("hw fan-out must divide the round");
    }
  }

  // Current buckets plus their hash columns (hashes are computed once
  // by the DMS hash engine and reused across rounds). Round 0 reads
  // `input` in place: `buckets` stays empty until a round completes.
  // A compatible checkpoint replaces the leading rounds — including
  // the hash pass — with the buckets it already holds; resumed rounds
  // are deterministic functions of those buckets, so the final
  // partitions are bit-identical to a from-scratch run.
  std::vector<ColumnSet> buckets;
  std::vector<std::vector<uint32_t>> bucket_hashes;
  int shift = 0;
  size_t start_round = 0;
  if (progress != nullptr && !progress->empty() &&
      progress->CompatibleWith(scheme)) {
    buckets = std::move(progress->buckets);
    bucket_hashes = std::move(progress->bucket_hashes);
    shift = progress->bits_used;
    start_round = static_cast<size_t>(progress->rounds_done);
    progress->clear();
  } else {
    if (progress != nullptr) progress->clear();
    bucket_hashes.push_back(HashColumn(input, key_cols));
  }
  auto bucket_at = [&](size_t b) -> const ColumnSet& {
    return buckets.empty() ? input : buckets[b];
  };

  const auto num_cores = static_cast<size_t>(dpu.num_cores());
  for (size_t ri = start_round; ri < scheme.rounds.size(); ++ri) {
    const PartitionRound& round = scheme.rounds[ri];
    const int bits = Log2Of(round.fanout);
    const auto ufanout = static_cast<size_t>(round.fanout);
    const size_t in_buckets = bucket_hashes.size();

    // Work units: each bucket is split into ranges so that every core
    // has work even when few buckets exist (the DMS streams ranges to
    // different cores).
    std::vector<RangeUnit> units;
    size_t total_rows = 0;
    for (const std::vector<uint32_t>& h : bucket_hashes) {
      total_rows += h.size();
    }
    // ~4 units per core so the morsel queue can rebalance; the layout
    // places range outputs in range order, so the result bytes are
    // independent of the unit boundaries.
    const size_t target_rows = std::max<size_t>(
        64, (total_rows + 4 * num_cores - 1) / (4 * num_cores));
    for (size_t b = 0; b < in_buckets; ++b) {
      const size_t rows = bucket_hashes[b].size();
      if (rows == 0) {
        units.push_back(RangeUnit{b, 0, 0});
        continue;
      }
      for (size_t begin = 0; begin < rows; begin += target_rows) {
        units.push_back(
            RangeUnit{b, begin, std::min(rows, begin + target_rows)});
      }
    }
    // Only a later round (or its checkpoint) reads the carried hashes.
    const bool carry_hashes = ri + 1 < scheme.rounds.size();
    RoundLayout layout =
        LayoutRound(units, bucket_hashes, bucket_at(0).metas(), round.fanout,
                    shift, carry_hashes);

    // Morsel-driven assignment: each work unit is one morsel, weighted
    // by its row count; idle cores pull or steal the remainder instead
    // of waiting on a straggler.
    std::vector<double> unit_weights(units.size());
    for (size_t u = 0; u < units.size(); ++u) {
      unit_weights[u] = static_cast<double>(units[u].end - units[u].begin);
    }
    dpu::WorkQueue queue(std::move(unit_weights), dpu.num_cores());
    const Status round_status = dpu.ParallelForMorsels(
        queue, cancel, [&](dpu::DpCore& core, size_t u) -> Status {
          const RangeUnit& unit = units[u];
          TraceSpan span(TraceMode::kFull, core.id(), "partition.unit",
                         &dpu::TraceClockNow, &core.cycles());
          span.Annotate("round", static_cast<int64_t>(ri));
          span.Annotate("rows", static_cast<uint64_t>(unit.end - unit.begin));
          // Each work unit programs one partition-engine descriptor
          // chain; transient faults are retried inside RunDescriptor.
          RAPID_RETURN_NOT_OK(
              dpu.dms().RunDescriptor(&core.cycles(), faults::kDmsPartition));
          const size_t first = unit.bucket * ufanout;
          return SplitRange(
              core, dpu.params(), bucket_at(unit.bucket),
              bucket_hashes[unit.bucket], unit.begin, unit.end, round.fanout,
              round.hw_fanout, shift, tile_rows, cancel,
              layout.buckets.data() + first,
              carry_hashes ? layout.hashes.data() + first : nullptr,
              layout.cursors.data() + u * ufanout);
        });
    if (!round_status.ok()) {
      // `buckets` still holds the previous completed round's output
      // (the new round only replaces it below, after the parallel
      // loop), so checkpointing it costs nothing on the fault-free
      // path. A cancelled query saves nothing — it is being abandoned.
      if (progress != nullptr && ri > 0 && !round_status.IsCancellation()) {
        progress->rounds_done = static_cast<int>(ri);
        progress->bits_used = shift;
        progress->buckets = std::move(buckets);
        progress->bucket_hashes = std::move(bucket_hashes);
      }
      return round_status;
    }
    if (TraceCollector::Recording(TraceMode::kFull)) {
      TraceCollector::Instance().AddStepInstant(
          "partition.round",
          {TraceCollector::Arg::I("round", static_cast<int64_t>(ri)),
           TraceCollector::Arg::I("fanout", round.fanout),
           TraceCollector::Arg::U("rows", total_rows)});
    }
    buckets = std::move(layout.buckets);
    bucket_hashes = std::move(layout.hashes);
    shift += bits;
  }

  PartitionedData out;
  out.partitions = std::move(buckets);
  out.bits_used = shift;
  out.rounds = static_cast<int>(scheme.NumRounds());
  return out;
}

Result<std::vector<ColumnSet>> PartitionExec::Repartition(
    dpu::DpCore& core, const dpu::CostParams& params, const ColumnSet& input,
    const std::vector<size_t>& key_cols, int extra_fanout, int bits_used,
    size_t tile_rows) {
  if (extra_fanout < 2 || (extra_fanout & (extra_fanout - 1)) != 0) {
    return Status::InvalidArgument("repartition fan-out must be power of 2");
  }
  std::vector<std::vector<uint32_t>> hashes;
  hashes.push_back(HashColumn(input, key_cols));
  const std::vector<RangeUnit> units = {RangeUnit{0, 0, input.num_rows()}};
  RoundLayout layout = LayoutRound(units, hashes, input.metas(), extra_fanout,
                                   bits_used, /*carry_hashes=*/false);
  // Runs on the detecting core: large-skew repartitioning is
  // introduced dynamically for a single oversized partition. No cancel
  // token — the caller owns cancellation at its own tile boundaries.
  RAPID_RETURN_NOT_OK(SplitRange(core, params, input, hashes[0], 0,
                                 input.num_rows(), extra_fanout,
                                 /*hw_fanout=*/1, bits_used, tile_rows,
                                 /*cancel=*/nullptr, layout.buckets.data(),
                                 /*part_hashes=*/nullptr,
                                 layout.cursors.data()));
  return std::move(layout.buckets);
}

}  // namespace rapid::core
