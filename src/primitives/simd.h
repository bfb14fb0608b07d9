// SIMD kernel dispatch tables for the primitive library.
//
// The paper's dpCores evaluate predicates with database-specific
// vector instructions (BVLD/FILT, Section 5.4, Listing 1); on
// commodity CPUs we substitute SIMD kernels selected at runtime.
// Each primitive family (filter, agg, arith, hash, partition) has one
// kernel table per element type; the table is materialized once per
// (type, SimdLevel) and the accessor returns the table matching
// SimdLevelActive(). Levels are layered: the AVX2 table starts as a
// copy of the scalar table with AVX2 kernels overlaid — a family/width
// with no AVX2 kernel transparently runs the scalar one.
//
// Kernel contract (all levels, enforced by the equivalence suite):
//   * bit-vector kernels write ceil(n/64) words, each word written
//     exactly once and in full (no read-modify-write of the output),
//     with bits >= n zero in the tail word;
//   * RID emission and aggregation visit rows in ascending order, so
//     outputs are bit-identical to the scalar twin (integer sums
//     commute even under wraparound);
//   * arithmetic kernels tolerate exact in-place aliasing (out ==
//     values), which DsbRescaleTile relies on; partial overlap is not
//     supported.
//
// This header also owns the comparison/arithmetic op enums shared by
// every tier (previously in filter.h / arith.h).

#ifndef RAPID_PRIMITIVES_SIMD_H_
#define RAPID_PRIMITIVES_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "common/simd.h"

namespace rapid::primitives {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

template <CmpOp op, typename T>
inline bool Compare(T value, T constant) {
  if constexpr (op == CmpOp::kEq) return value == constant;
  if constexpr (op == CmpOp::kNe) return value != constant;
  if constexpr (op == CmpOp::kLt) return value < constant;
  if constexpr (op == CmpOp::kLe) return value <= constant;
  if constexpr (op == CmpOp::kGt) return value > constant;
  if constexpr (op == CmpOp::kGe) return value >= constant;
}

enum class ArithOp { kAdd, kSub, kMul };

template <ArithOp op, typename T>
inline T Apply(T a, T b) {
  if constexpr (op == ArithOp::kAdd) return a + b;
  if constexpr (op == ArithOp::kSub) return a - b;
  if constexpr (op == ArithOp::kMul) return a * b;
}

struct AggState;  // defined in agg.h; kernels only pass pointers

namespace simd {

inline constexpr int kNumCmpOps = 6;
inline constexpr int kNumArithOps = 3;

// Element types with materialized kernel tables. Wrappers fall back
// to inline scalar loops for anything else (if constexpr), so generic
// templates keep working for exotic instantiations.
template <typename T>
inline constexpr bool kHasKernelTables =
    std::is_same_v<T, int8_t> || std::is_same_v<T, uint8_t> ||
    std::is_same_v<T, int16_t> || std::is_same_v<T, uint16_t> ||
    std::is_same_v<T, int32_t> || std::is_same_v<T, uint32_t> ||
    std::is_same_v<T, int64_t> || std::is_same_v<T, uint64_t>;

// ---- Per-family kernel tables ---------------------------------------------

template <typename T>
struct FilterKernelTable {
  // words := bit-vector of (values[i] op constant); ceil(n/64) whole
  // words, tail bits above n zero.
  using ConstBvFn = void (*)(const T* values, size_t n, T constant,
                             uint64_t* words);
  using ColColBvFn = void (*)(const T* left, const T* right, size_t n,
                              uint64_t* words);
  using BetweenBvFn = void (*)(const T* values, size_t n, T lo, T hi,
                               uint64_t* words);
  ConstBvFn const_bv[kNumCmpOps] = {};
  ColColBvFn colcol_bv[kNumCmpOps] = {};
  BetweenBvFn between_bv = nullptr;
};

template <typename T>
struct AggKernelTable {
  // SUM/MIN/MAX/COUNT of a whole tile into *state (accumulating).
  using TileFn = void (*)(const T* values, size_t n, AggState* state);
  // Same, restricted to rows whose bit is set in `words` (a BitVector
  // payload; set bits are guaranteed < the tile length by MaskTail).
  using TileSelectedFn = void (*)(const T* values, const uint64_t* words,
                                  size_t num_words, AggState* state);
  TileFn tile = nullptr;
  TileSelectedFn tile_selected = nullptr;
};

template <typename T>
struct ArithKernelTable {
  // Kernels must tolerate exact aliasing (out == values / out == left).
  using ColColFn = void (*)(const T* left, const T* right, size_t n, T* out);
  using ColConstFn = void (*)(const T* values, size_t n, T constant, T* out);
  ColColFn colcol[kNumArithOps] = {};
  ColConstFn colconst[kNumArithOps] = {};
};

template <typename T>
struct RleKernelTable {
  // Expands `num_runs` (value, length) pairs into `out` in run order:
  // sum(run_lengths) elements, each run's value repeated. The decode
  // step of an encoded tile transfer — the relation accessor expands
  // DMS-staged runs into the double-buffered DMEM tile with it.
  using ExpandFn = void (*)(const T* run_values, const uint32_t* run_lengths,
                            size_t num_runs, T* out);
  ExpandFn expand = nullptr;
};

template <typename T>
struct BloomKernelTable {
  // words := bit-vector of filter.MayContain(uint64(values[i])); same
  // output contract as the filter kernels (ceil(n/64) whole words,
  // tail bits above n zero). `blocks` is the filter's block-major lane
  // array and `block_mask` its power-of-two block mask (bloom.h). Keys
  // widen exactly like the hash kernels: signed values sign-extend,
  // unsigned values zero-extend, so every element type agrees with the
  // build side's widened int64 inserts.
  using ProbeBvFn = void (*)(const T* values, size_t n,
                             const uint64_t* blocks, uint32_t block_mask,
                             uint64_t* words);
  ProbeBvFn probe_bv = nullptr;
};

template <typename T>
struct HashKernelTable {
  // out[i] = CRC32C(uint64(keys[i])) seeded 0xFFFFFFFF — identical to
  // Crc32U64 at every level (join/partition stability depends on it).
  using TileFn = void (*)(const T* keys, size_t n, uint32_t* out);
  // inout[i] = CRC32C(uint64(keys[i])) seeded inout[i] (Crc32Combine).
  using CombineFn = void (*)(const T* keys, size_t n, uint32_t* inout);
  TileFn tile = nullptr;
  CombineFn combine = nullptr;
};

// Scratch layout shared by the partition-scatter kernels: `fanout`
// 64-byte write-combining lines, then per-partition line fill counts
// (u32), pre-alignment head lengths (u32) and output cursors (u64).
// The caller provides one 64-byte-aligned block of
// ScatterScratchBytes(fanout); kernels initialize it themselves.
inline constexpr size_t kWcLineBytes = 64;
inline constexpr size_t ScatterScratchBytes(size_t fanout) {
  return fanout * (kWcLineBytes + sizeof(uint32_t) + sizeof(uint32_t) +
                   sizeof(uint64_t));
}

struct PartitionKernelTable {
  // out[i] = uint16((hashes[i] >> shift) & mask), Listing 2 loop 1.
  using PartitionOfFn = void (*)(const uint32_t* hashes, size_t n, int shift,
                                 uint32_t mask, uint16_t* out);
  // counts[p] += |{i : partition_of[i] == p}|; counts has `fanout`
  // zero-initialized entries (Listing 2 loop 2).
  using HistogramFn = void (*)(const uint16_t* partition_of, size_t n,
                               uint32_t* counts, size_t fanout);
  // indices[i] = hashes[i] & mask — the join probe bucket computation.
  using BucketIndicesFn = void (*)(const uint32_t* hashes, size_t n,
                                   uint32_t mask, uint32_t* indices);
  // Scatters one column: row i goes to partition p = partition_of[i],
  // appended at dst[p] in tile order (dst[p] is the partition's next
  // write position at tile start; the kernel tracks cursors in the
  // scratch). `wc` is a 64-byte-aligned ScatterScratchBytes(fanout)
  // block (never null). Vector tiers stage full cache lines in the
  // scratch and flush them with non-temporal streaming stores once
  // the destination cursor is 64-byte aligned; rows before the
  // alignment point and partial tail lines are stored scalar, so the
  // output is bit-identical to the scalar twin.
  using ScatterColFn = void (*)(const int64_t* input,
                                const uint16_t* partition_of, size_t n,
                                size_t fanout, int64_t* const* dst,
                                uint8_t* wc);
  PartitionOfFn partition_of = nullptr;
  HistogramFn histogram = nullptr;
  BucketIndicesFn bucket_indices = nullptr;
  ScatterColFn scatter_col = nullptr;
};

// ---- Accessors (table for the active SimdLevel) ---------------------------

template <typename T>
const FilterKernelTable<T>& filter_kernels();
template <typename T>
const AggKernelTable<T>& agg_kernels();
template <typename T>
const ArithKernelTable<T>& arith_kernels();
template <typename T>
const HashKernelTable<T>& hash_kernels();
template <typename T>
const BloomKernelTable<T>& bloom_kernels();
template <typename T>
const RleKernelTable<T>& rle_kernels();
const PartitionKernelTable& partition_kernels();

// The level whose kernels a catalog primitive (family, operation,
// element width; width 0 = width-independent) actually runs at under
// the active level — scalar shines through where AVX2 has no overlay.
// Families are the catalog names: "filter", "agg", "arith", "hash",
// "partition", "rle", "bloom".
SimdLevel ResolvedLevel(std::string_view family, std::string_view operation,
                        int width);

}  // namespace simd
}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_SIMD_H_
