// SSE4.2 kernel tier.
//
// Kernels live inside a `#pragma GCC target("sse4.2")` region (the
// function-level equivalent of crc32.cc's dispatch idiom, extended to
// templates) and are explicitly instantiated there so their codegen
// gets the SSE4.2 flags; the overlay functions at the bottom are
// compiled with baseline flags and only install function pointers, so
// table construction executes no SSE4.2 instruction. This tier
// provides:
//   * 128-bit compare kernels for 4/8-byte filter primitives
//     (_mm_cmpgt_epi64 is the SSE4.2 piece; narrower widths wait for
//     the AVX2 tier),
//   * batched hardware-CRC32C hash kernels (4-way unrolled crc32
//     instruction, bit-identical to Crc32U64),
//   * a 4-way partial histogram for the partition map (plain stores;
//     the win is breaking the per-slot store-forwarding dependency,
//     so it needs no vector instructions at all).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "primitives/simd.h"
#include "primitives/simd_isa.h"
#include "primitives/simd_scalar.h"

#if defined(__x86_64__)
#define RAPID_SIMD_X86_64 1
#endif

#if defined(RAPID_SIMD_X86_64)

#pragma GCC push_options
#pragma GCC target("sse4.2")
#include <immintrin.h>

namespace rapid::primitives::simd::sse42_impl {

// ---- Per-type vector traits ----------------------------------------------
// Unsigned ordered compares flip the sign bit of both operands and use
// the signed compare (equality is unaffected by the flip).

template <typename T>
struct V;

template <>
struct V<int32_t> {
  static constexpr int kStepRows = 4;
  using Vec = __m128i;
  static inline Vec Bcast(int32_t c) { return _mm_set1_epi32(c); }
  static inline Vec Load(const int32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static inline uint64_t MaskEq(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(a, b))));
  }
  static inline uint64_t MaskGt(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(a, b))));
  }
};

template <>
struct V<uint32_t> {
  static constexpr int kStepRows = 4;
  using Vec = __m128i;
  static inline Vec Flip(Vec v) {
    return _mm_xor_si128(v, _mm_set1_epi32(static_cast<int32_t>(0x80000000u)));
  }
  static inline Vec Bcast(uint32_t c) {
    return Flip(_mm_set1_epi32(static_cast<int32_t>(c)));
  }
  static inline Vec Load(const uint32_t* p) {
    return Flip(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static inline uint64_t MaskEq(Vec a, Vec b) { return V<int32_t>::MaskEq(a, b); }
  static inline uint64_t MaskGt(Vec a, Vec b) { return V<int32_t>::MaskGt(a, b); }
};

template <>
struct V<int64_t> {
  static constexpr int kStepRows = 2;
  using Vec = __m128i;
  static inline Vec Bcast(int64_t c) { return _mm_set1_epi64x(c); }
  static inline Vec Load(const int64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static inline uint64_t MaskEq(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(a, b))));
  }
  static inline uint64_t MaskGt(Vec a, Vec b) {
    return static_cast<uint32_t>(
        _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpgt_epi64(a, b))));
  }
};

template <>
struct V<uint64_t> {
  static constexpr int kStepRows = 2;
  using Vec = __m128i;
  static inline Vec Flip(Vec v) {
    return _mm_xor_si128(v, _mm_set1_epi64x(INT64_MIN));
  }
  static inline Vec Bcast(uint64_t c) {
    return Flip(_mm_set1_epi64x(static_cast<int64_t>(c)));
  }
  static inline Vec Load(const uint64_t* p) {
    return Flip(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static inline uint64_t MaskEq(Vec a, Vec b) { return V<int64_t>::MaskEq(a, b); }
  static inline uint64_t MaskGt(Vec a, Vec b) { return V<int64_t>::MaskGt(a, b); }
};

// ---- Whole-word drivers ---------------------------------------------------
// ne/le/ge are the bitwise complements of eq/gt/lt over a full 64-row
// word; tails fall back to the masked scalar word builders.

template <CmpOp op, typename T>
static inline uint64_t ConstWord64(const T* p, const typename V<T>::Vec c) {
  using VT = V<T>;
  uint64_t bits = 0;
  for (int k = 0; k < 64 / VT::kStepRows; ++k) {
    const T* q = p + k * VT::kStepRows;
    uint64_t m;
    if constexpr (op == CmpOp::kEq || op == CmpOp::kNe) {
      m = VT::MaskEq(VT::Load(q), c);
    } else if constexpr (op == CmpOp::kGt || op == CmpOp::kLe) {
      m = VT::MaskGt(VT::Load(q), c);
    } else {
      m = VT::MaskGt(c, VT::Load(q));
    }
    bits |= m << (k * VT::kStepRows);
  }
  if constexpr (op == CmpOp::kNe || op == CmpOp::kLe || op == CmpOp::kGe) {
    bits = ~bits;
  }
  return bits;
}

template <CmpOp op, typename T>
static inline uint64_t ColColWord64(const T* a, const T* b) {
  using VT = V<T>;
  uint64_t bits = 0;
  for (int k = 0; k < 64 / VT::kStepRows; ++k) {
    const T* qa = a + k * VT::kStepRows;
    const T* qb = b + k * VT::kStepRows;
    uint64_t m;
    if constexpr (op == CmpOp::kEq || op == CmpOp::kNe) {
      m = VT::MaskEq(VT::Load(qa), VT::Load(qb));
    } else if constexpr (op == CmpOp::kGt || op == CmpOp::kLe) {
      m = VT::MaskGt(VT::Load(qa), VT::Load(qb));
    } else {
      m = VT::MaskGt(VT::Load(qb), VT::Load(qa));
    }
    bits |= m << (k * VT::kStepRows);
  }
  if constexpr (op == CmpOp::kNe || op == CmpOp::kLe || op == CmpOp::kGe) {
    bits = ~bits;
  }
  return bits;
}

// ---- Filter kernels -------------------------------------------------------

template <CmpOp op, typename T>
void FilterConstBv(const T* values, size_t n, T constant, uint64_t* words) {
  const typename V<T>::Vec c = V<T>::Bcast(constant);
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = ConstWord64<op, T>(values + i, c);
  }
  if (i < n) words[w] = CmpConstWord<op, T>(values + i, n - i, constant);
}

template <CmpOp op, typename T>
void FilterColColBv(const T* left, const T* right, size_t n, uint64_t* words) {
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = ColColWord64<op, T>(left + i, right + i);
  }
  if (i < n) words[w] = CmpColColWord<op, T>(left + i, right + i, n - i);
}

template <typename T>
void FilterBetweenBv(const T* values, size_t n, T lo, T hi, uint64_t* words) {
  using VT = V<T>;
  const typename VT::Vec vlo = VT::Bcast(lo);
  const typename VT::Vec vhi = VT::Bcast(hi);
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    // in [lo, hi]  ==  !(v < lo || v > hi)
    uint64_t below = 0, above = 0;
    for (int k = 0; k < 64 / VT::kStepRows; ++k) {
      const T* q = values + i + k * VT::kStepRows;
      const typename VT::Vec v = VT::Load(q);
      below |= VT::MaskGt(vlo, v) << (k * VT::kStepRows);
      above |= VT::MaskGt(v, vhi) << (k * VT::kStepRows);
    }
    words[w] = ~(below | above);
  }
  if (i < n) words[w] = BetweenWord<T>(values + i, n - i, lo, hi);
}

#define RAPID_SSE42_INSTANTIATE_FILTER(T)                                     \
  template void FilterConstBv<CmpOp::kEq, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kNe, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kLt, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kLe, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kGt, T>(const T*, size_t, T, uint64_t*); \
  template void FilterConstBv<CmpOp::kGe, T>(const T*, size_t, T, uint64_t*); \
  template void FilterColColBv<CmpOp::kEq, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kNe, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kLt, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kLe, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kGt, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterColColBv<CmpOp::kGe, T>(const T*, const T*, size_t,     \
                                              uint64_t*);                     \
  template void FilterBetweenBv<T>(const T*, size_t, T, T, uint64_t*);

RAPID_SSE42_INSTANTIATE_FILTER(int32_t)
RAPID_SSE42_INSTANTIATE_FILTER(uint32_t)
RAPID_SSE42_INSTANTIATE_FILTER(int64_t)
RAPID_SSE42_INSTANTIATE_FILTER(uint64_t)
#undef RAPID_SSE42_INSTANTIATE_FILTER

// ---- RLE expansion kernels ------------------------------------------------
// Broadcast the run value into a 128-bit register once per run, then
// fill with unaligned stores; rows past the last full vector store
// scalar. Same store order and values as the scalar twin.

template <typename T>
void RleExpand(const T* run_values, const uint32_t* run_lengths,
               size_t num_runs, T* out) {
  constexpr size_t kLane = 16 / sizeof(T);
  for (size_t r = 0; r < num_runs; ++r) {
    const T value = run_values[r];
    const uint32_t length = run_lengths[r];
    __m128i splat;
    if constexpr (sizeof(T) == 4) {
      splat = _mm_set1_epi32(static_cast<int32_t>(value));
    } else {
      splat = _mm_set1_epi64x(static_cast<int64_t>(value));
    }
    size_t i = 0;
    for (; i + kLane <= length; i += kLane) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), splat);
    }
    for (; i < length; ++i) out[i] = value;
    out += length;
  }
}

template void RleExpand<int32_t>(const int32_t*, const uint32_t*, size_t,
                                 int32_t*);
template void RleExpand<uint32_t>(const uint32_t*, const uint32_t*, size_t,
                                  uint32_t*);
template void RleExpand<int64_t>(const int64_t*, const uint32_t*, size_t,
                                 int64_t*);
template void RleExpand<uint64_t>(const uint64_t*, const uint32_t*, size_t,
                                  uint64_t*);

// ---- Hash kernels ---------------------------------------------------------
// One crc32 instruction per 8-byte key; sign-extension of narrower
// signed keys matches the scalar static_cast<uint64_t>(keys[i]). The
// 4-way unroll hides the 3-cycle crc32 latency across independent
// rows. Seeds match Crc32U64 / Crc32Combine exactly.

template <typename T>
void HashTile(const T* keys, size_t n, uint32_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    out[i + 0] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 0])));
    out[i + 1] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 1])));
    out[i + 2] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 2])));
    out[i + 3] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        0xFFFFFFFFu, static_cast<uint64_t>(keys[i + 3])));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint32_t>(
        __builtin_ia32_crc32di(0xFFFFFFFFu, static_cast<uint64_t>(keys[i])));
  }
}

template <typename T>
void HashCombineTile(const T* keys, size_t n, uint32_t* inout) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    inout[i + 0] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 0], static_cast<uint64_t>(keys[i + 0])));
    inout[i + 1] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 1], static_cast<uint64_t>(keys[i + 1])));
    inout[i + 2] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 2], static_cast<uint64_t>(keys[i + 2])));
    inout[i + 3] = static_cast<uint32_t>(__builtin_ia32_crc32di(
        inout[i + 3], static_cast<uint64_t>(keys[i + 3])));
  }
  for (; i < n; ++i) {
    inout[i] = static_cast<uint32_t>(
        __builtin_ia32_crc32di(inout[i], static_cast<uint64_t>(keys[i])));
  }
}

#define RAPID_SSE42_INSTANTIATE_HASH(T)                      \
  template void HashTile<T>(const T*, size_t, uint32_t*);    \
  template void HashCombineTile<T>(const T*, size_t, uint32_t*);
RAPID_SIMD_FOR_EACH_TYPE(RAPID_SSE42_INSTANTIATE_HASH)
#undef RAPID_SSE42_INSTANTIATE_HASH

}  // namespace rapid::primitives::simd::sse42_impl

#pragma GCC pop_options

#endif  // RAPID_SIMD_X86_64

namespace rapid::primitives::simd {

#if defined(RAPID_SIMD_X86_64)

namespace {

// Plain-C++ 4-way partial histogram: four independent count arrays
// break the load-increment-store dependency on hot partitions. Merged
// counts are order-independent, so the result is bit-identical.
void Histogram4Way(const uint16_t* partition_of, size_t n, uint32_t* counts,
                   size_t fanout) {
  if (n < 256 || fanout > 8192) {
    for (size_t i = 0; i < n; ++i) ++counts[partition_of[i]];
    return;
  }
  thread_local std::vector<uint32_t> scratch;
  scratch.assign(3 * fanout, 0);
  uint32_t* c1 = scratch.data();
  uint32_t* c2 = c1 + fanout;
  uint32_t* c3 = c2 + fanout;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++counts[partition_of[i + 0]];
    ++c1[partition_of[i + 1]];
    ++c2[partition_of[i + 2]];
    ++c3[partition_of[i + 3]];
  }
  for (; i < n; ++i) ++counts[partition_of[i]];
  for (size_t p = 0; p < fanout; ++p) counts[p] += c1[p] + c2[p] + c3[p];
}

// 4-way unrolled Bloom probe: Mix64 and the lane tests are plain
// integer ops (no vector instructions required), but four independent
// rows per iteration hide the mix multiply latency and overlap the
// four block loads. Same exact function as the scalar twin, so the
// output is bit-identical.
template <typename T>
uint64_t BloomProbeWord4Way(const T* values, size_t rows,
                            const uint64_t* blocks, uint32_t block_mask) {
  uint64_t w = 0;
  const size_t full = rows & ~size_t{3};
  size_t i = 0;
  for (; i < full; i += 4) {
    const uint64_t h0 = Mix64(static_cast<uint64_t>(values[i + 0]));
    const uint64_t h1 = Mix64(static_cast<uint64_t>(values[i + 1]));
    const uint64_t h2 = Mix64(static_cast<uint64_t>(values[i + 2]));
    const uint64_t h3 = Mix64(static_cast<uint64_t>(values[i + 3]));
    const uint64_t* b0 = blocks + BloomBlockIndex(h0, block_mask) * kBloomLanes;
    const uint64_t* b1 = blocks + BloomBlockIndex(h1, block_mask) * kBloomLanes;
    const uint64_t* b2 = blocks + BloomBlockIndex(h2, block_mask) * kBloomLanes;
    const uint64_t* b3 = blocks + BloomBlockIndex(h3, block_mask) * kBloomLanes;
    w |= static_cast<uint64_t>(BloomBlockTest(b0, static_cast<uint32_t>(h0)))
         << (i + 0);
    w |= static_cast<uint64_t>(BloomBlockTest(b1, static_cast<uint32_t>(h1)))
         << (i + 1);
    w |= static_cast<uint64_t>(BloomBlockTest(b2, static_cast<uint32_t>(h2)))
         << (i + 2);
    w |= static_cast<uint64_t>(BloomBlockTest(b3, static_cast<uint32_t>(h3)))
         << (i + 3);
  }
  // At most three tail rows: spelling the bound as `rows & ~3` lets the
  // compiler see that `i` never passes `rows` (<= 64) here.
  for (; i < rows; ++i) {
    const uint64_t h = Mix64(static_cast<uint64_t>(values[i]));
    const uint64_t* b = blocks + BloomBlockIndex(h, block_mask) * kBloomLanes;
    w |= static_cast<uint64_t>(BloomBlockTest(b, static_cast<uint32_t>(h)))
         << i;
  }
  return w;
}

template <typename T>
void BloomProbeBv4Way(const T* values, size_t n, const uint64_t* blocks,
                      uint32_t block_mask, uint64_t* words) {
  size_t i = 0, w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    words[w] = BloomProbeWord4Way<T>(values + i, 64, blocks, block_mask);
  }
  if (i < n) {
    words[w] = BloomProbeWord4Way<T>(values + i, n - i, blocks, block_mask);
  }
}

}  // namespace

#define RAPID_SSE42_OVERLAY_FILTER(T)                                        \
  void Sse42Overlay(FilterKernelTable<T>* t) {                               \
    t->const_bv[static_cast<int>(CmpOp::kEq)] =                              \
        &sse42_impl::FilterConstBv<CmpOp::kEq, T>;                           \
    t->const_bv[static_cast<int>(CmpOp::kNe)] =                              \
        &sse42_impl::FilterConstBv<CmpOp::kNe, T>;                           \
    t->const_bv[static_cast<int>(CmpOp::kLt)] =                              \
        &sse42_impl::FilterConstBv<CmpOp::kLt, T>;                           \
    t->const_bv[static_cast<int>(CmpOp::kLe)] =                              \
        &sse42_impl::FilterConstBv<CmpOp::kLe, T>;                           \
    t->const_bv[static_cast<int>(CmpOp::kGt)] =                              \
        &sse42_impl::FilterConstBv<CmpOp::kGt, T>;                           \
    t->const_bv[static_cast<int>(CmpOp::kGe)] =                              \
        &sse42_impl::FilterConstBv<CmpOp::kGe, T>;                           \
    t->colcol_bv[static_cast<int>(CmpOp::kEq)] =                             \
        &sse42_impl::FilterColColBv<CmpOp::kEq, T>;                          \
    t->colcol_bv[static_cast<int>(CmpOp::kNe)] =                             \
        &sse42_impl::FilterColColBv<CmpOp::kNe, T>;                          \
    t->colcol_bv[static_cast<int>(CmpOp::kLt)] =                             \
        &sse42_impl::FilterColColBv<CmpOp::kLt, T>;                          \
    t->colcol_bv[static_cast<int>(CmpOp::kLe)] =                             \
        &sse42_impl::FilterColColBv<CmpOp::kLe, T>;                          \
    t->colcol_bv[static_cast<int>(CmpOp::kGt)] =                             \
        &sse42_impl::FilterColColBv<CmpOp::kGt, T>;                          \
    t->colcol_bv[static_cast<int>(CmpOp::kGe)] =                             \
        &sse42_impl::FilterColColBv<CmpOp::kGe, T>;                          \
    t->between_bv = &sse42_impl::FilterBetweenBv<T>;                         \
  }

#define RAPID_SSE42_OVERLAY_FILTER_NOOP(T) \
  void Sse42Overlay(FilterKernelTable<T>* t) { (void)t; }

RAPID_SSE42_OVERLAY_FILTER_NOOP(int8_t)
RAPID_SSE42_OVERLAY_FILTER_NOOP(uint8_t)
RAPID_SSE42_OVERLAY_FILTER_NOOP(int16_t)
RAPID_SSE42_OVERLAY_FILTER_NOOP(uint16_t)
RAPID_SSE42_OVERLAY_FILTER(int32_t)
RAPID_SSE42_OVERLAY_FILTER(uint32_t)
RAPID_SSE42_OVERLAY_FILTER(int64_t)
RAPID_SSE42_OVERLAY_FILTER(uint64_t)
#undef RAPID_SSE42_OVERLAY_FILTER
#undef RAPID_SSE42_OVERLAY_FILTER_NOOP

#define RAPID_SSE42_OVERLAY_REST(T)                                \
  void Sse42Overlay(AggKernelTable<T>* t) { (void)t; }             \
  void Sse42Overlay(ArithKernelTable<T>* t) { (void)t; }           \
  void Sse42Overlay(HashKernelTable<T>* t) {                       \
    t->tile = &sse42_impl::HashTile<T>;                            \
    t->combine = &sse42_impl::HashCombineTile<T>;                  \
  }                                                                \
  void Sse42Overlay(BloomKernelTable<T>* t) {                      \
    t->probe_bv = &BloomProbeBv4Way<T>;                            \
  }
RAPID_SIMD_FOR_EACH_TYPE(RAPID_SSE42_OVERLAY_REST)
#undef RAPID_SSE42_OVERLAY_REST

#define RAPID_SSE42_OVERLAY_RLE(T) \
  void Sse42Overlay(RleKernelTable<T>* t) { t->expand = &sse42_impl::RleExpand<T>; }
#define RAPID_SSE42_OVERLAY_RLE_NOOP(T) \
  void Sse42Overlay(RleKernelTable<T>* t) { (void)t; }

RAPID_SSE42_OVERLAY_RLE_NOOP(int8_t)
RAPID_SSE42_OVERLAY_RLE_NOOP(uint8_t)
RAPID_SSE42_OVERLAY_RLE_NOOP(int16_t)
RAPID_SSE42_OVERLAY_RLE_NOOP(uint16_t)
RAPID_SSE42_OVERLAY_RLE(int32_t)
RAPID_SSE42_OVERLAY_RLE(uint32_t)
RAPID_SSE42_OVERLAY_RLE(int64_t)
RAPID_SSE42_OVERLAY_RLE(uint64_t)
#undef RAPID_SSE42_OVERLAY_RLE
#undef RAPID_SSE42_OVERLAY_RLE_NOOP

void Sse42Overlay(PartitionKernelTable* t) { t->histogram = &Histogram4Way; }

#else  // !RAPID_SIMD_X86_64

#define RAPID_SSE42_OVERLAY_NOOP(T)                        \
  void Sse42Overlay(FilterKernelTable<T>* t) { (void)t; }  \
  void Sse42Overlay(AggKernelTable<T>* t) { (void)t; }     \
  void Sse42Overlay(ArithKernelTable<T>* t) { (void)t; }   \
  void Sse42Overlay(HashKernelTable<T>* t) { (void)t; }    \
  void Sse42Overlay(BloomKernelTable<T>* t) { (void)t; }   \
  void Sse42Overlay(RleKernelTable<T>* t) { (void)t; }
RAPID_SIMD_FOR_EACH_TYPE(RAPID_SSE42_OVERLAY_NOOP)
#undef RAPID_SSE42_OVERLAY_NOOP

void Sse42Overlay(PartitionKernelTable* t) { (void)t; }

#endif  // RAPID_SIMD_X86_64

}  // namespace rapid::primitives::simd
