// Hash primitives: vectorized CRC32 hash-value generation over tiles,
// modeling the dpCore CRC32 instruction and the DMS hash engine.
// Bodies dispatch to the SIMD kernel tables (simd.h); the AVX2 tier
// batches the SSE4.2 hardware crc32 instruction 4-way per tile. Hash values
// are identical at every tier — join and partition placement never
// depends on the dispatch level.

#ifndef RAPID_PRIMITIVES_HASH_H_
#define RAPID_PRIMITIVES_HASH_H_

#include <cstddef>
#include <cstdint>

#include "common/crc32.h"
#include "primitives/simd.h"

namespace rapid::primitives {

// out[i] = CRC32(keys[i]), one tight loop per tile.
template <typename T>
void HashTile(const T* keys, size_t n, uint32_t* out) {
  if constexpr (simd::kHasKernelTables<T>) {
    simd::hash_kernels<T>().tile(keys, n, out);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = Crc32U64(static_cast<uint64_t>(keys[i]));
    }
  }
}

// Chains another key column into existing hash values (multi-key
// joins / group-bys).
template <typename T>
void HashCombineTile(const T* keys, size_t n, uint32_t* inout) {
  if constexpr (simd::kHasKernelTables<T>) {
    simd::hash_kernels<T>().combine(keys, n, inout);
  } else {
    for (size_t i = 0; i < n; ++i) {
      inout[i] = Crc32Combine(inout[i], static_cast<uint64_t>(keys[i]));
    }
  }
}

}  // namespace rapid::primitives

#endif  // RAPID_PRIMITIVES_HASH_H_
