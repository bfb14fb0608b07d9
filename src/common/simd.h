// Host SIMD capability detection and dispatch-level selection.
//
// The dpCore's database-specific vector instructions (BVLD, FILT,
// CRC32 — Section 5.4) are substituted on commodity CPUs by SIMD
// kernels in src/primitives/. This module decides which instruction-set
// tier those kernels dispatch to:
//
//   * kScalar — portable reference loops (always available),
//   * kAvx2   — AVX2 256-bit predicate, aggregation, projection, RLE,
//               Bloom and partition kernels, plus the SSE4.2 hardware
//               CRC32C hash loop. A CPU needs both to run this tier;
//               one with SSE4.2 alone runs the scalar kernels.
//
// The CPU's capabilities are probed once. RAPID_SIMD (common/settings.h)
// can pin the tier for sanitizer runs and debugging; it is capped at
// what the CPU supports. Tests and benchmarks may override the level
// in-process via ForceSimdLevel; both tiers are bit-identical, so
// flipping levels never changes results, only throughput.

#ifndef RAPID_COMMON_SIMD_H_
#define RAPID_COMMON_SIMD_H_

namespace rapid {

enum class SimdLevel : int { kScalar = 0, kAvx2 = 1 };

// Highest tier this CPU can execute (probed once).
SimdLevel SimdLevelSupported();

// Tier the primitive dispatch tables use right now: a ForceSimdLevel
// override if one is active, otherwise RAPID_SIMD capped at
// SimdLevelSupported().
SimdLevel SimdLevelActive();

// Overrides the active tier (clamped to what the CPU supports) and
// returns the previously active tier so callers can restore it.
// Intended for the scalar-vs-SIMD equivalence suite and benchmarks.
SimdLevel ForceSimdLevel(SimdLevel level);

// "scalar" or "avx2".
const char* SimdLevelName(SimdLevel level);

}  // namespace rapid

#endif  // RAPID_COMMON_SIMD_H_
