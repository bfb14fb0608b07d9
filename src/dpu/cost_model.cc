#include "dpu/cost_model.h"

#include "common/simd.h"

namespace rapid::dpu {

const CostParams& CostParams::Default() {
  static const CostParams params;
  return params;
}

CostParams CostParams::HostCalibrated() {
  CostParams params = Default();
  // Family multipliers measured with bench_primitives (int32 columns,
  // 4096-row tiles) on the host; see DESIGN.md section 10. They are
  // deliberately conservative round numbers: the modeled plan choices
  // should be robust to run-to-run noise in the measurements.
  switch (SimdLevelActive()) {
    case SimdLevel::kAvx2:
      // Measured (BENCH_primitives.json): filter_bv_i32 16.9x,
      // filter_rid_i32 16.0x, agg_sum_i32 8.6x, agg_sum_i64 2.6x,
      // arith_mul_i32 2.1x, hash_crc32_i64 7.7x, partition_map 1.2x.
      params.simd.filter = 15.0;
      params.simd.agg = 2.5;  // i64 bound: plans mix both widths
      params.simd.arith = 2.0;
      params.simd.hash = 7.5;
      params.simd.partition_map = 1.2;
      // Write-combining scatter with streaming stores
      // (bench_partition_scatter, fan-out >= 64, where the direct
      // scatter's working set of destination lines overflows L1/L2).
      params.simd.partition_scatter = 1.8;
      // 256-bit broadcast fill vs the scalar per-row store loop
      // (bench_encoded_scan; long runs stream at store bandwidth).
      params.simd.rle = 4.0;
      // Vectorized 8-lane block test (bench_join_filter); bounded by
      // the scalar Mix64 chain feeding it.
      params.simd.bloom = 2.0;
      break;
    case SimdLevel::kScalar:
      break;
  }
  return params;
}

}  // namespace rapid::dpu
