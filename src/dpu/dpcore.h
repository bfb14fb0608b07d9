// DpCore: one of the DPU's 32 data-processing cores (Section 2.1).
// In the simulator a dpCore is an execution context: an id, its
// macro, a real 32 KiB DMEM arena and a cycle counter that the cost
// model charges.

#ifndef RAPID_DPU_DPCORE_H_
#define RAPID_DPU_DPCORE_H_

#include "common/arena.h"
#include "common/query_counters.h"
#include "dpu/config.h"
#include "dpu/cost_model.h"
#include "dpu/dmem.h"

namespace rapid::dpu {

class DpCore {
 public:
  DpCore(int id, const DpuConfig& config)
      : id_(id),
        macro_id_(id / config.cores_per_macro),
        dmem_(config.dmem_bytes),
        pool_(&arena_) {}

  DpCore(const DpCore&) = delete;
  DpCore& operator=(const DpCore&) = delete;

  int id() const { return id_; }
  int macro_id() const { return macro_id_; }

  Dmem& dmem() { return dmem_; }
  CycleCounter& cycles() { return cycles_; }
  const CycleCounter& cycles() const { return cycles_; }
  // This core's share of the query counters (the DPU-side entries:
  // encoded-scan and join-filter tallies). Reset per attempt; the
  // engine sums them over the cores when the attempt completes.
  QueryCounters& counters() { return counters_; }
  const QueryCounters& counters() const { return counters_; }

  // Tile-local scratch memory. Only the worker currently executing
  // this core's morsel may touch either. The arena is never Reset()
  // while the pool is live (pooled buffers point into it); both
  // persist across queries so warm tiles allocate nothing — which is
  // why Dpu::ResetCores leaves them alone.
  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }
  TileBufferPool& pool() { return pool_; }
  const TileBufferPool& pool() const { return pool_; }

 private:
  int id_;
  int macro_id_;
  Dmem dmem_;
  CycleCounter cycles_;
  QueryCounters counters_;
  Arena arena_;
  TileBufferPool pool_;
};

}  // namespace rapid::dpu

#endif  // RAPID_DPU_DPCORE_H_
