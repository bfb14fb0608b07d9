// Dpu: the System-on-Chip facade (Section 2.5). Owns the 32 dpCores,
// the DMS and the ATE, and provides the parallel execution entry point
// the query-execution framework schedules actors onto.
//
// Execution uses a persistent pool of one OS thread per dpCore; the
// host machine may have fewer physical cores, which only affects wall
// clock, never the modeled DPU cycle counts.

#ifndef RAPID_DPU_DPU_H_
#define RAPID_DPU_DPU_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "dpu/ate.h"
#include "dpu/config.h"
#include "dpu/cost_model.h"
#include "dpu/dms.h"
#include "dpu/dpcore.h"
#include "dpu/power_model.h"
#include "dpu/work_queue.h"

namespace rapid::dpu {

class Dpu {
 public:
  explicit Dpu(const DpuConfig& config = DpuConfig::Default(),
               const CostParams& params = CostParams::Default());
  ~Dpu();

  Dpu(const Dpu&) = delete;
  Dpu& operator=(const Dpu&) = delete;

  const DpuConfig& config() const { return config_; }
  const CostParams& params() const { return params_; }
  Dms& dms() { return dms_; }
  Ate& ate() { return ate_; }
  const PowerModel& power() const { return power_; }

  int num_cores() const { return config_.num_cores; }
  DpCore& core(int id) { return *cores_[id]; }

  // Runs `fn(core)` on every dpCore concurrently and waits for all of
  // them. This is one scheduling round of the actor model; tasks
  // within a round communicate via the ATE only.
  void ParallelFor(const std::function<void(DpCore&)>& fn);

  // Inline execution: run scheduling rounds sequentially on the
  // calling thread instead of the worker pool. Functionally identical
  // (rounds are data-parallel); removes simulator thread-switch noise
  // from wall-clock measurements on hosts with few CPUs. Cycle
  // accounting is unaffected.
  void SetInlineExecution(bool inline_exec) { inline_exec_ = inline_exec; }

  // Morsel-driven scheduling round: every core pulls morsels from
  // `queue` until it drains, polling `cancel` (may be null) between
  // morsels so cancellation latency is bounded by one morsel. The
  // first non-OK status (including cancellation) aborts the remaining
  // morsels on all cores and is returned. Callers must index their
  // output slots by morsel id so results are independent of which core
  // ran which morsel. Updates the phase/accumulated ImbalanceStats.
  Status ParallelForMorsels(
      WorkQueue& queue, const CancelToken* cancel,
      const std::function<Status(DpCore&, size_t)>& fn);

  // Modeled elapsed cycles of the last/accumulated execution: the
  // slowest core bounds the phase.
  double MaxEffectiveCycles(bool double_buffered = true) const;
  double MaxEffectiveSeconds(bool double_buffered = true) const;

  // Modeled phase time under the shared-memory-system rule: compute
  // runs concurrently across cores (max), but all DMS transfers share
  // the single DRAM interface (sum), overlapped with compute by double
  // buffering: time = max(max_c compute_c, sum_c dms_c) / clock.
  double ModeledPhaseCycles() const;
  double ModeledPhaseSeconds() const {
    return ModeledPhaseCycles() / params_.clock_hz;
  }

  // Sum over cores, for utilization analysis.
  double TotalComputeCycles() const;

  // Load-balance statistics accumulated over every morsel phase since
  // the last ResetCores (per-phase max/mean core compute cycles and
  // steal counts), and the most recent phase alone.
  const ImbalanceStats& imbalance() const { return imbalance_; }
  const ImbalanceStats& last_phase_imbalance() const {
    return last_phase_imbalance_;
  }

  // Clears all core cycle counters, DMEM arenas and imbalance stats.
  void ResetCores();

 private:
  void WorkerLoop(int core_id);

  DpuConfig config_;
  CostParams params_;
  Dms dms_;
  Ate ate_;
  PowerModel power_;
  std::vector<std::unique_ptr<DpCore>> cores_;

  // Worker pool state.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::function<void(DpCore&)> job_;
  uint64_t job_generation_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
  bool inline_exec_ = false;
  std::vector<std::thread> workers_;

  ImbalanceStats imbalance_;
  ImbalanceStats last_phase_imbalance_;
};

}  // namespace rapid::dpu

#endif  // RAPID_DPU_DPU_H_
