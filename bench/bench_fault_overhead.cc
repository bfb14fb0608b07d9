// Fault-injector overhead ablation.
//
// The injector is compiled into every hot path unconditionally (DMS
// descriptors, DMEM allocation, ATE sends, join builds) and gated only
// by one relaxed atomic load. This harness quantifies what that gate
// costs when no faults are armed — the price every production query
// pays for having the failure-recovery machinery compiled in.
//
// Two measurements:
//   1. Microbenchmark: a DMEM alloc/reset loop dominated by the
//      RAPID_FAULT_POINT check itself.
//   2. End-to-end: a filter+group-by query and a partitioned hash
//      join, with the injector left disabled (production), armed but
//      never firing (probability 0, bounding the slow path's RNG
//      draw), and with fragment checkpointing off. On the fault-free
//      path checkpointing costs the subtree_steps map build, the
//      per-step done/progress vectors and the progress pointer
//      threading — no data copies. Gate: production stays within 2%
//      (+0.5 ms of timer noise on short queries) of checkpoints off.

#include <initializer_list>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "dpu/dmem.h"

namespace {

using namespace rapid;
using namespace rapid::core;

constexpr int kReps = 63;  // a multiple of the 3 query arms
constexpr size_t kAllocIters = 1'000'000;

void Disarm() { FaultInjector::Instance().Reset(); }

// Armed at probability zero: the gate takes the slow path (map lookup
// + RNG draw) on every poll but never injects.
void ArmQuietly(std::initializer_list<const char*> sites) {
  FaultInjector::Instance().Reset(0x0eadful);
  FaultInjector::SiteSpec never;
  never.probability = 0.0;
  for (const char* site : sites) FaultInjector::Instance().Arm(site, never);
}

// DMEM bump allocation: ~the cheapest operation carrying a fault
// point, so the gate's share of its cost is maximal.
uint64_t AllocLoop() {
  dpu::Dmem dmem(32 * 1024);
  uint64_t resets = 0;
  for (size_t i = 0; i < kAllocIters; ++i) {
    if (!dmem.Allocate(64).ok()) {
      dmem.Reset();
      ++resets;
    }
  }
  return resets;
}

}  // namespace

int main() {
  bench::Header("Fault injector", "overhead of compiled-in fault points");
  bench::Harness harness("fault", kReps);

  const bench::CaseResult& alloc = harness.Case<uint64_t>(
      "dmem alloc loop",
      {{"disabled", Disarm, AllocLoop},
       {"armed p=0", [] { ArmQuietly({faults::kDmemAlloc}); }, AllocLoop}},
      [](uint64_t& resets) {
        return bench::Sample{resets, {{"iters", kAllocIters}}};
      });
  const double disabled_ns =
      alloc.Get("disabled").wall_ms.median * 1e6 / kAllocIters;
  const double armed_ns =
      alloc.Get("armed p=0").wall_ms.median * 1e6 / kAllocIters;
  std::printf("  per op: disabled %.2f ns, armed p=0 %.2f ns (%+.1f%%)\n",
              disabled_ns, armed_ns, (armed_ns / disabled_ns - 1.0) * 100.0);

  RapidEngine engine;
  bench::LoadOverheadTables(engine);
  auto query = [&engine](const LogicalPtr& plan, bool checkpoints) {
    return [&engine, plan, checkpoints] {
      ExecOptions options;
      options.planner.enable_fusion = false;  // exercise the partition path
      options.enable_checkpoints = checkpoints;
      return bench::Must(engine.Execute(plan, options));
    };
  };
  const std::pair<std::string, LogicalPtr> plans[] = {
      {"filter+group-by", bench::OverheadAggPlan()},
      {"partitioned join", bench::OverheadJoinPlan()}};
  for (const auto& [name, plan] : plans) {
    const bench::CaseResult& c = harness.Case<QueryResult>(
        name,
        {{"disabled", Disarm, query(plan, true)},
         {"armed p=0",
          [] {
            ArmQuietly({faults::kDmsTransfer, faults::kDmsPartition,
                        faults::kDmemAlloc, faults::kJoinBuild});
          },
          query(plan, true)},
         {"no checkpoints", Disarm, query(plan, false)}},
        bench::QuerySample);
    const double bound = c.Get("no checkpoints").wall_ms.median * 1.02 + 0.5;
    harness.WallGate(name + ": checkpoints on <= off*1.02 + 0.5 ms",
                     c.Get("disabled"), bound);
  }
  return harness.Finish();
}
