// QueryCounters: the engine's per-query event counters, declared once.
//
// RAPID_QUERY_COUNTERS(X) is the single table of them. Every place
// that stores, sums, zeroes or prints these counters expands the
// table or uses the struct it generates — the dpCores, ExecutionStats,
// the fragment checkpoint, the host fallback, QueryReport, Summary(),
// EXPLAIN ANALYZE and the `rapid.<field>` metrics — so adding a
// counter is one table line plus its increment site.
//
// The table has two parts:
//
//  - RAPID_CHECKPOINT_COUNTERS: fragment-checkpoint accounting the
//    engine keeps across every attempt of a query (FragmentCheckpoint),
//    so it is still reported when the fragment falls back to the host.
//      reused_rounds    partition rounds restored instead of re-executed
//      resumed_morsels  fused-pipeline morsels skipped by mid-step resume
//      dpu_retries      in-place DPU retries spent (ExecOptions::retry_budget)
//
//  - RAPID_DPU_COUNTERS: tallied by the dpCores during one attempt and
//    summed over the cores when it completes. A fragment that falls
//    back reports zero: the host re-execution moves no DMS bytes and
//    builds no Bloom filters.
//      encoded_bytes_moved  bytes the DMS moved as RLE runs
//      plain_bytes_moved    plain bytes those same tiles would have cost
//      runs_filtered        runs whose predicate was decided run-level
//      join_filter_built    join-filter Bloom filters built
//      rows_pruned_by_join_filter  probe rows those filters pruned
//      filter_bytes         bytes the built filters occupied

#ifndef RAPID_COMMON_QUERY_COUNTERS_H_
#define RAPID_COMMON_QUERY_COUNTERS_H_

#include <cstdint>
#include <string>

#define RAPID_CHECKPOINT_COUNTERS(X) \
  X(reused_rounds)                   \
  X(resumed_morsels)                 \
  X(dpu_retries)

#define RAPID_DPU_COUNTERS(X)      \
  X(encoded_bytes_moved)           \
  X(plain_bytes_moved)             \
  X(runs_filtered)                 \
  X(join_filter_built)             \
  X(rows_pruned_by_join_filter)    \
  X(filter_bytes)

#define RAPID_QUERY_COUNTERS(X) \
  RAPID_CHECKPOINT_COUNTERS(X)  \
  RAPID_DPU_COUNTERS(X)

namespace rapid {

struct QueryCounters {
#define RAPID_DECLARE_COUNTER(name) uint64_t name = 0;
  RAPID_QUERY_COUNTERS(RAPID_DECLARE_COUNTER)
#undef RAPID_DECLARE_COUNTER

  void Add(const QueryCounters& other) {
#define RAPID_ADD_COUNTER(name) name += other.name;
    RAPID_QUERY_COUNTERS(RAPID_ADD_COUNTER)
#undef RAPID_ADD_COUNTER
  }

  // Calls fn(name, value) for every counter, in table order.
  template <typename Fn>
  void Visit(Fn&& fn) const {
#define RAPID_VISIT_COUNTER(name) fn(#name, name);
    RAPID_QUERY_COUNTERS(RAPID_VISIT_COUNTER)
#undef RAPID_VISIT_COUNTER
  }

  // Appends " name=value" for every counter, in table order: the
  // counter keys of QueryReport::Summary() and the EXPLAIN ANALYZE
  // header.
  void AppendKeyValues(std::string* out) const {
    Visit([out](const char* name, uint64_t value) {
      *out += ' ';
      *out += name;
      *out += '=';
      *out += std::to_string(value);
    });
  }
};

}  // namespace rapid

#endif  // RAPID_COMMON_QUERY_COUNTERS_H_
