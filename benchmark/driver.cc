// End-to-end TPC-H benchmark driver: one workload per process, one
// closed-loop client, no concurrency.
//
//   rapid_e2e --workload <tpch_scan|tpch_join|htap_refresh> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//             [--trace-out <file>]
//
// The driver uses only the engine's public API (TpchGenerator,
// HostDatabase, OffloadPlanner, Planner, RapidEngine) and times those
// calls from outside. Every query result is checked row for row
// against the host's Volcano engine (ExecuteLocal) at the same SCN,
// outside the timed region.
//
// --trace 0 measures the end-to-end metrics with tracing off.
// --trace 1 alternates traced and untraced passes: traced passes drive
// each fragment as Decide -> Planner::Plan -> ExecutePhysical -> post
// under in-memory spans, which give the per-layer metrics; the
// untraced passes give the tracing overhead.
//
// Progress goes to stderr. Standard output gets one detail line
// (resolved settings, sample counts, host wall-clock latencies) and,
// last, the result line {"correct", "attempted", "failed", "metrics"}.
// Exit code 0 only when every operation succeeded and matched the
// oracle.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/simd.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/join_filter.h"
#include "core/qcomp/plan_serde.h"
#include "dpu/power_model.h"
#include "dpu/work_queue.h"
#include "hostdb/database.h"
#include "hostdb/offload.h"
#include "stats.h"
#include "storage/encoding_stack.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace rapid::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Reference work ----------------------------------------------------

// A fixed amount of host work that is not engine code: a dependent
// chain of hashed loads and stores over a 256 KiB table, fed from a
// 2 MiB buffer, a few milliseconds on a current x86 core. It runs
// right before every timed query, so the query's time over the loop's
// time cancels the host's speed drift, while a change to any part of
// the engine, Volcano included, still shows.
class ReferenceLoop {
 public:
  ReferenceLoop() : data_(kDataWords), table_(kTableWords) {
    SplitMix64 rng(kDataWords);
    for (uint64_t& w : data_) w = rng.Next();
  }
  double Seconds() {
    const auto start = Clock::now();
    uint64_t acc = sink_;
    for (uint64_t w : data_) {
      uint64_t h = (w ^ acc) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
      table_[h & (kTableWords - 1)] += h;
      acc += table_[(h >> 32) & (kTableWords - 1)];
    }
    sink_ = acc;
    return SecondsSince(start);
  }

 private:
  static constexpr size_t kDataWords = size_t{1} << 18;
  static constexpr size_t kTableWords = size_t{1} << 15;
  std::vector<uint64_t> data_;
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
};

// ---- Workloads ---------------------------------------------------------

struct Workload {
  const char* name;
  double scale_factor;
  std::vector<std::string> queries;
  bool writes;  // htap_refresh: a lineitem batch before every query
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"tpch_scan", 0.2, {"Q1", "Q6", "Q12", "Q14", "Q19"}, false},
      {"tpch_join", 0.1, {"Q3", "Q4", "Q5", "Q10", "Q11", "Q18"}, false},
      {"htap_refresh", 0.05, {"Q1", "Q6"}, true},
  };
  return kWorkloads;
}

// Every query any workload runs; per-query metrics cover all of them so
// each workload reports the same metric names (0 = not run here).
const char* const kAllQueries[] = {"Q1",  "Q3",  "Q4",  "Q5",  "Q6", "Q10",
                                   "Q11", "Q12", "Q14", "Q18", "Q19"};

// Step kinds (first word of StepTiming::description) the per-kind
// modeled-time metrics report; anything else lands in "other".
const char* const kStepKinds[] = {"scan",    "pipe",    "pipeline", "partition",
                                  "hashjoin", "groupby", "sort",     "topk"};

constexpr int kSetupRepeats = 3;
constexpr size_t kRowsPerChunk = 2048;  // tpch::LoadTpch's geometry
constexpr size_t kBatchRows = 200;      // htap_refresh rows per Update
constexpr int kCheckpointEvery = 5;     // htap_refresh batches per Checkpoint
constexpr uint64_t kMinUntracedPasses = 2;

// ---- Spans -------------------------------------------------------------

// In-memory span recorder for traced passes. A span's layer is its
// name up to the first '.'; root spans start a new query id.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* label;  // query name on root spans, else ""
    int parent;
    int query;
    double start_ms;
    double end_ms;
  };

  int Begin(const char* name, const char* label = "") {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (parent < 0) ++queries_;
    spans_.push_back({name, label, parent, queries_, NowMs(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    spans_[id].end_ms = NowMs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int queries_ = 0;
};

// Records one span when a tracer is given; free otherwise.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, const char* label = "")
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, label) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

// ---- Engine counters ---------------------------------------------------

// Counters the engine returns in ExecutionStats, summed over the
// fragments that ran on RAPID.
struct EngineCounters {
  double modeled_s = 0;
  double compute_cycles = 0;
  double dms_cycles = 0;
  dpu::ImbalanceStats imbalance;
  core::WorkloadCounters work;
  uint64_t steps = 0;
  std::map<std::string, double> modeled_s_by_kind;
  uint64_t encoded_bytes = 0;
  uint64_t plain_bytes = 0;
  uint64_t runs_filtered = 0;
  uint64_t rows_pruned = 0;
  uint64_t tile_pool_misses = 0;
  uint64_t arena_bytes = 0;  // absolute: reserved at the last fragment

  void Add(const core::ExecutionStats& s) {
    modeled_s += s.modeled_seconds;
    compute_cycles += s.total_compute_cycles;
    dms_cycles += s.total_dms_cycles;
    imbalance.Accumulate(s.imbalance);
    work.scanned_rows += s.workload.scanned_rows;
    work.scanned_bytes += s.workload.scanned_bytes;
    work.partitioned_rows += s.workload.partitioned_rows;
    work.join_build_rows += s.workload.join_build_rows;
    work.join_probe_rows += s.workload.join_probe_rows;
    work.agg_rows += s.workload.agg_rows;
    work.sorted_rows += s.workload.sorted_rows;
    steps += s.steps.size();
    for (const core::StepTiming& st : s.steps) {
      modeled_s_by_kind[StepKind(st.description)] += st.modeled_seconds;
    }
    encoded_bytes += s.encoded_bytes_moved;
    plain_bytes += s.plain_bytes_moved;
    runs_filtered += s.runs_filtered;
    rows_pruned += s.rows_pruned_by_join_filter;
    tile_pool_misses += s.tile_pool.misses;
    arena_bytes = s.arena.bytes_reserved;
  }

  static std::string StepKind(const std::string& description) {
    std::string kind = description.substr(0, description.find(' '));
    for (char& c : kind) c = static_cast<char>(std::tolower(c));
    for (const char* k : kStepKinds) {
      if (kind == k) return kind;
    }
    return "other";
  }
};

// What one pass (or one query) did, beyond its wall time.
struct PassStats {
  FragmentCounts fragments;
  uint64_t admission_denials = 0;  // traced passes only
  EngineCounters engine;
};

// ---- Database ----------------------------------------------------------

struct Db {
  std::unique_ptr<hostdb::HostDatabase> host;
  std::unique_ptr<core::RapidEngine> engine;
};

struct SetupTimes {
  double generate_s = 0;
  double create_s = 0;
  double load_rapid_s = 0;
  double warmup_s = 0;
  double total_s() const {
    return generate_s + create_s + load_rapid_s + warmup_s;
  }
};

// Generates the workload's TPC-H data from `seed`, creates the host
// tables and loads them into a fresh RAPID engine (what tpch::LoadTpch
// does, with each phase timed).
Status BuildDb(double sf, uint64_t seed, Db* db, SetupTimes* t) {
  db->host = std::make_unique<hostdb::HostDatabase>();
  db->engine = std::make_unique<core::RapidEngine>();
  db->engine->dpu().SetInlineExecution(true);

  auto start = Clock::now();
  std::vector<tpch::TableData> tables =
      tpch::TpchGenerator(sf, seed).AllTables();
  t->generate_s = SecondsSince(start);

  start = Clock::now();
  for (const tpch::TableData& table : tables) {
    storage::LoadOptions opts;
    opts.rows_per_chunk = kRowsPerChunk;
    RAPID_RETURN_NOT_OK(
        db->host->CreateTable(table.name, table.specs, table.data, opts));
  }
  t->create_s = SecondsSince(start);

  start = Clock::now();
  for (const tpch::TableData& table : tables) {
    RAPID_RETURN_NOT_OK(db->host->LoadToRapid(table.name, db->engine.get()));
  }
  t->load_rapid_s = SecondsSince(start);
  return Status::OK();
}

// ---- Query execution ---------------------------------------------------

bool IsOrdered(const core::LogicalPtr& plan) {
  return plan->kind == core::LogicalNode::Kind::kSort ||
         plan->kind == core::LogicalNode::Kind::kTopK;
}

// Untraced: each fragment goes through HostDatabase::ExecuteQuery.
Result<core::ColumnSet> RunFragmentsViaHost(Db& db, const tpch::TpchQuery& q,
                                            PassStats* stats) {
  std::vector<core::ColumnSet> results;
  for (const auto& fragment : q.fragments) {
    RAPID_ASSIGN_OR_RETURN(core::LogicalPtr plan,
                           fragment(db.host->catalog(), results));
    RAPID_ASSIGN_OR_RETURN(hostdb::QueryReport report,
                           db.host->ExecuteQuery(plan, db.engine.get()));
    ++stats->fragments.issued;
    if (report.offloaded && !report.fell_back) {
      stats->engine.Add(report.rapid_stats);
    } else {
      ++stats->fragments.fell_back;  // served by Volcano
    }
    results.push_back(std::move(report.rows));
  }
  return q.post ? q.post(results) : std::move(results.back());
}

// Traced: ExecuteQuery's full-offload path taken apart so each public
// call gets its own span. Admission and the plan wire round trip are
// kept so a traced fragment does the same work as an untraced one.
Result<core::ColumnSet> RunFragment(Db& db, const core::LogicalPtr& plan,
                                    Tracer* tr, PassStats* stats) {
  core::RapidEngine& engine = *db.engine;
  hostdb::OffloadDecision decision;
  {
    SpanScope span(tr, "hostdb.decide");
    hostdb::OffloadPlanner planner(engine.dpu().config(),
                                   engine.dpu().params());
    decision = planner.Decide(plan, engine, db.host->catalog());
  }
  ++stats->fragments.issued;
  if (decision.kind == hostdb::OffloadDecision::Kind::kNone) {
    ++stats->fragments.fell_back;
    SpanScope span(tr, "hostdb.local");
    return db.host->ExecuteLocal(plan);
  }
  if (decision.kind != hostdb::OffloadDecision::Kind::kFull) {
    return Status::NotSupported("traced run drives full offload only");
  }
  bool admissible = true;
  {
    SpanScope span(tr, "hostdb.admit");
    const uint64_t scn = db.host->journal().current_scn();
    std::vector<std::string> tables;
    hostdb::OffloadPlanner::CollectTables(plan, &tables);
    for (const std::string& t : tables) {
      admissible = admissible && db.host->journal().Admissible(t, scn);
    }
  }
  if (!admissible) {
    ++stats->admission_denials;
    ++stats->fragments.fell_back;
    SpanScope span(tr, "hostdb.fallback");
    return db.host->ExecuteLocal(plan);
  }
  core::LogicalPtr received;
  {
    SpanScope span(tr, "qcomp.wire");
    RAPID_ASSIGN_OR_RETURN(received,
                           core::ParsePlan(core::SerializePlan(plan)));
  }
  const core::ExecOptions options;
  core::PhysicalPlan physical;
  {
    SpanScope span(tr, "qcomp.plan");
    core::Planner planner(engine.dpu().config(), engine.dpu().params(),
                          options.planner);
    RAPID_ASSIGN_OR_RETURN(physical, planner.Plan(received, engine.catalog()));
  }
  Result<core::QueryResult> result = [&] {
    SpanScope span(tr, "engine.execute");
    core::FragmentCheckpoint ckpt;
    return engine.ExecutePhysical(physical, options, &ckpt);
  }();
  if (!result.ok()) {
    ++stats->fragments.fell_back;
    SpanScope span(tr, "hostdb.fallback");
    return db.host->ExecuteLocal(plan);
  }
  stats->engine.Add(result.value().stats);
  return std::move(result.value().rows);
}

Result<core::ColumnSet> RunFragmentsTraced(Db& db, const tpch::TpchQuery& q,
                                           Tracer* tr, PassStats* stats) {
  std::vector<core::ColumnSet> results;
  for (const auto& fragment : q.fragments) {
    core::LogicalPtr plan;
    {
      SpanScope span(tr, "tpch.fragment");
      RAPID_ASSIGN_OR_RETURN(plan, fragment(db.host->catalog(), results));
    }
    RAPID_ASSIGN_OR_RETURN(core::ColumnSet rows,
                           RunFragment(db, plan, tr, stats));
    results.push_back(std::move(rows));
  }
  SpanScope span(tr, "engine.post");
  return q.post ? q.post(results) : std::move(results.back());
}

Result<core::ColumnSet> RunQuery(Db& db, const tpch::TpchQuery& q,
                                 Tracer* tr, PassStats* stats) {
  if (tr == nullptr) return RunFragmentsViaHost(db, q, stats);
  SpanScope root(tr, "bench.query", q.name.c_str());
  return RunFragmentsTraced(db, q, tr, stats);
}

// ---- Oracle ------------------------------------------------------------

struct Oracle {
  core::ColumnSet rows;
  bool ordered = false;  // the query ends in ORDER BY (sort or top-k)
  double wall_s = 0;
};

// System-X-only execution at the current SCN (tpch::RunOnHost, with
// the final fragment's ordering recorded).
Result<Oracle> RunOracle(Db& db, const tpch::TpchQuery& q) {
  Oracle oracle;
  std::vector<core::ColumnSet> results;
  const auto start = Clock::now();
  for (const auto& fragment : q.fragments) {
    RAPID_ASSIGN_OR_RETURN(core::LogicalPtr plan,
                           fragment(db.host->catalog(), results));
    oracle.ordered = IsOrdered(plan);
    RAPID_ASSIGN_OR_RETURN(core::ColumnSet rows, db.host->ExecuteLocal(plan));
    results.push_back(std::move(rows));
  }
  oracle.rows = q.post ? q.post(results) : std::move(results.back());
  oracle.wall_s = SecondsSince(start);
  return oracle;
}

std::vector<std::vector<int64_t>> SortedRows(const core::ColumnSet& cs) {
  std::vector<std::vector<int64_t>> rows(cs.num_rows(),
                                         std::vector<int64_t>(cs.num_columns()));
  for (size_t c = 0; c < cs.num_columns(); ++c) {
    for (size_t r = 0; r < cs.num_rows(); ++r) rows[r][c] = cs.Value(r, c);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Row-for-row equality; row order matters only under ORDER BY.
bool SameRows(const core::ColumnSet& got, const Oracle& want) {
  const core::ColumnSet& w = want.rows;
  if (got.num_columns() != w.num_columns() || got.num_rows() != w.num_rows()) {
    return false;
  }
  if (want.ordered) {
    for (size_t c = 0; c < w.num_columns(); ++c) {
      if (got.column(c) != w.column(c)) return false;
    }
    return true;
  }
  return SortedRows(got) == SortedRows(w);
}

// ---- The measured loop -------------------------------------------------

struct RunState {
  const Workload* wl = nullptr;
  uint64_t seed = 0;
  std::vector<tpch::TpchQuery> queries;  // workload order
  Db db;
  OpCounts ops;
  // Oracle (Volcano) wall time of every check, per query name.
  std::map<std::string, std::vector<double>> volcano_ms;
  // Untraced passes: query latencies (ms) per query name, and the
  // Volcano oracle's time over the query's, each pair measured back to
  // back so both see the same host conditions.
  std::map<std::string, std::vector<double>> latency_ms;
  std::map<std::string, std::vector<double>> volcano_ratio;
  // Untraced passes: per query name, the query's time over the time of
  // the reference loop run right before it; and every reference time.
  std::map<std::string, std::vector<double>> ref_ratio;
  std::vector<double> ref_ms;
  ReferenceLoop reference;
  double untraced_s = 0;  // timed wall of untraced passes
  uint64_t untraced_passes = 0;
  std::vector<double> untraced_pass_s;
  // Per untraced pass: oracle time over timed time (writes included).
  std::vector<double> pass_volcano_ratio;
  double traced_s = 0;
  uint64_t traced_passes = 0;
  double traced_modeled_s = 0;  // modeled DPU time of the traced passes
  FragmentCounts fragments;   // untraced passes
  PassStats first_traced;     // deterministic counters of traced pass 0
  // Write path (htap_refresh).
  uint64_t rows_written = 0;
  double update_s = 0;
  std::vector<double> checkpoint_ms;
  uint64_t lineitem_rows = 0;
  uint64_t batches = 0;
  Tracer tracer;
};

// Runs the oracle at the current SCN, right after the query and outside
// the timed region, and checks `rows` against it. Returns the oracle's
// wall seconds (0 if it failed).
double Check(RunState& st, const tpch::TpchQuery& q,
             const Result<core::ColumnSet>& rows) {
  Result<Oracle> oracle = RunOracle(st.db, q);
  if (!oracle.ok()) {
    ++st.ops.errors;
    std::fprintf(stderr, "error: oracle %s: %s\n", q.name.c_str(),
                 oracle.status().ToString().c_str());
    return 0;
  }
  st.volcano_ms[q.name].push_back(oracle.value().wall_s * 1e3);
  if (!rows.ok()) {
    ++st.ops.errors;
    std::fprintf(stderr, "error: %s: %s\n", q.name.c_str(),
                 rows.status().ToString().c_str());
  } else if (!SameRows(rows.value(), oracle.value())) {
    ++st.ops.mismatches;
    std::fprintf(stderr, "mismatch: %s differs from the Volcano oracle\n",
                 q.name.c_str());
  }
  return oracle.value().wall_s;
}

// Reads global row `row_id` of `t` into `values`, locating it the way
// storage::ApplyRowChange does, with the same range checks. False when
// the row is out of range. WriteStep reads every written row back after
// HostDatabase::Update, so a change to the storage layout that this
// copy misses shows as a failed write, not as silently wrong data.
bool ReadRow(const storage::Table& t, uint64_t row_id,
             std::vector<int64_t>* values) {
  const size_t rows_per_chunk = t.rows_per_chunk();
  if (rows_per_chunk == 0 || t.num_partitions() == 0) return false;
  const size_t chunk_index = row_id / rows_per_chunk;
  const size_t partition = chunk_index % t.num_partitions();
  const size_t chunk = chunk_index / t.num_partitions();
  const size_t row = row_id % rows_per_chunk;
  if (chunk >= t.partition(partition).num_chunks() ||
      row >= t.partition(partition).chunk(chunk).num_rows()) {
    return false;
  }
  const storage::Chunk& c = t.partition(partition).chunk(chunk);
  values->resize(c.num_columns());
  for (size_t col = 0; col < values->size(); ++col) {
    (*values)[col] = c.column(col).GetInt(row);
  }
  return true;
}

// One htap_refresh write: a seeded batch of lineitem rows each copied
// from another row, then every kCheckpointEvery batches an explicit
// Checkpoint + VacuumTrackers. Returns the timed seconds.
double WriteStep(RunState& st, Tracer* tr) {
  const std::vector<RowCopy> copies =
      WriteBatch(st.seed, st.batches, st.lineitem_rows, kBatchRows);
  const storage::Table* lineitem = st.db.host->GetTable("lineitem");
  std::vector<storage::RowChange> changes(copies.size());
  bool rows_ok = true;
  for (size_t i = 0; i < copies.size(); ++i) {
    changes[i].row_id = copies[i].target;
    rows_ok = rows_ok && ReadRow(*lineitem, copies[i].source,
                                 &changes[i].values);
  }
  ++st.ops.attempted;
  if (!rows_ok) {
    ++st.ops.errors;
    std::fprintf(stderr, "error: write batch: source row out of range\n");
    return 0;
  }
  const std::vector<storage::RowChange> written = changes;
  auto start = Clock::now();
  Status s;
  {
    SpanScope span(tr, "hostdb.update");
    s = st.db.host->Update("lineitem", std::move(changes));
  }
  const double update_s = SecondsSince(start);
  // Outside the timing: every target row must now hold what was written.
  std::vector<int64_t> now;
  for (const storage::RowChange& c : written) {
    if (s.ok() && (!ReadRow(*lineitem, c.row_id, &now) || now != c.values)) {
      s = Status::Internal("row " + std::to_string(c.row_id) +
                           " does not read back as written");
    }
  }
  st.update_s += update_s;
  st.rows_written += copies.size();
  double timed = update_s;
  ++st.batches;
  if (s.ok() && st.batches % kCheckpointEvery == 0) {
    start = Clock::now();
    {
      SpanScope span(tr, "hostdb.checkpoint");
      s = st.db.host->Checkpoint(st.db.engine.get());
    }
    const double ckpt_s = SecondsSince(start);
    st.checkpoint_ms.push_back(ckpt_s * 1e3);
    const auto vstart = Clock::now();
    {
      SpanScope span(tr, "engine.vacuum");
      st.db.engine->VacuumTrackers(st.db.host->journal().current_scn());
    }
    timed += ckpt_s + SecondsSince(vstart);
  }
  if (!s.ok()) {
    ++st.ops.errors;
    std::fprintf(stderr, "error: write batch: %s\n", s.ToString().c_str());
  }
  return timed;
}

// One pass: every query once in the pass's seeded rotated order. For
// htap_refresh, two checkpoint cycles of (write batch, query) steps
// with the queries cycling in that order, so every pass runs each query
// equally often and offloads each once.
double RunPass(RunState& st, uint64_t pass, Tracer* tr, PassStats* stats) {
  double timed = 0;
  double oracle = 0;
  const std::vector<size_t> order = PassOrder(st.seed, st.queries.size(), pass);
  const size_t steps = st.wl->writes ? 2 * kCheckpointEvery : order.size();
  for (size_t i = 0; i < steps; ++i) {
    if (st.wl->writes) timed += WriteStep(st, tr);
    const tpch::TpchQuery& q = st.queries[order[i % order.size()]];
    ++st.ops.attempted;
    const double ref_s = tr == nullptr ? st.reference.Seconds() : 0;
    const auto start = Clock::now();
    Result<core::ColumnSet> rows = RunQuery(st.db, q, tr, stats);
    const double wall = SecondsSince(start);
    timed += wall;
    const double volcano = Check(st, q, rows);
    oracle += volcano;
    if (tr == nullptr) {
      st.latency_ms[q.name].push_back(wall * 1e3);
      st.volcano_ratio[q.name].push_back(volcano / wall);
      st.ref_ratio[q.name].push_back(wall / ref_s);
      st.ref_ms.push_back(ref_s * 1e3);
    }
  }
  if (tr == nullptr) st.pass_volcano_ratio.push_back(oracle / timed);
  return timed;
}

// Runs passes, each query followed by its oracle check, until the loop
// has run for `seconds` of wall time and at least kMinUntracedPasses
// untraced passes. With `traced`, traced and untraced passes alternate
// (traced first), so both see the same host conditions.
void MeasureLoop(RunState& st, double seconds, bool traced) {
  const auto loop_start = Clock::now();
  for (uint64_t pass = 0;; ++pass) {
    // With tracing, traced and untraced passes each rotate through the
    // query orders in the same sequence.
    const bool this_traced = traced && pass % 2 == 0;
    const uint64_t rotation = traced ? pass / 2 : pass;
    if (this_traced) {
      PassStats stats;
      st.traced_s += RunPass(st, rotation, &st.tracer, &stats);
      st.traced_modeled_s += stats.engine.modeled_s;
      if (st.traced_passes++ == 0) st.first_traced = stats;
      continue;
    }
    PassStats stats;
    const double t = RunPass(st, rotation, nullptr, &stats);
    st.untraced_s += t;
    st.untraced_pass_s.push_back(t);
    ++st.untraced_passes;
    st.fragments.issued += stats.fragments.issued;
    st.fragments.fell_back += stats.fragments.fell_back;
    if (SecondsSince(loop_start) >= seconds &&
        st.untraced_passes >= kMinUntracedPasses) {
      break;
    }
  }
}

// ---- Output ------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string esc;
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) esc += c;
    }
    Raw(key, "\"" + esc + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    os_ << (first_ ? "" : ", ") << "\"" << key << "\": " << json;
    first_ = false;
  }
  std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

struct Metrics {
  JsonObject obj;
  void Add(const std::string& name, double value, const char* unit) {
    JsonObject m;
    m.Num("value", value);
    m.Str("unit", unit);
    obj.Raw(name, m.str());
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Resolved runtime settings, as the engine reports them.
std::string SettingsJson(const RunState& st, const std::string& commit,
                         bool traced) {
  JsonObject s;
  s.Str("RAPID_SIMD", SimdLevelName(SimdLevelActive()));
  s.Str("RAPID_SCHED", dpu::SchedModeName(dpu::SchedModeActive()));
  s.Num("RAPID_CORES", st.db.engine->dpu().num_cores());
  s.Str("RAPID_ENCODED_SCAN",
        storage::EncodedScanActive() == storage::EncodedScanMode::kAuto
            ? "auto"
            : "off");
  s.Str("RAPID_JOIN_FILTER",
        core::JoinFilterActive() == core::JoinFilterMode::kAuto ? "auto"
                                                                : "off");
  s.Str("RAPID_TILE_POOL", TileBufferPool::BypassActive() ? "off" : "on");
  s.Str("RAPID_TRACE", TraceModeName(TraceModeActive()));
  s.Str("inline_execution", "true");
  s.Str("benchmark_trace", traced ? "spans" : "off");
  s.Num("scale_factor", st.wl->scale_factor);
  s.Num("seed", static_cast<double>(st.seed));
  s.Str("commit", commit);
  return s.str();
}

// Host wall-clock latency of the untraced passes' queries.
struct WallSummary {
  size_t samples = 0;
  double qps = 0;  // queries per second of timed work (writes included)
  double p50_ms = 0;
  double p90_ms = -1;  // -1: fewer than SamplesForTail(0.9) samples
  double geomean_ms = 0;  // geomean of the per-query medians
};

WallSummary SummarizeWall(const RunState& st) {
  std::vector<double> pooled;
  std::vector<double> per_query_median;
  for (const auto& [name, v] : st.latency_ms) {
    pooled.insert(pooled.end(), v.begin(), v.end());
    per_query_median.push_back(Median(v));
  }
  WallSummary w;
  w.samples = pooled.size();
  w.qps = st.untraced_s > 0 ? static_cast<double>(w.samples) / st.untraced_s
                            : 0;
  w.p50_ms = Median(pooled);
  if (w.samples >= SamplesForTail(0.9)) w.p90_ms = Percentile(pooled, 0.9);
  w.geomean_ms = GeoMean(per_query_median);
  return w;
}

void AddEndToEnd(const RunState& st, const std::vector<double>& setup_s,
                 const std::map<std::string, EngineCounters>& warm,
                 Metrics* m) {
  m->Add("setup_s", Median(setup_s), "s");
  // Host time through HostDatabase::ExecuteQuery in units of the
  // reference loop run right before each query: per query the median
  // ratio, then the geomean over queries.
  std::vector<double> ref_units;
  for (const auto& [name, v] : st.ref_ratio) ref_units.push_back(Median(v));
  m->Add("query_geomean_ref", GeoMean(ref_units), "ref");
  // Figure 16 on this host: Volcano oracle time over the time through
  // HostDatabase::ExecuteQuery, paired run by run (the oracle runs
  // right after each query). Per query the median ratio, then the
  // geomean over queries; and the median over passes of the pass
  // totals, which weighs long queries and, in htap_refresh, writes.
  std::vector<double> speedups;
  for (const auto& [name, v] : st.volcano_ratio) speedups.push_back(Median(v));
  m->Add("speedup_geomean_x", GeoMean(speedups), "x");
  m->Add("speedup_pass_x", Median(st.pass_volcano_ratio), "x");
  double modeled_s = 0;
  std::vector<double> ppw;
  const bench::XeonModel xeon;
  const dpu::PowerModel power;
  for (const auto& [name, c] : warm) {
    modeled_s += c.modeled_s;
    if (c.modeled_s > 0) {
      ppw.push_back(
          power.PerfPerWattRatio(xeon.Seconds(c.work) / c.modeled_s, 1.0));
    }
  }
  m->Add("modeled_dpu_ms", modeled_s * 1e3, "ms");
  m->Add("perf_per_watt_x", GeoMean(ppw), "x");
  m->Add("offload_share", 1.0 - st.fragments.FallbackShare(), "share");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// Per-layer metrics from the traced passes' spans plus the engine's
// counters of the first traced pass (deterministic for a seed).
void AddPerLayer(const RunState& st, const SetupTimes& setup_median,
                 double warmup_ms, Metrics* m, std::string* trace_summary) {
  m->Add("tpch.generate_s", setup_median.generate_s, "s");
  m->Add("storage.create_s", setup_median.create_s, "s");
  m->Add("storage.load_rapid_s", setup_median.load_rapid_s, "s");

  const EngineCounters& c = st.first_traced.engine;
  m->Add("storage.encoded_byte_ratio",
         c.plain_bytes > 0 ? static_cast<double>(c.encoded_bytes) /
                                 static_cast<double>(c.plain_bytes)
                           : 1.0,
         "ratio");
  m->Add("storage.runs_filtered", static_cast<double>(c.runs_filtered),
         "count");

  // Span durations by name, and per-query sums of engine.execute.
  const auto& spans = st.tracer.spans();
  std::map<std::string, std::vector<double>> by_name;
  std::map<int, double> execute_by_query;
  std::map<int, const char*> label_by_query;
  std::map<std::string, double> self_ms;
  double query_ms = 0;
  uint64_t traced_queries = 0;
  std::vector<double> child_ms(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double d = s.end_ms - s.start_ms;
    by_name[s.name].push_back(d);
    if (s.parent >= 0) child_ms[s.parent] += d;
    if (std::strcmp(s.name, "engine.execute") == 0) {
      execute_by_query[s.query] += d;
    }
    if (s.parent < 0 && std::strcmp(s.name, "bench.query") == 0) {
      label_by_query[s.query] = s.label;
      query_ms += d;
      ++traced_queries;
    }
  }
  // Self time = duration minus the children's durations (children of
  // one span never overlap: the client is single-threaded), summed per
  // layer over the query trees.
  double self_total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!label_by_query.count(spans[i].query)) continue;
    const double self = spans[i].end_ms - spans[i].start_ms - child_ms[i];
    self_ms[LayerOf(spans[i].name)] += self;
    self_total += self;
  }
  auto median_of = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : Median(it->second);
  };

  m->Add("hostdb.decide_ms", median_of("hostdb.decide"), "ms");
  double ckpt_s = 0;
  for (double v : st.checkpoint_ms) ckpt_s += v / 1e3;
  m->Add("hostdb.update_ms_per_row",
         st.rows_written > 0
             ? st.update_s * 1e3 / static_cast<double>(st.rows_written)
             : 0,
         "ms");
  m->Add("hostdb.checkpoint_ms", Median(st.checkpoint_ms), "ms");
  m->Add("hostdb.write_rows_per_s",
         st.update_s + ckpt_s > 0
             ? static_cast<double>(st.rows_written) / (st.update_s + ckpt_s)
             : 0,
         "1/s");
  m->Add("hostdb.admission_denials",
         static_cast<double>(st.first_traced.admission_denials), "count");
  m->Add("hostdb.fallback_ms", median_of("hostdb.fallback"), "ms");
  for (const char* q : kAllQueries) {
    auto it = st.volcano_ms.find(q);
    m->Add(std::string("hostdb.volcano_ms.") + q,
           it == st.volcano_ms.end() ? 0 : Median(it->second), "ms");
  }

  m->Add("qcomp.plan_ms", median_of("qcomp.plan"), "ms");
  m->Add("qcomp.steps", static_cast<double>(c.steps), "count");

  std::map<std::string, std::vector<double>> execute_ms;
  for (const auto& [q, label] : label_by_query) {
    auto it = execute_by_query.find(q);
    if (it != execute_by_query.end()) execute_ms[label].push_back(it->second);
  }
  for (const char* q : kAllQueries) {
    auto it = execute_ms.find(q);
    m->Add(std::string("engine.execute_ms.") + q,
           it == execute_ms.end() ? 0 : Median(it->second), "ms");
  }
  m->Add("engine.post_ms", median_of("engine.post"), "ms");
  double execute_total_ms = 0;
  for (const auto& [q, v] : execute_by_query) execute_total_ms += v;
  const double modeled_ms = st.traced_modeled_s * 1e3;
  m->Add("engine.wall_per_modeled",
         modeled_ms > 0 ? execute_total_ms / modeled_ms : 0, "ratio");
  for (const char* kind : kStepKinds) {
    auto it = c.modeled_s_by_kind.find(kind);
    m->Add(std::string("ops.modeled_ms.") + kind,
           it == c.modeled_s_by_kind.end() ? 0 : it->second * 1e3, "ms");
  }
  {
    auto it = c.modeled_s_by_kind.find("other");
    m->Add("ops.modeled_ms.other",
           it == c.modeled_s_by_kind.end() ? 0 : it->second * 1e3, "ms");
  }

  m->Add("dpu.dms_cycles", c.dms_cycles, "cycles");
  m->Add("dpu.compute_cycles", c.compute_cycles, "cycles");
  m->Add("dpu.imbalance", c.imbalance.Ratio(), "ratio");
  m->Add("dpu.steals", static_cast<double>(c.imbalance.steal_count), "count");

  m->Add("work.scanned_rows", static_cast<double>(c.work.scanned_rows),
         "count");
  m->Add("work.partitioned_rows",
         static_cast<double>(c.work.partitioned_rows), "count");
  m->Add("work.join_probe_rows", static_cast<double>(c.work.join_probe_rows),
         "count");
  m->Add("work.agg_rows", static_cast<double>(c.work.agg_rows), "count");
  const double pass_s = Median(st.untraced_pass_s);
  m->Add("work.scan_rows_per_s",
         pass_s > 0 ? static_cast<double>(c.work.scanned_rows) / pass_s : 0,
         "1/s");

  m->Add("join_filter.rows_pruned", static_cast<double>(c.rows_pruned),
         "count");
  m->Add("mem.tile_pool_misses", static_cast<double>(c.tile_pool_misses),
         "count");
  m->Add("mem.arena_bytes", static_cast<double>(c.arena_bytes), "bytes");

  const WallSummary wall = SummarizeWall(st);
  m->Add("wall.qps", wall.qps, "1/s");
  m->Add("wall.latency_p50_ms", wall.p50_ms, "ms");
  m->Add("wall.query_geomean_ms", wall.geomean_ms, "ms");
  m->Add("warmup.first_pass_ms", warmup_ms, "ms");
  const double traced_per_pass =
      st.traced_passes > 0 ? st.traced_s / static_cast<double>(st.traced_passes)
                           : 0;
  const double untraced_per_pass =
      st.untraced_passes > 0
          ? st.untraced_s / static_cast<double>(st.untraced_passes)
          : 0;
  m->Add("trace.overhead_share",
         untraced_per_pass > 0 ? traced_per_pass / untraced_per_pass - 1 : 0,
         "share");
  const double per_query = traced_queries > 0 ? 1.0 / traced_queries : 0;
  m->Add("trace.query_ms", query_ms * per_query, "ms");
  for (const char* layer : {"bench", "tpch", "hostdb", "qcomp", "engine"}) {
    auto it = self_ms.find(layer);
    m->Add(std::string("self_ms.") + layer,
           it == self_ms.end() ? 0 : it->second * per_query, "ms");
  }
  m->Add("fallback_share", st.first_traced.fragments.FallbackShare(), "share");
  m->Add("failed_share", st.ops.FailedShare(), "share");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "traced queries %" PRIu64 ": %.3f ms/query, layer self "
                "times sum to %.3f ms/query",
                traced_queries, query_ms * per_query, self_total * per_query);
  *trace_summary = buf;
}

// Chrome trace-event JSON of the traced passes (loads in Perfetto).
bool WriteTrace(const Tracer& tr, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  const auto& spans = tr.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    JsonObject args;
    args.Num("id", static_cast<double>(i));
    args.Num("parent", s.parent);
    args.Num("query", s.query);
    if (*s.label) args.Str("label", s.label);
    JsonObject ev;
    ev.Str("name", s.name);
    ev.Str("cat", LayerOf(s.name));
    ev.Str("ph", "X");
    ev.Num("ts", s.start_ms * 1e3);
    ev.Num("dur", (s.end_ms - s.start_ms) * 1e3);
    ev.Num("pid", 1);
    ev.Num("tid", 1);
    ev.Raw("args", args.str());
    out << ev.str() << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Set-up ------------------------------------------------------------

// One set-up: generate, create, load, and one warm-up pass whose engine
// counters land in `warm`.
Status SetUp(RunState& st, SetupTimes* t,
             std::map<std::string, EngineCounters>* warm) {
  RAPID_RETURN_NOT_OK(BuildDb(st.wl->scale_factor, st.seed, &st.db, t));
  const auto start = Clock::now();
  for (const tpch::TpchQuery& q : st.queries) {
    PassStats stats;
    Result<core::ColumnSet> rows = RunQuery(st.db, q, nullptr, &stats);
    RAPID_RETURN_NOT_OK(rows.status());
    (*warm)[q.name] = stats.engine;
  }
  t->warmup_s = SecondsSince(start);
  return Status::OK();
}

// A set-up repeat that is timed but not kept, run in a child process so
// that this process's memory high-water mark (peak_rss_mb) covers only
// the set-up it measures with. Must run before this process starts any
// thread (an engine's DPU starts its worker pool).
Status SetUpInChild(RunState& st, SetupTimes* t) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    std::map<std::string, EngineCounters> warm;
    SetupTimes child;
    const Status s = SetUp(st, &child, &warm);
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
    const bool sent =
        s.ok() && write(fds[1], &child, sizeof child) == sizeof child;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  size_t got = 0;
  auto* bytes = reinterpret_cast<char*>(t);
  while (got < sizeof *t) {
    const ssize_t n = read(fds[0], bytes + got, sizeof *t - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof *t || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("set-up in child process failed");
  }
  return Status::OK();
}

// ---- Main --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v);
    } else if (key == "--commit") {
      a->commit = v;
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rapid_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--trace-out <file>]\n");
    return 2;
  }
  RunState st;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) st.wl = &w;
  }
  if (st.wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (TraceModeActive() != TraceMode::kOff) {
    // End-to-end numbers are defined with the engine's tracing off, and
    // the traced run records its own spans; refuse either way.
    std::fprintf(stderr,
                 "refusing to run: engine tracing is on (RAPID_TRACE=%s); "
                 "unset RAPID_TRACE\n",
                 TraceModeName(TraceModeActive()));
    return 2;
  }
  st.seed = args.seed;
  for (const std::string& name : st.wl->queries) {
    Result<tpch::TpchQuery> q = tpch::BuildQuery(name);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 2;
    }
    st.queries.push_back(std::move(q.value()));
  }

  // Set-up, several times; the last one, in this process, is the
  // database the loop measures.
  std::vector<double> setup_s;
  std::vector<SetupTimes> setups;
  std::map<std::string, EngineCounters> warm;  // per query, last warm-up
  for (int r = 0; r < kSetupRepeats; ++r) {
    SetupTimes t;
    const Status s = r + 1 == kSetupRepeats ? SetUp(st, &t, &warm)
                                            : SetUpInChild(st, &t);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setups.push_back(t);
    setup_s.push_back(t.total_s());
    std::fprintf(stderr,
                 "set-up %d: %.3f s (generate %.3f, create %.3f, load %.3f, "
                 "warm-up %.3f)\n",
                 r, t.total_s(), t.generate_s, t.create_s, t.load_rapid_s,
                 t.warmup_s);
  }
  SetupTimes setup_median;
  {
    std::vector<double> g, c, l, w;
    for (const SetupTimes& t : setups) {
      g.push_back(t.generate_s);
      c.push_back(t.create_s);
      l.push_back(t.load_rapid_s);
      w.push_back(t.warmup_s);
    }
    setup_median = {Median(g), Median(c), Median(l), Median(w)};
  }
  st.lineitem_rows = st.db.host->GetTable("lineitem")->num_rows();

  MeasureLoop(st, args.seconds, args.trace == 1);

  Metrics m;
  std::string trace_summary;
  if (args.trace == 0) {
    AddEndToEnd(st, setup_s, warm, &m);
  } else {
    AddPerLayer(st, setup_median, setup_median.warmup_s * 1e3, &m,
                &trace_summary);
    if (!args.trace_out.empty() && !WriteTrace(st.tracer, args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  uint64_t samples = 0;
  for (const auto& [name, v] : st.latency_ms) samples += v.size();
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %" PRIu64 " operations, %" PRIu64
               " failed, %" PRIu64 " untraced query samples over %" PRIu64
               " passes%s%s\n",
               st.wl->name, st.seed, st.ops.attempted, st.ops.failed(),
               samples, st.untraced_passes,
               trace_summary.empty() ? "" : "; ", trace_summary.c_str());

  for (const auto& [name, v] : st.latency_ms) {
    std::fprintf(stderr, "  %-4s n=%zu p10 %.2f ms  p50 %.2f ms  p90 %.2f ms\n",
                 name.c_str(), v.size(), Percentile(v, 0.1), Median(v),
                 Percentile(v, 0.9));
  }
  JsonObject detail;
  detail.Str("workload", st.wl->name);
  detail.Raw("settings", SettingsJson(st, args.commit, args.trace == 1));
  const WallSummary wall = SummarizeWall(st);
  JsonObject wall_json;
  wall_json.Str("clock", "host wall, untraced passes");
  wall_json.Num("samples", static_cast<double>(wall.samples));
  wall_json.Num("qps", wall.qps);
  wall_json.Num("latency_p50_ms", wall.p50_ms);
  if (wall.p90_ms >= 0) {
    wall_json.Num("latency_p90_ms", wall.p90_ms);
  } else {
    wall_json.Raw("latency_p90_ms", "null");
  }
  wall_json.Num("query_geomean_ms", wall.geomean_ms);
  wall_json.Num("reference_loop_ms", Median(st.ref_ms));
  detail.Raw("wall", wall_json.str());
  detail.Num("untraced_passes", static_cast<double>(st.untraced_passes));
  detail.Num("traced_passes", static_cast<double>(st.traced_passes));
  detail.Num("errors", static_cast<double>(st.ops.errors));
  detail.Num("mismatches", static_cast<double>(st.ops.mismatches));
  JsonObject wrapped;
  wrapped.Raw("detail", detail.str());
  std::printf("%s\n", wrapped.str().c_str());

  const bool correct = st.ops.failed() == 0;
  JsonObject result;
  result.Raw("correct", correct ? "true" : "false");
  result.Num("attempted", static_cast<double>(st.ops.attempted));
  result.Num("failed", static_cast<double>(st.ops.failed()));
  result.Raw("metrics", m.obj.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rapid::e2e

int main(int argc, char** argv) { return rapid::e2e::Main(argc, argv); }
