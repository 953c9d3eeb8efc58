#pragma once
// Parallel query engine (paper §III). Queries arrive in batch mode; work
// units are distributed to worker threads from a shared cursor. Four
// configurations reproduce the paper's evaluation axes:
//
//   kSequential            SeqCFL        1 thread, no sharing, no scheduling
//   kNaive                 ParCFL_naive  N threads, shared work list only (§III-A)
//   kDataSharing           ParCFL_D      + jmp-edge data sharing (§III-B)
//   kDataSharingScheduling ParCFL_DQ     + query scheduling (§III-C)
//
// Because this reproduction may run on machines with fewer cores than the
// paper's 16, the engine reports, besides wall-clock time, per-thread
// *traversed step* counts. The simulated parallel makespan
// (max over threads of traversed steps) is machine-independent and captures
// exactly the algorithmic work reduction responsible for the paper's
// superlinear speedups; see DESIGN.md §1.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cfl/context.hpp"
#include "cfl/jmp_store.hpp"
#include "cfl/scheduler.hpp"
#include "cfl/solver.hpp"
#include "pag/pag.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace parcfl::support {
class ThreadPool;
}

namespace parcfl::cfl {

enum class Mode : std::uint8_t {
  kSequential,
  kNaive,
  kDataSharing,
  kDataSharingScheduling,
};

const char* to_string(Mode mode);

/// One query that crossed the engine's slow-query threshold, handed to
/// EngineOptions::slow_query_sink with its trace (when tracing is attached).
struct SlowQueryRecord {
  pag::NodeId var = pag::NodeId::invalid();
  double latency_ms = 0.0;
  QueryStatus status = QueryStatus::kComplete;
  std::uint64_t charged_steps = 0;
  std::string trace_jsonl;  // empty when solver.trace_level == 0
};

struct EngineOptions {
  Mode mode = Mode::kSequential;
  unsigned threads = 1;  // ignored for kSequential
  SolverOptions solver;  // budget, sensitivity, taus (sharing flag is derived)
  bool collect_objects = false;  // retain each query's object set in the
                                 // result (for clients::PointsToTable)
  /// Slow-query observability: when > 0, every query is individually timed
  /// and those at or above the threshold are handed to `slow_query_sink`
  /// from the worker thread that ran them — the sink must be thread-safe.
  /// 0 (the default) skips the per-query clock reads entirely.
  double slow_query_ms = 0.0;
  std::function<void(const SlowQueryRecord&)> slow_query_sink;
};

struct QueryOutcome {
  pag::NodeId var;
  QueryStatus status;
  std::uint32_t object_count;    // distinct objects found (possibly partial)
  std::uint64_t charged_steps;   // budget consumed by this query
};

struct EngineResult {
  std::vector<QueryOutcome> outcomes;        // in scheduled issue order
  /// outcomes[i] answers queries[source_index[i]] — the schedule's
  /// permutation, for callers (parcfl::service) that must route each outcome
  /// back to the request that asked for it.
  std::vector<std::uint32_t> source_index;
  /// Per-outcome sorted object sets; filled when collect_objects was set.
  std::vector<std::vector<pag::NodeId>> objects;
  support::QueryCounters totals;             // merged over all workers
  std::vector<std::uint64_t> per_thread_traversed;
  double wall_seconds = 0.0;
  double schedule_seconds = 0.0;
  double mean_group_size = 0.0;  // Sg (0 unless scheduling ran)
  std::uint32_t group_count = 0;
  JmpStore::Stats jmp_stats;
  std::uint64_t jmp_store_bytes = 0;
  std::uint64_t context_count = 0;

  /// Simulated parallel completion time in traversal steps.
  std::uint64_t makespan_steps() const;
};

/// One engine per (PAG, options); each run() uses a fresh context table and
/// jmp store, so runs are independent measurements.
class Engine {
 public:
  Engine(const pag::Pag& pag, const EngineOptions& options);

  /// Answer every query; `queries` are PAG variable node ids. Uses a fresh
  /// context table and jmp store, so runs are independent measurements.
  /// `kinds`, when non-empty, parallels `queries` and routes each one to its
  /// query kind (empty = all points-to).
  EngineResult run(std::span<const pag::NodeId> queries,
                   std::span<const QueryKind> kinds = {});

  /// Same, but over caller-provided shared state — e.g. warm-started from
  /// cfl/persist.hpp, or carried across multiple batches.
  EngineResult run(std::span<const pag::NodeId> queries, ContextTable& contexts,
                   JmpStore& store, std::span<const QueryKind> kinds = {});

  const EngineOptions& options() const { return options_; }

 private:
  const pag::Pag& pag_;
  EngineOptions options_;
};

namespace detail {
/// Per-worker query scratch, reused (capacity retained) across units — and,
/// in a BatchRunner, across whole batches. Cache-line padded: adjacent
/// workers' scratch sits in one contiguous vector and is written on every
/// query, so unpadded neighbours would false-share.
struct alignas(64) WorkerScratch {
  QueryResult qr;
  std::vector<pag::NodeId> nodes;
};
}  // namespace detail

/// Long-lived batch runner — the engine core of parcfl::service. Binds one
/// engine configuration to shared mutable state (context table + jmp store)
/// and keeps a warm solver per worker plus a persistent thread pool across
/// run() calls: a query stream pays solver construction, flat-table growth
/// and thread start-up once, and every batch after the first rides the jmp
/// shortcuts minted by its predecessors.
///
/// The graph is an argument of each run(): the warm solvers are rebound to
/// it per batch, so batches may walk successive graph revisions as long as
/// the shared store was kept sound across each change (cfl/invalidate.hpp).
///
/// Counters in each EngineResult are per-batch deltas (warm solvers
/// accumulate internally); jmp/context statistics are store-wide absolutes.
///
/// run() is not internally synchronised — callers serialise batches
/// (service::Session holds the batch lock). The shared store/context table
/// may be concurrently read or extended by other threads (live save/load);
/// their own concurrency contracts cover that.
class BatchRunner {
 public:
  BatchRunner(const EngineOptions& options, ContextTable& contexts,
              JmpStore& store);
  ~BatchRunner();

  /// Answer one micro-batch over `pag` against the warm shared state.
  /// `budgets`, when non-empty, parallels `queries`: each entry caps that
  /// query's charged-step budget at min(entry, options.solver.budget); 0
  /// keeps the engine default (per-request admission control). `kinds`, when
  /// non-empty, also parallels `queries` and routes each one to its query
  /// kind (empty = all points-to).
  EngineResult run(const pag::Pag& pag, std::span<const pag::NodeId> queries,
                   std::span<const std::uint64_t> budgets = {},
                   std::span<const QueryKind> kinds = {});

  const EngineOptions& options() const { return options_; }

  /// Cumulative counters over every batch run so far (merged over workers).
  support::QueryCounters lifetime_totals() const;

  /// Schedule plans built so far. ParCFL_DQ builds one at the first batch on
  /// each graph revision (revision() and node count, which pag::apply_delta
  /// changes) and reuses it for every later batch on that revision. Safe to
  /// read concurrently with run().
  std::uint64_t schedule_plan_builds() const {
    return plan_builds_.load(std::memory_order_relaxed);
  }
  /// Heap bytes of the held schedule plan (0 before the first DQ batch).
  /// Safe to read concurrently with run().
  std::uint64_t schedule_plan_bytes() const {
    return plan_bytes_.load(std::memory_order_relaxed);
  }

 private:
  EngineOptions options_;
  JmpStore& store_;
  ContextTable& contexts_;
  std::vector<std::unique_ptr<Solver>> solvers_;  // empty until the first run
  std::vector<detail::WorkerScratch> scratch_;
  /// One ring per warm solver when solver.trace_level > 0 (same lifetime, so
  /// the slow-query hook can export a query's trace at any point).
  std::vector<std::unique_ptr<obs::TraceRing>> rings_;
  std::unique_ptr<support::ThreadPool> pool_;  // null when threads == 1
  /// DQ schedule plan of the graph revision it is stamped with; rebuilt at
  /// the first batch on another revision.
  std::optional<SchedulePlan> plan_;
  std::atomic<std::uint64_t> plan_builds_{0};
  std::atomic<std::uint64_t> plan_bytes_{0};
};

}  // namespace parcfl::cfl
