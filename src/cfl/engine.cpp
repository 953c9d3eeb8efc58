#include "cfl/engine.hpp"

#include <algorithm>
#include <chrono>

#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace parcfl::cfl {

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kSequential: return "SeqCFL";
    case Mode::kNaive: return "ParCFL_naive";
    case Mode::kDataSharing: return "ParCFL_D";
    case Mode::kDataSharingScheduling: return "ParCFL_DQ";
  }
  return "?";
}

std::uint64_t EngineResult::makespan_steps() const {
  std::uint64_t best = 0;
  for (std::uint64_t t : per_thread_traversed) best = std::max(best, t);
  return best;
}

namespace {

// The batch body shared by Engine::run (fresh solvers, one-shot pool) and
// BatchRunner::run (warm solvers, persistent pool). All counters in the
// result are deltas from each solver's state on entry, so warm solvers may
// accumulate across batches while every EngineResult stays per-batch.
// `active_workers` caps pool wakeups for batches smaller than the pool.
EngineResult run_batch(const EngineOptions& options, Schedule schedule,
                       double schedule_seconds,
                       std::span<const std::uint64_t> budgets,
                       std::span<const QueryKind> kinds,
                       std::span<const std::unique_ptr<Solver>> solvers,
                       std::span<detail::WorkerScratch> scratch,
                       support::ThreadPool* pool, unsigned active_workers,
                       const ContextTable& contexts, const JmpStore& store) {
  EngineResult result;
  result.schedule_seconds = schedule_seconds;
  const bool scheduling = options.mode == Mode::kDataSharingScheduling;
  result.mean_group_size = scheduling ? schedule.mean_group_size : 0.0;
  result.group_count = scheduling ? schedule.group_count : 0;

  const std::size_t workers = solvers.size();
  // Cache-line padded: run_unit reads its own worker's baseline entry while
  // neighbours read theirs, and unpadded QueryCounters structs would sit
  // several to a line in this contiguous vector.
  struct alignas(64) PaddedCounters {
    support::QueryCounters counters;
  };
  std::vector<PaddedCounters> baseline(workers);
  for (std::size_t t = 0; t < workers; ++t)
    baseline[t].counters = solvers[t]->counters();

  result.outcomes.resize(schedule.ordered.size());
  if (options.collect_objects) result.objects.resize(schedule.ordered.size());

  // Per-query timing only when a slow-query sink is armed: two clock reads
  // per query are cheap but not free, and most runs are benchmarks.
  const bool slow_log =
      options.slow_query_ms > 0.0 && options.slow_query_sink != nullptr;

  support::WallTimer run_timer;
  auto run_unit = [&](unsigned worker, std::uint64_t unit_index) {
    Solver& solver = *solvers[worker];
    detail::WorkerScratch& ws = scratch[worker];
    const auto [begin, end] = schedule.units[unit_index];
    for (std::uint32_t i = begin; i < end; ++i) {
      const pag::NodeId var = schedule.ordered[i];
      const QueryKind kind =
          kinds.empty() ? QueryKind::kPointsTo : kinds[schedule.source_index[i]];
      if (!budgets.empty())
        solver.set_query_budget(budgets[schedule.source_index[i]]);
      const std::uint64_t charged_before = solver.counters().charged_steps;
      std::chrono::steady_clock::time_point q0;
      if (slow_log) q0 = std::chrono::steady_clock::now();
      switch (kind) {
        case QueryKind::kPointsTo:
          solver.points_to(var, ws.qr);
          break;
        case QueryKind::kTaint:
          solver.taint(var, ws.qr);
          break;
        case QueryKind::kDepends:
          solver.depends(var, ws.qr);
          break;
      }
      const std::uint64_t charged =
          solver.counters().charged_steps - charged_before;
      if (slow_log) {
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - q0)
                              .count();
        if (ms >= options.slow_query_ms) {
          SlowQueryRecord record;
          record.var = var;
          record.latency_ms = ms;
          record.status = ws.qr.status;
          record.charged_steps = charged;
          if (const obs::TraceRing* ring = solver.trace())
            record.trace_jsonl = ring->to_jsonl();
          options.slow_query_sink(record);
        }
      }
      ws.qr.nodes_into(ws.nodes);
      result.outcomes[i] = QueryOutcome{
          var, ws.qr.status, static_cast<std::uint32_t>(ws.nodes.size()),
          charged};
      if (options.collect_objects) result.objects[i] = ws.nodes;
    }
  };

  if (active_workers <= 1 || pool == nullptr) {
    // Run inline: the sequential baseline must not pay thread-pool costs.
    for (std::uint64_t u = 0; u < schedule.units.size(); ++u) run_unit(0, u);
  } else {
    pool->parallel_for(schedule.units.size(), run_unit, active_workers);
  }
  result.wall_seconds = run_timer.seconds();

  // Restore the default budget so a later budget-less batch is unaffected.
  if (!budgets.empty())
    for (const auto& solver : solvers) solver->set_query_budget(0);

  result.per_thread_traversed.resize(workers, 0);
  for (std::size_t t = 0; t < workers; ++t) {
    const support::QueryCounters delta =
        solvers[t]->counters().since(baseline[t].counters);
    result.per_thread_traversed[t] = delta.traversed_steps;
    result.totals.merge(delta);
  }
  result.source_index = std::move(schedule.source_index);
  result.jmp_stats = store.stats();
  result.jmp_store_bytes = store.memory_bytes();
  result.context_count = contexts.size();
  return result;
}

// One solver per worker over the shared state, each with its own trace ring
// when tracing is on (`rings` must outlive the solvers' use of them).
void add_solvers(const pag::Pag& pag, const EngineOptions& options,
                 unsigned threads, ContextTable& contexts, JmpStore& store,
                 std::vector<std::unique_ptr<Solver>>& solvers,
                 std::vector<std::unique_ptr<obs::TraceRing>>& rings) {
  SolverOptions solver_options = options.solver;
  solver_options.data_sharing = options.mode == Mode::kDataSharing ||
                                options.mode == Mode::kDataSharingScheduling;
  solvers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    solvers.push_back(std::make_unique<Solver>(
        pag, contexts, solver_options.data_sharing ? &store : nullptr,
        solver_options));
    if (solver_options.trace_level > 0) {
      rings.push_back(std::make_unique<obs::TraceRing>());
      solvers.back()->set_trace(rings.back().get());
    }
  }
}

}  // namespace

Engine::Engine(const pag::Pag& pag, const EngineOptions& options)
    : pag_(pag), options_(options) {
  if (options_.mode == Mode::kSequential) options_.threads = 1;
  PARCFL_CHECK(options_.threads >= 1);
}

EngineResult Engine::run(std::span<const pag::NodeId> queries,
                         std::span<const QueryKind> kinds) {
  ContextTable contexts;
  JmpStore store;
  return run(queries, contexts, store, kinds);
}

EngineResult Engine::run(std::span<const pag::NodeId> queries,
                         ContextTable& contexts, JmpStore& store,
                         std::span<const QueryKind> kinds) {
  const bool scheduling = options_.mode == Mode::kDataSharingScheduling;

  // Cold by design: every run builds its own schedule plan, so
  // schedule_seconds is the paper's per-batch scheduling cost (Table I,
  // Fig. 5). BatchRunner keeps its plan across batches instead.
  support::WallTimer schedule_timer;
  Schedule schedule =
      scheduling ? schedule_queries(pag_, queries) : identity_schedule(queries);
  const double schedule_seconds = schedule_timer.seconds();

  // A solver (and a worker) beyond one-per-unit can never run a query; don't
  // pay its construction or thread start-up cost.
  const unsigned threads = static_cast<unsigned>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(options_.threads, schedule.units.size())));
  std::vector<std::unique_ptr<Solver>> solvers;
  std::vector<std::unique_ptr<obs::TraceRing>> rings;  // outlives run_batch
  add_solvers(pag_, options_, threads, contexts, store, solvers, rings);
  std::vector<detail::WorkerScratch> scratch(threads);

  std::unique_ptr<support::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<support::ThreadPool>(threads);
  return run_batch(options_, std::move(schedule), schedule_seconds, {}, kinds,
                   solvers, scratch, pool.get(), threads, contexts, store);
}

BatchRunner::BatchRunner(const EngineOptions& options, ContextTable& contexts,
                         JmpStore& store)
    : options_(options), store_(store), contexts_(contexts) {
  if (options_.mode == Mode::kSequential) options_.threads = 1;
  PARCFL_CHECK(options_.threads >= 1);
  scratch_.resize(options_.threads);
  if (options_.threads > 1)
    pool_ = std::make_unique<support::ThreadPool>(options_.threads);
}

BatchRunner::~BatchRunner() = default;

EngineResult BatchRunner::run(const pag::Pag& pag,
                              std::span<const pag::NodeId> queries,
                              std::span<const std::uint64_t> budgets,
                              std::span<const QueryKind> kinds) {
  PARCFL_CHECK_MSG(budgets.empty() || budgets.size() == queries.size(),
                   "budgets must parallel queries");
  PARCFL_CHECK_MSG(kinds.empty() || kinds.size() == queries.size(),
                   "kinds must parallel queries");
  // Built at the first batch, once there is a graph to bind.
  if (solvers_.empty())
    add_solvers(pag, options_, options_.threads, contexts_, store_, solvers_,
                rings_);
  for (const auto& solver : solvers_) solver->rebind(pag);
  const bool scheduling = options_.mode == Mode::kDataSharingScheduling;
  support::WallTimer schedule_timer;
  if (scheduling && (!plan_ || !plan_->matches(pag))) {
    plan_ = SchedulePlan::build(pag);
    plan_builds_.fetch_add(1, std::memory_order_relaxed);
    plan_bytes_.store(plan_->memory_bytes(), std::memory_order_relaxed);
  }
  Schedule schedule =
      scheduling ? schedule_queries(*plan_, queries) : identity_schedule(queries);
  const double schedule_seconds = schedule_timer.seconds();
  const unsigned active = static_cast<unsigned>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(options_.threads, schedule.units.size())));
  return run_batch(options_, std::move(schedule), schedule_seconds, budgets,
                   kinds, solvers_, scratch_, pool_.get(), active, contexts_,
                   store_);
}

support::QueryCounters BatchRunner::lifetime_totals() const {
  support::QueryCounters totals;
  for (const auto& solver : solvers_) totals.merge(solver->counters());
  return totals;
}

}  // namespace parcfl::cfl
