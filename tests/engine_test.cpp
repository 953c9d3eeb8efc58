// Engine tests: the four paper configurations (SeqCFL, naive, D, DQ) agree on
// answers, statistics are consistent, and multi-threaded runs are safe.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cfl/engine.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "synth/generator.hpp"
#include "test_util.hpp"

namespace parcfl::cfl {
namespace {

using pag::NodeId;

struct Workload {
  pag::Pag pag;
  std::vector<NodeId> queries;
};

Workload container_workload(std::uint64_t seed = 21) {
  synth::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.app_methods = 12;
  cfg.library_methods = 12;
  cfg.containers = 3;
  cfg.container_use_blocks = 10;
  const auto lowered = frontend::lower(synth::generate(cfg));
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<NodeId> queries;
  for (const NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return Workload{std::move(collapsed.pag), std::move(queries)};
}

EngineOptions options_for(Mode mode, unsigned threads) {
  EngineOptions o;
  o.mode = mode;
  o.threads = threads;
  o.solver.budget = 200'000;
  // The paper's τF=100/τU=10000 are tuned for full-size benchmarks; scale
  // them down for these miniature workloads so sharing has something to do.
  o.solver.tau_finished = 10;
  o.solver.tau_unfinished = 100;
  return o;
}

std::map<std::uint32_t, std::uint32_t> outcome_map(const EngineResult& r) {
  std::map<std::uint32_t, std::uint32_t> m;
  for (const QueryOutcome& qo : r.outcomes) m[qo.var.value()] = qo.object_count;
  return m;
}

TEST(Engine, ModeNames) {
  EXPECT_STREQ(to_string(Mode::kSequential), "SeqCFL");
  EXPECT_STREQ(to_string(Mode::kNaive), "ParCFL_naive");
  EXPECT_STREQ(to_string(Mode::kDataSharing), "ParCFL_D");
  EXPECT_STREQ(to_string(Mode::kDataSharingScheduling), "ParCFL_DQ");
}

TEST(Engine, AllModesAgreeOnAnswers) {
  const auto w = container_workload();
  const auto seq = Engine(w.pag, options_for(Mode::kSequential, 1)).run(w.queries);

  for (const Mode mode :
       {Mode::kNaive, Mode::kDataSharing, Mode::kDataSharingScheduling}) {
    for (const unsigned threads : {1u, 4u}) {
      const auto result = Engine(w.pag, options_for(mode, threads)).run(w.queries);
      EXPECT_EQ(outcome_map(result), outcome_map(seq))
          << to_string(mode) << " threads=" << threads;
    }
  }
}

TEST(Engine, TotalsAreConsistent) {
  const auto w = container_workload();
  const auto r = Engine(w.pag, options_for(Mode::kDataSharing, 4)).run(w.queries);

  EXPECT_EQ(r.totals.queries, w.queries.size());
  EXPECT_EQ(r.outcomes.size(), w.queries.size());
  std::uint64_t sum = 0;
  for (const std::uint64_t t : r.per_thread_traversed) sum += t;
  EXPECT_EQ(sum, r.totals.traversed_steps);
  EXPECT_LE(r.makespan_steps(), r.totals.traversed_steps);
  EXPECT_GE(r.makespan_steps() * 4, r.totals.traversed_steps);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(Engine, SequentialBaselineNeverShares) {
  const auto w = container_workload();
  const auto r = Engine(w.pag, options_for(Mode::kSequential, 8)).run(w.queries);
  EXPECT_EQ(r.per_thread_traversed.size(), 1u);  // threads forced to 1
  EXPECT_EQ(r.totals.saved_steps, 0u);
  EXPECT_EQ(r.jmp_stats.total_jmps(), 0u);
  EXPECT_EQ(r.totals.charged_steps, r.totals.traversed_steps);
}

TEST(Engine, NaiveSharesNothingButRunsParallel) {
  const auto w = container_workload();
  const auto r = Engine(w.pag, options_for(Mode::kNaive, 4)).run(w.queries);
  EXPECT_EQ(r.totals.saved_steps, 0u);
  EXPECT_EQ(r.jmp_stats.total_jmps(), 0u);
  EXPECT_EQ(r.per_thread_traversed.size(), 4u);
}

TEST(Engine, DataSharingSavesSteps) {
  const auto w = container_workload();
  const auto seq = Engine(w.pag, options_for(Mode::kSequential, 1)).run(w.queries);
  const auto d = Engine(w.pag, options_for(Mode::kDataSharing, 1)).run(w.queries);

  // The container workload re-traverses shared heap paths across queries, so
  // sharing must reduce actual work below the sequential baseline.
  EXPECT_GT(d.totals.saved_steps, 0u);
  EXPECT_GT(d.jmp_stats.total_jmps(), 0u);
  EXPECT_LT(d.totals.traversed_steps, seq.totals.traversed_steps);
}

TEST(BatchRunner, SecondBatchAgainstWarmStoreTraversesStrictlyFewerSteps) {
  const auto w = container_workload();
  const EngineOptions o = options_for(Mode::kDataSharing, 4);
  ContextTable contexts;
  JmpStore store;
  BatchRunner runner(o, contexts, store);

  const auto first = runner.run(w.pag, w.queries);
  const auto second = runner.run(w.pag, w.queries);

  // Counters are per-batch deltas; both batches did answer every query.
  EXPECT_EQ(first.totals.queries, w.queries.size());
  EXPECT_EQ(second.totals.queries, w.queries.size());

  // The second batch rides the jmp shortcuts the first one published into
  // the shared store, so it must do strictly less real work.
  EXPECT_GT(first.totals.traversed_steps, 0u);
  EXPECT_LT(second.totals.traversed_steps, first.totals.traversed_steps);
  EXPECT_GT(second.totals.jmps_taken, 0u);

  // Same store, same answers.
  EXPECT_EQ(outcome_map(second), outcome_map(first));

  // Lifetime totals accumulate across both batches.
  const auto lifetime = runner.lifetime_totals();
  EXPECT_EQ(lifetime.traversed_steps,
            first.totals.traversed_steps + second.totals.traversed_steps);
}

TEST(Engine, SchedulingReportsGroupStats) {
  const auto w = container_workload();
  const auto dq =
      Engine(w.pag, options_for(Mode::kDataSharingScheduling, 2)).run(w.queries);
  EXPECT_GT(dq.group_count, 0u);
  EXPECT_GT(dq.mean_group_size, 0.0);
  // DQ schedules all queries exactly once.
  EXPECT_EQ(dq.outcomes.size(), w.queries.size());
  std::vector<std::uint32_t> got;
  for (const auto& qo : dq.outcomes) got.push_back(qo.var.value());
  std::sort(got.begin(), got.end());
  std::vector<std::uint32_t> want;
  for (const NodeId q : w.queries) want.push_back(q.value());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(Engine, SingleThreadSequentialIsDeterministic) {
  const auto w = container_workload();
  const auto a = Engine(w.pag, options_for(Mode::kSequential, 1)).run(w.queries);
  const auto b = Engine(w.pag, options_for(Mode::kSequential, 1)).run(w.queries);
  EXPECT_EQ(outcome_map(a), outcome_map(b));
  EXPECT_EQ(a.totals.traversed_steps, b.totals.traversed_steps);
  EXPECT_EQ(a.totals.charged_steps, b.totals.charged_steps);
}

TEST(Engine, ManyThreadsMoreThanUnitsIsSafe) {
  const auto w = container_workload();
  std::vector<NodeId> few(w.queries.begin(),
                          w.queries.begin() + std::min<std::size_t>(3, w.queries.size()));
  const auto r = Engine(w.pag, options_for(Mode::kDataSharing, 16)).run(few);
  EXPECT_EQ(r.totals.queries, few.size());
}

TEST(Engine, EmptyQueryListIsFine) {
  const auto w = container_workload();
  const auto r = Engine(w.pag, options_for(Mode::kDataSharingScheduling, 4)).run({});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.totals.queries, 0u);
}

TEST(Engine, ContextCountReported) {
  const auto w = container_workload();
  const auto r = Engine(w.pag, options_for(Mode::kSequential, 1)).run(w.queries);
  EXPECT_GE(r.context_count, 1u);
}

}  // namespace
}  // namespace parcfl::cfl
