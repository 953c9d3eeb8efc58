// Engine-level property suite over random synthetic workloads: all four
// paper configurations and every thread count must produce identical
// answers when the budget is ample, and their statistics must satisfy the
// structural invariants the benches rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "cfl/engine.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "pag/reduce.hpp"
#include "synth/generator.hpp"

namespace parcfl::cfl {
namespace {

using pag::NodeId;

struct Workload {
  pag::Pag pag;
  std::vector<NodeId> queries;
};

Workload make_workload(std::uint64_t seed) {
  synth::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.app_methods = 10 + seed % 7;
  cfg.library_methods = 10 + seed % 5;
  cfg.containers = 2 + seed % 3;
  cfg.container_use_blocks = 6 + seed % 8;
  const auto lowered = frontend::lower(synth::generate(cfg));
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<NodeId> queries;
  for (const NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return Workload{std::move(collapsed.pag), std::move(queries)};
}

EngineOptions opts(Mode mode, unsigned threads) {
  EngineOptions o;
  o.mode = mode;
  o.threads = threads;
  o.solver.budget = 5'000'000;
  o.solver.tau_finished = 5;
  o.solver.tau_unfinished = 50;
  o.collect_objects = true;
  return o;
}

std::map<std::uint32_t, std::vector<NodeId>> answer_map(const EngineResult& r) {
  std::map<std::uint32_t, std::vector<NodeId>> m;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i)
    m[r.outcomes[i].var.value()] = r.objects[i];
  return m;
}

class EnginePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnginePropertyTest, AllModesAndThreadCountsAgree) {
  const auto w = make_workload(GetParam());
  const auto seq = Engine(w.pag, opts(Mode::kSequential, 1)).run(w.queries);
  const auto want = answer_map(seq);

  // Every query completed (the budget is ample) — otherwise agreement is
  // only guaranteed per DESIGN.md's budget-accounting note.
  for (const auto& qo : seq.outcomes)
    ASSERT_EQ(qo.status, QueryStatus::kComplete);

  for (const Mode mode :
       {Mode::kNaive, Mode::kDataSharing, Mode::kDataSharingScheduling}) {
    for (const unsigned threads : {1u, 3u, 8u}) {
      const auto r = Engine(w.pag, opts(mode, threads)).run(w.queries);
      EXPECT_EQ(answer_map(r), want)
          << to_string(mode) << " threads=" << threads << " seed=" << GetParam();
    }
  }
}

TEST_P(EnginePropertyTest, StatisticsInvariants) {
  const auto w = make_workload(GetParam() + 50);
  const auto seq = Engine(w.pag, opts(Mode::kSequential, 1)).run(w.queries);
  const auto d = Engine(w.pag, opts(Mode::kDataSharing, 4)).run(w.queries);

  // Sequential: no sharing artefacts at all.
  EXPECT_EQ(seq.totals.saved_steps, 0u);
  EXPECT_EQ(seq.totals.jmps_taken, 0u);
  EXPECT_EQ(seq.jmp_stats.total_jmps(), 0u);
  EXPECT_EQ(seq.totals.charged_steps, seq.totals.traversed_steps);

  // Sharing: work never exceeds the sequential baseline's (the budget is
  // ample, so every traversal it skips is one the baseline performed).
  EXPECT_LE(d.totals.traversed_steps, seq.totals.traversed_steps);
  // jmps taken implies jmps added by someone.
  if (d.totals.jmps_taken > 0) {
    EXPECT_GT(d.jmp_stats.finished_edges, 0u);
  }
  // Per-thread accounting adds up.
  std::uint64_t sum = 0;
  for (const auto t : d.per_thread_traversed) sum += t;
  EXPECT_EQ(sum, d.totals.traversed_steps);
  // Outcome charges sum to the total charged steps.
  std::uint64_t charged = 0;
  for (const auto& qo : d.outcomes) charged += qo.charged_steps;
  EXPECT_EQ(charged, d.totals.charged_steps);
}

TEST_P(EnginePropertyTest, SchedulingIsAPermutation) {
  const auto w = make_workload(GetParam() + 100);
  const auto dq =
      Engine(w.pag, opts(Mode::kDataSharingScheduling, 2)).run(w.queries);
  std::vector<std::uint32_t> got;
  for (const auto& qo : dq.outcomes) got.push_back(qo.var.value());
  std::sort(got.begin(), got.end());
  std::vector<std::uint32_t> want;
  for (const NodeId q : w.queries) want.push_back(q.value());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_GT(dq.group_count, 0u);
}

TEST_P(EnginePropertyTest, TightBudgetStatusesAreConsistent) {
  const auto w = make_workload(GetParam() + 150);
  EngineOptions o = opts(Mode::kDataSharing, 2);
  o.solver.budget = 200;  // most interesting queries die
  const auto r = Engine(w.pag, o).run(w.queries);
  for (const auto& qo : r.outcomes) {
    // Status and charge must cohere: completion within budget, exhaustion at
    // or slightly above it (the final step overshoots by at most one
    // ReachableNodes charge), early termination strictly below.
    if (qo.status == QueryStatus::kComplete) {
      EXPECT_LE(qo.charged_steps, o.solver.budget);
    } else if (qo.status == QueryStatus::kOutOfBudget) {
      EXPECT_GT(qo.charged_steps, o.solver.budget / 2);
    } else {
      EXPECT_LE(qo.charged_steps, o.solver.budget);
    }
  }
}

// Metamorphic check for the pre-solve reduction (pag/reduce.hpp): dropping
// never-matchable parenthesis edges must leave every answer identical in all
// four engine configurations, both cold (fresh jmp state) and warm (second
// run over the state the cold run minted). The unreduced sequential run is
// the ground truth.
TEST_P(EnginePropertyTest, ReductionPreservesAnswersAllModesWarmAndCold) {
  const auto w = make_workload(GetParam() + 200);
  pag::ReduceStats stats;
  const pag::Pag reduced = pag::reduce_unmatched_parens(w.pag, &stats);
  ASSERT_EQ(reduced.node_count(), w.pag.node_count());
  ASSERT_EQ(reduced.edge_count(), stats.edges_after());

  const auto seq = Engine(w.pag, opts(Mode::kSequential, 1)).run(w.queries);
  const auto want = answer_map(seq);
  for (const auto& qo : seq.outcomes)
    ASSERT_EQ(qo.status, QueryStatus::kComplete);

  for (const Mode mode : {Mode::kSequential, Mode::kNaive, Mode::kDataSharing,
                          Mode::kDataSharingScheduling}) {
    Engine engine(reduced, opts(mode, 4));
    ContextTable contexts;
    JmpStore store;
    const auto cold = engine.run(w.queries, contexts, store);
    EXPECT_EQ(answer_map(cold), want)
        << "cold " << to_string(mode) << " seed=" << GetParam();
    const auto warm = engine.run(w.queries, contexts, store);
    EXPECT_EQ(answer_map(warm), want)
        << "warm " << to_string(mode) << " seed=" << GetParam();
  }

  // The whole point: the reduced graph is never more work. Sequential runs
  // are deterministic, so the comparison is exact, not statistical.
  const auto red_seq = Engine(reduced, opts(Mode::kSequential, 1)).run(w.queries);
  EXPECT_LE(red_seq.totals.traversed_steps, seq.totals.traversed_steps);
}

// Under a tight budget the reduction can only help: a query that completed
// on the faithful graph must still complete on the reduced one (with the
// same objects, for no more charge), because every removed edge was provably
// off all derivations — the traversal skips dead branches it used to pay for.
TEST_P(EnginePropertyTest, ReductionNeverHurtsBudgetedQueries) {
  const auto w = make_workload(GetParam() + 250);
  const pag::Pag reduced = pag::reduce_unmatched_parens(w.pag);

  EngineOptions o = opts(Mode::kSequential, 1);
  o.solver.budget = 300;  // most interesting queries die on the full graph
  const auto full = Engine(w.pag, o).run(w.queries);
  const auto red = Engine(reduced, o).run(w.queries);
  const auto full_answers = answer_map(full);
  const auto red_answers = answer_map(red);

  ASSERT_EQ(full.outcomes.size(), red.outcomes.size());
  for (std::size_t i = 0; i < full.outcomes.size(); ++i) {
    const auto& f = full.outcomes[i];
    const auto& r = red.outcomes[i];
    ASSERT_EQ(f.var, r.var);  // identity schedule: same order
    if (f.status != QueryStatus::kComplete) continue;
    EXPECT_EQ(r.status, QueryStatus::kComplete)
        << "var " << f.var.value() << " seed=" << GetParam();
    EXPECT_LE(r.charged_steps, f.charged_steps)
        << "var " << f.var.value() << " seed=" << GetParam();
    EXPECT_EQ(red_answers.at(r.var.value()), full_answers.at(f.var.value()))
        << "var " << f.var.value() << " seed=" << GetParam();
  }
}

// The flow kinds through every engine configuration: all-taint,
// all-depends and mixed batches must reproduce the sequential answers in all
// four modes, both cold (fresh jmp state) and warm (second run over the state
// the cold run minted). Taint/depends heap groups consume and publish
// pointer jmps, so this pins them sound against shared, warm state.
TEST_P(EnginePropertyTest, FlowKindsMatchSequentialAllModesWarmAndCold) {
  const auto w = make_workload(GetParam() + 300);
  const std::size_t n = w.queries.size();
  const std::vector<QueryKind> taint(n, QueryKind::kTaint);
  const std::vector<QueryKind> depends(n, QueryKind::kDepends);
  std::vector<QueryKind> interleaved;
  for (std::size_t i = 0; i < n; ++i)
    interleaved.push_back(std::array{QueryKind::kPointsTo, QueryKind::kTaint,
                                     QueryKind::kDepends}[i % 3]);
  const std::vector<QueryKind>& mixed = interleaved;

  for (const auto& [name, kinds] :
       {std::pair{"taint", &taint}, std::pair{"depends", &depends},
        std::pair{"mixed", &mixed}}) {
    const auto seq =
        Engine(w.pag, opts(Mode::kSequential, 1)).run(w.queries, *kinds);
    const auto want = answer_map(seq);
    for (const auto& qo : seq.outcomes)
      ASSERT_EQ(qo.status, QueryStatus::kComplete) << name;

    for (const Mode mode : {Mode::kSequential, Mode::kNaive, Mode::kDataSharing,
                            Mode::kDataSharingScheduling}) {
      Engine engine(w.pag, opts(mode, 4));
      ContextTable contexts;
      JmpStore store;
      const auto cold = engine.run(w.queries, contexts, store, *kinds);
      EXPECT_EQ(answer_map(cold), want)
          << name << " cold " << to_string(mode) << " seed=" << GetParam();
      const auto warm = engine.run(w.queries, contexts, store, *kinds);
      EXPECT_EQ(answer_map(warm), want)
          << name << " warm " << to_string(mode) << " seed=" << GetParam();
    }
  }
}

// Budget monotonicity for the flow kinds through the engine: a tighter
// budget yields a subset of the ample answer per query, and a query that
// completes under the tight budget found the full answer. Sequential mode
// keeps both runs deterministic.
TEST_P(EnginePropertyTest, FlowKindBudgetMonotonicity) {
  const auto w = make_workload(GetParam() + 350);
  EngineOptions ample = opts(Mode::kSequential, 1);
  EngineOptions tight = ample;
  tight.solver.budget = 300;

  for (const QueryKind kind : {QueryKind::kTaint, QueryKind::kDepends}) {
    const std::vector<QueryKind> kinds(w.queries.size(), kind);
    const auto full = Engine(w.pag, ample).run(w.queries, kinds);
    const auto cut = Engine(w.pag, tight).run(w.queries, kinds);
    ASSERT_EQ(cut.outcomes.size(), full.outcomes.size());
    for (std::size_t i = 0; i < cut.outcomes.size(); ++i) {
      const auto& qo = cut.outcomes[i];
      ASSERT_EQ(qo.var, full.outcomes[i].var);  // identity schedule
      ASSERT_EQ(full.outcomes[i].status, QueryStatus::kComplete);
      const auto& small = cut.objects[i];
      const auto& big = full.objects[i];
      EXPECT_TRUE(std::includes(big.begin(), big.end(), small.begin(), small.end()))
          << to_string(kind) << " var " << qo.var.value() << " seed=" << GetParam();
      if (qo.status == QueryStatus::kComplete) {
        EXPECT_EQ(small, big) << to_string(kind) << " var " << qo.var.value()
                              << " seed=" << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace parcfl::cfl
