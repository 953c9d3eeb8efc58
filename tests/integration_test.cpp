// End-to-end integration: full pipeline (generate -> lower -> collapse ->
// schedule -> parallel engine -> clients) on a mid-size workload, with the
// demand results spot-checked against Andersen and the text formats
// round-tripped along the way. This is the closest test to how the bench
// harnesses and a downstream user drive the library.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "parcfl.hpp"

namespace parcfl {
namespace {

using pag::NodeId;

TEST(Integration, FullPipelineEndToEnd) {
  // 1. Generate a container-heavy program and lower it.
  synth::GeneratorConfig cfg;
  cfg.seed = 20140901;  // ICPP'14
  cfg.app_methods = 25;
  cfg.library_methods = 35;
  cfg.containers = 4;
  cfg.container_use_blocks = 20;
  cfg.cast_weight = 0.05;
  const auto program = synth::generate(cfg);
  const auto lowered = frontend::lower(program);
  ASSERT_TRUE(pag::is_well_formed(lowered.pag));

  // 2. The PAG round-trips through the text format.
  const std::string text = pag::write_pag_string(lowered.pag);
  std::string io_error;
  const auto reparsed = pag::read_pag_string(text, &io_error);
  ASSERT_TRUE(reparsed.has_value()) << io_error;
  ASSERT_EQ(pag::write_pag_string(*reparsed), text);

  // 3. Collapse cycles, translate queries.
  const auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<NodeId> queries;
  for (const NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  ASSERT_GT(queries.size(), 100u);

  // 4. Parallel batch with scheduling + sharing, collecting results.
  cfl::EngineOptions options;
  options.mode = cfl::Mode::kDataSharingScheduling;
  options.threads = 8;
  options.solver.budget = 2'000'000;
  options.solver.tau_finished = 10;
  options.collect_objects = true;

  cfl::ContextTable contexts;
  cfl::JmpStore store;
  cfl::Engine engine(collapsed.pag, options);
  const auto result = engine.run(queries, contexts, store);
  EXPECT_EQ(result.totals.queries, queries.size());
  for (const auto& qo : result.outcomes)
    EXPECT_EQ(qo.status, cfl::QueryStatus::kComplete);

  // 5. Spot-check a sample against Andersen (CS ⊆ CI refinement).
  const auto andersen = andersen::solve(collapsed.pag);
  const auto table = clients::PointsToTable::from_engine_result(result);
  std::size_t strictly_more_precise = 0;
  for (std::size_t i = 0; i < queries.size(); i += 7) {
    const NodeId v = queries[i];
    const auto got = table.points_to(v);
    const auto ci = andersen.points_to(v);
    for (const NodeId o : got)
      ASSERT_TRUE(std::binary_search(ci.begin(), ci.end(), o.value()))
          << "CS result exceeds Andersen at var " << v.value();
    if (got.size() < ci.size()) ++strictly_more_precise;
  }
  // Context-sensitivity must actually buy precision somewhere on a
  // container-heavy workload.
  EXPECT_GT(strictly_more_precise, 0u);

  // 6. Clients run over the same table.
  const auto classes = table.alias_classes();
  std::size_t member_total = 0;
  for (const auto& c : classes) member_total += c.size();
  EXPECT_EQ(member_total, queries.size());

  const auto casts = clients::check_casts(program, lowered, collapsed.pag, table,
                                          collapsed.representative);
  EXPECT_EQ(casts.size(), lowered.casts.size());

  const clients::ModRefAnalysis modref(collapsed.pag, table);
  (void)modref;

  // 7. Sharing state persists and warm-starts an equivalent second batch.
  const std::string state_path =
      testing::TempDir() + "integration_full_pipeline.state";
  std::string persist_error;
  ASSERT_TRUE(cfl::save_sharing_state_file_v3(state_path, collapsed.pag,
                                              contexts, store, &persist_error))
      << persist_error;

  cfl::ContextTable warm_contexts;
  cfl::JmpStore warm_store;
  ASSERT_TRUE(cfl::load_sharing_state_file_v3(
      state_path, collapsed.pag, warm_contexts, warm_store,
      cfl::StateLoadMode::kAuto, &persist_error))
      << persist_error;
  std::remove(state_path.c_str());

  const auto warm = engine.run(queries, warm_contexts, warm_store);
  EXPECT_LT(warm.totals.traversed_steps, result.totals.traversed_steps);
  const auto warm_table = clients::PointsToTable::from_engine_result(warm);
  for (std::size_t i = 0; i < queries.size(); i += 11) {
    const auto a = table.points_to(queries[i]);
    const auto b = warm_table.points_to(queries[i]);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "warm-start changed the answer at var " << queries[i].value();
  }
}

TEST(Integration, SequentialAndParallelProduceIdenticalTables) {
  synth::GeneratorConfig cfg;
  cfg.seed = 4242;
  cfg.app_methods = 15;
  cfg.library_methods = 20;
  const auto lowered = frontend::lower(synth::generate(cfg));
  const auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<NodeId> queries;
  for (const NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());

  auto run = [&](cfl::Mode mode, unsigned threads) {
    cfl::EngineOptions o;
    o.mode = mode;
    o.threads = threads;
    o.solver.budget = 2'000'000;
    o.collect_objects = true;
    cfl::Engine engine(collapsed.pag, o);
    return clients::PointsToTable::from_engine_result(engine.run(queries));
  };

  const auto seq = run(cfl::Mode::kSequential, 1);
  const auto par = run(cfl::Mode::kDataSharingScheduling, 8);
  for (const NodeId q : queries) {
    const auto a = seq.points_to(q);
    const auto b = par.points_to(q);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "var " << q.value();
  }
}

}  // namespace
}  // namespace parcfl
