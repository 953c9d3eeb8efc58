// Property-based validation of the demand solver against two independent
// ground truths, over many random layered PAGs (see test_util.hpp for why
// layering bounds realisable context nesting):
//
//  1. ExactOracle (configuration-space fixpoint of LPT).
//  2. Andersen's analysis — must equal the demand solver (and the oracle)
//     exactly in the context-insensitive projection.
//  3. brute_force_flows_to (path enumeration + Earley on LFS) cross-checks
//     the ExactOracle itself on the smallest graphs.
//
// Also checked per graph: context-sensitive ⊆ context-insensitive results,
// and data sharing never changes any answer (budget semantics preserved).

#include <gtest/gtest.h>

#include <algorithm>

#include "andersen/andersen.hpp"
#include "cfl/jmp_store.hpp"
#include "cfl/solver.hpp"
#include "oracle/earley.hpp"
#include "oracle/oracle.hpp"
#include "test_util.hpp"

namespace parcfl {
namespace {

using cfl::ContextTable;
using cfl::QueryStatus;
using cfl::Solver;
using cfl::SolverOptions;
using pag::NodeId;
using test::RandomPagConfig;

SolverOptions opts(bool cs) {
  SolverOptions o;
  o.budget = 50'000'000;
  o.context_sensitive = cs;
  o.max_fixpoint_iters = 64;
  return o;
}

std::vector<std::uint32_t> solver_pts(Solver& solver, NodeId v) {
  const auto r = solver.points_to(v);
  EXPECT_EQ(r.status, QueryStatus::kComplete);
  std::vector<std::uint32_t> out;
  for (const NodeId n : r.nodes()) out.push_back(n.value());
  return out;
}

std::vector<std::uint32_t> solver_flows(Solver& solver, NodeId o) {
  const auto r = solver.flows_to(o);
  EXPECT_EQ(r.status, QueryStatus::kComplete);
  std::vector<std::uint32_t> out;
  for (const NodeId n : r.nodes()) out.push_back(n.value());
  return out;
}

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertyTest, SolverMatchesExactOracleContextSensitive) {
  RandomPagConfig cfg;
  cfg.seed = GetParam();
  const auto pag = test::random_layered_pag(cfg);

  oracle::OracleOptions oo;
  const oracle::ExactOracle exact(pag, oo);

  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, opts(true));

  for (const NodeId v : test::all_variables(pag))
    EXPECT_EQ(solver_pts(solver, v), exact.points_to(v))
        << "seed " << cfg.seed << " var " << v.value();
  for (const NodeId o : test::all_objects(pag))
    EXPECT_EQ(solver_flows(solver, o), exact.flows_to(o))
        << "seed " << cfg.seed << " obj " << o.value();
}

TEST_P(PropertyTest, SolverMatchesExactOracleContextInsensitive) {
  RandomPagConfig cfg;
  cfg.seed = GetParam() + 1000;
  const auto pag = test::random_layered_pag(cfg);

  oracle::OracleOptions oo;
  oo.context_sensitive = false;
  const oracle::ExactOracle exact(pag, oo);

  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, opts(false));

  for (const NodeId v : test::all_variables(pag))
    EXPECT_EQ(solver_pts(solver, v), exact.points_to(v))
        << "seed " << cfg.seed << " var " << v.value();
}

TEST_P(PropertyTest, ContextInsensitiveEqualsAndersen) {
  RandomPagConfig cfg;
  cfg.seed = GetParam() + 2000;
  cfg.assign_edges = 6;
  cfg.heap_edge_pairs = 3;
  const auto pag = test::random_layered_pag(cfg);

  const auto andersen = andersen::solve(pag);
  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, opts(false));

  for (const NodeId v : test::all_variables(pag)) {
    const auto got = solver_pts(solver, v);
    const auto want = andersen.points_to(v);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "seed " << cfg.seed << " var " << v.value();
  }
}

TEST_P(PropertyTest, ContextSensitiveIsSubsetOfInsensitive) {
  RandomPagConfig cfg;
  cfg.seed = GetParam() + 3000;
  const auto pag = test::random_layered_pag(cfg);

  ContextTable c1, c2;
  Solver cs(pag, c1, nullptr, opts(true));
  Solver ci(pag, c2, nullptr, opts(false));

  for (const NodeId v : test::all_variables(pag)) {
    const auto a = solver_pts(cs, v);
    const auto b = solver_pts(ci, v);
    EXPECT_TRUE(std::includes(b.begin(), b.end(), a.begin(), a.end()))
        << "seed " << cfg.seed << " var " << v.value();
  }
}

TEST_P(PropertyTest, DataSharingPreservesAnswers) {
  RandomPagConfig cfg;
  cfg.seed = GetParam() + 4000;
  cfg.heap_edge_pairs = 4;
  const auto pag = test::random_layered_pag(cfg);

  ContextTable c1, c2;
  Solver plain(pag, c1, nullptr, opts(true));

  SolverOptions sharing_opts = opts(true);
  sharing_opts.data_sharing = true;
  sharing_opts.tau_finished = 0;  // share aggressively to stress the machinery
  cfl::JmpStore store;
  Solver sharing(pag, c2, &store, sharing_opts);

  // Run the batch twice through the sharing solver so later queries actually
  // consume the jmp edges added by earlier ones.
  const auto vars = test::all_variables(pag);
  for (const NodeId v : vars) (void)sharing.points_to(v);
  for (const NodeId v : vars) {
    EXPECT_EQ(solver_pts(sharing, v), solver_pts(plain, v))
        << "seed " << cfg.seed << " var " << v.value();
  }
  // With zero taus on a heap-bearing graph, some jmp edges should exist.
  // (Not asserted per-seed: some graphs have no completed heap match.)
}

TEST_P(PropertyTest, BruteForceCrossChecksExactOracle) {
  RandomPagConfig cfg;  // keep tiny: path enumeration is exponential
  cfg.seed = GetParam() + 5000;
  cfg.layers = 2;
  cfg.vars_per_layer = 2;
  cfg.objects = 2;
  cfg.assign_edges = 2;
  cfg.param_ret_edges = 2;
  cfg.heap_edge_pairs = 1;
  cfg.globals = 1;
  const auto pag = test::random_layered_pag(cfg);

  const oracle::ExactOracle exact(pag);
  oracle::BruteForceOptions bf;
  bf.max_path_length = 10;
  bf.max_paths = 2'000'000;

  for (const NodeId o : test::all_objects(pag)) {
    const auto brute = oracle::brute_force_flows_to(pag, o, bf);
    const auto fix = exact.flows_to(o);
    // Soundness of the fixpoint oracle: everything a short path witnesses is
    // in the fixpoint (brute ⊆ fix), always.
    EXPECT_TRUE(
        std::includes(fix.begin(), fix.end(), brute.vars.begin(), brute.vars.end()))
        << "seed " << cfg.seed << " obj " << o.value();
    // Precision: when the enumeration completed, every fixpoint fact must be
    // witnessed by a path of bounded length (cyclic graphs may truncate).
    if (!brute.truncated) {
      EXPECT_EQ(brute.vars, fix) << "seed " << cfg.seed << " obj " << o.value();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range<std::uint64_t>(1, 41));

// Larger graphs, fewer seeds: stress the fixpoint machinery harder.
class BigPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigPropertyTest, SolverMatchesExactOracleOnDenserGraphs) {
  RandomPagConfig cfg;
  cfg.seed = GetParam();
  cfg.layers = 4;
  cfg.vars_per_layer = 4;
  cfg.objects = 5;
  cfg.assign_edges = 8;
  cfg.param_ret_edges = 8;
  cfg.heap_edge_pairs = 5;
  cfg.fields = 2;
  cfg.globals = 2;
  const auto pag = test::random_layered_pag(cfg);

  const oracle::ExactOracle exact(pag);
  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, opts(true));

  for (const NodeId v : test::all_variables(pag))
    EXPECT_EQ(solver_pts(solver, v), exact.points_to(v))
        << "seed " << cfg.seed << " var " << v.value();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigPropertyTest,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace parcfl
