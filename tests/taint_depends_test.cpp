// Oracle-differential validation of the taint / depends query kinds
// (DESIGN.md §15) against the grammar-generalised brute force
// (oracle/earley.hpp): path enumeration over the doubled graph, Earley
// parsing each label string under the LFS production set started at R
// (taint) / Rb (depends).
//
// Methodology mirrors property_test.cpp's BruteForceCrossChecksExactOracle:
// graphs stay tiny (enumeration is exponential), brute ⊆ solver always — a
// short witnessed path is a real flow — and equality holds whenever the
// enumeration did not truncate and the solver completed within budget.
//
// Also here: tight-budget subset/monotonicity for the flow kinds, Fig. 2
// smoke checks of the walker's instantiations, a memo-separation guard, and
// the Session-level end-to-end check including a post-update (delta) run. Session tests disable graph reduction: reduction drops
// copy-like edges whose source provably points nowhere, which preserves
// pointer answers but not value-flow answers (a `y = x` chain carries taint
// even when nothing allocates into it) — see the Options doc.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cfl/solver.hpp"
#include "oracle/earley.hpp"
#include "pag/delta.hpp"
#include "service/session.hpp"
#include "test_util.hpp"

namespace parcfl {
namespace {

using cfl::ContextTable;
using cfl::QueryKind;
using cfl::QueryStatus;
using cfl::Solver;
using cfl::SolverOptions;
using pag::EdgeKind;
using pag::NodeId;
using pag::NodeKind;
using test::RandomPagConfig;

SolverOptions unlimited() {
  SolverOptions o;
  o.budget = 100'000'000;
  o.context_sensitive = true;
  return o;
}

std::vector<std::uint32_t> values_of(const std::vector<NodeId>& nodes) {
  std::vector<std::uint32_t> out;
  out.reserve(nodes.size());
  for (const NodeId n : nodes) out.push_back(n.value());
  return out;
}

/// The tiny-graph configuration shared with property_test.cpp's brute-force
/// cross-check: small enough that path enumeration usually completes.
RandomPagConfig tiny_config(std::uint64_t seed) {
  RandomPagConfig cfg;
  cfg.seed = seed;
  cfg.layers = 2;
  cfg.vars_per_layer = 2;
  cfg.objects = 2;
  cfg.assign_edges = 2;
  cfg.param_ret_edges = 2;
  cfg.heap_edge_pairs = 1;
  cfg.globals = 1;
  return cfg;
}

oracle::BruteForceOptions brute_options() {
  oracle::BruteForceOptions bf;
  bf.max_path_length = 10;
  bf.max_paths = 2'000'000;
  return bf;
}

/// One query of `kind` rooted at v.
cfl::QueryResult run(Solver& solver, QueryKind kind, NodeId v) {
  switch (kind) {
    case QueryKind::kPointsTo:
      return solver.points_to(v);
    case QueryKind::kTaint:
      return solver.taint(v);
    case QueryKind::kDepends:
      return solver.depends(v);
  }
  return {};
}

oracle::Grammar oracle_grammar(QueryKind kind, const pag::Pag& pag) {
  return kind == QueryKind::kTaint
             ? oracle::build_taint_grammar(pag.field_count())
             : oracle::build_depends_grammar(pag.field_count());
}

/// Differential core: for every variable root, the solver's `kind` walk
/// against brute_force_reach under the kind's oracle grammar.
void check_kind_against_oracle(const pag::Pag& pag, QueryKind kind,
                               std::uint64_t seed) {
  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, unlimited());
  const auto bf = brute_options();
  const auto grammar = oracle_grammar(kind, pag);

  for (const NodeId v : test::all_variables(pag)) {
    const auto r = run(solver, kind, v);
    EXPECT_EQ(r.status, QueryStatus::kComplete)
        << cfl::to_string(kind) << " seed " << seed << " var " << v.value();
    const auto got = values_of(r.nodes());
    const auto brute = oracle::brute_force_reach(pag, v, grammar, bf);
    // Soundness: every path-witnessed flow is in the solver's answer.
    EXPECT_TRUE(std::includes(got.begin(), got.end(), brute.vars.begin(),
                              brute.vars.end()))
        << cfl::to_string(kind) << " seed " << seed << " var " << v.value();
    // Precision: a completed enumeration witnesses every solver fact.
    if (!brute.truncated && r.complete()) {
      EXPECT_EQ(got, brute.vars)
          << cfl::to_string(kind) << " seed " << seed << " var " << v.value();
    }
  }
}

class TaintDependsOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TaintDependsOracleTest, TaintMatchesBruteForce) {
  const auto cfg = tiny_config(GetParam());
  const auto pag = test::random_layered_pag(cfg);
  check_kind_against_oracle(pag, QueryKind::kTaint, cfg.seed);
}

TEST_P(TaintDependsOracleTest, DependsMatchesBruteForce) {
  const auto cfg = tiny_config(GetParam() + 100);
  const auto pag = test::random_layered_pag(cfg);
  check_kind_against_oracle(pag, QueryKind::kDepends, cfg.seed);
}

// The taint root is always in its own reach set (a variable taints itself;
// the accepting start state covers the empty path) and so is the depends
// root — pinned separately because the oracle adds the root out-of-band.
TEST_P(TaintDependsOracleTest, RootIsInItsOwnAnswer) {
  const auto pag = test::random_layered_pag(tiny_config(GetParam() + 200));
  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, unlimited());
  for (const NodeId v : test::all_variables(pag)) {
    EXPECT_TRUE(solver.taint(v).contains(v));
    EXPECT_TRUE(solver.depends(v).contains(v));
  }
}

// The forward (flows-to) and backward (points-to) pointer walks are duals on
// random graphs: o is in points_to(v) exactly when v is in flows_to(o).
TEST_P(TaintDependsOracleTest, PointsToAndFlowsToAreDual) {
  RandomPagConfig cfg;
  cfg.seed = GetParam() + 300;
  const auto pag = test::random_layered_pag(cfg);
  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, unlimited());

  const auto objects = test::all_objects(pag);
  std::vector<std::vector<NodeId>> flows;
  for (const NodeId o : objects) {
    const auto r = solver.flows_to(o);
    ASSERT_EQ(r.status, QueryStatus::kComplete) << "obj " << o.value();
    flows.push_back(r.nodes());
  }
  for (const NodeId v : test::all_variables(pag)) {
    const auto pts = solver.points_to(v);
    ASSERT_EQ(pts.status, QueryStatus::kComplete) << "var " << v.value();
    std::vector<NodeId> want;
    for (std::size_t i = 0; i < objects.size(); ++i)
      if (std::binary_search(flows[i].begin(), flows[i].end(), v))
        want.push_back(objects[i]);
    EXPECT_EQ(pts.nodes(), want) << "seed " << cfg.seed << " var " << v.value();
  }
}

// A tight budget may truncate the traversal but never invent a flow: the
// tight answer is a subset of the unlimited one, and a tight run that still
// reports kComplete found the full answer.
TEST_P(TaintDependsOracleTest, TightBudgetIsSoundSubset) {
  RandomPagConfig cfg;
  cfg.seed = GetParam() + 400;
  const auto pag = test::random_layered_pag(cfg);

  SolverOptions tight_opts = unlimited();
  tight_opts.budget = 40;
  ContextTable c1, c2;
  Solver tight(pag, c1, nullptr, tight_opts);
  Solver full(pag, c2, nullptr, unlimited());

  for (const QueryKind kind : {QueryKind::kTaint, QueryKind::kDepends}) {
    for (const NodeId v : test::all_variables(pag)) {
      const auto small = run(tight, kind, v);
      const auto big = run(full, kind, v);
      ASSERT_EQ(big.status, QueryStatus::kComplete);
      const auto sv = values_of(small.nodes());
      const auto bv = values_of(big.nodes());
      EXPECT_TRUE(std::includes(bv.begin(), bv.end(), sv.begin(), sv.end()))
          << "seed " << cfg.seed << " var " << v.value();
      if (small.complete()) {
        EXPECT_EQ(sv, bv) << "seed " << cfg.seed << " var " << v.value();
      }
    }
  }
}

// ---- Session end-to-end: serve, update, serve again -------------------------

service::Session::Options flow_session_options() {
  service::Session::Options o;
  o.engine.mode = cfl::Mode::kDataSharingScheduling;
  o.engine.threads = 2;
  o.engine.solver = unlimited();
  o.engine.solver.tau_finished = 10;
  // Reduction is pointer-preserving, not flow-preserving: it may drop a copy
  // edge whose source provably points nowhere, yet `y = x` still carries
  // taint/dependence. Serve the faithful graph for exact oracle agreement.
  o.reduce_graph = false;
  o.prefilter = false;
  o.index = false;
  return o;
}

/// A well-formed delta: cross-wires two existing variables, wires in a fresh
/// local (so added nodes must show up in post-update answers), and removes
/// one existing assign edge (so dropped flows must disappear).
pag::Delta flow_delta(const pag::Pag& pag, std::uint64_t seed) {
  support::Rng rng(seed);
  pag::Delta d(pag);
  const auto vars = test::all_variables(pag);
  d.add_edge(EdgeKind::kAssignLocal, vars[rng.below(vars.size())],
             vars[rng.below(vars.size())]);
  const NodeId fresh =
      d.add_node(NodeKind::kLocal, pag::TypeId(0), pag::MethodId(0));
  d.add_edge(EdgeKind::kAssignLocal, fresh, vars[rng.below(vars.size())]);
  for (const pag::Edge& e : pag.edges())
    if (e.kind == EdgeKind::kAssignLocal) {
      d.remove_edge(e.kind, e.dst, e.src, e.aux);
      break;
    }
  return d;
}

/// Every taint/depends item of a batch against the brute-force oracle on
/// `truth` (the graph the session is currently serving).
void check_session_batch(const service::Session::BatchResult& result,
                         std::span<const service::Session::Item> items,
                         const pag::Pag& truth, std::uint64_t seed,
                         const char* phase) {
  // Tighter enumeration cap than the solver-level differential: this runs
  // once per item per served graph, and exactness on truncation-free graphs
  // is already pinned by TaintMatchesBruteForce / DependsMatchesBruteForce.
  auto bf = brute_options();
  bf.max_paths = 400'000;
  ASSERT_EQ(result.items.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto grammar = oracle_grammar(items[i].kind, truth);
    const auto brute = oracle::brute_force_reach(truth, items[i].var, grammar, bf);
    EXPECT_EQ(result.items[i].status, QueryStatus::kComplete)
        << phase << " seed " << seed << " item " << i;
    const auto got = values_of(result.items[i].objects);
    EXPECT_TRUE(std::includes(got.begin(), got.end(), brute.vars.begin(),
                              brute.vars.end()))
        << phase << " seed " << seed << " item " << i << " var "
        << items[i].var.value();
    if (!brute.truncated) {
      EXPECT_EQ(got, brute.vars) << phase << " seed " << seed << " item " << i
                                 << " var " << items[i].var.value();
    }
  }
}

TEST_P(TaintDependsOracleTest, SessionServesFlowsAndSurvivesUpdates) {
  const auto cfg = tiny_config(GetParam() + 500);
  const auto pag = test::random_layered_pag(cfg);
  service::Session session(pag, flow_session_options());

  std::vector<service::Session::Item> items;
  for (const NodeId v : test::all_variables(pag)) {
    items.push_back({v, 0, QueryKind::kTaint});
    items.push_back({v, 0, QueryKind::kDepends});
  }

  // Cold serve against the oracle, then once more warm: the jmp plane the
  // heap-group sub-queries populate must not perturb flow answers, so the
  // warm batch must reproduce the cold one bit-for-bit.
  const auto cold = session.run_batch(items);
  check_session_batch(cold, items, pag, cfg.seed, "cold");
  const auto warm = session.run_batch(items);
  ASSERT_EQ(warm.items.size(), cold.items.size());
  for (std::size_t i = 0; i < cold.items.size(); ++i) {
    EXPECT_EQ(warm.items[i].status, cold.items[i].status)
        << "warm seed " << cfg.seed << " item " << i;
    EXPECT_EQ(values_of(warm.items[i].objects), values_of(cold.items[i].objects))
        << "warm seed " << cfg.seed << " item " << i;
  }

  // Mutate, then re-serve: warm-after-update answers must equal the oracle
  // on the mutated graph (invalidation covers the pointer sub-query plane;
  // taint/depends walks are never cached across batches).
  const pag::Delta delta = flow_delta(pag, cfg.seed + 77);
  std::string error;
  const auto mutated = pag::apply_delta(pag, delta, nullptr, &error);
  ASSERT_TRUE(mutated.has_value()) << error;
  ASSERT_TRUE(session.update(delta, &error)) << error;

  check_session_batch(session.run_batch(items), items, *mutated, cfg.seed,
                      "post-update");
}

// Mixed batches: pointer items interleaved with flow items must each keep
// their own semantics (the engine dispatches per-item on QueryKind).
TEST_P(TaintDependsOracleTest, MixedBatchKeepsKindsApart) {
  const auto cfg = tiny_config(GetParam() + 600);
  const auto pag = test::random_layered_pag(cfg);
  service::Session session(pag, flow_session_options());

  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, unlimited());

  std::vector<service::Session::Item> items;
  for (const NodeId v : test::all_variables(pag)) {
    items.push_back({v, 0, QueryKind::kPointsTo});
    items.push_back({v, 0, QueryKind::kTaint});
    items.push_back({v, 0, QueryKind::kDepends});
  }
  const auto result = session.run_batch(items);
  ASSERT_EQ(result.items.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto want = run(solver, items[i].kind, items[i].var);
    EXPECT_EQ(values_of(result.items[i].objects), values_of(want.nodes()))
        << "seed " << cfg.seed << " item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaintDependsOracleTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Fig. 2 smoke checks ----------------------------------------------------

// The backward (kRecord) and forward (kPush) pointer instantiations of the
// walker are duals: o is in points_to(v) exactly when v is in flows_to(o).
TEST(WalkerFig2, PointsToAndFlowsToAreDual) {
  const auto f = test::fig2();
  const pag::Pag& pag = f.lowered.pag;
  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, unlimited());

  for (const NodeId v : {f.s1, f.s2, f.n1, f.n2, f.v1, f.v2}) {
    const auto pts = solver.points_to(v);
    ASSERT_EQ(pts.status, QueryStatus::kComplete);
    for (const NodeId o : test::all_objects(pag)) {
      const auto flows = solver.flows_to(o);
      ASSERT_EQ(flows.status, QueryStatus::kComplete);
      EXPECT_EQ(pts.contains(o), flows.contains(v))
          << "var " << v.value() << " obj " << o.value();
    }
  }
  // The paper's answer: context sensitivity keeps s1 to o16.
  EXPECT_EQ(solver.points_to(f.s1).nodes(), std::vector<NodeId>{f.o16});
}

TEST(WalkerFig2, TaintReachesThroughContainer) {
  const auto f = test::fig2();
  ContextTable contexts;
  Solver solver(f.lowered.pag, contexts, nullptr, unlimited());

  // The value stored via add(v1, n1) is what get(v1) returns: n1 taints s1.
  const cfl::QueryResult from_n1 = solver.taint(f.n1);
  ASSERT_EQ(from_n1.status, QueryStatus::kComplete);
  EXPECT_TRUE(from_n1.contains(f.s1));
  // Context sensitivity keeps the two clients apart: n1 never reaches s2.
  EXPECT_FALSE(from_n1.contains(f.s2));
  // The root itself answers (the empty path).
  EXPECT_TRUE(from_n1.contains(f.n1));

  // depends is the mirror: s1's slice contains n1, not n2.
  const cfl::QueryResult s1_slice = solver.depends(f.s1);
  ASSERT_EQ(s1_slice.status, QueryStatus::kComplete);
  EXPECT_TRUE(s1_slice.contains(f.n1));
  EXPECT_FALSE(s1_slice.contains(f.n2));
}

// ---- memo separation --------------------------------------------------------

// A taint or depends root that is also the root of a pointer sub-query inside
// the same query. `x = x.f` makes depends(x)'s heap group ask points_to(x);
// `x.f = x` makes taint(x)'s heap group ask points_to(x) too. A walker that
// kept one memo for every kind would hand that sub-query the flow walk's
// partial set, {x}, as if it were x's objects: the alias w of x would then
// never be found, and with it neither y (depends) nor z (taint).
//
//   x = new o1   w = new o1   y = new o2
//   x = x.f      x.f = x      w.f = y      z = w.f
TEST(WalkerMemo, FlowRootThatIsAlsoAPointerSubQueryRoot) {
  pag::Pag::Builder b;
  const NodeId x = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId w = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId y = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId z = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId o1 = b.add_object(pag::TypeId(0), pag::MethodId(0));
  const NodeId o2 = b.add_object(pag::TypeId(0), pag::MethodId(0));
  const pag::FieldId f(0);
  b.new_edge(x, o1);
  b.new_edge(w, o1);
  b.new_edge(y, o2);
  b.load(x, x, f);
  b.store(x, x, f);
  b.store(w, y, f);
  b.load(z, w, f);
  const pag::Pag pag = std::move(b).finalize();

  ContextTable contexts;
  Solver solver(pag, contexts, nullptr, unlimited());
  // The self-loops multiply paths quickly; every fact here has a witness of
  // at most six edges, and a shorter bound keeps the enumeration complete.
  auto bf = brute_options();
  bf.max_path_length = 8;

  // points_to answers objects, and exactly the Earley oracle's.
  const auto objects = test::all_objects(pag);
  for (const NodeId v : test::all_variables(pag)) {
    std::vector<std::uint32_t> want;
    for (const NodeId o : objects) {
      const auto flows = oracle::brute_force_flows_to(pag, o, bf);
      ASSERT_FALSE(flows.truncated);
      if (std::binary_search(flows.vars.begin(), flows.vars.end(), v.value()))
        want.push_back(o.value());
    }
    const auto pts = solver.points_to(v);
    ASSERT_EQ(pts.status, QueryStatus::kComplete);
    EXPECT_EQ(values_of(pts.nodes()), want) << "pts var " << v.value();
  }
  EXPECT_EQ(solver.points_to(x).nodes(), (std::vector<NodeId>{o1, o2}));
  EXPECT_EQ(solver.points_to(w).nodes(), (std::vector<NodeId>{o1}));

  // taint/depends answer variables, and exactly the oracle's.
  for (const QueryKind kind : {QueryKind::kTaint, QueryKind::kDepends}) {
    const auto grammar = oracle_grammar(kind, pag);
    for (const NodeId v : test::all_variables(pag)) {
      const auto r = run(solver, kind, v);
      ASSERT_EQ(r.status, QueryStatus::kComplete);
      for (const NodeId n : r.nodes())
        EXPECT_TRUE(pag.is_variable(n)) << cfl::to_string(kind) << " var "
                                        << v.value() << " answered " << n.value();
      const auto brute = oracle::brute_force_reach(pag, v, grammar, bf);
      ASSERT_FALSE(brute.truncated);
      EXPECT_EQ(values_of(r.nodes()), brute.vars)
          << cfl::to_string(kind) << " var " << v.value();
    }
  }
  EXPECT_TRUE(solver.depends(x).contains(y));
  EXPECT_TRUE(solver.taint(x).contains(z));
}

}  // namespace
}  // namespace parcfl
