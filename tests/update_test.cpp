// Incremental PAG updates (DESIGN.md §8): pag::Delta apply/round-trip, the
// cfl invalidation pass, and the service-level update path.
//
//  * Delta — apply semantics (added nodes/edges, removals, tombstones),
//    rejection of inconsistent deltas, text-format round-trips;
//  * Invalidate — the metamorphic soundness bar: after any delta sequence a
//    *warm* solver answers exactly like a cold run on the mutated graph
//    (ExactOracle at small scale, Andersen CI at medium scale), while
//    entries in unaffected regions survive (the selectivity headline);
//  * UpdateContract — with a budget tight enough to publish unfinished
//    entries, which edits carry: complete answers equal the oracle,
//    incomplete ones are subsets of it;
//  * Session/QueryService — `update` swaps the graph between batches, keeps
//    the warm store consistent, and races cleanly with concurrent queries
//    (the tsan target: every reply matches the pre- or post-update truth).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "andersen/andersen.hpp"
#include "andersen/prefilter.hpp"
#include "cfl/engine.hpp"
#include "cfl/invalidate.hpp"
#include "cfl/solver.hpp"
#include "frontend/lower.hpp"
#include "oracle/oracle.hpp"
#include "pag/collapse.hpp"
#include "pag/delta.hpp"
#include "pag/pag_io.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "support/rng.hpp"
#include "synth/generator.hpp"
#include "test_util.hpp"

namespace parcfl {
namespace {

using pag::EdgeKind;
using pag::NodeId;
using pag::NodeKind;

cfl::SolverOptions sharing_opts() {
  cfl::SolverOptions o;
  o.budget = 1'000'000;
  o.data_sharing = true;
  // Miniature graphs: publish aggressively so invalidation has real entries
  // to keep or evict.
  o.tau_finished = 2;
  o.tau_unfinished = 10;
  return o;
}

cfl::SolverOptions plain_opts() {
  cfl::SolverOptions o;
  o.budget = 1'000'000;
  return o;
}

std::vector<std::uint32_t> solver_pts(cfl::Solver& solver, NodeId v) {
  const auto r = solver.points_to(v);
  EXPECT_EQ(r.status, cfl::QueryStatus::kComplete) << "var " << v.value();
  std::vector<std::uint32_t> out;
  for (const NodeId n : r.nodes()) out.push_back(n.value());
  return out;
}

/// Locals of a layered test graph, grouped by layer (= containing method).
std::vector<std::vector<NodeId>> vars_by_layer(const pag::Pag& pag,
                                               std::uint32_t layers) {
  std::vector<std::vector<NodeId>> out(layers);
  for (std::uint32_t n = 0; n < pag.node_count(); ++n) {
    const NodeId id(n);
    const auto& info = pag.node(id);
    if (info.kind == NodeKind::kLocal && info.method.valid() &&
        info.method.value() < layers)
      out[info.method.value()].push_back(id);
  }
  return out;
}

/// A random delta that preserves random_layered_pag's layering invariant
/// (param up / ret down between adjacent layers only), so the mutated graph
/// stays within the exact oracle's context-depth cap.
pag::Delta random_layer_delta(const pag::Pag& pag, std::uint32_t layers,
                              support::Rng& rng) {
  pag::Delta d(pag);
  auto layer_vars = vars_by_layer(pag, layers);
  auto pick = [&](const std::vector<NodeId>& v) {
    return v[rng.below(v.size())];
  };
  auto rand_layer = [&] { return static_cast<std::uint32_t>(rng.below(layers)); };

  {  // A new local wired into its layer, sometimes with a new allocation.
    const std::uint32_t l = rand_layer();
    const NodeId v =
        d.add_node(NodeKind::kLocal, pag::TypeId(0), pag::MethodId(l));
    d.add_edge(EdgeKind::kAssignLocal, v, pick(layer_vars[l]));
    layer_vars[l].push_back(v);
    if (rng.chance(0.7)) {
      const NodeId o =
          d.add_node(NodeKind::kObject, pag::TypeId(0), pag::MethodId(l));
      d.add_edge(EdgeKind::kNew, pick(layer_vars[l]), o);
    }
  }
  for (std::uint64_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
    const std::uint32_t l = rand_layer();
    d.add_edge(EdgeKind::kAssignLocal, pick(layer_vars[l]), pick(layer_vars[l]));
  }
  if (layers > 1 && pag.call_site_count() > 0)
    for (std::uint64_t i = 0, n = rng.below(3); i < n; ++i) {
      const auto low = static_cast<std::uint32_t>(rng.below(layers - 1));
      const auto cs = static_cast<std::uint32_t>(rng.below(pag.call_site_count()));
      if (rng.chance(0.5))
        d.add_edge(EdgeKind::kParam, pick(layer_vars[low + 1]),
                   pick(layer_vars[low]), cs);
      else
        d.add_edge(EdgeKind::kRet, pick(layer_vars[low]),
                   pick(layer_vars[low + 1]), cs);
    }
  if (pag.field_count() > 0 && rng.chance(0.6)) {
    const std::uint32_t l = rand_layer();
    const auto f = static_cast<std::uint32_t>(rng.below(pag.field_count()));
    d.add_edge(EdgeKind::kLoad, pick(layer_vars[l]), pick(layer_vars[l]), f);
    d.add_edge(EdgeKind::kStore, pick(layer_vars[l]), pick(layer_vars[l]), f);
  }

  // Remove a few distinct base edges (removal can only shorten paths, so the
  // layering invariant is preserved trivially).
  const auto edges = pag.edges();
  std::set<std::size_t> chosen;
  for (std::uint64_t i = 0, n = rng.below(3); i < n && !edges.empty(); ++i)
    chosen.insert(rng.below(edges.size()));
  for (const std::size_t i : chosen) {
    const pag::Edge& e = edges[i];
    d.remove_edge(e.kind, e.dst, e.src, e.aux);
  }
  if (rng.chance(0.3)) {
    const std::uint32_t l = rand_layer();
    d.remove_node(pick(layer_vars[l]));
  }
  return d;
}

// ---- Delta apply ------------------------------------------------------------

struct Line {
  pag::Pag pag;
  NodeId v0, v1, o;
};

/// o --new--> v0 --assign--> v1.
Line line_graph() {
  pag::Pag::Builder b;
  b.set_counts(1, 1, 1, 1);
  Line g;
  const NodeId v0 = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId v1 = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId o = b.add_object(pag::TypeId(0), pag::MethodId(0));
  b.new_edge(v0, o);
  b.assign_local(v1, v0);
  g.pag = std::move(b).finalize();
  g.v0 = v0;
  g.v1 = v1;
  g.o = o;
  return g;
}

TEST(DeltaApply, AddsNodesAndEdgesRemovesEdges) {
  Line g = line_graph();
  EXPECT_EQ(g.pag.revision(), 0u);

  pag::Delta d(g.pag);
  const NodeId v2 = d.add_node(NodeKind::kLocal, pag::TypeId(0), pag::MethodId(0));
  d.add_edge(EdgeKind::kAssignLocal, v2, g.v1);
  d.remove_edge(EdgeKind::kAssignLocal, g.v1, g.v0);

  pag::ApplyStats stats;
  std::string error;
  auto next = pag::apply_delta(g.pag, d, &stats, &error);
  ASSERT_TRUE(next.has_value()) << error;
  EXPECT_EQ(stats.nodes_added, 1u);
  EXPECT_EQ(stats.edges_added, 1u);
  EXPECT_EQ(stats.edges_removed, 1u);
  EXPECT_EQ(next->node_count(), g.pag.node_count() + 1);
  EXPECT_EQ(next->edge_count(), g.pag.edge_count());  // one out, one in
  EXPECT_EQ(next->revision(), 1u);
  // The base graph is untouched.
  EXPECT_EQ(g.pag.node_count(), 3u);
  EXPECT_EQ(g.pag.revision(), 0u);

  cfl::ContextTable contexts;
  cfl::Solver solver(*next, contexts, nullptr, plain_opts());
  EXPECT_EQ(solver_pts(solver, g.v0), std::vector<std::uint32_t>{g.o.value()});
  EXPECT_TRUE(solver_pts(solver, g.v1).empty());  // chain was cut
  EXPECT_TRUE(solver_pts(solver, v2).empty());
}

TEST(DeltaApply, TombstoneDropsIncidentEdgesKeepsId) {
  Line g = line_graph();
  pag::Delta d(g.pag);
  d.remove_node(g.v0);

  pag::ApplyStats stats;
  std::string error;
  auto next = pag::apply_delta(g.pag, d, &stats, &error);
  ASSERT_TRUE(next.has_value()) << error;
  EXPECT_EQ(stats.edges_removed, 2u);  // both the new and the assign edge
  EXPECT_EQ(next->node_count(), g.pag.node_count());  // id survives, isolated
  EXPECT_EQ(next->edge_count(), 0u);

  cfl::ContextTable contexts;
  cfl::Solver solver(*next, contexts, nullptr, plain_opts());
  EXPECT_TRUE(solver_pts(solver, g.v0).empty());
  EXPECT_TRUE(solver_pts(solver, g.v1).empty());
}

TEST(DeltaApply, RejectsInconsistentDeltas) {
  Line g = line_graph();
  std::string error;

  {  // Recorded against a different node-id space.
    pag::Delta d(g.pag.node_count() + 5);
    EXPECT_FALSE(pag::apply_delta(g.pag, d, nullptr, &error).has_value());
    EXPECT_NE(error.find("node count"), std::string::npos);
  }
  {  // Removing an edge the graph does not contain.
    pag::Delta d(g.pag);
    d.remove_edge(EdgeKind::kNew, g.v1, g.o);
    EXPECT_FALSE(pag::apply_delta(g.pag, d, nullptr, &error).has_value());
    EXPECT_NE(error.find("not present"), std::string::npos);
  }
  {  // Added edge referencing an unknown node.
    pag::Delta d(g.pag);
    d.add_edge(EdgeKind::kAssignLocal, NodeId(99), g.v0);
    EXPECT_FALSE(pag::apply_delta(g.pag, d, nullptr, &error).has_value());
  }
  {  // Tombstone of an unknown node.
    pag::Delta d(g.pag);
    d.remove_node(NodeId(99));
    EXPECT_FALSE(pag::apply_delta(g.pag, d, nullptr, &error).has_value());
  }
  {  // Aux payload on a kind that carries none.
    pag::Delta d(g.pag);
    d.add_edge(EdgeKind::kAssignLocal, g.v1, g.v0, /*aux=*/7);
    EXPECT_FALSE(pag::apply_delta(g.pag, d, nullptr, &error).has_value());
  }
  {  // A del subsumed by a delnode is consumed, not an error.
    pag::Delta d(g.pag);
    d.remove_edge(EdgeKind::kNew, g.v0, g.o);
    d.remove_node(g.v0);
    EXPECT_TRUE(pag::apply_delta(g.pag, d, nullptr, &error).has_value()) << error;
  }
}

TEST(DeltaText, RoundTripsAndAppliesIdentically) {
  test::RandomPagConfig cfg;
  cfg.seed = 11;
  const auto pag = test::random_layered_pag(cfg);
  support::Rng rng(77);
  const pag::Delta d = random_layer_delta(pag, cfg.layers, rng);

  std::ostringstream out;
  pag::write_delta(out, d);

  std::istringstream in(out.str());
  std::string error;
  const auto parsed = pag::read_delta(in, pag, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  std::ostringstream out2;
  pag::write_delta(out2, *parsed);
  EXPECT_EQ(out.str(), out2.str());

  const auto a = pag::apply_delta(pag, d, nullptr, &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = pag::apply_delta(pag, *parsed, nullptr, &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(pag::write_pag_string(*a), pag::write_pag_string(*b));
  EXPECT_EQ(a->revision(), b->revision());
}

TEST(DeltaText, RejectsMalformedInput) {
  Line g = line_graph();
  auto parse = [&](const std::string& text) {
    std::istringstream in(text);
    std::string error;
    const auto d = pag::read_delta(in, g.pag, &error);
    if (!d.has_value()) {
      EXPECT_FALSE(error.empty());
    }
    return d.has_value();
  };
  EXPECT_FALSE(parse("nonsense\n"));
  EXPECT_FALSE(parse("parcfl-delta 2\n"));
  EXPECT_FALSE(parse("parcfl-delta 1\nfrobnicate 1\n"));
  EXPECT_FALSE(parse("parcfl-delta 1\nadd assignl 0\n"));
  EXPECT_FALSE(parse("parcfl-delta 1\nadd assignl 0 99\n"));
  EXPECT_FALSE(parse("parcfl-delta 1\nadd ld 0 1\n"));       // missing f=
  EXPECT_FALSE(parse("parcfl-delta 1\nadd assignl 0 1 f=0\n"));
  EXPECT_FALSE(parse("parcfl-delta 1\nnode x\n"));
  EXPECT_FALSE(parse("parcfl-delta 1\ndelnode 99\n"));
  EXPECT_TRUE(parse("parcfl-delta 1\n# comment\n\nadd assignl 0 1\n"));
  // Delta-added nodes become referenceable immediately.
  EXPECT_TRUE(parse("parcfl-delta 1\nnode l\nadd assignl 3 0\n"));
  EXPECT_FALSE(parse("parcfl-delta 1\nadd assignl 3 0\n"));
}

// The loader's edge rule (pag::edge_violation) applies to deltas against the
// base's node kinds and id spaces: v0, v1 are locals, 2 is an object, and the
// base declares one field and one call site.
TEST(DeltaText, RejectsEdgesThatBreakTheEdgeRule) {
  Line g = line_graph();
  auto parse = [&](const std::string& text, std::string* error) {
    std::istringstream in(text);
    return pag::read_delta(in, g.pag, error).has_value();
  };
  const char* const bad[] = {
      "add new 0 1",         // new between two locals
      "add new 2 2",         // new into an object
      "add assignl 0 2",     // assignl from an object
      "add assigng 0 1",     // assigng without a global
      "add ld 0 2 f=0",      // ld with an object base
      "add st 0 1 f=1",      // field id past the base's one field
      "add param 0 1 cs=1",  // call site past the base's one site
      "del new 1 0",         // removals obey the rule too
  };
  for (const char* edge : bad) {
    std::string error;
    EXPECT_FALSE(parse(std::string("parcfl-delta 1\n") + edge + "\n", &error))
        << edge;
    EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << edge << " -> " << error;
  }
  // Kinds of the nodes the delta adds count as well.
  std::string error;
  EXPECT_FALSE(parse("parcfl-delta 1\nnode o\nadd assignl 0 3\n", &error));
  EXPECT_EQ(error.rfind("line 3: ", 0), 0u) << error;
  EXPECT_TRUE(parse("parcfl-delta 1\nnode o\nadd new 1 3\nadd ld 0 1 f=0\n"
                    "add param 1 0 cs=0\n",
                    &error))
      << error;
}

// ---- invalidation soundness (metamorphic) -----------------------------------

class UpdateMetamorphicTest : public ::testing::TestWithParam<std::uint64_t> {};

/// The correctness headline: warm-after-update == cold-on-mutated-graph, with
/// the exact oracle as the cold truth, across a random delta *sequence*.
TEST_P(UpdateMetamorphicTest, WarmAfterUpdateMatchesExactOracle) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam();
  cfg.layers = 2 + GetParam() % 3;
  cfg.vars_per_layer = 3;
  cfg.assign_edges = 4 + GetParam() % 4;
  pag::Pag pag = test::random_layered_pag(cfg);

  cfl::ContextTable contexts;
  cfl::JmpStore store;
  support::Rng rng(GetParam() * 7919 + 3);

  const int steps = 3;
  for (int step = 0; step < steps; ++step) {
    {  // Warm the store on the current graph.
      cfl::Solver solver(pag, contexts, &store, sharing_opts());
      for (const NodeId v : test::all_variables(pag)) (void)solver.points_to(v);
    }

    const pag::Delta delta = random_layer_delta(pag, cfg.layers, rng);
    std::string error;
    auto next = pag::apply_delta(pag, delta, nullptr, &error);
    ASSERT_TRUE(next.has_value()) << error;

    const auto stats = cfl::invalidate_sharing_state(pag, *next, delta,
                                                     contexts, store);
    EXPECT_EQ(stats.entries_before, stats.evicted + stats.kept);
    pag = std::move(*next);
    EXPECT_EQ(pag.revision(), static_cast<std::uint32_t>(step + 1));

    // Warm solver on the mutated graph must agree with the exact oracle
    // (equivalently: with any cold run) on every variable.
    const oracle::ExactOracle exact(pag);
    cfl::Solver warm(pag, contexts, &store, sharing_opts());
    for (const NodeId v : test::all_variables(pag))
      EXPECT_EQ(solver_pts(warm, v), exact.points_to(v))
          << "seed " << GetParam() << " step " << step << " var " << v.value();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateMetamorphicTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- answer contract with carried unfinished entries ------------------------

std::vector<std::uint32_t> ids(const std::vector<NodeId>& nodes) {
  std::vector<std::uint32_t> out;
  for (const NodeId n : nodes) out.push_back(n.value());
  return out;
}

/// DESIGN.md §8's answer contract: an edit drops a marked entry's finished
/// half but carries its unfinished s, so after any delta sequence every
/// complete answer equals the exact oracle on the live revision and every
/// incomplete answer is a subset of it. A tight budget makes the warm-up
/// publish unfinished entries for the cone to carry; a generous batch beside
/// it lets queries complete, so a stale finished half shows in their answers.
TEST(UpdateContract, TightBudgetAnswersAreExactOrSubsetsOfTheOracle) {
  constexpr std::uint64_t kTightBudget = 24;
  constexpr std::uint64_t kFullBudget = 1'000'000;
  std::uint64_t carried = 0, incomplete = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    test::RandomPagConfig cfg;
    cfg.seed = seed;
    cfg.layers = 2 + seed % 3;
    cfg.vars_per_layer = 3;
    cfg.assign_edges = 4 + seed % 4;
    pag::Pag pag = test::random_layered_pag(cfg);

    service::Session::Options options;
    options.engine.threads = 2;
    options.engine.solver.budget = kFullBudget;
    options.engine.solver.tau_finished = 2;
    options.engine.solver.tau_unfinished = 2;
    service::Session session(pag, options);
    support::Rng rng(seed * 7919 + 5);

    // Warms the store and checks both batches against the live revision.
    auto run_and_check = [&](int step) {
      const oracle::ExactOracle exact(pag);
      const std::vector<NodeId> vars = test::all_variables(pag);
      for (const std::uint64_t budget : {kTightBudget, kFullBudget}) {
        std::vector<service::Session::Item> items;
        for (const NodeId v : vars) items.push_back({v, budget});
        const auto batch = session.run_batch(items);
        ASSERT_EQ(batch.items.size(), vars.size());
        for (std::size_t i = 0; i < vars.size(); ++i) {
          const auto want = exact.points_to(vars[i]);
          const auto got = ids(batch.items[i].objects);
          if (batch.items[i].status == cfl::QueryStatus::kComplete) {
            EXPECT_EQ(got, want) << "step " << step << " budget " << budget
                                 << " var " << vars[i].value();
          } else {
            ++incomplete;
            EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(),
                                      got.end()))
                << "step " << step << " budget " << budget << " var "
                << vars[i].value();
          }
        }
      }
    };

    run_and_check(-1);
    for (int step = 0; step < 3; ++step) {
      const pag::Delta delta = random_layer_delta(pag, cfg.layers, rng);
      std::string error;
      auto next = pag::apply_delta(pag, delta, nullptr, &error);
      ASSERT_TRUE(next.has_value()) << error;
      service::Session::UpdateStats stats;
      ASSERT_TRUE(session.update(delta, &error, &stats)) << error;
      const cfl::InvalidateStats& inv = stats.invalidate;
      EXPECT_EQ(inv.entries_before,
                inv.evicted + inv.carried_unfinished + inv.kept);
      carried += inv.carried_unfinished;
      pag = std::move(*next);
      run_and_check(step);
    }
  }
  EXPECT_GT(carried, 0u) << "no seed carried an unfinished entry through an edit";
  EXPECT_GT(incomplete, 0u) << "the tight budget never cut an answer short";
}

/// The Line graph with one jmp entry per case, all keyed at marked nodes.
TEST(Invalidate, MarkedEntryKeepsUnfinishedHalfAndLosesItsRecord) {
  Line g = line_graph();
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  const cfl::CtxId empty = cfl::ContextTable::empty();
  const auto both = cfl::JmpStore::key(cfl::Direction::kBackward, g.v1, empty);
  const auto finished_only =
      cfl::JmpStore::key(cfl::Direction::kBackward, g.v0, empty);
  const auto unfinished_only =
      cfl::JmpStore::key(cfl::Direction::kForward, g.v0, empty);
  store.insert_finished(both, 5, {cfl::JmpTarget{g.o, empty, 2}});
  store.insert_unfinished(both, 7);
  store.insert_finished(finished_only, 3, {cfl::JmpTarget{g.o, empty, 1}});
  store.insert_unfinished(unfinished_only, 9);

  pag::Delta d(g.pag);
  d.remove_edge(EdgeKind::kAssignLocal, g.v1, g.v0);
  std::string error;
  auto next = pag::apply_delta(g.pag, d, nullptr, &error);
  ASSERT_TRUE(next.has_value()) << error;

  const auto stats = cfl::invalidate_sharing_state(g.pag, *next, d, contexts, store);
  EXPECT_EQ(stats.entries_before, 3u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.carried_unfinished, 2u);
  EXPECT_EQ(stats.kept, 0u);
  EXPECT_EQ(store.entry_count(), 2u);

  cfl::JmpStore::Lookup lk;
  ASSERT_TRUE(store.lookup(both, lk));
  EXPECT_EQ(lk.finished, nullptr);
  EXPECT_EQ(lk.unfinished_s, 7u);
  EXPECT_FALSE(store.lookup(finished_only, lk));
  ASSERT_TRUE(store.lookup(unfinished_only, lk));
  EXPECT_EQ(lk.finished, nullptr);
  EXPECT_EQ(lk.unfinished_s, 9u);
}

TEST(Invalidate, OutOfRangeNodeOrRetiredChainDropsEntryWhole) {
  // a (method 0) --param cs0--> b (method 1); removing the edge retires cs0.
  pag::Pag::Builder b;
  b.set_counts(1, 1, 1, 2);
  const NodeId a = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId callee = b.add_local(pag::TypeId(0), pag::MethodId(1));
  const NodeId o = b.add_object(pag::TypeId(0), pag::MethodId(0));
  b.new_edge(a, o);
  b.param(callee, a, pag::CallSiteId(0));
  const pag::Pag pag = std::move(b).finalize();

  cfl::ContextTable contexts;
  cfl::JmpStore store;
  const cfl::CtxId empty = cfl::ContextTable::empty();
  const cfl::CtxId via_cs0 = contexts.push(empty, pag::CallSiteId(0));
  // Both keyed at marked nodes, so only the drop-whole rules tell them apart
  // from a carried entry.
  const auto retired =
      cfl::JmpStore::key(cfl::Direction::kBackward, callee, via_cs0);
  const auto foreign =
      cfl::JmpStore::key(cfl::Direction::kBackward, NodeId(1000), empty);
  for (const std::uint64_t k : {retired, foreign}) {
    store.insert_finished(k, 4, {cfl::JmpTarget{o, empty, 1}});
    store.insert_unfinished(k, 6);
  }

  pag::Delta d(pag);
  d.remove_edge(EdgeKind::kParam, callee, a, 0);
  std::string error;
  auto next = pag::apply_delta(pag, d, nullptr, &error);
  ASSERT_TRUE(next.has_value()) << error;

  const auto stats = cfl::invalidate_sharing_state(pag, *next, d, contexts, store);
  EXPECT_EQ(stats.retired_call_sites, 1u);
  EXPECT_EQ(stats.entries_before, 2u);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_EQ(stats.carried_unfinished, 0u);
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.memory_bytes(), 0u);
}

TEST(Invalidate, TrimFreesExactlyTheFinishedRecordBytes) {
  const auto k =
      cfl::JmpStore::key(cfl::Direction::kBackward, NodeId(3), cfl::CtxId(0));
  cfl::JmpStore store;
  store.insert_finished(k, 9,
                        {cfl::JmpTarget{NodeId(1), cfl::CtxId(0), 3},
                         cfl::JmpTarget{NodeId(2), cfl::CtxId(0), 5}});
  const std::uint64_t record = store.memory_bytes();
  ASSERT_GT(record, 0u);
  store.insert_unfinished(k, 11);
  const std::uint64_t before = store.memory_bytes();

  const auto evicted =
      store.erase_if([](std::uint64_t) { return cfl::JmpStore::Evict::kFinished; });
  EXPECT_EQ(evicted.dropped, 0u);
  EXPECT_EQ(evicted.carried, 1u);
  EXPECT_EQ(store.memory_bytes(), before - record);

  cfl::JmpStore unfinished_only;
  unfinished_only.insert_unfinished(k, 11);
  EXPECT_EQ(store.memory_bytes(), unfinished_only.memory_bytes());
  cfl::JmpStore::Lookup lk;
  ASSERT_TRUE(store.lookup(k, lk));
  EXPECT_EQ(lk.finished, nullptr);
  EXPECT_EQ(lk.unfinished_s, 11u);
}

/// One heap-matching cluster: p1/p2 alias a container object o, a store
/// writes s (pointing to os) through p1, a load reads through p2 into x, and
/// t copies x. points_to(t) = {os}, derived via a ReachableNodes call at x —
/// which is exactly where the solver publishes jmp entries.
struct Cluster {
  NodeId p1, p2, s, x, t, o, os;
};

Cluster add_cluster(pag::Pag::Builder& b, std::uint32_t method) {
  Cluster c;
  c.p1 = b.add_local(pag::TypeId(0), pag::MethodId(method));
  c.p2 = b.add_local(pag::TypeId(0), pag::MethodId(method));
  c.s = b.add_local(pag::TypeId(0), pag::MethodId(method));
  c.x = b.add_local(pag::TypeId(0), pag::MethodId(method));
  c.t = b.add_local(pag::TypeId(0), pag::MethodId(method));
  c.o = b.add_object(pag::TypeId(0), pag::MethodId(method));
  c.os = b.add_object(pag::TypeId(0), pag::MethodId(method));
  b.new_edge(c.p1, c.o);
  b.new_edge(c.p2, c.o);
  b.new_edge(c.s, c.os);
  b.store(c.p1, c.s, pag::FieldId(0));
  b.load(c.x, c.p2, pag::FieldId(0));
  b.assign_local(c.t, c.x);
  return c;
}

TEST(Invalidate, SelectiveEvictionKeepsUnaffectedCluster) {
  pag::Pag::Builder b;
  b.set_counts(1, 1, 1, 2);
  const Cluster ca = add_cluster(b, 0);
  const Cluster cb = add_cluster(b, 1);  // disconnected from ca
  const pag::Pag pag = std::move(b).finalize();

  cfl::SolverOptions opts = sharing_opts();
  opts.tau_finished = 1;  // publish everything
  opts.tau_unfinished = 2;
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  {
    cfl::Solver solver(pag, contexts, &store, opts);
    for (const NodeId v : test::all_variables(pag)) (void)solver.points_to(v);
  }
  ASSERT_GT(store.entry_count(), 0u);

  // Cut cluster B's store base: p1 no longer aliases p2, so B's load reads
  // nothing. Cluster A is untouched.
  pag::Delta d(pag);
  d.remove_edge(EdgeKind::kNew, cb.p1, cb.o);
  std::string error;
  auto next = pag::apply_delta(pag, d, nullptr, &error);
  ASSERT_TRUE(next.has_value()) << error;

  const auto stats = cfl::invalidate_sharing_state(pag, *next, d, contexts, store);
  EXPECT_GT(stats.evicted, 0u) << "cluster B entries must go";
  EXPECT_GT(stats.kept, 0u) << "cluster A entries must survive";
  EXPECT_EQ(store.entry_count(), stats.kept);

  cfl::Solver warm(*next, contexts, &store, opts);
  EXPECT_EQ(solver_pts(warm, ca.t), std::vector<std::uint32_t>{ca.os.value()});
  EXPECT_GT(warm.counters().jmps_taken, 0u)
      << "the surviving cluster-A entries must be ridden, not re-derived";
  EXPECT_TRUE(solver_pts(warm, cb.t).empty());
  EXPECT_EQ(solver_pts(warm, cb.p2), std::vector<std::uint32_t>{cb.o.value()});
}

TEST(Invalidate, WarmAfterUpdateMatchesAndersenContextInsensitive) {
  // Medium scale: a synthetic container workload, context-insensitive so
  // Andersen's whole-program result is the exact truth.
  synth::GeneratorConfig gcfg;
  gcfg.seed = 31;
  gcfg.app_methods = 12;
  gcfg.library_methods = 12;
  gcfg.containers = 3;
  gcfg.container_use_blocks = 10;
  const auto lowered = frontend::lower(synth::generate(gcfg));
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  pag::Pag pag = std::move(collapsed.pag);
  std::vector<NodeId> queries;
  for (const NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());

  cfl::SolverOptions opts = sharing_opts();
  opts.context_sensitive = false;
  opts.tau_finished = 5;
  opts.tau_unfinished = 50;

  cfl::ContextTable contexts;
  cfl::JmpStore store;
  {
    cfl::Solver solver(pag, contexts, &store, opts);
    for (const NodeId q : queries) (void)solver.points_to(q);
  }
  ASSERT_GT(store.entry_count(), 0u);

  // A delta with no layering discipline: remove random edges, cross-wire
  // random variables, add an allocation.
  support::Rng rng(97);
  const auto vars = test::all_variables(pag);
  pag::Delta d(pag);
  const auto edges = pag.edges();
  std::set<std::size_t> chosen;
  while (chosen.size() < 5) chosen.insert(rng.below(edges.size()));
  for (const std::size_t i : chosen) {
    const pag::Edge& e = edges[i];
    d.remove_edge(e.kind, e.dst, e.src, e.aux);
  }
  for (int i = 0; i < 4; ++i)
    d.add_edge(EdgeKind::kAssignLocal, vars[rng.below(vars.size())],
               vars[rng.below(vars.size())]);
  const NodeId fresh_obj =
      d.add_node(NodeKind::kObject, pag::TypeId(0), pag::MethodId(0));
  d.add_edge(EdgeKind::kNew, vars[rng.below(vars.size())], fresh_obj);

  std::string error;
  auto next = pag::apply_delta(pag, d, nullptr, &error);
  ASSERT_TRUE(next.has_value()) << error;
  const auto stats = cfl::invalidate_sharing_state(pag, *next, d, contexts, store);
  EXPECT_EQ(stats.entries_before, stats.evicted + stats.kept);

  const auto andersen = andersen::solve(*next);
  cfl::Solver warm(*next, contexts, &store, opts);
  for (const NodeId q : queries) {
    const auto got = solver_pts(warm, q);
    const auto want_span = andersen.points_to(q);
    const std::vector<std::uint32_t> want(want_span.begin(), want_span.end());
    EXPECT_EQ(got, want) << "var " << q.value();
  }
}

// ---- session + service ------------------------------------------------------

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

service::Session::Options session_options(unsigned threads) {
  service::Session::Options o;
  o.engine.mode = cfl::Mode::kDataSharingScheduling;
  o.engine.threads = threads;
  o.engine.solver.budget = 200'000;
  o.engine.solver.tau_finished = 10;
  o.engine.solver.tau_unfinished = 100;
  return o;
}

/// A small, well-formed delta against `pag`: cross-wires two query vars and
/// removes one existing assign edge (if any).
pag::Delta small_delta(const pag::Pag& pag, const std::vector<NodeId>& vars,
                       std::uint64_t seed) {
  support::Rng rng(seed);
  pag::Delta d(pag);
  d.add_edge(EdgeKind::kAssignLocal, vars[rng.below(vars.size())],
             vars[rng.below(vars.size())]);
  const NodeId fresh =
      d.add_node(NodeKind::kObject, pag::TypeId(0), pag::MethodId(0));
  d.add_edge(EdgeKind::kNew, vars[rng.below(vars.size())], fresh);
  for (const pag::Edge& e : pag.edges())
    if (e.kind == EdgeKind::kAssignLocal) {
      d.remove_edge(e.kind, e.dst, e.src, e.aux);
      break;
    }
  return d;
}

TEST(SessionUpdate, SwapsGraphBetweenBatchesAndStaysConsistent) {
  const Workload w = container_workload();
  service::Session session(w.pag, session_options(2));

  std::vector<service::Session::Item> items;
  for (const NodeId q : w.queries) items.push_back({q, 0});
  (void)session.run_batch(items);  // warm the store
  EXPECT_EQ(session.revision(), 0u);

  const pag::Delta delta = small_delta(w.pag, w.queries, 5);
  std::string error;
  auto mutated = pag::apply_delta(w.pag, delta, nullptr, &error);
  ASSERT_TRUE(mutated.has_value()) << error;

  service::Session::UpdateStats stats;
  ASSERT_TRUE(session.update(delta, &error, &stats)) << error;
  EXPECT_EQ(stats.revision, 1u);
  EXPECT_EQ(session.revision(), 1u);
  EXPECT_EQ(session.node_count(), mutated->node_count());
  EXPECT_EQ(stats.invalidate.entries_before,
            stats.invalidate.evicted + stats.invalidate.kept);

  // Warm-after-update answers == a cold session on the mutated graph.
  const auto warm = session.run_batch(items);
  service::Session cold(*mutated, session_options(2));
  const auto expected = cold.run_batch(items);
  ASSERT_EQ(warm.items.size(), expected.items.size());
  for (std::size_t i = 0; i < warm.items.size(); ++i) {
    EXPECT_EQ(warm.items[i].status, expected.items[i].status) << "item " << i;
    EXPECT_EQ(warm.items[i].objects, expected.items[i].objects) << "item " << i;
  }

  // A rejected delta leaves revision and answers untouched.
  pag::Delta bad(session.node_count());
  bad.remove_edge(EdgeKind::kNew, w.queries[0], w.queries[0]);
  EXPECT_FALSE(session.update(bad, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(session.revision(), 1u);
  const auto after = session.run_batch(items);
  for (std::size_t i = 0; i < after.items.size(); ++i)
    EXPECT_EQ(after.items[i].objects, expected.items[i].objects);
}

TEST(ServiceUpdate, RidesTheQueueOverTheWireProtocol) {
  const Workload w = container_workload();
  service::ServiceOptions options;
  options.session = session_options(2);
  options.max_linger = std::chrono::microseconds(50);
  service::QueryService svc(w.pag, options);

  const pag::Delta delta = small_delta(w.pag, w.queries, 9);
  const std::string delta_path = ::testing::TempDir() + "update_test.delta";
  {
    std::ofstream out(delta_path);
    pag::write_delta(out, delta);
  }

  std::ostringstream request_text;
  request_text << "query " << w.queries[0].value() << "\n"
               << "update " << delta_path << "\n"
               << "query " << w.queries[0].value() << "\n"
               << "update /nonexistent/path.delta\n"
               << "update " << delta_path << "\n"  // stale: node count moved on
               << "stats\n";
  std::istringstream in(request_text.str());
  std::ostringstream out;
  EXPECT_EQ(service::serve_stream(svc, in, out), 6u);

  std::vector<std::string> replies;
  {
    std::istringstream r(out.str());
    for (std::string line; std::getline(r, line);) replies.push_back(line);
  }
  ASSERT_EQ(replies.size(), 6u);
  EXPECT_EQ(replies[0].rfind("ok", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1].rfind("ok updated", 0), 0u) << replies[1];
  EXPECT_NE(replies[1].find("rev 1"), std::string::npos) << replies[1];
  EXPECT_NE(replies[1].find(" unfinished"), std::string::npos) << replies[1];
  EXPECT_EQ(replies[2].rfind("ok", 0), 0u) << replies[2];
  EXPECT_EQ(replies[3].rfind("err ", 0), 0u) << replies[3];
  EXPECT_EQ(replies[4].rfind("err ", 0), 0u) << replies[4];

  const auto stats = svc.stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.update_errors, 2u);
  EXPECT_EQ(stats.pag_revision, 1u);
  EXPECT_NE(stats.to_json().find("\"updates\""), std::string::npos);
  EXPECT_NE(stats.to_json().find("\"jmp_carried_unfinished\""),
            std::string::npos);
}

// A malformed delta sent over the wire is answered `err` with the reader's
// line-numbered message, and the served graph stays at its revision.
TEST(ServiceUpdate, WireRejectsKindMismatchedDelta) {
  const Workload w = container_workload();
  service::ServiceOptions options;
  options.session = session_options(2);
  service::QueryService svc(w.pag, options);

  NodeId local_a, local_b;
  bool have_a = false;
  for (std::uint32_t n = 0; n < w.pag.node_count(); ++n) {
    if (w.pag.kind(NodeId(n)) != NodeKind::kLocal) continue;
    if (!have_a) {
      local_a = NodeId(n);
      have_a = true;
    } else {
      local_b = NodeId(n);
      break;
    }
  }
  const std::string delta_path = ::testing::TempDir() + "kind_mismatch.delta";
  {
    std::ofstream out(delta_path);
    out << "parcfl-delta 1\nadd new " << local_a.value() << ' '
        << local_b.value() << "\n";
  }

  std::istringstream in("update " + delta_path + "\nquery " +
                        std::to_string(w.queries[0].value()) + "\n");
  std::ostringstream out;
  EXPECT_EQ(service::serve_stream(svc, in, out), 2u);
  std::istringstream r(out.str());
  std::string reply;
  ASSERT_TRUE(std::getline(r, reply));
  EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;
  EXPECT_NE(reply.find("line 2: new edge must source an object"),
            std::string::npos)
      << reply;
  ASSERT_TRUE(std::getline(r, reply));
  EXPECT_EQ(reply.rfind("ok", 0), 0u) << reply;

  const auto stats = svc.stats();
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ(stats.update_errors, 1u);
  EXPECT_EQ(stats.pag_revision, 0u);
}

// ---- DQ schedule plan across revisions --------------------------------------
//
// The warm BatchRunner builds one schedule plan per graph revision and reuses
// it for every batch on that revision. Each update must retire it: a stale
// plan indexes past its node arrays for nodes a delta added, and keeps a
// direct group that an added or removed assign edge merged or split.

TEST(SessionUpdate, SchedulePlanFollowsEveryRevision) {
  const Workload w = container_workload();
  service::Session::Options o = session_options(1);
  // Every query reaches the solver on one worker, in issue order, and the
  // slow-query sink (armed for every query) records that order.
  o.reduce_graph = false;  // added assign edges stay in the serving graph
  o.prefilter = false;
  o.index = false;
  std::vector<NodeId> issued;
  o.engine.slow_query_ms = 1e-12;
  o.engine.slow_query_sink = [&issued](const cfl::SlowQueryRecord& r) {
    issued.push_back(r.var);
  };
  service::Session session(w.pag, o);

  cfl::EngineOptions cold_options = o.engine;
  cold_options.slow_query_ms = 0.0;
  cold_options.slow_query_sink = nullptr;
  cold_options.collect_objects = true;

  // One warm batch: issue order == a one-off schedule of the live graph, and
  // answers == a cold Engine::run on it.
  const auto check_batch = [&](const std::vector<NodeId>& batch,
                               const std::string& where) {
    std::vector<service::Session::Item> items;
    for (const NodeId v : batch) items.push_back({v, 0});
    issued.clear();
    const auto warm = session.run_batch(items);
    EXPECT_EQ(issued, cfl::schedule_queries(session.pag(), batch).ordered)
        << where;
    const auto cold = cfl::Engine(session.pag(), cold_options).run(batch);
    ASSERT_EQ(warm.items.size(), cold.outcomes.size()) << where;
    for (std::size_t i = 0; i < cold.outcomes.size(); ++i) {
      const auto& item = warm.items[cold.source_index[i]];
      EXPECT_EQ(item.status, cold.outcomes[i].status) << where << " #" << i;
      EXPECT_EQ(item.objects, cold.objects[i]) << where << " #" << i;
    }
  };
  const auto apply = [&](const pag::Delta& d) {
    std::string error;
    ASSERT_TRUE(session.update(d, &error)) << error;
  };

  std::vector<NodeId> batch(w.queries.begin(),
                            w.queries.begin() +
                                std::min<std::size_t>(w.queries.size(), 16));
  ASSERT_GE(batch.size(), 4u);
  EXPECT_EQ(session.schedule_plan_builds(), 0u);
  check_batch(batch, "rev 0");
  check_batch(batch, "rev 0 again");
  EXPECT_EQ(session.schedule_plan_builds(), 1u);

  // Revision 1: new variable nodes, queried straight away.
  {
    const NodeId q = batch.front();
    const pag::NodeInfo& info = session.pag().node(q);
    pag::Delta d(session.pag());
    const NodeId n1 = d.add_node(NodeKind::kLocal, info.type, info.method);
    const NodeId n2 = d.add_node(NodeKind::kLocal, info.type, info.method);
    d.add_edge(EdgeKind::kAssignLocal, n1, q);
    d.add_edge(EdgeKind::kAssignLocal, n2, n1);
    apply(d);
    batch.push_back(n2);
    batch.push_back(n1);
  }
  check_batch(batch, "rev 1");
  check_batch(batch, "rev 1 again");
  EXPECT_EQ(session.schedule_plan_builds(), 2u);

  // Revision 2 merges the direct groups of the first and last query in issue
  // order; revision 3 follows before any batch runs.
  const cfl::SchedulePlan before_merge = cfl::SchedulePlan::build(session.pag());
  const cfl::Schedule split = cfl::schedule_queries(before_merge, batch);
  const NodeId a = split.ordered.front();
  const NodeId b = split.ordered.back();
  ASSERT_NE(before_merge.group_root[a.value()],
            before_merge.group_root[b.value()]);
  {
    pag::Delta d(session.pag());
    d.add_edge(EdgeKind::kAssignLocal, a, b);
    apply(d);
  }
  {
    pag::Delta d(session.pag());
    const NodeId obj = d.add_node(NodeKind::kObject, session.pag().node(a).type,
                                  session.pag().node(a).method);
    d.add_edge(EdgeKind::kNew, b, obj);
    apply(d);
  }
  const cfl::SchedulePlan merged = cfl::SchedulePlan::build(session.pag());
  EXPECT_EQ(merged.group_root[a.value()], merged.group_root[b.value()]);
  EXPECT_NE(cfl::schedule_queries(merged, batch).ordered, split.ordered)
      << "the merge must change the schedule, or a stale plan would pass";
  check_batch(batch, "rev 3");
  check_batch(batch, "rev 3 again");
  EXPECT_EQ(session.schedule_plan_builds(), 3u);

  // Revision 4 removes the edge again and splits the group.
  {
    pag::Delta d(session.pag());
    d.remove_edge(EdgeKind::kAssignLocal, a, b);
    apply(d);
  }
  const cfl::SchedulePlan resplit = cfl::SchedulePlan::build(session.pag());
  EXPECT_NE(resplit.group_root[a.value()], resplit.group_root[b.value()]);
  EXPECT_NE(cfl::schedule_queries(resplit, batch).ordered,
            cfl::schedule_queries(merged, batch).ordered);
  check_batch(batch, "rev 4");
  check_batch(batch, "rev 4 again");
  EXPECT_EQ(session.schedule_plan_builds(), 4u);
  EXPECT_EQ(session.revision(), 4u);
}

/// var -> sorted points-to set from a cold sequential engine run.
std::map<std::uint32_t, std::vector<NodeId>> cold_baseline(
    const pag::Pag& pag, const std::vector<NodeId>& queries) {
  cfl::EngineOptions o;
  o.mode = cfl::Mode::kSequential;
  o.threads = 1;
  o.solver.budget = 200'000;
  o.solver.tau_finished = 10;
  o.solver.tau_unfinished = 100;
  o.collect_objects = true;
  const auto r = cfl::Engine(pag, o).run(queries);
  std::map<std::uint32_t, std::vector<NodeId>> m;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i)
    m[r.outcomes[i].var.value()] = r.objects[i];
  return m;
}

/// The tsan target: queries racing an update must each answer with either the
/// pre-update or the post-update truth — never a blend.
TEST(ServiceUpdate, ConcurrentQueriesSeeOldOrNewGraphNeverABlend) {
  const Workload w = container_workload();
  const pag::Delta delta = small_delta(w.pag, w.queries, 13);
  std::string error;
  auto mutated = pag::apply_delta(w.pag, delta, nullptr, &error);
  ASSERT_TRUE(mutated.has_value()) << error;

  const auto before = cold_baseline(w.pag, w.queries);
  const auto after = cold_baseline(*mutated, w.queries);

  const std::string delta_path =
      ::testing::TempDir() + "update_test_concurrent.delta";
  {
    std::ofstream out(delta_path);
    pag::write_delta(out, delta);
  }

  service::ServiceOptions options;
  options.session = session_options(2);
  options.max_linger = std::chrono::microseconds(100);
  service::QueryService svc(w.pag, options);

  std::atomic<std::uint64_t> blended{0};
  auto client = [&](std::uint64_t salt) {
    support::Rng rng(salt);
    for (int i = 0; i < 120; ++i) {
      const NodeId q = w.queries[rng.below(w.queries.size())];
      service::Request request;
      request.verb = service::Verb::kQuery;
      request.a = q;
      const service::Reply reply = svc.call(request);
      (void)svc.node_count();  // validation read racing the swap
      if (reply.status != service::Reply::Status::kOk) continue;
      const bool matches_before = reply.objects == before.at(q.value());
      const bool matches_after = reply.objects == after.at(q.value());
      if (!matches_before && !matches_after) ++blended;
    }
  };

  std::thread t1(client, 101);
  std::thread t2(client, 202);
  service::Request update;
  update.verb = service::Verb::kUpdate;
  update.path = delta_path;
  const service::Reply reply = svc.call(update);
  EXPECT_EQ(reply.status, service::Reply::Status::kOk);
  t1.join();
  t2.join();
  EXPECT_EQ(blended.load(), 0u);

  // After the dust settles, every answer is the post-update truth.
  for (const NodeId q : w.queries) {
    service::Request request;
    request.verb = service::Verb::kQuery;
    request.a = q;
    const service::Reply r = svc.call(request);
    ASSERT_EQ(r.status, service::Reply::Status::kOk);
    EXPECT_EQ(r.objects, after.at(q.value())) << "var " << q.value();
  }
}

// ---- Prefilter staleness across updates ------------------------------------

/// a --new--> oa, b --new--> ob: provably disjoint points-to sets.
struct DisjointPair {
  pag::Pag pag;
  NodeId a, b, oa, ob;
};

DisjointPair disjoint_pair() {
  pag::Pag::Builder b;
  b.set_counts(1, 1, 1, 1);
  DisjointPair g;
  g.a = b.add_local(pag::TypeId(0), pag::MethodId(0));
  g.b = b.add_local(pag::TypeId(0), pag::MethodId(0));
  g.oa = b.add_object(pag::TypeId(0), pag::MethodId(0));
  g.ob = b.add_object(pag::TypeId(0), pag::MethodId(0));
  b.new_edge(g.a, g.oa);
  b.new_edge(g.b, g.ob);
  g.pag = std::move(b).finalize();
  return g;
}

/// The prefilter rebuild runs asynchronously after an update; between the
/// graph swap and the rebuild landing, the session holds only the
/// old-revision result. The definite-no contract requires that window to
/// answer "don't know", never the stale truth — here every update flips the
/// ground truth between no-alias and alias, so any stale answer would be an
/// unsound kNo.
TEST(SessionUpdate, StalePrefilterNeverAnswersAcrossUpdates) {
  const DisjointPair g = disjoint_pair();
  service::Session session(g.pag, session_options(2));
  session.wait_for_prefilter();
  ASSERT_TRUE(session.prefilter_ready());
  EXPECT_TRUE(session.prefilter_no_alias(g.a, g.b));

  // Flip to aliasing: b also points to oa now (add-only → incremental path).
  pag::Delta make_alias(g.pag);
  make_alias.add_edge(EdgeKind::kNew, g.b, g.oa);
  std::string error;
  ASSERT_TRUE(session.update(make_alias, &error)) << error;

  // From this point no_alias(a, b) is untrue; whether the async rebuild has
  // landed yet or not, the session must not claim it.
  EXPECT_FALSE(session.prefilter_no_alias(g.a, g.b));
  session.wait_for_prefilter();
  EXPECT_TRUE(session.prefilter_ready());
  EXPECT_FALSE(session.prefilter_no_alias(g.a, g.b));
  const auto pf = session.prefilter_snapshot();
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf->revision(), session.revision());

  // Flip back via a removal (cold-rebuild path: the add-only flag is off
  // once any removal has been seen since the last build).
  pag::Delta unalias(session.node_count());
  unalias.remove_edge(EdgeKind::kNew, g.b, g.oa);
  ASSERT_TRUE(session.update(unalias, &error)) << error;
  // The truth is no-alias again, so both outcomes are legal here: false while
  // the stale rev-1 result is benched, true once the rev-2 rebuild lands. A
  // true answer is only permitted from a result covering the live revision.
  if (session.prefilter_no_alias(g.a, g.b)) {
    const auto snap = session.prefilter_snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->revision(), session.revision());
  }
  session.wait_for_prefilter();
  EXPECT_TRUE(session.prefilter_no_alias(g.a, g.b));

  // Churn without waiting: the invariant must hold at every revision, not
  // just after quiescence. On even rounds the pair aliases, so a true
  // answer at any point in those rounds would be a staleness bug.
  for (int round = 0; round < 8; ++round) {
    pag::Delta flip(session.node_count());
    if (round % 2 == 0)
      flip.add_edge(EdgeKind::kNew, g.b, g.oa);
    else
      flip.remove_edge(EdgeKind::kNew, g.b, g.oa);
    ASSERT_TRUE(session.update(flip, &error)) << error;
    if (round % 2 == 0) {
      EXPECT_FALSE(session.prefilter_no_alias(g.a, g.b)) << "round " << round;
    }
  }
  session.wait_for_prefilter();
  EXPECT_TRUE(session.prefilter_no_alias(g.a, g.b));  // round 7 removed it
}

/// run_batch answers a points-to item whose Andersen row is empty itself:
/// complete, no objects, no solver steps, one prefilter hit. Taint and
/// depends items on the same variable still solve, and while the rebuild
/// after an update is pending the points-to item solves and counts a miss.
TEST(SessionUpdate, ProvablyEmptyPointsToSkipsTheSolver) {
  pag::Pag::Builder b;
  b.set_counts(1, 1, 1, 1);
  const NodeId a = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId lonely = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId o = b.add_object(pag::TypeId(0), pag::MethodId(0));
  b.new_edge(a, o);
  const pag::Pag pag = std::move(b).finalize();

  service::Session::Options options = session_options(2);
  options.index = false;  // an index hit would answer ahead of the prefilter
  service::Session session(pag, options);
  ASSERT_TRUE(session.wait_for_prefilter());

  const service::Session::Item empty{lonely, 0, cfl::QueryKind::kPointsTo};
  const service::Session::BatchResult hit = session.run_batch({&empty, 1});
  ASSERT_EQ(hit.items.size(), 1u);
  EXPECT_EQ(hit.items[0].status, cfl::QueryStatus::kComplete);
  EXPECT_TRUE(hit.items[0].objects.empty());
  EXPECT_EQ(hit.items[0].charged_steps, 0u);
  EXPECT_EQ(hit.delta.prefilter_hits, 1u);
  EXPECT_EQ(hit.delta.prefilter_misses, 0u);
  EXPECT_EQ(hit.delta.queries, 0u);  // no solver ran
  EXPECT_EQ(session.lifetime_totals().prefilter_hits, 1u);

  // The prefilter proves points-to sets empty, nothing about flows.
  for (const cfl::QueryKind kind :
       {cfl::QueryKind::kTaint, cfl::QueryKind::kDepends}) {
    const service::Session::Item flow{lonely, 0, kind};
    const service::Session::BatchResult solved = session.run_batch({&flow, 1});
    EXPECT_EQ(solved.delta.queries, 1u);
    EXPECT_EQ(solved.delta.prefilter_hits, 0u);
    EXPECT_EQ(solved.delta.prefilter_misses, 0u);
  }

  // Hold the rebuild and commit an edit: the new revision has no prefilter.
  session.set_prefilter_paused(true);
  pag::Delta edit(pag);
  const NodeId fresh =
      edit.add_node(NodeKind::kObject, pag::TypeId(0), pag::MethodId(0));
  edit.add_edge(EdgeKind::kNew, a, fresh);
  std::string error;
  ASSERT_TRUE(session.update(edit, &error)) << error;
  EXPECT_FALSE(session.prefilter_ready());
  const service::Session::BatchResult pending = session.run_batch({&empty, 1});
  EXPECT_EQ(pending.items[0].status, cfl::QueryStatus::kComplete);
  EXPECT_TRUE(pending.items[0].objects.empty());
  EXPECT_EQ(pending.delta.queries, 1u);
  EXPECT_EQ(pending.delta.prefilter_hits, 0u);
  EXPECT_EQ(pending.delta.prefilter_misses, 1u);
  const support::QueryCounters totals = session.lifetime_totals();
  EXPECT_EQ(totals.prefilter_hits, 1u);
  EXPECT_EQ(totals.prefilter_misses, 1u);

  session.set_prefilter_paused(false);
  ASSERT_TRUE(session.wait_for_prefilter());
  EXPECT_EQ(session.run_batch({&empty, 1}).delta.prefilter_hits, 1u);
}

/// Same bar one layer up: the service dispatch short-circuits alias queries
/// through the prefilter, so a stale result would surface as a wrong kNo on
/// the wire. Before the update the short-circuit must fire (charged 0,
/// counted as a hit); after it, kNo must never appear again.
TEST(ServiceUpdate, AliasShortCircuitStaysSoundAcrossUpdate) {
  const DisjointPair g = disjoint_pair();
  service::ServiceOptions options;
  options.session = session_options(2);
  options.max_linger = std::chrono::microseconds(50);
  service::QueryService svc(g.pag, options);
  svc.session().wait_for_prefilter();

  service::Request alias;
  alias.verb = service::Verb::kAlias;
  alias.a = g.a;
  alias.b = g.b;
  const service::Reply before = svc.call(alias);
  ASSERT_EQ(before.status, service::Reply::Status::kOk);
  EXPECT_EQ(before.alias, cfl::Solver::AliasAnswer::kNo);
  EXPECT_EQ(before.charged_steps, 0u);  // served by the prefilter
  const auto s = svc.stats();
  EXPECT_TRUE(s.prefilter_ready);
  EXPECT_GE(s.engine.prefilter_hits, 1u);

  pag::Delta make_alias(g.pag);
  make_alias.add_edge(EdgeKind::kNew, g.b, g.oa);
  const std::string delta_path =
      ::testing::TempDir() + "update_test_prefilter.delta";
  {
    std::ofstream out(delta_path);
    pag::write_delta(out, make_alias);
  }
  service::Request update;
  update.verb = service::Verb::kUpdate;
  update.path = delta_path;
  ASSERT_EQ(svc.call(update).status, service::Reply::Status::kOk);

  // Hammer the alias query while the rebuild races: kNo would be unsound.
  for (int i = 0; i < 50; ++i) {
    const service::Reply after = svc.call(alias);
    ASSERT_EQ(after.status, service::Reply::Status::kOk);
    EXPECT_EQ(after.alias, cfl::Solver::AliasAnswer::kMay) << "iteration " << i;
  }
}

}  // namespace
}  // namespace parcfl
