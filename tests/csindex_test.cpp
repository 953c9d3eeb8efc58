// Passive reachability index tests (DESIGN.md §13).
//
//  * table — record() keeps one sorted entry per root with the lower cost,
//    honours the cap, find() is exact on hits and misses, and prune()
//    drops exactly the cone's roots and compacts the target pool;
//  * recording — run_batch records only complete points-to answers the
//    solver produced: partial answers, taint and depends answers are never
//    recorded, a repeat of a completed root is a hit at 0 charged steps
//    equal to the warm solver's answer, and a request budget below an
//    entry's recorded cost falls through to the solver;
//  * answer contract — with the index on, in every mode, warm or cold, any
//    per-item budget and across a random delta stream with removals, every
//    complete reply equals the exact oracle on the live revision and every
//    partial reply is a subset of it (DESIGN.md §8). A recorded cost is a
//    warm cost, so index-on may complete a reply index-off leaves partial;
//  * invalidation — an update drops exactly the entries whose root is in
//    the jmp invalidation cone (the set a scratch JmpStore evicts, across
//    seeds, reduction and field approximation, including entries coupled by
//    a field's first store), survivors keep hitting, and a dropped root is
//    recorded again by its next solve;
//  * persistence — a spill carries the warm jmp state but no index, and a
//    reopened session records answers again;
//  * churn — LRU eviction destroying sessions that record answers between
//    batches (the tsan target);
//  * stats — a revision-stale prefilter reports ready:false plus the
//    revision being built instead of a stale hit-rate, and the `index` wire
//    verb serves the csindex block end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cfl/csindex.hpp"
#include "cfl/invalidate.hpp"
#include "cfl/jmp_store.hpp"
#include "cfl/solver.hpp"
#include "oracle/oracle.hpp"
#include "pag/delta.hpp"
#include "pag/pag_io.hpp"
#include "pag/reduce.hpp"
#include "service/manager.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace parcfl {
namespace {

using pag::EdgeKind;
using pag::NodeId;
using pag::NodeKind;

constexpr std::uint32_t kLayers = 3;

cfl::SolverOptions cold_opts() {
  cfl::SolverOptions o;
  o.budget = 1'000'000;
  return o;
}

pag::Pag small_pag(std::uint64_t seed) {
  test::RandomPagConfig cfg;
  cfg.seed = seed;
  cfg.layers = kLayers;
  cfg.vars_per_layer = 4;
  cfg.objects = 4;
  cfg.assign_edges = 6;
  cfg.param_ret_edges = 5;
  cfg.heap_edge_pairs = 3;
  return test::random_layered_pag(cfg);
}

service::Session::Options session_options(cfl::Mode mode, bool index) {
  service::Session::Options o;
  o.engine.threads = 2;
  o.engine.mode = mode;
  o.engine.solver.budget = 1'000'000;
  // Miniature graphs: publish aggressively so sharing and the index both
  // have real entries to serve.
  o.engine.solver.tau_finished = 5;
  o.engine.solver.tau_unfinished = 50;
  o.prefilter = false;  // deterministic: no background solve racing tests
  o.reduce_graph = false;
  o.index = index;
  return o;
}

std::vector<service::Session::Item> items_of(const std::vector<NodeId>& vars,
                                             std::uint64_t budget = 0) {
  std::vector<service::Session::Item> items;
  for (const NodeId v : vars) items.push_back(service::Session::Item{v, budget});
  return items;
}

/// A cold solve's answer for `v`, as the session reports objects: sorted.
std::vector<NodeId> cold_objects(cfl::Solver& solver, NodeId v,
                                 cfl::QueryStatus* status = nullptr) {
  const auto r = solver.points_to(v);
  if (status != nullptr) *status = r.status;
  std::vector<NodeId> out;
  for (const NodeId n : r.nodes()) out.push_back(n);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> ids(const std::vector<NodeId>& nodes) {
  std::vector<std::uint32_t> out;
  for (const NodeId n : nodes) out.push_back(n.value());
  return out;
}

/// The answer contract (DESIGN.md §8): a complete reply is exactly the
/// oracle's answer, a partial one a subset of it. Returns true for partial.
bool check_contract(const oracle::ExactOracle& exact, NodeId v,
                    const service::Session::ItemResult& got,
                    const std::string& where) {
  const auto want = exact.points_to(v);
  const auto have = ids(got.objects);
  if (got.status == cfl::QueryStatus::kComplete) {
    EXPECT_EQ(have, want) << where << " var " << v.value();
    return false;
  }
  EXPECT_TRUE(
      std::includes(want.begin(), want.end(), have.begin(), have.end()))
      << where << " var " << v.value();
  return true;
}

/// Locals of a layered test graph, grouped by layer (= containing method).
std::vector<std::vector<NodeId>> vars_by_layer(const pag::Pag& pag) {
  std::vector<std::vector<NodeId>> out(kLayers);
  for (std::uint32_t n = 0; n < pag.node_count(); ++n) {
    const NodeId id(n);
    const auto& info = pag.node(id);
    if (info.kind == NodeKind::kLocal && info.method.valid() &&
        info.method.value() < kLayers)
      out[info.method.value()].push_back(id);
  }
  return out;
}

/// A small random delta preserving random_layered_pag's layering invariant:
/// new assign/new edges stay within one layer, plus a couple of removals.
pag::Delta small_delta(const pag::Pag& pag, std::uint64_t seed) {
  support::Rng rng(seed);
  auto layers = vars_by_layer(pag);
  auto pick = [&](const std::vector<NodeId>& v) {
    return v[rng.below(v.size())];
  };
  auto rand_layer = [&] {
    return static_cast<std::uint32_t>(rng.below(kLayers));
  };
  pag::Delta d(pag);
  for (std::uint64_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
    const std::uint32_t l = rand_layer();
    d.add_edge(EdgeKind::kAssignLocal, pick(layers[l]), pick(layers[l]));
  }
  if (rng.chance(0.6)) {
    const std::uint32_t l = rand_layer();
    const NodeId o =
        d.add_node(NodeKind::kObject, pag::TypeId(0), pag::MethodId(l));
    d.add_edge(EdgeKind::kNew, pick(layers[l]), o);
  }
  const auto edges = pag.edges();
  for (std::uint64_t i = 0, n = rng.below(3); i < n && !edges.empty(); ++i) {
    const pag::Edge& e = edges[rng.below(edges.size())];
    d.remove_edge(e.kind, e.dst, e.src, e.aux);
  }
  return d;
}

/// One step of a random delta stream: one or two additions within a layer,
/// sometimes a new allocation, and always one or two distinct removals.
pag::Delta stream_delta(const pag::Pag& pag, support::Rng& rng) {
  const auto layers = vars_by_layer(pag);
  auto pick = [&](const std::vector<NodeId>& v) {
    return v[rng.below(v.size())];
  };
  pag::Delta d(pag);
  for (std::uint64_t i = 0, n = 1 + rng.below(2); i < n; ++i) {
    const auto& layer = layers[rng.below(kLayers)];
    d.add_edge(EdgeKind::kAssignLocal, pick(layer), pick(layer));
  }
  if (rng.chance(0.5)) {
    const auto l = static_cast<std::uint32_t>(rng.below(kLayers));
    const NodeId o =
        d.add_node(NodeKind::kObject, pag::TypeId(0), pag::MethodId(l));
    d.add_edge(EdgeKind::kNew, pick(layers[l]), o);
  }
  const auto edges = pag.edges();
  const std::size_t first = rng.below(edges.size());
  const std::size_t second = rng.below(edges.size());
  d.remove_edge(edges[first].kind, edges[first].dst, edges[first].src,
                edges[first].aux);
  if (second != first && rng.chance(0.5))
    d.remove_edge(edges[second].kind, edges[second].dst, edges[second].src,
                  edges[second].aux);
  return d;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "csindex_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// The table

/// Every complete cold answer on `pag`, recorded into a fresh table.
cfl::CsIndex cold_table(const pag::Pag& pag, std::size_t max_entries = 4096) {
  cfl::CsIndex index(max_entries, pag.revision());
  cfl::ContextTable contexts;
  cfl::Solver solver(pag, contexts, nullptr, cold_opts());
  for (const NodeId v : test::all_variables(pag)) {
    cfl::QueryStatus status;
    const std::uint64_t before = solver.counters().charged_steps;
    const auto objects = cold_objects(solver, v, &status);
    if (status == cfl::QueryStatus::kComplete)
      index.record(v, objects, solver.counters().charged_steps - before);
  }
  return index;
}

TEST(CsIndexBuild, EntriesMatchColdSolveAndFindIsExact) {
  const pag::Pag pag = small_pag(1);
  const cfl::CsIndex index = cold_table(pag);
  ASSERT_GT(index.entries().size(), 0u);
  EXPECT_TRUE(std::is_sorted(
      index.entries().begin(), index.entries().end(),
      [](const auto& a, const auto& b) { return a.root < b.root; }));

  cfl::ContextTable contexts;
  cfl::Solver solver(pag, contexts, nullptr, cold_opts());
  for (const auto& e : index.entries()) {
    cfl::QueryStatus status;
    const auto expect = cold_objects(solver, e.root, &status);
    ASSERT_EQ(status, cfl::QueryStatus::kComplete) << e.root.value();
    const auto got = index.targets(e);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin(),
                           expect.end()))
        << "var " << e.root.value();
    const auto* found = index.find(e.root);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->root, e.root);
  }
  EXPECT_EQ(index.find(NodeId(pag.node_count() + 7)), nullptr);
  const cfl::CsIndexStats stats = index.stats();
  EXPECT_EQ(stats.entries, index.entries().size());
  EXPECT_EQ(stats.revision, pag.revision());
  EXPECT_GT(stats.memory_bytes, 0u);
}

TEST(CsIndexBuild, RecordKeepsTheLowerCostAndHonoursTheCap) {
  cfl::CsIndex index(/*max_entries=*/2, /*revision=*/0);
  const std::vector<NodeId> a = {NodeId(3), NodeId(5)};
  const std::vector<NodeId> b = {NodeId(4)};
  EXPECT_TRUE(index.record(NodeId(9), a, 40));
  // A second answer for the same root keeps the objects and the lower cost.
  EXPECT_FALSE(index.record(NodeId(9), b, 12));
  EXPECT_FALSE(index.record(NodeId(9), b, 30));
  const auto* e = index.find(NodeId(9));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->cost, 12u);
  const auto run = index.targets(*e);
  EXPECT_EQ(std::vector<NodeId>(run.begin(), run.end()), a);

  EXPECT_TRUE(index.record(NodeId(2), b, 1));
  EXPECT_EQ(index.entries().front().root, NodeId(2));  // kept root-sorted
  // Full: a new root is not recorded, an old one still lowers its cost.
  EXPECT_FALSE(index.record(NodeId(7), b, 1));
  EXPECT_EQ(index.find(NodeId(7)), nullptr);
  EXPECT_FALSE(index.record(NodeId(9), a, 5));
  EXPECT_EQ(index.find(NodeId(9))->cost, 5u);
  // A cost beyond 32 bits is not recorded.
  cfl::CsIndex roomy(4, 0);
  EXPECT_FALSE(roomy.record(NodeId(1), a, std::uint64_t{1} << 32));
  EXPECT_EQ(roomy.entries().size(), 0u);
}

TEST(CsIndexBuild, PruneDropsConeRootsAndCompactsTargetPool) {
  const pag::Pag pag = small_pag(3);
  const cfl::CsIndex original = cold_table(pag);
  ASSERT_GT(original.entries().size(), 2u);

  // Mark the first entry's root; leave the cone one node short, so the
  // last node counts as beyond it.
  cfl::CsIndex index = original;
  std::vector<std::uint8_t> cone(pag.node_count() - 1, 0);
  const NodeId marked = original.entries().front().root;
  cone[marked.value()] = 1;
  const bool last_indexed =
      original.find(NodeId(pag.node_count() - 1)) != nullptr;
  const std::size_t dropped = index.prune(cone, /*revision=*/1);
  EXPECT_EQ(dropped, 1u + (last_indexed ? 1u : 0u));
  EXPECT_EQ(index.revision(), 1u);
  EXPECT_EQ(index.entries().size(), original.entries().size() - dropped);
  EXPECT_EQ(index.find(marked), nullptr);
  // Surviving entries keep their exact targets through pool compaction.
  std::uint64_t pool = 0;
  for (const auto& e : index.entries()) {
    const auto* orig = original.find(e.root);
    ASSERT_NE(orig, nullptr);
    const auto a = index.targets(e);
    const auto b = original.targets(*orig);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    EXPECT_EQ(e.cost, orig->cost);
    pool += e.target_len;
  }
  EXPECT_EQ(index.stats().targets, pool);
}

/// A minimal field-coupling fixture: x = q.f0 feeds z, while s and y sit
/// apart with *no* store or load on any field. Adding the first store
/// s.f0 = y couples — under field approximation — to the load destination x
/// (and so to z) through f0's hub, with neither store endpoint owning a
/// build-time edge on f0.
struct FieldCouplingPag {
  pag::Pag pag;
  NodeId q, x, z, s, y, ob, oy;
};

FieldCouplingPag field_coupling_pag() {
  pag::Pag::Builder b;
  b.set_counts(/*fields=*/2, /*call_sites=*/1, /*types=*/1, /*methods=*/1);
  const NodeId q = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId x = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId z = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId s = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId y = b.add_local(pag::TypeId(0), pag::MethodId(0));
  const NodeId ob = b.add_object(pag::TypeId(0), pag::MethodId(0));
  const NodeId oy = b.add_object(pag::TypeId(0), pag::MethodId(0));
  b.new_edge(q, ob);
  b.new_edge(y, oy);
  b.load(x, q, pag::FieldId(0));
  b.assign_local(z, x);
  return {std::move(b).finalize(), q, x, z, s, y, ob, oy};
}

// ---------------------------------------------------------------------------
// Recording and serving

// A repeat of a root that completed is a hit at 0 charged steps, and the hit
// equals what the warm solver answers for the same root.
TEST(CsIndexSession, HitsServeCompleteAnswersAtZeroChargedSteps) {
  const pag::Pag pag = small_pag(4);
  const auto vars = test::all_variables(pag);
  const auto items = items_of(vars);

  service::Session off(pag, session_options(cfl::Mode::kSequential, false));
  off.run_batch(items);
  const auto warm = off.run_batch(items).items;

  service::Session on(pag, session_options(cfl::Mode::kSequential, true));
  const auto first = on.run_batch(items).items;
  std::uint64_t completed = 0;
  for (const auto& r : first)
    completed += r.status == cfl::QueryStatus::kComplete ? 1 : 0;
  ASSERT_GT(completed, 0u);
  const auto info = on.index_info();
  EXPECT_TRUE(info.enabled);
  EXPECT_EQ(info.entries, completed);
  EXPECT_EQ(info.builds, completed);
  EXPECT_EQ(info.hits, 0u);

  const auto got = on.run_batch(items).items;
  ASSERT_EQ(got.size(), warm.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (first[i].status != cfl::QueryStatus::kComplete) continue;
    EXPECT_EQ(got[i].status, cfl::QueryStatus::kComplete) << vars[i].value();
    EXPECT_EQ(got[i].charged_steps, 0u) << vars[i].value();
    ASSERT_EQ(warm[i].status, cfl::QueryStatus::kComplete) << vars[i].value();
    EXPECT_EQ(got[i].objects, warm[i].objects) << vars[i].value();
  }
  EXPECT_EQ(on.index_info().hits, completed);
}

TEST(CsIndexSession, PartialAnswersAreNeverRecorded) {
  const pag::Pag pag = small_pag(11);
  const auto vars = test::all_variables(pag);
  service::Session s(pag, session_options(cfl::Mode::kSequential, true));
  // Budget 1 leaves every root with an edge to walk partial.
  const auto tight = s.run_batch(items_of(vars, 1)).items;
  std::vector<NodeId> partial;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (tight[i].status == cfl::QueryStatus::kComplete) ++completed;
    else partial.push_back(vars[i]);
  }
  ASSERT_GT(partial.size(), 0u);
  EXPECT_EQ(s.index_info().entries, completed);
  // With room to complete, each partial root still misses the index.
  for (const NodeId v : partial) {
    const std::uint64_t hits = s.index_info().hits;
    const auto r = s.run_batch(items_of({v})).items;
    EXPECT_EQ(s.index_info().hits, hits) << v.value();
    EXPECT_EQ(r[0].status, cfl::QueryStatus::kComplete) << v.value();
  }
}

TEST(CsIndexSession, TaintAndDependsAnswersAreNeverRecorded) {
  const pag::Pag pag = small_pag(12);
  const auto vars = test::all_variables(pag);
  service::Session s(pag, session_options(cfl::Mode::kDataSharing, true));
  std::vector<service::Session::Item> flows;
  for (const NodeId v : vars) {
    flows.push_back({v, 0, cfl::QueryKind::kTaint});
    flows.push_back({v, 0, cfl::QueryKind::kDepends});
  }
  std::uint64_t completed = 0;
  for (const auto& r : s.run_batch(flows).items)
    completed += r.status == cfl::QueryStatus::kComplete ? 1 : 0;
  ASSERT_GT(completed, 0u);
  // Flow items neither probe nor fill the index.
  auto info = s.index_info();
  EXPECT_EQ(info.entries, 0u);
  EXPECT_EQ(info.builds, 0u);
  EXPECT_EQ(info.hits + info.misses, 0u);
  // The first points-to batch over the same roots solves every one of them.
  s.run_batch(items_of(vars));
  info = s.index_info();
  EXPECT_EQ(info.hits, 0u);
  EXPECT_EQ(info.misses, vars.size());
  // A flow repeat after that is still solved, not answered from the index.
  s.run_batch(flows);
  info = s.index_info();
  EXPECT_EQ(info.hits, 0u);
  EXPECT_EQ(info.misses, vars.size());
}

TEST(CsIndexSession, BudgetBelowRecordedCostFallsThroughToTheSolver) {
  const pag::Pag pag = small_pag(13);
  const auto vars = test::all_variables(pag);
  service::Session s(pag, session_options(cfl::Mode::kSequential, true));
  const auto first = s.run_batch(items_of(vars)).items;
  // The costliest completed root: its recorded cost is its charged steps.
  std::size_t at = vars.size();
  for (std::size_t i = 0; i < vars.size(); ++i)
    if (first[i].status == cfl::QueryStatus::kComplete &&
        (at == vars.size() ||
         first[i].charged_steps > first[at].charged_steps))
      at = i;
  ASSERT_LT(at, vars.size());
  const std::uint64_t cost = first[at].charged_steps;
  ASSERT_GE(cost, 2u);
  const oracle::ExactOracle exact(pag);

  const auto before = s.index_info();
  const auto below = s.run_batch(items_of({vars[at]}, cost - 1)).items;
  auto after = s.index_info();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);
  check_contract(exact, vars[at], below[0], "below cost");

  // A budget that covers the recorded cost is a hit. (The solve above may
  // have lowered the recorded cost; the hit needs no more than `cost`.)
  const auto covered = s.run_batch(items_of({vars[at]}, cost)).items;
  EXPECT_EQ(s.index_info().hits, after.hits + 1);
  EXPECT_EQ(covered[0].charged_steps, 0u);
  EXPECT_EQ(covered[0].objects, first[at].objects);
}

// ---------------------------------------------------------------------------
// The answer contract

class CsIndexMetamorphic : public ::testing::TestWithParam<std::uint64_t> {};

// Index-on replies keep the answer contract in all four modes, warm and
// cold, across seeds: complete replies equal the exact oracle (so index-on
// and index-off agree wherever both complete), partial replies are subsets
// of it, and every warm repeat of a root that completed cold is a 0-step hit.
TEST_P(CsIndexMetamorphic, IndexOnEqualsIndexOffAcrossModesWarmAndCold) {
  const pag::Pag pag = small_pag(GetParam());
  const auto vars = test::all_variables(pag);
  const auto items = items_of(vars);
  const oracle::ExactOracle exact(pag);
  for (const cfl::Mode mode :
       {cfl::Mode::kSequential, cfl::Mode::kNaive, cfl::Mode::kDataSharing,
        cfl::Mode::kDataSharingScheduling}) {
    const std::string where = "mode " + std::to_string(static_cast<int>(mode));
    service::Session off(pag, session_options(mode, false));
    const auto cold_off = off.run_batch(items).items;
    const auto warm_off = off.run_batch(items).items;

    service::Session on(pag, session_options(mode, true));
    const auto cold_on = on.run_batch(items).items;
    const auto warm_on = on.run_batch(items).items;

    ASSERT_EQ(cold_on.size(), vars.size());
    ASSERT_EQ(warm_on.size(), vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i) {
      check_contract(exact, vars[i], cold_off[i], where + " cold off");
      check_contract(exact, vars[i], warm_off[i], where + " warm off");
      check_contract(exact, vars[i], cold_on[i], where + " cold on");
      check_contract(exact, vars[i], warm_on[i], where + " warm on");
      if (cold_on[i].status != cfl::QueryStatus::kComplete) continue;
      EXPECT_EQ(warm_on[i].status, cfl::QueryStatus::kComplete)
          << where << " var " << vars[i].value();
      EXPECT_EQ(warm_on[i].charged_steps, 0u)
          << where << " var " << vars[i].value();
      EXPECT_EQ(warm_on[i].objects, cold_on[i].objects)
          << where << " var " << vars[i].value();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsIndexMetamorphic,
                         ::testing::Range<std::uint64_t>(1, 13));

// An index hit is served only when the request's effective budget covers
// the recorded cost, so a budget-1 query cannot complete by lookup. The
// recorded cost is the cheapest complete solve seen, which under a warm
// store may undercut index-off's solve: index-on may then complete where
// index-off stays partial, but no reply ever widens past the oracle.
TEST(CsIndexSession, TightBudgetsNeverWidenAnswers) {
  const pag::Pag pag = small_pag(5);
  const auto vars = test::all_variables(pag);
  const oracle::ExactOracle exact(pag);
  service::Session off(pag, session_options(cfl::Mode::kSequential, false));
  service::Session on(pag, session_options(cfl::Mode::kSequential, true));
  // Recorded cost per root: the lowest charge of a solver-completed reply.
  std::map<std::uint32_t, std::uint64_t> cost;
  std::map<std::uint32_t, std::vector<NodeId>> answer;
  const auto note = [&](const std::vector<service::Session::ItemResult>& rs,
                        const std::vector<bool>& hit) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (hit[i] || rs[i].status != cfl::QueryStatus::kComplete) continue;
      const auto [it, fresh] =
          cost.try_emplace(vars[i].value(), rs[i].charged_steps);
      if (!fresh) it->second = std::min(it->second, rs[i].charged_steps);
      answer[vars[i].value()] = rs[i].objects;
    }
  };
  note(on.run_batch(items_of(vars)).items, std::vector<bool>(vars.size()));
  ASSERT_FALSE(cost.empty());

  for (const std::uint64_t budget : {1ull, 2ull, 8ull, 64ull}) {
    const std::string where = "budget " + std::to_string(budget);
    const auto items = items_of(vars, budget);
    const auto expect = off.run_batch(items).items;
    std::vector<bool> hit(vars.size());
    std::uint64_t want_hits = 0;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const auto it = cost.find(vars[i].value());
      hit[i] = it != cost.end() && it->second <= budget;
      want_hits += hit[i] ? 1 : 0;
    }
    const std::uint64_t hits = on.index_info().hits;
    const auto got = on.run_batch(items).items;
    EXPECT_EQ(on.index_info().hits - hits, want_hits) << where;
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      check_contract(exact, vars[i], got[i], where + " on");
      check_contract(exact, vars[i], expect[i], where + " off");
      if (hit[i]) {
        EXPECT_EQ(got[i].charged_steps, 0u) << where << " var " << i;
        EXPECT_EQ(got[i].objects, answer[vars[i].value()]) << where;
      } else if (got[i].status == cfl::QueryStatus::kComplete) {
        EXPECT_LE(got[i].charged_steps, budget) << where << " var " << i;
      }
    }
    note(got, hit);
  }
}

// The contract under updates: 12 seeds, a random delta stream with
// removals, the index on, tight and default budgets, every mode in turn.
// Every complete reply equals the exact oracle on the live revision, every
// partial reply is a subset of it.
TEST(CsIndexSession, RepliesKeepTheAnswerContractAcrossADeltaStream) {
  constexpr std::uint64_t kTightBudget = 24;
  std::uint64_t hits = 0, partial = 0, invalidated = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    pag::Pag pag = small_pag(seed);
    const cfl::Mode mode = static_cast<cfl::Mode>(seed % 4);
    auto opts = session_options(mode, true);
    opts.reduce_graph = seed % 2 == 0;
    opts.engine.solver.tau_finished = 2;
    opts.engine.solver.tau_unfinished = 2;
    service::Session s(pag, opts);
    support::Rng rng(seed * 7919 + 11);
    for (int step = 0; step <= 3; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const oracle::ExactOracle exact(pag);
      const auto vars = test::all_variables(pag);
      for (int round = 0; round < 2; ++round)
        for (const std::uint64_t budget : {kTightBudget, std::uint64_t{0}}) {
          const auto got = s.run_batch(items_of(vars, budget)).items;
          ASSERT_EQ(got.size(), vars.size());
          for (std::size_t i = 0; i < vars.size(); ++i)
            partial += check_contract(exact, vars[i], got[i], where) ? 1 : 0;
        }
      if (step == 3) break;
      const pag::Delta d = stream_delta(pag, rng);
      std::string error;
      std::optional<pag::Pag> next = pag::apply_delta(pag, d, nullptr, &error);
      ASSERT_TRUE(next.has_value()) << where << ": " << error;
      ASSERT_TRUE(s.update(d, &error)) << where << ": " << error;
      pag = std::move(*next);
      ASSERT_EQ(s.index_info().revision, pag.revision()) << where;
    }
    hits += s.index_info().hits;
    invalidated += s.index_info().invalidated;
  }
  // The sweep exercised what it claims to: hits, drops and partial replies.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(invalidated, 0u);
  EXPECT_GT(partial, 0u);
}

// ---------------------------------------------------------------------------
// Updates

TEST(CsIndexSession, UpdateInvalidatesCoveredEntriesAndKeepsIdentity) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const pag::Pag pag = small_pag(seed);
    const auto vars = test::all_variables(pag);
    const auto items = items_of(vars);

    service::Session off(pag, session_options(cfl::Mode::kDataSharing, false));
    service::Session on(pag, session_options(cfl::Mode::kDataSharing, true));
    on.run_batch(items);
    ASSERT_GT(on.index_info().entries, 0u);

    const pag::Delta d = small_delta(pag, seed * 97 + 13);
    std::string error;
    ASSERT_TRUE(off.update(d, &error)) << error;
    ASSERT_TRUE(on.update(d, &error)) << error;
    // The delta touches recorded roots (its assign endpoints are existing
    // locals, all of which completed), so the cone prune must have fired.
    EXPECT_GT(on.index_info().invalidated, 0u);

    const auto expect = off.run_batch(items).items;
    const auto got = on.run_batch(items).items;
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, expect[i].status)
          << "seed " << seed << " var " << vars[i].value();
      EXPECT_EQ(got[i].objects, expect[i].objects)
          << "seed " << seed << " var " << vars[i].value();
    }
  }
}

TEST(CsIndexSession, FirstStoreOnFieldKeepsIdentityUnderFieldApproximation) {
  // Regression: with field approximation on, a delta adding a field's
  // *first* store couples to every load destination of that field with no
  // alias walk. Neither store endpoint has a build-time edge on the field,
  // so a prune seeded from the endpoints alone drops nothing, and the
  // surviving load-destination entries would serve stale kComplete answers.
  const FieldCouplingPag g = field_coupling_pag();
  auto opts_of = [](bool index) {
    auto o = session_options(cfl::Mode::kSequential, index);
    o.engine.solver.field_approximation = true;
    return o;
  };
  service::Session off(g.pag, opts_of(false));
  service::Session on(g.pag, opts_of(true));
  const std::vector<NodeId> vars = {g.q, g.x, g.z, g.s, g.y};
  const auto items = items_of(vars);
  // Record only the load side: the store endpoints s and y must NOT be
  // entries, so that only the cone's field coupling can drop x and z.
  on.run_batch(items_of({g.q, g.x, g.z}));
  ASSERT_EQ(on.index_info().entries, 3u);

  pag::Delta d(g.pag);
  d.add_edge(EdgeKind::kStore, /*dst=base*/ g.s, /*src=value*/ g.y,
             /*aux=field*/ 0);
  std::string error;
  ASSERT_TRUE(off.update(d, &error)) << error;
  ASSERT_TRUE(on.update(d, &error)) << error;

  const auto expect = off.run_batch(items).items;
  const auto got = on.run_batch(items).items;
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, expect[i].status) << vars[i].value();
    EXPECT_EQ(got[i].objects, expect[i].objects) << vars[i].value();
  }
  // The approximation matches the new store against the load with no alias
  // test, so x (and z through the assign) must now see oy.
  EXPECT_EQ(got[1].objects, std::vector<NodeId>{g.oy});
  EXPECT_EQ(got[2].objects, std::vector<NodeId>{g.oy});
}

/// Does `update(delta)` drop `root`'s entry? The session records only that
/// root, so its lifetime `invalidated` count (0 or 1) is the answer.
bool update_drops(const pag::Pag& pag, const service::Session::Options& opts,
                  NodeId root, const pag::Delta& delta) {
  service::Session s(pag, opts);
  s.run_batch(items_of({root}));
  EXPECT_EQ(s.index_info().entries, 1u) << "root " << root.value();
  std::string error;
  EXPECT_TRUE(s.update(delta, &error)) << error;
  return s.index_info().invalidated != 0;
}

TEST(CsIndexSession, UpdateDropsTouchedRootAndKeepsUnreachedRoot) {
  // Adding z = s touches z itself; y's backward walk (y = new oy) reaches
  // neither endpoint, before or after the change.
  const FieldCouplingPag g = field_coupling_pag();
  const auto opts = session_options(cfl::Mode::kSequential, true);
  pag::Delta d(g.pag);
  d.add_edge(EdgeKind::kAssignLocal, /*dst=*/g.z, /*src=*/g.s);
  EXPECT_TRUE(update_drops(g.pag, opts, g.z, d));
  EXPECT_FALSE(update_drops(g.pag, opts, g.y, d));
}

TEST(CsIndexSession, FirstStoreOnFieldDropsCoupledEntriesUnderFieldApprox) {
  // The first store s.f0 = y has no endpoint on x's or z's backward walk,
  // but field approximation matches it against the load x = q.f0 with no
  // alias walk: x and z must go, q (the load's base) stays. Without the
  // approximation nothing couples and nothing is dropped.
  const FieldCouplingPag g = field_coupling_pag();
  pag::Delta d(g.pag);
  d.add_edge(EdgeKind::kStore, /*dst=base*/ g.s, /*src=value*/ g.y,
             /*aux=field*/ 0);
  auto opts = session_options(cfl::Mode::kSequential, true);
  opts.engine.solver.field_approximation = true;
  EXPECT_TRUE(update_drops(g.pag, opts, g.x, d));
  EXPECT_TRUE(update_drops(g.pag, opts, g.z, d));
  EXPECT_FALSE(update_drops(g.pag, opts, g.q, d));
  opts.engine.solver.field_approximation = false;
  EXPECT_FALSE(update_drops(g.pag, opts, g.x, d));
  EXPECT_FALSE(update_drops(g.pag, opts, g.z, d));
}

bool edge_less(const pag::Edge& a, const pag::Edge& b) {
  return std::tie(a.kind, a.dst, a.src, a.aux) <
         std::tie(b.kind, b.dst, b.src, b.aux);
}

/// Edges of `a` missing from `b`.
std::vector<pag::Edge> edges_minus(const pag::Pag& a, const pag::Pag& b) {
  std::vector<pag::Edge> ea(a.edges().begin(), a.edges().end());
  std::vector<pag::Edge> eb(b.edges().begin(), b.edges().end());
  std::sort(ea.begin(), ea.end(), edge_less);
  std::sort(eb.begin(), eb.end(), edge_less);
  std::vector<pag::Edge> out;
  std::set_difference(ea.begin(), ea.end(), eb.begin(), eb.end(),
                      std::back_inserter(out), edge_less);
  return out;
}

/// The roots a scratch JmpStore evicts for `delta` when it holds one finished
/// context-empty backward entry per root (sorted roots in, sorted roots out).
/// With reduction on, the cone seeds from the serving-graph edge diff plus
/// the client's node tombstones, as the session's own eviction does.
std::vector<NodeId> jmp_store_drops(const pag::Pag& base,
                                    const pag::Delta& delta, bool reduce,
                                    bool field_approx,
                                    const std::vector<NodeId>& roots) {
  const auto serving = [&](const pag::Pag& g) {
    return reduce ? pag::reduce_unmatched_parens(g) : g;
  };
  const pag::Pag old_pag = serving(base);
  const std::optional<pag::Pag> next = pag::apply_delta(base, delta);
  EXPECT_TRUE(next.has_value());
  if (!next) return {};
  const pag::Pag new_pag = serving(*next);
  pag::Delta seeds(old_pag.node_count());
  if (reduce) {
    for (const pag::Edge& e : edges_minus(old_pag, new_pag))
      seeds.remove_edge(e.kind, e.dst, e.src, e.aux);
    for (const pag::Edge& e : edges_minus(new_pag, old_pag))
      seeds.add_edge(e.kind, e.dst, e.src, e.aux);
    for (const NodeId n : delta.removed_nodes()) seeds.remove_node(n);
  }

  const auto jmp_key = [](NodeId root) {
    return cfl::JmpStore::key(cfl::Direction::kBackward, root,
                              cfl::ContextTable::empty());
  };
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  for (const NodeId r : roots) store.insert_finished(jmp_key(r), 1, {});
  cfl::InvalidateOptions io;
  io.field_approximation = field_approx;
  cfl::invalidate_sharing_state(old_pag, new_pag, reduce ? seeds : delta,
                                contexts, store, io);
  std::vector<NodeId> dropped;
  for (const NodeId r : roots) {
    cfl::JmpStore::Lookup lookup;
    if (!store.lookup(jmp_key(r), lookup)) dropped.push_back(r);
  }
  return dropped;
}

/// small_delta plus one store or load on a random field within one layer,
/// so field-approximation coupling has something to couple.
pag::Delta contract_delta(const pag::Pag& pag, std::uint64_t seed) {
  pag::Delta d = small_delta(pag, seed * 131 + 7);
  support::Rng rng(seed);
  const auto layers = vars_by_layer(pag);
  const auto& vars = layers[rng.below(kLayers)];
  const NodeId a = vars[rng.below(vars.size())];
  const NodeId b = vars[rng.below(vars.size())];
  d.add_edge(rng.chance(0.5) ? EdgeKind::kStore : EdgeKind::kLoad, a, b,
             static_cast<std::uint32_t>(rng.below(pag.field_count())));
  return d;
}

/// The roots the session records on `pag`: those a cold solve completes.
std::vector<NodeId> recordable_roots(const pag::Pag& pag, bool reduce,
                                     bool field_approx) {
  const pag::Pag serving = reduce ? pag::reduce_unmatched_parens(pag) : pag;
  cfl::SolverOptions cold = cold_opts();
  cold.field_approximation = field_approx;
  cfl::ContextTable contexts;
  cfl::Solver solver(serving, contexts, nullptr, cold);
  std::vector<NodeId> roots;
  for (const NodeId v : test::all_variables(pag)) {
    cfl::QueryStatus status;
    cold_objects(solver, v, &status);
    if (status == cfl::QueryStatus::kComplete) roots.push_back(v);
  }
  return roots;
}

// The update contract: an update drops exactly the entries whose root the
// jmp invalidation cone marks — the set a JmpStore holding one finished
// backward entry per recorded root evicts for the same delta. No fewer
// (soundness) and no more (a coarser second cone throws away answers the
// jmp store keeps), across seeds, with and without reduction and field
// approximation.
TEST(CsIndexSession, UpdateDropsExactlyTheJmpStoreEvictions) {
  for (const bool reduce : {false, true}) {
    for (const bool field_approx : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const pag::Pag pag = small_pag(seed);
        const pag::Delta d = contract_delta(pag, seed);
        auto opts = session_options(cfl::Mode::kSequential, true);
        opts.engine.threads = 1;
        opts.reduce_graph = reduce;
        opts.engine.solver.field_approximation = field_approx;
        const auto roots = recordable_roots(pag, reduce, field_approx);
        ASSERT_FALSE(roots.empty());
        const auto expect = jmp_store_drops(pag, d, reduce, field_approx, roots);
        for (const NodeId root : roots) {
          EXPECT_EQ(update_drops(pag, opts, root, d),
                    std::binary_search(expect.begin(), expect.end(), root))
              << "seed " << seed << " reduce " << reduce << " field_approx "
              << field_approx << " root " << root.value();
        }
      }
    }
  }
}

// After an update drops k of the n entries, exactly those k roots are
// solved again: the survivors hit at 0 charged steps, each dropped root
// misses once and its complete solve records it again, so the next repeat
// of every root is a hit. Every answer equals a cold solve on the new graph.
TEST(CsIndexSession, UpdateReSolvesOnlyTheDroppedEntries) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const pag::Pag pag = small_pag(seed);
    const pag::Delta d = contract_delta(pag, seed);
    auto opts = session_options(cfl::Mode::kSequential, true);
    opts.engine.threads = 1;
    const auto vars = test::all_variables(pag);
    const auto roots = recordable_roots(pag, false, false);
    const auto dropped = jmp_store_drops(pag, d, false, false, roots);
    if (dropped.empty() || dropped.size() == roots.size()) continue;
    ++checked;

    service::Session s(pag, opts);
    s.run_batch(items_of(vars));
    ASSERT_EQ(s.index_info().entries, roots.size()) << "seed " << seed;

    std::string error;
    ASSERT_TRUE(s.update(d, &error)) << error;
    const auto after = s.index_info();
    EXPECT_EQ(after.invalidated, dropped.size()) << "seed " << seed;
    EXPECT_EQ(after.entries, roots.size() - dropped.size()) << "seed " << seed;

    const std::optional<pag::Pag> next = pag::apply_delta(pag, d);
    ASSERT_TRUE(next.has_value());
    cfl::ContextTable contexts;
    cfl::Solver cold(*next, contexts, nullptr, opts.engine.solver);
    for (int pass = 0; pass < 2; ++pass) {
      const auto got = s.run_batch(items_of(vars)).items;
      ASSERT_EQ(got.size(), vars.size());
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const bool was_dropped =
            std::binary_search(dropped.begin(), dropped.end(), vars[i]);
        const bool survivor =
            !was_dropped &&
            std::binary_search(roots.begin(), roots.end(), vars[i]);
        cfl::QueryStatus status;
        const auto expect = cold_objects(cold, vars[i], &status);
        EXPECT_EQ(got[i].status, status)
            << "seed " << seed << " var " << vars[i].value();
        EXPECT_EQ(got[i].objects, expect)
            << "seed " << seed << " var " << vars[i].value();
        // Pass 0 solves only the dropped roots; pass 1 solves none of them.
        if (survivor || (pass == 1 && was_dropped)) {
          EXPECT_EQ(got[i].charged_steps, 0u)
              << "seed " << seed << " pass " << pass << " var "
              << vars[i].value();
        }
      }
      const auto info = s.index_info();
      if (pass == 0) {
        EXPECT_EQ(info.hits - after.hits, roots.size() - dropped.size())
            << "seed " << seed;
        EXPECT_EQ(info.entries, roots.size()) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(checked, 0u) << "no seed dropped a proper subset of the entries";
}

// ---------------------------------------------------------------------------
// Persistence

TEST(CsIndexSession, SpillKeepsJmpStateAndReopenRecordsAnswersAgain) {
  const pag::Pag pag = small_pag(6);
  const auto vars = test::all_variables(pag);
  const std::string dir = fresh_dir("spill");

  std::uint64_t recorded = 0;
  std::uint64_t spilled_jmp_entries = 0;
  {
    service::Session s(pag, session_options(cfl::Mode::kDataSharing, true));
    s.run_batch(items_of(vars));
    recorded = s.index_info().entries;
    ASSERT_GT(recorded, 0u);
    spilled_jmp_entries = s.store().entry_count();
    bool wrote_pag = false;
    std::string error;
    ASSERT_TRUE(
        s.spill(dir + "/s.state", dir + "/s.pag", &wrote_pag, &error))
        << error;
  }
  // The spill is the warm jmp state alone: no hot section, flags 0.
  {
    std::ifstream in(dir + "/s.state", std::ios::binary);
    std::string header(72, '\0');
    ASSERT_TRUE(in.read(header.data(), 72));
    std::uint32_t flags = 1, hot_count = 1;
    std::memcpy(&flags, header.data() + 64, sizeof flags);
    std::memcpy(&hot_count, header.data() + 68, sizeof hot_count);
    EXPECT_EQ(flags, 0u);
    EXPECT_EQ(hot_count, 0u);
  }

  // The reopened session starts warm with an empty index, and records the
  // same roots again as its solver completes them.
  auto o = session_options(cfl::Mode::kDataSharing, true);
  o.state_path = dir + "/s.state";
  service::Session reopened(pag, std::move(o));
  EXPECT_FALSE(reopened.warm_start_stale());
  EXPECT_EQ(reopened.store().entry_count(), spilled_jmp_entries);
  EXPECT_EQ(reopened.index_info().entries, 0u);
  reopened.run_batch(items_of(vars));
  EXPECT_EQ(reopened.index_info().entries, recorded);
  EXPECT_EQ(reopened.index_info().hits, 0u);
}

// ---------------------------------------------------------------------------
// Churn (the tsan target)

// LRU eviction destroys sessions whose batches record answers, while other
// threads lease, query and read index stats; nothing may race or leak.
TEST(CsIndexSession, EvictionUnderChurnAbandonsBuildsCleanly) {
  const pag::Pag pag = small_pag(7);
  const auto vars = test::all_variables(pag);
  const std::string dir = fresh_dir("churn");
  const std::string pag_path = dir + "/g.pag";
  {
    std::ofstream os(pag_path);
    pag::write_pag(os, pag);
    ASSERT_TRUE(os.good());
  }
  service::SessionManager::Options mo;
  mo.session = session_options(cfl::Mode::kDataSharingScheduling, true);
  mo.max_resident = 1;  // tight cap: every alternation evicts mid-anything
  mo.spill_dir = dir;
  service::SessionManager mgr(mo);
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error)) << error;
  ASSERT_TRUE(mgr.open("b", pag_path, &error)) << error;

  constexpr int kThreads = 4;
  constexpr int kIters = 10;
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const char* names[] = {"a", "b"};
      const auto items = items_of(vars);
      for (int i = 0; i < kIters; ++i) {
        std::string e;
        auto lease = mgr.acquire(names[(t + i) % 2], &e);
        if (!lease) continue;
        answered += lease->run_batch(items).items.size();
        (void)lease->index_info();
        (void)lease->resident_bytes();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(mgr.counters().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Service stats and wire verb

TEST(CsIndexService, StalePrefilterStatsReportBuildingRevisionNotHitRate) {
  const pag::Pag pag = small_pag(8);
  service::ServiceOptions o;
  o.session = session_options(cfl::Mode::kDataSharingScheduling, false);
  o.session.prefilter = true;
  service::QueryService svc(pag, o);
  ASSERT_TRUE(svc.session().wait_for_prefilter());
  EXPECT_NE(svc.stats().to_json().find("\"prefilter\":{\"ready\":true,"),
            std::string::npos);

  // Hold the rebuild loop, commit a delta: the service is now in the
  // update-committed / rebuild-pending window. The stats contract: say a
  // rebuild is chasing revision 1, do NOT report the previous revision's
  // hit-rate as if it were live.
  svc.session().set_prefilter_paused(true);
  const pag::Delta d = small_delta(pag, 42);
  std::string error;
  ASSERT_TRUE(svc.session().update(d, &error)) << error;
  const std::string stale = svc.stats().to_json();
  EXPECT_NE(
      stale.find("\"prefilter\":{\"ready\":false,\"building_revision\":1}"),
      std::string::npos)
      << stale;
  EXPECT_EQ(stale.find("\"prefilter\":{\"hits\""), std::string::npos) << stale;

  svc.session().set_prefilter_paused(false);
  ASSERT_TRUE(svc.session().wait_for_prefilter());
  EXPECT_NE(svc.stats().to_json().find("\"prefilter\":{\"ready\":true,"),
            std::string::npos);
}

TEST(CsIndexService, IndexVerbServesJsonInlineAndOnWire) {
  const pag::Pag pag = small_pag(9);
  service::ServiceOptions o;
  o.session = session_options(cfl::Mode::kDataSharingScheduling, true);
  service::QueryService svc(pag, o);

  service::Request r;
  r.verb = service::Verb::kIndex;
  const service::Reply reply = svc.call(r);
  ASSERT_EQ(reply.status, service::Reply::Status::kOk) << reply.text;
  EXPECT_NE(reply.text.find("\"enabled\":true"), std::string::npos)
      << reply.text;
  EXPECT_EQ(reply.text.find("pending"), std::string::npos) << reply.text;
  EXPECT_EQ(service::format_reply(reply).rfind("ok index {", 0), 0u);

  std::istringstream in("index\nquit\n");
  std::ostringstream out;
  service::serve_stream(svc, in, out);
  EXPECT_NE(out.str().find("ok index {"), std::string::npos) << out.str();

  // stats carries the csindex block, and metrics the hit/miss gauges.
  EXPECT_NE(svc.stats().to_json().find("\"csindex\":{\"enabled\":true"),
            std::string::npos);
  const std::string metrics = svc.metrics_text();
  EXPECT_NE(metrics.find("parcfl_index_hits_total"), std::string::npos);
  EXPECT_NE(metrics.find("parcfl_index_misses_total"), std::string::npos);

  // With the index off, the verb still answers — reporting disabled.
  service::ServiceOptions off = o;
  off.session.index = false;
  service::QueryService svc_off(pag, off);
  const service::Reply off_reply = svc_off.call(r);
  ASSERT_EQ(off_reply.status, service::Reply::Status::kOk);
  EXPECT_NE(off_reply.text.find("\"enabled\":false"), std::string::npos);
}

}  // namespace
}  // namespace parcfl
