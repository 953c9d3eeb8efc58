// Compact reachability index tests (PR 8; DESIGN.md §13).
//
//  * build — entries agree with a cold sequential solve, find() is exact on
//    hits and misses, cancellation aborts between solves;
//  * invalidation — an update drops exactly the entries whose root is in the
//    jmp invalidation cone (the set a scratch JmpStore evicts, across seeds,
//    reduction and field approximation — including, under field
//    approximation, entries coupled by a field's first store), without()
//    compacts the target pool, and after a Session::update the pruned index
//    still answers identically to an index-free session that applied the
//    same delta; the next compactor pass re-solves only the dropped roots;
//  * outcome identity — the metamorphic bar: with the index on, every mode,
//    warm or cold, any per-item budget, answers exactly what an index-off
//    session answers (an index hit additionally charges 0 steps);
//  * persistence — spilled v3 state carries the hot-key section, so a
//    reopened session re-seeds its compactor queue and rebuilds unprompted;
//  * churn — LRU eviction destroying a session mid-build abandons the build
//    cleanly (the tsan target);
//  * stats — a revision-stale prefilter reports ready:false plus the
//    revision being built instead of a stale hit-rate (PR 8 bugfix), and the
//    `index` wire verb serves the csindex block end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
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

std::vector<std::uint64_t> keys_of(const std::vector<NodeId>& vars) {
  std::vector<std::uint64_t> keys;
  for (const NodeId v : vars) keys.push_back(cfl::CsIndex::key(v));
  return keys;
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
  o.index_hot_threshold = 1;  // mine on first sight — tests drive note_hot
  return o;
}

std::vector<service::Session::Item> items_of(const std::vector<NodeId>& vars,
                                             std::uint64_t budget = 0) {
  std::vector<service::Session::Item> items;
  for (const NodeId v : vars) items.push_back(service::Session::Item{v, budget});
  return items;
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

std::string fresh_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "csindex_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Build

TEST(CsIndexBuild, EntriesMatchColdSolveAndFindIsExact) {
  const pag::Pag pag = small_pag(1);
  const auto vars = test::all_variables(pag);
  const auto index = cfl::build_csindex(pag, keys_of(vars), cold_opts());
  ASSERT_NE(index, nullptr);
  ASSERT_GT(index->entries().size(), 0u);
  EXPECT_TRUE(std::is_sorted(
      index->entries().begin(), index->entries().end(),
      [](const auto& a, const auto& b) { return a.key < b.key; }));

  cfl::ContextTable contexts;
  cfl::Solver solver(pag, contexts, nullptr, cold_opts());
  for (const auto& e : index->entries()) {
    const NodeId v = cfl::CsIndex::key_node(e.key);
    const auto r = solver.points_to(v);
    // Only complete answers are ever indexed — that is the soundness gate.
    ASSERT_EQ(r.status, cfl::QueryStatus::kComplete) << v.value();
    std::vector<NodeId> expect;
    for (const NodeId n : r.nodes()) expect.push_back(n);
    std::sort(expect.begin(), expect.end());
    const auto got = index->targets(e);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin(),
                           expect.end()))
        << "var " << v.value();
    const auto* found = index->find(e.key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->key, e.key);
  }
  EXPECT_EQ(index->find(cfl::CsIndex::key(NodeId(pag.node_count() + 7))),
            nullptr);
  const cfl::CsIndexStats stats = index->stats();
  EXPECT_EQ(stats.entries, index->entries().size());
  EXPECT_GT(stats.build_charged_steps, 0u);
}

TEST(CsIndexBuild, CancelAbortsAndReturnsNull) {
  const pag::Pag pag = small_pag(2);
  std::atomic<bool> cancel{true};
  EXPECT_EQ(cfl::build_csindex(pag, keys_of(test::all_variables(pag)),
                               cold_opts(), &cancel),
            nullptr);
}

TEST(CsIndexBuild, WithoutDropsKeysAndCompactsTargetPool) {
  const pag::Pag pag = small_pag(3);
  const auto index =
      cfl::build_csindex(pag, keys_of(test::all_variables(pag)), cold_opts());
  ASSERT_NE(index, nullptr);
  ASSERT_GT(index->entries().size(), 1u);

  const std::vector<std::uint64_t> drop = {index->entries().front().key};
  const auto pruned = index->without(drop, /*new_revision=*/1);
  ASSERT_NE(pruned, nullptr);
  EXPECT_EQ(pruned->revision(), 1u);
  EXPECT_EQ(pruned->entries().size(), index->entries().size() - 1);
  EXPECT_EQ(pruned->find(drop[0]), nullptr);
  // Surviving entries keep their exact targets through pool compaction.
  for (const auto& e : pruned->entries()) {
    const auto* orig = index->find(e.key);
    ASSERT_NE(orig, nullptr);
    const auto a = pruned->targets(e);
    const auto b = index->targets(*orig);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
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
// Serving: outcome identity

TEST(CsIndexSession, HitsServeCompleteAnswersAtZeroChargedSteps) {
  const pag::Pag pag = small_pag(4);
  const auto vars = test::all_variables(pag);
  const auto items = items_of(vars);

  service::Session off(pag, session_options(cfl::Mode::kSequential, false));
  const auto expect = off.run_batch(items).items;

  service::Session on(pag, session_options(cfl::Mode::kSequential, true));
  for (const NodeId v : vars) on.note_hot(v);
  ASSERT_TRUE(on.wait_for_index());
  const auto info = on.index_info();
  EXPECT_TRUE(info.enabled);
  EXPECT_GT(info.entries, 0u);
  EXPECT_GE(info.builds, 1u);

  const auto got = on.run_batch(items).items;
  ASSERT_EQ(got.size(), expect.size());
  std::uint64_t zero_step_hits = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, expect[i].status) << vars[i].value();
    EXPECT_EQ(got[i].objects, expect[i].objects) << vars[i].value();
    if (got[i].charged_steps == 0 &&
        got[i].status == cfl::QueryStatus::kComplete)
      ++zero_step_hits;
  }
  EXPECT_GT(zero_step_hits, 0u);
  EXPECT_GT(on.index_info().hits, 0u);
}

TEST(CsIndexSession, HotThresholdCountsBatchesNotOccurrences) {
  // The threshold is solver-served *batches* a root appeared in: one batch
  // repeating the root four times is one appearance, not four.
  const pag::Pag pag = small_pag(10);
  auto o = session_options(cfl::Mode::kSequential, true);
  o.index_hot_threshold = 2;
  service::Session s(pag, o);
  const NodeId root = test::all_variables(pag).front();
  const std::vector<service::Session::Item> repeated(
      4, service::Session::Item{root, 0});
  s.run_batch(repeated);
  ASSERT_TRUE(s.wait_for_index());
  EXPECT_EQ(s.index_info().entries, 0u);
  s.run_batch(repeated);
  ASSERT_TRUE(s.wait_for_index());
  EXPECT_EQ(s.index_info().entries, 1u);
}

class CsIndexMetamorphic : public ::testing::TestWithParam<std::uint64_t> {};

// The acceptance bar: index-on answers are indistinguishable from index-off
// answers in all four modes, warm and cold, across seeds.
TEST_P(CsIndexMetamorphic, IndexOnEqualsIndexOffAcrossModesWarmAndCold) {
  const pag::Pag pag = small_pag(GetParam());
  const auto vars = test::all_variables(pag);
  const auto items = items_of(vars);
  for (const cfl::Mode mode :
       {cfl::Mode::kSequential, cfl::Mode::kNaive, cfl::Mode::kDataSharing,
        cfl::Mode::kDataSharingScheduling}) {
    service::Session off(pag, session_options(mode, false));
    const auto cold_off = off.run_batch(items).items;
    const auto warm_off = off.run_batch(items).items;

    service::Session on(pag, session_options(mode, true));
    for (const NodeId v : vars) on.note_hot(v);
    ASSERT_TRUE(on.wait_for_index());
    const auto cold_on = on.run_batch(items).items;
    const auto warm_on = on.run_batch(items).items;

    ASSERT_EQ(cold_on.size(), cold_off.size());
    ASSERT_EQ(warm_on.size(), warm_off.size());
    for (std::size_t i = 0; i < cold_off.size(); ++i) {
      EXPECT_EQ(cold_on[i].status, cold_off[i].status)
          << "mode " << static_cast<int>(mode) << " var " << vars[i].value();
      EXPECT_EQ(cold_on[i].objects, cold_off[i].objects)
          << "mode " << static_cast<int>(mode) << " var " << vars[i].value();
      EXPECT_EQ(warm_on[i].status, warm_off[i].status)
          << "mode " << static_cast<int>(mode) << " var " << vars[i].value();
      EXPECT_EQ(warm_on[i].objects, warm_off[i].objects)
          << "mode " << static_cast<int>(mode) << " var " << vars[i].value();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsIndexMetamorphic,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(CsIndexSession, TightBudgetsNeverWidenAnswers) {
  // An index hit may only be served when the request's effective budget
  // covers the recorded solve cost — otherwise a budget-1 query would
  // complete through the index where a live solve would run out of budget.
  const pag::Pag pag = small_pag(5);
  const auto vars = test::all_variables(pag);
  service::Session off(pag, session_options(cfl::Mode::kSequential, false));
  service::Session on(pag, session_options(cfl::Mode::kSequential, true));
  for (const NodeId v : vars) on.note_hot(v);
  ASSERT_TRUE(on.wait_for_index());
  for (const std::uint64_t budget : {1ull, 2ull, 8ull, 64ull}) {
    const auto items = items_of(vars, budget);
    const auto expect = off.run_batch(items).items;
    const auto got = on.run_batch(items).items;
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, expect[i].status)
          << "budget " << budget << " var " << vars[i].value();
      EXPECT_EQ(got[i].objects, expect[i].objects)
          << "budget " << budget << " var " << vars[i].value();
    }
  }
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
    for (const NodeId v : vars) on.note_hot(v);
    ASSERT_TRUE(on.wait_for_index());
    ASSERT_GT(on.index_info().entries, 0u);
    on.run_batch(items);

    const pag::Delta d = small_delta(pag, seed * 97 + 13);
    std::string error;
    ASSERT_TRUE(off.update(d, &error)) << error;
    ASSERT_TRUE(on.update(d, &error)) << error;
    // The delta touches indexed roots (its assign endpoints are existing
    // locals, all of which are indexed), so the cone prune must have fired.
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
  // Regression (PR 8 review): with field approximation on, a delta adding a
  // field's *first* store couples to every load destination of that field
  // with no alias walk. Neither store endpoint has a build-time edge on the
  // field, so a prune seeded from the endpoints alone drops nothing, no
  // rebuild is queued, and the surviving load-destination entries serve
  // stale kComplete answers forever.
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
  // Mine only the load side: the store endpoints s and y must NOT be index
  // entries, else their own (trivially dirty) keys would requeue and the
  // resulting full rebuild would repair x by accident — the stale-serving
  // hole needs the prune to come back empty.
  for (const NodeId v : {g.q, g.x, g.z}) on.note_hot(v);
  ASSERT_TRUE(on.wait_for_index());
  ASSERT_NE(on.index_info().entries, 0u);

  pag::Delta d(g.pag);
  d.add_edge(EdgeKind::kStore, /*dst=base*/ g.s, /*src=value*/ g.y,
             /*aux=field*/ 0);
  std::string error;
  ASSERT_TRUE(off.update(d, &error)) << error;
  ASSERT_TRUE(on.update(d, &error)) << error;
  ASSERT_TRUE(on.wait_for_index());

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

/// Does `update(delta)` drop `root`'s entry? The session indexes only that
/// root, so its lifetime `invalidated` count (0 or 1) is the answer.
bool update_drops(const pag::Pag& pag, const service::Session::Options& opts,
                  NodeId root, const pag::Delta& delta) {
  service::Session s(pag, opts);
  s.note_hot(root);
  EXPECT_TRUE(s.wait_for_index());
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
/// context-empty backward entry per root (sorted keys in, sorted keys out).
/// With reduction on, the cone seeds from the serving-graph edge diff plus
/// the client's node tombstones, as the session's own eviction does.
std::vector<std::uint64_t> jmp_store_drops(const pag::Pag& base,
                                           const pag::Delta& delta,
                                           bool reduce, bool field_approx,
                                           const std::vector<std::uint64_t>& roots) {
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

  const auto jmp_key = [](std::uint64_t k) {
    return cfl::JmpStore::key(cfl::Direction::kBackward,
                              cfl::CsIndex::key_node(k),
                              cfl::ContextTable::empty());
  };
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  for (const std::uint64_t k : roots) store.insert_finished(jmp_key(k), 1, {});
  cfl::InvalidateOptions io;
  io.field_approximation = field_approx;
  cfl::invalidate_sharing_state(old_pag, new_pag, reduce ? seeds : delta,
                                contexts, store, io);
  std::vector<std::uint64_t> dropped;
  for (const std::uint64_t k : roots) {
    cfl::JmpStore::Lookup lookup;
    if (!store.lookup(jmp_key(k), lookup)) dropped.push_back(k);
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

// The update contract: an update drops exactly the entries whose root the
// jmp invalidation cone marks — the set a JmpStore holding one finished
// backward entry per index root evicts for the same delta. No fewer
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
        // The roots the compactor would index: complete cold solves on the
        // serving graph.
        cfl::SolverOptions cold = cold_opts();
        cold.field_approximation = field_approx;
        const auto built = cfl::build_csindex(
            reduce ? pag::reduce_unmatched_parens(pag) : pag,
            keys_of(test::all_variables(pag)), cold);
        ASSERT_NE(built, nullptr);
        std::vector<std::uint64_t> roots;
        for (const auto& e : built->entries()) roots.push_back(e.key);
        const auto expect = jmp_store_drops(pag, d, reduce, field_approx, roots);
        for (const std::uint64_t k : roots) {
          const NodeId root = cfl::CsIndex::key_node(k);
          EXPECT_EQ(update_drops(pag, opts, root, d),
                    std::binary_search(expect.begin(), expect.end(), k))
              << "seed " << seed << " reduce " << reduce << " field_approx "
              << field_approx << " root " << root.value();
        }
      }
    }
  }
}

// The compactor is incremental: after an update drops k of the n entries,
// the next pass cold-solves exactly those k roots — it charges what a cold
// build over them alone charges, not a re-solve of all n — and merges them
// into the survivors. Every answer the merged index serves still equals a
// cold solve on the new graph.
TEST(CsIndexSession, CompactorReSolvesOnlyTheDroppedEntries) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const pag::Pag pag = small_pag(seed);
    const pag::Delta d = contract_delta(pag, seed);
    auto opts = session_options(cfl::Mode::kSequential, true);
    opts.engine.threads = 1;
    const cfl::SolverOptions& solver = opts.engine.solver;
    const auto vars = test::all_variables(pag);

    // The entries a full pass indexes: complete cold solves of every root.
    const auto built = cfl::build_csindex(pag, keys_of(vars), solver);
    ASSERT_NE(built, nullptr);
    std::vector<std::uint64_t> roots;
    for (const auto& e : built->entries()) roots.push_back(e.key);
    const auto dropped = jmp_store_drops(pag, d, false, false, roots);
    if (dropped.empty() || dropped.size() == roots.size()) continue;
    ++checked;

    service::Session s(pag, opts);
    for (const NodeId v : vars) s.note_hot(v);
    ASSERT_TRUE(s.wait_for_index());
    const auto before = s.index_info();
    ASSERT_EQ(before.entries, roots.size()) << "seed " << seed;

    std::string error;
    ASSERT_TRUE(s.update(d, &error)) << error;
    ASSERT_TRUE(s.wait_for_index());
    const auto after = s.index_info();
    EXPECT_EQ(after.invalidated, dropped.size()) << "seed " << seed;
    EXPECT_EQ(after.builds, before.builds + 1) << "seed " << seed;

    const std::optional<pag::Pag> next = pag::apply_delta(pag, d);
    ASSERT_TRUE(next.has_value());
    const auto resolved = cfl::build_csindex(*next, dropped, solver);
    ASSERT_NE(resolved, nullptr);
    EXPECT_EQ(after.build_charged_steps - before.build_charged_steps,
              resolved->stats().build_charged_steps)
        << "seed " << seed << ": the pass did not charge exactly the cold "
        << "solves of the " << dropped.size() << " dropped roots";
    EXPECT_EQ(after.entries,
              roots.size() - dropped.size() + resolved->entries().size())
        << "seed " << seed;

    // Each variable once: every merged entry is hit, and every answer equals
    // a cold solve on the new graph.
    const auto got = s.run_batch(items_of(vars)).items;
    EXPECT_EQ(s.index_info().hits - after.hits, after.entries)
        << "seed " << seed;
    cfl::ContextTable contexts;
    cfl::Solver cold(*next, contexts, nullptr, solver);
    ASSERT_EQ(got.size(), vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const auto r = cold.points_to(vars[i]);
      std::vector<NodeId> expect;
      for (const NodeId n : r.nodes()) expect.push_back(n);
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(got[i].status, r.status)
          << "seed " << seed << " var " << vars[i].value();
      EXPECT_EQ(got[i].objects, expect)
          << "seed " << seed << " var " << vars[i].value();
    }
  }
  EXPECT_GT(checked, 0u) << "no seed dropped a proper subset of the entries";
}

// ---------------------------------------------------------------------------
// Persistence: the v3 hot-key section

TEST(CsIndexSession, SpillCarriesHotKeysAndReopenRebuildsUnprompted) {
  const pag::Pag pag = small_pag(6);
  const auto vars = test::all_variables(pag);
  const std::string dir = fresh_dir("hotspill");

  std::uint64_t built_entries = 0;
  std::uint64_t spilled_jmp_entries = 0;
  {
    service::Session s(pag, session_options(cfl::Mode::kDataSharing, true));
    for (const NodeId v : vars) s.note_hot(v);
    ASSERT_TRUE(s.wait_for_index());
    built_entries = s.index_info().entries;
    ASSERT_GT(built_entries, 0u);
    s.run_batch(items_of(vars));  // dirty the warm state so spill writes
    spilled_jmp_entries = s.store().entry_count();
    bool wrote_pag = false;
    std::string error;
    ASSERT_TRUE(
        s.spill(dir + "/s.state", dir + "/s.pag", &wrote_pag, &error))
        << error;
  }

  // The reopened session seeds its compactor queue from the spilled hot
  // section: the index comes back without a single query being run.
  auto o = session_options(cfl::Mode::kDataSharing, true);
  o.state_path = dir + "/s.state";
  service::Session reopened(pag, std::move(o));
  EXPECT_FALSE(reopened.warm_start_stale());
  ASSERT_TRUE(reopened.wait_for_index());
  EXPECT_EQ(reopened.index_info().entries, built_entries);
  // And the index-off loader keeps accepting the same file (the hot section
  // rides a v3 flag, invisible to sessions that do not want it).
  auto off = session_options(cfl::Mode::kDataSharing, false);
  off.state_path = dir + "/s.state";
  service::Session plain(pag, std::move(off));
  EXPECT_FALSE(plain.warm_start_stale());
  EXPECT_EQ(plain.store().entry_count(), spilled_jmp_entries);
}

// ---------------------------------------------------------------------------
// Churn (the tsan target)

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
        // Force-feed the compactor so a build is usually in flight when the
        // lease drops and the LRU eviction destroys the session.
        for (const NodeId v : vars) lease->note_hot(v);
        answered += lease->run_batch(items).items.size();
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
