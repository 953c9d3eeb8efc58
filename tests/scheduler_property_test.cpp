// Property-based validation of the §III-C scheduler against brute-force
// recomputation on random PAGs: grouping equals direct-relation connectivity,
// connection distances equal DFS-computed longest paths (modulo SCC), type
// levels equal a naive recursive definition, and the emitted order respects
// the DD/CD sort keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cfl/scheduler.hpp"
#include "frontend/lower.hpp"
#include "pag/delta.hpp"
#include "service/session.hpp"
#include "support/rng.hpp"
#include "support/scc.hpp"
#include "synth/generator.hpp"
#include "test_util.hpp"

namespace parcfl::cfl {
namespace {

using pag::EdgeKind;
using pag::NodeId;
using pag::Pag;

bool is_direct(EdgeKind k) {
  return k == EdgeKind::kAssignLocal || k == EdgeKind::kAssignGlobal ||
         k == EdgeKind::kParam || k == EdgeKind::kRet;
}

/// Longest path (in nodes, SCCs counted once) through `v` via brute force:
/// condense, then DFS all paths in the DAG (tiny graphs only).
std::uint64_t brute_cd(const Pag& pag, NodeId v) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const pag::Edge& e : pag.edges())
    if (is_direct(e.kind)) edges.emplace_back(e.src.value(), e.dst.value());
  const auto g = support::CsrGraph::from_edges(pag.node_count(), edges);
  const auto scc = support::strongly_connected_components(g);
  const auto dag = support::condense(g, scc);

  std::vector<std::uint64_t> size(scc.component_count, 0);
  for (std::uint32_t n = 0; n < pag.node_count(); ++n)
    ++size[scc.component_of[n]];

  const std::uint32_t target = scc.component_of[v.value()];
  std::uint64_t best = 0;
  // DFS over all DAG paths; small graphs keep this tractable.
  std::function<void(std::uint32_t, std::uint64_t, bool)> dfs =
      [&](std::uint32_t c, std::uint64_t len, bool seen) {
        len += size[c];
        seen = seen || c == target;
        bool extended = false;
        for (const std::uint32_t succ : dag.successors(c)) {
          extended = true;
          dfs(succ, len, seen);
        }
        if (!extended && seen) best = std::max(best, len);
        if (seen && extended) best = std::max(best, len);
      };
  for (std::uint32_t c = 0; c < scc.component_count; ++c) dfs(c, 0, false);
  return best;
}

/// Naive L(t) "modulo recursion", built on an independent SCC notion:
/// a and b are in the same containment cycle iff mutually reachable; every
/// cycle counts once, so L(t) = 1 + max L(u) over types contained by t's
/// cycle that are outside it.
struct BruteLevels {
  using Contains = std::map<std::uint32_t, std::vector<std::uint32_t>>;
  const Contains& contains;
  std::uint32_t type_count;
  std::map<std::uint32_t, std::uint32_t> memo;  // scc-representative -> level

  bool reaches(std::uint32_t from, std::uint32_t to) const {
    std::vector<std::uint32_t> work{from};
    std::vector<bool> seen(type_count, false);
    seen[from] = true;
    while (!work.empty()) {
      const std::uint32_t cur = work.back();
      work.pop_back();
      if (const auto it = contains.find(cur); it != contains.end()) {
        for (const std::uint32_t next : it->second) {
          if (next == to) return true;
          if (!seen[next]) {
            seen[next] = true;
            work.push_back(next);
          }
        }
      }
    }
    return false;
  }

  std::vector<std::uint32_t> cycle_of(std::uint32_t t) const {
    std::vector<std::uint32_t> members{t};
    for (std::uint32_t u = 0; u < type_count; ++u)
      if (u != t && reaches(t, u) && reaches(u, t)) members.push_back(u);
    return members;
  }

  std::uint32_t level(std::uint32_t t) {
    const auto members = cycle_of(t);
    const std::uint32_t rep = *std::min_element(members.begin(), members.end());
    if (const auto it = memo.find(rep); it != memo.end()) return it->second;
    memo.emplace(rep, 1);  // provisional; real cycles never recurse back here
    std::uint32_t best = 0;
    for (const std::uint32_t m : members) {
      if (const auto it = contains.find(m); it != contains.end()) {
        for (const std::uint32_t u : it->second) {
          if (std::find(members.begin(), members.end(), u) != members.end())
            continue;
          best = std::max(best, level(u));
        }
      }
    }
    memo[rep] = 1 + best;
    return memo[rep];
  }
};

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, GroupsAreDirectConnectivity) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam();
  cfg.assign_edges = 6;
  cfg.param_ret_edges = 5;
  const auto pag = test::random_layered_pag(cfg);
  const auto queries = test::all_variables(pag);

  SchedulingMetrics metrics;
  (void)schedule_queries(pag, queries, &metrics);

  // Brute-force connectivity via repeated relaxation.
  std::vector<std::uint32_t> comp(pag.node_count());
  for (std::uint32_t i = 0; i < comp.size(); ++i) comp[i] = i;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const pag::Edge& e : pag.edges()) {
      if (!is_direct(e.kind)) continue;
      const auto lo = std::min(comp[e.dst.value()], comp[e.src.value()]);
      if (comp[e.dst.value()] != lo || comp[e.src.value()] != lo) {
        comp[e.dst.value()] = comp[e.src.value()] = lo;
        changed = true;
      }
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i)
    for (std::size_t j = 0; j < queries.size(); ++j)
      EXPECT_EQ(metrics.group_of[i] == metrics.group_of[j],
                comp[queries[i].value()] == comp[queries[j].value()])
          << "seed " << cfg.seed << " vars " << queries[i].value() << ","
          << queries[j].value();
}

TEST_P(SchedulerPropertyTest, ConnectionDistancesMatchBruteForce) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam() + 300;
  cfg.layers = 2;
  cfg.vars_per_layer = 3;
  cfg.assign_edges = 5;
  cfg.param_ret_edges = 3;
  cfg.heap_edge_pairs = 1;
  const auto pag = test::random_layered_pag(cfg);
  const auto queries = test::all_variables(pag);

  SchedulingMetrics metrics;
  (void)schedule_queries(pag, queries, &metrics);
  for (std::size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(metrics.cd[i], brute_cd(pag, queries[i]))
        << "seed " << cfg.seed << " var " << queries[i].value();
}

TEST_P(SchedulerPropertyTest, TypeLevelsMatchNaiveDefinition) {
  // Random store/load typing over a handful of types.
  support::Rng rng(GetParam() + 7000);
  pag::Pag::Builder b;
  const std::uint32_t types = 4 + rng.below(4);
  b.set_counts(2, 0, types, 1);
  std::vector<NodeId> vars;
  for (std::uint32_t i = 0; i < 10; ++i)
    vars.push_back(
        b.add_local(pag::TypeId(static_cast<std::uint32_t>(rng.below(types))),
                    pag::MethodId(0)));
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto base = vars[rng.below(vars.size())];
    const auto val = vars[rng.below(vars.size())];
    if (rng.chance(0.5))
      b.store(base, val, pag::FieldId(static_cast<std::uint32_t>(rng.below(2))));
    else
      b.load(val, base, pag::FieldId(static_cast<std::uint32_t>(rng.below(2))));
  }
  const auto pag = std::move(b).finalize();

  std::map<std::uint32_t, std::vector<std::uint32_t>> contains;
  for (const pag::Edge& e : pag.edges()) {
    if (e.kind != EdgeKind::kStore && e.kind != EdgeKind::kLoad) continue;
    const NodeId base = e.kind == EdgeKind::kStore ? e.dst : e.src;
    const NodeId val = e.kind == EdgeKind::kStore ? e.src : e.dst;
    const auto tb = pag.node(base).type, tv = pag.node(val).type;
    if (tb.valid() && tv.valid() && tb != tv)
      contains[tb.value()].push_back(tv.value());
  }

  const auto levels = compute_type_levels(pag);
  ASSERT_EQ(levels.size(), pag.type_count());
  BruteLevels brute{contains, pag.type_count(), {}};
  for (std::uint32_t t = 0; t < pag.type_count(); ++t)
    EXPECT_EQ(levels[t], brute.level(t)) << "seed " << GetParam() << " type " << t;
}

TEST_P(SchedulerPropertyTest, OrderRespectsSortKeys) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam() + 600;
  const auto pag = test::random_layered_pag(cfg);
  const auto queries = test::all_variables(pag);

  SchedulingMetrics metrics;
  const auto schedule = schedule_queries(pag, queries, &metrics);

  // Map each ordered query back to its metrics index.
  std::map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < queries.size(); ++i) index[queries[i].value()] = i;

  for (std::size_t i = 0; i + 1 < schedule.ordered.size(); ++i) {
    const std::size_t a = index.at(schedule.ordered[i].value());
    const std::size_t b = index.at(schedule.ordered[i + 1].value());
    const double dd_a = metrics.group_dd[metrics.group_of[a]];
    const double dd_b = metrics.group_dd[metrics.group_of[b]];
    EXPECT_LE(dd_a, dd_b + 1e-12) << "groups out of DD order at " << i;
    if (metrics.group_of[a] == metrics.group_of[b]) {
      EXPECT_LE(metrics.cd[a], metrics.cd[b]) << "CD order violated at " << i;
    }
  }

  // Units tile the ordered sequence exactly.
  std::uint32_t expected_begin = 0;
  for (const auto& [begin, end] : schedule.units) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, schedule.ordered.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- plan reuse == one-off plan ---------------------------------------------
//
// BatchRunner builds one SchedulePlan per graph revision and schedules every
// micro-batch against it. A reused plan must give exactly the schedule and
// metrics a plan built for that batch alone gives: for empty batches, tiny
// ones (repeats allowed), and the full variable set in shuffled order.

void expect_same_schedule(const Schedule& a, const SchedulingMetrics& ma,
                          const Schedule& b, const SchedulingMetrics& mb,
                          const std::string& where) {
  EXPECT_EQ(a.ordered, b.ordered) << where;
  EXPECT_EQ(a.source_index, b.source_index) << where;
  EXPECT_EQ(a.units, b.units) << where;
  EXPECT_EQ(a.group_count, b.group_count) << where;
  EXPECT_EQ(a.mean_group_size, b.mean_group_size) << where;
  EXPECT_EQ(ma.group_of, mb.group_of) << where;
  EXPECT_EQ(ma.cd, mb.cd) << where;
  EXPECT_EQ(ma.type_level, mb.type_level) << where;
  EXPECT_EQ(ma.group_dd, mb.group_dd) << where;
}

class SchedulePlanIdentityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulePlanIdentityTest, ReusedPlanMatchesFreeFunction) {
  synth::GeneratorConfig cfg;
  cfg.seed = GetParam();
  cfg.app_methods = 8;
  cfg.library_methods = 8;
  cfg.containers = 3;
  cfg.container_use_blocks = 6;
  const Pag pag = frontend::lower(synth::generate(cfg)).pag;
  const auto vars = test::all_variables(pag);
  ASSERT_FALSE(vars.empty());
  const SchedulePlan plan = SchedulePlan::build(pag);
  ASSERT_TRUE(plan.matches(pag));
  EXPECT_EQ(plan.memory_bytes(), 16u * pag.node_count() +
                                     4u * plan.type_levels.size());

  support::Rng rng(GetParam() * 7919 + 3);
  for (int round = 0; round < 4; ++round) {
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{2}, std::size_t{3},
                                   vars.size()}) {
      std::vector<NodeId> batch;
      if (size == vars.size()) {
        batch = vars;
        for (std::size_t i = batch.size(); i > 1; --i)
          std::swap(batch[i - 1], batch[rng.below(i)]);
      } else {
        for (std::size_t i = 0; i < size; ++i)
          batch.push_back(vars[rng.below(vars.size())]);
      }
      SchedulingMetrics from_plan, one_off;
      const Schedule a = schedule_queries(plan, batch, &from_plan);
      const Schedule b = schedule_queries(pag, batch, &one_off);
      expect_same_schedule(a, from_plan, b, one_off,
                           "seed " + std::to_string(GetParam()) + " round " +
                               std::to_string(round) + " size " +
                               std::to_string(size));
      if (size == vars.size()) {
        EXPECT_GT(a.group_count, 1u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulePlanIdentityTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- warm + delta across engine modes ---------------------------------------
//
// The service-level counterpart of the scheduler properties above: on a
// random PAG, every engine mode must agree on every answer at every stage of
// a warm-batch → update_from_file → warm-batch lifecycle. Scheduling and
// sharing are performance features; the delta path (invalidation included)
// must leave them observationally identical to the sequential engine.

class WarmDeltaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WarmDeltaPropertyTest, ModesAgreeBeforeAndAfterUpdateFromFile) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam() * 31 + 5;
  cfg.layers = 3;
  cfg.vars_per_layer = 5;
  cfg.objects = 5;
  cfg.assign_edges = 10;
  cfg.param_ret_edges = 6;
  cfg.heap_edge_pairs = 4;
  const Pag pag = test::random_layered_pag(cfg);
  const auto vars = test::all_variables(pag);
  ASSERT_FALSE(vars.empty());

  // A delta that respects the layering invariant: new local + object wired
  // into existing vars with intra-layer edges only. assignl edges join two
  // locals (the delta reader rejects any other endpoint kind).
  std::vector<NodeId> locals;
  for (const NodeId v : vars)
    if (pag.kind(v) == pag::NodeKind::kLocal) locals.push_back(v);
  support::Rng rng(GetParam() * 69427 + 1);
  pag::Delta delta(pag);
  const NodeId fresh = delta.add_node(pag::NodeKind::kLocal, pag::TypeId(0),
                                      pag::MethodId(0));
  delta.add_edge(pag::EdgeKind::kAssignLocal, fresh,
                 locals[rng.below(locals.size())]);
  const NodeId obj = delta.add_node(pag::NodeKind::kObject, pag::TypeId(0),
                                    pag::MethodId(0));
  delta.add_edge(pag::EdgeKind::kNew, vars[rng.below(vars.size())], obj);
  delta.add_edge(pag::EdgeKind::kAssignLocal, locals[rng.below(locals.size())],
                 locals[rng.below(locals.size())]);

  const std::string path = ::testing::TempDir() + "warm_delta_" +
                           std::to_string(GetParam()) + ".delta";
  {
    std::ofstream out(path);
    pag::write_delta(out, delta);
  }

  std::vector<service::Session::Item> items;
  for (const NodeId v : vars) items.push_back({v, 0});

  const Mode modes[] = {Mode::kSequential, Mode::kNaive, Mode::kDataSharing,
                        Mode::kDataSharingScheduling};
  std::vector<service::Session::BatchResult> cold, warm, updated;
  for (const Mode mode : modes) {
    service::Session::Options o;
    o.engine.mode = mode;
    o.engine.threads = mode == Mode::kSequential ? 1 : 2;
    o.engine.solver.budget = 1u << 20;
    o.engine.solver.tau_finished = 2;
    o.engine.solver.tau_unfinished = 10;
    service::Session session(pag, o);

    cold.push_back(session.run_batch(items));
    warm.push_back(session.run_batch(items));  // rides minted shortcuts

    std::string error;
    service::Session::UpdateStats stats;
    ASSERT_TRUE(session.update_from_file(path, &error, &stats)) << error;
    EXPECT_EQ(stats.revision, 1u);
    updated.push_back(session.run_batch(items));
  }
  std::remove(path.c_str());

  for (std::size_t m = 1; m < std::size(modes); ++m) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(cold[m].items[i].status, cold[0].items[i].status)
          << "mode " << m << " cold item " << i;
      EXPECT_EQ(cold[m].items[i].objects, cold[0].items[i].objects)
          << "mode " << m << " cold item " << i;
      EXPECT_EQ(warm[m].items[i].objects, warm[0].items[i].objects)
          << "mode " << m << " warm item " << i;
      EXPECT_EQ(updated[m].items[i].status, updated[0].items[i].status)
          << "mode " << m << " updated item " << i;
      EXPECT_EQ(updated[m].items[i].objects, updated[0].items[i].objects)
          << "mode " << m << " updated item " << i;
    }
  }
  // Warm answers equal cold answers within each mode (sharing is invisible),
  // and the update actually changed something somewhere at least for the
  // var the fresh object was wired to — checked weakly: results are sane.
  for (std::size_t m = 0; m < std::size(modes); ++m)
    for (std::size_t i = 0; i < items.size(); ++i)
      EXPECT_EQ(warm[m].items[i].objects, cold[m].items[i].objects)
          << "mode " << m << " item " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmDeltaPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace parcfl::cfl
