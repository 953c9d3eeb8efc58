// Query-scheduling tests (§III-C): direct-relation grouping, connection
// distances, type levels / dependence depths, group ordering and work units.

#include <gtest/gtest.h>

#include <algorithm>

#include "cfl/scheduler.hpp"
#include "test_util.hpp"

namespace parcfl::cfl {
namespace {

using pag::CallSiteId;
using pag::FieldId;
using pag::MethodId;
using pag::NodeId;
using pag::TypeId;

TEST(TypeLevels, ContainmentChain) {
  // T0 has no fields used; T2.f -> T1, T1.f -> T0: L(T0)=1, L(T1)=2, L(T2)=3.
  pag::Pag::Builder b;
  b.set_counts(2, 0, 3, 1);
  const auto v0 = b.add_local(TypeId(0), MethodId(0));
  const auto v1 = b.add_local(TypeId(1), MethodId(0));
  const auto v2 = b.add_local(TypeId(2), MethodId(0));
  b.store(v2, v1, FieldId(0));  // type(v2) contains type(v1)
  b.store(v1, v0, FieldId(1));  // type(v1) contains type(v0)
  const auto pag = std::move(b).finalize();

  const auto levels = compute_type_levels(pag);
  EXPECT_EQ(levels[0], 1u);
  EXPECT_EQ(levels[1], 2u);
  EXPECT_EQ(levels[2], 3u);
}

TEST(TypeLevels, RecursiveTypesCollapse) {
  // T0.f -> T1, T1.f -> T0 (mutual recursion): both land on the same level.
  pag::Pag::Builder b;
  b.set_counts(1, 0, 2, 1);
  const auto v0 = b.add_local(TypeId(0), MethodId(0));
  const auto v1 = b.add_local(TypeId(1), MethodId(0));
  b.store(v0, v1, FieldId(0));
  b.store(v1, v0, FieldId(0));
  const auto pag = std::move(b).finalize();
  const auto levels = compute_type_levels(pag);
  EXPECT_EQ(levels[0], levels[1]);
}

TEST(Schedule, GroupsFollowDirectRelation) {
  // a -assign- b, c -param- d, e isolated; loads do NOT connect.
  pag::Pag::Builder b;
  const auto a = b.add_local(TypeId(0), MethodId(0));
  const auto bb = b.add_local(TypeId(0), MethodId(0));
  const auto c = b.add_local(TypeId(0), MethodId(0));
  const auto d = b.add_local(TypeId(0), MethodId(1));
  const auto e = b.add_local(TypeId(0), MethodId(0));
  const auto f_dst = b.add_local(TypeId(0), MethodId(0));
  b.assign_local(bb, a);
  b.param(d, c, CallSiteId(0));
  b.load(f_dst, e, FieldId(0));  // e and f_dst stay separate groups
  const auto pag = std::move(b).finalize();

  const std::vector<NodeId> queries{a, bb, c, d, e, f_dst};
  SchedulingMetrics metrics;
  (void)schedule_queries(pag, queries, &metrics);

  EXPECT_EQ(metrics.group_of[0], metrics.group_of[1]);  // a with b
  EXPECT_EQ(metrics.group_of[2], metrics.group_of[3]);  // c with d
  EXPECT_NE(metrics.group_of[0], metrics.group_of[2]);
  EXPECT_NE(metrics.group_of[4], metrics.group_of[5]);  // ld does not group
}

TEST(Schedule, ConnectionDistanceOrdersWithinGroup) {
  // Chain a -> b -> c -> d plus a short stub s -> b. The chain members share
  // the longest path (4); the stub's CD is shorter only if it sits on no
  // longer path — s lies on path s->b->c->d (4 nodes too). Use a detached
  // two-node group instead to observe CD differences.
  pag::Pag::Builder b;
  const auto a = b.add_local(TypeId(0), MethodId(0));
  const auto b2 = b.add_local(TypeId(0), MethodId(0));
  const auto c = b.add_local(TypeId(0), MethodId(0));
  const auto d = b.add_local(TypeId(0), MethodId(0));
  b.assign_local(b2, a);
  b.assign_local(c, b2);
  b.assign_local(d, c);
  const auto pag = std::move(b).finalize();

  SchedulingMetrics metrics;
  const std::vector<NodeId> queries{a, b2, c, d};
  (void)schedule_queries(pag, queries, &metrics);
  // Everyone lies on the same longest path of 4 nodes.
  for (const auto cd : metrics.cd) EXPECT_EQ(cd, 4u);
}

TEST(Schedule, CdReflectsLongestPathThroughNode) {
  // y -> x and z -> x: x's CD is 2 (no 3-node path exists); y, z also 2.
  // Extend y's side: w -> y -> x gives w,y,x CD 3 and z CD 2.
  pag::Pag::Builder b;
  const auto w = b.add_local(TypeId(0), MethodId(0));
  const auto y = b.add_local(TypeId(0), MethodId(0));
  const auto z = b.add_local(TypeId(0), MethodId(0));
  const auto x = b.add_local(TypeId(0), MethodId(0));
  b.assign_local(y, w);
  b.assign_local(x, y);
  b.assign_local(x, z);
  const auto pag = std::move(b).finalize();

  SchedulingMetrics metrics;
  const std::vector<NodeId> queries{w, y, z, x};
  (void)schedule_queries(pag, queries, &metrics);
  EXPECT_EQ(metrics.cd[0], 3u);  // w
  EXPECT_EQ(metrics.cd[1], 3u);  // y
  EXPECT_EQ(metrics.cd[2], 2u);  // z
  EXPECT_EQ(metrics.cd[3], 3u);  // x
}

TEST(Schedule, CdHandlesAssignCyclesModuloRecursion) {
  pag::Pag::Builder b;
  const auto a = b.add_local(TypeId(0), MethodId(0));
  const auto c = b.add_local(TypeId(0), MethodId(0));
  const auto d = b.add_local(TypeId(0), MethodId(0));
  b.assign_local(c, a);
  b.assign_local(a, c);  // cycle {a, c}
  b.assign_local(d, c);
  const auto pag = std::move(b).finalize();

  SchedulingMetrics metrics;
  const std::vector<NodeId> queries{a, c, d};
  (void)schedule_queries(pag, queries, &metrics);
  // SCC {a,c} counts its 2 members once; longest path is {a,c}+d = 3 nodes.
  EXPECT_EQ(metrics.cd[0], 3u);
  EXPECT_EQ(metrics.cd[2], 3u);
}

TEST(Schedule, DeeperTypesScheduleFirst) {
  // Group A holds a variable of a deep type (L=3); group B a shallow one
  // (L=1). A's DD (1/3) is smaller, so A is issued first.
  pag::Pag::Builder b;
  b.set_counts(2, 0, 3, 1);
  const auto t2a = b.add_local(TypeId(2), MethodId(0));
  const auto t2b = b.add_local(TypeId(2), MethodId(0));
  const auto t0a = b.add_local(TypeId(0), MethodId(0));
  const auto t0b = b.add_local(TypeId(0), MethodId(0));
  // Containment chain: T2 > T1 > T0.
  const auto v1 = b.add_local(TypeId(1), MethodId(0));
  b.store(t2a, v1, FieldId(0));
  b.store(v1, t0a, FieldId(1));
  // Grouping edges.
  b.assign_local(t2b, t2a);
  b.assign_local(t0b, t0a);
  const auto pag = std::move(b).finalize();

  const std::vector<NodeId> queries{t0a, t0b, t2a, t2b};
  const auto schedule = schedule_queries(pag, queries);
  // The deep-type group (t2a, t2b) must come first in issue order.
  const auto pos = [&](NodeId n) {
    return std::find(schedule.ordered.begin(), schedule.ordered.end(), n) -
           schedule.ordered.begin();
  };
  EXPECT_LT(pos(t2a), pos(t0a));
  EXPECT_LT(pos(t2b), pos(t0b));
}

TEST(Schedule, UnitsCoverAllQueriesOnce) {
  const auto fx = test::fig2();
  const auto schedule = schedule_queries(fx.lowered.pag, fx.lowered.queries);
  std::vector<NodeId> seen;
  for (const auto& [begin, end] : schedule.units)
    for (std::uint32_t i = begin; i < end; ++i) seen.push_back(schedule.ordered[i]);
  EXPECT_EQ(seen.size(), fx.lowered.queries.size());
  auto sorted_seen = seen;
  std::sort(sorted_seen.begin(), sorted_seen.end());
  auto sorted_queries = fx.lowered.queries;
  std::sort(sorted_queries.begin(), sorted_queries.end());
  EXPECT_EQ(sorted_seen, sorted_queries);
  EXPECT_GT(schedule.mean_group_size, 0.0);
}

TEST(Schedule, IdentityPreservesOrder) {
  const std::vector<NodeId> queries{NodeId(3), NodeId(1), NodeId(2)};
  const auto s = identity_schedule(queries);
  EXPECT_EQ(s.ordered, queries);
  EXPECT_EQ(s.units.size(), 3u);
  EXPECT_EQ(s.units[1], (std::pair<std::uint32_t, std::uint32_t>{1, 2}));
}

TEST(Schedule, EmptyQueries) {
  pag::Pag::Builder b;
  b.add_local(TypeId(0), MethodId(0));
  const auto pag = std::move(b).finalize();
  const auto s = schedule_queries(pag, {});
  EXPECT_TRUE(s.ordered.empty());
  EXPECT_TRUE(s.units.empty());
}

}  // namespace
}  // namespace parcfl::cfl
