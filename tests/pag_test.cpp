// PAG structure tests: builder/CSR adjacency, field indices, IO round-trip,
// validation, assign-cycle collapsing.

#include <gtest/gtest.h>

#include <sstream>

#include "pag/collapse.hpp"
#include "pag/pag.hpp"
#include "pag/pag_io.hpp"
#include "pag/validate.hpp"
#include "test_util.hpp"

namespace parcfl::pag {
namespace {

Pag tiny() {
  Pag::Builder b;
  const auto l0 = b.add_local(TypeId(0), MethodId(0));
  const auto l1 = b.add_local(TypeId(1), MethodId(0));
  const auto l2 = b.add_local(TypeId(0), MethodId(1));
  const auto g = b.add_global(TypeId(1));
  const auto o = b.add_object(TypeId(0), MethodId(0));
  b.new_edge(l0, o);
  b.assign_local(l1, l0);
  b.assign_global(g, l1);
  b.load(l2, l1, FieldId(0));
  b.store(l1, l0, FieldId(0));
  b.param(l2, l0, CallSiteId(0));
  b.ret(l0, l2, CallSiteId(0));
  return std::move(b).finalize();
}

TEST(PagBuilder, CountsAndKinds) {
  const Pag pag = tiny();
  EXPECT_EQ(pag.node_count(), 5u);
  EXPECT_EQ(pag.edge_count(), 7u);
  EXPECT_EQ(pag.field_count(), 1u);
  EXPECT_EQ(pag.call_site_count(), 1u);
  EXPECT_EQ(pag.kind(NodeId(0)), NodeKind::kLocal);
  EXPECT_EQ(pag.kind(NodeId(3)), NodeKind::kGlobal);
  EXPECT_EQ(pag.kind(NodeId(4)), NodeKind::kObject);
  EXPECT_TRUE(pag.is_object(NodeId(4)));
  EXPECT_TRUE(pag.is_variable(NodeId(3)));
  for (unsigned k = 0; k < kEdgeKindCount; ++k)
    EXPECT_EQ(pag.edge_count_of_kind(static_cast<EdgeKind>(k)), 1u);
}

TEST(PagBuilder, InAndOutAdjacencyAgree) {
  const Pag pag = tiny();
  // new: l0 <- o
  ASSERT_EQ(pag.in_edges(NodeId(0), EdgeKind::kNew).size(), 1u);
  EXPECT_EQ(pag.in_edges(NodeId(0), EdgeKind::kNew)[0].other, NodeId(4));
  ASSERT_EQ(pag.out_edges(NodeId(4), EdgeKind::kNew).size(), 1u);
  EXPECT_EQ(pag.out_edges(NodeId(4), EdgeKind::kNew)[0].other, NodeId(0));
  // ld: l2 = l1.f0
  ASSERT_EQ(pag.in_edges(NodeId(2), EdgeKind::kLoad).size(), 1u);
  EXPECT_EQ(pag.in_edges(NodeId(2), EdgeKind::kLoad)[0].other, NodeId(1));
  EXPECT_EQ(pag.in_edges(NodeId(2), EdgeKind::kLoad)[0].aux, 0u);
  ASSERT_EQ(pag.out_edges(NodeId(1), EdgeKind::kLoad).size(), 1u);
  EXPECT_EQ(pag.out_edges(NodeId(1), EdgeKind::kLoad)[0].other, NodeId(2));
}

TEST(PagBuilder, FieldIndices) {
  const Pag pag = tiny();
  // store l1.f0 = l0: entry {base=l1, aux=rhs l0}
  ASSERT_EQ(pag.stores_on_field(FieldId(0)).size(), 1u);
  EXPECT_EQ(pag.stores_on_field(FieldId(0))[0].other, NodeId(1));
  EXPECT_EQ(pag.stores_on_field(FieldId(0))[0].aux, 0u);
  // load l2 = l1.f0: entry {base=l1, aux=dst l2}
  ASSERT_EQ(pag.loads_on_field(FieldId(0)).size(), 1u);
  EXPECT_EQ(pag.loads_on_field(FieldId(0))[0].other, NodeId(1));
  EXPECT_EQ(pag.loads_on_field(FieldId(0))[0].aux, 2u);
}

TEST(PagBuilder, DedupeDropsExactDuplicates) {
  Pag::Builder b;
  const auto x = b.add_local(TypeId(0), MethodId(0));
  const auto y = b.add_local(TypeId(0), MethodId(0));
  b.assign_local(x, y);
  b.assign_local(x, y);
  b.assign_local(y, x);
  const Pag pag = std::move(b).finalize();
  EXPECT_EQ(pag.edge_count(), 2u);
}

TEST(PagBuilder, NamesOptional) {
  Pag::Builder b;
  const auto x = b.add_local(TypeId(0), MethodId(0));
  b.set_name(x, "hello");
  const Pag pag = std::move(b).finalize();
  EXPECT_EQ(pag.name(x), "hello");
}

TEST(PagIo, RoundTrip) {
  const auto f = test::fig2();
  const std::string text = write_pag_string(f.lowered.pag);
  std::string error;
  const auto parsed = read_pag_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  EXPECT_EQ(parsed->node_count(), f.lowered.pag.node_count());
  EXPECT_EQ(parsed->edge_count(), f.lowered.pag.edge_count());
  EXPECT_EQ(parsed->field_count(), f.lowered.pag.field_count());
  EXPECT_EQ(parsed->call_site_count(), f.lowered.pag.call_site_count());
  // Node metadata survives.
  for (std::uint32_t i = 0; i < parsed->node_count(); ++i) {
    EXPECT_EQ(parsed->kind(NodeId(i)), f.lowered.pag.kind(NodeId(i)));
    EXPECT_EQ(parsed->node(NodeId(i)).type, f.lowered.pag.node(NodeId(i)).type);
  }
  // Second round-trip is byte-identical (canonical form).
  EXPECT_EQ(write_pag_string(*parsed), text);
}

TEST(PagIo, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(read_pag_string("garbage", &error).has_value());
  EXPECT_FALSE(read_pag_string("parcfl-pag 1\ncounts nodes=1\n", &error).has_value());
  EXPECT_FALSE(read_pag_string(
                   "parcfl-pag 1\ncounts nodes=1\nnode 0 l\nedge new 0 5\n", &error)
                   .has_value());
  EXPECT_FALSE(
      read_pag_string("parcfl-pag 1\ncounts nodes=1\nnode 0 q\n", &error).has_value());
  EXPECT_FALSE(read_pag_string(
                   "parcfl-pag 1\ncounts nodes=2\nnode 0 l\nnode 1 l\nedge ld 0 1\n",
                   &error)
                   .has_value());  // missing f=
}

// Every edge shape pag::validate rejects is rejected at load time too, with
// the offending line: a graph that loads is a graph the solver may trust.
TEST(PagIo, RejectsEdgesThatBreakTheEdgeRule) {
  const std::string header =
      "parcfl-pag 1\n"
      "counts nodes=4 fields=1 callsites=1 types=1 methods=1\n"
      "node 0 l\n"
      "node 1 l\n"
      "node 2 g\n"
      "node 3 o\n";  // edges start on line 7
  const char* const bad[] = {
      "edge new 0 1",          // new between two locals
      "edge new 3 3",          // new into an object
      "edge assignl 0 2",      // assignl with a global
      "edge assignl 0 3",      // assignl from an object
      "edge assigng 0 1",      // assigng without a global
      "edge assigng 2 3",      // assigng from an object
      "edge ld 0 2 f=0",       // ld with a global base
      "edge st 3 0 f=0",       // st into an object
      "edge ld 1 0 f=7",       // field id past fields=1
      "edge param 0 2 cs=0",   // param from a global
      "edge ret 0 1 cs=1",     // call site past callsites=1
  };
  for (const char* edge : bad) {
    std::string error;
    EXPECT_FALSE(read_pag_string(header + "edge assignl 1 0\n" + edge + "\n",
                                 &error)
                     .has_value())
        << edge;
    EXPECT_EQ(error.rfind("line 8: ", 0), 0u) << edge << " -> " << error;
  }
  std::string error;
  EXPECT_TRUE(read_pag_string(header + "edge new 0 3\nedge ld 1 0 f=0\n"
                                       "edge assigng 2 0\nedge param 1 0 cs=0\n",
                              &error)
                  .has_value())
      << error;
}

TEST(PagIo, ParsesMinimalGraph) {
  const std::string text =
      "parcfl-pag 1\n"
      "counts nodes=3 fields=1 callsites=0 types=1 methods=1\n"
      "node 0 l type=0 method=0 app=1 name=x\n"
      "node 1 l type=0 method=0 app=0\n"
      "node 2 o type=0 method=0 app=1\n"
      "edge new 0 2\n"
      "edge assignl 1 0\n";
  std::string error;
  const auto pag = read_pag_string(text, &error);
  ASSERT_TRUE(pag.has_value()) << error;
  EXPECT_EQ(pag->name(NodeId(0)), "x");
  EXPECT_FALSE(pag->node(NodeId(1)).is_application);
  EXPECT_TRUE(is_well_formed(*pag));
}

TEST(PagValidate, AcceptsLoweredPrograms) {
  const auto f = test::fig2();
  const auto errors = validate(f.lowered.pag);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(PagValidate, RejectsMalformedEdges) {
  Pag::Builder b;
  const auto l = b.add_local(TypeId(0), MethodId(0));
  const auto g = b.add_global(TypeId(0));
  const auto o = b.add_object(TypeId(0), MethodId(0));
  b.new_edge(l, o);
  b.add_edge(EdgeKind::kNew, l, l);          // new from a variable
  b.add_edge(EdgeKind::kAssignLocal, l, g);  // assignl with a global
  b.add_edge(EdgeKind::kLoad, l, g, 0);      // ld with a global base
  b.add_edge(EdgeKind::kAssignLocal, l, o);  // assign from an object
  const Pag pag = std::move(b).finalize();
  const auto errors = validate(pag);
  EXPECT_EQ(errors.size(), 4u);
}

TEST(PagValidate, RejectsOutOfRangeAux) {
  Pag::Builder b;
  b.set_counts(1, 1, 1, 1);
  const auto x = b.add_local(TypeId(0), MethodId(0));
  const auto y = b.add_local(TypeId(0), MethodId(0));
  b.load(x, y, FieldId(0));
  const Pag ok = std::move(b).finalize();
  EXPECT_TRUE(is_well_formed(ok));

  Pag::Builder b2;
  const auto x2 = b2.add_local(TypeId(0), MethodId(0));
  const auto y2 = b2.add_local(TypeId(0), MethodId(0));
  b2.load(x2, y2, FieldId(7));
  b2.set_counts(3, 0, 1, 1);  // declares fewer fields than used
  const Pag pag2 = std::move(b2).finalize();
  // finalize() widens counts to cover used ids, so this stays well-formed;
  // the check matters for hand-parsed graphs with explicit narrow counts.
  EXPECT_TRUE(is_well_formed(pag2));
}

TEST(PagCollapse, MergesLocalAssignCycles) {
  Pag::Builder b;
  const auto x = b.add_local(TypeId(0), MethodId(0));
  const auto y = b.add_local(TypeId(0), MethodId(0));
  const auto z = b.add_local(TypeId(0), MethodId(0));
  const auto o = b.add_object(TypeId(0), MethodId(0));
  b.new_edge(x, o);
  b.assign_local(y, x);
  b.assign_local(x, y);
  b.assign_local(z, y);  // z hangs off the cycle
  const Pag pag = std::move(b).finalize();

  const auto collapsed = collapse_assign_cycles(pag);
  EXPECT_EQ(collapsed.collapsed_nodes, 1u);
  EXPECT_EQ(collapsed.pag.node_count(), 3u);
  EXPECT_EQ(collapsed.representative[x.value()], collapsed.representative[y.value()]);
  EXPECT_NE(collapsed.representative[x.value()], collapsed.representative[z.value()]);
  // Self-assign edges are gone.
  for (const Edge& e : collapsed.pag.edges())
    EXPECT_FALSE(e.dst == e.src && e.kind == EdgeKind::kAssignLocal);
}

TEST(PagCollapse, DoesNotMergeAcrossMethodsOrKinds) {
  Pag::Builder b;
  const auto x = b.add_local(TypeId(0), MethodId(0));
  const auto y = b.add_local(TypeId(0), MethodId(1));  // different method
  b.assign_local(x, y);
  b.assign_local(y, x);
  const auto g1 = b.add_global(TypeId(0));
  const auto l = b.add_local(TypeId(0), MethodId(0));
  b.assign_global(g1, l);
  b.assign_global(l, g1);  // mixed local/global cycle
  const Pag pag = std::move(b).finalize();

  const auto collapsed = collapse_assign_cycles(pag);
  EXPECT_EQ(collapsed.collapsed_nodes, 0u);
  EXPECT_EQ(collapsed.pag.node_count(), pag.node_count());
}

TEST(PagCollapse, MergesGlobalCycles) {
  Pag::Builder b;
  const auto g1 = b.add_global(TypeId(0));
  const auto g2 = b.add_global(TypeId(0));
  b.assign_global(g1, g2);
  b.assign_global(g2, g1);
  const Pag pag = std::move(b).finalize();
  const auto collapsed = collapse_assign_cycles(pag);
  EXPECT_EQ(collapsed.collapsed_nodes, 1u);
  EXPECT_EQ(collapsed.representative[g1.value()], collapsed.representative[g2.value()]);
}

TEST(PagMemory, BytesNonZero) {
  const auto f = test::fig2();
  EXPECT_GT(f.lowered.pag.memory_bytes(), 0u);
}

}  // namespace
}  // namespace parcfl::pag
