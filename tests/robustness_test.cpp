// Robustness and cross-cutting property suites:
//  * assign-cycle collapsing preserves every answer on random graphs,
//  * Andersen heap cells are internally consistent,
//  * the jmp store and context table survive heavy mixed-thread traffic,
//  * persisted sharing state survives text mutation without crashing.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <thread>

#include "andersen/andersen.hpp"
#include "cfl/persist.hpp"
#include "cfl/solver.hpp"
#include "pag/collapse.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace parcfl {
namespace {

using cfl::ContextTable;
using cfl::JmpStore;
using cfl::Solver;
using cfl::SolverOptions;
using pag::NodeId;

SolverOptions big() {
  SolverOptions o;
  o.budget = 10'000'000;
  o.max_fixpoint_iters = 64;
  return o;
}

class CollapsePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollapsePropertyTest, CollapsingPreservesAllAnswers) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam() + 11'000;
  cfg.assign_edges = 8;  // denser assignments -> more cycles to collapse
  cfg.heap_edge_pairs = 3;
  const auto pag = test::random_layered_pag(cfg);
  const auto collapsed = pag::collapse_assign_cycles(pag);

  ContextTable c1, c2;
  Solver a(pag, c1, nullptr, big());
  Solver b(collapsed.pag, c2, nullptr, big());

  for (const NodeId v : test::all_variables(pag)) {
    const auto ra = a.points_to(v);
    const auto rb = b.points_to(collapsed.representative[v.value()]);
    ASSERT_EQ(ra.status, cfl::QueryStatus::kComplete);
    ASSERT_EQ(rb.status, cfl::QueryStatus::kComplete);
    const auto na = ra.nodes();
    const auto nb = rb.nodes();
    ASSERT_EQ(na.size(), nb.size()) << "seed " << cfg.seed << " var " << v.value();
    for (std::size_t i = 0; i < na.size(); ++i)
      EXPECT_EQ(collapsed.representative[na[i].value()], nb[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapsePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

class AndersenCellTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AndersenCellTest, HeapCellsAreConsistentWithStores) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam() + 12'000;
  cfg.heap_edge_pairs = 4;
  const auto pag = test::random_layered_pag(cfg);
  const auto result = andersen::solve(pag);

  // Every store q.f = y with o in pts(q) must have pts(y) ⊆ cell(o, f);
  // conversely every cell member must be justified by some such store.
  for (const pag::Edge& e : pag.edges()) {
    if (e.kind != pag::EdgeKind::kStore) continue;
    for (const std::uint32_t o : result.points_to(e.dst)) {
      const auto cell = result.heap_cell(NodeId(o), pag::FieldId(e.aux));
      for (const std::uint32_t v : result.points_to(e.src))
        EXPECT_TRUE(std::binary_search(cell.begin(), cell.end(), v))
            << "seed " << cfg.seed;
    }
  }
  // Loads x = p.f: cell contents flow into x.
  for (const pag::Edge& e : pag.edges()) {
    if (e.kind != pag::EdgeKind::kLoad) continue;
    const auto px = result.points_to(e.dst);
    for (const std::uint32_t o : result.points_to(e.src)) {
      const auto cell = result.heap_cell(NodeId(o), pag::FieldId(e.aux));
      for (const std::uint32_t v : cell)
        EXPECT_TRUE(std::binary_search(px.begin(), px.end(), v))
            << "seed " << cfg.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AndersenCellTest,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(ConcurrencyStress, JmpStoreMixedTraffic) {
  JmpStore store;
  constexpr int kThreads = 8;
  constexpr std::uint32_t kKeys = 400;
  std::atomic<std::uint64_t> finished_wins{0}, unfinished_wins{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      support::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int round = 0; round < 2000; ++round) {
        const auto node = NodeId(static_cast<std::uint32_t>(rng.below(kKeys)));
        const auto key = JmpStore::key(cfl::Direction::kBackward, node, cfl::CtxId(0));
        switch (rng.below(3)) {
          case 0:
            if (store.insert_finished(
                    key, 100 + static_cast<std::uint32_t>(t),
                    {{NodeId(node.value() + 1), cfl::CtxId(0), 50}}))
              finished_wins.fetch_add(1);
            break;
          case 1:
            if (store.insert_unfinished(key, 1000 + static_cast<std::uint32_t>(t)))
              unfinished_wins.fetch_add(1);
            break;
          default: {
            JmpStore::Lookup lk;
            if (store.lookup(key, lk) && lk.finished != nullptr) {
              // Published records are immutable and well-formed.
              EXPECT_GE(lk.finished->cost, 100u);
              ASSERT_EQ(lk.finished->targets.size(), 1u);
              EXPECT_EQ(lk.finished->targets[0].node.value(), node.value() + 1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // First-wins: at most one winner per key per kind.
  EXPECT_LE(finished_wins.load(), kKeys);
  EXPECT_LE(unfinished_wins.load(), kKeys);
  const auto stats = store.stats();
  EXPECT_EQ(stats.finished_entries, finished_wins.load());
  EXPECT_EQ(stats.unfinished_edges, unfinished_wins.load());
}

TEST(ConcurrencyStress, ParallelSolversShareOneStore) {
  const auto fx = test::fig2();
  ContextTable contexts;
  JmpStore store;
  SolverOptions o = big();
  o.data_sharing = true;
  o.tau_finished = 0;

  constexpr int kThreads = 8;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Solver solver(fx.lowered.pag, contexts, &store, o);
      for (int round = 0; round < 50; ++round) {
        const auto r1 = solver.points_to(fx.s1);
        const auto r2 = solver.points_to(fx.s2);
        if (!(r1.contains(fx.o16) && !r1.contains(fx.o20) &&
              r2.contains(fx.o20) && !r2.contains(fx.o16)))
          mismatch.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(PersistFuzz, MutatedStateNeverCrashes) {
  const auto fx = test::fig2();
  ContextTable contexts;
  JmpStore store;
  SolverOptions o = big();
  o.data_sharing = true;
  o.tau_finished = 0;
  Solver solver(fx.lowered.pag, contexts, &store, o);
  for (const NodeId q : fx.lowered.queries) (void)solver.points_to(q);

  const std::string path = testing::TempDir() + "persist_fuzz_fig2.state";
  std::string error;
  ASSERT_TRUE(cfl::save_sharing_state_file_v3(path, fx.lowered.pag, contexts,
                                              store, &error))
      << error;
  std::ifstream file(path, std::ios::binary);
  const std::string image((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  ASSERT_FALSE(image.empty());

  support::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = image;
    for (int e = 0; e < 3 && !mutated.empty(); ++e) {
      const std::size_t pos = rng.below(mutated.size());
      if (rng.chance(0.5))
        mutated[pos] = static_cast<char>(rng.below(256));
      else
        mutated.erase(pos, 1 + rng.below(4));
    }
    ContextTable c2;
    JmpStore s2;
    std::string load_error;
    const bool ok = cfl::load_sharing_state_v3(
        mutated.data(), mutated.size(), fx.lowered.pag, c2, s2, &load_error);
    if (!ok) {
      EXPECT_FALSE(load_error.empty());
    }
    // Whatever loaded must be usable without crashing.
    Solver probe(fx.lowered.pag, c2, &s2, o);
    (void)probe.points_to(fx.s1);
  }
}

}  // namespace
}  // namespace parcfl
