// Persistence tests: v3 sharing-state round-trips, fingerprint guarding,
// context remapping into non-empty tables, and the warm-start property
// (a reloaded store eliminates traversal work on the next batch). Images
// are produced by saving to a temp file and reading the bytes back.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "cfl/persist.hpp"
#include "cfl/solver.hpp"
#include "pag/collapse.hpp"
#include "frontend/lower.hpp"
#include "synth/generator.hpp"
#include "test_util.hpp"

namespace parcfl::cfl {
namespace {

using pag::NodeId;

struct SharedRun {
  pag::Pag pag;
  std::vector<NodeId> queries;
};

SharedRun heapy_workload(std::uint64_t seed = 31) {
  synth::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.app_methods = 12;
  cfg.library_methods = 12;
  cfg.containers = 3;
  cfg.container_use_blocks = 12;
  const auto lowered = frontend::lower(synth::generate(cfg));
  auto collapsed = pag::collapse_assign_cycles(lowered.pag);
  std::vector<NodeId> queries;
  for (const NodeId q : lowered.queries)
    queries.push_back(collapsed.representative[q.value()]);
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return SharedRun{std::move(collapsed.pag), std::move(queries)};
}

SolverOptions sharing_options() {
  SolverOptions o;
  o.budget = 1'000'000;
  o.data_sharing = true;
  o.tau_finished = 5;
  o.tau_unfinished = 50;
  return o;
}

/// save_sharing_state_file_v3 into the test temp dir; returns the image.
std::string save_image(const pag::Pag& pag, const ContextTable& contexts,
                       const JmpStore& store) {
  const std::string path = testing::TempDir() + "persist_test_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".state";
  std::string error;
  EXPECT_TRUE(save_sharing_state_file_v3(path, pag, contexts, store, &error))
      << error;
  std::ifstream in(path, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return image;
}

bool load_image(const std::string& image, const pag::Pag& pag,
                ContextTable& contexts, JmpStore& store,
                std::string* error = nullptr) {
  return load_sharing_state_v3(image.data(), image.size(), pag, contexts,
                               store, error);
}

TEST(Persist, FingerprintDistinguishesGraphs) {
  const auto a = heapy_workload(1);
  const auto b = heapy_workload(2);
  EXPECT_NE(pag_fingerprint(a.pag), pag_fingerprint(b.pag));
  EXPECT_EQ(pag_fingerprint(a.pag), pag_fingerprint(heapy_workload(1).pag));
}

TEST(Persist, RoundTripPreservesEntries) {
  const auto w = heapy_workload();
  ContextTable contexts;
  JmpStore store;
  Solver solver(w.pag, contexts, &store, sharing_options());
  for (const NodeId q : w.queries) (void)solver.points_to(q);
  ASSERT_GT(store.entry_count(), 0u);

  const std::string image = save_image(w.pag, contexts, store);
  ASSERT_EQ(image.compare(0, sizeof kStateV3Magic,
                          std::string(kStateV3Magic, sizeof kStateV3Magic)),
            0);

  ContextTable contexts2;
  JmpStore store2;
  std::string error;
  ASSERT_TRUE(load_image(image, w.pag, contexts2, store2, &error)) << error;

  EXPECT_EQ(store2.entry_count(), store.entry_count());
  const auto s1 = store.stats();
  const auto s2 = store2.stats();
  EXPECT_EQ(s1.finished_edges, s2.finished_edges);
  EXPECT_EQ(s1.unfinished_edges, s2.unfinished_edges);

  // Entries are key-sorted at save time and a fresh table reproduces the
  // saved context ids, so saving the reloaded state is byte-identical.
  EXPECT_EQ(save_image(w.pag, contexts2, store2), image);
}

TEST(Persist, WarmStartEliminatesTraversalWork) {
  const auto w = heapy_workload();

  // Cold run, saving state.
  std::string state;
  std::uint64_t cold_traversed = 0;
  {
    ContextTable contexts;
    JmpStore store;
    Solver solver(w.pag, contexts, &store, sharing_options());
    for (const NodeId q : w.queries) (void)solver.points_to(q);
    cold_traversed = solver.counters().traversed_steps;
    state = save_image(w.pag, contexts, store);
  }

  // Warm run: loads the state first.
  ContextTable contexts;
  JmpStore store;
  ASSERT_TRUE(load_image(state, w.pag, contexts, store));
  Solver solver(w.pag, contexts, &store, sharing_options());
  std::vector<std::vector<NodeId>> warm_answers;
  for (const NodeId q : w.queries) warm_answers.push_back(solver.points_to(q).nodes());
  EXPECT_LT(solver.counters().traversed_steps, cold_traversed);
  EXPECT_GT(solver.counters().jmps_taken, 0u);

  // Warm answers equal cold answers.
  ContextTable c3;
  SolverOptions plain_options;
  plain_options.budget = 1'000'000;
  Solver plain(w.pag, c3, nullptr, plain_options);
  for (std::size_t i = 0; i < w.queries.size(); ++i)
    EXPECT_EQ(warm_answers[i], plain.points_to(w.queries[i]).nodes())
        << "query " << w.queries[i].value();
}

TEST(Persist, RejectsWrongGraph) {
  const auto w1 = heapy_workload(5);
  const auto w2 = heapy_workload(6);
  ContextTable contexts;
  JmpStore store;
  Solver solver(w1.pag, contexts, &store, sharing_options());
  for (const NodeId q : w1.queries) (void)solver.points_to(q);

  const std::string image = save_image(w1.pag, contexts, store);

  ContextTable c2;
  JmpStore s2;
  std::string error;
  bool stale = false;
  EXPECT_FALSE(load_sharing_state_v3(image.data(), image.size(), w2.pag, c2,
                                     s2, &error, nullptr, &stale));
  EXPECT_NE(error.find("different PAG"), std::string::npos);
  EXPECT_TRUE(stale);
  EXPECT_EQ(s2.entry_count(), 0u);
  EXPECT_EQ(c2.size(), 1u);
}

TEST(Persist, RejectsMalformedInput) {
  const auto w = heapy_workload();
  ContextTable contexts;
  JmpStore store;
  std::string error;

  EXPECT_FALSE(load_image("nonsense", w.pag, contexts, store, &error));
  EXPECT_FALSE(error.empty());

  const std::string good = save_image(w.pag, contexts, store);
  // A header whose magic is wrong.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(load_image(bad_magic, w.pag, contexts, store, &error));
  // A torn write: the header promises more bytes than the file holds.
  EXPECT_FALSE(load_image(good.substr(0, good.size() - 1), w.pag, contexts,
                          store, &error));
  // Trailing garbage after a complete image.
  EXPECT_FALSE(load_image(good + "garbage line\n", w.pag, contexts, store,
                          &error));
  EXPECT_EQ(store.entry_count(), 0u);
}

TEST(Persist, LoadIntoNonEmptyContextTableRemaps) {
  const auto w = heapy_workload();
  std::string state;
  {
    ContextTable contexts;
    JmpStore store;
    Solver solver(w.pag, contexts, &store, sharing_options());
    for (const NodeId q : w.queries) (void)solver.points_to(q);
    state = save_image(w.pag, contexts, store);
  }

  // Pre-populate the receiving table with unrelated contexts so the saved
  // ids cannot line up; loading must still produce a usable store.
  ContextTable contexts;
  for (std::uint32_t i = 0; i < 100; ++i)
    (void)contexts.push(ContextTable::empty(), pag::CallSiteId(1000 + i));

  JmpStore store;
  std::string error;
  ASSERT_TRUE(load_image(state, w.pag, contexts, store, &error)) << error;

  Solver solver(w.pag, contexts, &store, sharing_options());
  for (const NodeId q : w.queries) (void)solver.points_to(q);
  EXPECT_GT(solver.counters().jmps_taken, 0u);
}

// A finished entry with no targets (a proven-empty region) is a run of
// length zero in the target section. The identity path must not hand
// memcpy the null data() of the empty vector, and both paths must keep the
// entry as finished-and-empty.
TEST(Persist, EmptyFinishedTargetListRoundTrips) {
  const auto w = heapy_workload();
  ASSERT_GT(w.pag.node_count(), 2u);
  ContextTable contexts;
  const CtxId ctx = contexts.push(ContextTable::empty(), pag::CallSiteId(7));
  JmpStore store;
  const std::uint64_t empty_key =
      JmpStore::key(Direction::kBackward, NodeId(1), ctx);
  store.insert_finished(empty_key, 3, {});
  store.insert_finished(JmpStore::key(Direction::kBackward, NodeId(2), ctx), 4,
                        {JmpTarget{NodeId(1), ctx, 2}});
  const std::string image = save_image(w.pag, contexts, store);

  auto check = [&](ContextTable& into, CtxId expect_ctx) {
    JmpStore loaded;
    std::string error;
    ASSERT_TRUE(load_image(image, w.pag, into, loaded, &error)) << error;
    EXPECT_EQ(loaded.entry_count(), 2u);
    const auto guard = loaded.pin();
    JmpStore::Lookup hit;
    ASSERT_TRUE(loaded.lookup(
        JmpStore::key(Direction::kBackward, NodeId(1), expect_ctx), hit));
    ASSERT_NE(hit.finished, nullptr);
    EXPECT_EQ(hit.finished->cost, 3u);
    EXPECT_TRUE(hit.finished->targets.empty());
    JmpStore::Lookup full;
    ASSERT_TRUE(loaded.lookup(
        JmpStore::key(Direction::kBackward, NodeId(2), expect_ctx), full));
    ASSERT_NE(full.finished, nullptr);
    ASSERT_EQ(full.finished->targets.size(), 1u);
    EXPECT_EQ(full.finished->targets[0].ctx, expect_ctx);
  };

  // A fresh table reproduces the saved ids: the identity (bulk-copy) path.
  ContextTable fresh;
  check(fresh, ctx);

  // A pre-populated table shifts every id: the per-target remap path.
  ContextTable busy;
  for (std::uint32_t i = 0; i < 5; ++i)
    (void)busy.push(ContextTable::empty(), pag::CallSiteId(1000 + i));
  check(busy, CtxId(6));
}

}  // namespace
}  // namespace parcfl::cfl
