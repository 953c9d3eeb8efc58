// Persistence tests: v3 sharing-state round-trips, fingerprint guarding,
// context remapping into non-empty tables, and the warm-start property
// (a reloaded store eliminates traversal work on the next batch). Images
// are produced by saving to a temp file and reading the bytes back.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

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
                                     s2, &error, &stale));
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

// Earlier builds appended a flagged hot section (u64 index root keys) after
// the target section. This build never writes one but must still load such a
// spill: the section is bounds-checked, tiled and skipped. The image is
// assembled byte by byte in the 72-byte-header layout those builds wrote.
TEST(Persist, LegacyHotSectionIsValidatedAndSkipped) {
  const auto w = heapy_workload();
  ASSERT_GT(w.pag.node_count(), 2u);
  const std::uint64_t key =
      JmpStore::key(Direction::kBackward, NodeId(1), ContextTable::empty());
  // Up to three words of hot section, each an index root key (node << 32).
  const std::vector<std::uint64_t> hot = {
      std::uint64_t{1} << 32, std::uint64_t{2} << 32, std::uint64_t{3} << 32};
  const auto put = [](std::string& bytes, std::size_t at, auto value) {
    std::memcpy(bytes.data() + at, &value, sizeof value);
  };
  // One finished entry (cost 5) with one target (node 2, 3 steps), then
  // `hot_words` words of hot section under the given flags and count.
  const auto image = [&](std::uint32_t flags, std::uint32_t hot_count,
                         std::size_t hot_words) {
    std::string bytes(72 + 24 + 12, '\0');
    std::memcpy(bytes.data(), kStateV3Magic, sizeof kStateV3Magic);
    put(bytes, 8, w.pag.node_count());
    put(bytes, 12, w.pag.edge_count());
    put(bytes, 16, pag_fingerprint(w.pag));
    put(bytes, 24, w.pag.revision());
    put(bytes, 28, std::uint32_t{1});  // contexts: the empty one only
    put(bytes, 32, std::uint64_t{1});  // finished entries
    put(bytes, 40, std::uint64_t{0});  // unfinished entries
    put(bytes, 48, std::uint64_t{1});  // targets
    put(bytes, 64, flags);
    put(bytes, 68, hot_count);
    put(bytes, 72, key);                // fin: key
    put(bytes, 80, std::uint64_t{0});   //      target_begin
    put(bytes, 88, std::uint32_t{5});   //      cost
    put(bytes, 92, std::uint32_t{1});   //      target_len
    put(bytes, 96, std::uint32_t{2});   // target: node
    put(bytes, 100, std::uint32_t{0});  //         ctx
    put(bytes, 104, std::uint32_t{3});  //         steps
    bytes.append(reinterpret_cast<const char*>(hot.data()),
                 hot_words * sizeof(std::uint64_t));
    put(bytes, 56, std::uint64_t{bytes.size()});  // total size
    return bytes;
  };

  ContextTable contexts;
  JmpStore store;
  std::string error;
  ASSERT_TRUE(load_image(image(1, 2, 2), w.pag, contexts, store, &error))
      << error;
  ASSERT_EQ(store.entry_count(), 1u);
  {
    const auto guard = store.pin();
    JmpStore::Lookup hit;
    ASSERT_TRUE(store.lookup(key, hit));
    ASSERT_NE(hit.finished, nullptr);
    EXPECT_EQ(hit.finished->cost, 5u);
    ASSERT_EQ(hit.finished->targets.size(), 1u);
    EXPECT_EQ(hit.finished->targets[0].node, NodeId(2));
    EXPECT_EQ(hit.finished->targets[0].steps, 3u);
  }
  // Re-saving writes the same image without the section, flag or count.
  EXPECT_EQ(save_image(w.pag, contexts, store), image(0, 0, 0));

  const std::pair<std::string, const char*> rejects[] = {
      {image(0, 2, 2), "without hot flag"},  // count but no flag
      {image(1, 3, 2), "tile"},              // count past the section
      {image(1, 2, 3), "tile"},              // section past the count
      {image(3, 2, 2), "unknown v3 flags"},
  };
  for (const auto& [bytes, why] : rejects) {
    ContextTable c;
    JmpStore s;
    EXPECT_FALSE(load_image(bytes, w.pag, c, s, &error)) << why;
    EXPECT_NE(error.find(why), std::string::npos) << error;
    EXPECT_EQ(s.entry_count(), 0u);
  }
}

}  // namespace
}  // namespace parcfl::cfl
