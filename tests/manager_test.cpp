// SessionManager tests — session spill and reopen (DESIGN.md §12).
//
//  * lifecycle — lazy open (no load until first acquire), idempotent
//    re-open, name and path checks, unknown names, stale spills unlinked;
//  * LRU eviction — the resident-count cap, warm state surviving an
//    evict/reopen cycle, leases pinning sessions;
//  * v3 state — mmap vs streamed loads are byte-identical after
//    re-serialisation, a leftover text state from an older build starts
//    cold and is replaced by v3, and the v3 loader refuses
//    truncation/corruption;
//  * concurrency — acquire/evict/reopen churn across threads (the tsan
//    target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "andersen/prefilter.hpp"
#include "cfl/persist.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "pag/pag_io.hpp"
#include "service/manager.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "synth/generator.hpp"

namespace parcfl::service {
namespace {

using pag::NodeId;

struct Workload {
  pag::Pag pag;
  std::vector<NodeId> queries;
};

Workload small_workload(std::uint64_t seed = 7) {
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

Session::Options session_options(unsigned threads = 2) {
  Session::Options o;
  o.engine.threads = threads;
  o.engine.solver.budget = 1'000'000;
  // Miniature workloads: taus scaled down so sharing has something to do.
  o.engine.solver.tau_finished = 5;
  o.engine.solver.tau_unfinished = 50;
  o.prefilter = false;  // deterministic: no background solve racing tests
  // Serve the faithful graph: on miniature workloads reduction leaves
  // traversals too short to ever cross the taus, and the warm-state tests
  // need a non-empty jmp store to carry across evict/reopen.
  o.reduce_graph = false;
  return o;
}

std::string write_workload_pag(const Workload& w, const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream os(path);
  pag::write_pag(os, w.pag);
  EXPECT_TRUE(os.good());
  return path;
}

/// Each test gets its own spill directory so a warm .state file spilled by
/// one test can never leak into another's cold-start expectations.
std::string fresh_spill_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "mgr_spill_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SessionManager::Options manager_options(std::size_t max_resident,
                                        const std::string& tag) {
  SessionManager::Options o;
  o.session = session_options();
  o.max_resident = max_resident;
  o.spill_dir = fresh_spill_dir(tag);
  return o;
}

std::vector<Session::Item> query_items(const Workload& w, std::size_t n) {
  std::vector<Session::Item> items;
  for (std::size_t i = 0; i < n && i < w.queries.size(); ++i)
    items.push_back(Session::Item{w.queries[i], 0});
  return items;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Lifecycle

TEST(ManagerTest, OpenIsLazyAndAcquireLoads) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_lazy.pag");
  SessionManager mgr(manager_options(2, "lazy"));

  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error)) << error;
  EXPECT_EQ(mgr.counters().loads, 0u);  // nothing parsed yet
  EXPECT_EQ(mgr.counters().open_tenants, 1u);
  EXPECT_FALSE(mgr.acquire("nobody", &error));  // unknown names error

  {
    auto lease = mgr.acquire("a", &error);
    ASSERT_TRUE(lease) << error;
    EXPECT_EQ(lease->node_count(), w.pag.node_count());
  }
  EXPECT_EQ(mgr.counters().loads, 1u);
  // Second acquire reuses the resident session — no second load.
  auto lease = mgr.acquire("a", &error);
  ASSERT_TRUE(lease) << error;
  EXPECT_EQ(mgr.counters().loads, 1u);
}

TEST(ManagerTest, OpenRejectsBadPathAndBadName) {
  SessionManager mgr(manager_options(2, "badopen"));
  std::string error;
  EXPECT_FALSE(
      mgr.open("a", testing::TempDir() + "does_not_exist.pag", &error));
  // Names become spill-file stems: nothing that could traverse paths.
  EXPECT_FALSE(mgr.open("..", "/dev/null", &error));
  EXPECT_FALSE(mgr.open(".", "/dev/null", &error));
  EXPECT_FALSE(mgr.open("a/b", "/dev/null", &error));
  EXPECT_FALSE(mgr.open("bad name", "/dev/null", &error));
  EXPECT_FALSE(
      mgr.open(std::string(kMaxTenantName + 1, 'a'), "/dev/null", &error));
  EXPECT_EQ(mgr.counters().open_tenants, 0u);
  // Exactly at the length cap is legal.
  EXPECT_TRUE(mgr.open(std::string(kMaxTenantName, 'a'), "/dev/null", &error))
      << error;
}

TEST(ManagerTest, OpenIsIdempotentForSamePathOnly) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_idem.pag");
  const std::string other = write_workload_pag(w, "mgr_idem2.pag");
  SessionManager mgr(manager_options(2, "idem"));
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error));
  EXPECT_TRUE(mgr.open("a", pag_path, &error));  // same registration
  EXPECT_FALSE(mgr.open("a", other, &error));    // conflicting path
  EXPECT_EQ(mgr.counters().opens, 1u);
}

// A spill directory reused for a name now backed by a *different* graph
// must not keep the first graph's spilled warm state: it would shadow the
// new registration's future spills forever. The reopened session starts
// cold, the stale file is unlinked, and the stale_spills counter records it.
TEST(ManagerTest, StaleSpillFromReopenedNameIsUnlinked) {
  const Workload w1 = small_workload(7);
  const Workload w2 = small_workload(8);
  const std::string pag1 = write_workload_pag(w1, "mgr_stale1.pag");
  const std::string pag2 = write_workload_pag(w2, "mgr_stale2.pag");
  const auto options = manager_options(1, "stale");
  const std::string state_path = options.spill_dir + "/t.state";
  std::string error;
  {
    SessionManager mgr(options);
    ASSERT_TRUE(mgr.open("t", pag1, &error));
    ASSERT_TRUE(mgr.open("u", pag1, &error));
    {
      auto lease = mgr.acquire("t", &error);
      ASSERT_TRUE(lease) << error;
      lease->run_batch(query_items(w1, 24));
    }
    { auto lease = mgr.acquire("u", &error); ASSERT_TRUE(lease) << error; }
    ASSERT_EQ(mgr.counters().evictions, 1u);  // t spilled
  }
  ASSERT_TRUE(std::filesystem::exists(state_path));

  // Same spill directory, same name, different graph: the spill is stale.
  SessionManager mgr(options);
  ASSERT_TRUE(mgr.open("t", pag2, &error));
  ASSERT_TRUE(mgr.open("v", pag2, &error));
  {
    auto lease = mgr.acquire("t", &error);
    ASSERT_TRUE(lease) << error;
    // The mismatched spill was ignored — this is a cold session.
    EXPECT_EQ(lease->store().entry_count(), 0u);
    lease->run_batch(query_items(w2, 8));
  }
  EXPECT_EQ(mgr.counters().stale_spills, 1u);
  EXPECT_FALSE(std::filesystem::exists(state_path));

  // And the name's own spills work again: evicting t rewrites the state
  // file for the *new* graph, which a reopen accepts as warm.
  { auto lease = mgr.acquire("v", &error); ASSERT_TRUE(lease) << error; }
  ASSERT_TRUE(std::filesystem::exists(state_path));
  { auto lease = mgr.acquire("t", &error); ASSERT_TRUE(lease) << error; }
  EXPECT_EQ(mgr.counters().reopens, 1u);
  EXPECT_EQ(mgr.counters().stale_spills, 1u);  // unchanged: spill was fresh
}

// ---------------------------------------------------------------------------
// Eviction

TEST(ManagerTest, LruEvictionAtResidentCap) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_lru.pag");
  SessionManager mgr(manager_options(1, "lru"));
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error));
  ASSERT_TRUE(mgr.open("b", pag_path, &error));

  { auto lease = mgr.acquire("a", &error); ASSERT_TRUE(lease) << error; }
  // Loading b pushes the fleet to 2 resident > cap 1; a is LRU and idle.
  { auto lease = mgr.acquire("b", &error); ASSERT_TRUE(lease) << error; }
  const auto c = mgr.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.resident, 1u);

  // Reopening a is counted as a reopen, not a first load, and evicts b.
  { auto lease = mgr.acquire("a", &error); ASSERT_TRUE(lease) << error; }
  EXPECT_EQ(mgr.counters().reopens, 1u);
  EXPECT_EQ(mgr.counters().evictions, 2u);
}

TEST(ManagerTest, WarmStateSurvivesEvictReopen) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_warm.pag");
  SessionManager mgr(manager_options(1, "warm"));
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error));
  ASSERT_TRUE(mgr.open("b", pag_path, &error));

  const auto items = query_items(w, 24);
  std::vector<Session::ItemResult> cold_results;
  std::uint64_t warm_entries = 0;
  {
    auto lease = mgr.acquire("a", &error);
    ASSERT_TRUE(lease) << error;
    cold_results = lease->run_batch(items).items;
    warm_entries = lease->store().entry_count();
  }
  EXPECT_GT(warm_entries, 0u);

  { auto lease = mgr.acquire("b", &error); ASSERT_TRUE(lease) << error; }
  ASSERT_EQ(mgr.counters().evictions, 1u);

  // The reopened session warm-starts from the spilled v3 state: the jmp
  // entries are back before any query runs, and answers are unchanged.
  auto lease = mgr.acquire("a", &error);
  ASSERT_TRUE(lease) << error;
  EXPECT_EQ(lease->store().entry_count(), warm_entries);
  const auto warm_results = lease->run_batch(items).items;
  ASSERT_EQ(warm_results.size(), cold_results.size());
  for (std::size_t i = 0; i < warm_results.size(); ++i)
    EXPECT_EQ(warm_results[i].objects, cold_results[i].objects) << i;
}

TEST(ManagerTest, LeasePinsAgainstEviction) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_pin.pag");
  SessionManager mgr(manager_options(1, "pin"));
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error));
  ASSERT_TRUE(mgr.open("b", pag_path, &error));

  auto held = mgr.acquire("a", &error);
  ASSERT_TRUE(held) << error;
  Session* held_session = held.get();
  // b loading makes the fleet over-cap, but a holds a lease — no candidate.
  auto other = mgr.acquire("b", &error);
  ASSERT_TRUE(other) << error;
  EXPECT_EQ(mgr.counters().evictions, 0u);
  EXPECT_EQ(mgr.counters().resident, 2u);
  // The held session is still the same object and still answers.
  EXPECT_EQ(held.get(), held_session);
  const auto items = query_items(w, 2);
  EXPECT_GT(held->run_batch(items).items.size(), 0u);
  other = SessionManager::Lease();  // release b: a still leased, b LRU-able
  held = SessionManager::Lease();   // now a is idle; caps enforce on release
  EXPECT_EQ(mgr.counters().resident, 1u);
  EXPECT_EQ(mgr.counters().evictions, 1u);
}

// ---------------------------------------------------------------------------
// v3 state format

/// Run a few queries and spill the warm state as v3. Reduction is off so the
/// state's fingerprint is over `w.pag` itself and the cfl:: loaders can be
/// driven directly against it.
std::string spill_v3_state(const Workload& w, const std::string& tag) {
  auto o = session_options();
  o.reduce_graph = false;
  Session session(w.pag, std::move(o));
  const auto items = query_items(w, 24);
  session.run_batch(items);
  EXPECT_GT(session.store().entry_count(), 0u);
  const std::string dir = fresh_spill_dir(tag);
  const std::string state = dir + "/s.state";
  bool wrote_pag = false;
  std::string error;
  EXPECT_TRUE(session.spill(state, dir + "/s.pag", &wrote_pag, &error))
      << error;
  EXPECT_FALSE(wrote_pag);  // no deltas applied — the source graph stands
  return state;
}

TEST(ManagerTest, MmapAndStreamLoadsAreByteIdentical) {
  const Workload w = small_workload();
  const std::string v3 = spill_v3_state(w, "v3ident");

  // Load the same file twice — once zero-copy via mmap, once through the
  // streamed fallback — and re-serialise both. The v3 writer is
  // deterministic (key-sorted, identity remap into fresh tables), so any
  // divergence in what was loaded shows up as a byte difference.
  auto reload_and_save = [&](cfl::StateLoadMode mode, const std::string& out) {
    cfl::ContextTable contexts;
    cfl::JmpStore store;
    std::string e;
    ASSERT_TRUE(
        cfl::load_sharing_state_file_v3(v3, w.pag, contexts, store, mode, &e))
        << e;
    EXPECT_GT(store.entry_count(), 0u);
    ASSERT_TRUE(
        cfl::save_sharing_state_file_v3(out, w.pag, contexts, store, &e))
        << e;
  };
  const std::string via_mmap = testing::TempDir() + "mgr_v3_mmap.state";
  const std::string via_stream = testing::TempDir() + "mgr_v3_stream.state";
  reload_and_save(cfl::StateLoadMode::kMmap, via_mmap);
  reload_and_save(cfl::StateLoadMode::kStream, via_stream);
  const std::string a = slurp(via_mmap);
  const std::string b = slurp(via_stream);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, slurp(v3));  // and identical to the original snapshot
}

// A state file left behind by a build that still wrote the retired text
// format (`parcfl-state 2`) must neither keep a service from starting nor
// leak into its answers: the warm start ignores it and says so, the `load`
// verb refuses it without touching the store, and the next `save` replaces
// it with a v3 image.
TEST(ManagerTest, LeftoverTextStateStartsColdAndIsReplacedByV3) {
  const Workload w = small_workload();
  const std::string dir = fresh_spill_dir("migrate");
  const std::string leftover = dir + "/service.state";
  {
    std::ofstream os(leftover);
    os << "parcfl-state 2\npag " << w.pag.node_count() << ' '
       << w.pag.edge_count() << ' ' << cfl::pag_fingerprint(w.pag)
       << " 0\nctx 1 0 3\n";
  }
  ServiceOptions options;
  options.session = session_options();
  options.session.state_path = leftover;

  testing::internal::CaptureStderr();
  QueryService svc(w.pag, options);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("ignoring warm-start state " + leftover),
            std::string::npos)
      << log;

  Session& session = svc.session();
  EXPECT_FALSE(session.warm_start_stale());
  EXPECT_EQ(session.store().entry_count(), 0u);
  const auto items = query_items(w, 24);
  Session cold(w.pag, session_options());
  const auto expected = cold.run_batch(items).items;
  const auto got = session.run_batch(items).items;
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].objects, expected[i].objects) << i;

  const std::size_t entries = session.store().entry_count();
  std::istringstream in("load " + leftover + "\nsave " + leftover +
                        "\nquit\n");
  std::ostringstream out;
  serve_stream(svc, in, out);
  std::istringstream replies(out.str());
  std::string load_reply, save_reply;
  std::getline(replies, load_reply);
  std::getline(replies, save_reply);
  EXPECT_EQ(load_reply.rfind("err ", 0), 0u) << load_reply;
  EXPECT_EQ(session.store().entry_count(), entries);
  EXPECT_EQ(save_reply.rfind("ok ", 0), 0u) << save_reply;

  const std::string saved = slurp(leftover);
  ASSERT_GE(saved.size(), sizeof cfl::kStateV3Magic);
  EXPECT_EQ(saved.compare(0, sizeof cfl::kStateV3Magic,
                          std::string(cfl::kStateV3Magic,
                                      sizeof cfl::kStateV3Magic)),
            0);
}

TEST(ManagerTest, V3LoaderRejectsTruncationAndCorruption) {
  const Workload w = small_workload();
  const std::string bytes = slurp(spill_v3_state(w, "v3hostile"));
  ASSERT_GT(bytes.size(), 64u);

  // Every proper prefix must be rejected, never crash.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{7}, std::size_t{63}, bytes.size() / 2,
        bytes.size() - 1}) {
    cfl::ContextTable contexts;
    cfl::JmpStore store;
    std::string e;
    EXPECT_FALSE(cfl::load_sharing_state_v3(bytes.data(), cut, w.pag, contexts,
                                            store, &e))
        << "prefix " << cut;
  }
  // Flip a bit in the header's revision field: the epoch guard must refuse
  // state stamped for a different delta epoch.
  std::string corrupt = bytes;
  corrupt[24] = static_cast<char>(corrupt[24] ^ 0x40);
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  std::string e;
  EXPECT_FALSE(cfl::load_sharing_state_v3(corrupt.data(), corrupt.size(),
                                          w.pag, contexts, store, &e));
}

// ---------------------------------------------------------------------------
// Concurrency (the tsan target)

TEST(ManagerTest, ConcurrentAcquireEvictChurn) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_churn.pag");
  SessionManager mgr(manager_options(1, "churn"));  // tight cap: evict a lot
  std::string error;
  for (const char* name : {"a", "b", "c"})
    ASSERT_TRUE(mgr.open(name, pag_path, &error)) << error;

  constexpr int kThreads = 4;
  constexpr int kIters = 12;
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const char* names[] = {"a", "b", "c"};
      const auto items = query_items(w, 2);
      for (int i = 0; i < kIters; ++i) {
        const char* name = names[(t + i) % 3];
        std::string e;
        if (t == 0 && i % 5 == 4) {
          // Re-register under the registry lock while others evict/reopen.
          EXPECT_TRUE(mgr.open(name, pag_path, &e)) << e;
          continue;
        }
        auto lease = mgr.acquire(name, &e);
        EXPECT_TRUE(lease) << e;
        if (!lease) continue;
        answered += lease->run_batch(items).items.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(mgr.counters().evictions, 0u);
}

}  // namespace
}  // namespace parcfl::service
