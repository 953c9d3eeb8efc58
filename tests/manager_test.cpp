// SessionManager tests — the multi-tenant fleet (DESIGN.md §12).
//
//  * lifecycle — lazy open (no load until first acquire), idempotent
//    re-open, close, unknown names;
//  * LRU eviction — resident-count and resident-bytes caps, warm state
//    surviving an evict/reopen cycle, leases pinning sessions;
//  * v3 state — mmap vs streamed loads are byte-identical after
//    re-serialisation, a leftover text state from an older build starts
//    cold and is replaced by v3, and the v3 loader refuses
//    truncation/corruption;
//  * concurrency — open/close/evict/query churn across threads (the tsan
//    target), close-while-leased draining the in-flight lease;
//  * service integration — open/close/@tenant verbs end to end, per-tenant
//    admission quota, graceful TCP teardown with a connected client.

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

#include "cfl/persist.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "pag/pag_io.hpp"
#include "service/line_io.hpp"
#include "service/manager.hpp"
#include "service/protocol.hpp"
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
  EXPECT_TRUE(mgr.known("a"));

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
  EXPECT_FALSE(mgr.open("..", "/dev/null", &error));
  EXPECT_FALSE(mgr.open("bad name", "/dev/null", &error));
  EXPECT_FALSE(mgr.known("a"));
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

TEST(ManagerTest, CloseUnregistersAndUnknownNamesError) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_close.pag");
  SessionManager mgr(manager_options(2, "close"));
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error));
  ASSERT_TRUE(mgr.close("a", &error)) << error;
  EXPECT_FALSE(mgr.known("a"));
  EXPECT_FALSE(mgr.close("a", &error));
  EXPECT_FALSE(mgr.acquire("a", &error));
}

// Close + re-open of a tenant name with a *different* graph must not leave
// the first graph's spilled warm state behind: it would shadow the new
// registration's future spills forever. The reopened session starts cold,
// the stale file is unlinked, and the stale_spills counter records it.
TEST(ManagerTest, StaleSpillFromReopenedNameIsUnlinked) {
  const Workload w1 = small_workload(7);
  const Workload w2 = small_workload(8);
  const std::string pag1 = write_workload_pag(w1, "mgr_stale1.pag");
  const std::string pag2 = write_workload_pag(w2, "mgr_stale2.pag");
  auto options = manager_options(2, "stale");
  SessionManager mgr(options);
  std::string error;

  ASSERT_TRUE(mgr.open("t", pag1, &error));
  {
    auto lease = mgr.acquire("t", &error);
    ASSERT_TRUE(lease) << error;
    lease->run_batch(query_items(w1, 24));  // dirty so close() spills
  }
  ASSERT_TRUE(mgr.close("t", &error)) << error;
  const std::string state_path = options.spill_dir + "/t.state";
  ASSERT_TRUE(std::filesystem::exists(state_path));

  // Same name, different graph: the first graph's spill is now stale.
  ASSERT_TRUE(mgr.open("t", pag2, &error));
  {
    auto lease = mgr.acquire("t", &error);
    ASSERT_TRUE(lease) << error;
    // The mismatched spill was ignored — this is a cold session.
    EXPECT_EQ(lease->store().entry_count(), 0u);
    lease->run_batch(query_items(w2, 8));
  }
  EXPECT_EQ(mgr.counters().stale_spills, 1u);
  EXPECT_FALSE(std::filesystem::exists(state_path));

  // And the tenant's own spills work again: evict-by-close rewrites the
  // state file for the *new* graph, which a reopen accepts as warm.
  ASSERT_TRUE(mgr.close("t", &error)) << error;
  ASSERT_TRUE(std::filesystem::exists(state_path));
  ASSERT_TRUE(mgr.open("t", pag2, &error));
  {
    auto lease = mgr.acquire("t", &error);
    ASSERT_TRUE(lease) << error;
  }
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

TEST(ManagerTest, ByteCapEvicts) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_bytes.pag");
  auto options = manager_options(8, "bytes");  // count-cap slack; bytes bind
  options.max_resident_bytes = 1;              // any session is over
  SessionManager mgr(options);
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error));
  ASSERT_TRUE(mgr.open("b", pag_path, &error));
  { auto lease = mgr.acquire("a", &error); ASSERT_TRUE(lease) << error; }
  { auto lease = mgr.acquire("b", &error); ASSERT_TRUE(lease) << error; }
  // Both idle and both over the byte budget: everything evictable goes.
  EXPECT_EQ(mgr.counters().resident, 0u);
  EXPECT_GE(mgr.counters().evictions, 2u);
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
  options.spill_dir = dir;

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

TEST(ManagerTest, ConcurrentOpenCloseQueryChurn) {
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
        if (t == 0 && i % 5 == 4) {
          // Churn the registry itself: close and immediately re-open.
          std::string e;
          if (mgr.close(name, &e)) mgr.open(name, pag_path, &e);
          continue;
        }
        std::string e;
        auto lease = mgr.acquire(name, &e);
        if (!lease) continue;  // closed under us — acceptable, not a crash
        answered += lease->run_batch(items).items.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(mgr.counters().evictions, 0u);
}

TEST(ManagerTest, CloseWhileLeasedWaitsForTheLease) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_cwq.pag");
  SessionManager mgr(manager_options(2, "cwq"));
  std::string error;
  ASSERT_TRUE(mgr.open("a", pag_path, &error));

  auto lease = mgr.acquire("a", &error);
  ASSERT_TRUE(lease) << error;
  std::atomic<bool> closed{false};
  std::thread closer([&] {
    std::string e;
    EXPECT_TRUE(mgr.close("a", &e)) << e;
    closed.store(true, std::memory_order_release);
  });
  // The close must block while the lease lives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(closed.load(std::memory_order_acquire));
  const auto items = query_items(w, 2);
  EXPECT_GT(lease->run_batch(items).items.size(), 0u);
  lease = SessionManager::Lease();  // release → close proceeds
  closer.join();
  EXPECT_TRUE(closed.load());
  EXPECT_FALSE(mgr.known("a"));
}

// ---------------------------------------------------------------------------
// Service integration

ServiceOptions tenant_service_options(const std::string& tag) {
  ServiceOptions o;
  o.session = session_options();
  o.max_sessions = 1;
  o.spill_dir = fresh_spill_dir("svc_" + tag);
  o.max_linger = std::chrono::microseconds(100);
  return o;
}

TEST(ManagerTest, ServiceOpenQueryCloseRoundTrip) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_svc.pag");
  QueryService svc(w.pag, tenant_service_options("roundtrip"));

  Request open;
  open.verb = Verb::kOpen;
  open.tenant = "acme";
  open.path = pag_path;
  Reply r = svc.call(std::move(open));
  ASSERT_EQ(r.status, Reply::Status::kOk) << r.text;

  // The tenant serves the same graph as the default session here, so the
  // prefixed query must answer exactly like the bare one.
  Request q;
  q.verb = Verb::kQuery;
  q.tenant = "acme";
  q.a = w.queries.front();
  const Reply tenant_reply = svc.call(q);
  ASSERT_EQ(tenant_reply.status, Reply::Status::kOk) << tenant_reply.text;
  Request bare = q;
  bare.tenant.clear();
  const Reply default_reply = svc.call(std::move(bare));
  ASSERT_EQ(default_reply.status, Reply::Status::kOk);
  EXPECT_EQ(tenant_reply.objects, default_reply.objects);

  // Unknown tenants and out-of-range tenant node ids fail cleanly.
  Request unknown = q;
  unknown.tenant = "nobody";
  EXPECT_EQ(svc.call(std::move(unknown)).status, Reply::Status::kError);
  Request out_of_range = q;
  out_of_range.a = NodeId(w.pag.node_count() + 5);
  EXPECT_EQ(svc.call(std::move(out_of_range)).status, Reply::Status::kError);

  Request close;
  close.verb = Verb::kClose;
  close.tenant = "acme";
  r = svc.call(std::move(close));
  EXPECT_EQ(r.status, Reply::Status::kOk) << r.text;
  EXPECT_EQ(svc.call(q).status, Reply::Status::kError);  // gone

  const ServiceStats stats = svc.stats();
  EXPECT_GE(stats.open_tenants, 1u);  // the default tenant remains
}

TEST(ManagerTest, ServiceWireProtocolTenantVerbs) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_wire.pag");
  QueryService svc(w.pag, tenant_service_options("wire"));

  std::istringstream in("open acme " + pag_path + "\n@acme query " +
                        std::to_string(w.queries.front().value()) +
                        "\nclose acme\n@acme query 0\nopen .. /x\nquit\n");
  std::ostringstream out;
  serve_stream(svc, in, out);
  const std::string reply = out.str();
  EXPECT_NE(reply.find("ok opened acme"), std::string::npos) << reply;
  EXPECT_NE(reply.find("ok closed acme"), std::string::npos) << reply;
  EXPECT_NE(reply.find("unknown tenant"), std::string::npos) << reply;
  EXPECT_NE(reply.find("err"), std::string::npos) << reply;
}

TEST(ManagerTest, PerTenantQuotaShedsOnlyTheNoisyTenant) {
  const Workload w = small_workload();
  const std::string pag_path = write_workload_pag(w, "mgr_quota.pag");
  auto options = tenant_service_options("quota");
  options.tenant_max_queue = 2;
  options.max_linger = std::chrono::microseconds(50'000);  // hold the queue
  QueryService svc(w.pag, options);

  Request open;
  open.verb = Verb::kOpen;
  open.tenant = "noisy";
  open.path = pag_path;
  ASSERT_EQ(svc.call(std::move(open)).status, Reply::Status::kOk);

  // Flood one tenant past its quota while the linger holds dispatch back.
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 8; ++i) {
    Request q;
    q.verb = Verb::kQuery;
    q.tenant = "noisy";
    q.a = w.queries.front();
    futures.push_back(svc.submit(std::move(q)));
  }
  // A default-tenant request admitted during the flood is not shed.
  Request bare;
  bare.verb = Verb::kQuery;
  bare.a = w.queries.front();
  const Reply bare_reply = svc.call(std::move(bare));
  EXPECT_NE(bare_reply.status, Reply::Status::kShedOverload);

  std::uint64_t shed = 0;
  for (auto& f : futures)
    if (f.get().status == Reply::Status::kShedOverload) ++shed;
  EXPECT_GE(shed, 1u);
  EXPECT_GE(svc.stats().shed_overload, shed);
}

TEST(ManagerTest, GracefulTcpTeardownWithConnectedClient) {
  const Workload w = small_workload();
  QueryService svc(w.pag, tenant_service_options("teardown"));
  std::string error;
  TcpServer server(svc, 0, &error);
  ASSERT_TRUE(server.ok()) << error;
  std::thread serving([&] { server.serve(); });

  // Connect, complete one request, then stay connected and idle.
  // No receive timeout: a read that returns must have seen data or EOF.
  LineConn conn;
  ASSERT_TRUE(conn.connect(std::to_string(server.port()), /*deadline_ms=*/0));
  ASSERT_TRUE(conn.send_all(
      "query " + std::to_string(w.queries.front().value()) + "\n"));
  std::string reply;
  ASSERT_TRUE(conn.read_line(reply, kMaxReplyLine));  // got the reply

  // Shutdown with the client still connected must not hang: the handler
  // blocked in recv is half-closed, drains, and joins.
  server.shutdown();
  serving.join();
  // The client observes EOF.
  EXPECT_FALSE(conn.read_line(reply, kMaxReplyLine));
}

}  // namespace
}  // namespace parcfl::service
