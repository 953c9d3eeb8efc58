// Router tests: the consistent-hash scale-out front-end (DESIGN.md §14,
// src/service/router.*) plus the worker-side continuation verbs it drives.
//
//  * identity — the acceptance bar for the whole scale-out design: a
//    router+fleet answer must be object-identical to the single-node answer
//    for every query, in every engine mode, cold and warm;
//  * failure — a worker dying mid-flight fails the distributed query as a
//    counted `err partition unavailable` within the receive deadline, never
//    a hang (the PR's regression test);
//  * teardown — fleet + router destruction with concurrent clients in
//    flight stays clean (the tsan target);
//  * wire — the part handshake and the cont/cfact/creset continuation verbs
//    against a WireSession, including the per-connection fact isolation,
//    and the refusal of `update` on a worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cfl/engine.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "pag/delta.hpp"
#include "pag/partition.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "service/worker.hpp"
#include "synth/generator.hpp"

namespace parcfl::service {
namespace {

using pag::NodeId;

struct Workload {
  pag::Pag pag;
  std::vector<NodeId> queries;
};

Workload container_workload(std::uint64_t seed = 21) {
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

cfl::EngineOptions engine_options(cfl::Mode mode, unsigned threads) {
  cfl::EngineOptions o;
  o.mode = mode;
  o.threads = threads;
  o.solver.budget = 200'000;
  o.solver.tau_finished = 10;
  o.solver.tau_unfinished = 100;
  return o;
}

/// An in-process fleet: one partition Session + TcpServer per partition and
/// a RouterCore over all of them — the same wiring parcfl_route does across
/// processes.
struct Fleet {
  std::shared_ptr<const pag::PartitionMap> map;
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<TcpServer>> servers;
  std::vector<std::thread> serve_threads;
  std::unique_ptr<RouterCore> router;

  /// Simulate a worker crash: close its listener and half-close every live
  /// connection, so the router's next send/recv on the pooled connection
  /// fails and its reconnect attempt is refused.
  void kill_worker(std::size_t i) {
    servers[i]->shutdown();
    if (serve_threads[i].joinable()) serve_threads[i].join();
  }

  ~Fleet() {
    router.reset();  // closes pooled worker connections first
    for (auto& s : servers) s->shutdown();
    for (auto& t : serve_threads)
      if (t.joinable()) t.join();
  }
};

std::unique_ptr<Fleet> make_fleet(const pag::Pag& full, std::uint32_t parts,
                                  cfl::Mode mode, unsigned threads,
                                  std::uint32_t deadline_ms = 5000) {
  auto fleet = std::make_unique<Fleet>();
  pag::PartitionOptions po;
  po.parts = parts;
  po.seed = 1;
  fleet->map =
      std::make_shared<const pag::PartitionMap>(pag::partition_pag(full, po));

  RouterOptions ro;
  ro.map = fleet->map;
  ro.deadline_ms = deadline_ms;
  std::string error;
  for (std::uint32_t p = 0; p < parts; ++p) {
    ServiceOptions so;
    so.session.engine = engine_options(mode, threads);
    so.session.partition = fleet->map;
    so.session.partition_id = p;
    fleet->services.push_back(std::make_unique<QueryService>(
        pag::make_sub_pag(full, *fleet->map, p), so));
    fleet->servers.push_back(std::make_unique<TcpServer>(
        *fleet->services.back(), std::uint16_t{0}, &error));
    if (!fleet->servers.back()->ok()) return nullptr;
    TcpServer* server = fleet->servers.back().get();
    fleet->serve_threads.emplace_back([server] { server->serve(); });
    ro.workers.push_back(std::to_string(server->port()));
  }
  fleet->router = std::make_unique<RouterCore>(std::move(ro), &error);
  if (!fleet->router->ok()) {
    ADD_FAILURE() << "router init failed: " << error;
    return nullptr;
  }
  return fleet;
}

Request query_request(NodeId var) {
  Request r;
  r.verb = Verb::kQuery;
  r.a = var;
  return r;
}

// ---- identity --------------------------------------------------------------

TEST(RouterIdentity, MatchesSingleNodeInEveryMode) {
  const auto w = container_workload();
  for (const cfl::Mode mode :
       {cfl::Mode::kSequential, cfl::Mode::kNaive, cfl::Mode::kDataSharing,
        cfl::Mode::kDataSharingScheduling}) {
    const auto fleet = make_fleet(w.pag, 2, mode, 2);
    ASSERT_NE(fleet, nullptr);
    ServiceOptions so;
    so.session.engine = engine_options(mode, 2);
    QueryService single(w.pag, so);

    // Two passes: cold (both sides first-run) and warm (the single node has
    // published jmps; the fleet must still agree object-for-object).
    for (const char* pass : {"cold", "warm"}) {
      for (std::size_t i = 0; i < w.queries.size(); ++i) {
        const Reply distributed = fleet->router->handle(query_request(w.queries[i]));
        const Reply reference = single.call(query_request(w.queries[i]));
        ASSERT_EQ(distributed.status, reference.status)
            << pass << " query " << w.queries[i].value();
        EXPECT_EQ(distributed.query_status, reference.query_status)
            << pass << " query " << w.queries[i].value();
        EXPECT_EQ(distributed.objects, reference.objects)
            << pass << " query " << w.queries[i].value();
        if (i % 4 == 3) {
          Request aq;
          aq.verb = Verb::kAlias;
          aq.a = w.queries[i];
          aq.b = w.queries[(i * 7 + 2) % w.queries.size()];
          const Reply da = fleet->router->handle(aq);
          const Reply ra = single.call(Request(aq));
          EXPECT_EQ(da.status, ra.status) << pass << " alias";
          EXPECT_EQ(da.alias, ra.alias) << pass << " alias";
        }
      }
    }
  }
}

TEST(RouterIdentity, ThreePartitionsStillExact) {
  const auto w = container_workload(23);
  const auto fleet =
      make_fleet(w.pag, 3, cfl::Mode::kDataSharingScheduling, 2);
  ASSERT_NE(fleet, nullptr);
  ServiceOptions so;
  so.session.engine = engine_options(cfl::Mode::kDataSharingScheduling, 2);
  QueryService single(w.pag, so);
  for (const NodeId q : w.queries) {
    const Reply distributed = fleet->router->handle(query_request(q));
    const Reply reference = single.call(query_request(q));
    EXPECT_EQ(distributed.objects, reference.objects) << q.value();
    EXPECT_EQ(distributed.query_status, reference.query_status) << q.value();
  }
}

// ---- request validation ----------------------------------------------------

TEST(Router, ValidatesRequestsAndAnswersStats) {
  const auto w = container_workload();
  const auto fleet = make_fleet(w.pag, 2, cfl::Mode::kSequential, 1);
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->router->node_count(), w.pag.node_count());

  // Unsupported verbs are rejected, not forwarded.
  Request save;
  save.verb = Verb::kSave;
  save.path = "x";
  const Reply r = fleet->router->handle(save);
  EXPECT_EQ(r.status, Reply::Status::kError);
  EXPECT_NE(r.text.find("unsupported"), std::string::npos) << r.text;

  // Object-node queries fail with the same error text the service uses, so
  // identity holds for rejections too.
  for (std::uint32_t v = 0; v < w.pag.node_count(); ++v) {
    if (w.pag.is_variable(NodeId(v))) continue;
    const Reply obj = fleet->router->handle(query_request(NodeId(v)));
    EXPECT_EQ(obj.status, Reply::Status::kError);
    EXPECT_NE(obj.text.find("not a variable node"), std::string::npos);
    break;
  }

  // The stats verb answers the router's own counters.
  Request stats;
  stats.verb = Verb::kStats;
  const Reply s = fleet->router->handle(stats);
  EXPECT_EQ(s.status, Reply::Status::kOk);
  EXPECT_NE(s.text.find("\"queries\""), std::string::npos) << s.text;
  EXPECT_NE(fleet->router->stats_json().find("\"workers\""), std::string::npos);

  // handle_line: the wire front-end parses, handles and formats.
  std::string reply_line;
  EXPECT_TRUE(fleet->router->handle_line("ping", reply_line));
  EXPECT_EQ(reply_line, "ok pong\n");
  EXPECT_TRUE(fleet->router->handle_line("nonsense", reply_line));
  EXPECT_EQ(reply_line.rfind("err ", 0), 0u) << reply_line;
  EXPECT_FALSE(fleet->router->handle_line("quit", reply_line));
  EXPECT_EQ(reply_line, "ok bye\n");
}

// ---- worker failure --------------------------------------------------------

TEST(Router, DeadWorkerFailsQueryWithinDeadline) {
  const auto w = container_workload();
  auto fleet =
      make_fleet(w.pag, 2, cfl::Mode::kSequential, 1, /*deadline_ms=*/500);
  ASSERT_NE(fleet, nullptr);

  // A query var homed on partition 1 — the partition about to die.
  NodeId victim = NodeId::invalid();
  for (const NodeId q : w.queries)
    if (fleet->map->owner_of(q) == 1) {
      victim = q;
      break;
    }
  ASSERT_TRUE(victim.valid()) << "no query var owned by partition 1";

  fleet->kill_worker(1);

  const auto start = std::chrono::steady_clock::now();
  const Reply r = fleet->router->handle(query_request(victim));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(r.status, Reply::Status::kError);
  EXPECT_NE(r.text.find("partition unavailable"), std::string::npos) << r.text;
  // Deadline (500ms) + one transparent reconnect attempt, with slack for a
  // loaded CI host — the point is "bounded", not "fast": a hang would trip
  // the test binary's own timeout long before this.
  EXPECT_LT(elapsed, 10'000) << "dead worker stalled the query";

  // The failure is counted, and the router itself stays serviceable.
  EXPECT_NE(fleet->router->stats_json().find("\"unavailable\":1"),
            std::string::npos)
      << fleet->router->stats_json();
  Request stats;
  stats.verb = Verb::kStats;
  EXPECT_EQ(fleet->router->handle(stats).status, Reply::Status::kOk);
}

// ---- teardown under load ---------------------------------------------------

TEST(Router, TeardownWithConcurrentClientsIsClean) {
  const auto w = container_workload();
  auto fleet = make_fleet(w.pag, 2, cfl::Mode::kDataSharingScheduling, 2);
  ASSERT_NE(fleet, nullptr);

  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < w.queries.size(); i += 4) {
        const Reply r = fleet->router->handle(query_request(w.queries[i]));
        if (r.status == Reply::Status::kOk) answered.fetch_add(1);
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_GT(answered.load(), 0u);
  fleet.reset();  // router, then servers, then serve threads — must not hang
}

// ---- worker wire verbs -----------------------------------------------------

TEST(WorkerWire, PartHandshake) {
  const auto w = container_workload();
  pag::PartitionOptions po;
  po.parts = 2;
  const auto map =
      std::make_shared<const pag::PartitionMap>(pag::partition_pag(w.pag, po));
  ServiceOptions so;
  so.session.engine = engine_options(cfl::Mode::kSequential, 1);
  so.session.partition = map;
  so.session.partition_id = 1;
  QueryService svc(pag::make_sub_pag(w.pag, *map, 1), so);
  WireSession ws(svc);

  std::string reply;
  EXPECT_TRUE(ws.handle("part", reply));
  EXPECT_EQ(reply, "ok part 1 2 " + std::to_string(w.pag.node_count()) + " " +
                       std::to_string(w.pag.revision()) + "\n");
  EXPECT_TRUE(ws.handle("part 1", reply));
  EXPECT_EQ(reply.rfind("ok part 1 ", 0), 0u) << reply;
  EXPECT_TRUE(ws.handle("part 0", reply));
  EXPECT_EQ(reply, "err unknown partition\n");

  // A plain (un-partitioned) service refuses all worker verbs.
  ServiceOptions plain;
  plain.session.engine = engine_options(cfl::Mode::kSequential, 1);
  QueryService whole(w.pag, plain);
  WireSession plain_ws(whole);
  for (const char* verb : {"part", "creset", "cont b 0 -"}) {
    EXPECT_TRUE(plain_ws.handle(verb, reply));
    EXPECT_EQ(reply, "err not a worker\n") << verb;
  }
}

TEST(WorkerWire, ContinuationRunsAndFactsReset) {
  const auto w = container_workload();
  pag::PartitionOptions po;
  po.parts = 2;
  const auto map =
      std::make_shared<const pag::PartitionMap>(pag::partition_pag(w.pag, po));
  NodeId local = NodeId::invalid();
  for (const NodeId q : w.queries)
    if (map->owner_of(q) == 0) {
      local = q;
      break;
    }
  ASSERT_TRUE(local.valid());

  ServiceOptions so;
  so.session.engine = engine_options(cfl::Mode::kSequential, 1);
  so.session.partition = map;
  so.session.partition_id = 0;
  QueryService svc(pag::make_sub_pag(w.pag, *map, 0), so);
  WireSession ws(svc);

  const std::string node = std::to_string(local.value());
  std::string reply;
  // A backward task from an owned variable runs and answers a counted frame.
  EXPECT_TRUE(ws.handle("cont b " + node + " -", reply));
  ASSERT_EQ(reply.rfind("ok cont ", 0), 0u) << reply;

  // Seeding facts: charges accumulate, duplicates are union-idempotent.
  EXPECT_TRUE(ws.handle("cfact b " + node + " - 1 " + node + ":-", reply));
  EXPECT_EQ(reply, "ok cfact 1\n");
  EXPECT_TRUE(ws.handle("cfact b " + node + " - 1 " + node + ":-", reply));
  EXPECT_EQ(reply, "ok cfact 1\n") << "duplicate fact charged twice";
  EXPECT_EQ(ws.fact_total(), 1u);

  // creset drops the connection's accumulated facts.
  EXPECT_TRUE(ws.handle("creset", reply));
  EXPECT_EQ(reply, "ok creset\n");
  EXPECT_EQ(ws.fact_total(), 0u);
  EXPECT_TRUE(ws.handle("cfact b " + node + " - 1 " + node + ":-", reply));
  EXPECT_EQ(reply, "ok cfact 1\n");

  // Hostile worker frames fail as protocol errors, not crashes.
  for (const char* bad :
       {"cont", "cont x 0 -", "cont b 999999999 -", "cont b 0 1.2.x",
        "cfact b 0 - 2 0:-", "cfact b 0 - 1 nocolon", "part 99999999999",
        "creset now"}) {
    EXPECT_TRUE(ws.handle(bad, reply)) << bad;
    EXPECT_EQ(reply.rfind("err ", 0), 0u) << bad << " -> " << reply;
  }
}

// A worker's sub-PAG must match the router's partition map. A delta that
// adds nodes would outgrow the owner table (a query on a new node then
// reads past it), so the worker refuses every update before applying it.
TEST(WorkerWire, UpdateIsRefusedAndGraphUnchanged) {
  const auto w = container_workload();
  pag::PartitionOptions po;
  po.parts = 2;
  const auto map =
      std::make_shared<const pag::PartitionMap>(pag::partition_pag(w.pag, po));
  NodeId local = NodeId::invalid();
  for (const NodeId q : w.queries)
    if (map->owner_of(q) == 0) {
      local = q;
      break;
    }
  ASSERT_TRUE(local.valid());
  NodeId object = NodeId::invalid();
  for (std::uint32_t n = 0; n < w.pag.node_count() && !object.valid(); ++n)
    if (w.pag.is_object(NodeId(n))) object = NodeId(n);
  ASSERT_TRUE(object.valid());

  ServiceOptions so;
  so.session.engine = engine_options(cfl::Mode::kSequential, 1);
  so.session.partition = map;
  so.session.partition_id = 0;
  QueryService svc(pag::make_sub_pag(w.pag, *map, 0), so);
  WireSession ws(svc);
  const std::uint32_t nodes = svc.session().node_count();
  const std::uint32_t revision = svc.session().revision();

  pag::Delta delta(nodes);
  NodeId fresh = NodeId::invalid();
  for (int i = 0; i < 4096; ++i) fresh = delta.add_node(pag::NodeKind::kLocal);
  delta.add_edge(pag::EdgeKind::kNew, fresh, object);
  const std::string path = ::testing::TempDir() + "router_test_worker.delta";
  {
    std::ofstream out(path);
    pag::write_delta(out, delta);
  }

  std::string reply;
  EXPECT_TRUE(ws.handle("update " + path, reply));
  EXPECT_EQ(reply, "err update unsupported on a partitioned worker\n");
  EXPECT_EQ(svc.session().node_count(), nodes);
  EXPECT_EQ(svc.session().revision(), revision);
  EXPECT_TRUE(ws.handle("query " + std::to_string(local.value()), reply));
  EXPECT_EQ(reply.rfind("ok ", 0), 0u) << reply;
}

}  // namespace
}  // namespace parcfl::service
