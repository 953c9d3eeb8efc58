// Service tests: the long-lived query server built on the warm BatchRunner.
//
//  * protocol — total parsing (any line → Request or error) and reply
//    formatting;
//  * Session — warm-state reuse (the ISSUE acceptance bar: a repeated batch
//    traverses >= 2x fewer steps than the cold run), request-order routing
//    through the DQ scheduler, per-item budgets, the resident-bytes meter;
//  * QueryService — micro-batch coalescing and composition around updates,
//    admission control (overload and deadline sheds), multi-client
//    concurrency (the tsan target), save/load warm start;
//  * wire — serve_stream over string streams, loopback TCP, graceful
//    teardown, and the line layer every peer shares: pipelining, CRLF, the
//    flood cutoff, counted frames, and the reply-line cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "andersen/prefilter.hpp"
#include "cfl/engine.hpp"
#include "frontend/lower.hpp"
#include "pag/collapse.hpp"
#include "pag/delta.hpp"
#include "service/line_io.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "service/stats.hpp"
#include "support/metrics.hpp"
#include "synth/generator.hpp"
#include "test_util.hpp"

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
  // Miniature workloads: scale the taus down so sharing has something to do
  // (the paper's τF=100/τU=10000 are tuned for full-size benchmarks).
  o.solver.tau_finished = 10;
  o.solver.tau_unfinished = 100;
  return o;
}

Session::Options session_options(unsigned threads) {
  Session::Options o;
  o.engine = engine_options(cfl::Mode::kDataSharingScheduling, threads);
  return o;
}

/// var -> sorted points-to set from an independent sequential engine run.
std::map<std::uint32_t, std::vector<NodeId>> sequential_baseline(
    const Workload& w) {
  cfl::EngineOptions o = engine_options(cfl::Mode::kSequential, 1);
  o.collect_objects = true;
  const auto r = cfl::Engine(w.pag, o).run(w.queries);
  std::map<std::uint32_t, std::vector<NodeId>> m;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i)
    m[r.outcomes[i].var.value()] = r.objects[i];
  return m;
}

// ---- protocol ---------------------------------------------------------------

TEST(Protocol, ParsesQueryForms) {
  Request r;
  std::string error;
  ASSERT_TRUE(parse_request("query 17", 100, r, error)) << error;
  EXPECT_EQ(r.verb, Verb::kQuery);
  EXPECT_EQ(r.a.value(), 17u);
  EXPECT_EQ(r.budget, 0u);

  ASSERT_TRUE(parse_request("query v17 budget 5 deadline 9", 100, r, error));
  EXPECT_EQ(r.a.value(), 17u);
  EXPECT_EQ(r.budget, 5u);
  EXPECT_EQ(r.deadline_ms, 9u);

  ASSERT_TRUE(parse_request("alias v3 v4\r", 100, r, error));
  EXPECT_EQ(r.verb, Verb::kAlias);
  EXPECT_EQ(r.a.value(), 3u);
  EXPECT_EQ(r.b.value(), 4u);

  ASSERT_TRUE(parse_request("save /tmp/x.state", 100, r, error));
  EXPECT_EQ(r.verb, Verb::kSave);
  EXPECT_EQ(r.path, "/tmp/x.state");

  for (const char* line : {"stats", "ping", "quit"})
    EXPECT_TRUE(parse_request(line, 100, r, error)) << line;
}

TEST(Protocol, RejectsMalformedLines) {
  Request r;
  std::string error;
  const char* bad[] = {
      "",                          // empty
      "query",                     // missing node
      "query x",                   // non-numeric
      "query -1",                  // not a node id
      "query 100",                 // out of range (node_count = 100)
      "query 3 budget",            // dangling option
      "query 3 frobnicate 7",      // unknown option
      "alias 1",                   // missing second node
      "alias 1 2 3",               // trailing junk
      "save",                      // missing path
      "frobnicate 12",             // unknown verb
      "ping extra",                // arity
  };
  for (const char* line : bad) {
    error.clear();
    EXPECT_FALSE(parse_request(line, 100, r, error)) << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  // Oversized lines are rejected before tokenisation.
  std::string huge(kMaxRequestLine + 1, 'q');
  EXPECT_FALSE(parse_request(huge, 100, r, error));
}

TEST(Protocol, FormatsReplies) {
  Reply q;
  q.verb = Verb::kQuery;
  q.query_status = cfl::QueryStatus::kComplete;
  q.charged_steps = 7;
  q.objects = {NodeId(4), NodeId(9)};
  EXPECT_EQ(format_reply(q), "ok complete 7 2 4 9");

  Reply a;
  a.verb = Verb::kAlias;
  a.alias = cfl::Solver::AliasAnswer::kNo;
  a.charged_steps = 12;
  EXPECT_EQ(format_reply(a), "ok no 12");

  Reply shed;
  shed.status = Reply::Status::kShedOverload;
  EXPECT_EQ(format_reply(shed), "shed overload");
  shed.status = Reply::Status::kShedDeadline;
  EXPECT_EQ(format_reply(shed), "shed deadline");

  Reply err;
  err.status = Reply::Status::kError;
  err.text = "bad node";
  EXPECT_EQ(format_reply(err), "err bad node");
}

// ---- Session ---------------------------------------------------------------

TEST(Session, WarmRepeatBatchTraversesAtLeastTwiceFewerSteps) {
  const auto w = container_workload();
  // Deterministic pipeline state: wait for the prefilter so both passes see
  // it ready (readiness landing between the passes under slow schedulers —
  // tsan — used to skew the ratio run-to-run), and mint aggressively so the
  // repeat batch rides the store as hard as the subsystem allows.
  Session::Options opts = session_options(4);
  opts.engine.solver.tau_finished = 1;
  Session session(w.pag, opts);
  session.wait_for_prefilter();

  std::vector<Session::Item> items;
  for (const NodeId q : w.queries) items.push_back({q, 0});

  const auto cold = session.run_batch(items);
  const auto warm = session.run_batch(items);

  ASSERT_GT(cold.delta.traversed_steps, 0u);
  // The ISSUE acceptance bar: the repeated batch rides the jmp shortcuts the
  // cold run minted.
  EXPECT_GE(cold.delta.traversed_steps, 2 * warm.delta.traversed_steps)
      << "cold=" << cold.delta.traversed_steps
      << " warm=" << warm.delta.traversed_steps;

  // Warm answers are the same answers.
  ASSERT_EQ(cold.items.size(), warm.items.size());
  for (std::size_t i = 0; i < cold.items.size(); ++i)
    EXPECT_EQ(cold.items[i].objects, warm.items[i].objects) << i;
}

TEST(Session, ResultsFollowRequestOrderDespiteScheduling) {
  const auto w = container_workload();
  const auto baseline = sequential_baseline(w);
  Session session(w.pag, session_options(4));

  // Submit in reverse order so any identity assumption about the DQ
  // schedule's permutation shows up as a mismatch.
  std::vector<Session::Item> items;
  for (auto it = w.queries.rbegin(); it != w.queries.rend(); ++it)
    items.push_back({*it, 0});
  const auto batch = session.run_batch(items);

  ASSERT_EQ(batch.items.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(batch.items[i].status, cfl::QueryStatus::kComplete) << i;
    EXPECT_EQ(batch.items[i].objects, baseline.at(items[i].var.value())) << i;
  }
}

TEST(Session, PerItemBudgetCapsWork) {
  const auto w = container_workload();

  // Find the most expensive query from a fresh (cold) probe session.
  Session probe(w.pag, session_options(1));
  std::vector<Session::Item> all;
  for (const NodeId q : w.queries) all.push_back({q, 0});
  const auto full = probe.run_batch(all);
  std::size_t costly = 0;
  for (std::size_t i = 0; i < full.items.size(); ++i)
    if (full.items[i].charged_steps > full.items[costly].charged_steps)
      costly = i;
  ASSERT_GT(full.items[costly].charged_steps, 10u)
      << "workload too trivial to test budgets";

  // A fresh session must cut that query short under a tiny budget...
  Session session(w.pag, session_options(1));
  std::vector<Session::Item> capped{{all[costly].var, 2}};
  const auto r = session.run_batch(capped);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_NE(r.items[0].status, cfl::QueryStatus::kComplete);
  EXPECT_LT(r.items[0].charged_steps, full.items[costly].charged_steps);

  // ...and a later uncapped run in the same session still completes with the
  // full answer (the budget override does not stick).
  std::vector<Session::Item> uncapped{{all[costly].var, 0}};
  const auto r2 = session.run_batch(uncapped);
  EXPECT_EQ(r2.items[0].status, cfl::QueryStatus::kComplete);
  EXPECT_EQ(r2.items[0].objects, full.items[costly].objects);
}

/// The resident-bytes meter counts what a session holds: the live
/// revision's prefilter and the answers the index recorded, beside its graph.
TEST(Session, ResidentBytesMeterPrefilterAndIndex) {
  const auto w = container_workload();
  Session::Options o = session_options(2);
  o.reduce_graph = false;
  o.prefilter = true;
  o.index = true;
  Session session(w.pag, o);
  ASSERT_TRUE(session.wait_for_prefilter());
  std::vector<Session::Item> items;
  for (std::size_t i = 0; i < 4 && i < w.queries.size(); ++i)
    items.push_back(Session::Item{w.queries[i], 0});
  session.run_batch(items);
  const auto prefilter = session.prefilter_snapshot();
  ASSERT_NE(prefilter, nullptr);
  const Session::IndexInfo index = session.index_info();
  ASSERT_GT(index.entries, 0u);
  EXPECT_GE(session.resident_bytes(), session.pag().memory_bytes() +
                                          prefilter->memory_bytes() +
                                          index.memory_bytes);
}

// ---- QueryService ----------------------------------------------------------

ServiceOptions service_options(unsigned threads) {
  ServiceOptions o;
  o.session = session_options(threads);
  return o;
}

Request query_request(NodeId var, std::uint64_t budget = 0,
                      std::uint64_t deadline_ms = 0) {
  Request r;
  r.verb = Verb::kQuery;
  r.a = var;
  r.budget = budget;
  r.deadline_ms = deadline_ms;
  return r;
}

TEST(QueryService, MicroBatchCoalescesConcurrentArrivals) {
  const auto w = container_workload();
  ServiceOptions o = service_options(2);
  o.max_batch = 16;
  o.max_linger = std::chrono::milliseconds(200);
  QueryService svc(w.pag, o);

  // Fire-and-forget eight requests, then collect: all land well inside the
  // linger window, so the collector sees them as one batch.
  std::vector<std::future<Reply>> futures;
  for (std::size_t i = 0; i < 8; ++i)
    futures.push_back(svc.submit(query_request(w.queries[i % w.queries.size()])));
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, Reply::Status::kOk);

  const auto s = svc.stats();
  EXPECT_EQ(s.queries_served, 8u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.max_batch_size, 8u);
}

TEST(QueryService, FullBatchDispatchesBeforeLingerExpires) {
  const auto w = container_workload();
  ServiceOptions o = service_options(2);
  o.max_batch = 4;
  o.max_linger = std::chrono::seconds(30);  // only batch-full can dispatch
  QueryService svc(w.pag, o);

  std::vector<std::future<Reply>> futures;
  for (std::size_t i = 0; i < 4; ++i)
    futures.push_back(svc.submit(query_request(w.queries[i])));
  for (auto& f : futures)  // would hang ~30s if the size trigger were broken
    EXPECT_EQ(f.get().status, Reply::Status::kOk);
  EXPECT_EQ(svc.stats().batches, 1u);
}

// Batch composition: a batch is the queue prefix before the first `update`;
// the update runs alone, and what was queued after it forms the next batch.
// `record_batch` counts items, so the alias pair counts two.
TEST(QueryService, UpdateSplitsQueuedRequestsIntoTwoBatches) {
  const auto w = container_workload();
  ServiceOptions o = service_options(2);
  o.session.prefilter = false;  // the alias pair must reach the solver
  o.max_linger = std::chrono::milliseconds(200);
  QueryService svc(w.pag, o);

  pag::Delta delta(w.pag);
  delta.add_edge(pag::EdgeKind::kAssignLocal, w.queries[0], w.queries[1]);
  const std::string delta_path =
      testing::TempDir() + "service_test_batches.delta";
  {
    std::ofstream out(delta_path);
    pag::write_delta(out, delta);
  }
  Request alias;
  alias.verb = Verb::kAlias;
  alias.a = w.queries[2];
  alias.b = w.queries[3];
  Request update;
  update.verb = Verb::kUpdate;
  update.path = delta_path;

  std::vector<std::future<Reply>> futures;
  futures.push_back(svc.submit(query_request(w.queries[0])));
  futures.push_back(svc.submit(query_request(w.queries[1])));
  futures.push_back(svc.submit(alias));
  futures.push_back(svc.submit(update));
  futures.push_back(svc.submit(query_request(w.queries[4])));
  std::vector<Reply> replies;
  for (auto& f : futures) replies.push_back(f.get());
  for (const Reply& r : replies)
    EXPECT_EQ(r.status, Reply::Status::kOk) << r.text;
  const std::string update_line = format_reply(replies[3]);
  EXPECT_EQ(update_line.rfind("ok updated ", 0), 0u) << update_line;
  EXPECT_NE(update_line.find(" rev 1 "), std::string::npos) << update_line;

  const auto s = svc.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 2.5);  // (4 + 1) / 2
  EXPECT_EQ(s.max_batch_size, 4u);
  EXPECT_EQ(s.updates_applied, 1u);
}

TEST(QueryService, OverloadShedsInsteadOfQueueingUnboundedly) {
  const auto w = container_workload();
  ServiceOptions o = service_options(1);
  o.max_batch = 64;
  o.max_linger = std::chrono::milliseconds(100);
  o.max_queue = 2;
  QueryService svc(w.pag, o);

  // All eight arrive while the collector is still lingering on the first:
  // two fit the queue, the rest must shed.
  std::vector<std::future<Reply>> futures;
  for (std::size_t i = 0; i < 8; ++i)
    futures.push_back(svc.submit(query_request(w.queries[i])));
  std::uint64_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const Reply r = f.get();
    if (r.status == Reply::Status::kOk) ++ok;
    if (r.status == Reply::Status::kShedOverload) ++shed;
  }
  EXPECT_EQ(ok + shed, 8u);
  EXPECT_GE(shed, 1u);
  EXPECT_LE(ok, 2u);
  EXPECT_EQ(svc.stats().shed_overload, shed);
}

TEST(QueryService, ExpiredDeadlineShedsAtDispatch) {
  const auto w = container_workload();
  ServiceOptions o = service_options(1);
  o.max_batch = 64;
  o.max_linger = std::chrono::milliseconds(100);
  QueryService svc(w.pag, o);

  // The request lingers ~100ms before its batch dispatches — far past its
  // 1ms deadline.
  const Reply r = svc.call(query_request(w.queries[0], 0, /*deadline_ms=*/1));
  EXPECT_EQ(r.status, Reply::Status::kShedDeadline);
  EXPECT_EQ(svc.stats().shed_deadline, 1u);
  EXPECT_EQ(svc.stats().queries_served, 0u);
}

TEST(QueryService, AliasAnswersMatchTheFig2Paper) {
  const auto f = test::fig2();
  QueryService svc(f.lowered.pag, service_options(2));

  Request r;
  r.verb = Verb::kAlias;
  r.a = f.s1;
  r.b = f.n1;  // both reach o16
  Reply may = svc.call(r);
  ASSERT_EQ(may.status, Reply::Status::kOk);
  EXPECT_EQ(may.alias, cfl::Solver::AliasAnswer::kMay);

  r.a = f.s1;
  r.b = f.s2;  // context-sensitively disjoint: {o16} vs {o20}
  Reply no = svc.call(r);
  ASSERT_EQ(no.status, Reply::Status::kOk);
  EXPECT_EQ(no.alias, cfl::Solver::AliasAnswer::kNo);

  const auto s = svc.stats();
  EXPECT_EQ(s.alias_served, 2u);
  EXPECT_EQ(s.queries_served, 0u);
}

// The tsan acceptance test: many client threads hammer one session while the
// collector micro-batches into the multi-threaded DQ engine.
TEST(QueryService, MultiClientConcurrentSessionIsSafe) {
  const auto w = container_workload();
  const auto baseline = sequential_baseline(w);
  ServiceOptions o = service_options(4);
  o.max_batch = 8;
  o.max_linger = std::chrono::microseconds(200);
  QueryService svc(w.pag, o);

  constexpr unsigned kClients = 8;
  constexpr unsigned kPerClient = 40;
  std::atomic<std::uint64_t> wrong{0};

  auto client = [&](unsigned id) {
    for (unsigned i = 0; i < kPerClient; ++i) {
      const NodeId var = w.queries[(id * 13 + i * 7) % w.queries.size()];
      if (i % 10 == 9) {
        Request r;
        r.verb = Verb::kStats;
        if (svc.call(r).status != Reply::Status::kOk) ++wrong;
      } else if (i % 10 == 4) {
        Request r;
        r.verb = Verb::kAlias;
        r.a = var;
        r.b = w.queries[(id * 13 + i * 7 + 1) % w.queries.size()];
        const Reply reply = svc.call(r);
        if (reply.status != Reply::Status::kOk ||
            reply.alias == cfl::Solver::AliasAnswer::kUnknown)
          ++wrong;
      } else {
        const Reply reply = svc.call(query_request(var));
        if (reply.status != Reply::Status::kOk ||
            reply.query_status != cfl::QueryStatus::kComplete ||
            reply.objects != baseline.at(var.value()))
          ++wrong;
      }
    }
  };

  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  const auto s = svc.stats();
  // Per client: 32 plain queries, 4 alias requests, 4 stats probes.
  EXPECT_EQ(s.queries_served, static_cast<std::uint64_t>(kClients) * 32);
  EXPECT_EQ(s.alias_served, static_cast<std::uint64_t>(kClients) * 4);
  EXPECT_GT(s.batches, 0u);
  EXPECT_EQ(s.shed_overload, 0u);
}

TEST(QueryService, SaveThenWarmStartTraversesFewerSteps) {
  const auto w = container_workload();
  const std::string path = testing::TempDir() + "parcfl_service_state.bin";

  // This measures the value of persisted jmp state in isolation, so the
  // pre-solve pipeline is pinned off: reduction shrinks the cold baseline
  // and the async prefilter short-circuits a nondeterministic subset of the
  // cold run's batches, both of which erode the fixed 2x margin without
  // saying anything about save/load.
  ServiceOptions cold_options = service_options(2);
  cold_options.session.reduce_graph = false;
  cold_options.session.prefilter = false;

  std::uint64_t cold_steps = 0;
  {
    QueryService cold(w.pag, cold_options);
    for (const NodeId q : w.queries)
      ASSERT_EQ(cold.call(query_request(q)).status, Reply::Status::kOk);
    cold_steps = cold.stats().engine.traversed_steps;

    Request save;
    save.verb = Verb::kSave;
    save.path = path;
    ASSERT_EQ(cold.call(save).status, Reply::Status::kOk);
  }

  ServiceOptions warm_options = cold_options;
  warm_options.session.state_path = path;
  QueryService warm(w.pag, warm_options);
  for (const NodeId q : w.queries)
    ASSERT_EQ(warm.call(query_request(q)).status, Reply::Status::kOk);
  const std::uint64_t warm_steps = warm.stats().engine.traversed_steps;

  ASSERT_GT(cold_steps, 0u);
  EXPECT_GE(cold_steps, 2 * warm_steps)
      << "cold=" << cold_steps << " warm=" << warm_steps;
  std::remove(path.c_str());
}

// ---- wire ------------------------------------------------------------------

TEST(Wire, ServeStreamSpeaksTheProtocol) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));

  std::ostringstream request_text;
  request_text << "ping\n"
               << "query " << w.queries[0].value() << "\n"
               << "frobnicate\n"
               << "stats\n"
               << "quit\n"
               << "ping\n";  // never reached: quit closes the loop
  std::istringstream in(request_text.str());
  std::ostringstream out;
  const std::uint64_t handled = serve_stream(svc, in, out);
  EXPECT_EQ(handled, 5u);

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "ok pong");
  EXPECT_EQ(lines[1].rfind("ok ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("err ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("ok {", 0), 0u) << lines[3];
  EXPECT_EQ(lines[4], "ok bye");
  EXPECT_EQ(svc.stats().protocol_errors, 1u);
}

TEST(Wire, TcpServerAnswersOverLoopback) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));

  std::string error;
  TcpServer server(svc, /*port=*/0, &error);
  ASSERT_TRUE(server.ok()) << error;
  ASSERT_NE(server.port(), 0u);
  std::thread acceptor([&] { server.serve(); });

  LineConn conn;
  ASSERT_TRUE(conn.connect(std::to_string(server.port()), 5000));
  ASSERT_TRUE(conn.send_all("ping\nquery " +
                            std::to_string(w.queries[0].value()) + "\nquit\n"));
  std::vector<std::string> lines;
  for (std::string line; lines.size() < 3 &&
                         conn.read_line(line, kMaxReplyLine);)
    lines.push_back(line);
  conn.close();
  server.shutdown();
  acceptor.join();

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "ok pong");
  EXPECT_EQ(lines[1].rfind("ok ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2], "ok bye");
}

/// Lines of /proc/self/maps: every thread stack not yet joined (or cached
/// for reuse) is a mapping of its own.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(maps),
                 std::istreambuf_iterator<char>(), '\n'));
}

/// Live threads of this process (/proc/self/status `Threads:`).
std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

// Connection churn must not grow the process: the server joins a finished
// connection's thread while it keeps serving, so the stack is released (or
// reused) instead of held until shutdown.
TEST(Wire, GracefulTeardownWithConnectedClient) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));
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

TEST(Wire, TcpServerJoinsFinishedConnectionsWhileServing) {
  std::string error;
  TcpServer server(
      [] {
        return [](const std::string&, std::string& reply) {
          reply = "ok pong\n";
          return true;
        };
      },
      /*port=*/0, &error);
  ASSERT_TRUE(server.ok()) << error;
  std::thread acceptor([&] { server.serve(); });

  const auto ping_cycle = [&] {
    LineConn conn;
    ASSERT_TRUE(conn.connect(std::to_string(server.port()), 5000));
    std::string received;
    ASSERT_TRUE(conn.send_all("ping\n"));
    ASSERT_TRUE(conn.read_line(received, kMaxReplyLine));
    EXPECT_EQ(received, "ok pong");
  };
  // Handlers exit on the client's close; wait until only the baseline
  // threads remain.
  const auto wait_for_threads = [](std::size_t target) {
    for (int i = 0; i < 5000 && thread_count() > target; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  // Warm up first: the first connection threads may create malloc arenas.
  const std::size_t baseline_threads = thread_count();
  for (int i = 0; i < 4; ++i) ping_cycle();
  wait_for_threads(baseline_threads);
  const std::size_t maps_before = mapping_count();

  for (int i = 0; i < 64; ++i) ping_cycle();
  wait_for_threads(baseline_threads);
  EXPECT_EQ(thread_count(), baseline_threads);
  // Unjoined, each of the 64 handlers would pin a stack and its guard page.
  EXPECT_LT(mapping_count(), maps_before + 16);

  server.shutdown();
  acceptor.join();
}

// ---- observability ---------------------------------------------------------

// The percentile window cases PR 5 fixed: a window of 0 or 1 samples has no
// distribution and must report 0 explicitly; 2 samples exercise the smallest
// real nearest-rank computation.
TEST(Percentile, EmptyWindowReportsZero) {
  obs::MetricsRegistry reg;
  StatsRecorder recorder(reg);
  ServiceStats s;
  recorder.snapshot(s);
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p95_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
}

TEST(Percentile, SingleSampleReportsZero) {
  obs::MetricsRegistry reg;
  StatsRecorder recorder(reg);
  recorder.record_request(5.0, StatsRecorder::Served::kQuery);
  ServiceStats s;
  recorder.snapshot(s);
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p95_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
  EXPECT_EQ(s.max_ms, 5.0);  // max is still meaningful at one sample
}

TEST(Percentile, TwoSamplesUseNearestRank) {
  obs::MetricsRegistry reg;
  StatsRecorder recorder(reg);
  recorder.record_request(1.0, StatsRecorder::Served::kQuery);
  recorder.record_request(3.0, StatsRecorder::Served::kQuery);
  ServiceStats s;
  recorder.snapshot(s);
  // Nearest rank over {1, 3}: p50 -> rank ceil(0.5*2)=1 -> 1.0;
  // p95/p99 -> rank 2 -> 3.0.
  EXPECT_EQ(s.p50_ms, 1.0);
  EXPECT_EQ(s.p95_ms, 3.0);
  EXPECT_EQ(s.p99_ms, 3.0);
}

/// Minimal Prometheus exposition check shared by the metrics-op tests: every
/// line is `# HELP|TYPE ...` or `series[{labels}] value`, and every sample's
/// base name was introduced by a TYPE comment.
void expect_valid_exposition(const std::string& text) {
  std::set<std::string> typed;
  std::istringstream in(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, what, name, type;
      ls >> hash >> what >> name >> type;
      ASSERT_TRUE(what == "HELP" || what == "TYPE") << line;
      if (what == "TYPE") typed.insert(name);
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    (void)std::strtod(line.c_str() + space + 1, &end);
    ASSERT_EQ(*end, '\0') << "unparsable sample value: " << line;
    std::string name = line.substr(0, std::min(space, line.find('{')));
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          typed.count(name.substr(0, name.size() - s.size())))
        name = name.substr(0, name.size() - s.size());
    }
    EXPECT_TRUE(typed.count(name)) << "sample without TYPE: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(QueryService, MetricsTextIsValidPrometheus) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_EQ(svc.call(query_request(w.queries[i])).status, Reply::Status::kOk);

  const std::string text = svc.metrics_text();
  expect_valid_exposition(text + "\n");
  // The request-plane counter reflects the served queries...
  EXPECT_NE(text.find("parcfl_queries_served_total 4"), std::string::npos)
      << text;
  // ...and the scrape refreshed the analysis-plane gauges.
  EXPECT_NE(text.find("parcfl_engine_traversed_steps"), std::string::npos);
  EXPECT_NE(text.find("parcfl_request_latency_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

// The session's footprint is visible from the wire: `stats` carries it as a
// top-level field and the scrape as a gauge.
TEST(QueryService, StatsAndMetricsReportResidentBytes) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));
  ASSERT_EQ(svc.call(query_request(w.queries[0])).status, Reply::Status::kOk);

  const ServiceStats s = svc.stats();
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_GE(s.resident_bytes, svc.pag().memory_bytes());
  EXPECT_NE(s.to_json().find(",\"resident_bytes\":"), std::string::npos);
  const std::string text = svc.metrics_text();
  EXPECT_NE(text.find("\nparcfl_session_resident_bytes "), std::string::npos)
      << text;
  EXPECT_EQ(text.find("tenant"), std::string::npos) << text;
}

// ---- the line layer (service/line_io.hpp) ----------------------------------

/// Replies with the charged-steps token blanked: it reflects how warm the
/// session was, not what the answer is.
std::string answer_of(const std::string& reply) {
  if (reply.rfind("ok ", 0) != 0) return reply;
  const std::size_t status_end = reply.find(' ', 3);
  if (status_end == std::string::npos) return reply;
  std::size_t charged_end = reply.find(' ', status_end + 1);
  if (charged_end == std::string::npos) charged_end = reply.size();
  return reply.substr(0, status_end + 1) + "_" + reply.substr(charged_end);
}

/// Echo server: every line comes back as `ok <line>`.
TcpServer::HandlerFactory echo_factory() {
  return [] {
    return [](const std::string& line, std::string& reply) {
      reply = "ok " + line + "\n";
      return true;
    };
  };
}

TEST(Wire, PipelinedLinesInOneSegmentAnswerInOrder) {
  std::string error;
  TcpServer server(echo_factory(), /*port=*/0, &error);
  ASSERT_TRUE(server.ok()) << error;
  std::thread acceptor([&] { server.serve(); });

  // ~2 KB in one send: a single loopback segment carrying 200 lines.
  std::string batch;
  for (int i = 0; i < 200; ++i) batch += "line " + std::to_string(i) + "\n";
  LineConn conn;
  ASSERT_TRUE(conn.connect(std::to_string(server.port()), 5000));
  ASSERT_TRUE(conn.send_all(batch));
  std::string reply;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(conn.read_line(reply, kMaxReplyLine)) << i;
    EXPECT_EQ(reply, "ok line " + std::to_string(i));
  }
  conn.close();
  server.shutdown();
  acceptor.join();
}

TEST(Wire, CrlfClientGetsTheSameRepliesAsLfClient) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));
  std::string error;
  TcpServer server(svc, /*port=*/0, &error);
  ASSERT_TRUE(server.ok()) << error;
  std::thread acceptor([&] { server.serve(); });

  const std::string a = std::to_string(w.queries[0].value());
  const std::string b = std::to_string(w.queries[1].value());
  const std::vector<std::string> requests = {
      "ping", "query " + a, "alias " + a + " " + b, "bogus", "query v" + b,
      "quit"};
  const auto replies = [&](const char* eol) {
    LineConn conn;
    EXPECT_TRUE(conn.connect(std::to_string(server.port()), 5000));
    std::string batch;
    for (const std::string& r : requests) batch += r + eol;
    EXPECT_TRUE(conn.send_all(batch));
    std::vector<std::string> out;
    for (std::string line; out.size() < requests.size() &&
                           conn.read_line(line, kMaxReplyLine);)
      out.push_back(answer_of(line));
    return out;
  };
  const auto lf = replies("\n");
  const auto crlf = replies("\r\n");
  server.shutdown();
  acceptor.join();

  ASSERT_EQ(lf.size(), requests.size());
  EXPECT_EQ(crlf, lf);
  EXPECT_EQ(lf[0], "ok pong");
  EXPECT_EQ(lf[3].rfind("err ", 0), 0u) << lf[3];
  EXPECT_EQ(lf.back(), "ok bye");
}

TEST(Wire, NewlineLessFloodClosesOnlyThatConnection) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));
  std::string error;
  TcpServer server(svc, /*port=*/0, &error);
  ASSERT_TRUE(server.ok()) << error;
  std::thread acceptor([&] { server.serve(); });
  const std::string port = std::to_string(server.port());

  LineConn bystander;
  ASSERT_TRUE(bystander.connect(port, 20'000));
  std::string reply;
  ASSERT_TRUE(bystander.send_all("ping\n"));
  ASSERT_TRUE(bystander.read_line(reply, kMaxReplyLine));

  LineConn flood;
  ASSERT_TRUE(flood.connect(port, 20'000));
  // A line at the server's cap is still a (rejected) request...
  ASSERT_TRUE(flood.send_all(std::string(2 * kMaxRequestLine, 'q') + "\n"));
  ASSERT_TRUE(flood.read_line(reply, kMaxReplyLine));
  EXPECT_EQ(reply, "err request line too long");
  // ...one byte past it with no newline is a flood: the server hangs up.
  const auto start = std::chrono::steady_clock::now();
  flood.send_all(std::string(3 * kMaxRequestLine, 'x'));
  EXPECT_FALSE(flood.read_line(reply, kMaxReplyLine));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10))
      << "the flood was buffered until the read timed out, not cut off";

  // Every other connection keeps being served, and new ones are accepted.
  ASSERT_TRUE(bystander.send_all("ping\n"));
  ASSERT_TRUE(bystander.read_line(reply, kMaxReplyLine));
  EXPECT_EQ(reply, "ok pong");
  LineConn late;
  ASSERT_TRUE(late.connect(port, 20'000));
  ASSERT_TRUE(late.send_all("ping\n"));
  ASSERT_TRUE(late.read_line(reply, kMaxReplyLine));
  EXPECT_EQ(reply, "ok pong");

  bystander.close();
  late.close();
  server.shutdown();
  acceptor.join();
}

TEST(Wire, ReadFrameReturnsExactlyTheMetricsPayload) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));
  std::string error;
  TcpServer server(svc, /*port=*/0, &error);
  ASSERT_TRUE(server.ok()) << error;
  std::thread acceptor([&] { server.serve(); });

  LineConn conn;
  ASSERT_TRUE(conn.connect(std::to_string(server.port()), 5000));
  ASSERT_TRUE(conn.send_all("query " + std::to_string(w.queries[0].value()) +
                            "\nmetrics\nping\n"));
  std::string header;
  std::vector<std::string> payload;
  // A single-line reply is a frame with no payload.
  ASSERT_TRUE(conn.read_frame(header, payload, kMaxReplyLine));
  EXPECT_EQ(header.rfind("ok complete ", 0), 0u) << header;
  EXPECT_TRUE(payload.empty());

  ASSERT_TRUE(conn.read_frame(header, payload, kMaxReplyLine));
  ASSERT_EQ(header.rfind("ok metrics ", 0), 0u) << header;
  const std::uint64_t announced = std::stoull(header.substr(11));
  EXPECT_GT(announced, 0u);
  EXPECT_EQ(payload.size(), announced);
  std::string text;
  for (const std::string& line : payload) text += line + "\n";
  expect_valid_exposition(text);
  // The frame ended exactly where the server's frame did.
  ASSERT_TRUE(conn.read_line(header, kMaxReplyLine));
  EXPECT_EQ(header, "ok pong");

  conn.close();
  server.shutdown();
  acceptor.join();
}

// A counted frame whose payload line runs past the reader's cap fails
// read_frame promptly: the reader drops the peer instead of buffering the
// line without bound. The load generator reads `metrics` frames this way.
TEST(Wire, ReadFrameFailsOnPayloadLinePastTheCap) {
  std::string error;
  TcpServer peer(
      [] {
        return [](const std::string& line, std::string& reply) {
          if (line == "metrics") {
            reply = "ok metrics 2\nshort 1\n" +
                    std::string(kMaxReplyLine + 1, '7') + "\n";
          } else if (line == "slowlog") {
            reply = "ok slowlog 1\n{}\n";
          } else {
            reply = "err unexpected\n";
          }
          return true;
        };
      },
      /*port=*/0, &error);
  ASSERT_TRUE(peer.ok()) << error;
  std::thread acceptor([&] { peer.serve(); });

  LineConn conn;
  ASSERT_TRUE(conn.connect(std::to_string(peer.port()), 20'000));
  std::string header;
  std::vector<std::string> payload;
  // A frame within the cap reads whole.
  ASSERT_TRUE(conn.send_all("slowlog\n"));
  ASSERT_TRUE(conn.read_frame(header, payload, kMaxReplyLine));
  EXPECT_EQ(header, "ok slowlog 1");
  ASSERT_EQ(payload.size(), 1u);
  EXPECT_EQ(payload[0], "{}");

  ASSERT_TRUE(conn.send_all("metrics\n"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(conn.read_frame(header, payload, kMaxReplyLine));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10))
      << "the overlong line was buffered until the read timed out";
  EXPECT_EQ(header, "ok metrics 2");

  conn.close();
  peer.shutdown();
  acceptor.join();
}

TEST(Wire, MetricsOpReturnsCountedFrame) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));

  std::ostringstream request_text;
  request_text << "query " << w.queries[0].value() << "\n"
               << "metrics\nquit\n";
  std::istringstream in(request_text.str());
  std::ostringstream out;
  EXPECT_EQ(serve_stream(svc, in, out), 3u);

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u);

  // Reply 1: the query. Reply 2: `ok metrics <n>` followed by exactly n
  // payload lines. Last line: `ok bye`.
  EXPECT_EQ(lines[0].rfind("ok ", 0), 0u);
  ASSERT_EQ(lines[1].rfind("ok metrics ", 0), 0u) << lines[1];
  const std::size_t payload_lines =
      std::strtoull(lines[1].c_str() + 11, nullptr, 10);
  ASSERT_EQ(lines.size(), 2 + payload_lines + 1) << out.str();
  EXPECT_EQ(lines.back(), "ok bye");

  std::string payload;
  for (std::size_t i = 2; i < 2 + payload_lines; ++i) payload += lines[i] + "\n";
  expect_valid_exposition(payload);
}

TEST(QueryService, SlowQueryLogCapturesTraces) {
  const auto w = container_workload();
  ServiceOptions options = service_options(2);
  options.slow_query_ms = 1e-6;  // everything is "slow": the log must fill
  options.slow_log_capacity = 4;
  options.session.engine.solver.trace_level = 2;
  QueryService svc(w.pag, options);

  for (std::size_t i = 0; i < 8 && i < w.queries.size(); ++i)
    ASSERT_EQ(svc.call(query_request(w.queries[i])).status, Reply::Status::kOk);

  const auto records = svc.slow_log();
  ASSERT_FALSE(records.empty());
  EXPECT_LE(records.size(), options.slow_log_capacity);  // capped, oldest out
  for (const auto& r : records) {
    EXPECT_GE(r.latency_ms, 0.0);
    EXPECT_FALSE(r.trace_jsonl.empty());
    EXPECT_NE(r.trace_jsonl.find("\"ev\":\"query_start\""), std::string::npos);
  }
  EXPECT_EQ(svc.slow_log(2).size(), 2u);
  EXPECT_GT(svc.stats().slow_queries, 0u);

  const std::string jsonl = svc.slow_log_jsonl();
  EXPECT_NE(jsonl.find("\"latency_ms\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace_lines\":"), std::string::npos);

  // The wire verb frames the payload with its line count.
  std::istringstream in("slowlog 1\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(serve_stream(svc, in, out), 2u);
  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 2u);
  ASSERT_EQ(lines[0].rfind("ok slowlog ", 0), 0u) << lines[0];
  const std::size_t payload_lines =
      std::strtoull(lines[0].c_str() + 11, nullptr, 10);
  EXPECT_EQ(lines.size(), 1 + payload_lines + 1);
}

TEST(QueryService, SlowLogDisabledByDefault) {
  const auto w = container_workload();
  QueryService svc(w.pag, service_options(2));
  ASSERT_EQ(svc.call(query_request(w.queries[0])).status, Reply::Status::kOk);
  EXPECT_TRUE(svc.slow_log().empty());
  EXPECT_EQ(svc.stats().slow_queries, 0u);
}

// tsan target: concurrent clients keep the engine busy while another thread
// scrapes the exposition and the slow log. Nothing here synchronises with the
// data plane beyond the registry's own contract.
TEST(QueryService, ScrapeWhileSolvingIsSafe) {
  const auto w = container_workload();
  ServiceOptions options = service_options(2);
  options.slow_query_ms = 1e-6;
  options.session.engine.solver.trace_level = 2;
  QueryService svc(w.pag, options);

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_FALSE(svc.metrics_text().empty());
      (void)svc.slow_log_jsonl(4);
      (void)svc.stats();
    }
  });

  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> served{0};
  for (int t = 0; t < 4; ++t)
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < 50; ++i) {
        const Reply r = svc.call(query_request(w.queries[i % w.queries.size()]));
        if (r.status == Reply::Status::kOk)
          served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(served.load(), 0u);
  const std::string text = svc.metrics_text();
  expect_valid_exposition(text + "\n");
}

}  // namespace
}  // namespace parcfl::service
