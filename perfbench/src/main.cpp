// perfbench — the repository benchmark: one process drives one named
// workload through parcfl's public API, checks every answer, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run) as
// its last stdout line. See perfbench/README.md for the workloads, metric
// definitions and the layer -> end-to-end metric map.
//
//   perfbench gen   --workload W --seed N --work DIR [--graph-seed G]
//   perfbench setup --workload W --seed N --work DIR
//   perfbench run   --workload W --seed N --seconds S --trace 0|1 --work DIR
//                   [--setup-samples S1,S2,...]
//
// `gen` writes the inputs (program graph, query roots, churn deltas) to
// DIR/W-N; `setup` and `run` read them, so input generation never
// shows in set-up time or peak memory. `setup` prints one set-up's CPU
// seconds; the run's setup_s is the median of its own set-up and the samples
// passed in, each from a fresh process, so repeated set-ups do not inflate its
// peak memory.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>

#include "andersen/prefilter.hpp"
#include "cfl/engine.hpp"
#include "cfl/persist.hpp"
#include "cfl/scheduler.hpp"
#include "frontend/lower.hpp"
#include "harness.hpp"
#include "pag/collapse.hpp"
#include "pag/delta.hpp"
#include "pag/pag_io.hpp"
#include "pag/reduce.hpp"
#include "service/manager.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/worker.hpp"
#include "synth/benchmarks.hpp"
#include "synth/generator.hpp"

namespace {

using namespace perfbench;
namespace cfl = parcfl::cfl;
namespace pag = parcfl::pag;
namespace svc = parcfl::service;
using pag::NodeId;

constexpr unsigned kThreads = 4;  // engine workers
constexpr unsigned kClients = 4;  // closed-loop connections
constexpr std::uint64_t kBudget = 100'000;
/// Latency charged to a failed request, so failures count as missing any
/// latency limit.
constexpr double kFailedMs = 1e9;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- workloads -------------------------------------------------------------

struct Shape {
  double scale = 8.0;  // tomcat scale of the served graph
  std::uint32_t update_every = 0;
  std::size_t warm_requests = 0;
};

std::optional<Shape> shape_of(const std::string& workload) {
  if (workload == "batch") return Shape{10.0, 0, 0};
  if (workload == "serve") return Shape{8.0, 0, 3000};
  if (workload == "churn") return Shape{8.0, 50, 1000};
  return std::nullopt;
}

/// Generator seed of the served program: tomcat's own Table I seed.
constexpr std::uint64_t kGraphSeed = 2019;

struct Args {
  std::string mode, workload, work = ".bench_build/work";
  std::uint64_t seed = 1;  // request streams, churn edits
  std::uint64_t graph_seed = kGraphSeed;
  double seconds = 10;
  bool trace = false;
  /// Set-up CPU times (s) measured by separate `setup` processes; the run's
  /// own set-up joins them and setup_s reports the median.
  std::vector<double> setup_samples;
};

std::string input_dir(const Args& a) {
  return a.work + "/" + a.workload + "-" + std::to_string(a.seed);
}

cfl::SolverOptions batch_solver() {
  // Paper-proportional thresholds (τF = B/750, τU = 2B/15), as the paper's
  // τF=100/τU=10000 relate to B=75000.
  cfl::SolverOptions o;
  o.budget = kBudget;
  o.tau_finished = static_cast<std::uint32_t>(kBudget / 750);
  o.tau_unfinished = static_cast<std::uint32_t>(kBudget * 2 / 15);
  return o;
}

cfl::EngineOptions engine_options(unsigned threads) {
  cfl::EngineOptions o;
  o.mode = cfl::Mode::kDataSharingScheduling;
  o.threads = threads;
  o.solver = batch_solver();
  return o;
}

svc::Session::Options session_options(bool pipeline) {
  svc::Session::Options o;
  o.engine = engine_options(kThreads);
  // A resident session amortises every shortcut over the whole stream, so
  // it publishes aggressively (the service configuration of parcfl_serve).
  o.engine.solver.tau_finished = 1;
  o.engine.solver.tau_unfinished = static_cast<std::uint32_t>(kBudget / 8);
  o.reduce_graph = pipeline;
  o.prefilter = pipeline;
  o.index = pipeline;
  return o;
}

// ---- inputs ----------------------------------------------------------------

struct Program {
  pag::Pag pag;
  std::vector<NodeId> queries;
};

Program generate_program(double scale, std::uint64_t seed) {
  auto cfg = parcfl::synth::config_for(parcfl::synth::benchmark_spec("tomcat"),
                                       scale);
  cfg.seed = seed;
  auto lowered = parcfl::frontend::lower(parcfl::synth::generate(cfg));
  return Program{std::move(lowered.pag), std::move(lowered.queries)};
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  return static_cast<bool>(os);
}

std::string ids_text(const std::vector<NodeId>& ids) {
  std::string out;
  for (const NodeId n : ids) out += std::to_string(n.value()) + "\n";
  return out;
}

std::vector<NodeId> collapse_queries(const pag::CollapseResult& c,
                                     const std::vector<NodeId>& raw) {
  std::vector<NodeId> out;
  out.reserve(raw.size());
  for (const NodeId q : raw) out.push_back(c.representative[q.value()]);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int generate_inputs(const Args& a, const Shape& shape) {
  const std::string dir = input_dir(a);
  std::filesystem::create_directories(dir);
  const Program p = generate_program(shape.scale, a.graph_seed);
  bool ok = write_text(dir + "/program.pag", pag::write_pag_string(p.pag)) &&
            write_text(dir + "/queries.txt", ids_text(p.queries));
  if (shape.update_every != 0) {
    const pag::CollapseResult c = pag::collapse_assign_cycles(p.pag);
    const auto edits = make_edits(c.pag, a.graph_seed);
    for (std::uint32_t k = 1; k <= 2 * kEditCount; ++k) {
      std::ofstream os(delta_path(dir, k));
      pag::write_delta(os, update_delta(c.pag, edits, k));
      ok = ok && static_cast<bool>(os);
    }
  }
  if (!ok) std::fprintf(stderr, "perfbench: cannot write inputs in %s\n", dir.c_str());
  return ok ? 0 : 1;
}

std::optional<pag::Pag> read_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string error;
  auto g = pag::read_pag(in, &error);
  if (!g) std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(), error.c_str());
  return g;
}

std::vector<NodeId> read_ids(const std::string& path) {
  std::ifstream in(path);
  std::vector<NodeId> out;
  std::uint32_t v = 0;
  while (in >> v) out.push_back(NodeId(v));
  return out;
}

struct Loaded {
  pag::Pag pag;
  std::vector<NodeId> queries;
  double read_s = 0, collapse_s = 0;
};

/// Read a program graph and its query roots and collapse assign cycles: the
/// first two set-up steps. Spans are children of `parent`.
std::optional<Loaded> load_program(const std::string& pag_path,
                                   const std::string& queries_path,
                                   Tracer& tracer, std::int64_t parent = -1) {
  const auto t0 = Clock::now();
  auto raw = read_graph(pag_path);
  const auto raw_queries = read_ids(queries_path);
  const auto t1 = Clock::now();
  if (!raw || raw_queries.empty()) return std::nullopt;
  for (const NodeId q : raw_queries)
    if (q.value() >= raw->node_count()) return std::nullopt;
  pag::CollapseResult c = pag::collapse_assign_cycles(*raw);
  std::vector<NodeId> queries = collapse_queries(c, raw_queries);
  const auto t2 = Clock::now();
  tracer.add("pag.read", t0, t1, 0, parent);
  tracer.add("pag.collapse", t1, t2, 0, parent);
  return Loaded{std::move(c.pag), std::move(queries), ms_between(t0, t1) / 1e3,
                ms_between(t1, t2) / 1e3};
}

/// The served graph of a workload.
std::optional<Loaded> load_served(const std::string& dir, Tracer& tracer,
                                  std::int64_t parent = -1) {
  return load_program(dir + "/program.pag", dir + "/queries.txt", tracer,
                      parent);
}

// ---- answers ---------------------------------------------------------------

/// A reply reduced to what the checks compare.
struct Answer {
  enum Kind : std::uint8_t { kFailed, kQuery, kVerdict, kUpdated };
  Kind kind = kFailed;
  /// kQuery: 0 complete, 1 partial, 2 early. kVerdict: 0 no (clean,
  /// independent), 1 may (tainted, depends), 2 unknown.
  std::uint8_t status = 0;
  std::uint32_t count = 0;
  std::uint64_t hash = 0;

  bool definite() const { return kind == kVerdict ? status != 2 : status == 0; }
};

std::uint64_t hash_ids(const std::vector<std::uint32_t>& ids) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const std::uint32_t v : ids) h = splitmix64(h ^ v);
  return h ^ ids.size();
}

Answer parse_reply(const std::string& reply, std::vector<std::uint32_t>* ids) {
  Answer a;
  if (reply.rfind("ok ", 0) != 0) return a;
  char word[32] = {0};
  unsigned long long charged = 0;
  int used = 0;
  if (std::sscanf(reply.c_str() + 3, "%31s %llu%n", word, &charged, &used) < 1)
    return a;
  const std::string w = word;
  if (w == "updated") {
    a.kind = Answer::kUpdated;
    return a;
  }
  if (w == "complete" || w == "partial" || w == "early") {
    a.kind = Answer::kQuery;
    a.status = w == "complete" ? 0 : w == "partial" ? 1 : 2;
    const char* p = reply.c_str() + 3 + used;
    char* end = nullptr;
    const unsigned long n = std::strtoul(p, &end, 10);
    ids->clear();
    for (unsigned long i = 0; i < n && end != p; ++i) {
      p = end;
      ids->push_back(static_cast<std::uint32_t>(std::strtoul(p, &end, 10)));
    }
    if (ids->size() != n) return Answer{};
    a.count = static_cast<std::uint32_t>(n);
    a.hash = hash_ids(*ids);
    return a;
  }
  a.kind = Answer::kVerdict;
  if (w == "no" || w == "clean" || w == "independent")
    a.status = 0;
  else if (w == "may" || w == "tainted" || w == "depends")
    a.status = 1;
  else if (w == "unknown")
    a.status = 2;
  else
    a.kind = Answer::kFailed;
  return a;
}

/// The answer a plain session's item results give for request `r`, mirroring
/// the service's verdict rules.
Answer reference_answer(const Req& r, const svc::Session::ItemResult& a,
                        const svc::Session::ItemResult* b) {
  Answer out;
  auto ids = [](const svc::Session::ItemResult& x) {
    std::vector<std::uint32_t> v;
    for (const NodeId n : x.objects) v.push_back(n.value());
    return v;
  };
  const bool a_complete = a.status == cfl::QueryStatus::kComplete;
  switch (r.op) {
    case Op::kQuery: {
      out.kind = Answer::kQuery;
      out.status = a_complete ? 0
                   : a.status == cfl::QueryStatus::kOutOfBudget ? 1
                                                            : 2;
      const auto v = ids(a);
      out.count = static_cast<std::uint32_t>(v.size());
      out.hash = hash_ids(v);
      return out;
    }
    case Op::kAlias: {
      out.kind = Answer::kVerdict;
      std::vector<NodeId> common;
      std::set_intersection(a.objects.begin(), a.objects.end(),
                            b->objects.begin(), b->objects.end(),
                            std::back_inserter(common));
      const bool b_complete = b->status == cfl::QueryStatus::kComplete;
      out.status = !common.empty() ? 1 : (a_complete && b_complete) ? 0 : 2;
      return out;
    }
    default: {
      out.kind = Answer::kVerdict;
      const bool hit = std::binary_search(a.objects.begin(), a.objects.end(),
                                          NodeId(r.b));
      out.status = hit ? 1 : a_complete ? 0 : 2;
      return out;
    }
  }
}

cfl::QueryKind kind_of(Op op) {
  return op == Op::kTaint     ? cfl::QueryKind::kTaint
         : op == Op::kDepends ? cfl::QueryKind::kDepends
                              : cfl::QueryKind::kPointsTo;
}

/// Answers `reqs` (reads only) on `session`, one batch, in request order.
std::vector<Answer> answer_on(svc::Session& session,
                              const std::vector<Req>& reqs) {
  std::vector<svc::Session::Item> items;
  for (const Req& r : reqs) {
    items.push_back({NodeId(r.a), 0, kind_of(r.op)});
    if (r.op == Op::kAlias) items.push_back({NodeId(r.b), 0});
  }
  const auto result = session.run_batch(items);
  std::vector<Answer> out;
  std::size_t next = 0;
  for (const Req& r : reqs) {
    const auto& a = result.items[next++];
    const auto* b = r.op == Op::kAlias ? &result.items[next++] : nullptr;
    out.push_back(reference_answer(r, a, b));
  }
  return out;
}

bool same_answer(const Answer& served, const Answer& ref) {
  if (!served.definite() || !ref.definite()) return true;  // nothing to compare
  if (served.kind == Answer::kVerdict) return served.status == ref.status;
  return served.count == ref.count && served.hash == ref.hash;
}

// ---- closed-loop clients ---------------------------------------------------

struct Record {
  std::uint32_t index = 0;  // stream position = request id
  Clock::time_point send, recv;
  Answer answer;
};

/// Distinct complete points-to answers seen, keyed (root, hash).
using AnswerIds =
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<std::uint32_t>>;

struct PhaseResult {
  std::vector<Record> records;  // stream order
  Clock::time_point start;
  double elapsed_s = 0;
  /// First stream position not sent: a client that reached the deadline may
  /// have claimed a position (possibly an update) it never sent, so the next
  /// phase resumes there rather than after the highest position sent.
  std::size_t next = 0;
  AnswerIds ids;
  /// Traced phases: each record's WireSession::handle interval, matched by
  /// connection order.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> handle;
};

/// Shared across the phases of one run: updates must reach the server in
/// stream order (update 2j reverts update 2j-1).
struct UpdateGate {
  std::mutex mu;
  std::condition_variable cv;
  std::uint32_t done = 0;
};

/// Play stream[begin, end) with kClients closed-loop connections until the
/// stream range or the deadline runs out. Traced phases front the service
/// with a TcpServer whose handler times WireSession::handle; untraced ones
/// use the stock TcpServer(QueryService&).
PhaseResult drive(svc::QueryService& service, const std::vector<Req>& stream,
                  std::size_t begin, std::size_t end,
                  Clock::time_point deadline, const std::string& delta_dir,
                  UpdateGate& gate, bool traced) {
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  struct ConnLog {
    std::vector<Interval> calls;
  };
  std::mutex logs_mu;
  std::vector<std::shared_ptr<ConnLog>> logs;
  std::string error;
  std::unique_ptr<svc::TcpServer> server;
  if (traced) {
    server = std::make_unique<svc::TcpServer>(
        [&]() -> svc::TcpServer::LineHandler {
          auto wire = std::make_shared<svc::WireSession>(service);
          auto log = std::make_shared<ConnLog>();
          {
            std::lock_guard lock(logs_mu);
            logs.push_back(log);
          }
          return [wire, log](const std::string& line, std::string& reply) {
            const auto t0 = Clock::now();
            const bool keep = wire->handle(line, reply);
            log->calls.push_back({t0, Clock::now()});
            return keep;
          };
        },
        0, &error);
  } else {
    server = std::make_unique<svc::TcpServer>(service, 0, &error);
  }
  PhaseResult out;
  if (!server->ok()) {
    std::fprintf(stderr, "perfbench: server: %s\n", error.c_str());
    return out;
  }
  std::thread acceptor([&] { server->serve(); });

  // Connect one client at a time, each pinging before the next connects, so
  // the handlers' first calls are ordered like the clients.
  std::vector<std::unique_ptr<LineClient>> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<LineClient>(server->port()));
    if (!clients.back()->ok() || clients.back()->roundtrip("ping") != "ok pong")
      clients.back().reset();
  }

  std::atomic<std::size_t> cursor{begin};
  std::vector<std::vector<Record>> recs(kClients);
  std::vector<AnswerIds> ids(kClients);
  out.start = Clock::now();
  auto run_client = [&](unsigned c) {
    LineClient* conn = clients[c].get();
    std::vector<std::uint32_t> parsed;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= end || Clock::now() >= deadline) break;
      const Req& r = stream[i];
      if (r.op == Op::kUpdate) {
        std::unique_lock lock(gate.mu);
        if (!gate.cv.wait_until(lock, deadline,
                                [&] { return gate.done + 1 >= r.update; }))
          break;
      }
      Record rec;
      rec.index = static_cast<std::uint32_t>(i);
      rec.send = Clock::now();
      const std::string reply =
          conn ? conn->roundtrip(request_line(r, delta_dir))
               : std::string();
      rec.recv = Clock::now();
      rec.answer = parse_reply(reply, &parsed);
      if (r.op == Op::kUpdate) {
        {
          std::lock_guard lock(gate.mu);
          gate.done = r.update;
        }
        gate.cv.notify_all();
      }
      if (rec.answer.kind == Answer::kQuery && rec.answer.status == 0)
        ids[c].try_emplace({r.a, rec.answer.hash}, parsed);
      recs[c].push_back(rec);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(run_client, c);
  for (auto& t : threads) t.join();
  out.elapsed_s = ms_between(out.start, Clock::now()) / 1e3;
  clients.clear();
  server->shutdown();
  acceptor.join();

  if (traced) {
    // Match handler logs to clients by the order of their first (ping) call.
    std::sort(logs.begin(), logs.end(), [](const auto& x, const auto& y) {
      return !x->calls.empty() && (y->calls.empty() ||
                                   x->calls[0].first < y->calls[0].first);
    });
    // A client whose connection failed has no log; its records keep an empty
    // interval and are left out of the handler statistics.
    std::vector<std::pair<Record, Interval>> joined;
    for (unsigned c = 0; c < kClients; ++c) {
      const auto* calls = c < logs.size() ? &logs[c]->calls : nullptr;
      const bool matched = calls && calls->size() == recs[c].size() + 1;
      for (std::size_t k = 0; k < recs[c].size(); ++k)
        joined.push_back({recs[c][k], matched ? (*calls)[k + 1] : Interval{}});
    }
    std::sort(joined.begin(), joined.end(), [](const auto& x, const auto& y) {
      return x.first.index < y.first.index;
    });
    for (auto& [rec, iv] : joined) {
      out.records.push_back(rec);
      out.handle.push_back(iv);
    }
  } else {
    for (auto& v : recs) out.records.insert(out.records.end(), v.begin(), v.end());
    std::sort(out.records.begin(), out.records.end(),
              [](const Record& x, const Record& y) { return x.index < y.index; });
  }
  for (auto& m : ids) out.ids.merge(m);
  out.next = begin;
  for (const Record& rec : out.records) {
    if (rec.index != out.next) break;
    ++out.next;
  }
  return out;
}


// ---- answer checks ---------------------------------------------------------

bool is_flow(Op op) { return op == Op::kTaint || op == Op::kDepends; }

/// Reference answers for reads on graph `g`, from plain sessions (reduction,
/// prefilter and index off). Pointer verbs are answered on `g`. Flow verbs
/// are answered on g's reduced serving graph: a session with reduction on
/// answers taint/depends over the reduced graph by design (DESIGN.md §15),
/// so `unreduced` keeps the flow answers on `g` as well, for the divergence
/// count the run prints.
struct Reference {
  std::vector<Answer> answer, unreduced;
};

Reference reference_answers(const pag::Pag& g, const std::vector<Req>& reqs) {
  Reference ref;
  {
    svc::Session plain(pag::Pag(g), session_options(false));
    ref.unreduced = answer_on(plain, reqs);
  }
  ref.answer = ref.unreduced;
  std::vector<Req> flow;
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (is_flow(reqs[i].op)) {
      flow.push_back(reqs[i]);
      at.push_back(i);
    }
  if (!flow.empty()) {
    svc::Session serving(pag::reduce_unmatched_parens(g), session_options(false));
    const auto answers = answer_on(serving, flow);
    for (std::size_t i = 0; i < flow.size(); ++i) ref.answer[at[i]] = answers[i];
  }
  return ref;
}

struct CheckResult {
  std::uint64_t mismatches = 0;
  std::uint64_t checked = 0;
  /// Flow replies that differ from the unreduced graph's answer (the
  /// documented reduced-graph semantics; informational).
  std::uint64_t flow_divergent = 0;
};

void compare(const Record& rec, const Req& r, const Answer& expect,
             const Answer& unreduced, CheckResult& out) {
  ++out.checked;
  if (!same_answer(rec.answer, expect)) {
    ++out.mismatches;
    std::fprintf(stderr, "perfbench: mismatch on request %u (%s)\n", rec.index,
                 request_line(r, "").c_str());
  }
  if (is_flow(r.op) && !same_answer(rec.answer, unreduced)) ++out.flow_divergent;
}

/// Every distinct complete points-to answer in `ids` must lie within
/// Andersen's points-to set on `g`.
std::uint64_t check_andersen(const pag::Pag& g, const AnswerIds& ids) {
  std::uint64_t bad = 0;
  const auto andersen = parcfl::andersen::Prefilter::build(g);
  for (const auto& [key, objects] : ids)
    for (const std::uint32_t o : objects)
      if (!andersen.points_to(NodeId(key.first), NodeId(o))) {
        ++bad;
        std::fprintf(stderr, "perfbench: answer for %u not within Andersen\n",
                     key.first);
        break;
      }
  return bad;
}

/// Checks every read of `records` (all on one graph revision) against the
/// reference answers on `g`.
CheckResult check_reads(const std::vector<Record>& records, const AnswerIds& ids,
                        const std::vector<Req>& stream, const pag::Pag& g) {
  CheckResult out;
  out.mismatches += check_andersen(g, ids);
  std::vector<Req> distinct;
  std::map<std::tuple<int, std::uint32_t, std::uint32_t>, std::size_t> slot;
  auto key = [](const Req& r) {
    return std::tuple<int, std::uint32_t, std::uint32_t>(static_cast<int>(r.op),
                                                         r.a, r.b);
  };
  for (const Record& rec : records)
    if (slot.try_emplace(key(stream[rec.index]), distinct.size()).second)
      distinct.push_back(stream[rec.index]);
  if (distinct.empty()) return out;
  const Reference ref = reference_answers(g, distinct);
  for (const Record& rec : records) {
    const Req& r = stream[rec.index];
    const std::size_t i = slot.at(key(r));
    compare(rec, r, ref.answer[i], ref.unreduced[i], out);
  }
  return out;
}

/// Churn: every distinct complete answer must lie within Andersen of the base
/// graph plus every edit (a superset of each revision's Andersen set), and a
/// seeded sample of the reads that ran wholly between two updates must match
/// the reference answers on that revision's graph.
CheckResult check_churn(const std::vector<Record>& records,
                        const AnswerIds& ids, const std::vector<Req>& stream,
                        const pag::Pag& base, const std::vector<Edit>& edits,
                        std::uint32_t first_revision, Clock::time_point start,
                        std::uint64_t seed) {
  CheckResult out;
  {
    pag::Delta all(base);
    for (const Edit& e : edits)
      for (const pag::Edge& edge : e)
        all.add_edge(edge.kind, edge.dst, edge.src, edge.aux);
    const auto widest = pag::apply_delta(base, all);
    if (!widest) {
      std::fprintf(stderr, "perfbench: churn edits do not apply\n");
      ++out.mismatches;
      return out;
    }
    out.mismatches += check_andersen(*widest, ids);
  }
  // Revision r spans [reply of update r, send of update r+1].
  std::map<std::uint32_t, std::pair<Clock::time_point, Clock::time_point>> upd;
  for (const Record& rec : records)
    if (stream[rec.index].op == Op::kUpdate)
      upd[stream[rec.index].update] = {rec.send, rec.recv};
  std::map<std::uint32_t, std::vector<const Record*>> at;
  for (const Record& rec : records) {
    if (stream[rec.index].op == Op::kUpdate ||
        rec.answer.kind == Answer::kFailed || rec.send < start)
      continue;
    std::uint32_t r = first_revision;
    for (const auto& [k, times] : upd)
      if (times.second <= rec.send) r = k;
    const auto next = upd.find(r + 1);
    if (next != upd.end() && rec.recv > next->second.first) continue;
    at[r].push_back(&rec);
  }
  pag::Pag current = base;
  std::uint32_t revision = 0;
  for (auto& [r, recs] : at) {
    for (; revision < r; ++revision) {
      auto next = pag::apply_delta(current, update_delta(base, edits, revision + 1));
      if (!next) {
        std::fprintf(stderr, "perfbench: update %u does not apply\n", revision + 1);
        ++out.mismatches;
        return out;
      }
      current = std::move(*next);
    }
    Rng rng(splitmix64(seed ^ (0xc0ffeeull + r)));
    for (std::size_t i = recs.size(); i > 1; --i)
      std::swap(recs[i - 1], recs[rng.below(i)]);
    recs.resize(std::min<std::size_t>(recs.size(), 4));
    std::vector<Req> reqs;
    for (const Record* rec : recs) reqs.push_back(stream[rec->index]);
    const Reference ref = reference_answers(current, reqs);
    for (std::size_t i = 0; i < recs.size(); ++i)
      compare(*recs[i], reqs[i], ref.answer[i], ref.unreduced[i], out);
  }
  return out;
}

// ---- reporting -------------------------------------------------------------

struct Report {
  MetricSet metrics;
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
};

/// Host CPU time and process CPU time at the start of a timed phase.
struct CpuMark {
  Clock::time_point at = Clock::now();
  double steal = host_steal_seconds(), cpu = process_cpu_seconds();
};

/// The process's CPU time per operation since `mark`, in ms. Also prints the
/// host steal over the same stretch as a share of all CPUs' time: wall-clock
/// metrics move with it, so a run taken in a heavy-steal stretch can be told
/// apart and rerun.
double cpu_ms_per_op(const CpuMark& mark, std::uint64_t operations) {
  const double wall = ms_between(mark.at, Clock::now()) / 1e3;
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  std::printf("perfbench: host steal %.2f%% of %g CPUs over the %.2f s timed "
              "phase (diagnostic)\n",
              100.0 * ratio(host_steal_seconds() - mark.steal, wall * cpus), cpus,
              wall);
  return ratio((process_cpu_seconds() - mark.cpu) * 1e3,
               static_cast<double>(operations));
}

/// The CPU seconds (all threads) a set-up that began at `mark` used, which
/// host steal does not move; its wall time goes to stderr beside them.
double setup_seconds(const CpuMark& mark) {
  const double cpu = process_cpu_seconds() - mark.cpu;
  std::fprintf(stderr, "perfbench: set-up took %.4f s CPU, %.4f s wall\n", cpu,
               ms_between(mark.at, Clock::now()) / 1e3);
  return cpu;
}

void note(const char* fmt, double value, const char* unit, const char* extra) {
  std::printf("perfbench: %-24s %14.6g %-6s %s\n", fmt, value, unit, extra);
}

/// Wall-clock throughput and latency of a timed phase, `latencies` holding
/// every timed operation's: printed by every run and kept in `v` for the
/// per-layer set. They carry no bound, as the host moves them by more than
/// any bound allows.
void wall_figures(double qps, const std::vector<double>& latencies,
                  std::map<std::string, double>& v) {
  const Summary lat = summarize(latencies, 0.99);
  char extra[128];
  std::snprintf(extra, sizeof extra, "n=%zu, wall clock", lat.count);
  note("qps", qps, "1/s", extra);
  note("p50_ms", lat.p50, "ms", extra);
  std::snprintf(extra, sizeof extra, "n=%zu p%g, beyond=%zu, wall clock",
                lat.count, lat.tail.q * 100, lat.tail.beyond);
  note("p99_ms", lat.tail.value, "ms", extra);
  v["qps"] = qps;
  v["p50_ms"] = lat.p50;
  v["p99_ms"] = lat.tail.value;
}

/// The end-to-end metrics every workload prints: `cpu_ms` is the process's
/// CPU time per timed operation.
void end_to_end(Report& rep, double cpu_ms, std::uint64_t answers,
                std::uint64_t incomplete, const std::vector<double>& setup_s,
                double rss) {
  char extra[128];
  rep.metrics.set("cpu_ms_per_op", cpu_ms, "ms");
  note("cpu_ms_per_op", cpu_ms, "ms", "process CPU time / operations timed");
  const double answered =
      rep.attempted == 0 ? 0.0
                         : 1.0 - static_cast<double>(rep.failed) /
                                     static_cast<double>(rep.attempted);
  std::snprintf(extra, sizeof extra, "failed=%llu attempted=%llu",
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
  rep.metrics.set("answered_share", answered, "share");
  note("answered_share", answered, "share", extra);
  const double complete =
      answers == 0 ? 0.0
                   : 1.0 - static_cast<double>(incomplete) /
                               static_cast<double>(answers);
  std::snprintf(extra, sizeof extra, "incomplete=%llu answers=%llu",
                static_cast<unsigned long long>(incomplete),
                static_cast<unsigned long long>(answers));
  rep.metrics.set("complete_share", complete, "share");
  note("complete_share", complete, "share", extra);
  std::snprintf(extra, sizeof extra, "CPU, median of %zu set-ups",
                setup_s.size());
  rep.metrics.set("setup_s", median(setup_s), "s");
  note("setup_s", median(setup_s), "s", extra);
  rep.metrics.set("peak_rss_mb", rss, "MiB");
  note("peak_rss_mb", rss, "MiB", "VmHWM after the timed phase");
}

/// Fill the per-layer metric set in catalog order from `values` (0 where a
/// layer reported nothing) and print the self-time table.
void per_layer(Report& rep, const std::map<std::string, double>& values,
               const Tracer& tracer) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    rep.metrics.set(name, it == values.end() ? 0.0 : it->second, unit);
  }
  std::printf("perfbench: %-28s %8s %12s %12s\n", "span (layer)", "count",
              "total_ms", "self_ms");
  for (const auto& [name, t] : tracer.layer_times())
    std::printf("perfbench: %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms);
  for (const auto& [name, value] : rep.metrics.entries())
    std::printf("perfbench: %-28s %16.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
}

void stream_counts(std::map<std::string, double>& v,
                   const std::vector<Req>& stream) {
  const StreamCounts c = count_stream(stream, 10000);
  v["stream.query"] = static_cast<double>(c.query);
  v["stream.alias"] = static_cast<double>(c.alias);
  v["stream.taint"] = static_cast<double>(c.taint);
  v["stream.depends"] = static_cast<double>(c.depends);
  v["stream.update"] = static_cast<double>(c.update);
  v["stream.distinct_roots"] = static_cast<double>(c.distinct_roots);
}

/// Median of `reps` timings of `fn` in ms, each recorded as a span.
double timed_ms(Tracer& tracer, const std::string& span, int reps,
                const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    tracer.add(span, t0, t1);
    ms.push_back(ms_between(t0, t1));
  }
  return median(ms);
}

/// Layers measured by calling them directly on the workload's graph: graph
/// reduction, the Andersen prefilter (scratch and incremental), delta
/// application, one cold DQ batch (4 threads and 1 thread), the v3 state
/// spill/reopen, and session manager eviction and reopen. `cold_engine` false
/// leaves engine/scheduler/jmp values to the caller (the batch workload
/// measures them on its timed batches).
void probe_graph(const pag::Pag& g, const std::vector<NodeId>& queries,
                 std::uint64_t seed, const std::string& dir, Tracer& tracer,
                 std::map<std::string, double>& v, bool cold_engine) {
  pag::ReduceStats reduce{};
  v["pag.reduce_ms"] = timed_ms(tracer, "pag.reduce_and_compact", 3, [&] {
    reduce = pag::reduce_and_compact(g).stats;
  });
  v["pag.reduced_edge_share"] = ratio(reduce.edges_removed, reduce.edges_before);

  std::optional<parcfl::andersen::Prefilter> pf;
  v["prefilter.build_ms"] = timed_ms(tracer, "andersen.prefilter_build", 3, [&] {
    pf.emplace(parcfl::andersen::Prefilter::build(g));
  });
  const auto edits = make_edits(g, seed);
  const pag::Delta add = update_delta(g, edits, 1);
  std::optional<pag::Pag> g1;
  v["pag.apply_delta_ms"] = timed_ms(tracer, "pag.apply_delta", 3, [&] {
    g1 = pag::apply_delta(g, add);
  });
  if (g1)
    v["prefilter.rebuild_ms"] =
        timed_ms(tracer, "andersen.prefilter_rebuild", 3, [&] {
          (void)parcfl::andersen::Prefilter::build_incremental(*g1, *pf);
        });
  pf.reset();

  if (cold_engine) {
    cfl::Engine engine(g, engine_options(kThreads));
    const auto t0 = Clock::now();
    const cfl::EngineResult r = engine.run(queries);
    tracer.add("engine.run", t0, Clock::now());
    v["scheduler.batch_s"] = r.schedule_seconds;
    v["engine.busy_s"] = r.wall_seconds - r.schedule_seconds;
    v["engine.traversed_steps"] = static_cast<double>(r.totals.traversed_steps);
    v["engine.makespan_steps"] = static_cast<double>(r.makespan_steps());
    v["engine.imbalance"] =
        ratio(static_cast<double>(r.makespan_steps()) * kThreads,
              static_cast<double>(r.totals.traversed_steps));
    v["engine.early_terminations"] =
        static_cast<double>(r.totals.early_terminations);
  }
  {
    cfl::Engine single(g, engine_options(1));
    const auto t0 = Clock::now();
    v["engine.steps_1t"] =
        static_cast<double>(single.run(queries).totals.traversed_steps);
    tracer.add("engine.run_1t", t0, Clock::now());
  }
  {
    cfl::ContextTable contexts;
    cfl::JmpStore store;
    cfl::Engine engine(g, engine_options(kThreads));
    (void)engine.run(queries, contexts, store);
    const std::string path = dir + "/probe.state";
    bool ok = true;
    v["persist.spill_ms"] = timed_ms(tracer, "persist.spill", 3, [&] {
      ok = ok && cfl::save_sharing_state_file_v3(path, g, contexts, store);
    });
    v["persist.reopen_ms"] = timed_ms(tracer, "persist.reopen", 3, [&] {
      cfl::ContextTable c2;
      cfl::JmpStore s2;
      ok = ok && cfl::load_sharing_state_file_v3(path, g, c2, s2,
                                                 cfl::StateLoadMode::kMmap);
    });
    std::error_code ec;
    v["persist.state_bytes"] =
        static_cast<double>(std::filesystem::file_size(path, ec));
    if (!ok) std::fprintf(stderr, "perfbench: persist probe failed\n");
  }
  {
    // A SessionManager holding one resident session of two tenants backed by
    // this graph, so every other acquire evicts (a v3 spill) and reopens.
    const std::string path = dir + "/probe.pag";
    svc::SessionManager::Options mo;
    mo.session = session_options(true);
    mo.max_resident = 1;
    mo.spill_dir = dir;
    svc::SessionManager manager(mo);
    std::string error;
    bool ok = write_text(path, pag::write_pag_string(g)) &&
              manager.open("a", path, &error) && manager.open("b", path, &error);
    std::vector<svc::Session::Item> items;
    for (std::size_t i = 0; i < std::min<std::size_t>(64, queries.size()); ++i)
      items.push_back({queries[i], 0});
    for (int i = 0; ok && i < 6; ++i) {
      const auto t0 = Clock::now();
      auto lease = manager.acquire(i % 2 == 0 ? "a" : "b", &error);
      tracer.add("manager.acquire", t0, Clock::now());
      ok = static_cast<bool>(lease);
      if (ok) (void)lease->run_batch(items);
    }
    if (!ok) std::fprintf(stderr, "perfbench: manager probe: %s\n", error.c_str());
    const auto c = manager.counters();
    v["manager.evictions"] = static_cast<double>(c.evictions);
    v["manager.reopens"] = static_cast<double>(c.reopens);
  }
}

/// Service-plane layers from a traced phase plus replays on `session` after
/// it: the handler span, the wire remainder, run_batch and the scheduler at
/// the observed batch size, and session updates with their rewarm cost.
void probe_service(const PhaseResult& traced, const std::vector<Req>& stream,
                   double batch_mean,
                   svc::Session& session, const std::vector<Edit>& edits,
                   std::uint32_t next_update, Tracer& tracer,
                   std::map<std::string, double>& v) {
  std::vector<double> call_ms, wire_us;
  for (std::size_t i = 0; i < traced.records.size(); ++i) {
    const Record& rec = traced.records[i];
    const auto& [h0, h1] = traced.handle[i];
    const auto client =
        tracer.add("wire.roundtrip", rec.send, rec.recv, rec.index);
    if (h1 == Clock::time_point{}) continue;
    tracer.add("service.handle", h0, h1, rec.index, client);
    if (stream[rec.index].op == Op::kUpdate) continue;
    call_ms.push_back(ms_between(h0, h1));
    wire_us.push_back((ms_between(rec.send, rec.recv) - ms_between(h0, h1)) *
                      1e3);
  }
  const Summary call = summarize(call_ms, 0.99);
  v["service.call_ms_p50"] = call.p50;
  v["service.call_ms_p99"] = call.tail.value;
  v["wire.self_us_p50"] = median(wire_us);

  // Replay batches of the observed size from the stream's reads.
  const std::size_t units = std::max<std::size_t>(
      1, static_cast<std::size_t>(batch_mean + 0.5));
  std::vector<std::vector<svc::Session::Item>> batches(1);
  for (const Req& r : stream) {
    if (r.op == Op::kUpdate) continue;
    if (batches.back().size() >= units) {
      if (batches.size() == 40) break;
      batches.emplace_back();
    }
    batches.back().push_back({NodeId(r.a), 0, kind_of(r.op)});
    if (r.op == Op::kAlias) batches.back().push_back({NodeId(r.b), 0});
  }
  std::vector<double> run_ms, sched_ms;
  for (const auto& items : batches) {
    std::vector<NodeId> vars;
    for (const auto& item : items) vars.push_back(item.var);
    auto t0 = Clock::now();
    (void)cfl::schedule_queries(session.pag(), vars);
    auto t1 = Clock::now();
    tracer.add("scheduler.schedule_queries", t0, t1);
    sched_ms.push_back(ms_between(t0, t1));
    t0 = Clock::now();
    (void)session.run_batch(items);
    t1 = Clock::now();
    tracer.add("session.run_batch", t0, t1);
    run_ms.push_back(ms_between(t0, t1));
  }
  v["session.run_batch_ms_p50"] = median(run_ms);
  v["scheduler.ms_per_batch"] = median(sched_ms);
  v["scheduler.share"] = ratio(median(sched_ms), median(run_ms));
  v["service.wait_ms_p50"] = std::max(0.0, call.p50 - median(run_ms));

  // Updates continue the run's edit sequence, so each one applies.
  std::vector<double> update_ms, evicted, rewarm;
  const pag::Pag base = session.base_pag();
  for (std::uint32_t k = next_update; k < next_update + 8; ++k) {
    (void)session.run_batch(batches.front());
    svc::Session::UpdateStats stats;
    std::string error;
    const auto t0 = Clock::now();
    const bool ok = session.update(update_delta(base, edits, k), &error, &stats);
    const auto t1 = Clock::now();
    if (!ok) {
      std::fprintf(stderr, "perfbench: update replay %u: %s\n", k, error.c_str());
      break;
    }
    tracer.add("session.update", t0, t1);
    update_ms.push_back(ms_between(t0, t1));
    evicted.push_back(static_cast<double>(stats.invalidate.evicted));
    rewarm.push_back(static_cast<double>(
        session.run_batch(batches.front()).delta.traversed_steps));
  }
  v["session.update_ms_p50"] = median(update_ms);
  v["invalidate.evicted"] = median(evicted);
  v["churn.rewarm_steps"] = median(rewarm);
}

/// Stats deltas over a timed phase.
void service_counters(const svc::ServiceStats& a, const svc::ServiceStats& b,
                      std::map<std::string, double>& v) {
  const double units_a = a.mean_batch_size * static_cast<double>(a.batches);
  const double units_b = b.mean_batch_size * static_cast<double>(b.batches);
  v["service.batch_size_mean"] =
      ratio(units_b - units_a, static_cast<double>(b.batches - a.batches));
  v["service.shed"] = static_cast<double>(
      (b.shed_overload - a.shed_overload) + (b.shed_deadline - a.shed_deadline));
  v["jmp.hit_ratio"] =
      ratio(static_cast<double>(b.engine.jmps_taken - a.engine.jmps_taken),
            static_cast<double>(b.engine.jmp_lookups - a.engine.jmp_lookups));
  v["jmp.entries"] = static_cast<double>(b.jmp_entries);
  v["jmp.bytes"] = static_cast<double>(b.jmp_store_bytes);
  const double hits = static_cast<double>(b.index_hits - a.index_hits);
  const double misses = static_cast<double>(b.index_misses - a.index_misses);
  v["index.hit_ratio"] = ratio(hits, hits + misses);
  v["index.entries"] = static_cast<double>(b.index_entries);
  v["index.invalidated"] =
      static_cast<double>(b.index_invalidated - a.index_invalidated);
  const double ph =
      static_cast<double>(b.engine.prefilter_hits - a.engine.prefilter_hits);
  const double pm = static_cast<double>(b.engine.prefilter_misses -
                                        a.engine.prefilter_misses);
  v["prefilter.hit_ratio"] = ratio(ph, ph + pm);
}


// ---- workload runs ---------------------------------------------------------

constexpr std::uint32_t kUnset = ~0u;

/// `setup` mode: the set-up time alone, as the only stdout line.
int print_setup(double seconds) {
  std::printf("%.9f\n", seconds);
  return 0;
}

std::vector<std::uint32_t> as_roots(const std::vector<NodeId>& ids) {
  std::vector<std::uint32_t> out;
  for (const NodeId n : ids) out.push_back(n.value());
  return out;
}

/// `batch`: repeated cold ParCFL_DQ Engine::run over the full query set.
int run_batch(const Args& a, Tracer& tracer, Report& rep) {
  const std::string dir = input_dir(a);
  std::vector<double> setup_s = a.setup_samples;
  const CpuMark setup_mark;
  const auto span = tracer.begin("setup");
  std::optional<Loaded> g = load_served(dir, tracer, span);
  if (!g) {
    std::fprintf(stderr, "perfbench: no inputs in %s\n", dir.c_str());
    return 2;
  }
  const auto engine =
      std::make_unique<cfl::Engine>(g->pag, engine_options(kThreads));
  tracer.end(span);
  setup_s.push_back(setup_seconds(setup_mark));
  if (a.mode == "setup") return print_setup(setup_s.back());
  // The seed orders the query set; the DQ scheduler regroups it.
  std::vector<NodeId> queries = g->queries;
  Rng order(splitmix64(a.seed));
  for (std::size_t i = queries.size(); i > 1; --i)
    std::swap(queries[i - 1], queries[order.below(i)]);
  (void)engine->run(queries);  // untimed: page in, warm the allocator

  std::vector<std::uint32_t> known(queries.size(), kUnset);
  std::vector<double> wall_ms, schedule_s, traversed, makespan, ets, hit, entries,
      bytes;
  std::uint64_t answers = 0, incomplete = 0;
  auto phase = [&](double seconds, bool traced) {
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
    std::vector<double> batch_qps;
    do {
      const auto t0 = Clock::now();
      const cfl::EngineResult r = engine->run(queries);
      const auto t1 = Clock::now();
      if (traced) tracer.add("engine.run", t0, t1, wall_ms.size());
      wall_ms.push_back(ms_between(t0, t1));
      batch_qps.push_back(
          ratio(static_cast<double>(queries.size()), wall_ms.back() / 1e3));
      schedule_s.push_back(r.schedule_seconds);
      traversed.push_back(static_cast<double>(r.totals.traversed_steps));
      makespan.push_back(static_cast<double>(r.makespan_steps()));
      ets.push_back(static_cast<double>(r.totals.early_terminations));
      hit.push_back(ratio(static_cast<double>(r.totals.jmps_taken),
                          static_cast<double>(r.totals.jmp_lookups)));
      entries.push_back(static_cast<double>(r.jmp_stats.finished_entries));
      bytes.push_back(static_cast<double>(r.jmp_store_bytes));
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        const cfl::QueryOutcome& o = r.outcomes[i];
        std::uint32_t& k = known[r.source_index[i]];
        ++answers;
        if (o.status != cfl::QueryStatus::kComplete) {
          ++incomplete;
        } else if (k == kUnset) {
          k = o.object_count;
        } else if (k != o.object_count) {
          ++rep.mismatches;
        }
      }
    } while (Clock::now() < deadline);
    return median(batch_qps);
  };
  std::map<std::string, double> v;
  double qps = 0;
  const CpuMark mark;
  std::size_t untraced_batches = 0;
  if (!a.trace) {
    qps = phase(a.seconds, false);
  } else {
    qps = phase(a.seconds / 2, false);
    untraced_batches = wall_ms.size();
    v["trace.qps_traced"] = phase(a.seconds / 2, true);
  }
  const double rss = peak_rss_mb();
  const double cpu_ms = cpu_ms_per_op(mark, answers);
  rep.attempted = answers;

  // Object sets of one more cold batch: within Andersen, equal to a plain
  // session's where both are complete, and matching the timed batches' sizes.
  {
    cfl::EngineOptions eo = engine_options(kThreads);
    eo.collect_objects = true;
    const cfl::EngineResult r = cfl::Engine(g->pag, eo).run(queries);
    const auto andersen = parcfl::andersen::Prefilter::build(g->pag);
    svc::Session plain(pag::Pag(g->pag), session_options(false));
    std::vector<svc::Session::Item> items;
    for (const NodeId q : queries) items.push_back({q, 0});
    const auto ref = plain.run_batch(items);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      const std::uint32_t q = r.source_index[i];
      const auto& objects = r.objects[i];
      const auto& expect = ref.items[q];
      const bool complete = r.outcomes[i].status == cfl::QueryStatus::kComplete;
      const bool ref_complete = expect.status == cfl::QueryStatus::kComplete;
      for (const NodeId o : objects)
        if (complete && !andersen.points_to(queries[q], o)) {
          ++bad;
          break;
        }
      if (complete && ref_complete && objects != expect.objects) ++bad;
      if (ref_complete && known[q] != kUnset &&
          known[q] != expect.objects.size())
        ++bad;
    }
    rep.mismatches += bad;
  }
  rep.failed = rep.mismatches;

  if (!a.trace) {
    wall_figures(qps, wall_ms, v);
    end_to_end(rep, cpu_ms, answers, incomplete, setup_s, rss);
    return 0;
  }
  wall_figures(qps,
               std::vector<double>(wall_ms.begin(),
                                   wall_ms.begin() + static_cast<std::ptrdiff_t>(
                                                         untraced_batches)),
               v);
  std::vector<double> share;
  for (std::size_t i = 0; i < wall_ms.size(); ++i)
    share.push_back(ratio(schedule_s[i] * 1e3, wall_ms[i]));
  std::vector<double> busy;
  for (std::size_t i = 0; i < wall_ms.size(); ++i)
    busy.push_back(wall_ms[i] / 1e3 - schedule_s[i]);
  std::vector<double> imbalance;
  for (std::size_t i = 0; i < wall_ms.size(); ++i)
    imbalance.push_back(ratio(makespan[i] * kThreads, traversed[i]));
  v["scheduler.batch_s"] = median(schedule_s);
  v["scheduler.share"] = median(share);
  v["engine.busy_s"] = median(busy);
  v["engine.traversed_steps"] = median(traversed);
  v["engine.makespan_steps"] = median(makespan);
  v["engine.imbalance"] = median(imbalance);
  v["engine.early_terminations"] = median(ets);
  v["jmp.hit_ratio"] = median(hit);
  v["jmp.entries"] = median(entries);
  v["jmp.bytes"] = median(bytes);
  v["scheduler.ms_per_batch"] =
      timed_ms(tracer, "scheduler.schedule_queries", 3,
               [&] { (void)cfl::schedule_queries(g->pag, queries); });
  v["pag.read_s"] = g->read_s;
  v["pag.collapse_s"] = g->collapse_s;
  v["stream.query"] = static_cast<double>(queries.size());
  v["stream.distinct_roots"] = static_cast<double>(queries.size());
  v["trace.overhead_share"] = 1.0 - ratio(v["trace.qps_traced"], v["qps"]);
  probe_graph(g->pag, queries, a.graph_seed, dir, tracer, v, false);

  // The batch workload bypasses the service; its service-plane layers are
  // measured on a short closed-loop probe over the same graph.
  {
    svc::ServiceOptions o;
    o.session = session_options(true);
    svc::QueryService probe(pag::Pag(g->pag), o);
    probe.session().wait_for_prefilter();
    StreamSpec spec;
    spec.seed = a.seed;
    spec.hot_seed = a.graph_seed;
    spec.length = 900;
    const auto stream = make_stream(as_roots(queries), spec);
    UpdateGate gate;
    const auto never = Clock::now() + std::chrono::hours(1);
    (void)drive(probe, stream, 0, 300, never, dir, gate, false);
    const auto before = probe.stats();
    const PhaseResult traced =
        drive(probe, stream, 300, stream.size(), never, dir, gate, true);
    const auto after = probe.stats();
    // Only the service-plane layers come from the probe; the scheduler,
    // engine and jmp figures above stay those of the timed batches.
    std::map<std::string, double> sv;
    service_counters(before, after, sv);
    probe_service(traced, stream, sv["service.batch_size_mean"],
                  probe.session(), make_edits(g->pag, a.graph_seed), 1, tracer, sv);
    for (const char* prefix :
         {"wire.", "service.", "session.", "invalidate.", "churn."})
      for (const auto& [name, value] : sv)
        if (name.rfind(prefix, 0) == 0) v[name] = value;
  }
  per_layer(rep, v, tracer);
  return 0;
}

/// `serve` and `churn`: closed-loop clients over loopback TCP against a warm
/// QueryService.
int run_service(const Args& a, const Shape& shape, Tracer& tracer,
                Report& rep) {
  const std::string dir = input_dir(a);
  std::vector<double> setup_s = a.setup_samples;
  double read_s = 0, collapse_s = 0;
  std::unique_ptr<svc::QueryService> service;
  std::vector<std::uint32_t> roots;
  {
    const CpuMark setup_mark;
    const auto span = tracer.begin("setup");
    auto g = load_served(dir, tracer, span);
    if (!g) {
      std::fprintf(stderr, "perfbench: no inputs in %s\n", dir.c_str());
      return 2;
    }
    read_s = g->read_s;
    collapse_s = g->collapse_s;
    roots = as_roots(g->queries);
    svc::ServiceOptions o;
    o.session = session_options(true);
    {
      Scope s(tracer, "service.start", 0, span);
      service = std::make_unique<svc::QueryService>(std::move(g->pag), o);
    }
    {
      Scope s(tracer, "prefilter.wait", 0, span);
      service->session().wait_for_prefilter();
    }
    tracer.end(span);
    setup_s.push_back(setup_seconds(setup_mark));
  }
  if (a.mode == "setup") return print_setup(setup_s.back());

  StreamSpec spec;
  spec.seed = a.seed;
  spec.hot_seed = a.graph_seed;
  spec.length = 400'000;
  spec.update_every = shape.update_every;
  const std::vector<Req> stream = make_stream(roots, spec);
  UpdateGate gate;
  const auto never = Clock::now() + std::chrono::hours(1);
  const PhaseResult warm =
      drive(*service, stream, 0, shape.warm_requests, never, dir, gate, false);
  service->session().wait_for_index();
  const svc::ServiceStats before = service->stats();
  const std::uint32_t first_revision = gate.done;
  const CpuMark mark;
  auto until = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  std::vector<PhaseResult> phases;
  std::map<std::string, double> v;
  if (!a.trace) {
    phases.push_back(drive(*service, stream, warm.next, stream.size(),
                           until(a.seconds), dir, gate, false));
  } else {
    phases.push_back(drive(*service, stream, warm.next, stream.size(),
                           until(a.seconds / 2), dir, gate, false));
    phases.push_back(drive(*service, stream, phases[0].next, stream.size(),
                           until(a.seconds / 2), dir, gate, true));
  }
  const svc::ServiceStats after = service->stats();
  const double rss = peak_rss_mb();

  std::vector<Record> records;
  AnswerIds ids;
  std::vector<double> latencies, update_ms;
  std::uint64_t answers = 0, incomplete = 0;
  double elapsed = 0;
  for (PhaseResult& p : phases) {
    records.insert(records.end(), p.records.begin(), p.records.end());
    ids.merge(p.ids);
    elapsed += p.elapsed_s;
  }
  const double cpu_ms = cpu_ms_per_op(mark, records.size());
  std::printf("perfbench: timed phase: %llu batches of %.2f units, %llu index "
              "builds, index hit ratio %.3f\n",
              static_cast<unsigned long long>(after.batches - before.batches),
              ratio(after.mean_batch_size * static_cast<double>(after.batches) -
                        before.mean_batch_size *
                            static_cast<double>(before.batches),
                    static_cast<double>(after.batches - before.batches)),
              static_cast<unsigned long long>(after.index_builds -
                                              before.index_builds),
              ratio(static_cast<double>(after.index_hits - before.index_hits),
                    static_cast<double>(after.index_hits - before.index_hits +
                                        after.index_misses - before.index_misses)));
  for (const Record& rec : warm.records)
    if (rec.answer.kind == Answer::kFailed) {
      std::fprintf(stderr, "perfbench: warm-up request %u failed\n", rec.index);
      ++rep.mismatches;
    }
  for (const Record& rec : records) {
    const bool update = stream[rec.index].op == Op::kUpdate;
    const bool failed = rec.answer.kind == Answer::kFailed ||
                        update != (rec.answer.kind == Answer::kUpdated);
    const double ms = ms_between(rec.send, rec.recv);
    if (failed) ++rep.failed;
    latencies.push_back(failed ? kFailedMs : ms);
    if (update) {
      update_ms.push_back(ms);
    } else if (!failed) {
      ++answers;
      if (!rec.answer.definite() ||
          (rec.answer.kind == Answer::kQuery && rec.answer.status != 0))
        ++incomplete;
    }
  }
  rep.attempted = records.size();

  const auto g0 = load_served(dir, tracer);
  const auto edits = make_edits(g0->pag, a.graph_seed);
  const CheckResult check =
      shape.update_every != 0
          ? check_churn(records, ids, stream, g0->pag, edits, first_revision,
                        phases.front().start, a.seed)
          : check_reads(records, ids, stream, g0->pag);
  std::printf("perfbench: checked %llu replies, %llu mismatches; %llu flow "
              "replies differ from the unreduced graph (reduced-graph "
              "semantics)\n",
              static_cast<unsigned long long>(check.checked),
              static_cast<unsigned long long>(check.mismatches),
              static_cast<unsigned long long>(check.flow_divergent));
  rep.mismatches += check.mismatches;
  rep.failed += check.mismatches;

  if (!a.trace) {
    wall_figures(
        ratio(static_cast<double>(rep.attempted - rep.failed), elapsed),
        latencies, v);
    end_to_end(rep, cpu_ms, answers, incomplete, setup_s, rss);
    if (!update_ms.empty()) {
      const Summary u = summarize(update_ms, 0.90);
      char extra[64];
      std::snprintf(extra, sizeof extra, "n=%zu", u.count);
      note("update_p50_ms", u.p50, "ms", extra);
      std::snprintf(extra, sizeof extra, "n=%zu p%g beyond=%zu", u.count,
                    u.tail.q * 100, u.tail.beyond);
      note("update_p90_ms", u.tail.value, "ms", extra);
    }
    return 0;
  }

  service_counters(before, after, v);
  const std::size_t untraced = phases[0].records.size();
  wall_figures(ratio(static_cast<double>(untraced), phases[0].elapsed_s),
               std::vector<double>(latencies.begin(),
                                   latencies.begin() +
                                       static_cast<std::ptrdiff_t>(untraced)),
               v);
  v["trace.qps_traced"] =
      ratio(static_cast<double>(phases[1].records.size()), phases[1].elapsed_s);
  v["trace.overhead_share"] = 1.0 - ratio(v["trace.qps_traced"], v["qps"]);
  v["pag.read_s"] = read_s;
  v["pag.collapse_s"] = collapse_s;
  stream_counts(v, stream);
  probe_service(phases[1], stream, v["service.batch_size_mean"],
                service->session(), edits, gate.done + 1, tracer, v);
  probe_graph(g0->pag, g0->queries, a.graph_seed, dir, tracer, v, true);
  per_layer(rep, v, tracer);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|setup|run --workload batch|serve|churn "
               "--seed N [--seconds S] [--trace 0|1] [--work DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--graph-seed")
      a.graph_seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(value.c_str());
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--work") a.work = value;
    else if (flag == "--setup-samples") {
      for (std::size_t at = 0; at < value.size();) {
        std::size_t comma = value.find(',', at);
        if (comma == std::string::npos) comma = value.size();
        a.setup_samples.push_back(std::atof(value.substr(at, comma - at).c_str()));
        at = comma + 1;
      }
    }
    else return usage();
  }
  const auto shape = shape_of(a.workload);
  if (!shape || a.seconds <= 0) return usage();
  if (a.mode == "gen") return generate_inputs(a, *shape);
  if (a.mode != "run" && a.mode != "setup") return usage();

  Tracer tracer(a.trace);
  Report rep;
  const int rc = a.workload == "batch" ? run_batch(a, tracer, rep)
                                       : run_service(a, *shape, tracer, rep);
  if (rc != 0 || a.mode == "setup") return rc;
  if (a.trace) tracer.write_jsonl(input_dir(a) + "/trace.jsonl");
  // The printed metrics must be exactly the catalog BENCHMARK.json lists.
  const auto& catalog = a.trace ? per_layer_metrics() : end_to_end_metrics();
  bool complete = rep.metrics.entries().size() == catalog.size();
  for (const MetricSpec& m : catalog)
    complete = complete && std::any_of(rep.metrics.entries().begin(),
                                       rep.metrics.entries().end(),
                                       [&](const auto& e) { return e.first == m.name; });
  if (!complete) {
    std::fprintf(stderr, "perfbench: metric set does not match the catalog\n");
    return 2;
  }
  const bool correct = rep.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              rep.metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
