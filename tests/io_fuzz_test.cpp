// PAG text-format fuzzing: random graphs round-trip bit-exactly; mutated
// inputs never crash the parser (they parse or fail with a message).
// Also fuzzes the service wire protocol (mutated and truncated request lines
// must yield error replies, never crashes or wrong-typed requests) and the
// sharing-state persistence format (mutated state files are either rejected
// with a message or loaded into tables the solver can still run on).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cfl/context.hpp"
#include "cfl/jmp_store.hpp"
#include "cfl/persist.hpp"
#include "cfl/solver.hpp"
#include "pag/pag_io.hpp"
#include "pag/reduce.hpp"
#include "pag/validate.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace parcfl::pag {
namespace {

class IoFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoFuzzTest, RoundTripIsExact) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam();
  cfg.layers = 2 + GetParam() % 4;
  cfg.vars_per_layer = 2 + GetParam() % 5;
  cfg.objects = 1 + GetParam() % 6;
  cfg.assign_edges = GetParam() % 12;
  cfg.param_ret_edges = GetParam() % 10;
  cfg.heap_edge_pairs = GetParam() % 6;
  const auto pag = test::random_layered_pag(cfg);

  const std::string text = write_pag_string(pag);
  std::string error;
  const auto parsed = read_pag_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(write_pag_string(*parsed), text);

  // Structure survives, not just the text.
  ASSERT_EQ(parsed->node_count(), pag.node_count());
  ASSERT_EQ(parsed->edge_count(), pag.edge_count());
  for (std::uint32_t n = 0; n < pag.node_count(); ++n) {
    EXPECT_EQ(parsed->kind(NodeId(n)), pag.kind(NodeId(n)));
    EXPECT_EQ(parsed->node(NodeId(n)).method, pag.node(NodeId(n)).method);
    EXPECT_EQ(parsed->node(NodeId(n)).is_application,
              pag.node(NodeId(n)).is_application);
  }
  for (unsigned k = 0; k < kEdgeKindCount; ++k)
    EXPECT_EQ(parsed->edge_count_of_kind(static_cast<EdgeKind>(k)),
              pag.edge_count_of_kind(static_cast<EdgeKind>(k)));
}

TEST_P(IoFuzzTest, MutatedInputNeverCrashes) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam();
  const auto pag = test::random_layered_pag(cfg);
  std::string text = write_pag_string(pag);

  support::Rng rng(GetParam() * 977 + 13);
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = text;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      if (mutated.empty()) break;
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:  // flip a character
          mutated[pos] = static_cast<char>(' ' + rng.below(95));
          break;
        case 1:  // delete a span
          mutated.erase(pos, 1 + rng.below(5));
          break;
        case 2:  // duplicate a span
          mutated.insert(pos, mutated.substr(pos, 1 + rng.below(5)));
          break;
      }
    }
    std::string error;
    const auto parsed = read_pag_string(mutated, &error);
    // Either outcome is fine; a parse must yield a structurally sane graph.
    if (parsed.has_value()) {
      EXPECT_LE(parsed->edge_count(), 100000u);
      (void)validate(*parsed);  // must not crash either
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

// Seed for the loader's edge rule: a file that once loaded a variable into a
// points-to set (`new` between two locals) and a field id past its declared
// count. Mutations of it either fail with a line-numbered message or load a
// graph whose every edge passes the rule.
TEST_P(IoFuzzTest, MutatedKindMismatchSeedLoadsOnlyWellFormedEdges) {
  const std::string seed =
      "parcfl-pag 1\n"
      "counts nodes=3 fields=1 callsites=1 types=1 methods=1\n"
      "node 0 l\n"
      "node 1 l\n"
      "node 2 o\n"
      "edge new 0 1\n"
      "edge ld 1 0 f=7\n"
      "edge new 1 2\n"
      "edge st 0 1 f=0\n";
  std::string error;
  EXPECT_FALSE(read_pag_string(seed, &error).has_value());
  EXPECT_EQ(error.rfind("line 6: ", 0), 0u) << error;

  support::Rng rng(GetParam() * 7919 + 5);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = seed;
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(' ' + rng.below(95));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.below(5));
          break;
        case 2:
          mutated.insert(pos, mutated.substr(pos, 1 + rng.below(5)));
          break;
      }
      if (mutated.empty()) break;
    }
    error.clear();
    const auto parsed = read_pag_string(mutated, &error);
    if (!parsed.has_value()) {
      EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
      continue;
    }
    for (const Edge& edge : parsed->edges())
      EXPECT_EQ(edge_violation(edge.kind, parsed->kind(edge.dst),
                               parsed->kind(edge.src), edge.aux,
                               parsed->field_count(), parsed->call_site_count()),
                nullptr)
          << mutated;
  }
}

// The reducer sits on the load path right behind the parser (Session,
// pag_tool), so it must be total over anything the parser lets through —
// including the structurally weird graphs mutation produces. Invariants on
// every surviving parse: both variants run without crashing, the edge-only
// variant keeps ids and removes edges monotonically (subset, stats add up,
// idempotent), and the compact variant's remap is a consistent partial map.
TEST_P(IoFuzzTest, ReducerIsTotalOnMutatedInputs) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam() + 400;
  const auto pag = test::random_layered_pag(cfg);
  const std::string text = write_pag_string(pag);

  support::Rng rng(GetParam() * 1409 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = text;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      if (mutated.empty()) break;
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:
          mutated[pos] = static_cast<char>(' ' + rng.below(95));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.below(5));
          break;
        case 2:
          mutated.insert(pos, mutated.substr(pos, 1 + rng.below(5)));
          break;
      }
    }
    const auto parsed = read_pag_string(mutated, nullptr);
    if (!parsed.has_value()) continue;

    ReduceStats stats;
    const Pag reduced = reduce_unmatched_parens(*parsed, &stats);
    EXPECT_EQ(reduced.node_count(), parsed->node_count());
    EXPECT_EQ(stats.edges_before, parsed->edge_count());
    EXPECT_EQ(reduced.edge_count(), stats.edges_after());
    std::uint32_t by_kind = 0;
    for (unsigned k = 0; k < kEdgeKindCount; ++k) {
      by_kind += stats.removed_by_kind[k];
      EXPECT_LE(reduced.edge_count_of_kind(static_cast<EdgeKind>(k)),
                parsed->edge_count_of_kind(static_cast<EdgeKind>(k)));
    }
    EXPECT_EQ(by_kind, stats.edges_removed);
    (void)validate(reduced);  // must not crash

    // Idempotent: a second pass finds nothing left to remove.
    ReduceStats again;
    const Pag twice = reduce_unmatched_parens(reduced, &again);
    EXPECT_EQ(again.edges_removed, 0u);
    EXPECT_EQ(twice.edge_count(), reduced.edge_count());

    const ReduceResult compact = reduce_and_compact(*parsed);
    EXPECT_EQ(compact.pag.node_count() + compact.stats.nodes_dropped,
              parsed->node_count());
    ASSERT_EQ(compact.remap.size(), parsed->node_count());
    std::vector<char> hit(compact.pag.node_count(), 0);
    for (std::uint32_t n = 0; n < compact.remap.size(); ++n) {
      const NodeId to = compact.remap[n];
      if (!to.valid()) continue;
      ASSERT_LT(to.value(), compact.pag.node_count());
      EXPECT_FALSE(hit[to.value()]) << "remap not injective at " << n;
      hit[to.value()] = 1;
      EXPECT_EQ(compact.pag.kind(to), parsed->kind(NodeId(n)));
    }
    // Surjective onto the compacted id space: every kept id has a preimage.
    for (std::uint32_t n = 0; n < compact.pag.node_count(); ++n)
      EXPECT_TRUE(hit[n]) << "compacted id " << n << " unmapped";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzTest, ::testing::Range<std::uint64_t>(1, 21));

// ---- service wire protocol --------------------------------------------------

class ServiceFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Request lines to mutate (node bound passed to the parser is 50). The
/// `@<name>` prefix and the `open`/`close` verbs are no longer part of the
/// protocol; they stay here as hostile seeds that must fail with a message.
const char* const kSeedLines[] = {
    "query 17",
    "query v17 budget 5 deadline 9",
    "alias 3 44 budget 100",
    "taint 3 44",
    "taint v3 v44 budget 9",
    "depends 3 44 deadline 7",
    "@acme taint 3 44",
    "@acme depends 3 44 budget 9",
    "stats",
    "metrics",
    "slowlog",
    "slowlog 8",
    "save /tmp/state.bin",
    "load /tmp/state.bin",
    "ping",
    "quit",
    "open acme /tmp/graph.pag",
    "close acme",
    "@acme query 17",
    "@acme alias 3 44 budget 9",
    "@t-1_x.Y save /tmp/state.bin",
    "@acme @other query 3",
    "@acme index",
    "index",
};

TEST_P(ServiceFuzzTest, MutatedRequestLinesParseOrFailWithMessage) {
  support::Rng rng(GetParam() * 1299709 + 7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string line = kSeedLines[rng.below(std::size(kSeedLines))];
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      if (line.empty()) break;
      const std::size_t pos = rng.below(line.size());
      switch (rng.below(4)) {
        case 0:  // flip a character
          line[pos] = static_cast<char>(' ' + rng.below(95));
          break;
        case 1:  // truncate
          line.resize(pos);
          break;
        case 2:  // delete a span
          line.erase(pos, 1 + rng.below(5));
          break;
        case 3:  // duplicate a span
          line.insert(pos, line.substr(pos, 1 + rng.below(5)));
          break;
      }
    }
    service::Request request;
    std::string error;
    const bool ok = service::parse_request(line, /*node_count=*/50, request,
                                           error);
    if (ok) {
      // A parse must yield a well-typed request: node ids in bounds.
      if (request.verb == service::Verb::kQuery ||
          request.verb == service::Verb::kAlias ||
          request.verb == service::Verb::kTaint ||
          request.verb == service::Verb::kDepends) {
        EXPECT_LT(request.a.value(), 50u) << line;
      }
      if (request.verb == service::Verb::kAlias ||
          request.verb == service::Verb::kTaint ||
          request.verb == service::Verb::kDepends) {
        EXPECT_LT(request.b.value(), 50u) << line;
      }
    } else {
      EXPECT_FALSE(error.empty()) << line;
    }
  }
}

TEST(ServiceFuzz, HostileObservabilityArgumentsAreTotal) {
  service::Request r;
  std::string error;
  // metrics is arity-0; anything after it is a parse error, not a crash.
  EXPECT_FALSE(service::parse_request("metrics 7", 50, r, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(service::parse_request("metrics metrics", 50, r, error));
  // slowlog takes at most one numeric count; hostile counts must parse to a
  // bounded request or fail — never feed a negative/overflow into the log.
  EXPECT_FALSE(service::parse_request("slowlog -1", 50, r, error));
  EXPECT_FALSE(service::parse_request("slowlog 1 2", 50, r, error));
  EXPECT_FALSE(service::parse_request("slowlog 999999999999999999999999", 50,
                                      r, error));
  ASSERT_TRUE(service::parse_request("slowlog 18446744073709551615", 50, r,
                                     error))
      << error;
  EXPECT_EQ(r.verb, service::Verb::kSlowLog);
  EXPECT_EQ(r.count, 18446744073709551615ull);
  // index is arity-0 too.
  ASSERT_TRUE(service::parse_request("index", 50, r, error)) << error;
  EXPECT_EQ(r.verb, service::Verb::kIndex);
  EXPECT_FALSE(service::parse_request("index 3", 50, r, error));
}

// The protocol has no partition verbs (`part`, `cont`, `cfact`, `creset`),
// no `open`/`close` verbs and no `@<name>` prefix: a server serves one graph.
// Through the wire loop each removed form gets an `err` reply, and the
// stream goes on serving the lines after it.
TEST(ServiceFuzz, HostileWorkerFramesAreTotal) {
  test::RandomPagConfig cfg;
  cfg.seed = 9;
  const auto pag = test::random_layered_pag(cfg);
  const auto vars = test::all_variables(pag);
  ASSERT_FALSE(vars.empty());
  service::ServiceOptions options;
  options.session.engine.threads = 2;
  options.session.prefilter = false;
  service::QueryService svc(pag, options);

  const char* const removed[] = {
      "part", "part 1", "cont b 17 -", "cfact b 17 - 1 3:-", "creset",
      "open a g.pag", "close a", "@acme query 1", "@acme update d.delta",
  };
  std::string text;
  for (const char* line : removed) text += std::string(line) + "\nping\n";
  text += "query " + std::to_string(vars[0].value()) + "\nquit\n";
  std::istringstream in(text);
  std::ostringstream out;
  EXPECT_EQ(service::serve_stream(svc, in, out), 2 * std::size(removed) + 2);

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2 * std::size(removed) + 2) << out.str();
  for (std::size_t i = 0; i < std::size(removed); ++i) {
    EXPECT_EQ(lines[2 * i].rfind("err ", 0), 0u) << removed[i];
    EXPECT_EQ(lines[2 * i + 1], "ok pong") << removed[i];
  }
  EXPECT_EQ(lines[lines.size() - 2].rfind("ok ", 0), 0u)
      << lines[lines.size() - 2];
  EXPECT_EQ(lines.back(), "ok bye");
}

// Hostile taint/depends frames (DESIGN.md §15): the flow verbs share the
// two-node shape with alias, so truncations, non-numeric ids, out-of-range
// nodes, and malformed option tails must all die in the parser with a
// message; well-formed frames parse with both ids bound.
TEST(ServiceFuzz, HostileFlowVerbFramesAreTotal) {
  service::Request r;
  std::string error;

  for (const char* verb : {"taint", "depends"}) {
    const std::string v = verb;
    for (const std::string& line : {
             v,                        // no nodes
             v + " 3",                 // one node (truncated frame)
             v + " 3 4 5",             // three nodes
             v + " x 4",               // non-numeric source
             v + " 3 x",               // non-numeric sink
             v + " 99 3",              // source out of range (bound is 50)
             v + " 3 99",              // sink out of range
             v + " -3 4",              // negative id
             v + " 3 4 budget",        // option without value
             v + " 3 4 budget x",      // non-numeric budget
             v + " 3 4 frobnicate 1",  // unknown option
             v + " v 4",               // bare variable prefix
         }) {
      error.clear();
      EXPECT_FALSE(service::parse_request(line, 50, r, error)) << line;
      EXPECT_FALSE(error.empty()) << line;
    }
  }

  // Well-formed frames parse with verb, ids, and options intact.
  ASSERT_TRUE(service::parse_request("taint v3 v44 budget 9", 50, r, error))
      << error;
  EXPECT_EQ(r.verb, service::Verb::kTaint);
  EXPECT_EQ(r.a.value(), 3u);
  EXPECT_EQ(r.b.value(), 44u);
  EXPECT_EQ(r.budget, 9u);
  ASSERT_TRUE(service::parse_request("depends 3 44", 50, r, error)) << error;
  EXPECT_EQ(r.verb, service::Verb::kDepends);
}

// Flow verbs against a live service: non-variable roots and sinks answer an
// error (the grammar's roots are variables) — never a crash, and the
// session keeps serving.
TEST(ServiceFuzz, FlowVerbsAgainstServiceAreTotal) {
  test::RandomPagConfig cfg;
  cfg.seed = 9;
  const auto pag = test::random_layered_pag(cfg);
  const auto vars = test::all_variables(pag);
  const auto objects = test::all_objects(pag);
  ASSERT_GE(vars.size(), 2u);
  ASSERT_FALSE(objects.empty());

  service::ServiceOptions options;
  options.session.engine.threads = 2;
  options.session.prefilter = false;
  service::QueryService svc(pag, options);

  auto flow = [&](service::Verb verb, NodeId a, NodeId b) {
    service::Request q;
    q.verb = verb;
    q.a = a;
    q.b = b;
    return svc.call(std::move(q));
  };

  for (const service::Verb verb :
       {service::Verb::kTaint, service::Verb::kDepends}) {
    EXPECT_EQ(flow(verb, objects[0], vars[0]).status,
              service::Reply::Status::kError);
    EXPECT_EQ(flow(verb, vars[0], objects[0]).status,
              service::Reply::Status::kError);
    EXPECT_EQ(flow(verb, NodeId(pag.node_count() + 7), vars[0]).status,
              service::Reply::Status::kError);
    EXPECT_EQ(flow(verb, vars[0], vars[1]).status,
              service::Reply::Status::kOk);
  }
}

// A u64-max slowlog count is a request for "everything", not an allocation
// hint: the service must answer from what it retains, instantly.
TEST(ServiceFuzz, HugeSlowlogCountDoesNotAllocate) {
  test::RandomPagConfig cfg;
  cfg.seed = 5;
  const auto pag = test::random_layered_pag(cfg);
  service::ServiceOptions options;
  options.session.engine.threads = 2;
  options.slow_query_ms = 1e-6;
  options.slow_log_capacity = 4;
  service::QueryService svc(pag, options);
  const auto vars = test::all_variables(pag);
  for (std::size_t i = 0; i < vars.size() && i < 8; ++i) {
    service::Request q;
    q.verb = service::Verb::kQuery;
    q.a = vars[i];
    ASSERT_EQ(svc.call(q).status, service::Reply::Status::kOk);
  }
  std::istringstream in("slowlog 18446744073709551615\nmetrics\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(service::serve_stream(svc, in, out), 3u);
  EXPECT_EQ(out.str().rfind("ok slowlog ", 0), 0u) << out.str();
}

/// Consume one reply frame starting at `lines[i]`: a single line, except for
/// `ok metrics <n>` / `ok slowlog <n>` headers which announce n payload
/// lines. Returns the index past the frame, or npos on a malformed frame.
std::size_t consume_reply_frame(const std::vector<std::string>& lines,
                                std::size_t i) {
  const std::string& head = lines[i];
  const bool ok = head.rfind("ok", 0) == 0 || head.rfind("shed", 0) == 0;
  const bool err = head.rfind("err ", 0) == 0 && head.size() > 4;
  if (!ok && !err) return std::string::npos;
  std::size_t payload = 0;
  for (const char* prefix : {"ok metrics ", "ok slowlog "}) {
    if (head.rfind(prefix, 0) == 0) {
      char* end = nullptr;
      payload = std::strtoull(head.c_str() + std::strlen(prefix), &end, 10);
      if (*end != '\0') return std::string::npos;
    }
  }
  if (i + 1 + payload > lines.size()) return std::string::npos;  // truncated
  return i + 1 + payload;
}

TEST_P(ServiceFuzzTest, GarbageStreamsGetErrorRepliesNeverCrashes) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam();
  const auto pag = test::random_layered_pag(cfg);
  const std::uint32_t nodes = pag.node_count();

  // Every query lands in the slow log, so `slowlog <n>` answers counted
  // multi-line frames with payload, and the garbage in between must not
  // corrupt them.
  service::ServiceOptions options;
  options.session.engine.mode = cfl::Mode::kDataSharing;
  options.session.engine.threads = 2;
  options.max_linger = std::chrono::microseconds(50);
  options.slow_query_ms = 1e-6;
  options.slow_log_capacity = 8;
  service::QueryService svc(pag, options);

  support::Rng rng(GetParam() * 6700417 + 3);
  std::ostringstream request_text;
  int expected = 0;
  for (int i = 0; i < 60; ++i) {
    ++expected;
    switch (rng.below(10)) {
      case 0:  // bad node id (out of range, or not a number)
        request_text << "query " << (nodes + rng.below(1000)) << "\n";
        break;
      case 1:  // garbage verb
        request_text << "frobnicate " << rng.below(100) << "\n";
        break;
      case 2: {  // binary noise
        std::string noise;
        for (std::size_t k = 0; k < 1 + rng.below(40); ++k)
          noise += static_cast<char>(1 + rng.below(254));
        for (char& c : noise)
          if (c == '\n') c = ' ';
        request_text << noise << "\n";
        break;
      }
      case 3:  // oversized line (rejected before tokenisation)
        request_text << std::string(service::kMaxRequestLine + 1, 'a') << "\n";
        break;
      case 4:  // valid query, to keep the session actually analysing
        request_text << "query " << rng.below(nodes) << "\n";
        break;
      case 5:  // valid-looking but truncated option pair
        request_text << "query " << rng.below(nodes) << " budget\n";
        break;
      case 6:  // metrics scrape mid-abuse (counted multi-line reply)
        request_text << "metrics\n";
        break;
      case 7:  // slowlog, sometimes with a hostile count
        request_text << "slowlog " << (rng.below(2) == 0 ? rng.below(10)
                                                         : rng.next_u64())
                     << "\n";
        break;
      case 8:  // counted frames: a metrics scrape or a bounded slowlog
        if (rng.below(2) == 0)
          request_text << "metrics\n";
        else
          request_text << "slowlog " << 1 + rng.below(8) << "\n";
        break;
      case 9:  // flow verbs on arbitrary nodes: answered or refused
        request_text << (rng.below(2) == 0 ? "taint " : "depends ")
                     << rng.below(nodes + 5) << " " << rng.below(nodes + 5)
                     << "\n";
        break;
    }
  }
  std::istringstream in(request_text.str());
  std::ostringstream out;
  const std::uint64_t handled = service::serve_stream(svc, in, out);
  EXPECT_EQ(handled, static_cast<std::uint64_t>(expected));

  // One reply *frame* per request: a single ok/shed/err line, except the
  // counted multi-line metrics/slowlog frames, whose headers must announce
  // exactly the payload lines that follow (no truncated frames).
  std::vector<std::string> lines;
  {
    std::istringstream replies(out.str());
    for (std::string line; std::getline(replies, line);)
      lines.push_back(line);
  }
  std::uint64_t reply_count = 0;
  for (std::size_t i = 0; i < lines.size(); ++reply_count) {
    const std::size_t next = consume_reply_frame(lines, i);
    ASSERT_NE(next, std::string::npos)
        << "malformed frame at line " << i << ": " << lines[i];
    i = next;
  }
  EXPECT_EQ(reply_count, handled);

  // The session stayed sane: a normal query still answers after the abuse.
  const auto vars = test::all_variables(pag);
  ASSERT_FALSE(vars.empty());
  service::Request probe;
  probe.verb = service::Verb::kQuery;
  probe.a = vars[0];
  EXPECT_EQ(svc.call(probe).status, service::Reply::Status::kOk);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- sharing-state persistence ---------------------------------------------

cfl::SolverOptions state_fuzz_opts() {
  cfl::SolverOptions opts;
  opts.budget = 1u << 20;
  opts.data_sharing = true;
  opts.tau_finished = 2;
  opts.tau_unfinished = 10;
  return opts;
}

class StateFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

/// Warm a store on every variable of `pag`, save it as a v3 file under the
/// test temp dir, and return the image read back from disk.
std::string warmed_v3_image(const pag::Pag& pag, const std::string& name) {
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  cfl::Solver solver(pag, contexts, &store, state_fuzz_opts());
  for (const NodeId v : test::all_variables(pag)) (void)solver.points_to(v);
  const std::string path = testing::TempDir() + name + ".state";
  std::string error;
  EXPECT_TRUE(
      cfl::save_sharing_state_file_v3(path, pag, contexts, store, &error))
      << error;
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// One to four random edits: byte flips (any value — this is binary data),
/// truncations (a torn write), and span deletes and duplicates (which shear
/// every later section offset).
std::string mutate_image(std::string image, support::Rng& rng) {
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    if (image.empty()) break;
    const std::size_t pos = rng.below(image.size());
    switch (rng.below(4)) {
      case 0:
        image[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        image.resize(pos);
        break;
      case 2:
        image.erase(pos, 1 + rng.below(16));
        break;
      case 3:
        image.insert(pos, image.substr(pos, 1 + rng.below(16)));
        break;
    }
  }
  return image;
}

/// Whatever a loader accepted (possibly a well-formed corruption), the tables
/// must still be usable: the solver must run to completion and return only
/// ids that are objects of this PAG. Exact sets are not checked — a mutation
/// can produce a loadable image with different but well-formed entries.
void expect_usable(const pag::Pag& pag, const std::vector<NodeId>& vars,
                   cfl::ContextTable& contexts, cfl::JmpStore& store) {
  cfl::Solver solver(pag, contexts, &store, state_fuzz_opts());
  for (std::size_t i = 0; i < vars.size() && i < 4; ++i) {
    const auto result = solver.points_to(vars[i]);
    for (const NodeId n : result.nodes()) {
      ASSERT_LT(n.value(), pag.node_count());
      EXPECT_TRUE(pag.is_object(n));
    }
  }
}

// Mutated images go through the file-level loader — the open / fstat / mmap
// path that warm start and session reopen both use — in every load mode,
// including a 0-byte file. The same bytes must get the same verdict and the
// same entries whichever way they are read.
TEST_P(StateFuzzTest, MutatedStateFilesNeverCrashTheLoader) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam();
  cfg.heap_edge_pairs = 4;  // load/store matches are what mint jmp entries
  const auto pag = test::random_layered_pag(cfg);
  const auto vars = test::all_variables(pag);
  const std::string name = "fuzz_file_" + std::to_string(GetParam());
  const std::string image = warmed_v3_image(pag, name);
  ASSERT_GE(image.size(), 72u);
  const std::string path = testing::TempDir() + name + ".mutated";

  support::Rng rng(GetParam() * 48271 + 11);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string mutated =
        trial == 0 ? std::string() : mutate_image(image, rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }

    std::optional<bool> verdict;
    std::size_t entries = 0;
    for (const cfl::StateLoadMode mode :
         {cfl::StateLoadMode::kMmap, cfl::StateLoadMode::kStream,
          cfl::StateLoadMode::kAuto}) {
      cfl::ContextTable contexts;
      cfl::JmpStore store;
      std::string error;
      const bool ok = cfl::load_sharing_state_file_v3(path, pag, contexts,
                                                      store, mode, &error);
      if (!ok) {
        EXPECT_FALSE(error.empty());
      }
      if (!verdict) {
        verdict = ok;
        entries = store.entry_count();
      } else {
        EXPECT_EQ(ok, *verdict) << "trial " << trial << ": " << error;
        EXPECT_EQ(store.entry_count(), entries) << "trial " << trial;
      }
      expect_usable(pag, vars, contexts, store);
    }
    if (trial == 0) {
      EXPECT_FALSE(*verdict);  // a 0-byte file is never a state image
    }
  }
  std::remove(path.c_str());
}

// The binary v3 loader takes the same hammering: bit flips, truncations,
// and splices across the header, section arrays, and the trailing target
// block. Counts and offsets are attacker-controlled u64s, so every accept
// must still yield tables the solver can run on.
TEST_P(StateFuzzTest, MutatedV3StateImagesNeverCrashTheLoader) {
  test::RandomPagConfig cfg;
  cfg.seed = GetParam();
  cfg.heap_edge_pairs = 4;
  const auto pag = test::random_layered_pag(cfg);
  const auto vars = test::all_variables(pag);

  const std::string image =
      warmed_v3_image(pag, "fuzz_v3_" + std::to_string(GetParam()));
  ASSERT_GT(image.size(), 64u);

  support::Rng rng(GetParam() * 69621 + 17);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string mutated = mutate_image(image, rng);

    cfl::ContextTable contexts;
    cfl::JmpStore store;
    std::string error;
    const bool ok = cfl::load_sharing_state_v3(mutated.data(), mutated.size(),
                                               pag, contexts, store, &error);
    if (!ok) {
      EXPECT_FALSE(error.empty());
    }
    expect_usable(pag, vars, contexts, store);
  }
}

TEST(StateFuzz, HostileFinishedCountIsRejectedWithoutAllocating) {
  test::RandomPagConfig cfg;
  cfg.seed = 3;
  cfg.heap_edge_pairs = 4;
  const auto pag = test::random_layered_pag(cfg);
  const std::string image = warmed_v3_image(pag, "hostile_counts");
  ASSERT_GE(image.size(), 72u);

  // A well-formed image whose header claims four billion finished entries
  // (or targets). The loader must reject it from the file size alone — an
  // allocation sized by the claimed count would be an instant multi-GB
  // request. The total-size field is left true, so it is the per-count bound
  // that has to catch it.
  constexpr std::size_t kFinCountAt = 32;
  constexpr std::size_t kTargetCountAt = 48;
  for (const std::size_t at : {kFinCountAt, kTargetCountAt}) {
    std::string hostile = image;
    const std::uint64_t huge = 4'000'000'000ull;
    std::memcpy(hostile.data() + at, &huge, sizeof huge);

    cfl::ContextTable contexts;
    cfl::JmpStore store;
    std::string error;
    EXPECT_FALSE(cfl::load_sharing_state_v3(hostile.data(), hostile.size(),
                                            pag, contexts, store, &error))
        << "count at offset " << at;
    EXPECT_NE(error.find("exceed"), std::string::npos) << error;
    EXPECT_EQ(store.entry_count(), 0u);
  }
}

TEST_P(StateFuzzTest, BudgetCappedQueriesPublishOnlySoundJmps) {
  // Differential check for admission-control soundness: a store warmed
  // exclusively by budget-capped queries (which publish unfinished jmps
  // clamped to the *effective* budget) must not mislead a later full-budget
  // solver into wrong or incomplete answers.
  test::RandomPagConfig cfg;
  cfg.seed = GetParam() * 7 + 1;
  cfg.heap_edge_pairs = 4;
  const auto pag = test::random_layered_pag(cfg);
  const auto vars = test::all_variables(pag);

  const cfl::SolverOptions opts = state_fuzz_opts();
  cfl::ContextTable contexts;
  cfl::JmpStore store;
  {
    cfl::Solver capped(pag, contexts, &store, opts);
    capped.set_query_budget(8);  // nearly everything runs out of budget
    for (const NodeId v : vars) (void)capped.points_to(v);
  }

  cfl::Solver warm(pag, contexts, &store, opts);
  cfl::SolverOptions plain_opts = state_fuzz_opts();
  plain_opts.data_sharing = false;
  cfl::ContextTable plain_contexts;
  cfl::Solver plain(pag, plain_contexts, nullptr, plain_opts);
  for (const NodeId v : vars) {
    const auto got = warm.points_to(v);
    const auto want = plain.points_to(v);
    EXPECT_EQ(got.status, want.status) << "var " << v.value();
    EXPECT_EQ(got.nodes(), want.nodes()) << "var " << v.value();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace parcfl::pag
