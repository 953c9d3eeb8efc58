#pragma once
// Line-oriented wire protocol for the parcfl query service. One request per
// line, one reply line per request; both sides are plain ASCII so the server
// can be driven by netcat, a load generator, or a build-system integration.
//
// Request grammar (tokens separated by spaces; node ids accept an optional
// leading 'v', so `query v17` and `query 17` are the same request):
//
//   query <node> [budget <steps>] [deadline <ms>]   points-to set of <node>
//   alias <a> <b> [budget <steps>] [deadline <ms>]  may-alias of two nodes
//   taint <src> <sink> [budget ..] [deadline ..]    may <src> flow to <sink>
//   depends <x> <y> [budget ..] [deadline ..]       may <x> depend on <y>
//   stats                                           ServiceStats JSON
//   metrics                                         Prometheus text exposition
//   slowlog [n]                                     last n slow-query records
//   save <path>                                     crash-safe state snapshot
//   load <path>                                     live warm-state merge
//   update <path>                                   apply a PAG delta file
//   index                                           index-compaction JSON
//   ping                                            liveness probe
//   quit                                            close this connection
//
// `taint` and `depends` run the solver's value-flow walks (DESIGN.md §15):
// `taint a b` asks whether a value may flow from variable <src> to variable
// <sink> (Solver::taint, a forward walk); `depends x y` asks whether <x>'s
// value may depend on <y> (Solver::depends, a backward walk). Both
// arguments must be variable nodes.
//
// A server serves one graph, the one it was started with: every request
// addresses it, and node ids are range-checked here against its node count.
// Run one server per graph to serve several.
//
// `budget` caps the query's charged steps at min(budget, server budget);
// `deadline` sheds the request if it is still queued that many milliseconds
// after submission. Both are admission-control knobs, 0/absent = default.
//
// Replies:
//
//   ok complete|partial|early <charged> <n> <id>*n   query
//   ok no|may|unknown <charged>                      alias
//   ok tainted|clean|unknown <charged>               taint
//   ok depends|independent|unknown <charged>         depends
//   ok pong | ok saved <path> | ok loaded <path>     ping/save/load
//   ok updated <summary>                             update
//   ok {...}                                         stats (one-line JSON)
//   ok index {...}                                   index (one-line JSON)
//   ok metrics <n>                                   + n payload lines
//   ok slowlog <n>                                   + n JSONL payload lines
//   shed overload|deadline                           admission control
//   err <message>                                    malformed or failed
//
// `metrics` and `slowlog` are the protocol's only multi-line replies: the
// header line carries the exact number of payload lines that follow, so a
// line-oriented client consumes the frame without lookahead and the
// one-request → one-frame invariant survives. This file owns every frame
// format; service/line_io.hpp only moves the lines.
//
// `update` rides the request queue like a query: it is dispatched by the
// collector thread as a batch of its own, strictly between query batches, so
// no in-flight batch ever observes a half-applied delta (see
// service::Session::update).
//
// Parsing is total: any input line yields either a valid Request or an error
// message, never undefined behaviour (tests/io_fuzz_test.cpp throws mutated
// and truncated requests at it).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cfl/solver.hpp"
#include "pag/pag.hpp"

namespace parcfl::service {

enum class Verb : std::uint8_t {
  kQuery,
  kAlias,
  kTaint,    // may <a> flow to <b>? (forward value flow)
  kDepends,  // may <a> depend on <b>? (backward slice)
  kStats,
  kMetrics,
  kSlowLog,
  kSave,
  kLoad,
  kUpdate,
  kIndex,
  kPing,
  kQuit,
};

struct Request {
  Verb verb = Verb::kPing;
  pag::NodeId a = pag::NodeId::invalid();
  pag::NodeId b = pag::NodeId::invalid();
  std::uint64_t budget = 0;       // 0 = server default
  std::uint64_t deadline_ms = 0;  // 0 = no deadline
  std::uint64_t count = 0;        // slowlog: max records (0 = all retained)
  std::string path;               // save/load/update target
};

/// Longest request line the parser accepts; longer lines are rejected before
/// tokenisation (wire robustness: a garbage megabyte costs O(1)).
inline constexpr std::size_t kMaxRequestLine = 4096;

/// Most payload lines a counted reply frame may announce.
inline constexpr std::uint64_t kMaxFrameLines = std::uint64_t{1} << 22;

/// Split a line on runs of spaces and tabs.
std::vector<std::string_view> tokenize(std::string_view line);

/// Parse a decimal u64 token: digits only, no sign, no overflow.
bool parse_u64(std::string_view token, std::uint64_t& out);

/// Parse one request line. Node ids are bounds-checked against `node_count`.
/// Returns false and fills `error` (never crashes) on malformed input.
bool parse_request(std::string_view line, std::uint32_t node_count,
                   Request& out, std::string& error);

struct Reply {
  enum class Status : std::uint8_t {
    kOk,
    kError,
    kShedOverload,  // queue-depth backpressure rejected the request
    kShedDeadline,  // request expired before a batch picked it up
  };
  Status status = Status::kOk;
  Verb verb = Verb::kPing;
  cfl::QueryStatus query_status = cfl::QueryStatus::kComplete;
  std::vector<pag::NodeId> objects;  // query: sorted points-to set
  /// Ternary verdict for the two-node verbs: alias renders no|may|unknown,
  /// taint renders clean|tainted|unknown, depends independent|depends|unknown.
  cfl::Solver::AliasAnswer alias = cfl::Solver::AliasAnswer::kUnknown;
  std::uint64_t charged_steps = 0;
  std::string text;  // stats JSON, metrics/slowlog payload, path, or error
};

/// An `err <text>` reply.
Reply error_reply(std::string text);

/// Render a reply as one protocol frame (no trailing newline). Most verbs
/// render as a single line; kMetrics/kSlowLog render the counted header
/// line followed by the payload lines from `text`.
std::string format_reply(const Reply& reply);

const char* to_string(cfl::QueryStatus status);  // complete|partial|early
const char* to_string(cfl::Solver::AliasAnswer answer);

/// The payload line count a reply header announces: n for
/// `ok metrics|slowlog <n>`, else 0 (also for a malformed count or one
/// above kMaxFrameLines).
std::uint64_t frame_payload_lines(std::string_view header);

/// The `alias` verdict from two points-to answers (object lists sorted): a
/// shared object proves may; a definitive no needs both sets complete.
cfl::Solver::AliasAnswer alias_answer(std::span<const pag::NodeId> a,
                                      cfl::QueryStatus a_status,
                                      std::span<const pag::NodeId> b,
                                      cfl::QueryStatus b_status);

}  // namespace parcfl::service
