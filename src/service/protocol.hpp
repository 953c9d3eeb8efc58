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
//   open <name> <path>                              register tenant <name>
//   close <name>                                    save + drop tenant <name>
//   ping                                            liveness probe
//   quit                                            close this connection
//
// Worker verbs (DESIGN.md §14; a parcfl_serve started with --worker serves
// one partition's sub-PAG and answers continuation tasks from the router):
//
//   part [id]                                       partition identity probe
//   cont b|f <node> <chain> [budget <steps>]        run one continuation task
//   cfact b|f <node> <chain> <k> <node>:<chain>*k   seed facts for a config
//   creset                                          drop this connection's facts
//
// `<chain>` is a context chain: `-` for the empty context, else call-site
// ids joined by '.' bottom-first (`3.17` = site 3 below site 17), at most
// kMaxChainSites sites. `cfact` attaches k (≤ kMaxContTuples) known result
// tuples to the configuration (direction, node, chain); facts accumulate
// per connection, union-idempotent, until `creset`. `cont` runs the solver
// from its configuration with the accumulated facts seeded.
//
// `taint` and `depends` run the solver's value-flow walks (DESIGN.md §15):
// `taint a b` asks whether a value may flow from variable <src> to variable
// <sink> (Solver::taint, a forward walk); `depends x y` asks whether <x>'s
// value may depend on <y> (Solver::depends, a backward walk). Both arguments must be variable
// nodes, and partitioned workers reject the verbs (the continuation plane is
// pointer-only).
//
// Multi-tenant addressing: any data-plane verb (query/alias/taint/depends/
// save/load/update/index) may be prefixed with `@<tenant>`, e.g. `@acme query v17`. Bare verbs hit
// the default tenant — the graph the server was started with — so every
// pre-manager client keeps working unchanged. Tenant names are confined to
// [A-Za-z0-9_.-], at most kMaxTenantName bytes, and never "." or ".." (the
// name doubles as a spill-file stem, so it must not traverse paths). Node
// ids in tenant-prefixed requests are range-checked at dispatch against the
// target tenant's graph (which may be evicted at parse time), not here.
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
//   ok opened <name> | ok closed <name>              open/close
//   ok {...}                                         stats (one-line JSON)
//   ok index {...}                                   index (one-line JSON)
//   ok metrics <n>                                   + n payload lines
//   ok slowlog <n>                                   + n JSONL payload lines
//   ok part <local> <parts> <nodes> <rev>            partition identity
//   ok cont <status> <charged> <n>                   + n payload lines
//   ok cfact <total> | ok creset                     fact plumbing
//   shed overload|deadline                           admission control
//   err <message>                                    malformed or failed
//
// `metrics`, `slowlog` and `cont` are the protocol's only multi-line
// replies: the header line carries the exact number of payload lines that
// follow, so a line-oriented client consumes the frame without lookahead and
// the one-request → one-frame invariant survives. A `cont` payload line is
// either a result tuple `t <node> <chain>` or an escape record
// `e u|r b|f <srcnode> <srcchain> <dstnode> <dstchain>` (union edge or
// foreign-root request; see cfl::EscapeRecord). This file owns every frame
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
  kOpen,
  kClose,
  kPing,
  kQuit,
  kPart,    // worker: partition identity probe
  kCont,    // worker: run one continuation task
  kCFact,   // worker: seed facts for a configuration
  kCReset,  // worker: drop this connection's accumulated facts
};

/// One (node, context-chain) tuple on the wire. Chains — not CtxIds — cross
/// process boundaries: context tables are per-process interning pools, so a
/// raw id means nothing to the peer. Sites are listed bottom-first.
struct WireTuple {
  pag::NodeId node = pag::NodeId::invalid();
  std::vector<std::uint32_t> chain;
};

struct Request {
  Verb verb = Verb::kPing;
  pag::NodeId a = pag::NodeId::invalid();
  pag::NodeId b = pag::NodeId::invalid();
  std::uint64_t budget = 0;       // 0 = server default
  std::uint64_t deadline_ms = 0;  // 0 = no deadline
  std::uint64_t count = 0;        // slowlog: max records (0 = all retained)
  std::string path;               // save/load/update/open target
  std::string tenant;             // "" = default tenant; open/close: the name
  std::uint8_t dir = 0;           // cont/cfact: 0 = backward, 1 = forward
  std::vector<std::uint32_t> chain;  // cont/cfact: root config context chain
  std::vector<WireTuple> tuples;     // cfact: seed tuples
  bool part_given = false;        // part: an expected id was supplied
  std::uint32_t part = 0;         // part: the expected partition id
};

/// Longest request line the parser accepts; longer lines are rejected before
/// tokenisation (wire robustness: a garbage megabyte costs O(1)).
inline constexpr std::size_t kMaxRequestLine = 4096;

/// Longest tenant name accepted by the wire and the manager.
inline constexpr std::size_t kMaxTenantName = 64;

/// Deepest context chain a cont/cfact request may carry — matches the
/// default cfl::ContextTable max_depth, so every accepted chain is
/// internable by the worker.
inline constexpr std::size_t kMaxChainSites = 256;

/// Most seed tuples one cfact line may carry; a configuration with more
/// facts is seeded over several cfact lines (facts accumulate per
/// connection), keeping every request under kMaxRequestLine.
inline constexpr std::size_t kMaxContTuples = 512;

/// Most payload lines a counted reply frame may announce.
inline constexpr std::uint64_t kMaxFrameLines = std::uint64_t{1} << 22;

/// Split a line on runs of spaces and tabs.
std::vector<std::string_view> tokenize(std::string_view line);

/// Parse a decimal u64 token: digits only, no sign, no overflow.
bool parse_u64(std::string_view token, std::uint64_t& out);

/// True iff `name` is a legal tenant name: non-empty, ≤ kMaxTenantName bytes
/// of [A-Za-z0-9_.-], and not "." or ".." (names become spill-file stems).
bool valid_tenant_name(std::string_view name);

/// Render a context chain as its wire token: `-` for empty, else call-site
/// ids joined by '.' bottom-first.
std::string format_chain(std::span<const std::uint32_t> chain);

/// Parse a chain token (total: any input yields a chain or an error).
/// Accepts `-` or `a.b.c` with at most kMaxChainSites sites; call-site
/// range-checking against the graph happens at dispatch.
bool parse_chain(std::string_view token, std::vector<std::uint32_t>& out,
                 std::string& error);

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
/// render as a single line; kMetrics/kSlowLog/kCont render the counted
/// header line followed by the payload lines from `text`. kCFact reports
/// the connection's accumulated fact total in `charged_steps`; kPart
/// carries its identity line in `text`.
std::string format_reply(const Reply& reply);

const char* to_string(cfl::QueryStatus status);  // complete|partial|early
const char* to_string(cfl::Solver::AliasAnswer answer);

/// The payload line count a reply header announces: n for
/// `ok metrics|slowlog <n>` and `ok cont <status> <charged> <n>`, else 0
/// (also for a malformed count or one above kMaxFrameLines).
std::uint64_t frame_payload_lines(std::string_view header);

/// Parse an `ok cont <status> <charged> <n>` header (n ≤ kMaxFrameLines;
/// the frame's reader consumed the n payload lines).
bool parse_cont_header(std::string_view header, cfl::QueryStatus& status,
                       std::uint64_t& charged);

/// One payload line of an `ok cont` frame: a result tuple, or an escape the
/// router must chase — a foreign-rooted sub-query (kRequest: its results
/// are consumed structurally by the escaping task, never unioned) or a
/// suppressed push (kUnion: dst's result set belongs inside src's).
struct ContRecord {
  enum class Kind : std::uint8_t { kTuple, kUnion, kRequest };
  Kind kind = Kind::kTuple;
  std::uint8_t dir = 0;  // escapes: 0 = backward, 1 = forward
  WireTuple src;         // the tuple, or the escape's source configuration
  WireTuple dst;         // escapes: the destination configuration
};

/// Render the `cont` payload: one line per record, newline-separated, no
/// trailing newline (the Reply::text of a kCont reply).
std::string format_cont_payload(std::span<const ContRecord> records);

/// Parse one `cont` payload line; node ids are bounds-checked against
/// `node_count`. Total, like parse_request.
bool parse_cont_record(std::string_view line, std::uint32_t node_count,
                       ContRecord& out);

/// The `alias` verdict from two points-to answers (object lists sorted): a
/// shared object proves may; a definitive no needs both sets complete.
cfl::Solver::AliasAnswer alias_answer(std::span<const pag::NodeId> a,
                                      cfl::QueryStatus a_status,
                                      std::span<const pag::NodeId> b,
                                      cfl::QueryStatus b_status);

}  // namespace parcfl::service
