#include "service/router.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "service/line_io.hpp"

namespace parcfl::service {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_string(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, finalised by splitmix
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return splitmix64(h);
}

/// Router-side name of a configuration. Deliberately identical to the wire
/// infix `b|f <node> <chain>`, so a key concatenates straight into cont and
/// cfact request lines.
std::string cfg_key(std::uint8_t dir, std::uint32_t node,
                    const std::vector<std::uint32_t>& chain) {
  std::string key(dir == 0 ? "b " : "f ");
  key += std::to_string(node);
  key += ' ';
  key += format_chain(chain);
  return key;
}

constexpr std::uint32_t kNoWorker = 0xffffffffu;

/// One pooled connection to a worker. `sent` tracks the facts already seeded
/// on the worker side of this connection (per configuration), so re-seeding
/// before each task sends only the delta.
struct Conn {
  LineConn line;
  std::unordered_map<std::string, std::unordered_set<std::string>> sent;
};

}  // namespace

struct RouterCore::Impl {
  explicit Impl(RouterOptions opts) : options(std::move(opts)) {}

  RouterOptions options;
  bool ready = false;

  struct Worker {
    std::string address;
    std::uint32_t partition = 0;
    std::mutex mu;  // guards pool
    std::vector<std::unique_ptr<Conn>> pool;
    std::atomic<std::uint64_t> continuations{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<bool> healthy{true};
  };
  std::vector<std::unique_ptr<Worker>> workers;
  /// Consistent-hash ring: (vnode hash, worker index), sorted by hash. A
  /// configuration walks the ring from its own hash until it meets a vnode
  /// of a worker serving its partition, so replicas of one partition split
  /// its keyspace and worker sets resize with minimal movement.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring;

  std::atomic<std::uint32_t> inflight{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> alias_queries{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> unavailable{0};
  std::atomic<std::uint64_t> cont_frames{0};
  std::atomic<std::uint64_t> cross_frames{0};
  std::atomic<std::uint64_t> rounds_run{0};
  std::atomic<std::uint64_t> fact_tuples{0};

  bool init(std::string* error) {
    const auto fail = [&](std::string msg) {
      if (error != nullptr) *error = std::move(msg);
      return false;
    };
    if (options.map == nullptr) return fail("router needs a partition map");
    if (options.workers.empty()) return fail("router needs workers");
    const std::uint32_t parts = options.map->parts;
    std::vector<char> served(parts, 0);
    for (const std::string& address : options.workers) {
      auto worker = std::make_unique<Worker>();
      worker->address = address;
      auto conn = std::make_unique<Conn>();
      std::string line;
      if (!conn->line.connect(address, options.deadline_ms) ||
          !conn->line.roundtrip("part\n", line, kMaxReplyLine))
        return fail("worker " + address + " unreachable");
      const auto tokens = tokenize(line);
      std::uint64_t local = 0, wparts = 0, nodes = 0;
      if (tokens.size() < 6 || tokens[0] != "ok" || tokens[1] != "part" ||
          !parse_u64(tokens[2], local) || !parse_u64(tokens[3], wparts) ||
          !parse_u64(tokens[4], nodes))
        return fail("worker " + address + " is not a partition worker: " + line);
      if (wparts != parts || local >= parts ||
          nodes != options.map->owner.size())
        return fail("worker " + address + " serves a different partitioning");
      worker->partition = static_cast<std::uint32_t>(local);
      served[worker->partition] = 1;
      worker->pool.push_back(std::move(conn));
      workers.push_back(std::move(worker));
    }
    for (std::uint32_t p = 0; p < parts; ++p)
      if (!served[p])
        return fail("no worker serves partition " + std::to_string(p));
    const std::uint32_t vnodes = std::max<std::uint32_t>(1, options.vnodes);
    ring.reserve(static_cast<std::size_t>(workers.size()) * vnodes);
    for (std::uint32_t wi = 0; wi < workers.size(); ++wi) {
      const std::uint64_t base = hash_string(workers[wi]->address);
      for (std::uint32_t v = 0; v < vnodes; ++v)
        ring.emplace_back(splitmix64(base ^ (0x51ed2701ull * (v + 1))), wi);
    }
    std::sort(ring.begin(), ring.end());
    ready = true;
    return true;
  }

  /// The worker a configuration routes to: hash (partition, node) onto the
  /// ring, take the first vnode (clockwise) whose worker serves `partition`.
  std::uint32_t route(std::uint32_t partition, std::uint32_t node) const {
    if (ring.empty()) return kNoWorker;
    const std::uint64_t h =
        splitmix64((static_cast<std::uint64_t>(partition) << 32) | node);
    const auto begin = std::lower_bound(
        ring.begin(), ring.end(),
        std::make_pair(h, std::uint32_t{0}));
    const std::size_t start =
        static_cast<std::size_t>(begin - ring.begin()) % ring.size();
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const std::uint32_t wi = ring[(start + i) % ring.size()].second;
      if (workers[wi]->partition == partition) return wi;
    }
    return kNoWorker;
  }

  /// Checkout a connection with clean worker-side fact state. Stale pooled
  /// connections (worker restarted, idle timeout) are discarded until a
  /// live one answers `creset`; a *fresh* connection failing is fatal.
  std::unique_ptr<Conn> checkout_fresh(Worker& worker) {
    for (;;) {
      std::unique_ptr<Conn> conn;
      bool pooled = false;
      {
        std::lock_guard lock(worker.mu);
        if (!worker.pool.empty()) {
          conn = std::move(worker.pool.back());
          worker.pool.pop_back();
          pooled = true;
        }
      }
      if (conn == nullptr) {
        conn = std::make_unique<Conn>();
        if (!conn->line.connect(worker.address, options.deadline_ms))
          return nullptr;
      }
      std::string line;
      if (conn->line.roundtrip("creset\n", line, kMaxReplyLine) &&
          line == "ok creset") {
        conn->sent.clear();
        worker.healthy.store(true, std::memory_order_relaxed);
        return conn;
      }
      if (!pooled) return nullptr;
    }
  }

  void checkin(Worker& worker, std::unique_ptr<Conn> conn) {
    std::lock_guard lock(worker.mu);
    worker.pool.push_back(std::move(conn));
  }

  struct Answer {
    bool ok = false;
    std::string error;
    cfl::QueryStatus status = cfl::QueryStatus::kComplete;
    std::vector<pag::NodeId> objects;
    std::uint64_t charged = 0;
  };

  /// One attempt at the distributed fixpoint (see router.hpp header).
  bool run_once(std::uint8_t dir, std::uint32_t root, std::uint64_t budget,
                Answer& out) {
    const std::vector<std::uint32_t>& owner = options.map->owner;
    /// Every configuration seen, by key, with the node its task routes by.
    std::unordered_map<std::string, std::uint32_t> cfgs;
    /// Facts per configuration; tuples are stored in wire-token form
    /// (`node:chain`) so they concatenate straight into cfact lines.
    std::unordered_map<std::string, std::set<std::string>> facts;
    std::unordered_map<std::string, std::set<std::string>> unions;
    std::set<std::string> tasks;
    /// Tasks whose inputs may have changed since their last run. A task's
    /// own reply can never grow its own next answer (the continuation solve
    /// is deterministic and its output facts are a subset of any re-run), so
    /// growth re-schedules every task *except* the producer — a fully local
    /// query therefore converges in one frame instead of paying a no-op
    /// proving round.
    std::set<std::string> pending;
    std::map<std::string, cfl::QueryStatus> last_status;
    std::unordered_map<std::uint32_t, std::unique_ptr<Conn>> conns;

    const std::string root_key = cfg_key(dir, root, {});
    cfgs.emplace(root_key, root);
    tasks.insert(root_key);
    pending.insert(root_key);

    const auto closed_facts = [&](const std::string& key) {
      std::set<std::string> closed;
      std::set<std::string> seen{key};
      std::vector<std::string> stack{key};
      while (!stack.empty()) {
        const std::string k = std::move(stack.back());
        stack.pop_back();
        const auto fit = facts.find(k);
        if (fit != facts.end())
          closed.insert(fit->second.begin(), fit->second.end());
        const auto uit = unions.find(k);
        if (uit != unions.end())
          for (const std::string& succ : uit->second)
            if (seen.insert(succ).second) stack.push_back(succ);
      }
      return closed;
    };

    const auto register_cfg = [&](std::uint8_t d, const WireTuple& t) {
      std::string key = cfg_key(d, t.node.value(), t.chain);
      cfgs.emplace(key, t.node.value());
      return key;
    };

    const auto fail = [&](std::string msg) {
      out.ok = false;
      out.error = std::move(msg);
      return false;
    };

    std::uint64_t total_charged = 0;
    for (std::uint32_t round = 0; round < options.max_rounds && !pending.empty();
         ++round) {
      rounds_run.fetch_add(1, std::memory_order_relaxed);
      const std::vector<std::string> round_tasks(pending.begin(), pending.end());
      pending.clear();
      for (const std::string& task_key : round_tasks) {
        // Running now consumes every update so far; only growth from tasks
        // later in this round may re-schedule it.
        pending.erase(task_key);
        bool grew_here = false;
        const std::uint32_t node = cfgs.at(task_key);
        const std::uint32_t wi = route(owner[node], node);
        if (wi == kNoWorker) return fail("partition unavailable");
        Worker& worker = *workers[wi];
        std::unique_ptr<Conn>& conn = conns[wi];
        // A failed exchange drops the connection and fails the query.
        const auto lost = [&] {
          conn.reset();
          worker.failures.fetch_add(1, std::memory_order_relaxed);
          worker.healthy.store(false, std::memory_order_relaxed);
          return fail("partition unavailable");
        };
        if (conn == nullptr) conn = checkout_fresh(worker);
        if (conn == nullptr) return lost();

        // Seed this worker with the delta of every configuration's closed
        // facts it has not seen on this connection yet.
        for (const auto& [key, node_unused] : cfgs) {
          (void)node_unused;
          const std::set<std::string> closed = closed_facts(key);
          if (closed.empty()) continue;
          auto& sent = conn->sent[key];
          std::vector<const std::string*> fresh;
          for (const std::string& tuple : closed)
            if (sent.count(tuple) == 0) fresh.push_back(&tuple);
          std::size_t i = 0;
          while (i < fresh.size()) {
            std::string body;
            std::size_t n = 0;
            const std::size_t head = 7 + key.size() + 24;
            while (i + n < fresh.size() && n < kMaxContTuples &&
                   head + body.size() + fresh[i + n]->size() + 1 <
                       kMaxRequestLine) {
              body += ' ';
              body += *fresh[i + n];
              ++n;
            }
            if (n == 0) return fail("continuation fact exceeds line budget");
            std::string line = "cfact " + key + ' ' + std::to_string(n) +
                               body + '\n';
            std::string reply;
            if (!conn->line.roundtrip(line, reply, kMaxReplyLine) ||
                reply.rfind("ok cfact ", 0) != 0)
              return lost();
            for (std::size_t j = 0; j < n; ++j) sent.insert(*fresh[i + j]);
            i += n;
          }
        }

        // Run the task.
        std::string cont_line = "cont " + task_key;
        const std::uint64_t effective =
            budget != 0 ? budget : options.default_budget;
        if (effective != 0)
          cont_line += " budget " + std::to_string(effective);
        cont_line += '\n';
        std::string header;
        std::vector<std::string> payload;
        if (!conn->line.send_all(cont_line) ||
            !conn->line.read_frame(header, payload, kMaxReplyLine))
          return lost();
        if (header.rfind("err ", 0) == 0) return fail(header.substr(4));
        cfl::QueryStatus status = cfl::QueryStatus::kComplete;
        std::uint64_t charged = 0;
        if (!parse_cont_header(header, status, charged))
          return fail("bad worker reply: " + header);
        total_charged += charged;
        cont_frames.fetch_add(1, std::memory_order_relaxed);
        worker.continuations.fetch_add(1, std::memory_order_relaxed);
        if (!(round == 0 && task_key == root_key))
          cross_frames.fetch_add(1, std::memory_order_relaxed);

        for (const std::string& line : payload) {
          ContRecord record;
          if (!parse_cont_record(line, static_cast<std::uint32_t>(owner.size()),
                                 record))
            return fail("bad worker reply line: " + line);
          if (record.kind == ContRecord::Kind::kTuple) {
            std::string token = std::to_string(record.src.node.value());
            token += ':';
            token += format_chain(record.src.chain);
            if (facts[task_key].insert(std::move(token)).second) {
              grew_here = true;
              fact_tuples.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          const std::string src_key = register_cfg(record.dir, record.src);
          const std::string dst_key = register_cfg(record.dir, record.dst);
          if (record.kind == ContRecord::Kind::kUnion &&
              unions[src_key].insert(dst_key).second)
            grew_here = true;
          if (tasks.insert(dst_key).second) {
            grew_here = true;
            pending.insert(dst_key);
          }
        }
        last_status[task_key] = status;
        if (grew_here)
          for (const std::string& other : tasks)
            if (other != task_key) pending.insert(other);
      }
    }
    const bool converged = pending.empty();

    for (auto& [wi, conn] : conns)
      if (conn != nullptr) checkin(*workers[wi], std::move(conn));

    out.ok = true;
    out.charged = total_charged;
    out.status = cfl::QueryStatus::kComplete;
    for (const auto& [key, status] : last_status) {
      if (status == cfl::QueryStatus::kEarlyTermination) {
        out.status = status;
        break;
      }
      if (status == cfl::QueryStatus::kOutOfBudget) out.status = status;
    }
    if (!converged) out.status = cfl::QueryStatus::kOutOfBudget;

    out.objects.clear();
    for (const std::string& tuple : closed_facts(root_key)) {
      const std::size_t colon = tuple.find(':');
      std::uint64_t node = 0;
      if (colon == std::string::npos ||
          !parse_u64(std::string_view(tuple).substr(0, colon), node))
        continue;
      out.objects.push_back(pag::NodeId(static_cast<std::uint32_t>(node)));
    }
    std::sort(out.objects.begin(), out.objects.end());
    out.objects.erase(std::unique(out.objects.begin(), out.objects.end()),
                      out.objects.end());
    return true;
  }

  Answer run_distributed(std::uint8_t dir, std::uint32_t root,
                         std::uint64_t budget) {
    Answer answer;
    if (run_once(dir, root, budget, answer)) return answer;
    // One transparent retry: a worker that merely dropped its pooled
    // connections (restart, idle reap) answers the rerun; a dead one fails
    // fast at connect and the query errors within the deadline.
    if (answer.error == "partition unavailable" &&
        run_once(dir, root, budget, answer))
      return answer;
    if (answer.error == "partition unavailable")
      unavailable.fetch_add(1, std::memory_order_relaxed);
    return answer;
  }
};

RouterCore::RouterCore(RouterOptions options, std::string* error)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  impl_->init(error);
}

RouterCore::~RouterCore() = default;

bool RouterCore::ok() const { return impl_->ready; }

std::uint32_t RouterCore::node_count() const {
  return impl_->options.map == nullptr
             ? 0
             : static_cast<std::uint32_t>(impl_->options.map->owner.size());
}

Reply RouterCore::handle(const Request& request) {
  Reply r;
  r.verb = request.verb;
  switch (request.verb) {
    case Verb::kPing:
    case Verb::kQuit:
      return r;
    case Verb::kStats:
      r.text = stats_json();
      return r;
    case Verb::kQuery:
    case Verb::kAlias:
      break;
    default:
      return error_reply("unsupported by router");
  }
  // Mirror the single-node service's root validation so answers stay
  // frame-identical; maps without the variable section skip the check.
  const std::vector<std::uint8_t>& vars = impl_->options.map->variables;
  if (!vars.empty()) {
    if (!vars[request.a.value()] ||
        (request.verb == Verb::kAlias && !vars[request.b.value()]))
      return error_reply("not a variable node");
  }
  if (impl_->inflight.fetch_add(1, std::memory_order_acq_rel) >=
      impl_->options.max_inflight) {
    impl_->inflight.fetch_sub(1, std::memory_order_acq_rel);
    impl_->shed.fetch_add(1, std::memory_order_relaxed);
    r.status = Reply::Status::kShedOverload;
    return r;
  }
  if (request.verb == Verb::kQuery) {
    impl_->queries.fetch_add(1, std::memory_order_relaxed);
    Impl::Answer answer =
        impl_->run_distributed(0, request.a.value(), request.budget);
    impl_->inflight.fetch_sub(1, std::memory_order_acq_rel);
    if (!answer.ok) return error_reply(std::move(answer.error));
    r.query_status = answer.status;
    r.charged_steps = answer.charged;
    r.objects = std::move(answer.objects);
    return r;
  }
  impl_->alias_queries.fetch_add(1, std::memory_order_relaxed);
  Impl::Answer a = impl_->run_distributed(0, request.a.value(), request.budget);
  Impl::Answer b;
  if (a.ok) b = impl_->run_distributed(0, request.b.value(), request.budget);
  impl_->inflight.fetch_sub(1, std::memory_order_acq_rel);
  if (!a.ok) return error_reply(std::move(a.error));
  if (!b.ok) return error_reply(std::move(b.error));
  r.alias = alias_answer(a.objects, a.status, b.objects, b.status);
  r.charged_steps = a.charged + b.charged;
  r.query_status =
      a.status == cfl::QueryStatus::kComplete ? b.status : a.status;
  return r;
}

bool RouterCore::handle_line(const std::string& line, std::string& reply_line) {
  Request request;
  std::string error;
  const bool parsed = parse_request(line, node_count(), request, error);
  reply_line =
      format_reply(parsed ? handle(request) : error_reply(std::move(error))) +
      "\n";
  return !parsed || request.verb != Verb::kQuit;
}

TcpServer::HandlerFactory RouterCore::handler_factory() {
  return [this]() -> TcpServer::LineHandler {
    return [this](const std::string& line, std::string& reply_line) {
      return handle_line(line, reply_line);
    };
  };
}

std::string RouterCore::stats_json() const {
  const Impl& impl = *impl_;
  const std::uint64_t queries =
      impl.queries.load(std::memory_order_relaxed) +
      2 * impl.alias_queries.load(std::memory_order_relaxed);
  const std::uint64_t cross = impl.cross_frames.load(std::memory_order_relaxed);
  std::ostringstream os;
  os << "{\"router\":{\"workers\":" << impl.workers.size()
     << ",\"parts\":" << (impl.options.map ? impl.options.map->parts : 0)
     << ",\"queries\":" << impl.queries.load(std::memory_order_relaxed)
     << ",\"alias\":" << impl.alias_queries.load(std::memory_order_relaxed)
     << ",\"shed\":" << impl.shed.load(std::memory_order_relaxed)
     << ",\"unavailable\":" << impl.unavailable.load(std::memory_order_relaxed)
     << ",\"cont_frames\":" << impl.cont_frames.load(std::memory_order_relaxed)
     << ",\"cross_frames\":" << cross
     << ",\"cross_rate\":"
     << (queries == 0 ? 0.0
                      : static_cast<double>(cross) /
                            static_cast<double>(queries))
     << ",\"rounds\":" << impl.rounds_run.load(std::memory_order_relaxed)
     << ",\"fact_tuples\":" << impl.fact_tuples.load(std::memory_order_relaxed)
     << "},\"workers\":[";
  for (std::size_t i = 0; i < impl.workers.size(); ++i) {
    const Impl::Worker& w = *impl.workers[i];
    if (i != 0) os << ',';
    os << "{\"address\":\"" << w.address << "\",\"partition\":" << w.partition
       << ",\"healthy\":" << (w.healthy.load(std::memory_order_relaxed)
                                  ? "true"
                                  : "false")
       << ",\"continuations\":"
       << w.continuations.load(std::memory_order_relaxed)
       << ",\"failures\":" << w.failures.load(std::memory_order_relaxed)
       << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace parcfl::service
