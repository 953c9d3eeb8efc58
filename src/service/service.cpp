#include "service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace parcfl::service {

namespace {

using Clock = std::chrono::steady_clock;

Reply ready_reply(Reply::Status status, Verb verb, std::string text = {}) {
  Reply r;
  r.status = status;
  r.verb = verb;
  r.text = std::move(text);
  return r;
}

/// One-line JSON for the `index` wire verb (a session-scoped slice of the
/// `stats` csindex block — per-tenant, where `stats` is default-tenant only).
std::string index_json(const Session::IndexInfo& info) {
  std::ostringstream os;
  os << "{\"enabled\":" << (info.enabled ? "true" : "false")
     << ",\"entries\":" << info.entries << ",\"targets\":" << info.targets
     << ",\"hits\":" << info.hits << ",\"misses\":" << info.misses
     << ",\"builds\":" << info.builds
     << ",\"invalidated\":" << info.invalidated
     << ",\"pending\":" << info.pending
     << ",\"build_charged_steps\":" << info.build_charged_steps
     << ",\"memory_bytes\":" << info.memory_bytes
     << ",\"revision\":" << info.revision << "}";
  return os.str();
}

}  // namespace

QueryService::QueryService(pag::Pag pag, const ServiceOptions& options)
    : options_(options),
      gauges_{
          registry_.gauge("parcfl_jmp_entries", "Finished jmp store entries."),
          registry_.gauge("parcfl_jmp_store_bytes", "Jmp store footprint."),
          registry_.gauge("parcfl_contexts", "Context table entries."),
          registry_.gauge("parcfl_pag_revision",
                          "Delta epoch of the live graph."),
          registry_.gauge("parcfl_engine_charged_steps",
                          "Cumulative budget-visible solver steps."),
          registry_.gauge("parcfl_engine_traversed_steps",
                          "Cumulative solver steps actually walked."),
          registry_.gauge("parcfl_engine_saved_steps",
                          "Cumulative steps avoided via jmp shortcuts."),
          registry_.gauge("parcfl_engine_jmp_lookups",
                          "Cumulative jmp store probes."),
          registry_.gauge("parcfl_engine_jmps_taken",
                          "Cumulative finished shortcuts consumed."),
          registry_.gauge("parcfl_engine_queries",
                          "Cumulative solver queries (incl. alias halves)."),
          registry_.gauge("parcfl_engine_early_terminations",
                          "Cumulative unfinished-jmp early terminations."),
          registry_.gauge("parcfl_prefilter_hits_total",
                          "Queries and alias pairs answered by the Andersen "
                          "prefilter without solver work."),
          registry_.gauge("parcfl_prefilter_misses_total",
                          "Prefilter probes that fell through to the solver."),
          registry_.gauge("parcfl_prefilter_ready",
                          "1 when the prefilter covers the live revision."),
          registry_.gauge("parcfl_index_hits_total",
                          "Queries answered from the compact reachability "
                          "index at 0 charged steps."),
          registry_.gauge("parcfl_index_misses_total",
                          "Index consultations that fell through to the "
                          "prefilter/solver path."),
          registry_.gauge("parcfl_index_entries",
                          "Entries frozen in the published index."),
      },
      manager_gauges_{
          registry_.gauge("parcfl_sessions_open",
                          "Registered tenants, including the default."),
          registry_.gauge("parcfl_sessions_resident",
                          "Tenant sessions currently in memory."),
          registry_.gauge("parcfl_sessions_resident_bytes",
                          "Summed resident session footprint."),
          registry_.gauge("parcfl_session_loads",
                          "First-time tenant graph loads."),
          registry_.gauge("parcfl_session_reopens",
                          "Evict-then-warm-reopen cycles."),
          registry_.gauge("parcfl_session_evictions",
                          "LRU session evictions to disk."),
          registry_.gauge("parcfl_spill_stale_total",
                          "Fingerprint-mismatched spill files unlinked at "
                          "tenant load."),
          registry_.gauge("parcfl_tenant_label_overflow",
                          "Tenant label values collapsed onto the overflow "
                          "series."),
      },
      manager_(manager_options_with_sink()),
      default_session_(manager_.adopt("", std::move(pag))),
      recorder_(registry_) {
  collector_ = std::thread([this] { collector_main(); });
}

/// The fleet options as configured, with the slow-query sink wired into the
/// session template's engine when the threshold is armed. Called from the
/// ctor init list: the sink only fires from batches, which run after
/// construction completes.
SessionManager::Options QueryService::manager_options_with_sink() {
  SessionManager::Options m;
  m.session = options_.session;
  if (options_.slow_query_ms > 0.0) {
    m.session.engine.slow_query_ms = options_.slow_query_ms;
    m.session.engine.slow_query_sink =
        [this](const cfl::SlowQueryRecord& record) { note_slow_query(record); };
  }
  m.max_resident = options_.max_sessions;
  m.max_resident_bytes = options_.max_resident_bytes;
  m.spill_dir = options_.spill_dir;
  return m;
}

void QueryService::note_slow_query(const cfl::SlowQueryRecord& record) {
  recorder_.record_slow_query();
  std::lock_guard lock(slow_mu_);
  while (slow_log_.size() >= options_.slow_log_capacity &&
         !slow_log_.empty())
    slow_log_.pop_front();
  if (options_.slow_log_capacity > 0) slow_log_.push_back(record);
}

std::vector<cfl::SlowQueryRecord> QueryService::slow_log(
    std::size_t limit) const {
  std::lock_guard lock(slow_mu_);
  const std::size_t n = limit == 0 ? slow_log_.size()
                                   : std::min(limit, slow_log_.size());
  return {slow_log_.end() - static_cast<std::ptrdiff_t>(n), slow_log_.end()};
}

std::string QueryService::slow_log_jsonl(std::size_t limit) const {
  std::string out;
  char header[160];
  for (const cfl::SlowQueryRecord& r : slow_log(limit)) {
    std::size_t trace_lines = 0;
    if (!r.trace_jsonl.empty())
      trace_lines = 1 + static_cast<std::size_t>(std::count(
                            r.trace_jsonl.begin(), r.trace_jsonl.end(), '\n'));
    std::snprintf(header, sizeof header,
                  "{\"var\":%u,\"latency_ms\":%.3f,\"status\":\"%s\","
                  "\"charged\":%llu,\"trace_lines\":%zu}\n",
                  r.var.value(), r.latency_ms, to_string(r.status),
                  static_cast<unsigned long long>(r.charged_steps),
                  trace_lines);
    out += header;
    if (trace_lines != 0) {
      out += r.trace_jsonl;
      out += '\n';
    }
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string QueryService::metrics_text() {
  const Session& session = *default_session_;
  const support::QueryCounters totals = session.lifetime_totals();
  registry_.set_gauge(gauges_.jmp_entries,
                      static_cast<double>(session.store().entry_count()));
  registry_.set_gauge(gauges_.jmp_store_bytes,
                      static_cast<double>(session.store().memory_bytes()));
  registry_.set_gauge(gauges_.contexts,
                      static_cast<double>(session.context_count()));
  registry_.set_gauge(gauges_.pag_revision,
                      static_cast<double>(session.revision()));
  registry_.set_gauge(gauges_.charged_steps,
                      static_cast<double>(totals.charged_steps));
  registry_.set_gauge(gauges_.traversed_steps,
                      static_cast<double>(totals.traversed_steps));
  registry_.set_gauge(gauges_.saved_steps,
                      static_cast<double>(totals.saved_steps));
  registry_.set_gauge(gauges_.jmp_lookups,
                      static_cast<double>(totals.jmp_lookups));
  registry_.set_gauge(gauges_.jmps_taken,
                      static_cast<double>(totals.jmps_taken));
  registry_.set_gauge(gauges_.queries, static_cast<double>(totals.queries));
  registry_.set_gauge(gauges_.early_terminations,
                      static_cast<double>(totals.early_terminations));
  registry_.set_gauge(gauges_.prefilter_hits,
                      static_cast<double>(totals.prefilter_hits));
  registry_.set_gauge(gauges_.prefilter_misses,
                      static_cast<double>(totals.prefilter_misses));
  registry_.set_gauge(gauges_.prefilter_ready,
                      session.prefilter_ready() ? 1.0 : 0.0);
  const Session::IndexInfo index = session.index_info();
  registry_.set_gauge(gauges_.index_hits, static_cast<double>(index.hits));
  registry_.set_gauge(gauges_.index_misses, static_cast<double>(index.misses));
  registry_.set_gauge(gauges_.index_entries,
                      static_cast<double>(index.entries));
  const SessionManager::Counters fleet = manager_.counters();
  registry_.set_gauge(manager_gauges_.open_tenants,
                      static_cast<double>(fleet.open_tenants));
  registry_.set_gauge(manager_gauges_.resident,
                      static_cast<double>(fleet.resident));
  registry_.set_gauge(manager_gauges_.resident_bytes,
                      static_cast<double>(fleet.resident_bytes));
  registry_.set_gauge(manager_gauges_.loads, static_cast<double>(fleet.loads));
  registry_.set_gauge(manager_gauges_.reopens,
                      static_cast<double>(fleet.reopens));
  registry_.set_gauge(manager_gauges_.evictions,
                      static_cast<double>(fleet.evictions));
  registry_.set_gauge(manager_gauges_.stale_spills,
                      static_cast<double>(fleet.stale_spills));
  registry_.set_gauge(manager_gauges_.label_overflow,
                      static_cast<double>(registry_.label_overflow_count()));
  return registry_.render_prometheus();
}

QueryService::~QueryService() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  collector_.join();
}

std::future<Reply> QueryService::submit(Request request) {
  std::promise<Reply> promise;
  std::future<Reply> future = promise.get_future();

  switch (request.verb) {
    case Verb::kStats: {
      Reply r = ready_reply(Reply::Status::kOk, Verb::kStats, stats().to_json());
      promise.set_value(std::move(r));
      return future;
    }
    case Verb::kMetrics: {
      promise.set_value(
          ready_reply(Reply::Status::kOk, Verb::kMetrics, metrics_text()));
      return future;
    }
    case Verb::kSlowLog: {
      promise.set_value(
          ready_reply(Reply::Status::kOk, Verb::kSlowLog,
                      slow_log_jsonl(static_cast<std::size_t>(request.count))));
      return future;
    }
    case Verb::kOpen: {
      // Inline: registration is a probe + map insert, never a graph parse
      // (the load is lazy — see SessionManager::open).
      std::string error;
      const bool ok = manager_.open(request.tenant, request.path, &error);
      promise.set_value(ok ? ready_reply(Reply::Status::kOk, Verb::kOpen,
                                         request.tenant)
                           : error_reply(std::move(error)));
      return future;
    }
    case Verb::kClose: {
      // Inline on the client thread, which blocks while the tenant's
      // in-flight batch (if any) drains — close-while-queried never yanks a
      // session mid-batch; requests still queued answer "unknown tenant"
      // when dispatched.
      std::string error;
      const bool ok = manager_.close(request.tenant, &error);
      promise.set_value(ok ? ready_reply(Reply::Status::kOk, Verb::kClose,
                                         request.tenant)
                           : error_reply(std::move(error)));
      return future;
    }
    case Verb::kSave:
    case Verb::kLoad: {
      std::string error;
      bool ok = false;
      if (request.tenant.empty()) {
        ok = request.verb == Verb::kSave
                 ? default_session_->save(request.path, &error)
                 : default_session_->load(request.path, &error);
      } else {
        SessionManager::Lease lease = manager_.acquire(request.tenant, &error);
        if (lease)
          ok = request.verb == Verb::kSave ? lease->save(request.path, &error)
                                           : lease->load(request.path, &error);
      }
      promise.set_value(ok ? ready_reply(Reply::Status::kOk, request.verb,
                                         request.path)
                           : error_reply(std::move(error)));
      return future;
    }
    case Verb::kIndex: {
      // Inline: index_info() takes only the compactor's leaf lock, never the
      // graph lock, so it cannot stall behind a running batch. The
      // tenant-prefixed form additionally pays manager_.acquire on this
      // thread — like save/load, that can reopen an evicted tenant from
      // disk, so only the default-session probe is stall-free.
      std::string text;
      if (request.tenant.empty()) {
        text = index_json(default_session_->index_info());
      } else {
        std::string error;
        SessionManager::Lease lease = manager_.acquire(request.tenant, &error);
        if (!lease) {
          promise.set_value(error_reply(std::move(error)));
          return future;
        }
        text = index_json(lease->index_info());
      }
      promise.set_value(
          ready_reply(Reply::Status::kOk, Verb::kIndex, std::move(text)));
      return future;
    }
    case Verb::kPing:
    case Verb::kQuit:
      promise.set_value(ready_reply(Reply::Status::kOk, request.verb));
      return future;
    case Verb::kPart:
    case Verb::kCont:
    case Verb::kCFact:
    case Verb::kCReset:
      // Worker verbs are served by the wire layer (service/worker.cpp);
      // nothing routes them here, but parsing stays total anyway.
      promise.set_value(error_reply("worker verb outside the worker loop"));
      return future;
    case Verb::kUpdate:
      // Falls through to the queue: the delta must be applied by the
      // collector thread between batches, never from a client thread.
      if (!request.tenant.empty() && !manager_.known(request.tenant)) {
        promise.set_value(
            error_reply("unknown tenant '" + request.tenant + "'"));
        return future;
      }
      break;
    case Verb::kQuery:
    case Verb::kAlias:
    case Verb::kTaint:
    case Verb::kDepends:
      if (request.tenant.empty()) {
        // The wire parser only bounds-checks ids; points_to is defined on
        // variable nodes — and so are both ends of alias/taint/depends — so
        // reject anything else here rather than tripping the solver's
        // precondition check mid-batch. is_variable_node reads under the
        // graph lock, and stays valid across updates (node ids are never
        // removed, kinds never change).
        if (!default_session_->is_variable_node(request.a) ||
            (request.verb != Verb::kQuery &&
             !default_session_->is_variable_node(request.b))) {
          promise.set_value(error_reply("not a variable node"));
          return future;
        }
      } else if (!manager_.known(request.tenant)) {
        // Node validation for tenant requests waits for dispatch (the graph
        // may not even be resident yet); the tenant's existence is checkable
        // now, so unknown names fail fast instead of riding the queue.
        promise.set_value(
            error_reply("unknown tenant '" + request.tenant + "'"));
        return future;
      }
      break;
  }

  const std::uint32_t units = units_of(request);
  {
    std::lock_guard lock(mu_);
    bool shed = stop_ || queued_units_ + units > options_.max_queue;
    std::uint32_t tenant_queued = 0;
    if (!shed && options_.tenant_max_queue != 0) {
      // Per-tenant quota: one tenant flooding the queue sheds its own
      // traffic while everyone else keeps being admitted.
      const auto it = tenant_queued_units_.find(request.tenant);
      if (it != tenant_queued_units_.end()) tenant_queued = it->second;
      shed = tenant_queued + units > options_.tenant_max_queue;
    }
    if (shed) {
      // Shed at admission: an overloaded server answers cheaply and
      // immediately rather than queueing work it cannot serve in time.
      recorder_.record_shed_overload();
      recorder_.record_tenant_shed(tenant_label(request.tenant));
      promise.set_value(ready_reply(Reply::Status::kShedOverload, request.verb));
      return future;
    }
    queued_units_ += units;
    if (options_.tenant_max_queue != 0)
      tenant_queued_units_[request.tenant] = tenant_queued + units;
    queue_.push_back(Pending{std::move(request), Clock::now(), std::move(promise)});
  }
  cv_.notify_one();
  return future;
}

void QueryService::collector_main() {
  for (;;) {
    std::vector<Pending> batch;
    std::uint32_t batch_units = 0;
    bool is_update = false;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained

      // Micro-batch linger: from the first pending request, wait for the
      // batch to fill — but never longer than max_linger past *its* arrival
      // (late arrivals do not extend the window), and never past the
      // earliest pending deadline: a request expiring mid-linger used to sit
      // out the whole window only to be shed at dispatch; now the batch
      // dispatches the moment the first deadline lands. A plain wait (no
      // predicate) per iteration so that a new arrival with a shorter
      // deadline recomputes the window instead of sleeping through it.
      for (;;) {
        if (stop_ || queued_units_ >= options_.max_batch) break;
        auto window_end = queue_.front().enqueued + options_.max_linger;
        for (const Pending& p : queue_) {
          if (p.request.deadline_ms == 0) continue;
          const auto deadline =
              p.enqueued + std::chrono::milliseconds(p.request.deadline_ms);
          window_end = std::min(window_end, deadline);
        }
        if (Clock::now() >= window_end) break;
        cv_.wait_until(lock, window_end);
      }

      // An update gets a batch of its own: everything queued before it runs
      // (and completes) first, and queries queued after it only run against
      // the fully-applied delta. A batch also never crosses a tenant
      // boundary — every item runs against one session. The queue front
      // fixes the batch's tenant; later same-tenant queries are gathered
      // from anywhere ahead of the first update, hopping over other
      // tenants' entries. Per-tenant FIFO order is preserved, and
      // cross-tenant order carries no semantics (every tenant is its own
      // graph) — without the hop, Zipf-interleaved tenants fragment
      // micro-batches down to near size one.
      if (queue_.front().request.verb == Verb::kUpdate) {
        is_update = true;
        batch_units += units_of(queue_.front().request);
        if (options_.tenant_max_queue != 0) {
          const auto it =
              tenant_queued_units_.find(queue_.front().request.tenant);
          if (it != tenant_queued_units_.end()) {
            const std::uint32_t units = units_of(queue_.front().request);
            it->second = it->second > units ? it->second - units : 0;
            if (it->second == 0) tenant_queued_units_.erase(it);
          }
        }
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      } else {
        const std::string batch_tenant = queue_.front().request.tenant;
        for (auto it = queue_.begin();
             it != queue_.end() && batch_units < options_.max_batch;) {
          if (it->request.verb == Verb::kUpdate) break;  // ordering barrier
          if (it->request.tenant != batch_tenant) {
            ++it;
            continue;
          }
          const std::uint32_t units = units_of(it->request);
          batch_units += units;
          if (options_.tenant_max_queue != 0) {
            const auto q = tenant_queued_units_.find(batch_tenant);
            if (q != tenant_queued_units_.end()) {
              q->second = q->second > units ? q->second - units : 0;
              if (q->second == 0) tenant_queued_units_.erase(q);
            }
          }
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        }
      }
      queued_units_ -= batch_units;
    }
    if (is_update)
      execute_update(std::move(batch.front()));
    else
      execute_batch(std::move(batch));
  }
}

void QueryService::execute_update(Pending pending) {
  Session* session = default_session_.get();
  SessionManager::Lease lease;
  if (!pending.request.tenant.empty()) {
    std::string acquire_error;
    lease = manager_.acquire(pending.request.tenant, &acquire_error);
    if (!lease) {
      recorder_.record_update(/*ok=*/false, 0);
      pending.promise.set_value(error_reply(std::move(acquire_error)));
      return;
    }
    session = lease.get();
  }
  std::string error;
  Session::UpdateStats stats;
  if (!session->update_from_file(pending.request.path, &error, &stats)) {
    recorder_.record_update(/*ok=*/false, 0);
    pending.promise.set_value(error_reply(std::move(error)));
    return;
  }
  recorder_.record_update(/*ok=*/true, stats.invalidate.evicted);
  std::string summary =
      pending.request.path + " rev " + std::to_string(stats.revision) + " +" +
      std::to_string(stats.apply.edges_added) + "e -" +
      std::to_string(stats.apply.edges_removed) + "e evicted " +
      std::to_string(stats.invalidate.evicted) + "/" +
      std::to_string(stats.invalidate.entries_before) + " jmps";
  pending.promise.set_value(
      ready_reply(Reply::Status::kOk, Verb::kUpdate, std::move(summary)));
}

void QueryService::execute_batch(std::vector<Pending> batch) {
  // One tenant per batch (the collector never crosses a boundary). Named
  // tenants run under a lease: the session is resident — loaded or warm-
  // reopened right here if it was evicted — and stays pinned until every
  // reply below is set.
  const std::string tenant = batch.front().request.tenant;
  Session* session = default_session_.get();
  SessionManager::Lease lease;
  if (!tenant.empty()) {
    std::string acquire_error;
    lease = manager_.acquire(tenant, &acquire_error);
    if (!lease) {
      // Closed between admission and dispatch, or the (re)load failed.
      for (Pending& p : batch)
        p.promise.set_value(error_reply(acquire_error));
      return;
    }
    session = lease.get();
  }

  // Deadline shedding happens at dispatch: a request that waited past its
  // deadline is answered with `shed deadline` and costs no traversal.
  const auto now = Clock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    const auto deadline_ms = p.request.deadline_ms;
    if (deadline_ms != 0 &&
        now - p.enqueued > std::chrono::milliseconds(deadline_ms)) {
      recorder_.record_shed_deadline();
      p.promise.set_value(ready_reply(Reply::Status::kShedDeadline, p.request.verb));
      continue;
    }
    // The continuation plane is pointer-only: a partitioned worker's batch
    // queries answer partition-local *pointer* reachability, and
    // Solver::taint/depends refuse to run partitioned. Reject here, before
    // the item reaches the engine.
    if ((p.request.verb == Verb::kTaint || p.request.verb == Verb::kDepends) &&
        session->partitioned()) {
      p.promise.set_value(
          error_reply("taint/depends unsupported on a partitioned worker"));
      continue;
    }
    if (!tenant.empty()) {
      // Tenant requests skip node validation at parse (the graph need not be
      // resident then); do it now against the leased session.
      const std::uint32_t n = session->node_count();
      bool bad = p.request.a.value() >= n ||
                 !session->is_variable_node(p.request.a);
      if (p.request.verb != Verb::kQuery)
        bad = bad || p.request.b.value() >= n ||
              !session->is_variable_node(p.request.b);
      if (bad) {
        p.promise.set_value(error_reply("not a variable node"));
        continue;
      }
      if (options_.tenant_step_budget != 0) {
        // Per-tenant work cap: a tenant may lower its own budget further,
        // never raise it past the clamp.
        p.request.budget = p.request.budget == 0
                               ? options_.tenant_step_budget
                               : std::min(p.request.budget,
                                          options_.tenant_step_budget);
      }
    }
    // Alias pair the prefilter proves disjoint: answer at dispatch, spend no
    // solver time. Safe here because updates run serialized on this same
    // collector thread, so the revision the prefilter was checked against is
    // the revision the batch would have run on.
    if (p.request.verb == Verb::kAlias &&
        session->prefilter_no_alias(p.request.a, p.request.b)) {
      Reply r;
      r.status = Reply::Status::kOk;
      r.verb = Verb::kAlias;
      r.alias = cfl::Solver::AliasAnswer::kNo;
      r.query_status = cfl::QueryStatus::kComplete;
      r.charged_steps = 0;
      const double latency_ms =
          std::chrono::duration<double, std::milli>(now - p.enqueued).count();
      recorder_.record_request(latency_ms, StatsRecorder::Served::kAlias);
      recorder_.record_tenant_request(tenant_label(tenant), latency_ms);
      p.promise.set_value(std::move(r));
      continue;
    }
    live.push_back(std::move(p));
  }
  if (live.empty()) return;

  std::vector<Session::Item> items;
  items.reserve(live.size() + 4);
  for (const Pending& p : live) {
    Session::Item item{p.request.a, p.request.budget};
    if (p.request.verb == Verb::kTaint)
      item.kind = cfl::QueryKind::kTaint;
    else if (p.request.verb == Verb::kDepends)
      item.kind = cfl::QueryKind::kDepends;
    items.push_back(item);
    if (p.request.verb == Verb::kAlias)
      items.push_back(Session::Item{p.request.b, p.request.budget});
  }
  recorder_.record_batch(items.size());

  Session::BatchResult result = session->run_batch(items);

  const auto done = Clock::now();
  std::size_t next_item = 0;
  for (Pending& p : live) {
    Reply r;
    r.status = Reply::Status::kOk;
    r.verb = p.request.verb;
    const double latency_ms =
        std::chrono::duration<double, std::milli>(done - p.enqueued).count();
    if (p.request.verb == Verb::kQuery) {
      Session::ItemResult& item = result.items[next_item++];
      r.query_status = item.status;
      r.charged_steps = item.charged_steps;
      r.objects = std::move(item.objects);
      recorder_.record_request(latency_ms, StatsRecorder::Served::kQuery);
    } else if (p.request.verb == Verb::kTaint ||
               p.request.verb == Verb::kDepends) {
      // One traversal, membership test on the sink/criterion: <b> in the
      // grammar's reach set proves may-flow/may-depend; absent + complete
      // proves not; absent + truncated stays unknown. The set itself never
      // crosses the wire — the ternary is the whole answer.
      const Session::ItemResult& item = result.items[next_item++];
      const bool hit = std::binary_search(item.objects.begin(),
                                          item.objects.end(), p.request.b);
      r.alias = hit ? cfl::Solver::AliasAnswer::kMay
                : item.status == cfl::QueryStatus::kComplete
                    ? cfl::Solver::AliasAnswer::kNo
                    : cfl::Solver::AliasAnswer::kUnknown;
      r.query_status = item.status;
      r.charged_steps = item.charged_steps;
      recorder_.record_request(latency_ms,
                               p.request.verb == Verb::kTaint
                                   ? StatsRecorder::Served::kTaint
                                   : StatsRecorder::Served::kDepends);
    } else {
      const Session::ItemResult& a = result.items[next_item++];
      const Session::ItemResult& b = result.items[next_item++];
      r.alias = alias_answer(a.objects, a.status, b.objects, b.status);
      r.charged_steps = a.charged_steps + b.charged_steps;
      // The weaker of the two statuses, for observability.
      r.query_status = a.status == cfl::QueryStatus::kComplete ? b.status : a.status;
      recorder_.record_request(latency_ms, StatsRecorder::Served::kAlias);
    }
    recorder_.record_tenant_request(tenant_label(tenant), latency_ms);
    p.promise.set_value(std::move(r));
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats out;
  recorder_.snapshot(out);
  out.engine = default_session_->lifetime_totals();
  out.jmp_entries = default_session_->store().entry_count();
  out.jmp_store_bytes = default_session_->store().memory_bytes();
  out.context_count = default_session_->context_count();
  out.pag_revision = default_session_->revision();
  out.prefilter_ready = default_session_->prefilter_ready();
  out.prefilter_building_revision =
      out.prefilter_ready ? 0 : default_session_->revision();
  const Session::IndexInfo index = default_session_->index_info();
  out.index_enabled = index.enabled;
  out.index_entries = index.entries;
  out.index_targets = index.targets;
  out.index_hits = index.hits;
  out.index_misses = index.misses;
  out.index_builds = index.builds;
  out.index_invalidated = index.invalidated;
  out.index_pending = index.pending;
  out.index_memory_bytes = index.memory_bytes;
  out.index_revision = index.revision;
  const SessionManager::Counters fleet = manager_.counters();
  out.open_tenants = fleet.open_tenants;
  out.resident_sessions = fleet.resident;
  out.resident_bytes = fleet.resident_bytes;
  out.tenant_loads = fleet.loads;
  out.session_reopens = fleet.reopens;
  out.session_evictions = fleet.evictions;
  out.stale_spills = fleet.stale_spills;
  out.label_overflow = registry_.label_overflow_count();
  return out;
}

}  // namespace parcfl::service
