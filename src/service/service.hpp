#pragma once
// QueryService — the demand-driven analysis server. Concurrent clients
// submit() points-to/alias requests; a collector thread micro-batches them
// (up to max_batch query units, waiting at most max_linger for the batch to
// fill) and hands each batch to the warm Session, so a late arrival rides
// the jmp shortcuts minted by the requests batched just before it — the
// paper's §III-B data sharing, amortised across an unbounded query stream
// instead of one batch run.
//
// Admission control and robustness live at the request level:
//  * queue-depth backpressure — a full queue sheds new work immediately
//    (Reply::Status::kShedOverload) instead of growing latency unboundedly;
//  * deadlines — a request still queued past its deadline is shed, not run;
//  * per-request step budgets — a client may cap one query's work below the
//    server default (admission for expensive speculative queries).
//
// stats/save/load/ping are control-plane verbs answered inline (save/load
// are lock-free against the data plane; see Session). `update` is not: it
// mutates the graph, so it rides the queue and is dispatched by the
// collector as a batch of its own — strictly between query batches — which
// is what guarantees no in-flight batch observes a half-applied delta.
//
// Multi-tenancy (DESIGN.md §12): the service owns a SessionManager instead
// of one Session. The graph passed to the constructor becomes the *default
// tenant* — a pinned session every bare (unprefixed) request hits, so the
// single-tenant wire protocol and performance are unchanged. `open`/`close`
// register and drop named tenants; `@<tenant>`-prefixed requests ride the
// same queue and the collector forms per-tenant micro-batches (a batch takes
// the maximal same-tenant prefix of the queue — jmp sharing only helps
// within one graph). The tenant's session is leased for exactly the batch's
// duration, so LRU eviction can never unmap a graph mid-batch. Per-tenant
// admission (tenant_max_queue) and step-budget clamping (tenant_step_budget)
// keep one noisy tenant from starving the fleet, and the recorder's
// tenant-labeled metric families attribute traffic per tenant under a
// bounded label budget.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/manager.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/stats.hpp"
#include "support/metrics.hpp"

namespace parcfl::service {

struct ServiceOptions {
  Session::Options session;
  /// Micro-batcher: dispatch when the pending batch reaches `max_batch`
  /// query units (an alias request counts two) or the oldest pending request
  /// has lingered `max_linger` — whichever comes first.
  std::uint32_t max_batch = 64;
  std::chrono::microseconds max_linger{500};
  /// Admission: maximum queued query units before shed-on-overload.
  std::uint32_t max_queue = 4096;
  /// Slow-query log: a solver-side query (not counting queueing) at or above
  /// this many milliseconds is recorded — with its trace when
  /// session.engine.solver.trace_level > 0 — and served by the `slowlog`
  /// wire verb. 0 disables the per-query timing entirely.
  double slow_query_ms = 0.0;
  /// Retained slow-query records (oldest evicted first).
  std::size_t slow_log_capacity = 64;

  // ---- session fleet (multi-tenant; see SessionManager) -------------------
  /// Evictable tenant sessions allowed resident at once (the pinned default
  /// tenant is extra).
  std::size_t max_sessions = 8;
  /// Byte cap over every resident session's footprint, default tenant
  /// included. 0 = unbounded.
  std::uint64_t max_resident_bytes = 0;
  /// Where evicted tenants spill warm state (and drifted graphs).
  std::string spill_dir = ".";
  /// Per-tenant admission quota in query units (0 = only the global
  /// max_queue applies). A tenant at its quota sheds its *own* traffic while
  /// the rest of the fleet keeps being admitted.
  std::uint32_t tenant_max_queue = 0;
  /// Clamp on any tenant-prefixed request's step budget (0 = server
  /// default). Bare default-tenant requests are never clamped.
  std::uint64_t tenant_step_budget = 0;
};

class QueryService {
 public:
  QueryService(pag::Pag pag, const ServiceOptions& options);
  ~QueryService();  // drains queued requests, then stops the collector

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submit one request. Control-plane verbs (stats/save/load/ping/quit) and
  /// shed requests complete immediately; query/alias/update futures resolve
  /// when the collector has run their micro-batch.
  std::future<Reply> submit(Request request);

  /// submit() + wait — the convenience path for synchronous callers.
  Reply call(Request request) { return submit(std::move(request)).get(); }

  ServiceStats stats() const;

  /// Prometheus text exposition of the service registry — what the `metrics`
  /// wire verb returns. Refreshes the analysis-plane gauges (jmp store size,
  /// contexts, cumulative engine steps) from the session before rendering.
  std::string metrics_text();

  /// The most recent `limit` slow-query records, newest last (0 = all
  /// retained records). Empty unless ServiceOptions::slow_query_ms > 0.
  std::vector<cfl::SlowQueryRecord> slow_log(std::size_t limit = 0) const;
  /// The slowlog wire payload: one JSON header line per record, each
  /// followed by the record's trace JSONL lines (if any).
  std::string slow_log_jsonl(std::size_t limit = 0) const;

  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Safe to call from any client thread, including concurrently with an
  /// update (reads one snapshot of the session's graph revision).
  std::uint32_t node_count() const { return default_session_->node_count(); }
  /// Single-threaded callers only; valid until the next update.
  const pag::Pag& pag() const { return default_session_->pag(); }
  /// The default tenant's session (the graph passed to the constructor).
  Session& session() { return *default_session_; }
  /// The tenant fleet — parcfl_serve uses it to spill dirty sessions on
  /// graceful shutdown; tests inspect its counters.
  SessionManager& manager() { return manager_; }

  /// Wire-layer hook: a malformed line never reaches submit() but still
  /// counts toward observability.
  void note_protocol_error() { recorder_.record_protocol_error(); }

 private:
  struct Pending {
    Request request;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<Reply> promise;
  };

  void collector_main();
  /// Return `units` of `tenant`'s admission quota as its requests leave the
  /// queue. Caller holds mu_.
  void release_tenant_units(const std::string& tenant, std::uint32_t units);
  void execute_batch(std::vector<Pending> batch);
  void execute_update(Pending pending);
  void note_slow_query(const cfl::SlowQueryRecord& record);
  SessionManager::Options manager_options_with_sink();
  static std::uint32_t units_of(const Request& request) {
    return request.verb == Verb::kAlias ? 2 : 1;
  }
  /// The metric label a request's tenant renders as ("" → "default").
  static std::string_view tenant_label(const std::string& tenant) {
    return tenant.empty() ? std::string_view("default")
                          : std::string_view(tenant);
  }

  ServiceOptions options_;
  /// Declared before session_/recorder_: the engine's slow-query sink and
  /// the recorder both reference it, and it must be destroyed last.
  obs::MetricsRegistry registry_;
  /// Analysis-plane gauges, refreshed from the session at scrape time (the
  /// engine keeps its own cumulative counters; the scrape mirrors them).
  struct EngineGauges {
    obs::MetricsRegistry::MetricId jmp_entries, jmp_store_bytes, contexts,
        pag_revision, charged_steps, traversed_steps, saved_steps,
        jmp_lookups, jmps_taken, queries, early_terminations,
        prefilter_hits, prefilter_misses, prefilter_ready,
        index_hits, index_misses, index_entries;
  };
  EngineGauges gauges_;
  /// Fleet-plane gauges, refreshed from the manager at scrape time.
  struct ManagerGauges {
    obs::MetricsRegistry::MetricId open_tenants, resident, resident_bytes,
        loads, reopens, evictions, stale_spills, label_overflow;
  };
  ManagerGauges manager_gauges_;
  SessionManager manager_;
  /// The pinned default tenant (manager name "" — unaddressable from the
  /// wire, whose tenant names are non-empty by grammar).
  std::shared_ptr<Session> default_session_;
  StatsRecorder recorder_;

  mutable std::mutex slow_mu_;
  std::deque<cfl::SlowQueryRecord> slow_log_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::uint32_t queued_units_ = 0;
  /// Per-tenant admitted units (tenant_max_queue quota); entries erased when
  /// they drain to zero so closed tenants do not accumulate.
  std::map<std::string, std::uint32_t> tenant_queued_units_;
  bool stop_ = false;

  std::thread collector_;
};

}  // namespace parcfl::service
