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
// One graph per service: the jmp shortcuts the paper shares never cross
// graphs, so the service owns exactly one Session, built from the graph
// passed to the constructor. Serve several graphs by running one server per
// graph.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
  std::uint32_t node_count() const { return session_.node_count(); }
  /// Single-threaded callers only; valid until the next update.
  const pag::Pag& pag() const { return session_.pag(); }
  /// The session serving the graph passed to the constructor.
  Session& session() { return session_; }

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
  void execute_batch(std::vector<Pending> batch);
  void execute_update(Pending pending);
  void note_slow_query(const cfl::SlowQueryRecord& record);
  Session::Options session_options_with_sink();
  static std::uint32_t units_of(const Request& request) {
    return request.verb == Verb::kAlias ? 2 : 1;
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
        index_hits, index_misses, index_entries, resident_bytes;
  };
  EngineGauges gauges_;
  Session session_;
  StatsRecorder recorder_;

  mutable std::mutex slow_mu_;
  std::deque<cfl::SlowQueryRecord> slow_log_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::uint32_t queued_units_ = 0;
  bool stop_ = false;

  std::thread collector_;
};

}  // namespace parcfl::service
