#pragma once
// Service-level observability: counters and latency percentiles for the
// long-lived query server. Engine-level numbers (steps, jmp hit ratios) come
// from the BatchRunner's cumulative QueryCounters; this module adds the
// request-plane view — what a client experiences.
//
// The recorder is rebased onto obs::MetricsRegistry (DESIGN.md §10): every
// request-plane counter is a registry counter, and each request latency also
// feeds a registry histogram, so the `metrics` wire verb scrapes the same
// numbers `stats` reports, with no second bookkeeping path. What stays local
// is the exact-percentile window: Prometheus histograms quantise into fixed
// buckets, and the service's p50/p95/p99 contract predates them, so the
// recorder keeps the most recent kWindow raw samples under a mutex
// (record_request is off the solver hot path — one lock per *request* —
// while the registry counters it also bumps are lock-free).

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/metrics.hpp"
#include "support/stats.hpp"

namespace parcfl::service {

/// Point-in-time snapshot, rendered by `stats` wire requests and the load
/// generator's BENCH_service.json.
struct ServiceStats {
  // Request plane.
  std::uint64_t queries_served = 0;   // points-to requests answered
  std::uint64_t alias_served = 0;     // alias requests answered
  std::uint64_t taint_served = 0;     // taint requests answered (§15)
  std::uint64_t depends_served = 0;   // depends requests answered (§15)
  std::uint64_t batches = 0;          // micro-batches executed
  double mean_batch_size = 0.0;       // query units per batch
  std::uint64_t max_batch_size = 0;
  std::uint64_t shed_overload = 0;    // rejected at admission (queue full)
  std::uint64_t shed_deadline = 0;    // expired while queued
  std::uint64_t protocol_errors = 0;  // malformed wire requests
  std::uint64_t updates_applied = 0;  // PAG deltas applied
  std::uint64_t update_errors = 0;    // deltas rejected (parse/apply failure)
  std::uint64_t jmp_evicted = 0;      // entries dropped across all updates
  std::uint64_t jmp_carried_unfinished = 0;  // kept for their unfinished s
  std::uint64_t slow_queries = 0;     // queries past the slow-query threshold
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;

  // Analysis plane (cumulative over the session's lifetime).
  support::QueryCounters engine;
  std::uint64_t jmp_entries = 0;
  std::uint64_t jmp_store_bytes = 0;
  std::uint64_t context_count = 0;
  std::uint64_t pag_revision = 0;  // delta epoch of the live graph
  bool prefilter_ready = false;    // prefilter covers the live revision
  /// Graph revision the prefilter rebuild is chasing. Meaningful only while
  /// !prefilter_ready; to_json reports it *instead of* the hit counters then,
  /// because those counters describe the previous revision's filter and a
  /// stale hit-rate mid-rebuild reads as live signal (PR 8 bugfix).
  std::uint64_t prefilter_building_revision = 0;

  // Passive reachability index (DESIGN.md §13).
  bool index_enabled = false;
  std::uint64_t index_entries = 0;     // roots recorded in the index
  std::uint64_t index_targets = 0;     // summed points-to targets stored
  std::uint64_t index_hits = 0;        // queries served at 0 charged steps
  std::uint64_t index_misses = 0;      // index consulted, fell through
  std::uint64_t index_builds = 0;      // complete answers recorded
  std::uint64_t index_invalidated = 0; // entries dropped by update cones
  std::uint64_t index_memory_bytes = 0;
  std::uint64_t index_revision = 0;    // graph revision the index covers

  std::uint64_t resident_bytes = 0;    // Session::resident_bytes()

  /// Share of prefilter consultations (per-query pts_empty probes plus
  /// per-pair no_alias probes) that short-circuited solver work entirely.
  double prefilter_hit_ratio() const {
    const std::uint64_t probes =
        engine.prefilter_hits + engine.prefilter_misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(engine.prefilter_hits) /
                             static_cast<double>(probes);
  }

  /// Share of index consultations answered from the frozen index (each hit
  /// is a complete answer at 0 charged steps).
  double index_hit_ratio() const {
    const std::uint64_t probes = index_hits + index_misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(index_hits) /
                             static_cast<double>(probes);
  }

  /// jmps_taken / jmp_lookups — how often a ReachableNodes probe rode a
  /// finished shortcut. The warm-vs-cold delta of this ratio is the service's
  /// whole reason to exist.
  double jmp_hit_ratio() const {
    return engine.jmp_lookups == 0
               ? 0.0
               : static_cast<double>(engine.jmps_taken) /
                     static_cast<double>(engine.jmp_lookups);
  }

  /// One-line JSON (the `stats` wire reply and BENCH_service.json rows).
  std::string to_json() const;
};

/// Thread-safe recorder for the request-plane half of ServiceStats. Counter
/// state lives in the registry (scrapeable); latencies additionally keep the
/// most recent kWindow raw samples (a sliding window, not a decaying sketch:
/// micro-batch services care about current tail behaviour).
class StatsRecorder {
 public:
  static constexpr std::size_t kWindow = 1u << 16;

  /// Registers the request-plane metrics; the registry must outlive the
  /// recorder (QueryService owns both, registry first).
  explicit StatsRecorder(obs::MetricsRegistry& registry);

  /// Request verbs the recorder distinguishes — one served counter each.
  enum class Served : std::uint8_t { kQuery, kAlias, kTaint, kDepends };

  void record_request(double latency_ms, Served served);
  void record_batch(std::uint64_t query_units);
  void record_shed_overload() { registry_.add(shed_overload_); }
  void record_shed_deadline() { registry_.add(shed_deadline_); }
  void record_protocol_error() { registry_.add(protocol_errors_); }
  void record_update(bool ok, std::uint64_t jmp_evicted = 0,
                     std::uint64_t jmp_carried_unfinished = 0);
  void record_slow_query() { registry_.add(slow_queries_); }

  /// Fill the request-plane fields of `out` (percentiles sorted on demand).
  void snapshot(ServiceStats& out) const;

 private:
  obs::MetricsRegistry& registry_;
  obs::MetricsRegistry::MetricId queries_served_;
  obs::MetricsRegistry::MetricId alias_served_;
  obs::MetricsRegistry::MetricId taint_served_;
  obs::MetricsRegistry::MetricId depends_served_;
  obs::MetricsRegistry::MetricId batches_;
  obs::MetricsRegistry::MetricId batch_units_;
  obs::MetricsRegistry::MetricId shed_overload_;
  obs::MetricsRegistry::MetricId shed_deadline_;
  obs::MetricsRegistry::MetricId protocol_errors_;
  obs::MetricsRegistry::MetricId updates_applied_;
  obs::MetricsRegistry::MetricId update_errors_;
  obs::MetricsRegistry::MetricId jmp_evicted_;
  obs::MetricsRegistry::MetricId jmp_carried_unfinished_;
  obs::MetricsRegistry::MetricId slow_queries_;
  obs::MetricsRegistry::MetricId latency_hist_;
  obs::MetricsRegistry::MetricId max_batch_gauge_;
  obs::MetricsRegistry::MetricId max_latency_gauge_;

  mutable std::mutex mu_;            // guards the latency window only
  std::vector<float> latencies_ms_;  // ring buffer of recent samples
  std::size_t latency_pos_ = 0;
};

}  // namespace parcfl::service
