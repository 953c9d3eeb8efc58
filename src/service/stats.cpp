#include "service/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace parcfl::service {

namespace {

/// Nearest-rank percentile over an ascending window. A window of 0 or 1
/// samples has no distribution to take a percentile of — both the empty
/// vector and the single sample used to fall through the rank arithmetic
/// (p * (size - 1) on size 0 underflows in spirit if not in type) — so they
/// explicitly report 0 (tests/service_test.cpp pins empty/one/two).
double percentile(const std::vector<float>& sorted, double p) {
  if (sorted.size() < 2) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(
      std::max(1.0, std::min(rank, static_cast<double>(sorted.size()))) - 1);
  return sorted[idx];
}

}  // namespace

StatsRecorder::StatsRecorder(obs::MetricsRegistry& registry)
    : registry_(registry),
      queries_served_(registry.counter("parcfl_queries_served_total",
                                       "Points-to requests answered.")),
      alias_served_(registry.counter("parcfl_alias_served_total",
                                     "Alias requests answered.")),
      taint_served_(registry.counter("parcfl_taint_served_total",
                                     "Taint requests answered.")),
      depends_served_(registry.counter("parcfl_depends_served_total",
                                       "Depends requests answered.")),
      batches_(registry.counter("parcfl_batches_total",
                                "Micro-batches executed.")),
      batch_units_(registry.counter("parcfl_batch_units_total",
                                    "Query units across all batches.")),
      shed_overload_(registry.counter(
          "parcfl_shed_overload_total",
          "Requests rejected at admission (queue full).")),
      shed_deadline_(registry.counter("parcfl_shed_deadline_total",
                                      "Requests expired while queued.")),
      protocol_errors_(registry.counter("parcfl_protocol_errors_total",
                                        "Malformed wire requests.")),
      updates_applied_(registry.counter("parcfl_updates_applied_total",
                                        "PAG deltas applied.")),
      update_errors_(registry.counter("parcfl_update_errors_total",
                                      "PAG deltas rejected.")),
      jmp_evicted_(registry.counter(
          "parcfl_jmp_evicted_total",
          "Jmp entries dropped across all updates.")),
      jmp_carried_unfinished_(registry.counter(
          "parcfl_jmp_carried_unfinished_total",
          "Jmp entries in an update's cone kept for their unfinished half.")),
      slow_queries_(registry.counter(
          "parcfl_slow_queries_total",
          "Queries at or above the slow-query latency threshold.")),
      latency_hist_(registry.histogram(
          "parcfl_request_latency_ms", "Request latency in milliseconds.",
          {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000})),
      max_batch_gauge_(registry.gauge("parcfl_max_batch_size",
                                      "Largest micro-batch in query units.")),
      max_latency_gauge_(registry.gauge(
          "parcfl_max_request_latency_ms",
          "Highest request latency observed, milliseconds.")) {}

void StatsRecorder::record_request(double latency_ms, Served served) {
  switch (served) {
    case Served::kQuery:
      registry_.add(queries_served_);
      break;
    case Served::kAlias:
      registry_.add(alias_served_);
      break;
    case Served::kTaint:
      registry_.add(taint_served_);
      break;
    case Served::kDepends:
      registry_.add(depends_served_);
      break;
  }
  registry_.observe(latency_hist_, latency_ms);
  registry_.max_gauge(max_latency_gauge_, latency_ms);
  std::lock_guard lock(mu_);
  if (latencies_ms_.size() < kWindow) {
    latencies_ms_.push_back(static_cast<float>(latency_ms));
  } else {
    latencies_ms_[latency_pos_] = static_cast<float>(latency_ms);
    latency_pos_ = (latency_pos_ + 1) % kWindow;
  }
}

void StatsRecorder::record_batch(std::uint64_t query_units) {
  registry_.add(batches_);
  registry_.add(batch_units_, query_units);
  registry_.max_gauge(max_batch_gauge_, static_cast<double>(query_units));
}

void StatsRecorder::record_update(bool ok, std::uint64_t jmp_evicted,
                                  std::uint64_t jmp_carried_unfinished) {
  if (ok) {
    registry_.add(updates_applied_);
    if (jmp_evicted != 0) registry_.add(jmp_evicted_, jmp_evicted);
    if (jmp_carried_unfinished != 0)
      registry_.add(jmp_carried_unfinished_, jmp_carried_unfinished);
  } else {
    registry_.add(update_errors_);
  }
}

void StatsRecorder::snapshot(ServiceStats& out) const {
  out.queries_served = registry_.counter_value(queries_served_);
  out.alias_served = registry_.counter_value(alias_served_);
  out.taint_served = registry_.counter_value(taint_served_);
  out.depends_served = registry_.counter_value(depends_served_);
  out.batches = registry_.counter_value(batches_);
  out.shed_overload = registry_.counter_value(shed_overload_);
  out.shed_deadline = registry_.counter_value(shed_deadline_);
  out.protocol_errors = registry_.counter_value(protocol_errors_);
  out.updates_applied = registry_.counter_value(updates_applied_);
  out.update_errors = registry_.counter_value(update_errors_);
  out.jmp_evicted = registry_.counter_value(jmp_evicted_);
  out.jmp_carried_unfinished = registry_.counter_value(jmp_carried_unfinished_);
  out.slow_queries = registry_.counter_value(slow_queries_);
  out.max_batch_size =
      static_cast<std::uint64_t>(registry_.gauge_value(max_batch_gauge_));
  out.mean_batch_size =
      out.batches == 0
          ? 0.0
          : static_cast<double>(registry_.counter_value(batch_units_)) /
                static_cast<double>(out.batches);
  out.max_ms = registry_.gauge_value(max_latency_gauge_);

  std::vector<float> sorted;
  {
    std::lock_guard lock(mu_);
    sorted = latencies_ms_;
  }
  std::sort(sorted.begin(), sorted.end());
  out.p50_ms = percentile(sorted, 0.50);
  out.p95_ms = percentile(sorted, 0.95);
  out.p99_ms = percentile(sorted, 0.99);
}

std::string ServiceStats::to_json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"queries_served\":" << queries_served
     << ",\"alias_served\":" << alias_served
     << ",\"taint_served\":" << taint_served
     << ",\"depends_served\":" << depends_served << ",\"batches\":" << batches
     << ",\"mean_batch_size\":" << mean_batch_size
     << ",\"max_batch_size\":" << max_batch_size
     << ",\"shed_overload\":" << shed_overload
     << ",\"shed_deadline\":" << shed_deadline
     << ",\"protocol_errors\":" << protocol_errors
     << ",\"slow_queries\":" << slow_queries
     << ",\"updates\":{\"applied\":" << updates_applied
     << ",\"errors\":" << update_errors << ",\"jmp_evicted\":" << jmp_evicted
     << ",\"jmp_carried_unfinished\":" << jmp_carried_unfinished
     << ",\"pag_revision\":" << pag_revision << "}"
     << ",\"latency_ms\":{\"p50\":" << p50_ms << ",\"p95\":" << p95_ms
     << ",\"p99\":" << p99_ms << ",\"max\":" << max_ms << "}"
     << ",\"jmp\":{\"lookups\":" << engine.jmp_lookups
     << ",\"taken\":" << engine.jmps_taken
     << ",\"hit_ratio\":" << jmp_hit_ratio()
     << ",\"entries\":" << jmp_entries << ",\"bytes\":" << jmp_store_bytes
     << "}"
     << ",\"prefilter\":{";
  if (prefilter_ready) {
    os << "\"ready\":true,\"hits\":" << engine.prefilter_hits
       << ",\"misses\":" << engine.prefilter_misses
       << ",\"hit_ratio\":" << prefilter_hit_ratio();
  } else {
    // Mid-rebuild the hit counters describe the *previous* revision's filter;
    // reporting them here would pass off a stale hit-rate as live signal. Say
    // only that a rebuild is chasing this revision.
    os << "\"ready\":false,\"building_revision\":" << prefilter_building_revision;
  }
  os << "}"
     << ",\"csindex\":{\"enabled\":" << (index_enabled ? "true" : "false")
     << ",\"entries\":" << index_entries << ",\"targets\":" << index_targets
     << ",\"hits\":" << index_hits << ",\"misses\":" << index_misses
     << ",\"hit_ratio\":" << index_hit_ratio()
     << ",\"builds\":" << index_builds
     << ",\"invalidated\":" << index_invalidated
     << ",\"memory_bytes\":" << index_memory_bytes
     << ",\"revision\":" << index_revision << "}"
     << ",\"steps\":{\"charged\":" << engine.charged_steps
     << ",\"traversed\":" << engine.traversed_steps
     << ",\"saved\":" << engine.saved_steps << "}"
     << ",\"contexts\":" << context_count
     << ",\"resident_bytes\":" << resident_bytes << "}";
  return os.str();
}

}  // namespace parcfl::service
