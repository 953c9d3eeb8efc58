#pragma once
// parcfl::obs — structured metrics for the solver hot path and the service.
//
// MetricsRegistry is a fixed-capacity registry of counters, gauges and
// fixed-bucket histograms designed so that the *write* path costs one relaxed
// atomic RMW on a cache line private to the writing thread:
//
//  * counters and histogram cells live in per-thread cache-line-padded slabs
//    (the DESIGN.md §9 padding idiom); a thread claims a slab slot on first
//    use, exactly like support/ebr.hpp claims epoch slots, and releases it at
//    thread exit. With more threads than slots, late threads hash onto a
//    shared slot — updates stay correct (every write is a relaxed fetch_add),
//    they just contend;
//  * gauges are single atomics (set/accumulate-max semantics do not
//    distribute over threads the way sums do);
//  * scrapes aggregate across all slots at read time, so readers pay the
//    O(slots) sum and writers pay nothing — the inverse of a sharded lock.
//
// Scrapes are racy-by-design: a reader may observe a counter mid-batch, but
// every observed value is a real value the counter passed through (monotone),
// which is exactly the Prometheus contract. render_prometheus() emits the
// standard text exposition format (# HELP / # TYPE, cumulative
// `_bucket{le="…"}` + `_sum` + `_count` for histograms).
//
// Registration (counter()/gauge()/histogram()) takes a mutex and is expected
// at setup time; ids are stable for the registry's lifetime. The registry
// must outlive every thread that writes to it through add()/observe().

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace parcfl::obs {

struct TlsRegistrySlots;

class MetricsRegistry {
 public:
  using MetricId = std::uint32_t;

  /// Per-thread slab size in 8-byte cells; registration fails (hard check)
  /// past this many counter/histogram cells. 1024 cells = 8 KiB per slot.
  static constexpr std::size_t kMaxCells = 1024;
  static constexpr std::size_t kMaxMetrics = 320;
  static constexpr std::size_t kMaxGauges = 64;
  /// Claimable per-thread slots; beyond this, threads share slots by hash.
  static constexpr std::size_t kMaxThreads = 64;

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- registration (mutex-guarded; do this at setup) ---------------------
  MetricId counter(std::string name, std::string help);
  MetricId gauge(std::string name, std::string help);
  /// `bounds` are the histogram's upper bucket bounds (ascending); an
  /// implicit +Inf bucket is appended.
  MetricId histogram(std::string name, std::string help,
                     std::vector<double> bounds);

  // ---- write path (lock-free) ---------------------------------------------
  void add(MetricId id, std::uint64_t delta = 1);
  void observe(MetricId id, double value);
  void set_gauge(MetricId id, double value);
  /// Monotonic high-water gauge: keeps max(current, value).
  void max_gauge(MetricId id, double value);

  // ---- read path (aggregates across thread slots) -------------------------
  std::uint64_t counter_value(MetricId id) const;
  double gauge_value(MetricId id) const;

  struct HistogramSnapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (+Inf last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  HistogramSnapshot histogram_value(MetricId id) const;

  /// Prometheus text exposition of every registered metric, in registration
  /// order. No trailing newline.
  std::string render_prometheus() const;

 private:
  friend struct TlsRegistrySlots;

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Descriptor {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::uint32_t cell_base = 0;   // into slabs (counter/histogram) or gauges_
    std::uint32_t cell_count = 0;  // histogram: bounds + overflow + sum cell
    std::vector<double> bounds;
  };

  struct alignas(64) Slab {
    std::atomic<std::uint64_t> cells[kMaxCells] = {};
  };

  MetricId register_metric(Descriptor d);
  void render_series(std::string& out, std::uint32_t id) const;
  std::uint32_t slot_for_thread() const;
  void release_slot(std::uint32_t slot) const;
  std::uint64_t cell_sum(std::uint32_t cell) const;
  double cell_sum_double(std::uint32_t cell) const;

  mutable std::mutex reg_mu_;
  std::array<Descriptor, kMaxMetrics> descriptors_;
  /// Published with release so a thread handed an id (through whatever
  /// synchronisation delivered it) reads a fully-written descriptor.
  std::atomic<std::uint32_t> metric_count_{0};
  std::uint32_t cells_used_ = 0;   // under reg_mu_
  std::uint32_t gauges_used_ = 0;  // under reg_mu_

  std::unique_ptr<Slab[]> slabs_;  // kMaxThreads, zero-initialised
  mutable std::atomic<std::uint64_t> slot_mask_{0};
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauges_ = {};
};

}  // namespace parcfl::obs
