#include "support/metrics.hpp"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <unordered_set>

#include "support/check.hpp"

namespace parcfl::obs {

namespace {

/// Registries still alive, so a thread exiting after a registry was destroyed
/// skips the release instead of chasing a dangling pointer. Leaked (never
/// destroyed until process exit) on purpose: thread_local destructors may run
/// after function-local statics are torn down.
std::mutex& live_mu() {
  static std::mutex m;
  return m;
}
std::unordered_set<const MetricsRegistry*>& live_set() {
  static auto* s = new std::unordered_set<const MetricsRegistry*>();
  return *s;
}

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_double(std::uint64_t b) { return std::bit_cast<double>(b); }

/// Shortest round-trip-exact double rendering ("%.17g" is exact but noisy;
/// try increasing precision until the value survives a parse round-trip).
std::string format_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

/// Per-thread map of (registry → claimed slot). One instance per thread; the
/// destructor hands owned slots back so long-running registries do not leak
/// slots across short-lived threads.
struct TlsRegistrySlots {
  struct Entry {
    const MetricsRegistry* reg;
    std::uint32_t slot;
    bool owned;  // false = shared-by-hash fallback, never released
  };
  std::vector<Entry> entries;

  ~TlsRegistrySlots() {
    std::lock_guard lock(live_mu());
    for (const Entry& e : entries)
      if (e.owned && live_set().contains(e.reg)) e.reg->release_slot(e.slot);
  }

  static TlsRegistrySlots& instance() {
    static thread_local TlsRegistrySlots tls;
    return tls;
  }
};

MetricsRegistry::MetricsRegistry() : slabs_(new Slab[kMaxThreads]) {
  std::lock_guard lock(live_mu());
  live_set().insert(this);
}

MetricsRegistry::~MetricsRegistry() {
  std::lock_guard lock(live_mu());
  live_set().erase(this);
}

MetricsRegistry::MetricId MetricsRegistry::register_metric(Descriptor d) {
  std::lock_guard lock(reg_mu_);
  const std::uint32_t id = metric_count_.load(std::memory_order_relaxed);
  PARCFL_CHECK_MSG(id < kMaxMetrics, "metrics registry full");
  if (d.kind == Kind::kGauge) {
    PARCFL_CHECK_MSG(gauges_used_ < kMaxGauges, "gauge slots exhausted");
    d.cell_base = gauges_used_;
    gauges_used_ += 1;
  } else {
    PARCFL_CHECK_MSG(cells_used_ + d.cell_count <= kMaxCells,
                     "metric cells exhausted");
    d.cell_base = cells_used_;
    cells_used_ += d.cell_count;
  }
  descriptors_[id] = std::move(d);
  metric_count_.store(id + 1, std::memory_order_release);
  return id;
}

MetricsRegistry::MetricId MetricsRegistry::counter(std::string name,
                                                   std::string help) {
  Descriptor d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = Kind::kCounter;
  d.cell_count = 1;
  return register_metric(std::move(d));
}

MetricsRegistry::MetricId MetricsRegistry::gauge(std::string name,
                                                 std::string help) {
  Descriptor d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = Kind::kGauge;
  return register_metric(std::move(d));
}

MetricsRegistry::MetricId MetricsRegistry::histogram(
    std::string name, std::string help, std::vector<double> bounds) {
  for (std::size_t i = 1; i < bounds.size(); ++i)
    PARCFL_CHECK_MSG(bounds[i - 1] < bounds[i],
                     "histogram bounds must be ascending");
  Descriptor d;
  d.name = std::move(name);
  d.help = std::move(help);
  d.kind = Kind::kHistogram;
  // bounds.size() bounded buckets, one +Inf bucket, one sum cell.
  d.cell_count = static_cast<std::uint32_t>(bounds.size()) + 2;
  d.bounds = std::move(bounds);
  return register_metric(std::move(d));
}

std::uint32_t MetricsRegistry::slot_for_thread() const {
  // Single-entry cache: the common process has one hot registry, so the per-
  // increment cost is one pointer compare. Stale entries after a registry is
  // destroyed and another allocated at the same address only cause benign
  // slot sharing (all writes are fetch_adds).
  thread_local const MetricsRegistry* cached_reg = nullptr;
  thread_local std::uint32_t cached_slot = 0;
  if (cached_reg == this) return cached_slot;

  auto& tls = TlsRegistrySlots::instance();
  for (const auto& e : tls.entries) {
    if (e.reg == this) {
      cached_reg = this;
      cached_slot = e.slot;
      return e.slot;
    }
  }

  std::uint32_t slot = kMaxThreads;
  std::uint64_t mask = slot_mask_.load(std::memory_order_relaxed);
  while (mask != ~std::uint64_t{0}) {
    const auto free = static_cast<std::uint32_t>(std::countr_one(mask));
    if (slot_mask_.compare_exchange_weak(mask, mask | (std::uint64_t{1} << free),
                                         std::memory_order_acq_rel)) {
      slot = free;
      break;
    }
  }
  const bool owned = slot != kMaxThreads;
  if (!owned) {
    // Every claimable slot is taken: share one by thread-id hash. Correct
    // (relaxed RMWs), merely contended.
    slot = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMaxThreads);
  }
  tls.entries.push_back(TlsRegistrySlots::Entry{this, slot, owned});
  cached_reg = this;
  cached_slot = slot;
  return slot;
}

void MetricsRegistry::release_slot(std::uint32_t slot) const {
  // Cell values stay behind on purpose: they are part of the aggregate.
  slot_mask_.fetch_and(~(std::uint64_t{1} << slot), std::memory_order_release);
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  const Descriptor& d = descriptors_[id];
  slabs_[slot_for_thread()].cells[d.cell_base].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::observe(MetricId id, double value) {
  const Descriptor& d = descriptors_[id];
  std::uint32_t b = 0;
  while (b < d.bounds.size() && value > d.bounds[b]) ++b;
  Slab& slab = slabs_[slot_for_thread()];
  slab.cells[d.cell_base + b].fetch_add(1, std::memory_order_relaxed);
  // The sum cell accumulates double bits; CAS because a hash-shared slot may
  // have a second writer.
  auto& sum = slab.cells[d.cell_base + d.bounds.size() + 1];
  std::uint64_t old = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(old, double_bits(bits_double(old) + value),
                                    std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::set_gauge(MetricId id, double value) {
  const Descriptor& d = descriptors_[id];
  gauges_[d.cell_base].store(double_bits(value), std::memory_order_relaxed);
}

void MetricsRegistry::max_gauge(MetricId id, double value) {
  const Descriptor& d = descriptors_[id];
  auto& g = gauges_[d.cell_base];
  std::uint64_t old = g.load(std::memory_order_relaxed);
  while (bits_double(old) < value &&
         !g.compare_exchange_weak(old, double_bits(value),
                                  std::memory_order_relaxed)) {
  }
}

std::uint64_t MetricsRegistry::cell_sum(std::uint32_t cell) const {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < kMaxThreads; ++t)
    total += slabs_[t].cells[cell].load(std::memory_order_relaxed);
  return total;
}

double MetricsRegistry::cell_sum_double(std::uint32_t cell) const {
  double total = 0.0;
  for (std::size_t t = 0; t < kMaxThreads; ++t)
    total += bits_double(slabs_[t].cells[cell].load(std::memory_order_relaxed));
  return total;
}

std::uint64_t MetricsRegistry::counter_value(MetricId id) const {
  return cell_sum(descriptors_[id].cell_base);
}

double MetricsRegistry::gauge_value(MetricId id) const {
  return bits_double(
      gauges_[descriptors_[id].cell_base].load(std::memory_order_relaxed));
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::histogram_value(
    MetricId id) const {
  const Descriptor& d = descriptors_[id];
  HistogramSnapshot snap;
  snap.bounds = d.bounds;
  snap.buckets.resize(d.bounds.size() + 1);
  for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
    snap.buckets[b] = cell_sum(d.cell_base + static_cast<std::uint32_t>(b));
    snap.count += snap.buckets[b];
  }
  snap.sum = cell_sum_double(d.cell_base +
                             static_cast<std::uint32_t>(d.bounds.size()) + 1);
  return snap;
}

void MetricsRegistry::render_series(std::string& out, std::uint32_t id) const {
  const Descriptor& d = descriptors_[id];
  char line[256];
  switch (d.kind) {
    case Kind::kCounter:
      std::snprintf(line, sizeof line, "%s %" PRIu64 "\n", d.name.c_str(),
                    counter_value(id));
      out += line;
      break;
    case Kind::kGauge:
      out += d.name + " " + format_double(gauge_value(id)) + "\n";
      break;
    case Kind::kHistogram: {
      const HistogramSnapshot snap = histogram_value(id);
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
        cumulative += snap.buckets[b];
        const std::string le = b < snap.bounds.size()
                                   ? format_double(snap.bounds[b])
                                   : std::string("+Inf");
        std::snprintf(line, sizeof line, "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                      d.name.c_str(), le.c_str(), cumulative);
        out += line;
      }
      out += d.name + "_sum " + format_double(snap.sum) + "\n";
      std::snprintf(line, sizeof line, "%s_count %" PRIu64 "\n",
                    d.name.c_str(), snap.count);
      out += line;
      break;
    }
  }
}

std::string MetricsRegistry::render_prometheus() const {
  // reg_mu_ stabilises the descriptor table against concurrent registration;
  // the cell reads themselves are deliberately racy (monotone counters).
  std::lock_guard lock(reg_mu_);
  const std::uint32_t n = metric_count_.load(std::memory_order_acquire);
  std::string out;
  out.reserve(n * 96);
  const char* type_name[] = {"counter", "gauge", "histogram"};
  for (std::uint32_t id = 0; id < n; ++id) {
    const Descriptor& d = descriptors_[id];
    out += "# HELP " + d.name + " " + d.help + "\n";
    out += "# TYPE " + d.name + " " +
           type_name[static_cast<std::size_t>(d.kind)] + "\n";
    render_series(out, id);
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace parcfl::obs
