#pragma once
// Building blocks of the perfbench harness that do not depend on a workload:
// seeded request and delta streams, percentile summaries, an in-memory span
// tracer, a blocking loopback line client and the metric printer. Kept apart
// from main.cpp so the self-test can pin each of them without running a
// workload.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pag/delta.hpp"
#include "pag/pag.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic splitmix64 stream; the only randomness source of the
/// harness, so equal seeds give byte-identical inputs on every host.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return splitmix64(state_);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (rank k has weight 1/(k+1)^s), sampled through
/// the cumulative weights.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s);
  std::uint32_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile: the ceil(q·n)-th smallest of `sorted` (q in
/// (0, 1]); 0 for an empty sample.
double percentile(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-percentile position.
std::size_t samples_beyond(std::size_t n, double q);

struct Tail {
  double q = 0.0;      // the percentile reported, e.g. 0.99
  double value = 0.0;  // its value
  std::size_t beyond = 0;
};

/// The percentile `wanted` when at least `min_beyond` samples lie beyond
/// it, else the highest of p99.9/p99/p95/p90/p75/p50 that has; p50 when the
/// sample is too small for any of them.
Tail tail_percentile(const std::vector<double>& sorted, double wanted,
                     std::size_t min_beyond = 10);

struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  Tail tail;
};

/// Summarise `xs` as its median and tail_percentile(wanted).
Summary summarize(std::vector<double> xs, double wanted);

double median(std::vector<double> xs);

// ---- request streams -------------------------------------------------------

enum class Op : std::uint8_t { kQuery, kAlias, kTaint, kDepends, kUpdate };

struct Req {
  Op op = Op::kQuery;
  std::uint32_t a = 0, b = 0;
  std::uint32_t update = 0;  // kUpdate: 1-based update number
};

struct StreamSpec {
  std::uint64_t seed = 1;      // the draw sequence
  std::uint64_t hot_seed = 1;  // which roots are hot (the Zipf rank order)
  std::size_t length = 0;
  /// Every `update_every`-th request is an update (0 = read-only stream).
  std::uint32_t update_every = 0;
};

/// The read mix: ~70% query, 15% alias, 8% taint, 7% depends. Roots come
/// from a Zipf(1) draw over a permutation of `roots` seeded by `hot_seed`.
/// Keeping `hot_seed` fixed while `seed` varies keeps the hot set, and with it
/// the per-request cost profile, the same across request streams.
std::vector<Req> make_stream(const std::vector<std::uint32_t>& roots,
                             const StreamSpec& spec);

/// One protocol line (without newline); an update names its delta file in
/// `delta_dir`.
std::string request_line(const Req& r, const std::string& delta_dir);

/// Delta file `file` (1-based, at most 2 * kEditCount) in `dir`.
std::string delta_path(const std::string& dir, std::uint32_t file);

struct StreamCounts {
  std::uint64_t query = 0, alias = 0, taint = 0, depends = 0, update = 0;
  std::uint64_t distinct_roots = 0;
};
StreamCounts count_stream(const std::vector<Req>& stream, std::size_t prefix);

// ---- churn deltas ----------------------------------------------------------

/// A small seeded graph edit: edges absent from the base graph. Update 2j-1
/// adds edit j and update 2j removes it again, so every even revision has
/// exactly the base graph's nodes and edges.
using Edit = std::vector<parcfl::pag::Edge>;

/// Distinct edits a churn run cycles through; update k uses delta file
/// (k - 1) % (2 * kEditCount) + 1.
inline constexpr std::uint32_t kEditCount = 32;

/// kEditCount edits of three local assigns and one allocation each, between
/// variables (and objects) of `g`, none of which `g` already holds.
std::vector<Edit> make_edits(const parcfl::pag::Pag& g, std::uint64_t seed);

/// The delta of update number `update` (1-based) over `edits`, cycling.
parcfl::pag::Delta update_delta(const parcfl::pag::Pag& g,
                                const std::vector<Edit>& edits,
                                std::uint32_t update);

// ---- tracing ---------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0, end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory and written out at exit. Thread-safe; when disabled
/// every call is a no-op returning -1, so the untraced run pays one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::int64_t begin(const std::string& name, std::uint64_t request = 0,
                     std::int64_t parent = -1);
  void end(std::int64_t id);
  /// Record a finished span from two time points.
  std::int64_t add(const std::string& name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t request = 0,
                   std::int64_t parent = -1);

  std::vector<Span> spans() const;
  bool write_jsonl(const std::string& path) const;

  struct LayerTime {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time its child spans cover
  };
  /// Per span name: count, total and self time.
  std::map<std::string, LayerTime> layer_times() const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::uint64_t request = 0,
        std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// ---- loopback client -------------------------------------------------------

/// Blocking line client on 127.0.0.1:port. Move-only; owns its socket.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// Send `line` + '\n' and return the reply line ("" on a transport error).
  std::string roundtrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---- metrics ---------------------------------------------------------------

/// Metrics of one run in emission order, printed as the final JSON line.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

struct MetricSpec {
  std::string name, unit;
};

/// End-to-end metrics, printed by every untraced run; BENCHMARK.json lists
/// the same names with their bounds. Their times are CPU times, which host
/// steal does not move; the wall-clock figures are per-layer metrics.
const std::vector<MetricSpec>& end_to_end_metrics();

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not reach reports 0 for its counts and ratios; see README.md.
const std::vector<MetricSpec>& per_layer_metrics();

/// True iff `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

/// Peak resident set of this process in MiB (VmHWM), 0 where unavailable.
double peak_rss_mb();

/// Host steal time so far, summed over all CPUs, in seconds (the steal
/// column of /proc/stat; 0 where unavailable).
double host_steal_seconds();

/// CPU time this process has used so far, all threads, in seconds. A kernel
/// with paravirtual steal accounting leaves host steal out of it.
double process_cpu_seconds();

}  // namespace perfbench
