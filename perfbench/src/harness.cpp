#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <tuple>
#include <unordered_set>

namespace perfbench {

namespace pag = parcfl::pag;

Zipf::Zipf(std::uint32_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t Zipf::draw(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

// ---- percentiles -----------------------------------------------------------

namespace {
std::size_t rank_index(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}
}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

Tail tail_percentile(const std::vector<double>& sorted, double wanted,
                     std::size_t min_beyond) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
  const std::size_t n = sorted.size();
  auto make = [&](double q) {
    return Tail{q, percentile(sorted, q), samples_beyond(n, q)};
  };
  if (samples_beyond(n, wanted) >= min_beyond) return make(wanted);
  for (const double q : kLadder)
    if (q < wanted && samples_beyond(n, q) >= min_beyond) return make(q);
  return make(0.50);
}

Summary summarize(std::vector<double> xs, double wanted) {
  std::sort(xs.begin(), xs.end());
  Summary s;
  s.count = xs.size();
  s.p50 = percentile(xs, 0.50);
  s.tail = tail_percentile(xs, wanted);
  return s;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return percentile(xs, 0.50);
}

// ---- request streams -------------------------------------------------------

std::vector<Req> make_stream(const std::vector<std::uint32_t>& roots,
                             const StreamSpec& spec) {
  // Seeded permutation: Zipf rank k maps to perm[k].
  Rng hot(splitmix64(spec.hot_seed ^ 0x407u));
  std::vector<std::uint32_t> perm = roots;
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[hot.below(i)]);
  const Zipf zipf(static_cast<std::uint32_t>(perm.size()), 1.0);
  Rng rng(splitmix64(spec.seed ^ 0x5eedu));
  std::vector<Req> out;
  out.reserve(spec.length);
  std::uint32_t updates = 0;
  for (std::size_t i = 0; i < spec.length; ++i) {
    Req r;
    if (spec.update_every != 0 && (i + 1) % spec.update_every == 0) {
      r.op = Op::kUpdate;
      r.update = ++updates;
      out.push_back(r);
      continue;
    }
    const double u = rng.unit();
    r.op = u < 0.70 ? Op::kQuery
           : u < 0.85 ? Op::kAlias
           : u < 0.93 ? Op::kTaint
                      : Op::kDepends;
    r.a = perm[zipf.draw(rng)];
    if (r.op != Op::kQuery) r.b = perm[zipf.draw(rng)];
    out.push_back(r);
  }
  return out;
}

std::string delta_path(const std::string& dir, std::uint32_t file) {
  return dir + "/delta-" + std::to_string(file) + ".txt";
}

std::string request_line(const Req& r, const std::string& delta_dir) {
  if (r.op == Op::kUpdate)
    return "update " +
           delta_path(delta_dir, (r.update - 1) % (2 * kEditCount) + 1);
  std::string line;
  switch (r.op) {
    case Op::kQuery: return "query " + std::to_string(r.a);
    case Op::kAlias: line = "alias "; break;
    case Op::kTaint: line = "taint "; break;
    default: line = "depends "; break;
  }
  return line + std::to_string(r.a) + " " + std::to_string(r.b);
}

StreamCounts count_stream(const std::vector<Req>& stream, std::size_t prefix) {
  StreamCounts c;
  std::unordered_set<std::uint32_t> roots;
  for (std::size_t i = 0; i < std::min(prefix, stream.size()); ++i) {
    const Req& r = stream[i];
    switch (r.op) {
      case Op::kQuery: ++c.query; break;
      case Op::kAlias: ++c.alias; break;
      case Op::kTaint: ++c.taint; break;
      case Op::kDepends: ++c.depends; break;
      case Op::kUpdate: ++c.update; continue;
    }
    roots.insert(r.a);
  }
  c.distinct_roots = roots.size();
  return c;
}

// ---- churn deltas ----------------------------------------------------------

std::vector<Edit> make_edits(const pag::Pag& g, std::uint64_t seed) {
  std::vector<std::uint32_t> vars, objects;
  for (std::uint32_t n = 0; n < g.node_count(); ++n) {
    const pag::NodeKind kind = g.kind(pag::NodeId(n));
    if (kind == pag::NodeKind::kLocal) vars.push_back(n);
    if (kind == pag::NodeKind::kObject) objects.push_back(n);
  }
  auto present = [&](const pag::Edge& e) {
    for (const pag::HalfEdge& h : g.in_edges(e.dst, e.kind))
      if (h.other == e.src && h.aux == e.aux) return true;
    return false;
  };
  Rng rng(splitmix64(seed ^ 0xed17u));
  std::vector<Edit> edits;
  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> used;
  auto fresh = [&](pag::EdgeKind kind, std::uint32_t dst, std::uint32_t src,
                   Edit& edit) {
    const pag::Edge e{kind, pag::NodeId(dst), pag::NodeId(src), 0};
    if (dst == src || present(e) ||
        !used.emplace(static_cast<int>(kind), dst, src).second)
      return false;
    edit.push_back(e);
    return true;
  };
  while (edits.size() < kEditCount && !vars.empty()) {
    Edit edit;
    while (edit.size() < 3) {
      const std::uint32_t dst = vars[rng.below(vars.size())];
      fresh(pag::EdgeKind::kAssignLocal, dst, vars[rng.below(vars.size())],
            edit);
    }
    while (!objects.empty() && edit.size() < 4)
      fresh(pag::EdgeKind::kNew, vars[rng.below(vars.size())],
            objects[rng.below(objects.size())], edit);
    edits.push_back(std::move(edit));
  }
  return edits;
}

pag::Delta update_delta(const pag::Pag& g, const std::vector<Edit>& edits,
                        std::uint32_t update) {
  pag::Delta d(g);
  const Edit& edit = edits[((update - 1) / 2) % kEditCount];
  for (const pag::Edge& e : edit) {
    if (update % 2 == 1)
      d.add_edge(e.kind, e.dst, e.src, e.aux);
    else
      d.remove_edge(e.kind, e.dst, e.src, e.aux);
  }
  return d;
}

// ---- tracing ---------------------------------------------------------------

std::int64_t Tracer::begin(const std::string& name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  std::lock_guard lock(mu_);
  spans_.push_back(Span{name, t, t, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t Tracer::add(const std::string& name, Clock::time_point start,
                         Clock::time_point end, std::uint64_t request,
                         std::int64_t parent) {
  if (!enabled_) return -1;
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  std::lock_guard lock(mu_);
  spans_.push_back(Span{name, ns(start), ns(end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(os);
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  const std::vector<Span> all = spans();
  std::vector<double> child_ms(all.size(), 0.0);
  for (const Span& s : all)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double ms = static_cast<double>(all[i].end_ns - all[i].start_ns) / 1e6;
    LayerTime& t = out[all[i].name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += std::max(0.0, ms - child_ms[i]);
  }
  return out;
}

// ---- loopback client -------------------------------------------------------

LineClient::LineClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineClient::roundtrip(const std::string& line) {
  const std::string out = line + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w = ::send(fd_, out.data() + sent, out.size() - sent, 0);
    if (w <= 0) return {};
    sent += static_cast<std::size_t>(w);
  }
  for (;;) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return reply;
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return {};
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

// ---- metrics ---------------------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& e : entries_)
    if (e.first == name) {
      e.second = {value, unit};
      return;
    }
  entries_.push_back({name, {value, unit}});
}

std::string MetricSet::json() const {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].second.first)
                         ? entries_[i].second.first
                         : 0.0;
    std::snprintf(number, sizeof number, "%.17g", v);
    out += (i ? ", \"" : "\"") + entries_[i].first + "\": {\"value\": " +
           number + ", \"unit\": \"" + entries_[i].second.second + "\"}";
  }
  return out + "}";
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> names = {
      {"cpu_ms_per_op", "ms"},     {"answered_share", "share"},
      {"complete_share", "share"}, {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> names = {
      {"wire.self_us_p50", "us"},       {"service.call_ms_p50", "ms"},
      {"service.call_ms_p99", "ms"},    {"service.wait_ms_p50", "ms"},
      {"service.batch_size_mean", "count"}, {"service.shed", "count"},
      {"session.run_batch_ms_p50", "ms"}, {"session.update_ms_p50", "ms"},
      {"scheduler.ms_per_batch", "ms"}, {"scheduler.share", "share"},
      {"scheduler.batch_s", "s"},       {"engine.busy_s", "s"},
      {"engine.traversed_steps", "count"}, {"engine.makespan_steps", "count"},
      {"engine.imbalance", "ratio"},    {"engine.steps_1t", "count"},
      {"engine.early_terminations", "count"}, {"jmp.hit_ratio", "share"},
      {"jmp.entries", "count"},         {"jmp.bytes", "bytes"},
      {"index.hit_ratio", "share"},     {"index.entries", "count"},
      {"index.invalidated", "count"},   {"prefilter.hit_ratio", "share"},
      {"prefilter.build_ms", "ms"},     {"prefilter.rebuild_ms", "ms"},
      {"pag.read_s", "s"},              {"pag.collapse_s", "s"},
      {"pag.reduce_ms", "ms"},          {"pag.apply_delta_ms", "ms"},
      {"pag.reduced_edge_share", "share"}, {"invalidate.evicted", "count"},
      {"churn.rewarm_steps", "count"},  {"manager.evictions", "count"},
      {"manager.reopens", "count"},     {"persist.spill_ms", "ms"},
      {"persist.reopen_ms", "ms"},      {"persist.state_bytes", "bytes"},
      {"stream.query", "count"},        {"stream.alias", "count"},
      {"stream.taint", "count"},        {"stream.depends", "count"},
      {"stream.update", "count"},       {"stream.distinct_roots", "count"},
      {"qps", "1/s"},                   {"p50_ms", "ms"},
      {"p99_ms", "ms"},                 {"trace.qps_traced", "1/s"},
      {"trace.overhead_share", "share"},
  };
  return names;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double host_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  stat >> cpu;
  for (std::uint64_t& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return static_cast<double>(field[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
