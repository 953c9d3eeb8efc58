#include "service/session.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "andersen/prefilter.hpp"
#include "cfl/csindex.hpp"
#include "cfl/persist.hpp"
#include "pag/pag_io.hpp"

namespace parcfl::service {

namespace {

/// Cap on the roots the reachability index holds at once.
constexpr std::size_t kIndexMaxEntries = 4096;

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

bool edge_less(const pag::Edge& a, const pag::Edge& b) {
  return std::tie(a.kind, a.dst, a.src, a.aux) <
         std::tie(b.kind, b.dst, b.src, b.aux);
}

/// The delta the *serving* graph actually underwent: the edge diff between
/// the old and new reduced graphs, plus the client's node tombstones. The
/// jmp invalidation cone (cfl/invalidate.hpp) seeds from delta edge
/// endpoints, and reduction can flip an edge's keep decision arbitrarily far
/// from the client delta (a new store can resurrect every load on its field),
/// so seeding from the client delta would under-invalidate. Both graphs are
/// deduped, so a plain sorted set-difference is exact.
pag::Delta serving_diff(const pag::Pag& old_pag, const pag::Pag& new_pag,
                        const pag::Delta& delta) {
  const auto sorted_edges = [](std::span<const pag::Edge> edges) {
    std::vector<pag::Edge> v(edges.begin(), edges.end());
    std::sort(v.begin(), v.end(), edge_less);
    return v;
  };
  const std::vector<pag::Edge> old_edges = sorted_edges(old_pag.edges());
  const std::vector<pag::Edge> new_edges = sorted_edges(new_pag.edges());

  pag::Delta d(old_pag.node_count());
  std::size_t i = 0, j = 0;
  while (i < old_edges.size() || j < new_edges.size()) {
    if (j == new_edges.size() ||
        (i < old_edges.size() && edge_less(old_edges[i], new_edges[j]))) {
      const pag::Edge& e = old_edges[i++];
      d.remove_edge(e.kind, e.dst, e.src, e.aux);
    } else if (i == old_edges.size() || edge_less(new_edges[j], old_edges[i])) {
      const pag::Edge& e = new_edges[j++];
      d.add_edge(e.kind, e.dst, e.src, e.aux);
    } else {
      ++i;
      ++j;
    }
  }
  for (const pag::NodeId n : delta.removed_nodes()) d.remove_node(n);
  return d;
}

/// The batch runner's engine options. Replies carry the object sets,
/// whatever the caller configured.
cfl::EngineOptions batch_engine_options(const cfl::EngineOptions& engine) {
  cfl::EngineOptions out = engine;
  out.collect_objects = true;
  return out;
}

}  // namespace

/// One immutable graph revision plus the prefilter derived from it after it
/// is published (session.hpp).
struct Session::Revision {
  Revision(pag::Pag graph, bool reduce) : base(std::move(graph)) {
    if (reduce) reduced = pag::reduce_unmatched_parens(base, &reduce_stats);
  }
  const pag::Pag& serving() const { return reduced ? *reduced : base; }

  pag::Pag base;                    // the faithful graph deltas apply to
  std::optional<pag::Pag> reduced;  // engaged iff reduction is on
  pag::ReduceStats reduce_stats{};  // of `reduced`; all-zero when off

  /// Andersen result over serving(); null until the prefilter thread fills
  /// it, and again once update() retires the revision. Guarded by
  /// Session::pf_mu_.
  mutable std::shared_ptr<const andersen::Prefilter> prefilter;
};

Session::Session(pag::Pag pag, Options options)
    : reduce_graph_(options.reduce_graph),
      prefilter_enabled_(options.prefilter),
      rev_(std::make_shared<const Revision>(std::move(pag), reduce_graph_)),
      runner_(batch_engine_options(options.engine), contexts_, store_),
      // charge_jmp_costs makes budget consumption configuration-dependent,
      // so a recorded cost would not bound what a later solve charges; the
      // budget gate only holds with it off (the default).
      index_enabled_(options.index && !options.engine.solver.charge_jmp_costs),
      default_budget_(options.engine.solver.budget),
      index_(kIndexMaxEntries, rev_->serving().revision()) {
  invalidate_options_.field_approximation =
      options.engine.solver.field_approximation;
  if (!options.state_path.empty()) {
    std::ifstream probe(options.state_path);
    if (probe) {
      probe.close();
      // A stale or torn state file must not keep the service from starting;
      // it just starts cold (and will overwrite the file on the next save).
      // The auto loader takes the mmap fast path — the reopen latency the
      // session manager's evict cycle depends on.
      std::string error;
      if (!cfl::load_sharing_state_file_v3(
              options.state_path, live()->serving(), contexts_, store_,
              cfl::StateLoadMode::kAuto, &error, &warm_stale_))
        std::fprintf(stderr, "parcfl-service: ignoring warm-start state %s: %s\n",
                     options.state_path.c_str(), error.c_str());
    }
  }
  if (prefilter_enabled_) {
    pf_rev_ = live();
    pf_dirty_ = true;
    prefilter_thread_ = std::thread([this] { prefilter_main(); });
  }
}

Session::~Session() {
  if (prefilter_thread_.joinable()) {
    {
      std::lock_guard lock(pf_mu_);
      pf_stop_ = true;
    }
    pf_cv_.notify_all();
    prefilter_thread_.join();
  }
}

void Session::prefilter_main() {
  // The last build: the incremental base for an add-only successor.
  std::shared_ptr<const andersen::Prefilter> last;
  for (;;) {
    std::shared_ptr<const Revision> rev;
    bool add_only = false;
    {
      std::unique_lock lock(pf_mu_);
      pf_cv_.wait(lock, [&] { return pf_stop_ || (pf_dirty_ && !pf_paused_); });
      if (pf_stop_) return;
      pf_dirty_ = false;
      add_only = pf_add_only_;
      pf_add_only_ = true;
      rev = pf_rev_;
    }
    // The bound revision is immutable, so the solve holds no session lock.
    // update() sets it together with the add-only flag, so an incremental
    // build only ever extends a base solved on a subgraph of it.
    if (!add_only) last.reset();
    const pag::Pag& graph = rev->serving();
    last = std::make_shared<const andersen::Prefilter>(
        last != nullptr ? andersen::Prefilter::build_incremental(graph, *last)
                        : andersen::Prefilter::build(graph));
    {
      std::lock_guard lock(pf_mu_);
      // Only the live revision holds a prefilter (see update()); a result
      // for a revision retired mid-build is kept only as `last`.
      if (rev == pf_rev_) rev->prefilter = last;
    }
    pf_cv_.notify_all();
  }
}

std::shared_ptr<const andersen::Prefilter> Session::prefilter_of(
    const Revision& rev) const {
  std::lock_guard lock(pf_mu_);
  return rev.prefilter;
}

bool Session::prefilter_no_alias(pag::NodeId a, pag::NodeId b) const {
  if (!prefilter_enabled_) return false;
  const std::shared_ptr<const andersen::Prefilter> p = prefilter_snapshot();
  if (p == nullptr) return false;
  const bool hit = p->no_alias(a, b);
  (hit ? pf_hits_ : pf_misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool Session::prefilter_ready() const {
  return prefilter_snapshot() != nullptr;
}

bool Session::wait_for_prefilter() {
  if (!prefilter_enabled_) return false;
  std::unique_lock lock(pf_mu_);
  // pf_rev_ is the live revision, or the one live when the caller asked
  // while an update is publishing its successor; that update then re-marks
  // dirty and the caller can simply wait again.
  pf_cv_.wait(lock, [&] { return pf_stop_ || pf_rev_->prefilter != nullptr; });
  return !pf_stop_;
}

std::shared_ptr<const andersen::Prefilter> Session::prefilter_snapshot() const {
  return prefilter_of(*live());
}

void Session::set_prefilter_paused(bool paused) {
  {
    std::lock_guard lock(pf_mu_);
    pf_paused_ = paused;
  }
  pf_cv_.notify_all();
}

pag::ReduceStats Session::reduce_stats() const {
  return live()->reduce_stats;
}

Session::BatchResult Session::run_batch(std::span<const Item> items) {
  std::vector<pag::NodeId> queries;
  std::vector<std::uint64_t> budgets;
  std::vector<cfl::QueryKind> kinds;
  std::vector<std::size_t> positions;  // solver item -> input position
  queries.reserve(items.size());
  budgets.reserve(items.size());
  kinds.reserve(items.size());
  positions.reserve(items.size());
  bool any_budget = false;
  bool any_nonpointer = false;

  BatchResult result;
  result.items.resize(items.size());
  {
    std::lock_guard lock(batch_mu_);
    // Only update() replaces the revision and prunes the index, and it takes
    // batch_mu_ first. The snapshot gives the batch its graph and prefilter,
    // both of one revision, and the index answers for that revision too.
    const std::shared_ptr<const Revision> rev = live();
    const auto prefilter = prefilter_enabled_ ? prefilter_of(*rev) : nullptr;
    // Solver-free answers first: an index hit, then a provably-empty
    // points-to set. Both planes cover points-to answers only; taint and
    // depends always solve. An unanswered item keeps ItemResult's default,
    // which is the empty complete answer at 0 charged steps.
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      if (item.kind == cfl::QueryKind::kPointsTo) {
        if (index_enabled_) {
          const cfl::CsIndex::Entry* entry = index_.find(item.var);
          // Serve a hit only when the request's effective budget covers the
          // recorded solve cost; a tighter budget goes to the solver.
          const std::uint64_t effective =
              item.budget == 0 ? default_budget_
                               : std::min(item.budget, default_budget_);
          if (entry != nullptr && entry->cost <= effective) {
            const auto run = index_.targets(*entry);
            result.items[i].objects.assign(run.begin(), run.end());
            index_hits_.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          index_misses_.fetch_add(1, std::memory_order_relaxed);
        }
        if (prefilter_enabled_) {
          // Andersen's context-insensitive pts(v) is a superset of every CFL
          // answer, so an empty row is a definite "no objects". Until the
          // rebuild after an update fills the slot, every item solves.
          if (prefilter != nullptr && prefilter->pts_empty(item.var)) {
            ++result.delta.prefilter_hits;
            continue;
          }
          ++result.delta.prefilter_misses;
        }
      }
      positions.push_back(i);
      queries.push_back(item.var);
      budgets.push_back(item.budget);
      kinds.push_back(item.kind);
      any_budget |= item.budget != 0;
      any_nonpointer |= item.kind != cfl::QueryKind::kPointsTo;
    }
    pf_hits_.fetch_add(result.delta.prefilter_hits, std::memory_order_relaxed);
    pf_misses_.fetch_add(result.delta.prefilter_misses,
                         std::memory_order_relaxed);

    if (!queries.empty()) {
      cfl::EngineResult er = runner_.run(
          rev->serving(), queries,
          any_budget ? std::span<const std::uint64_t>(budgets)
                     : std::span<const std::uint64_t>(),
          any_nonpointer ? std::span<const cfl::QueryKind>(kinds)
                         : std::span<const cfl::QueryKind>());
      // Route scheduled outcomes back to input positions, recording every
      // complete points-to answer in the index.
      std::lock_guard index_lock(index_mu_);
      for (std::size_t i = 0; i < er.outcomes.size(); ++i) {
        const std::size_t q = er.source_index[i];
        ItemResult& item = result.items[positions[q]];
        item.status = er.outcomes[i].status;
        item.charged_steps = er.outcomes[i].charged_steps;
        item.objects = std::move(er.objects[i]);
        if (index_enabled_ && kinds[q] == cfl::QueryKind::kPointsTo &&
            item.status == cfl::QueryStatus::kComplete &&
            index_.record(queries[q], item.objects, item.charged_steps))
          ++index_recorded_;
      }
      result.delta.merge(er.totals);
      result.wall_seconds = er.wall_seconds;
    }
  }
  return result;
}

Session::IndexInfo Session::index_info() const {
  IndexInfo info;
  info.enabled = index_enabled_;
  if (!index_enabled_) return info;
  info.hits = index_hits_.load(std::memory_order_relaxed);
  info.misses = index_misses_.load(std::memory_order_relaxed);
  std::lock_guard lock(index_mu_);
  const cfl::CsIndexStats s = index_.stats();
  info.entries = s.entries;
  info.targets = s.targets;
  info.memory_bytes = s.memory_bytes;
  info.revision = s.revision;
  info.builds = index_recorded_;
  info.invalidated = index_invalidated_;
  return info;
}

bool Session::update(const pag::Delta& delta, std::string* error,
                     UpdateStats* stats) {
  // Exclude query batches for the whole apply: the solver must never run
  // half against the old graph and half against the new one.
  std::lock_guard batch_lock(batch_mu_);
  const std::shared_ptr<const Revision> old = live();

  UpdateStats out;
  std::string apply_error;
  // The delta is recorded against the faithful base graph: it may remove an
  // edge that reduction already dropped from the serving graph.
  std::optional<pag::Pag> next_base =
      pag::apply_delta(old->base, delta, &out.apply, &apply_error);
  if (!next_base) return fail(error, "delta rejected: " + apply_error);
  const auto next =
      std::make_shared<const Revision>(std::move(*next_base), reduce_graph_);
  out.reduce = next->reduce_stats;
  out.revision = next->serving().revision();
  const pag::Delta served =
      reduce_graph_ ? serving_diff(old->serving(), next->serving(), delta)
                    : delta;

  // The cone's backward plane, read by the index prune below.
  std::vector<std::uint8_t> cone;
  {
    // Keep save/load/spill out of the invalidate + publish window only.
    std::unique_lock pag_lock(pag_mu_);
    out.invalidate = cfl::invalidate_sharing_state(
        old->serving(), next->serving(), served, contexts_, store_,
        invalidate_options_, index_enabled_ ? &cone : nullptr);
    if (index_enabled_) {
      // Drop exactly the entries the jmp eviction above evicts for a
      // finished backward entry on the same root: the root is marked in the
      // cone's backward plane, or lies beyond the graphs' node range. The
      // survivors answer for the next revision.
      std::lock_guard index_lock(index_mu_);
      index_invalidated_ += index_.prune(cone, out.revision);
    }
    std::lock_guard rev_lock(rev_mu_);
    rev_ = next;
  }

  if (prefilter_enabled_) {
    // The next revision's prefilter slot starts empty, so batches solve
    // until the rebuild fills it. The retired revision drops its rows, the
    // session's largest structure: the prefilter thread may still hold it.
    {
      std::lock_guard pf_lock(pf_mu_);
      old->prefilter = nullptr;
      pf_rev_ = next;
      pf_dirty_ = true;
      pf_add_only_ = pf_add_only_ && delta.removed_edges().empty() &&
                     delta.removed_nodes().empty();
    }
    pf_cv_.notify_all();
  }
  if (stats != nullptr) *stats = out;
  return true;
}

bool Session::update_from_file(const std::string& path, std::string* error,
                               UpdateStats* stats) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open " + path);
  std::string parse_error;
  // Bounds checks read one revision; reduction keeps node ids, so serving
  // and base graph agree on the id space.
  const std::optional<pag::Delta> delta =
      pag::read_delta(in, live()->serving(), &parse_error);
  if (!delta) return fail(error, path + ": " + parse_error);
  return update(*delta, error, stats);
}

support::QueryCounters Session::lifetime_totals() const {
  std::lock_guard lock(batch_mu_);
  support::QueryCounters totals = runner_.lifetime_totals();
  totals.prefilter_hits += pf_hits_.load(std::memory_order_relaxed);
  totals.prefilter_misses += pf_misses_.load(std::memory_order_relaxed);
  return totals;
}

bool Session::save(const std::string& path, std::string* error) {
  std::shared_lock lock(pag_mu_);
  return cfl::save_sharing_state_file_v3(path, live()->serving(),
                                         contexts_, store_, error);
}

bool Session::load(const std::string& path, std::string* error) {
  std::shared_lock lock(pag_mu_);
  return cfl::load_sharing_state_file_v3(path, live()->serving(),
                                         contexts_, store_,
                                         cfl::StateLoadMode::kAuto, error);
}

bool Session::spill(const std::string& state_path,
                    const std::string& spill_pag_path, bool* wrote_pag,
                    std::string* error) {
  // The index is derived state and is not spilled: a reopened session
  // records answers again as its warm solver completes them.
  std::shared_lock lock(pag_mu_);
  const std::shared_ptr<const Revision> rev = live();
  if (wrote_pag != nullptr) *wrote_pag = false;
  std::int64_t revision_override = -1;
  if (rev->base.revision() != 0) {
    // The graph drifted from its source file (applied deltas). Spill the
    // faithful base next to the state and stamp both epoch 0: reloading the
    // spilled graph yields this exact content at revision 0, so the pair is
    // self-consistent and the fingerprint guard still protects it.
    std::ostringstream os;
    pag::write_pag(os, rev->base);
    if (!cfl::write_file_atomic(spill_pag_path, os.str(), error)) return false;
    if (wrote_pag != nullptr) *wrote_pag = true;
    revision_override = 0;
  }
  return cfl::save_sharing_state_file_v3(state_path, rev->serving(), contexts_,
                                         store_, error, revision_override);
}

std::uint64_t Session::resident_bytes() const {
  const std::shared_ptr<const Revision> rev = live();
  std::uint64_t total = rev->base.memory_bytes() + store_.memory_bytes() +
                        contexts_.size() * 16 +  // entry + intern slot
                        runner_.schedule_plan_bytes();
  if (rev->reduced) total += rev->reduced->memory_bytes();
  if (const auto prefilter = prefilter_of(*rev))
    total += prefilter->memory_bytes();
  std::lock_guard lock(index_mu_);
  total += index_.stats().memory_bytes;
  return total;
}

std::shared_ptr<const Session::Revision> Session::live() const {
  std::lock_guard lock(rev_mu_);
  return rev_;
}

const pag::Pag& Session::pag() const { return live()->serving(); }

const pag::Pag& Session::base_pag() const { return live()->base; }

// A temporary snapshot lives to the end of the full expression, so the
// revision it reads cannot be retired under it.
std::uint32_t Session::node_count() const {
  return live()->serving().node_count();
}

bool Session::is_variable_node(pag::NodeId n) const {
  const std::shared_ptr<const Revision> rev = live();
  const pag::Pag& graph = rev->serving();
  return n.valid() && n.value() < graph.node_count() && graph.is_variable(n);
}

std::uint32_t Session::revision() const {
  return live()->serving().revision();
}

}  // namespace parcfl::service
