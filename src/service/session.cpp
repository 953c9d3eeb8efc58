#include "service/session.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "andersen/prefilter.hpp"
#include "cfl/csindex.hpp"
#include "cfl/persist.hpp"
#include "pag/pag_io.hpp"
#include "support/ebr.hpp"

namespace parcfl::service {

namespace {

/// CPU time of the calling thread. The continuation busy counter uses it
/// instead of wall time so occupancy stays exact on oversubscribed hosts —
/// a preemption while batch_mu_ is held must not count as worker work.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Cap on distinct roots the reachability index ever covers per session.
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

}  // namespace

cfl::EngineOptions Session::engine_options(const Options& options) {
  cfl::EngineOptions engine = options.engine;
  // Replies carry the object sets, whatever the caller configured.
  engine.collect_objects = true;
  if (options.partition != nullptr) {
    // Worker mode: every batch solver drops cross-partition pushes and
    // publishes jmps only from fully partition-local computations. The map
    // must cover the sub-PAG's (global) node id space.
    partition_map_ = options.partition;
    partition_id_ = options.partition_id;
    PARCFL_CHECK_MSG(partition_map_->owner.size() == pag_.node_count(),
                     "partition map does not cover the graph");
    PARCFL_CHECK_MSG(partition_id_ < partition_map_->parts,
                     "partition id out of range");
    PARCFL_CHECK_MSG(!options.engine.solver.field_approximation,
                     "field approximation is unsupported in partitioned mode");
    partition_view_.owner = partition_map_->owner.data();
    partition_view_.local = partition_id_;
    engine.partition = &partition_view_;
  }
  if (prefilter_enabled_) {
    // Runs on engine workers inside runner_.run, i.e. under batch_mu_ —
    // exactly where active_prefilter_ is stable (see member comment).
    engine.definitely_empty = [this](pag::NodeId v) {
      const andersen::Prefilter* p = active_prefilter_.get();
      return p != nullptr && p->pts_empty(v);
    };
  }
  return engine;
}

Session::Session(pag::Pag pag, Options options)
    // Partitioned workers force the pre-solve pipeline off (Options doc):
    // reduction is unsound on a sub-PAG and prefilter/index would answer
    // from partition-local information.
    : reduce_graph_(options.reduce_graph && options.partition == nullptr),
      prefilter_enabled_(options.prefilter && options.partition == nullptr),
      base_pag_(reduce_graph_ ? std::optional<pag::Pag>(std::move(pag))
                              : std::nullopt),
      pag_(base_pag_ ? pag::reduce_unmatched_parens(*base_pag_, &reduce_stats_)
                     : std::move(pag)),
      runner_(pag_, engine_options(options), contexts_, store_),
      // charge_jmp_costs makes budget consumption configuration-dependent,
      // so an index hit could complete a query a live solve would not — the
      // outcome-identity contract only holds with it off (the default).
      index_enabled_(options.index && !options.engine.solver.charge_jmp_costs &&
                     options.partition == nullptr),
      index_hot_threshold_(std::max<std::uint32_t>(1, options.index_hot_threshold)),
      default_budget_(options.engine.solver.budget) {
  invalidate_options_.field_approximation =
      options.engine.solver.field_approximation;
  cx_solver_options_ = options.engine.solver;
  if (!options.state_path.empty()) {
    std::ifstream probe(options.state_path);
    if (probe) {
      probe.close();
      // A stale or torn state file must not keep the service from starting;
      // it just starts cold (and will overwrite the file on the next save).
      // The auto loader takes the mmap fast path — the reopen latency the
      // session manager's evict cycle depends on.
      std::string error;
      std::vector<std::uint64_t> hot;
      if (!cfl::load_sharing_state_file_v3(options.state_path, pag_, contexts_,
                                           store_, cfl::StateLoadMode::kAuto,
                                           &error, &hot, &warm_stale_))
        std::fprintf(stderr, "parcfl-service: ignoring warm-start state %s: %s\n",
                     options.state_path.c_str(), error.c_str());
      // The spill's advisory hot section re-seeds the compactor queue, so a
      // reopened tenant regains its index without re-mining the stream.
      if (index_enabled_ && !hot.empty()) {
        for (const std::uint64_t k : hot) {
          if (cx_queued_.size() >= kIndexMaxEntries) break;
          if (cx_queued_.insert(k).second) cx_queue_.push_back(k);
        }
        cx_dirty_ = !cx_queue_.empty();
      }
    }
  }
  if (prefilter_enabled_) {
    pf_dirty_ = true;
    prefilter_thread_ = std::thread([this] { prefilter_main(); });
  }
  if (index_enabled_)
    compactor_thread_ = std::thread([this] { compactor_main(); });
}

Session::~Session() {
  if (compactor_thread_.joinable()) {
    {
      std::lock_guard lock(cx_mu_);
      cx_stop_ = true;
    }
    // Aborts a mid-flight build between solves — eviction of a hot session
    // must not wait out a full compaction pass.
    cx_cancel_.store(true, std::memory_order_relaxed);
    cx_cv_.notify_all();
    compactor_thread_.join();
  }
  if (prefilter_thread_.joinable()) {
    {
      std::lock_guard lock(pf_mu_);
      pf_stop_ = true;
    }
    pf_cv_.notify_all();
    prefilter_thread_.join();
  }
  // Late readers may still sit in retired-epoch grace; route the last
  // published snapshot through the domain like every predecessor.
  const cfl::CsIndex* last = index_.load(std::memory_order_relaxed);
  if (last != nullptr) support::global_epoch_domain().retire_object(last);
}

void Session::prefilter_main() {
  for (;;) {
    std::shared_ptr<const andersen::Prefilter> base;
    bool add_only = false;
    {
      std::unique_lock lock(pf_mu_);
      pf_cv_.wait(lock, [&] { return pf_stop_ || (pf_dirty_ && !pf_paused_); });
      if (pf_stop_) return;
      pf_dirty_ = false;
      add_only = pf_add_only_;
      pf_add_only_ = true;
      base = prefilter_;
    }
    // Copy the live graph: the solve must not hold any session lock. A delta
    // landing between the flag snapshot and this copy re-marks dirty, so the
    // result is rebuilt; at worst this round seeds incrementally from a base
    // the copy no longer extends, which over-approximates the fixpoint —
    // still sound for definite-no answers (and superseded by the pending
    // rebuild anyway).
    std::optional<pag::Pag> copy;
    {
      std::shared_lock lock(pag_mu_);
      copy.emplace(pag_);
    }
    auto built = std::make_shared<const andersen::Prefilter>(
        add_only && base != nullptr
            ? andersen::Prefilter::build_incremental(*copy, *base)
            : andersen::Prefilter::build(*copy));
    {
      std::lock_guard lock(pf_mu_);
      prefilter_ = std::move(built);
    }
    pf_cv_.notify_all();
  }
}

void Session::refresh_active_prefilter() {
  // batch_mu_ held: pag_ is stable, and active_prefilter_ may be written.
  std::lock_guard lock(pf_mu_);
  if (prefilter_ != nullptr && prefilter_->revision() == pag_.revision())
    active_prefilter_ = prefilter_;
  else
    active_prefilter_ = nullptr;
}

bool Session::prefilter_no_alias(pag::NodeId a, pag::NodeId b) const {
  if (!prefilter_enabled_) return false;
  std::shared_ptr<const andersen::Prefilter> p;
  {
    std::lock_guard lock(pf_mu_);
    p = prefilter_;
  }
  if (p == nullptr) return false;
  {
    std::shared_lock lock(pag_mu_);
    if (p->revision() != pag_.revision()) return false;
  }
  const bool hit = p->no_alias(a, b);
  (hit ? pf_alias_hits_ : pf_alias_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool Session::prefilter_ready() const {
  if (!prefilter_enabled_) return false;
  std::shared_ptr<const andersen::Prefilter> p;
  {
    std::lock_guard lock(pf_mu_);
    p = prefilter_;
  }
  if (p == nullptr) return false;
  std::shared_lock lock(pag_mu_);
  return p->revision() == pag_.revision();
}

bool Session::wait_for_prefilter() {
  if (!prefilter_enabled_) return false;
  std::uint32_t rev = 0;
  {
    std::shared_lock lock(pag_mu_);
    rev = pag_.revision();
  }
  std::unique_lock lock(pf_mu_);
  // Revisions are monotone, so >= rev means "covers the revision that was
  // live when the caller asked" — a racing update re-marks dirty and the
  // caller can simply wait again.
  pf_cv_.wait(lock, [&] {
    return pf_stop_ ||
           (!pf_dirty_ && prefilter_ != nullptr && prefilter_->revision() >= rev);
  });
  return !pf_stop_;
}

std::shared_ptr<const andersen::Prefilter> Session::prefilter_snapshot() const {
  std::lock_guard lock(pf_mu_);
  return prefilter_;
}

void Session::set_prefilter_paused(bool paused) {
  {
    std::lock_guard lock(pf_mu_);
    pf_paused_ = paused;
  }
  pf_cv_.notify_all();
}

pag::ReduceStats Session::reduce_stats() const {
  std::shared_lock lock(pag_mu_);
  return reduce_stats_;
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
  bool mined = false;
  {
    std::lock_guard lock(batch_mu_);
    // Index dispatch first: a covered root is answered from the immutable
    // snapshot at 0 charged steps, before prefilter or solver see it. The
    // epoch pin keeps the snapshot alive for the whole read.
    const cfl::CsIndex* index = nullptr;
    std::optional<support::EpochGuard> guard;
    if (index_enabled_) {
      guard.emplace(support::global_epoch_domain());
      index = index_.load(std::memory_order_acquire);
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      // The index caches points-to answers only; taint/depends always solve.
      if (index_enabled_ && item.kind == cfl::QueryKind::kPointsTo) {
        const cfl::CsIndex::Entry* entry =
            index != nullptr ? index->find(cfl::CsIndex::key(item.var))
                             : nullptr;
        // Serve a hit only when the request's effective budget covers the
        // recorded solve cost: a smaller budget would not have completed,
        // and outcome identity with index-off is the contract.
        const std::uint64_t effective =
            item.budget == 0 ? default_budget_
                             : std::min(item.budget, default_budget_);
        if (entry != nullptr && entry->cost <= effective) {
          ItemResult& r = result.items[i];
          r.status = cfl::QueryStatus::kComplete;
          const auto run = index->targets(*entry);
          r.objects.assign(run.begin(), run.end());
          r.charged_steps = 0;
          cx_hits_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        cx_misses_.fetch_add(1, std::memory_order_relaxed);
      }
      positions.push_back(i);
      queries.push_back(item.var);
      budgets.push_back(item.budget);
      kinds.push_back(item.kind);
      any_budget |= item.budget != 0;
      any_nonpointer |= item.kind != cfl::QueryKind::kPointsTo;
    }

    if (!queries.empty()) {
      if (prefilter_enabled_) refresh_active_prefilter();
      cfl::EngineResult er = runner_.run(
          queries,
          any_budget ? std::span<const std::uint64_t>(budgets)
                     : std::span<const std::uint64_t>(),
          any_nonpointer ? std::span<const cfl::QueryKind>(kinds)
                         : std::span<const cfl::QueryKind>());
      // Route scheduled outcomes back to input positions.
      for (std::size_t i = 0; i < er.outcomes.size(); ++i) {
        ItemResult& item = result.items[positions[er.source_index[i]]];
        item.status = er.outcomes[i].status;
        item.charged_steps = er.outcomes[i].charged_steps;
        item.objects = std::move(er.objects[i]);
      }
      result.delta = er.totals;
      result.wall_seconds = er.wall_seconds;
    }

    // Hot mining: the threshold counts solver-served *batches* a root
    // appeared in, so distinct roots are counted once per batch — a batch
    // repeating one root index_hot_threshold_ times must not promote it in
    // one shot. cx_queued_ membership is permanent, so a root is mined at
    // most once per session lifetime.
    if (index_enabled_ && !queries.empty()) {
      // Only pointer queries mine: a taint/depends root's answer set is not
      // what the index stores for that key.
      std::vector<pag::NodeId> roots;
      roots.reserve(queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (kinds[i] == cfl::QueryKind::kPointsTo) roots.push_back(queries[i]);
      }
      std::sort(roots.begin(), roots.end());
      roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
      std::lock_guard cx_lock(cx_mu_);
      for (const pag::NodeId v : roots) {
        const std::uint64_t k = cfl::CsIndex::key(v);
        if (cx_queued_.count(k) != 0) continue;
        if (++cx_counts_[v.value()] < index_hot_threshold_) continue;
        if (cx_queued_.size() >= kIndexMaxEntries) continue;
        cx_queued_.insert(k);
        cx_queue_.push_back(k);
        cx_counts_.erase(v.value());
        cx_dirty_ = true;
        mined = true;
      }
    }
  }
  if (mined) cx_cv_.notify_all();
  return result;
}

bool Session::intern_chain(std::span<const std::uint32_t> chain,
                           cfl::CtxId* out, std::string* error) {
  std::uint32_t sites = 0;
  {
    std::shared_lock lock(pag_mu_);
    sites = pag_.call_site_count();
  }
  cfl::CtxId c = cfl::ContextTable::empty();
  for (const std::uint32_t site : chain) {
    if (site >= sites)
      return fail(error, "call site out of range (graph has " +
                             std::to_string(sites) + " sites)");
    c = contexts_.push(c, pag::CallSiteId(site));
    if (!c.valid()) return fail(error, "context chain too deep");
  }
  *out = c;
  return true;
}

bool Session::run_continuation(const ContRequest& request,
                               const cfl::SeedFacts& seeds, ContResult& out,
                               std::string* error) {
  out = ContResult{};
  if (!partitioned()) return fail(error, "not a partitioned worker");
  if (!request.node.valid() || request.node.value() >= node_count())
    return fail(error, "node id out of range");
  cfl::CtxId rc = cfl::ContextTable::empty();
  if (!intern_chain(request.chain, &rc, error)) return false;

  // Serialised with batches and updates: the continuation solver shares the
  // graph, context table and jmp store with the batch plane.
  std::lock_guard lock(batch_mu_);
  const std::uint64_t busy_start = thread_cpu_ns();
  if (cont_solver_ == nullptr) {
    const cfl::Mode mode = runner_.options().mode;
    const bool sharing = mode == cfl::Mode::kDataSharing ||
                         mode == cfl::Mode::kDataSharingScheduling;
    cfl::SolverOptions solver_options = runner_.options().solver;
    solver_options.data_sharing = sharing;
    cont_solver_ = std::make_unique<cfl::Solver>(
        pag_, contexts_, sharing ? &store_ : nullptr, solver_options);
    cont_solver_->set_partition(&partition_view_);
  }
  cont_solver_->set_seed_facts(&seeds);
  cont_solver_->set_query_budget(request.budget);
  const std::uint64_t charged_before = cont_solver_->counters().charged_steps;
  cfl::QueryResult qr;
  cont_solver_->run_config(request.node, rc, request.dir, qr);
  out.charged_steps = cont_solver_->counters().charged_steps - charged_before;
  cont_solver_->set_seed_facts(nullptr);
  cont_solver_->set_query_budget(0);

  // Results and escapes cross the wire as chains, not CtxIds (the peer's
  // context table interns independently). for_each_site walks top-first;
  // the wire format is bottom-first.
  const auto config = [&](pag::NodeId node, cfl::CtxId ctx) {
    WireTuple t{node, {}};
    contexts_.for_each_site(
        ctx, [&](pag::CallSiteId s) { t.chain.push_back(s.value()); });
    std::reverse(t.chain.begin(), t.chain.end());
    return t;
  };
  const auto packed = [&](std::uint64_t key) {  // (node << 32) | ctx
    return config(pag::NodeId(static_cast<std::uint32_t>(key >> 32)),
                  cfl::CtxId(static_cast<std::uint32_t>(key)));
  };
  out.status = qr.status;
  std::vector<cfl::EscapeRecord> raw;
  cont_solver_->take_escapes(raw);
  out.records.reserve(qr.tuples.size() + raw.size());
  for (const cfl::PtPair& t : qr.tuples)
    out.records.push_back(
        {ContRecord::Kind::kTuple, 0, config(t.node, t.ctx), {}});
  for (const cfl::EscapeRecord& e : raw)
    out.records.push_back(
        {e.kind == cfl::EscapeRecord::Kind::kRequest ? ContRecord::Kind::kRequest
                                                     : ContRecord::Kind::kUnion,
         static_cast<std::uint8_t>(e.dir == cfl::Direction::kBackward ? 0 : 1),
         packed(e.src), packed(e.dst)});
  part_continuations_.fetch_add(1, std::memory_order_relaxed);
  part_escapes_.fetch_add(raw.size(), std::memory_order_relaxed);
  part_seeded_.fetch_add(cont_solver_->seeded_tuples(),
                         std::memory_order_relaxed);
  part_busy_ns_.fetch_add(thread_cpu_ns() - busy_start,
                          std::memory_order_relaxed);
  return true;
}

Session::PartitionInfo Session::partition_info() const {
  PartitionInfo info;
  info.enabled = partitioned();
  if (!info.enabled) return info;
  info.id = partition_id_;
  info.parts = partition_map_->parts;
  info.continuations = part_continuations_.load(std::memory_order_relaxed);
  info.escapes = part_escapes_.load(std::memory_order_relaxed);
  info.seeded_tuples = part_seeded_.load(std::memory_order_relaxed);
  info.busy_ns = part_busy_ns_.load(std::memory_order_relaxed);
  return info;
}

void Session::compactor_main() {
  for (;;) {
    std::vector<std::uint64_t> want;
    std::uint64_t generation = 0;
    {
      std::unique_lock lock(cx_mu_);
      cx_cv_.wait(lock, [&] { return cx_stop_ || cx_dirty_; });
      if (cx_stop_) return;
      cx_dirty_ = false;
      cx_building_ = true;
      generation = cx_generation_;
      want = std::move(cx_queue_);
      cx_queue_.clear();
    }
    // The queue is the delta — fresh hot roots plus the entries an update
    // dropped. Only those are cold-solved; the pass merges them into the
    // published index, whose other entries are still exact.
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    if (want.size() > kIndexMaxEntries) want.resize(kIndexMaxEntries);

    std::unique_ptr<const cfl::CsIndex> built;
    if (!want.empty()) {
      // Copy the live graph; the build itself holds no session lock, so
      // batches and updates proceed while it runs.
      std::optional<pag::Pag> copy;
      {
        std::shared_lock lock(pag_mu_);
        copy.emplace(pag_);
      }
      built = cfl::build_csindex(*copy, want, cx_solver_options_, &cx_cancel_);
    }

    {
      std::lock_guard lock(cx_mu_);
      cx_building_ = false;
      if (cx_stop_) return;
      if (built != nullptr && generation == cx_generation_) {
        // Same generation: no update swapped the index since the queue was
        // taken, so it answers for the graph the pass solved against.
        const cfl::CsIndex* old = index_.load(std::memory_order_relaxed);
        if (old != nullptr) built = old->merged(*built, kIndexMaxEntries);
        index_.store(built.release(), std::memory_order_release);
        if (old != nullptr) support::global_epoch_domain().retire_object(old);
        ++cx_builds_;
      } else if (!want.empty()) {
        // Cancelled, or an update landed mid-build: the answers may be for a
        // graph that is no longer live. Discard and re-queue — the published
        // index was already pruned by the update itself.
        cx_queue_.insert(cx_queue_.end(), want.begin(), want.end());
        cx_dirty_ = true;
      }
    }
    cx_cv_.notify_all();
  }
}

Session::IndexInfo Session::index_info() const {
  IndexInfo info;
  info.enabled = index_enabled_;
  if (!index_enabled_) return info;
  info.hits = cx_hits_.load(std::memory_order_relaxed);
  info.misses = cx_misses_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(cx_mu_);
    info.builds = cx_builds_;
    info.invalidated = cx_invalidated_;
    info.pending = cx_queue_.size();
  }
  support::EpochGuard guard(support::global_epoch_domain());
  const cfl::CsIndex* current = index_.load(std::memory_order_acquire);
  if (current != nullptr) {
    const cfl::CsIndexStats s = current->stats();
    info.entries = s.entries;
    info.targets = s.targets;
    info.build_charged_steps = s.build_charged_steps;
    info.memory_bytes = s.memory_bytes;
    info.revision = s.revision;
  }
  return info;
}

bool Session::wait_for_index() {
  if (!index_enabled_) return false;
  std::unique_lock lock(cx_mu_);
  cx_cv_.wait(lock, [&] {
    return cx_stop_ || (!cx_dirty_ && cx_queue_.empty() && !cx_building_);
  });
  return !cx_stop_;
}

void Session::note_hot(pag::NodeId var) {
  if (!index_enabled_) return;
  bool notify = false;
  {
    std::lock_guard lock(cx_mu_);
    const std::uint64_t k = cfl::CsIndex::key(var);
    if (cx_queued_.size() < kIndexMaxEntries && cx_queued_.insert(k).second) {
      cx_queue_.push_back(k);
      cx_dirty_ = true;
      notify = true;
    }
  }
  if (notify) cx_cv_.notify_all();
}

bool Session::update(const pag::Delta& delta, std::string* error,
                     UpdateStats* stats) {
  // Exclude query batches for the whole apply: the solver must never run
  // half against the old graph and half against the new one.
  std::lock_guard batch_lock(batch_mu_);

  pag::ApplyStats apply{};
  std::string apply_error;
  // The delta is recorded against the faithful base graph: it may remove an
  // edge that reduction already dropped from the serving graph.
  auto next_base =
      pag::apply_delta(base_pag_ ? *base_pag_ : pag_, delta, &apply, &apply_error);
  if (!next_base) return fail(error, "delta rejected: " + apply_error);

  UpdateStats out;
  out.apply = apply;

  std::optional<pag::Pag> next_serving;
  if (reduce_graph_)
    next_serving = pag::reduce_unmatched_parens(*next_base, &out.reduce);

  // The cone's backward plane, read by the index prune below.
  std::vector<std::uint8_t> cone;
  std::vector<std::uint8_t>* const cone_out = index_enabled_ ? &cone : nullptr;

  {
    // Exclude the lock-free control plane (save/load, validation reads) only
    // for the invalidate + swap window.
    std::unique_lock pag_lock(pag_mu_);
    if (next_serving) {
      const pag::Delta sdiff = serving_diff(pag_, *next_serving, delta);
      out.invalidate =
          cfl::invalidate_sharing_state(pag_, *next_serving, sdiff, contexts_,
                                        store_, invalidate_options_, cone_out);
      // Move-assign in place: the Pag's address is what the warm BatchRunner
      // and its solvers hold, and that does not change.
      pag_ = std::move(*next_serving);
      *base_pag_ = std::move(*next_base);
    } else {
      out.invalidate =
          cfl::invalidate_sharing_state(pag_, *next_base, delta, contexts_,
                                        store_, invalidate_options_, cone_out);
      pag_ = std::move(*next_base);
    }
    reduce_stats_ = out.reduce;
    out.revision = pag_.revision();
  }

  if (index_enabled_) {
    // Drop exactly the entries the jmp eviction above evicts for a finished
    // backward entry on the same root: the root is marked in the cone's
    // backward plane, or lies beyond the graphs' node range. Restamp the
    // survivors to the new revision and re-queue the dropped keys for
    // compaction. The generation bump makes any mid-build compactor pass
    // discard its (old-graph) result at publish time.
    bool notify = false;
    {
      std::lock_guard cx_lock(cx_mu_);
      ++cx_generation_;
      const cfl::CsIndex* old = index_.load(std::memory_order_relaxed);
      if (old != nullptr) {
        std::vector<std::uint64_t> dirty;  // key-sorted, as entries() is
        for (const cfl::CsIndex::Entry& e : old->entries()) {
          const std::uint32_t root = cfl::CsIndex::key_node(e.key).value();
          if (root >= cone.size() || cone[root] != 0) dirty.push_back(e.key);
        }
        cx_invalidated_ += dirty.size();
        std::unique_ptr<const cfl::CsIndex> next =
            old->without(dirty, out.revision);
        index_.store(next.release(), std::memory_order_release);
        support::global_epoch_domain().retire_object(old);
        if (!dirty.empty()) {
          cx_queue_.insert(cx_queue_.end(), dirty.begin(), dirty.end());
          cx_dirty_ = true;
          notify = true;
        }
      }
    }
    if (notify) cx_cv_.notify_all();
  }

  if (prefilter_enabled_) {
    // Under batch_mu_: the next batch must not short-circuit against the old
    // revision's rows. The batch-start refresh would catch the mismatch too;
    // clearing here makes the invariant local.
    active_prefilter_ = nullptr;
    {
      std::lock_guard pf_lock(pf_mu_);
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
  std::optional<pag::Delta> delta;
  {
    // Parse against a stable view of the graph (bounds checks read pag_;
    // reduction keeps node ids, so serving and base agree on the id space).
    std::shared_lock lock(pag_mu_);
    delta = pag::read_delta(in, pag_, &parse_error);
  }
  if (!delta) return fail(error, path + ": " + parse_error);
  return update(*delta, error, stats);
}

support::QueryCounters Session::lifetime_totals() const {
  std::lock_guard lock(batch_mu_);
  support::QueryCounters totals = runner_.lifetime_totals();
  totals.prefilter_hits += pf_alias_hits_.load(std::memory_order_relaxed);
  totals.prefilter_misses += pf_alias_misses_.load(std::memory_order_relaxed);
  return totals;
}

bool Session::save(const std::string& path, std::string* error) {
  std::shared_lock lock(pag_mu_);
  return cfl::save_sharing_state_file_v3(path, pag_, contexts_, store_, error);
}

bool Session::load(const std::string& path, std::string* error) {
  std::shared_lock lock(pag_mu_);
  return cfl::load_sharing_state_file_v3(path, pag_, contexts_, store_,
                                         cfl::StateLoadMode::kAuto, error);
}

bool Session::spill(const std::string& state_path,
                    const std::string& spill_pag_path, bool* wrote_pag,
                    std::string* error) {
  // The index itself is rebuilt, never spilled; what survives eviction is
  // the hot-region set (published entries + still-queued roots), written as
  // the v3 advisory hot section so reopen re-seeds the compactor.
  std::vector<std::uint64_t> hot;
  if (index_enabled_) {
    {
      support::EpochGuard guard(support::global_epoch_domain());
      const cfl::CsIndex* current = index_.load(std::memory_order_acquire);
      if (current != nullptr)
        for (const cfl::CsIndex::Entry& e : current->entries())
          hot.push_back(e.key);
    }
    {
      std::lock_guard cx_lock(cx_mu_);
      hot.insert(hot.end(), cx_queue_.begin(), cx_queue_.end());
    }
    std::sort(hot.begin(), hot.end());
    hot.erase(std::unique(hot.begin(), hot.end()), hot.end());
    if (hot.size() > kIndexMaxEntries) hot.resize(kIndexMaxEntries);
  }
  std::shared_lock lock(pag_mu_);
  if (wrote_pag != nullptr) *wrote_pag = false;
  std::int64_t revision_override = -1;
  if (pag_.revision() != 0) {
    // The graph drifted from its source file (applied deltas). Spill the
    // faithful base next to the state and stamp both epoch 0: reloading the
    // spilled graph yields this exact content at revision 0, so the pair is
    // self-consistent and the fingerprint guard still protects it.
    std::ostringstream os;
    pag::write_pag(os, base_pag_ ? *base_pag_ : pag_);
    if (!cfl::write_file_atomic(spill_pag_path, os.str(), error)) return false;
    if (wrote_pag != nullptr) *wrote_pag = true;
    revision_override = 0;
  }
  return cfl::save_sharing_state_file_v3(state_path, pag_, contexts_, store_,
                                         error, revision_override, hot);
}

std::uint64_t Session::resident_bytes() const {
  std::shared_lock lock(pag_mu_);
  std::uint64_t total = pag_.memory_bytes() + store_.memory_bytes() +
                        contexts_.size() * 16 +  // entry + intern slot
                        runner_.schedule_plan_bytes();
  if (base_pag_) total += base_pag_->memory_bytes();
  return total;
}

std::uint32_t Session::node_count() const {
  std::shared_lock lock(pag_mu_);
  return pag_.node_count();
}

bool Session::is_variable_node(pag::NodeId n) const {
  std::shared_lock lock(pag_mu_);
  return n.valid() && n.value() < pag_.node_count() && pag_.is_variable(n);
}

std::uint32_t Session::revision() const {
  std::shared_lock lock(pag_mu_);
  return pag_.revision();
}

}  // namespace parcfl::service
