#include "cfl/invalidate.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace parcfl::cfl {

namespace {

using pag::EdgeKind;

/// The edge kinds a ReachableNodes walk steps across *in its own direction*:
/// backward walks follow these in-edges, forward walks these out-edges. Loads
/// are included because the heap match continues the walk at the load's far
/// side (base for backward, destination for forward) in the same direction.
constexpr EdgeKind kSameDirectionKinds[] = {
    EdgeKind::kNew,         EdgeKind::kAssignLocal, EdgeKind::kAssignGlobal,
    EdgeKind::kParam,       EdgeKind::kRet,         EdgeKind::kLoad,
};

/// Marks (node, direction) pairs whose walk cone could cross a touched node.
/// Propagation is the *reverse* of the solver's step relation, over the union
/// of old and new adjacency.
class ConeMarker {
 public:
  ConeMarker(const pag::Pag& old_pag, const pag::Pag& new_pag,
             bool field_approximation)
      : old_(old_pag),
        new_(new_pag),
        n_(std::max(old_pag.node_count(), new_pag.node_count())),
        backward_(n_, 0),
        forward_(n_, 0),
        field_approximation_(field_approximation) {
    if (field_approximation_) {
      const std::uint32_t fields =
          std::max(old_pag.field_count(), new_pag.field_count());
      field_loads_done_.assign(fields, 0);
      field_stores_done_.assign(fields, 0);
    }
  }

  void seed(std::uint32_t v) {
    mark_backward(v);
    mark_forward(v);
  }

  void run() {
    while (!work_.empty()) {
      const auto [u, dir] = work_.back();
      work_.pop_back();
      if (dir == 0)
        propagate_backward(u);
      else
        propagate_forward(u);
    }
  }

  bool backward(std::uint32_t v) const { return backward_[v] != 0; }
  bool forward(std::uint32_t v) const { return forward_[v] != 0; }

  std::uint32_t backward_count() const {
    return static_cast<std::uint32_t>(
        std::count(backward_.begin(), backward_.end(), 1));
  }
  std::uint32_t forward_count() const {
    return static_cast<std::uint32_t>(
        std::count(forward_.begin(), forward_.end(), 1));
  }
  std::vector<std::uint8_t> take_backward() { return std::move(backward_); }

 private:
  void mark_backward(std::uint32_t v) {
    if (backward_[v] != 0) return;
    backward_[v] = 1;
    work_.emplace_back(v, 0);
  }
  void mark_forward(std::uint32_t v) {
    if (forward_[v] != 0) return;
    forward_[v] = 1;
    work_.emplace_back(v, 1);
  }

  template <class Fn>
  void each_graph(std::uint32_t v, Fn&& fn) {
    if (v < old_.node_count()) fn(old_);
    if (v < new_.node_count()) fn(new_);
  }

  /// (u, B) is dirty. Any v whose backward walk steps *to* u is dirty too:
  /// v steps to u along v's in-edges, i.e. u's same-direction out-edges.
  /// Store edges couple the forward plane: a forward walk reaching an aliased
  /// base q spills the store's source y into a backward walk (y = in-store of
  /// q), and a forward walk at a store's source z spawns a backward walk at
  /// the base q (q = out-store of z) — reverse both into forward marks.
  void propagate_backward(std::uint32_t u) {
    const pag::NodeId node(u);
    each_graph(u, [&](const pag::Pag& g) {
      for (const EdgeKind k : kSameDirectionKinds)
        for (const pag::HalfEdge& he : g.out_edges(node, k))
          mark_backward(he.other.value());
      for (const pag::HalfEdge& he : g.out_edges(node, EdgeKind::kStore))
        mark_forward(he.other.value());
      for (const pag::HalfEdge& he : g.in_edges(node, EdgeKind::kStore))
        mark_forward(he.other.value());
    });
    if (field_approximation_) couple_fields_backward(u);
  }

  /// (u, F) is dirty. Any v whose forward walk steps to u is dirty (u's
  /// same-direction in-edges); and if u is an object, a backward walk that
  /// discovers u may spawn the forward walk from u, so (u, B) is dirty too.
  void propagate_forward(std::uint32_t u) {
    const pag::NodeId node(u);
    each_graph(u, [&](const pag::Pag& g) {
      for (const EdgeKind k : kSameDirectionKinds)
        for (const pag::HalfEdge& he : g.in_edges(node, k))
          mark_forward(he.other.value());
    });
    const bool is_object = (u < new_.node_count() && new_.is_object(node)) ||
                           (u < old_.node_count() && old_.is_object(node));
    if (is_object) mark_backward(u);
    if (field_approximation_) couple_fields_forward(u);
  }

  /// Field approximation matches loads against every store on the field with
  /// no alias walk, so a dirty store source dirties every load destination of
  /// that field (and vice versa). Processed once per field and direction.
  void couple_fields_backward(std::uint32_t u) {
    const pag::NodeId node(u);
    each_graph(u, [&](const pag::Pag& g) {
      // u is a store *source* on field f iff it has an out-store edge.
      for (const pag::HalfEdge& he : g.out_edges(node, EdgeKind::kStore))
        dirty_field_loads(he.aux);
    });
  }
  void couple_fields_forward(std::uint32_t u) {
    const pag::NodeId node(u);
    each_graph(u, [&](const pag::Pag& g) {
      // u is a load *destination* on field f iff it has an in-load edge.
      for (const pag::HalfEdge& he : g.in_edges(node, EdgeKind::kLoad))
        dirty_field_stores(he.aux);
    });
  }
  void dirty_field_loads(std::uint32_t f) {
    if (f >= field_loads_done_.size() || field_loads_done_[f] != 0) return;
    field_loads_done_[f] = 1;
    const pag::FieldId field(f);
    for (const pag::HalfEdge& ld : old_.loads_on_field(field))
      mark_backward(ld.aux);  // aux = load destination x
    for (const pag::HalfEdge& ld : new_.loads_on_field(field))
      mark_backward(ld.aux);
  }
  void dirty_field_stores(std::uint32_t f) {
    if (f >= field_stores_done_.size() || field_stores_done_[f] != 0) return;
    field_stores_done_[f] = 1;
    const pag::FieldId field(f);
    for (const pag::HalfEdge& st : old_.stores_on_field(field))
      mark_forward(st.aux);  // aux = store source y
    for (const pag::HalfEdge& st : new_.stores_on_field(field))
      mark_forward(st.aux);
  }

  const pag::Pag& old_;
  const pag::Pag& new_;
  std::uint32_t n_;
  std::vector<std::uint8_t> backward_, forward_;
  std::vector<std::pair<std::uint32_t, std::uint8_t>> work_;
  bool field_approximation_;
  std::vector<std::uint8_t> field_loads_done_, field_stores_done_;
};

/// Call sites whose param/ret edges exist in `old_pag` but vanished entirely
/// from `new_pag`. A context chain mentioning one can never be re-derived, so
/// entries keyed by it are dead weight — and evicting them now means a later
/// frontend reusing the site id cannot meet a stale chain.
std::vector<std::uint8_t> retired_sites(const pag::Pag& old_pag,
                                        const pag::Pag& new_pag) {
  const std::uint32_t sites =
      std::max(old_pag.call_site_count(), new_pag.call_site_count());
  std::vector<std::uint8_t> in_old(sites, 0), in_new(sites, 0);
  auto scan = [](const pag::Pag& g, std::vector<std::uint8_t>& used) {
    for (const pag::Edge& e : g.edges())
      if (e.kind == EdgeKind::kParam || e.kind == EdgeKind::kRet)
        used[e.aux] = 1;
  };
  scan(old_pag, in_old);
  scan(new_pag, in_new);
  for (std::uint32_t s = 0; s < sites; ++s) in_old[s] &= !in_new[s];
  return in_old;  // now: used before, unused after
}

}  // namespace

InvalidateStats invalidate_sharing_state(
    const pag::Pag& old_pag, const pag::Pag& new_pag, const pag::Delta& delta,
    const ContextTable& contexts, JmpStore& store,
    const InvalidateOptions& options,
    std::vector<std::uint8_t>* backward_cone) {
  InvalidateStats stats;
  stats.entries_before = store.entry_count();

  ConeMarker marker(old_pag, new_pag, options.field_approximation);
  std::uint32_t seeds = 0;
  auto seed = [&](pag::NodeId v) {
    if (!v.valid()) return;
    marker.seed(v.value());
    ++seeds;
  };
  for (const pag::Edge& e : delta.added_edges()) {
    seed(e.dst);
    seed(e.src);
  }
  for (const pag::Edge& e : delta.removed_edges()) {
    seed(e.dst);
    seed(e.src);
  }
  for (const pag::NodeId v : delta.removed_nodes()) seed(v);
  stats.touched_nodes = seeds;
  marker.run();

  const std::vector<std::uint8_t> retired = retired_sites(old_pag, new_pag);
  const bool any_retired =
      std::find(retired.begin(), retired.end(), 1) != retired.end();
  stats.retired_call_sites = static_cast<std::uint32_t>(
      std::count(retired.begin(), retired.end(), 1));

  // Per-ctx memo of "chain mentions a retired site": -1 unknown, else 0/1.
  std::vector<std::int8_t> ctx_retired;
  if (any_retired)
    ctx_retired.assign(static_cast<std::size_t>(contexts.size()), -1);
  auto chain_retired = [&](std::uint32_t ctx) -> bool {
    if (!any_retired) return false;
    // Walk down to the first cached ancestor, then fill the path back up.
    std::vector<std::uint32_t> path;
    CtxId cur(ctx);
    std::int8_t result = 0;
    for (;;) {
      if (cur == ContextTable::empty()) break;
      if (cur.value() < ctx_retired.size() && ctx_retired[cur.value()] >= 0) {
        result = ctx_retired[cur.value()];
        break;
      }
      const std::uint32_t site = contexts.top(cur).value();
      if (site < retired.size() && retired[site] != 0) {
        result = 1;
        // Ancestors stay unknown (they may be clean); this ctx and the
        // descendants on `path` are definitely dirty.
        if (cur.value() < ctx_retired.size()) ctx_retired[cur.value()] = 1;
        break;
      }
      path.push_back(cur.value());
      cur = contexts.pop(cur);
    }
    for (const std::uint32_t c : path)
      if (c < ctx_retired.size()) ctx_retired[c] = result;
    return result != 0;
  };

  const std::uint32_t known_nodes =
      std::max(old_pag.node_count(), new_pag.node_count());
  using Evict = JmpStore::Evict;
  const JmpStore::Evicted evicted = store.erase_if([&](std::uint64_t key) {
    const auto dir = static_cast<Direction>(key & 1);
    const auto ctx = static_cast<std::uint32_t>((key >> 1) & 0xffffffffu);
    const auto node = static_cast<std::uint32_t>(key >> 33);
    if (node >= known_nodes) return Evict::kEntry;  // foreign state
    if (chain_retired(ctx)) return Evict::kEntry;
    const bool marked = dir == Direction::kBackward ? marker.backward(node)
                                                    : marker.forward(node);
    return marked ? Evict::kFinished : Evict::kKeep;
  });
  stats.evicted = evicted.dropped;
  stats.carried_unfinished = evicted.carried;
  stats.kept = stats.entries_before - stats.evicted - stats.carried_unfinished;
  stats.marked_backward = marker.backward_count();
  stats.marked_forward = marker.forward_count();
  if (backward_cone != nullptr) *backward_cone = marker.take_backward();
  return stats;
}

}  // namespace parcfl::cfl
