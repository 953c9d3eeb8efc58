#pragma once
// Brute-force grammar oracle — the second, fully independent ground truth for
// tiny PAGs. It validates the ExactOracle (and transitively the solver):
//
//  * A generic Earley parser for arbitrary context-free grammars.
//  * The LFS grammar (paper eq. 2) over the *doubled* edge alphabet
//    (every PAG edge and its inverse), built programmatically per field:
//        F  -> n | n R          R  -> A | A R
//        A  -> a | s_f AL l_f   AL -> Fb F
//        Fb -> nb | Rb nb       Rb -> Ab | Ab Rb
//        Ab -> ab | lb_f AL sb_f
//  * A path enumerator that walks every path up to a length bound from an
//    object through the doubled graph, maintaining the RCS context stack
//    incrementally (entries push, exits pop-or-allow-on-empty; assign_g
//    clears — identical partial-balance semantics to Algorithm 1), and
//    accepts a variable iff some realisable path's label string parses as F.
//
// Exponential in path length: intended for graphs of ~6-10 nodes.

#include <cstdint>
#include <vector>

#include "pag/pag.hpp"

namespace parcfl::oracle {

// ---- generic Earley parser --------------------------------------------------

/// Symbols: [0, nonterminal_count) are nonterminals; anything >= that is a
/// terminal id as used in the input string.
struct Grammar {
  std::uint32_t nonterminal_count = 0;
  std::uint32_t start = 0;
  struct Production {
    std::uint32_t lhs;
    std::vector<std::uint32_t> rhs;  // empty = epsilon
  };
  std::vector<Production> productions;
};

/// True iff `input` (a sequence of terminal ids) derives from g.start.
bool earley_accepts(const Grammar& g, const std::vector<std::uint32_t>& input);

// ---- LFS brute force --------------------------------------------------------

struct BruteForceOptions {
  std::uint32_t max_path_length = 12;
  bool context_sensitive = true;
  std::uint64_t max_paths = 5'000'000;  // per-run enumeration budget
};

/// The LFS grammar over the doubled alphabet for `field_count` fields.
/// Terminal ids (see earley.cpp) are dense after the nonterminals.
Grammar build_lfs_grammar(std::uint32_t field_count);

/// Ground-truth grammars for the service's other query kinds (DESIGN.md §15),
/// sharing the LFS production set with a different start symbol:
///  * taint — forward value flow between variables: nonempty sequences of A
///    elements (assigns, incl. param/ret under RCS, and st(f)..alias..ld(f)
///    heap groups), i.e. start = R;
///  * depends — backward data-dependence slices: the inverse Ab sequences,
///    start = Rb.
/// Neither derives the empty string; brute_force_reach accepts the query root
/// itself separately (the solver accepts it at zero consumed symbols).
Grammar build_taint_grammar(std::uint32_t field_count);
Grammar build_depends_grammar(std::uint32_t field_count);

struct BruteForceResult {
  std::vector<std::uint32_t> vars;  // sorted, deduplicated
  /// True when the enumeration budget ran out before all paths up to
  /// max_path_length were explored (cyclic graphs explode combinatorially).
  /// When false, `vars` is exactly the set witnessed by short paths; when
  /// true it is still a sound under-approximation.
  bool truncated = false;
};

/// All variables object o flows to along some realisable LFS path of length
/// <= max_path_length. Uses iterative deepening so that short paths are
/// always found before the enumeration budget can run out on longer ones.
BruteForceResult brute_force_flows_to(const pag::Pag& pag, pag::NodeId o,
                                      const BruteForceOptions& options = {});

/// Grammar-generalised enumeration: all variables reachable from `root` along
/// some realisable path (<= max_path_length) whose label string derives from
/// `grammar.start`, plus `root` itself when it is a variable — intended for
/// the taint/depends grammars, whose accepting start state covers the empty
/// path. Differentially pins Solver::taint and Solver::depends.
BruteForceResult brute_force_reach(const pag::Pag& pag, pag::NodeId root,
                                   const Grammar& grammar,
                                   const BruteForceOptions& options = {});

}  // namespace parcfl::oracle
