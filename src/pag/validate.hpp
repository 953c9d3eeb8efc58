#pragma once
// Structural validation of a PAG against the Fig. 1 well-formedness rules:
// edges connect only local variables unless they are assign_g edges involving
// a global; new edges target locals and source objects; objects never appear
// where variables are required; aux ids are in range.

#include <cstdint>
#include <string>
#include <vector>

#include "pag/pag.hpp"

namespace parcfl::pag {

/// The per-edge rule: nullptr when an edge of `kind` into a `dst`-kind node
/// from a `src`-kind node with payload `aux` is well-formed in a graph that
/// declares `fields` field ids and `call_sites` call-site ids, else the rule
/// it breaks. validate() and the .pag and delta readers all apply it.
const char* edge_violation(EdgeKind kind, NodeKind dst, NodeKind src,
                           std::uint32_t aux, std::uint32_t fields,
                           std::uint32_t call_sites);

/// Returns a list of human-readable violations (empty means well-formed).
std::vector<std::string> validate(const Pag& pag);

/// Convenience: true iff validate(pag) is empty.
bool is_well_formed(const Pag& pag);

}  // namespace parcfl::pag
