#pragma once
// Text (de)serialisation for PAGs. This is the integration seam the paper's
// toolchain would use: a Java frontend (Soot) exports its pointer-assignment
// graph in this format, and parcfl analyses it. The same format drives the
// repository's offline test fixtures.
//
// Format (line-oriented, '#' comments, whitespace-separated):
//
//   parcfl-pag 1
//   counts nodes=N fields=F callsites=C types=T methods=M
//   node <id> <l|g|o> [type=<t>] [method=<m>] [app=<0|1>] [name=<str>]
//   edge new <dst> <src>
//   edge assignl <dst> <src>
//   edge assigng <dst> <src>
//   edge ld <dst> <src> f=<field>
//   edge st <dst> <src> f=<field>
//   edge param <dst> <src> cs=<site>
//   edge ret <dst> <src> cs=<site>
//
// Node ids must be dense 0..N-1 and declared before use.

#include <iosfwd>
#include <optional>
#include <string>

#include "pag/pag.hpp"

namespace parcfl::pag {

/// Serialise to the v1 text format. Node names are emitted when present.
void write_pag(std::ostream& os, const Pag& pag);
std::string write_pag_string(const Pag& pag);

/// Parse the v1 text format. Every edge must pass pag::edge_violation
/// against the node kinds and the counts line's field and call-site counts.
/// On failure returns std::nullopt and fills *error (if non-null) with a
/// message including the line number.
std::optional<Pag> read_pag(std::istream& is, std::string* error = nullptr);
std::optional<Pag> read_pag_string(const std::string& text, std::string* error = nullptr);

}  // namespace parcfl::pag
