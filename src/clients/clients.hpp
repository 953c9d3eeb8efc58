#pragma once
// Analysis clients — the consumers the paper motivates demand-driven pointer
// analysis with (§I: debugging, verification, alias disambiguation, and
// clients like null-pointer detection and type-cast checking, §IV-A/§V).
//
// Everything here is built on top of a PointsToTable: the materialised
// result of a batch engine run (or of individual solver queries). Clients
// are deliberately conservative about incomplete answers: a query that ran
// out of budget can prove nothing.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cfl/engine.hpp"
#include "frontend/lower.hpp"
#include "pag/pag.hpp"

namespace parcfl::clients {

/// Materialised points-to results for a set of variables.
class PointsToTable {
 public:
  /// Build from a batch engine run. The run must have been made with
  /// EngineOptions::collect_objects = true (checked).
  static PointsToTable from_engine_result(const cfl::EngineResult& result);

  /// Build by querying each variable with the given solver.
  static PointsToTable from_solver(cfl::Solver& solver,
                                   std::span<const pag::NodeId> vars);

  /// Sorted object ids for v; empty when v was never queried.
  std::span<const pag::NodeId> points_to(pag::NodeId v) const;

  /// True iff v was queried and its answer is complete (within budget).
  bool is_complete(pag::NodeId v) const;

  bool contains(pag::NodeId v) const { return rows_.contains(v.value()); }
  std::size_t size() const { return rows_.size(); }

  /// Conservative alias test over the table: kNo needs both answers complete.
  cfl::Solver::AliasAnswer may_alias(pag::NodeId a, pag::NodeId b) const;

  /// Partition the queried variables into alias classes: the connected
  /// components of the "shares an object" relation. Variables with empty
  /// points-to sets form singleton classes. Classes are returned largest
  /// first; each class is sorted.
  std::vector<std::vector<pag::NodeId>> alias_classes() const;

 private:
  struct Row {
    std::vector<pag::NodeId> objects;  // sorted
    bool complete = true;
  };
  std::unordered_map<std::uint32_t, Row> rows_;
};

// ---- cast-safety client ------------------------------------------------------

enum class CastVerdict : std::uint8_t {
  kSafe,      // every object src may point to is a subtype of the target
  kMayFail,   // some pointed-to object's type is not a subtype
  kUnknown,   // the points-to answer was incomplete
};

struct CastReport {
  frontend::CastSite site;
  CastVerdict verdict;
  pag::NodeId witness;  // an offending object for kMayFail
};

/// Check every recorded cast in `lowered` against the table. `analysis_pag`
/// is the graph the table was built over and `remap` (from
/// pag::collapse_assign_cycles) translates lowered node ids into its ids;
/// pass lowered.pag and an empty remap when no collapsing was done.
std::vector<CastReport> check_casts(const frontend::Program& program,
                                    const frontend::LoweredProgram& lowered,
                                    const pag::Pag& analysis_pag,
                                    const PointsToTable& table,
                                    std::span<const pag::NodeId> remap = {});

// ---- nullness client ---------------------------------------------------------

struct NullnessReport {
  pag::NodeId base;     // dereference base variable
  bool may_be_null;     // its points-to set contains a null object
  bool complete;        // answer within budget
};

/// Classify every load/store base in application code. `null_objects` is the
/// sorted set of object nodes modelling null.
std::vector<NullnessReport> check_dereferences(
    const pag::Pag& pag, const PointsToTable& table,
    std::span<const pag::NodeId> null_objects);

// ---- flow-query clients (taint / dependence; DESIGN.md §15) -----------------

enum class FlowVerdict : std::uint8_t {
  kFlows,    // a realisable path proves the flow/dependence
  kNoFlow,   // the traversal completed and found no path
  kUnknown,  // the traversal was truncated before the answer was settled
};

/// Forward value-flow query: may a value read through variable `source` reach
/// variable `sink`? One Solver::taint traversal, then a membership test —
/// the embedded form of the service's `taint` verb
/// (identical ternary, so a client library and a wire client agree).
/// Conservative like everything here: kNoFlow needs a complete traversal.
FlowVerdict taint_flows(cfl::Solver& solver, pag::NodeId source,
                        pag::NodeId sink);

/// Backward data-dependence query: may variable `x`'s value depend on
/// variable `y`? One Solver::depends traversal, then a membership test.
FlowVerdict depends_on(cfl::Solver& solver, pag::NodeId x, pag::NodeId y);

// ---- mod-ref client ----------------------------------------------------------

/// May-read / may-write sets of heap cells (object, field) per method,
/// derived from the points-to sets of load/store base variables.
class ModRefAnalysis {
 public:
  ModRefAnalysis(const pag::Pag& pag, const PointsToTable& table);

  /// Sorted (object<<32|field) cell keys the method may read / write.
  std::span<const std::uint64_t> reads(pag::MethodId m) const;
  std::span<const std::uint64_t> writes(pag::MethodId m) const;

  /// Two methods interfere when one may write a cell the other accesses.
  bool interferes(pag::MethodId a, pag::MethodId b) const;

  static std::uint64_t cell(pag::NodeId object, std::uint32_t field) {
    return (static_cast<std::uint64_t>(object.value()) << 32) | field;
  }

 private:
  std::vector<std::vector<std::uint64_t>> reads_;
  std::vector<std::vector<std::uint64_t>> writes_;
};

}  // namespace parcfl::clients
