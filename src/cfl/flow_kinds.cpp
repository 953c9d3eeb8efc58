// The taint and depends query kinds (DESIGN.md §15): the walker of
// walk.hpp with `new` edges skipped, instantiated here rather than in
// solver.cpp (see walk.hpp for why).

#include "cfl/walk.hpp"
#include "support/check.hpp"

namespace parcfl::cfl {

template const Solver::ResultSet&
Solver::walk<Direction::kForward, Solver::OnNew::kSkip>(pag::NodeId, CtxId);
template const Solver::ResultSet&
Solver::walk<Direction::kBackward, Solver::OnNew::kSkip>(pag::NodeId, CtxId);

QueryResult Solver::taint(pag::NodeId v) {
  QueryResult out;
  taint(v, out);
  return out;
}

QueryResult Solver::depends(pag::NodeId v) {
  QueryResult out;
  depends(v, out);
  return out;
}

void Solver::taint(pag::NodeId v, QueryResult& out) {
  PARCFL_CHECK_MSG(pag_->is_variable(v), "taint takes a variable node");
  run_query(Direction::kForward, OnNew::kSkip, v, out);
}

void Solver::depends(pag::NodeId v, QueryResult& out) {
  PARCFL_CHECK_MSG(pag_->is_variable(v), "depends takes a variable node");
  run_query(Direction::kBackward, OnNew::kSkip, v, out);
}

}  // namespace parcfl::cfl
