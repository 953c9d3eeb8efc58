#pragma once
// parcfl — Parallel Pointer Analysis with CFL-Reachability.
//
// Umbrella header for the public API. Typical use:
//
//   #include "parcfl.hpp"
//
//   parcfl::synth::GeneratorConfig cfg;                 // or your own IR
//   auto program  = parcfl::synth::generate(cfg);
//   auto lowered  = parcfl::frontend::lower(program);
//   auto collapsed = parcfl::pag::collapse_assign_cycles(lowered.pag);
//
//   parcfl::cfl::EngineOptions opt;
//   opt.mode = parcfl::cfl::Mode::kDataSharingScheduling;  // ParCFL_DQ
//   opt.threads = 16;
//   parcfl::cfl::Engine engine(collapsed.pag, opt);
//   auto result = engine.run(queries);                     // batch queries
//
// Single queries go through parcfl::cfl::Solver directly; whole-program
// analysis through parcfl::andersen::solve.

#include "andersen/andersen.hpp"  // IWYU pragma: export
#include "andersen/prefilter.hpp" // IWYU pragma: export
#include "cfl/context.hpp"        // IWYU pragma: export
#include "clients/clients.hpp"    // IWYU pragma: export
#include "clients/refinement.hpp" // IWYU pragma: export
#include "cfl/engine.hpp"         // IWYU pragma: export
#include "cfl/jmp_store.hpp"      // IWYU pragma: export
#include "cfl/persist.hpp"        // IWYU pragma: export
#include "cfl/scheduler.hpp"      // IWYU pragma: export
#include "cfl/solver.hpp"         // IWYU pragma: export
#include "frontend/callgraph.hpp" // IWYU pragma: export
#include "frontend/ir.hpp"        // IWYU pragma: export
#include "frontend/lower.hpp"     // IWYU pragma: export
#include "frontend/parser.hpp"    // IWYU pragma: export
#include "pag/collapse.hpp"       // IWYU pragma: export
#include "pag/pag.hpp"            // IWYU pragma: export
#include "pag/pag_io.hpp"         // IWYU pragma: export
#include "pag/reduce.hpp"         // IWYU pragma: export
#include "pag/validate.hpp"       // IWYU pragma: export
#include "service/line_io.hpp"    // IWYU pragma: export
#include "service/protocol.hpp"   // IWYU pragma: export
#include "service/server.hpp"     // IWYU pragma: export
#include "service/service.hpp"    // IWYU pragma: export
#include "service/session.hpp"    // IWYU pragma: export
#include "service/stats.hpp"      // IWYU pragma: export
#include "synth/benchmarks.hpp"   // IWYU pragma: export
#include "synth/generator.hpp"    // IWYU pragma: export
