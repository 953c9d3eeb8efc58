// parcfl_serve — the resident demand-driven analysis server. Loads a PAG
// once, keeps the jmp-edge sharing state warm across every query it ever
// answers, and speaks the line protocol of service/protocol.hpp over TCP or
// stdin/stdout. One server serves one graph; run one per graph to serve
// several.
//
//   parcfl_serve <file.pag> [options]
//     --port N       listen on 127.0.0.1:N (0 = pick a free port); without
//                    --port the server speaks on stdin/stdout
//     --threads N    engine worker threads            (default 4)
//     --mode M       seq|naive|d|dq                   (default dq)
//     --state FILE   warm-start from FILE if present (missing file = cold);
//                    the warm state is saved back to FILE on exit
//     --budget N     per-query step budget            (default 100000)
//     --batch N      micro-batch size cap, query units (default 64)
//     --linger-us N  micro-batch linger               (default 500)
//     --queue N      admission queue depth, query units (default 4096)
//     --slow-ms F    slow-query log threshold in ms   (default off)
//     --trace N      solver trace level 0|1|2         (default 0); slow
//                    queries then carry their trace in `slowlog` replies
//     --no-reduce    serve the faithful graph instead of the reduced one
//     --no-prefilter disable the background Andersen prefilter
//     --index        record complete answers in the reachability index
//                    and answer repeats at 0 steps (default)
//     --no-index     disable it; repeat queries always reach the solver
//
// Graceful shutdown: SIGINT/SIGTERM stop the accept loop, half-close live
// connections, drain in-flight batches, save the warm state to --state (when
// set), then exit 0.
//
// Example session (see README "Running the server" / "Scraping metrics"):
//   $ pag_tool gen avrora /tmp/avrora.pag 0.5
//   $ parcfl_serve /tmp/avrora.pag --port 7077 --state /tmp/avrora.state &
//   $ printf 'query 17\nstats\nquit\n' | nc 127.0.0.1 7077
//   $ printf 'metrics\nquit\n' | nc 127.0.0.1 7077

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "parcfl.hpp"

using namespace parcfl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parcfl_serve <file.pag> [--port N] [--threads N]\n"
               "                    [--mode seq|naive|d|dq] [--state FILE]\n"
               "                    [--budget N] [--batch N] [--linger-us N]\n"
               "                    [--queue N] [--slow-ms F] [--trace 0|1|2]\n"
               "                    [--no-reduce] [--no-prefilter]\n"
               "                    [--index] [--no-index]\n");
  return 2;
}

bool parse_mode(const char* name, cfl::Mode& out) {
  if (std::strcmp(name, "seq") == 0) out = cfl::Mode::kSequential;
  else if (std::strcmp(name, "naive") == 0) out = cfl::Mode::kNaive;
  else if (std::strcmp(name, "d") == 0) out = cfl::Mode::kDataSharing;
  else if (std::strcmp(name, "dq") == 0) out = cfl::Mode::kDataSharingScheduling;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  service::ServiceOptions options;
  options.session.engine.threads = 4;
  options.session.engine.solver.budget = 100'000;
  long port = -1;  // -1 = stdio

  for (int i = 2; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--port") == 0 && (v = value())) {
      port = std::atol(v);
    } else if (std::strcmp(arg, "--threads") == 0 && (v = value())) {
      options.session.engine.threads = static_cast<unsigned>(std::atol(v));
    } else if (std::strcmp(arg, "--mode") == 0 && (v = value())) {
      if (!parse_mode(v, options.session.engine.mode)) return usage();
    } else if (std::strcmp(arg, "--state") == 0 && (v = value())) {
      options.session.state_path = v;
    } else if (std::strcmp(arg, "--budget") == 0 && (v = value())) {
      options.session.engine.solver.budget = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--batch") == 0 && (v = value())) {
      options.max_batch = static_cast<std::uint32_t>(std::atol(v));
    } else if (std::strcmp(arg, "--linger-us") == 0 && (v = value())) {
      options.max_linger = std::chrono::microseconds(std::atol(v));
    } else if (std::strcmp(arg, "--queue") == 0 && (v = value())) {
      options.max_queue = static_cast<std::uint32_t>(std::atol(v));
    } else if (std::strcmp(arg, "--slow-ms") == 0 && (v = value())) {
      options.slow_query_ms = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--trace") == 0 && (v = value())) {
      options.session.engine.solver.trace_level =
          static_cast<std::uint32_t>(std::atol(v));
    } else if (std::strcmp(arg, "--no-reduce") == 0) {
      options.session.reduce_graph = false;
    } else if (std::strcmp(arg, "--no-prefilter") == 0) {
      options.session.prefilter = false;
    } else if (std::strcmp(arg, "--index") == 0) {
      options.session.index = true;
    } else if (std::strcmp(arg, "--no-index") == 0) {
      options.session.index = false;
    } else {
      return usage();
    }
  }

  // Block the shutdown signals *before* the service spawns its threads, so
  // every thread inherits the mask and only the watcher's sigwait ever sees
  // them — the sigwait pattern avoids doing real work in a signal handler.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "parcfl_serve: cannot open %s\n", argv[1]);
    return 1;
  }
  std::string error;
  auto pag = pag::read_pag(in, &error);
  if (!pag) {
    std::fprintf(stderr, "parcfl_serve: parse error: %s\n", error.c_str());
    return 1;
  }

  service::QueryService svc(std::move(*pag), options);
  const pag::ReduceStats reduce = svc.session().reduce_stats();
  std::fprintf(stderr,
               "parcfl_serve: %u nodes, %u edges (%u reduced away), mode %s, "
               "%u threads, batch<=%u linger=%lldus queue<=%u, prefilter %s, "
               "index %s\n",
               svc.pag().node_count(), svc.pag().edge_count(),
               reduce.edges_removed,
               cfl::to_string(options.session.engine.mode),
               options.session.engine.threads, options.max_batch,
               static_cast<long long>(options.max_linger.count()),
               options.max_queue,
               options.session.prefilter ? "on" : "off",
               options.session.index ? "on" : "off");

  // Save the warm state to --state so the next start warm-starts from it.
  auto save_state = [&svc, &options]() -> int {
    const std::string& path = options.session.state_path;
    if (path.empty()) return 0;
    std::string save_error;
    if (!svc.session().save(path, &save_error)) {
      std::fprintf(stderr, "parcfl_serve: shutdown save failed: %s\n",
                   save_error.c_str());
      return 1;
    }
    std::fprintf(stderr, "parcfl_serve: state saved to %s\n", path.c_str());
    return 0;
  };

  if (port < 0) {
    service::serve_stream(svc, std::cin, std::cout);
    return save_state();
  }

  service::TcpServer server(svc, static_cast<std::uint16_t>(port), &error);
  if (!server.ok()) {
    std::fprintf(stderr, "parcfl_serve: cannot listen: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "parcfl_serve: listening on 127.0.0.1:%u\n",
               server.port());

  std::atomic<bool> exiting{false};
  std::thread watcher([&] {
    int sig = 0;
    if (sigwait(&shutdown_signals, &sig) != 0) return;
    if (exiting.load(std::memory_order_acquire)) return;
    std::fprintf(stderr, "parcfl_serve: caught signal %d, draining\n", sig);
    server.shutdown();
  });
  server.serve();
  exiting.store(true, std::memory_order_release);
  // Unblock the watcher if serve() returned without a signal. A signal that
  // already fired leaves this one pending-and-blocked; it dies with us.
  ::kill(::getpid(), SIGTERM);
  watcher.join();
  server.shutdown();  // idempotent; covers the no-signal exit path
  return save_state();
}
