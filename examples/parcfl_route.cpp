// parcfl_route — consistent-hash query router over a partitioned worker
// fleet (DESIGN.md §14, README "Scaling out"). Clients speak the ordinary
// line protocol to the router; the router answers each query by driving
// continuation tasks across parcfl_serve --worker processes and merging
// their results into one object-identical answer.
//
//   parcfl_route --map <stem.map> --workers addr[,addr...] [options]
//     --map FILE        partition map the fleet was sharded with (required)
//     --workers LIST    comma-separated worker addresses, "host:port" or
//                       "port" (loopback); every partition needs at least
//                       one worker (required)
//     --port N          listen on 127.0.0.1:N (0 = free port; default 0)
//     --budget N        step budget per continuation task  (default worker's)
//     --max-rounds N    fixpoint round cap                 (default 64)
//     --max-inflight N  distributed queries in flight      (default 64)
//     --deadline-ms N   per-worker-reply receive deadline  (default 5000)
//     --vnodes N        ring vnodes per worker             (default 64)
//
// Example fleet (2 partitions):
//   $ pag_tool gen avrora /tmp/avrora.pag 0.3
//   $ pag_tool partition /tmp/avrora.pag /tmp/avrora --parts 2
//   $ parcfl_serve /tmp/avrora.p0.pag --worker /tmp/avrora.map --part 0 --port 7081 &
//   $ parcfl_serve /tmp/avrora.p1.pag --worker /tmp/avrora.map --part 1 --port 7082 &
//   $ parcfl_route --map /tmp/avrora.map --workers 7081,7082 --port 7080 &
//   $ printf 'query 17\nstats\nquit\n' | nc 127.0.0.1 7080

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "parcfl.hpp"

using namespace parcfl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parcfl_route --map FILE --workers addr[,addr...]\n"
               "                    [--port N] [--budget N] [--max-rounds N]\n"
               "                    [--max-inflight N] [--deadline-ms N]\n"
               "                    [--vnodes N]\n");
  return 2;
}

std::vector<std::string> split_csv(const char* list) {
  std::vector<std::string> out;
  std::string item;
  for (const char* p = list;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!item.empty()) out.push_back(item);
      item.clear();
      if (*p == '\0') break;
    } else {
      item += *p;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  service::RouterOptions options;
  const char* map_path = nullptr;
  long port = 0;

  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--map") == 0 && (v = value())) {
      map_path = v;
    } else if (std::strcmp(arg, "--workers") == 0 && (v = value())) {
      options.workers = split_csv(v);
    } else if (std::strcmp(arg, "--port") == 0 && (v = value())) {
      port = std::atol(v);
    } else if (std::strcmp(arg, "--budget") == 0 && (v = value())) {
      options.default_budget = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--max-rounds") == 0 && (v = value())) {
      options.max_rounds = static_cast<std::uint32_t>(std::atol(v));
    } else if (std::strcmp(arg, "--max-inflight") == 0 && (v = value())) {
      options.max_inflight = static_cast<std::uint32_t>(std::atol(v));
    } else if (std::strcmp(arg, "--deadline-ms") == 0 && (v = value())) {
      options.deadline_ms = static_cast<std::uint32_t>(std::atol(v));
    } else if (std::strcmp(arg, "--vnodes") == 0 && (v = value())) {
      options.vnodes = static_cast<std::uint32_t>(std::atol(v));
    } else {
      return usage();
    }
  }
  if (map_path == nullptr || options.workers.empty()) return usage();

  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  std::string error;
  auto map = pag::read_partition_map_file(map_path, &error);
  if (!map) {
    std::fprintf(stderr, "parcfl_route: bad partition map: %s\n",
                 error.c_str());
    return 1;
  }
  options.map = std::make_shared<const pag::PartitionMap>(std::move(*map));
  const std::uint32_t parts = options.map->parts;

  service::RouterCore router(std::move(options), &error);
  if (!router.ok()) {
    std::fprintf(stderr, "parcfl_route: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "parcfl_route: %u nodes over %u partitions\n",
               router.node_count(), parts);

  service::TcpServer server(router.handler_factory(),
                            static_cast<std::uint16_t>(port), &error);
  if (!server.ok()) {
    std::fprintf(stderr, "parcfl_route: cannot listen: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "parcfl_route: listening on 127.0.0.1:%u\n",
               server.port());

  std::atomic<bool> exiting{false};
  std::thread watcher([&] {
    int sig = 0;
    if (sigwait(&shutdown_signals, &sig) != 0) return;
    if (exiting.load(std::memory_order_acquire)) return;
    std::fprintf(stderr, "parcfl_route: caught signal %d, draining\n", sig);
    server.shutdown();
  });
  server.serve();
  exiting.store(true, std::memory_order_release);
  ::kill(::getpid(), SIGTERM);
  watcher.join();
  server.shutdown();
  return 0;
}
