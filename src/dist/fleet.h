// Process-level fleet roles of the distributed campaign service (DESIGN.md
// §16), as driven by the `campaign` CLI's fleet executors:
//   * RunFleet: serve a sweep to self-hosted workers (forked over
//     socketpairs) and/or TCP workers joining on a listening port, with the
//     chaos hooks CI uses to kill or stall a self-hosted worker mid-sweep;
//   * RunTcpWorker: one worker dialing a server, redialing a lost link.

#ifndef SRC_DIST_FLEET_H_
#define SRC_DIST_FLEET_H_

#include <string>

#include "src/dist/server.h"
#include "src/dist/worker.h"

namespace opec_dist {

struct FleetOptions {
  int workers = 0;      // self-hosted workers to fork
  int listen_port = 0;  // nonzero: accept TCP workers on this port
  std::string cache_dir;  // artifact cache shared by the self-hosted workers
  // Chaos (self-hosted only): SIGKILL / SIGSTOP one worker once this many
  // results are recorded. 0 = never. A stopped worker is resumed when the
  // sweep completes, so its late results exercise the first-write-wins path.
  int chaos_kill_after = 0;
  int chaos_stop_after = 0;
};

// Runs `server` to completion: forks the self-hosted workers before any
// thread exists (the server is poll-based and threadless), listens when a
// port is given, serves, and reaps every child. Returns "" or the error.
std::string RunFleet(CampaignServer& server, const FleetOptions& options);

// Dials `address` (HOST:PORT) and serves leased jobs until the server shuts
// the sweep down. Returns "" or the error.
std::string RunTcpWorker(const std::string& address, const WorkerOptions& options);

}  // namespace opec_dist

#endif  // SRC_DIST_FLEET_H_
