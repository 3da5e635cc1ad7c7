// The campaign worker (DESIGN.md §16): connects to a campaign server over
// any Transport, executes leased work units through the exact per-job path
// the in-process executor uses (opec_campaign::JobRunner), and streams
// results back. Single-threaded; self-hosted mode forks one process per
// worker, remote mode runs one per `campaign --worker` invocation.
//
// Warm starts ride the content-addressed artifact cache: the worker's warm
// pool resolves `boot/<app>/<mode>` (post-boot machine snapshot) and
// `bcmod/<app>/<mode>` (lowered bytecode module + cost model) through the
// local cache first, then the server; on a miss it builds cold, captures the
// artifact, and announces it so every later worker skips the work. Adopted
// artifacts are verified by digest and by the adoption preconditions
// (snapshot provenance checks, VM::AdoptBytecode's module/cost-model match);
// any rejection falls back to the cold path — wrong bytes can slow a worker
// down, never change its results.
//
// Reconnects: each RunWorker/RunWorkerLoop call draws one random session id
// and presents it on every connection, so the server counts a redial as a
// reconnect of the same worker. A worker that loses its link mid-unit keeps
// its session state — warm pool, cache, and the rows of the current unit it
// already finished — redials through RunWorkerLoop and delivers those rows
// first; the server has already requeued the unit, and records them as a
// late result (first write wins).

#ifndef SRC_DIST_WORKER_H_
#define SRC_DIST_WORKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/dist/transport.h"
#include "src/dist/wire.h"

namespace opec_dist {

struct WorkerOptions {
  std::string name;       // for server logs
  std::string cache_dir;  // local artifact cache ("" = in-memory, per-process)
  uint64_t cache_max_bytes = 0;
  // Fleet hardening.
  std::string token;  // shared secret; must match the server's --auth-token
  // Reconnect policy for RunWorkerLoop: how many times to redial after a
  // lost link, and how long to back off between attempts.
  uint32_t reconnect_max = 0;
  uint32_t reconnect_delay_ms = 100;
  // Test/chaos hook: drop the connection (keeping session state, so the
  // next connection delivers the finished rows) after this many completed
  // jobs. Fires once. 0 = never.
  uint64_t chaos_drop_after = 0;
  // Test hook: exit the work loop (cleanly, without sending the pending
  // result) after this many completed jobs. 0 = run to shutdown.
  uint64_t die_after_jobs = 0;
};

// Runs the worker loop on one connection until the server sends kShutdown
// (returns "") or the connection/protocol fails (returns the error). No
// reconnects. Blocking; owns no threads.
std::string RunWorker(Transport& transport, const WorkerOptions& options);

// Runs the worker loop with reconnects: `connect` dials the server
// (returns nullptr on failure). Session state — artifact cache, warm pool,
// partially-executed unit — survives across connections. Returns "" after a
// server shutdown, else the last error once `reconnect_max` is exhausted.
std::string RunWorkerLoop(const std::function<std::unique_ptr<Transport>()>& connect,
                          const WorkerOptions& options);

}  // namespace opec_dist

#endif  // SRC_DIST_WORKER_H_
