// The campaign server (DESIGN.md §16): owns the sharded job queue, leases
// work units to connected workers, and reassembles results index-ordered.
//
// Single-threaded by construction — one poll() loop multiplexes every worker
// transport (and, optionally, a TCP accept socket). There is no shared
// mutable state with any other thread, which keeps the server trivially
// TSan-clean and makes the aggregation order a non-issue: results land in a
// pre-sized, index-addressed vector, first write wins.
//
// Fleet hardening (wire.h):
//   * Auth: when `auth_token` is set, a hello whose token does not match is
//     hung up on before the server emits a single byte; `allow` restricts
//     TCP peers by CIDR at accept time, before any frame is read.
//   * Backpressure: every send goes through a per-peer outbox drained with
//     POLLOUT via non-blocking partial writes — a peer that stops reading
//     stalls only itself (and is killed when its outbox exceeds
//     `outbox_max_bytes`), never the fleet. Reads are equally non-blocking
//     (Transport::RecvAsync), so a peer dribbling half a frame cannot stall
//     the loop either.
//   * Reconnects: every connection of one worker run presents the same
//     random session id, so per-worker stats and the `reconnects` count
//     survive a redial. The lost link itself takes the one lost-link path
//     below.
//   * Adaptive unit sizing: with `adaptive_units`, units are carved from the
//     pending queue to hit `target_unit_ms` of predicted work using an EWMA
//     of observed per-job wall time keyed by app×mode×engine. Sizing feeds
//     only scheduling and the Json() "dist" stats block; the recorded rows —
//     and therefore DeterministicJson() — are byte-identical to any fixed
//     unit size.
//
// Fault tolerance: each issued unit carries a lease (connection + deadline).
// Every lost connection — EOF, I/O error, protocol violation, outbox
// overflow, or a superseding reconnect of the same session — goes through
// KillWorker, which requeues its units at the *front* of the queue at once,
// so recovery work is reissued before untouched work; an expired lease is
// requeued the same way. A reconnected worker still delivers the rows it
// finished before the drop: they land as late results. Because every job is
// a pure function of its resolved spec, a re-executed unit reproduces
// byte-identical rows and the first-write-wins rule makes duplicate
// deliveries harmless — the final DeterministicJson is unchanged by worker
// count, join order, mid-sweep death, or reconnects (tests/dist_test.cc pins
// all of these).
// A unit whose rows were all recorded by a late/duplicate delivery is erased
// silently wherever it is still tracked: it never bumps units_reissued or
// leases_expired a second time.

#ifndef SRC_DIST_SERVER_H_
#define SRC_DIST_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/dist/cache.h"
#include "src/dist/transport.h"
#include "src/dist/wire.h"
#include "src/fuzz/oracles.h"

namespace opec_dist {

// Distributed-execution statistics: host-side scheduling observability —
// queue depth, lease churn, per-worker in-flight peaks, artifact-cache
// traffic. None of it is modeled data, so it is rendered only into the full
// timing report (CampaignResult::Json(DistJson(stats))) and never into
// DeterministicJson(): byte-identity across worker counts is preserved.
struct DistStats {
  uint64_t workers = 0;         // distinct worker sessions that ever joined
  uint64_t workers_died = 0;    // connections lost before shutdown
  uint64_t units_issued = 0;    // work-unit leases handed out (incl. re-issues)
  uint64_t units_reissued = 0;  // units re-queued after a lost connection
  uint64_t leases_expired = 0;  // units re-queued after lease timeout
  uint64_t queue_high_water = 0;  // max pending jobs observed
  uint64_t artifact_hits = 0;     // worker cache hits (snapshots + modules)
  uint64_t artifact_misses = 0;
  uint64_t artifact_evictions = 0;
  uint64_t artifact_digest_mismatches = 0;  // corrupt/mismatched artifacts rejected
  uint64_t reconnects = 0;      // connections of an already-seen session
  uint64_t peers_rejected = 0;  // auth / allow-list / version refusals
  uint64_t late_results = 0;    // result frames landing without a live lease
  uint64_t chunks_sent = 0;     // artifact chunk frames streamed
  bool adaptive_units = false;  // EWMA-driven unit sizing was active
  uint64_t unit_size_min = 0;   // smallest/largest unit carved (0 = none)
  uint64_t unit_size_max = 0;
  std::vector<uint64_t> max_inflight;  // per worker, peak leased units
};

// The `"dist": {...}` top-level report member for CampaignResult::Json().
std::string DistJson(const DistStats& stats);

class CampaignServer {
 public:
  struct Options {
    size_t unit_size = 4;       // jobs per leased work unit (fixed sizing)
    bool adaptive_units = false;  // size units from observed per-job wall time
    uint64_t target_unit_ms = 250;  // adaptive: predicted wall time per unit
    size_t max_unit_size = 64;      // adaptive: hard cap on jobs per unit
    uint64_t lease_ms = 30000;  // lease expiry; 0 = leases never expire
    uint32_t retry_ms = 20;   // kNoWork retry hint to idle workers
    std::string cache_dir;    // server-side artifact bytes ("" = in-memory)
    uint64_t cache_max_bytes = 0;
    // Fleet hardening.
    std::string auth_token;   // "" = no auth; else hellos must present it
    std::vector<Cidr> allow;  // TCP peer allow-list; empty = accept any
    uint32_t chunk_threshold = kDefaultChunkThreshold;  // artifact reply slice size
    uint64_t outbox_max_bytes = 128ull << 20;  // kill a peer stalled past this
    uint64_t drain_ms = 10000;  // post-sweep straggler drain deadline
    // Job environment shipped in kWelcome / baked into resolved specs.
    bool cold_boot = false;
    std::string snapshot_dir;
    std::string trace_dir;
    uint64_t default_timeout_ms = 0;
  };

  // Campaign sweep: jobs are resolved (seed/timeout/trace path) up front, so
  // workers execute exactly what `campaign --jobs 1` would.
  CampaignServer(const opec_campaign::CampaignSpec& spec, const Options& options);
  // Fuzz sweep over seeds base_seed + [0, count).
  CampaignServer(uint64_t fuzz_base_seed, uint64_t fuzz_count, const Options& options);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  // Adds a pre-connected worker transport (self-hosted mode, tests).
  void AddWorker(std::unique_ptr<Transport> transport);
  // Accept new TCP workers on this listening socket (not owned) during Serve.
  void set_listen_fd(int fd) { listen_fd_ = fd; }
  // Called after every recorded result row — progress lines, chaos kills.
  void set_on_progress(std::function<void(size_t done, size_t total)> cb) {
    on_progress_ = std::move(cb);
  }

  size_t total_jobs() const { return total_; }

  // Runs the poll loop until every index has a result, then shuts workers
  // down. Returns "" on success, else an error (unusable output directory,
  // every worker gone with work outstanding and no way for more to join).
  std::string Serve();

  // Valid after a successful Serve(). Campaign sweeps only; wall_ns is left 0
  // for the caller to stamp.
  opec_campaign::CampaignResult TakeCampaignResult();
  // Fuzz sweeps only, in index order.
  std::vector<opec_fuzz::CaseResult> TakeFuzzResults();

  const DistStats& dist_stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  // A contiguous run of not-yet-issued job indexes. The pending queue is a
  // deque of spans; units are carved off the front span at issue time, which
  // is what lets the adaptive scheduler pick a fresh size per lease.
  struct Span {
    size_t start = 0;
    size_t count = 0;
  };

  struct Lease {
    size_t worker = 0;  // connection index of the holder
    Clock::time_point deadline;
    Clock::time_point issued_at;
    size_t rows = 0;  // unrecorded jobs at issue (fuzz wall-time estimate)
  };

  struct WorkerState {
    std::unique_ptr<Transport> transport;
    std::string name;
    uint64_t session = 0;  // the worker's session id (HelloMsg::session_id)
    bool hello_done = false;
    bool dead = false;
    bool shutdown_sent = false;
    uint64_t inflight = 0;
    // Outbox: encoded frames awaiting a writable peer; drained by POLLOUT.
    std::deque<std::vector<uint8_t>> outbox;
    size_t outbox_off = 0;    // bytes of outbox.front() already written
    uint64_t outbox_bytes = 0;
  };

  // Per-session counters that survive reconnects; folded into DistStats
  // after the sweep.
  struct Session {
    uint64_t max_inflight = 0;
    CacheCounters cache;  // latest cumulative sample
  };

  void BuildQueue(size_t total);
  void HandleFrame(size_t wi, const Frame& frame);
  void HandleHello(size_t wi, const HelloMsg& hello);
  void EnqueueFrame(size_t wi, const Frame& frame);
  void DrainOutbox(size_t wi);
  // Closes a connection and drops whatever it still had queued to send.
  void Hangup(size_t wi);
  // The one lost-link path: hangs up and requeues the connection's units.
  void KillWorker(size_t wi, const char* why);
  // Erases a unit's lease, if any, and frees its holder's in-flight slot.
  void ReleaseLease(uint64_t unit_id);
  // Returns the unit's span to the front of the pending queue — unless every
  // row is already recorded, in which case the unit is erased silently (no
  // stat double-count). Erases the lease and the issued_ entry either way.
  void RequeueUnit(uint64_t unit_id, bool expired);
  void RequeueWorkerUnits(size_t wi);
  void ExpireLeases(Clock::time_point now);
  void RecordResult(size_t wi, const ResultMsg& msg);
  bool SendAssign(size_t wi, uint64_t unit_id, const Span& span);
  // Adaptive sizing: jobs to carve off the front of `s` for one unit.
  size_t CarveCount(const Span& s) const;
  std::string SizeKey(size_t index) const;
  void NoteUnitSize(size_t carved);
  bool UnitFullyRecorded(const Span& s) const;
  size_t PendingJobs() const;
  size_t AliveWorkers() const;
  bool Done() const { return done_count_ == total_; }

  Options options_;
  SweepKind sweep_;
  uint64_t campaign_seed_ = 0;
  std::vector<opec_campaign::JobSpec> resolved_;  // campaign sweeps
  uint64_t fuzz_base_seed_ = 0;                   // fuzz sweeps

  size_t total_ = 0;
  std::deque<Span> pending_;  // un-issued spans; carved from the front
  std::unordered_map<uint64_t, Span> issued_;  // unit id -> its span
  std::unordered_map<uint64_t, Lease> leases_;
  uint64_t next_unit_id_ = 0;

  // Observed per-job wall time (ns) keyed by SizeKey(); drives CarveCount.
  std::unordered_map<std::string, double> ewma_ns_;

  std::vector<opec_campaign::JobResult> job_results_;
  std::vector<opec_fuzz::CaseResult> case_results_;
  std::vector<uint8_t> have_;  // per index; first write wins
  size_t done_count_ = 0;

  std::vector<WorkerState> workers_;
  std::vector<uint64_t> session_order_;  // fold order for stats
  std::unordered_map<uint64_t, Session> sessions_;
  int listen_fd_ = -1;
  std::function<void(size_t, size_t)> on_progress_;

  ArtifactCache cache_;
  std::unordered_map<std::string, uint64_t> artifact_keys_;  // key -> digest

  DistStats stats_;
};

}  // namespace opec_dist

#endif  // SRC_DIST_SERVER_H_
