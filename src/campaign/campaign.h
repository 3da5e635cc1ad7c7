// opec_campaign: parallel campaign execution over isolated Machine/AppRun
// instances (DESIGN.md Section 11).
//
// A campaign is a job matrix — apps x build modes x seeds, scenario runs or
// fault-injection runs — executed by a work-stealing thread pool. Every job
// builds its own Module/Machine/AppRun from scratch (the harness has no
// process-global mutable state; the obs Hub is thread-local), so jobs are
// fully isolated and the aggregated result is bit-identical whether the
// campaign runs on one thread or many:
//   * results are placed by job index, never by completion order;
//   * each job derives all randomness from a SplitMix64 PRNG seeded by
//     (campaign seed, job index) — nothing touches global rand();
//   * a crashing job (host exception, OPEC_CHECK failure via ScopedCheckThrow,
//     wall-clock timeout) becomes a structured JobResult failure and never
//     takes down the campaign;
//   * DeterministicJson() excludes wall-clock fields, so `--jobs 1` and
//     `--jobs N` reports compare byte-identical.

#ifndef SRC_CAMPAIGN_CAMPAIGN_H_
#define SRC_CAMPAIGN_CAMPAIGN_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/campaign/thread_pool.h"

namespace opec_campaign {

// ---------------------------------------------------------------------------
// Deterministic parallel map.

// Runs fn(0), ..., fn(count - 1) on `jobs` workers and returns the results in
// index order. jobs <= 1 runs inline on the calling thread — exactly the
// serial path, no pool. Exceptions propagate: after all jobs finish, the
// lowest-index captured exception (if any) is rethrown.
template <typename Fn>
auto ParallelMap(int jobs, size_t count, Fn&& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  using T = decltype(fn(size_t{0}));
  std::vector<T> results(count);
  if (jobs <= 1) {
    for (size_t i = 0; i < count; ++i) {
      results[i] = fn(i);
    }
    return results;
  }
  std::vector<std::exception_ptr> errors(count);
  {
    ThreadPool pool(jobs);
    for (size_t i = 0; i < count; ++i) {
      pool.Submit([&, i] {
        try {
          results[i] = fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.Wait();
  }
  for (std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// Per-job PRNG: SplitMix64. Small, splittable, and completely decoupled from
// the C library's global rand() state.

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); bound 0 returns 0.
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }
  uint32_t Next32() { return static_cast<uint32_t>(Next() >> 32); }

  // Seed for job `index` of a campaign seeded with `campaign_seed`.
  //
  // Mixing contract: distinct (campaign_seed, index) pairs must yield
  // distinct, statistically independent streams. Both inputs therefore pass
  // through the full SplitMix64 finalizer *sequentially*: the campaign seed
  // is finalized first (one Next()), then the index — scaled by an odd
  // constant so nearby indices land far apart in gamma space — offsets the
  // finalized state before a second Next(). An earlier scheme XORed
  // (index * kOdd + 1) straight into the raw seed before a single Next();
  // being XOR-linear pre-finalizer, it collided whole streams across
  // campaigns whenever campaign_seed ^ campaign_seed' ==
  // (index * kOdd + 1) ^ (index' * kOdd + 1) — in particular index == 0
  // degenerated to seed ^ 1, so JobSeed(s, 0) equaled
  // JobSeed(s ^ 1 ^ (i * kOdd + 1), i) for every i. Finalizing between the
  // two mixes breaks the linearity (see campaign_test.cc, JobSeedMixing*).
  static uint64_t JobSeed(uint64_t campaign_seed, uint64_t index) {
    constexpr uint64_t kOdd = 0xA24BAED4963EE407ull;
    SplitMix64 g(campaign_seed);
    SplitMix64 h(g.Next() + index * kOdd);
    return h.Next();
  }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Job and campaign descriptions.

enum class JobKind : uint8_t {
  kScenario,  // clean run: build, execute, check scenario outputs
  kFault,     // fault-injection run: mutate guest state, classify the outcome
};

// The fault-injection taxonomy (DESIGN.md Section 11.3).
enum class FaultClass : uint8_t {
  kAny,            // planner picks per-seed
  kStackBitFlip,   // flip a bit in the operation stack region
  kShadowBitFlip,  // flip a bit in an operation data section / shadow copy
  kSvcArgCorrupt,  // corrupt an argument of an operation-entry SVC
  kIcallForge,     // overwrite a function-pointer global with a forged target
};

inline constexpr FaultClass kAllFaultClasses[] = {
    FaultClass::kAny, FaultClass::kStackBitFlip, FaultClass::kShadowBitFlip,
    FaultClass::kSvcArgCorrupt, FaultClass::kIcallForge};

const char* JobKindName(JobKind kind);
const char* FaultClassName(FaultClass fault);
// Inverse of FaultClassName; false for an unknown name.
bool ParseFaultClass(const std::string& name, FaultClass* out);

struct JobSpec {
  JobKind kind = JobKind::kScenario;
  std::string app;  // registry name, e.g. "PinLock" (see opec_apps::AllApps)
  opec_apps::BuildMode mode = opec_apps::BuildMode::kOpec;
  // Execution tier. Modeled outputs are bit-identical across tiers, so the
  // deterministic report only records it when it is not the default.
  opec_apps::EngineKind engine = opec_apps::EngineKind::kInterp;
  uint64_t seed = 0;          // per-job PRNG seed (0 = derive from campaign)
  FaultClass fault = FaultClass::kAny;
  uint64_t timeout_ms = 0;    // 0 = campaign default
  std::string trace_path;     // non-empty: export a Chrome trace of the run
  bool attach_counting_sink = false;  // obs-invariance checks
  // Runtime-verification monitors (src/rv, DESIGN.md §15). On by default: a
  // clean-looking run that trips a safety automaton becomes kRvViolation;
  // denied/crashed fault jobs keep their outcome with the violation counts
  // recorded alongside.
  bool rv = true;
};

struct CampaignSpec {
  uint64_t seed = 1;
  uint64_t timeout_ms = 0;  // 0 = no timeout
  std::vector<JobSpec> jobs;

  // One scenario job per (app x mode). App names are registry names.
  void AddScenarioMatrix(const std::vector<std::string>& apps,
                         const std::vector<opec_apps::BuildMode>& modes);
  // `count` fault jobs round-robined over `apps` (OPEC mode), classes chosen
  // per-seed when `fault` is kAny.
  void AddFaultSweep(const std::vector<std::string>& apps, size_t count,
                     FaultClass fault = FaultClass::kAny);

  // Parses a line-oriented spec file:
  //   seed <u64>
  //   timeout-ms <u64>
  //   scenario <app-key|all> <opec|vanilla|both>
  //   fault <app-key|all> <count> [stack-bit-flip|shadow-bit-flip|svc-arg|
  //                                icall-forge|any]
  // '#' starts a comment. Returns an empty string on success, else the error.
  std::string ParseFile(const std::string& path);
  std::string ParseText(const std::string& text, const std::string& origin);
};

// How a job ended. The first four are the fault-injection outcome taxonomy;
// the rest report harness-level failures.
enum class Outcome : uint8_t {
  kOk,                // scenario job: ran and checked clean
  kNotFired,          // fault job: the planned attack never triggered
  kDeniedMpu,         // the MPU/privilege rules blocked the injected write
  kDeniedMonitor,     // the monitor detected it (rejected entry/sanitization)
  kCrash,             // the corrupted guest aborted (fault, bad icall, ...)
  kBenign,            // landed, run bit-identical to the clean baseline
  kSilentCorruption,  // landed, outputs diverged, nothing detected it (FAIL)
  kCheckFailed,       // scenario job: run ok but scenario outputs wrong
  kViolation,         // scenario job: run aborted with a violation
  kException,         // host exception / OPEC_CHECK captured by the executor
  kTimeout,           // wall-clock deadline expired; run canceled
  kRvViolation,       // run looked clean but a safety automaton fired (FAIL)
};

const char* OutcomeName(Outcome outcome);

struct JobResult {
  size_t index = 0;
  JobSpec spec;           // echo (with the effective seed/fault class filled in)
  bool ok = false;        // "this job is a success" — silent corruption never is
  Outcome outcome = Outcome::kException;
  std::string detail;     // violation text / exception message / attack note
  // Modeled outputs (host-invariant; part of the deterministic report).
  uint64_t cycles = 0;
  uint64_t statements = 0;
  uint32_t return_value = 0;
  bool attack_fired = false;
  bool attack_blocked = false;
  uint64_t events = 0;    // counting-sink total, when attached
  // Runtime-verification summary (when the job ran with spec.rv): distinct
  // automaton states visited, total violations, and per-automaton violation
  // counts in StandardMonitorNames() order. Modeled data — part of the
  // deterministic report.
  uint64_t rv_states = 0;
  uint64_t rv_violations = 0;
  std::vector<uint64_t> rv_by_automaton;
  // Final-state snapshot digest for diverging jobs when the executor ran with
  // a snapshot dir (0 = no snapshot taken). Derived from modeled state only,
  // so it is part of the deterministic report.
  uint64_t snapshot_digest = 0;
  // Host timing (excluded from the deterministic report).
  uint64_t wall_ns = 0;
};

struct CampaignResult {
  std::vector<JobResult> results;  // indexed by job; always |spec.jobs| long
  int jobs_used = 1;
  uint64_t wall_ns = 0;  // elapsed campaign wall-clock

  uint64_t SerialWallNs() const;  // sum of per-job wall times
  size_t CountOutcome(Outcome outcome) const;
  bool AllOk() const;

  // Aggregated report without any wall-clock field: byte-identical across
  // thread counts for the same spec.
  std::string DeterministicJson() const;
  // Full report: deterministic fields + per-job and campaign timing, then
  // `extra_members` (complete `"name": value` members, e.g. an executor's
  // scheduling stats) spliced in verbatim as further top-level members.
  std::string Json(const std::string& extra_members = "") const;
  // Table-1-style robustness matrix: app x fault class x outcome counts.
  std::string FaultMatrix() const;
};

// ---------------------------------------------------------------------------
// Executor.

class Executor {
 public:
  struct Options {
    int jobs = 1;
    uint64_t default_timeout_ms = 0;  // overrides spec.timeout_ms when nonzero
    std::string trace_dir;  // non-empty: per-job Chrome traces written here
    // Warm start (DESIGN.md §13): each worker thread keeps one booted AppRun
    // per (app, mode) and forks every job from its post-boot snapshot instead
    // of rebuilding module + compile + image from scratch. Results are
    // bit-identical to cold boots (campaign_test.cc pins this); set cold_boot
    // to force the from-scratch path anyway.
    bool cold_boot = false;
    // Non-empty: diverging jobs (outcome other than ok / not-fired / benign)
    // dump their final machine+monitor+engine snapshot here as
    // job%04d_<app>_<mode>.snap, plus one raw machine-state dump per denied
    // access (crash-state forensics; fault-state capture is enabled on the
    // engine so FaultReport::machine_state is populated).
    std::string snapshot_dir;
  };

  // Runs the campaign on the in-process thread pool. Throws std::runtime_error
  // (not an OPEC_CHECK abort) when options.snapshot_dir cannot be created —
  // parents are created up front so jobs never trip over a missing directory.
  static CampaignResult Run(const CampaignSpec& spec, const Options& options);
};

// ---------------------------------------------------------------------------
// Per-job execution path shared between the in-process Executor and the
// distributed workers (src/dist). Keeping resolution + execution here is what
// pins the dist service's byte-identity: a worker process runs exactly the
// code path `campaign --jobs 1` runs.

// Executor-level knobs threaded into each job (see Executor::Options).
struct JobEnv {
  // Default cold: standalone RunJob() stays fully from-scratch; the executor
  // and dist workers opt into the warm-start pool explicitly.
  bool cold_boot = true;
  std::string snapshot_dir;
  // Non-null: overrides the built-in thread-local warm-run pool. The dist
  // worker plugs its artifact-cache-backed pool in here. The returned AppRun
  // must already be rewound to its boot snapshot.
  std::function<opec_apps::AppRun*(const opec_apps::AppFactory& factory,
                                   opec_apps::BuildMode mode, opec_apps::EngineKind engine)>
      warm_provider;
};

// Fills the derived fields of a job exactly the way Executor::Run does:
// seed from SplitMix64::JobSeed when 0, timeout from the executor default
// then the campaign spec, trace path from trace_dir. Pure function — the
// dist server resolves jobs with this before shipping them to workers.
JobSpec ResolveJobSpec(const JobSpec& job, size_t index, uint64_t campaign_seed,
                       uint64_t campaign_timeout_ms, uint64_t default_timeout_ms,
                       const std::string& trace_dir);

// The per-job harness Executor::Run wraps around RunJob: wall-clock watchdog
// arming the engine cancel flag, ScopedCheckThrow capture, and structured
// kException results for anything thrown. One instance is reusable across
// jobs (it owns the watchdog thread).
class JobRunner {
 public:
  JobRunner();
  ~JobRunner();
  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  // `resolved` must already have seed/timeout filled in (see ResolveJobSpec).
  JobResult Run(const JobSpec& resolved, size_t index, const JobEnv& env);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Runs one job in isolation on the calling thread (no timeout handling; the
// Executor layers that on top). Exposed for tests and the serial path.
JobResult RunJob(const JobSpec& spec, uint64_t campaign_seed, size_t index);
// As above with an explicit environment (warm pool / snapshot dir).
JobResult RunJob(const JobSpec& spec, uint64_t campaign_seed, size_t index,
                 const JobEnv& env);

}  // namespace opec_campaign

#endif  // SRC_CAMPAIGN_CAMPAIGN_H_
