// campaign: the one sweep front end (DESIGN.md Sections 11, 12 and 16).
//
// A sweep is a job campaign (scenario matrices and fault-injection sweeps:
// --spec, --apps, --modes, --fault-sweep, ...), a differential-fuzz sweep
// (--fuzz-count N, plus --traffic-count for traffic cases), or --figures
// (Figures 9-11 through the shared generators). It runs on exactly one
// executor:
//
//   --jobs N                       in-process work-stealing pool (default 1)
//   --workers N                    N forked local fleet workers
//   --serve --listen PORT          TCP fleet server; workers join live
//   --worker --connect HOST:PORT   one TCP fleet worker; the sweep comes
//                                  from the server
//
// Results from every executor go through one report path, so stdout and the
// --deterministic report are byte-identical across executors and worker
// counts; only the wall-clock line and the full report's timing (and, for a
// fleet, "dist") members differ. A flag combination that cannot mean one
// thing is a usage error.
//
// Exit status: 0 when every job succeeded / no divergence, 1 otherwise,
// 2 usage or environment error.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/figures_lib.h"
#include "src/apps/all_apps.h"
#include "src/campaign/campaign.h"
#include "src/dist/fleet.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/shrink.h"
#include "src/fuzz/traffic_fuzz.h"
#include "src/ir/printer.h"
#include "src/rv/monitors.h"
#include "src/support/options.h"
#include "src/traffic/traffic.h"

namespace {

using opec_campaign::CampaignResult;
using opec_campaign::Outcome;
using opec_support::OptionTable;

// Flag scopes: which sweep or executor a flag belongs to.
constexpr std::initializer_list<const char*> kJobFlags = {
    "spec",      "apps",       "modes",       "engine",        "rv",           "fault-sweep",
    "fault-class", "figures",  "seed",        "timeout-ms",    "report-json",  "deterministic",
    "trace-dir", "snapshot-dir", "cold-boot", "traffic"};
constexpr std::initializer_list<const char*> kFuzzFlags = {
    "fuzz-count", "fuzz-seed", "shrink", "corpus-dir", "traffic-count", "traffic-seed"};
constexpr std::initializer_list<const char*> kServerFlags = {
    "unit-size", "target-unit-ms", "lease-ms", "allow", "chaos-kill-after", "chaos-stop-after"};
constexpr std::initializer_list<const char*> kWorkerFlags = {
    "reconnect", "reconnect-delay-ms", "chaos-drop-after"};

// "--name" of the first flag in `names` that was given, else "".
std::string FirstSeen(const OptionTable& options, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (options.Seen(name)) {
      return std::string("--") + name;
    }
  }
  return "";
}

// The reason a flag combination cannot mean one thing, or "".
std::string CheckCombination(const OptionTable& o) {
  int executors = o.Seen("jobs") + o.Seen("workers") + o.Seen("serve") + o.Seen("worker");
  if (executors > 1) {
    return "choose one executor: --jobs, --workers, --serve or --worker";
  }
  if (o.Seen("serve") != o.Seen("listen")) {
    return "--serve and --listen PORT go together";
  }
  if (o.Seen("worker") != o.Seen("connect")) {
    return "--worker and --connect HOST:PORT go together";
  }
  bool fleet = o.Seen("workers") || o.Seen("serve");
  std::string flag;
  if (o.Seen("worker")) {
    for (auto scope : {kJobFlags, kFuzzFlags, kServerFlags}) {
      if (!(flag = FirstSeen(o, scope)).empty()) {
        return flag + " is a sweep flag; a --worker takes its sweep from the server";
      }
    }
  }
  if (fleet && !(flag = FirstSeen(o, {"figures", "traffic", "traffic-count"})).empty()) {
    return flag +
           " runs only on the in-process executor: fleet workers never see the "
           "process-global load spec";
  }
  if (o.Seen("fuzz-count") && !(flag = FirstSeen(o, kJobFlags)).empty()) {
    return flag + " is a job-sweep flag; a fuzz sweep (--fuzz-count) does not take it";
  }
  if (!o.Seen("fuzz-count") && !(flag = FirstSeen(o, kFuzzFlags)).empty()) {
    return flag + " needs a fuzz sweep (--fuzz-count N)";
  }
  if (!fleet && !(flag = FirstSeen(o, kServerFlags)).empty()) {
    return flag + " needs a fleet executor (--workers or --serve)";
  }
  if (!o.Seen("workers") &&
      !(flag = FirstSeen(o, {"chaos-kill-after", "chaos-stop-after"})).empty()) {
    return flag + " needs --workers";
  }
  if (!o.Seen("worker") && !(flag = FirstSeen(o, kWorkerFlags)).empty()) {
    return flag + " needs --worker";
  }
  if (!fleet && !o.Seen("worker") && o.Seen("cache-dir")) {
    return "--cache-dir needs a fleet executor (--workers, --serve or --worker)";
  }
  if (!o.Seen("serve") && !o.Seen("worker") && o.Seen("auth-token")) {
    return "--auth-token needs --serve or --worker";
  }
  return "";
}

// Per-outcome summary, failing jobs, the robustness matrix when faults were
// swept, the RV aggregate on request, then the JSON report.
int ReportCampaign(const CampaignResult& result, bool rv_report, const std::string& report_path,
                   bool deterministic, const std::string& extra_members) {
  std::printf("campaign: %zu jobs on %d worker(s), wall %.2f ms (serial %.2f ms, %.2fx)\n",
              result.results.size(), result.jobs_used, result.wall_ns / 1e6,
              result.SerialWallNs() / 1e6,
              result.wall_ns > 0
                  ? static_cast<double>(result.SerialWallNs()) /
                        static_cast<double>(result.wall_ns)
                  : 0.0);
  for (int o = 0; o <= static_cast<int>(Outcome::kRvViolation); ++o) {
    size_t n = result.CountOutcome(static_cast<Outcome>(o));
    if (n > 0) {
      std::printf("  %-18s %zu\n", opec_campaign::OutcomeName(static_cast<Outcome>(o)), n);
    }
  }
  bool have_faults = false;
  for (const opec_campaign::JobResult& r : result.results) {
    if (r.spec.kind == opec_campaign::JobKind::kFault) {
      have_faults = true;
    }
    if (!r.ok) {
      std::printf("  job %zu [%s %s]: %s — %s\n", r.index, r.spec.app.c_str(),
                  opec_campaign::JobKindName(r.spec.kind),
                  opec_campaign::OutcomeName(r.outcome), r.detail.c_str());
    }
  }
  if (have_faults) {
    std::fputs(result.FaultMatrix().c_str(), stdout);
  }
  if (rv_report) {
    // Deterministic per-automaton aggregate over every job that ran with RV.
    const std::vector<std::string>& names = opec_rv::StandardMonitorNames();
    std::vector<unsigned long long> by_automaton(names.size(), 0);
    unsigned long long rv_jobs = 0, states = 0, violations = 0;
    for (const opec_campaign::JobResult& r : result.results) {
      if (!r.spec.rv) {
        continue;
      }
      ++rv_jobs;
      states += r.rv_states;
      violations += r.rv_violations;
      for (size_t a = 0; a < r.rv_by_automaton.size() && a < by_automaton.size(); ++a) {
        by_automaton[a] += r.rv_by_automaton[a];
      }
    }
    std::printf("RV report (%llu job(s)): states-visited=%llu violations=%llu\n", rv_jobs,
                states, violations);
    for (size_t a = 0; a < names.size(); ++a) {
      std::printf("  %-20s violations=%llu\n", names[a].c_str(), by_automaton[a]);
    }
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out.good()) {
      std::fprintf(stderr, "campaign: cannot write %s\n", report_path.c_str());
      return 2;
    }
    out << (deterministic ? result.DeterministicJson() : result.Json(extra_members));
    std::printf("wrote %s\n", report_path.c_str());
  }
  return result.AllOk() ? 0 : 1;
}

// The shrink predicate covers the recipe-level oracles (execution and
// points-to); the MPU and injected-graph oracles are seed-driven and have
// nothing to shrink.
bool SpecDiverges(const opec_fuzz::ProgramSpec& spec) {
  opec_fuzz::ExecObservation vanilla =
      opec_fuzz::RunOnce(spec, opec_apps::BuildMode::kVanilla);
  opec_fuzz::ExecObservation opec = opec_fuzz::RunOnce(spec, opec_apps::BuildMode::kOpec);
  if (!opec_fuzz::CompareExec(spec, vanilla, opec).empty()) {
    return true;
  }
  return !opec_fuzz::DiffPointsTo(spec).empty();
}

void DumpCorpusEntry(const std::string& dir, const opec_fuzz::CaseResult& result,
                     const opec_fuzz::ProgramSpec& spec, const char* suffix) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string path = dir + "/seed_" + std::to_string(result.seed) + suffix + ".txt";
  std::ofstream out(path);
  out << "# fuzz divergence, program seed " << result.seed << "\n";
  out << "# " << result.summary << "\n";
  for (const opec_fuzz::Divergence& d : result.divergences) {
    out << "# [" << opec_fuzz::OracleName(d.oracle) << "] " << d.detail << "\n";
  }
  out << "\n" << opec_ir::PrintModule(*opec_fuzz::BuildModule(spec));
}

// One deterministic digest line per case plus divergence details (and, on
// request, a shrunk recipe and corpus files) — byte-identical for any
// executor and worker count, which is fuzz oracle 4. Returns the number of
// divergences.
size_t ReportFuzz(const std::vector<opec_fuzz::CaseResult>& results, bool shrink,
                  const std::string& corpus_dir) {
  size_t diverging_cases = 0;
  size_t divergences = 0;
  for (const opec_fuzz::CaseResult& result : results) {
    std::printf("%s\n", result.digest.c_str());
    if (result.divergences.empty()) {
      continue;
    }
    ++diverging_cases;
    divergences += result.divergences.size();
    std::printf("  program: %s\n", result.summary.c_str());
    for (const opec_fuzz::Divergence& d : result.divergences) {
      std::printf("  [%s] %s\n", opec_fuzz::OracleName(d.oracle), d.detail.c_str());
    }
    opec_fuzz::ProgramSpec spec = opec_fuzz::GenerateProgram(result.seed);
    if (!corpus_dir.empty()) {
      DumpCorpusEntry(corpus_dir, result, spec, "");
    }
    if (shrink && SpecDiverges(spec)) {
      opec_fuzz::ShrinkStats stats;
      opec_fuzz::ProgramSpec small = opec_fuzz::ShrinkProgram(spec, SpecDiverges, &stats);
      std::printf("  shrunk: %zu -> %zu statements (%zu probes)\n", stats.initial_statements,
                  stats.final_statements, stats.probes);
      if (!corpus_dir.empty()) {
        opec_fuzz::CaseResult small_report = result;
        small_report.summary = opec_fuzz::SpecSummary(small);
        DumpCorpusEntry(corpus_dir, small_report, small, "_min");
      }
    }
  }
  std::printf("fuzz: %zu cases, %zu diverging, %zu divergences\n", results.size(),
              diverging_cases, divergences);
  return divergences;
}

size_t ReportTrafficFuzz(const std::vector<opec_fuzz::TrafficCaseResult>& results) {
  size_t diverging = 0;
  size_t divergences = 0;
  for (const opec_fuzz::TrafficCaseResult& result : results) {
    std::printf("%s\n", result.digest.c_str());
    if (result.divergences.empty()) {
      continue;
    }
    ++diverging;
    divergences += result.divergences.size();
    for (const std::string& d : result.divergences) {
      std::printf("  %s\n", d.c_str());
    }
  }
  std::printf("traffic fuzz: %zu cases, %zu diverging\n", results.size(), diverging);
  return divergences;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1;
  int workers = 0;
  bool serve = false;
  int listen_port = 0;
  bool worker = false;
  std::string connect_addr;

  std::string spec_path;
  std::string apps_arg = "all";
  std::string modes_arg = "both";
  std::string engine_arg = "interp";
  std::string rv_arg = "on";
  int fault_sweep = 0;
  std::string fault_class_arg = "any";
  bool figures = false;
  uint64_t seed = 1;
  uint64_t timeout_ms = 0;
  std::string report_path;
  bool deterministic = false;
  std::string trace_dir;
  std::string snapshot_dir;
  bool cold_boot = false;
  std::string traffic_arg;

  int fuzz_count = 0;
  uint64_t fuzz_seed = 1;
  bool shrink = false;
  std::string corpus_dir;
  int traffic_count = 0;
  uint64_t traffic_seed = 1;

  std::string unit_size_arg = "4";
  int target_unit_ms = 250;
  int lease_ms = 30000;
  std::string cache_dir;
  std::string auth_token;
  std::string allow_arg;
  int chaos_kill_after = 0;
  int chaos_stop_after = 0;
  int reconnect = 0;
  int reconnect_delay_ms = 100;
  int chaos_drop_after = 0;

  std::vector<std::string> fault_classes;
  for (opec_campaign::FaultClass c : opec_campaign::kAllFaultClasses) {
    fault_classes.push_back(opec_campaign::FaultClassName(c));
  }

  OptionTable options("campaign");
  options
      .Count("jobs", &jobs, 1, 1024, "executor: in-process pool threads (default 1)")
      .Count("workers", &workers, 1, 256, "executor: fork N local fleet workers")
      .Bool("serve", &serve, "executor: serve the sweep to TCP workers (with --listen)")
      .Count("listen", &listen_port, 1, 65535, "TCP port for --serve")
      .Bool("worker", &worker, "executor: one TCP fleet worker (with --connect)")
      .String("connect", &connect_addr, "HOST:PORT of the --serve server")
      .String("spec", &spec_path, "line-oriented campaign spec file")
      .String("apps", &apps_arg, "comma-separated app names, or all (default)")
      .Enum("modes", &modes_arg, {"opec", "vanilla", "both"}, "scenario build modes")
      .Enum("engine", &engine_arg, {"interp", "bytecode"}, "execution tier of every job")
      .Enum("rv", &rv_arg, {"on", "off", "report"}, "runtime-verification monitors")
      .Count("fault-sweep", &fault_sweep, 1, 1000000, "fault jobs round-robined over --apps")
      .Enum("fault-class", &fault_class_arg, fault_classes, "injected fault class")
      .Bool("figures", &figures, "regenerate Figures 9, 10 and 11 over --jobs")
      .U64("seed", &seed, "campaign seed (default 1)")
      .U64("timeout-ms", &timeout_ms, "per-job wall-clock timeout (0 = none)")
      .String("report-json", &report_path, "write the JSON report here")
      .Bool("deterministic", &deterministic, "report without timing fields")
      .String("trace-dir", &trace_dir, "write a Chrome trace per job here")
      .String("snapshot-dir", &snapshot_dir, "diverging jobs dump snapshots here")
      .Bool("cold-boot", &cold_boot, "rebuild every job instead of warm start")
      .String("traffic", &traffic_arg, "load spec rate=N,conns=M,seed=S[,requests=R,...]")
      .Count("fuzz-count", &fuzz_count, 0, 100000000, "fuzz sweep: generated programs")
      .U64("fuzz-seed", &fuzz_seed, "base program seed (default 1)")
      .Bool("shrink", &shrink, "minimize each diverging program")
      .String("corpus-dir", &corpus_dir, "write diverging recipes here")
      .Count("traffic-count", &traffic_count, 0, 100000000, "traffic fuzz cases (default 0)")
      .U64("traffic-seed", &traffic_seed, "base traffic-case seed (default 1)")
      .String("unit-size", &unit_size_arg, "fleet: jobs per lease, or auto (default 4)")
      .Count("target-unit-ms", &target_unit_ms, 1, 600000, "fleet: auto unit wall time")
      .Count("lease-ms", &lease_ms, 1, 3600000, "fleet: lease expiry (default 30000)")
      .String("cache-dir", &cache_dir, "fleet: content-addressed artifact cache")
      .String("auth-token", &auth_token, "fleet: shared secret of server and workers")
      .String("allow", &allow_arg, "fleet: comma-separated CIDR allow-list")
      .Count("chaos-kill-after", &chaos_kill_after, 1, 1000000,
             "fleet: SIGKILL a worker after N results")
      .Count("chaos-stop-after", &chaos_stop_after, 1, 1000000,
             "fleet: SIGSTOP a worker after N results")
      .Count("reconnect", &reconnect, 0, 1000000, "worker: redials after a lost link")
      .Count("reconnect-delay-ms", &reconnect_delay_ms, 0, 3600000,
             "worker: back-off between redials")
      .Count("chaos-drop-after", &chaos_drop_after, 1, 1000000,
             "worker: drop the link once after N jobs");
  if (!options.Parse(argc, argv)) {
    return 2;
  }
  std::string combination = CheckCombination(options);
  if (!combination.empty()) {
    return options.Fail(combination);
  }

  if (worker) {
    opec_dist::WorkerOptions wopts;
    wopts.name = "tcp-worker";
    wopts.cache_dir = cache_dir;
    wopts.token = auth_token;
    wopts.reconnect_max = static_cast<uint32_t>(reconnect);
    wopts.reconnect_delay_ms = static_cast<uint32_t>(reconnect_delay_ms);
    wopts.chaos_drop_after = static_cast<uint64_t>(chaos_drop_after);
    std::string err = opec_dist::RunTcpWorker(connect_addr, wopts);
    if (!err.empty()) {
      std::fprintf(stderr, "campaign: worker: %s\n", err.c_str());
      return 2;
    }
    return 0;
  }

  if (!traffic_arg.empty()) {
    opec_traffic::TrafficSpec traffic_spec;
    std::string error;
    if (!opec_traffic::ParseTrafficSpec(traffic_arg, &traffic_spec, &error)) {
      return options.Fail("invalid --traffic '" + traffic_arg + "': " + error);
    }
    // Set before any worker thread spawns: the traffic app factories read it.
    opec_traffic::SetDefaultLoadSpec(traffic_spec);
  }
  if (figures) {
    std::fputs(opec_bench::Figure9Text(jobs).c_str(), stdout);
    std::fputs(opec_bench::Figure10Text(jobs).c_str(), stdout);
    std::fputs(opec_bench::Figure11Text(jobs).c_str(), stdout);
    return 0;
  }

  bool fleet = workers > 0 || serve;
  opec_dist::CampaignServer::Options server_options;
  if (unit_size_arg == "auto") {
    server_options.adaptive_units = true;
  } else {
    int unit_size = 0;
    if (!opec_support::ParseCount(unit_size_arg.c_str(), 1, 100000, &unit_size)) {
      return options.Fail("invalid --unit-size '" + unit_size_arg +
                          "'; expected an integer in [1, 100000] or auto");
    }
    server_options.unit_size = static_cast<size_t>(unit_size);
  }
  if (!allow_arg.empty()) {
    std::string error;
    if (!opec_dist::ParseCidrList(allow_arg, &server_options.allow, &error)) {
      return options.Fail("invalid --allow '" + allow_arg + "': " + error);
    }
  }
  server_options.target_unit_ms = static_cast<uint64_t>(target_unit_ms);
  server_options.lease_ms = static_cast<uint64_t>(lease_ms);
  server_options.cache_dir = cache_dir;
  server_options.auth_token = auth_token;
  server_options.cold_boot = cold_boot;
  server_options.snapshot_dir = snapshot_dir;
  server_options.trace_dir = trace_dir;
  server_options.default_timeout_ms = timeout_ms;
  opec_dist::FleetOptions fleet_options;
  fleet_options.workers = workers;
  fleet_options.listen_port = listen_port;
  fleet_options.cache_dir = cache_dir;
  fleet_options.chaos_kill_after = chaos_kill_after;
  fleet_options.chaos_stop_after = chaos_stop_after;

  if (options.Seen("fuzz-count")) {
    std::vector<opec_fuzz::CaseResult> results;
    if (fleet && fuzz_count > 0) {  // an empty sweep has nothing to serve
      opec_dist::CampaignServer server(fuzz_seed, static_cast<uint64_t>(fuzz_count),
                                       server_options);
      std::string err = opec_dist::RunFleet(server, fleet_options);
      if (!err.empty()) {
        std::fprintf(stderr, "campaign: %s\n", err.c_str());
        return 2;
      }
      results = server.TakeFuzzResults();
    } else {
      results = opec_campaign::ParallelMap(jobs, static_cast<size_t>(fuzz_count), [&](size_t i) {
        return opec_fuzz::RunCase(fuzz_seed + i);
      });
    }
    size_t divergences = ReportFuzz(results, shrink, corpus_dir);
    if (traffic_count > 0) {
      divergences += ReportTrafficFuzz(opec_campaign::ParallelMap(
          jobs, static_cast<size_t>(traffic_count),
          [&](size_t i) { return opec_fuzz::RunTrafficCase(traffic_seed + i); }));
    }
    return divergences == 0 ? 0 : 1;
  }

  std::vector<std::string> apps;
  if (apps_arg == "all") {
    for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
      apps.push_back(factory.name);
    }
  } else {
    apps = opec_support::SplitCommas(apps_arg);
  }
  std::vector<opec_apps::BuildMode> modes;
  if (modes_arg != "opec") {
    modes.push_back(opec_apps::BuildMode::kVanilla);
  }
  if (modes_arg != "vanilla") {
    modes.push_back(opec_apps::BuildMode::kOpec);
  }
  opec_campaign::FaultClass fault_class = opec_campaign::FaultClass::kAny;
  opec_campaign::ParseFaultClass(fault_class_arg, &fault_class);

  opec_campaign::CampaignSpec spec;
  spec.seed = seed;
  spec.timeout_ms = timeout_ms;
  if (!spec_path.empty()) {
    std::string err = spec.ParseFile(spec_path);
    if (!err.empty()) {
      std::fprintf(stderr, "campaign: %s\n", err.c_str());
      return 2;
    }
  }
  if (fault_sweep > 0) {
    spec.AddFaultSweep(apps, static_cast<size_t>(fault_sweep), fault_class);
  }
  if (spec.jobs.empty()) {
    spec.AddScenarioMatrix(apps, modes);
  }
  for (opec_campaign::JobSpec& job : spec.jobs) {
    job.engine = engine_arg == "bytecode" ? opec_apps::EngineKind::kBytecode
                                          : opec_apps::EngineKind::kInterp;
    job.rv = rv_arg != "off";
  }

  CampaignResult result;
  std::string dist_json;
  if (fleet) {
    opec_dist::CampaignServer server(spec, server_options);
    auto t0 = std::chrono::steady_clock::now();
    std::string err = opec_dist::RunFleet(server, fleet_options);
    auto t1 = std::chrono::steady_clock::now();
    if (!err.empty()) {
      std::fprintf(stderr, "campaign: %s\n", err.c_str());
      return 2;
    }
    result = server.TakeCampaignResult();
    result.wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    dist_json = opec_dist::DistJson(server.dist_stats());
  } else {
    opec_campaign::Executor::Options executor_options;
    executor_options.jobs = jobs;
    executor_options.default_timeout_ms = timeout_ms;
    executor_options.trace_dir = trace_dir;
    executor_options.snapshot_dir = snapshot_dir;
    executor_options.cold_boot = cold_boot;
    try {
      result = opec_campaign::Executor::Run(spec, executor_options);
    } catch (const std::runtime_error& e) {
      // Environment problems (unwritable --snapshot-dir/--trace-dir, unknown
      // app) are usage-class errors, not crashes: clear message, exit 2.
      std::fprintf(stderr, "campaign: %s\n", e.what());
      return 2;
    }
  }
  return ReportCampaign(result, rv_arg == "report", report_path, deterministic, dist_json);
}
