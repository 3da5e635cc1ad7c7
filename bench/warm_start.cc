// Warm-start benchmark: what forking campaign jobs from a boot snapshot
// actually buys over cold-booting every job (DESIGN.md §13.3).
//
// Two measurements, both written to BENCH_warm_start.json:
//
//  1. Per-app microbench (OPEC mode): N cold jobs (AppRun construction +
//     Execute) vs N warm jobs (one construction + CaptureBoot, then
//     RestoreBoot + Execute per job). Warm amortizes compile/analysis/image
//     build; Execute itself is untouched, so the speedup ceiling per app is
//     wall / exec — reported alongside the measurement.
//  2. The campaign-level number the snapshot subsystem was built for: the
//     500-job all-apps fault sweep through the real Executor, warm (default)
//     vs --cold-boot, with the deterministic reports checked byte-identical.
//
// Usage: warm_start [--iters N] [--sweep-jobs N] [--out FILE] [--smoke]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/campaign/campaign.h"
#include "src/support/check.h"
#include "src/support/options.h"

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

struct AppRow {
  std::string key;
  uint64_t cold_ns_per_job = 0;
  uint64_t warm_ns_per_job = 0;
  uint64_t exec_ns_per_job = 0;  // the floor no boot strategy can beat
};

AppRow MeasureApp(const opec_apps::AppFactory& factory, int iters) {
  AppRow row;
  row.key = factory.name;

  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    std::unique_ptr<opec_apps::Application> app = factory.make();
    opec_apps::AppRun run(*app, opec_apps::BuildMode::kOpec);
    opec_rt::RunResult r = run.Execute();
    OPEC_CHECK_MSG(r.ok, factory.name + " cold run failed: " + r.violation);
  }
  row.cold_ns_per_job = NsSince(t0) / static_cast<uint64_t>(iters);

  std::unique_ptr<opec_apps::Application> app = factory.make();
  opec_apps::AppRun run(*app, opec_apps::BuildMode::kOpec);
  run.CaptureBoot();
  uint64_t exec_total = 0;
  t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (i > 0) {
      run.RestoreBoot();
    }
    Clock::time_point t1 = Clock::now();
    opec_rt::RunResult r = run.Execute();
    exec_total += NsSince(t1);
    OPEC_CHECK_MSG(r.ok, factory.name + " warm run failed: " + r.violation);
  }
  row.warm_ns_per_job = NsSince(t0) / static_cast<uint64_t>(iters);
  row.exec_ns_per_job = exec_total / static_cast<uint64_t>(iters);
  return row;
}

uint64_t TimeSweep(const opec_campaign::CampaignSpec& spec, bool cold_boot,
                   std::string* json) {
  opec_campaign::Executor::Options options;
  options.jobs = 1;
  options.cold_boot = cold_boot;
  Clock::time_point t0 = Clock::now();
  opec_campaign::CampaignResult result = opec_campaign::Executor::Run(spec, options);
  uint64_t ns = NsSince(t0);
  *json = result.DeterministicJson();
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 20;
  int sweep_jobs = 500;
  std::string out_path = "BENCH_warm_start.json";
  bool smoke = false;
  opec_support::OptionTable options("warm_start");
  options.Count("iters", &iters, 1, 1000000, "jobs per app and mode (default 20)")
      .Count("sweep-jobs", &sweep_jobs, 1, 1000000, "fault-sweep size (default 500)")
      .String("out", &out_path, "output JSON (default BENCH_warm_start.json)")
      .Bool("smoke", &smoke, "2 iterations, 10-job sweep (overrides the counts)");
  if (!options.Parse(argc, argv)) {
    return 2;
  }
  if (smoke) {
    iters = 2;
    sweep_jobs = 10;
  }

  std::vector<AppRow> rows;
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    rows.push_back(MeasureApp(factory, iters));
    const AppRow& r = rows.back();
    std::printf("%-10s cold %8.3f ms/job  warm %8.3f ms/job  speedup %.2fx  (exec floor %.3f ms)\n",
                r.key.c_str(), r.cold_ns_per_job / 1e6, r.warm_ns_per_job / 1e6,
                static_cast<double>(r.cold_ns_per_job) / static_cast<double>(r.warm_ns_per_job),
                r.exec_ns_per_job / 1e6);
  }

  opec_campaign::CampaignSpec spec;
  spec.seed = 42;
  std::vector<std::string> all_apps;
  for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    all_apps.push_back(factory.name);
  }
  spec.AddFaultSweep(all_apps, sweep_jobs);
  std::string warm_json;
  std::string cold_json;
  uint64_t warm_ns = TimeSweep(spec, /*cold_boot=*/false, &warm_json);
  uint64_t cold_ns = TimeSweep(spec, /*cold_boot=*/true, &cold_json);
  OPEC_CHECK_MSG(warm_json == cold_json,
                 "warm and cold sweeps produced different deterministic reports");
  std::printf("%d-job fault sweep: cold %.1f ms, warm %.1f ms (%.2fx), reports identical\n",
              sweep_jobs, cold_ns / 1e6, warm_ns / 1e6,
              static_cast<double>(cold_ns) / static_cast<double>(warm_ns));

  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"opec-warm-start-v1\",\n  \"iterations\": " << iters
      << ",\n  \"sweep_jobs\": " << sweep_jobs << ",\n  \"apps\": {\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const AppRow& r = rows[i];
    out << "    \"" << r.key << "\": {\"cold_ns\": " << r.cold_ns_per_job
        << ", \"warm_ns\": " << r.warm_ns_per_job << ", \"exec_ns\": " << r.exec_ns_per_job
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"sweep\": {\"cold_ns\": " << cold_ns << ", \"warm_ns\": " << warm_ns
      << "}\n}\n";
  return 0;
}
