// runner: command-line driver around AppRun with the observability layer
// attached — runs one workload, optionally exporting the recorded event
// stream (Chrome trace-event JSON for Perfetto / chrome://tracing, or JSONL
// for scripting), printing the per-operation profile table, and rendering
// fault forensic reports for any denied access.
//
//   $ ./build/src/apps/runner --app pinlock --trace-out=trace.json --profile

#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/obs/export.h"
#include "src/obs/profile.h"
#include "src/support/options.h"
#include "src/traffic/traffic.h"

namespace {

// Canonical app key: lower-case, '-' folded to '_' (matches host_speed keys).
std::string KeyName(const std::string& name) {
  std::string key;
  for (char c : name) {
    key += c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name = "pinlock";
  std::string mode_name = "opec";
  std::string engine_name = "interp";
  std::string trace_out;
  std::string jsonl_out;
  std::string rv_name = "on";
  std::string traffic_arg;
  bool profile = false;
  bool list = false;

  opec_support::OptionTable options("runner");
  options.String("app", &app_name, "workload to run (default pinlock; see --list)")
      .Enum("mode", &mode_name, {"opec", "vanilla"}, "build mode (default opec)")
      .Enum("engine", &engine_name, {"interp", "bytecode"}, "execution tier (default interp)")
      .Enum("rv", &rv_name, {"on", "off", "report"}, "runtime-verification monitors")
      .String("trace-out", &trace_out, "write a Chrome trace-event JSON here")
      .String("jsonl-out", &jsonl_out, "write the event stream as JSONL here")
      .String("traffic", &traffic_arg, "load spec rate=N,conns=M,seed=S[,requests=R,...]")
      .Bool("profile", &profile, "print the per-operation profile table")
      .Bool("list", &list, "list the workload names and exit");
  if (!options.Parse(argc, argv)) {
    return 2;
  }
  if (list) {
    for (const opec_apps::AppFactory& f : opec_apps::AllApps()) {
      std::printf("%s\n", KeyName(f.name).c_str());
    }
    for (const opec_apps::AppFactory& f : opec_apps::TrafficApps()) {
      std::printf("%s\n", KeyName(f.name).c_str());
    }
    return 0;
  }
  if (!traffic_arg.empty()) {
    opec_traffic::TrafficSpec spec;
    std::string error;
    if (!opec_traffic::ParseTrafficSpec(traffic_arg, &spec, &error)) {
      return options.Fail("invalid --traffic '" + traffic_arg + "': " + error);
    }
    opec_traffic::SetDefaultLoadSpec(spec);
  }
  opec_apps::BuildMode mode =
      mode_name == "opec" ? opec_apps::BuildMode::kOpec : opec_apps::BuildMode::kVanilla;
  opec_apps::EngineKind engine_kind = engine_name == "bytecode"
                                          ? opec_apps::EngineKind::kBytecode
                                          : opec_apps::EngineKind::kInterp;

  std::unique_ptr<opec_apps::Application> app;
  if (std::optional<opec_apps::AppFactory> factory = opec_apps::FindAppFactory(app_name)) {
    app = factory->make();
  }
  if (app == nullptr) {
    std::fprintf(stderr, "unknown --app '%s'; valid apps are:", app_name.c_str());
    for (const opec_apps::AppFactory& factory : opec_apps::AllApps()) {
      std::fprintf(stderr, " %s", KeyName(factory.name).c_str());
    }
    for (const opec_apps::AppFactory& factory : opec_apps::TrafficApps()) {
      std::fprintf(stderr, " %s", KeyName(factory.name).c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  opec_apps::AppRun run(*app, mode, engine_kind);
  run.EnableEventRecording();
  if (rv_name != "off") {
    run.EnableRv();
  }
  opec_rt::RunResult result = run.Execute();
  std::string check = run.Check();
  std::printf("%s [%s/%s]: ok=%d cycles=%llu statements=%llu\n", app->name().c_str(),
              mode_name.c_str(), opec_apps::EngineKindName(engine_kind), result.ok,
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.statements));
  if (!result.ok) {
    std::printf("violation: %s\n", result.violation.c_str());
  }
  if (!check.empty()) {
    std::printf("scenario check: %s\n", check.c_str());
  }
  if (run.rv() != nullptr) {
    if (rv_name == "report") {
      std::printf("%s", run.rv()->Report().c_str());
    } else if (run.rv()->total_violations() != 0) {
      std::printf("rv: %llu violation(s) — rerun with --rv report for details\n",
                  static_cast<unsigned long long>(run.rv()->total_violations()));
    }
  }

  const opec_obs::Recorder* recorder = run.recorder();
  std::vector<opec_obs::Event> events = recorder->Snapshot();
  opec_obs::Naming naming = run.EventNaming();
  if (recorder->dropped() != 0) {
    std::printf("note: ring buffer wrapped, %llu oldest events dropped from exports\n",
                static_cast<unsigned long long>(recorder->dropped()));
  }

  if (!trace_out.empty()) {
    if (!opec_obs::WriteFile(trace_out, opec_obs::ChromeTraceJson(events, naming,
                                                                  app->name(),
                                                                  recorder->dropped()))) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu events, Chrome trace-event JSON)\n", trace_out.c_str(),
                events.size());
  }
  if (!jsonl_out.empty()) {
    if (!opec_obs::WriteFile(jsonl_out,
                             opec_obs::JsonLines(events, naming, recorder->dropped()))) {
      std::fprintf(stderr, "cannot write %s\n", jsonl_out.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu events, JSONL)\n", jsonl_out.c_str(), events.size());
  }
  if (profile) {
    std::printf("%s", opec_obs::RenderProfileTable(opec_obs::AggregateProfiles(events), naming)
                          .c_str());
  }
  for (const opec_obs::FaultReport& report : run.engine().fault_reports()) {
    std::printf("\n%s", report.Render().c_str());
  }
  return result.ok && check.empty() ? 0 : 1;
}
