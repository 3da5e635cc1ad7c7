#include "bench/figures_lib.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/aces_util.h"
#include "bench/bench_util.h"
#include "src/campaign/campaign.h"
#include "src/compiler/opec_compiler.h"
#include "src/ir/builder.h"
#include "src/metrics/over_privilege.h"
#include "src/metrics/report.h"
#include "src/monitor/monitor.h"
#include "src/rt/engine.h"
#include "src/support/options.h"
#include "src/support/text.h"

namespace opec_bench {
namespace {

using opec_aces::AcesStrategy;
using opec_campaign::ParallelMap;
using opec_metrics::Cdf;
using opec_metrics::Num;
using opec_metrics::Pct;
using opec_support::StrPrintf;

constexpr AcesStrategy kAcesStrategies[] = {AcesStrategy::kFilename,
                                            AcesStrategy::kFilenameNoOpt,
                                            AcesStrategy::kPeripheral};

// The AllApps() subset Figures 10/11 evaluate (the ACES comparison set).
std::vector<opec_apps::AppFactory> AcesComparisonApps() {
  std::vector<opec_apps::AppFactory> out;
  for (opec_apps::AppFactory& factory : opec_apps::AllApps()) {
    if (factory.in_aces_comparison) {
      out.push_back(std::move(factory));
    }
  }
  return out;
}

}  // namespace

std::string Figure9Text(int jobs) {
  const std::vector<opec_apps::AppFactory> apps = opec_apps::AllApps();
  std::vector<OverheadResult> results = ParallelMap(jobs, apps.size(), [&](size_t i) {
    std::unique_ptr<opec_apps::Application> app = apps[i].make();
    return MeasureOverhead(*app);
  });

  opec_metrics::Table table({"Application", "Runtime Overhead(%)", "Flash Overhead(%)",
                             "SRAM Overhead(%)", "Vanilla cycles", "OPEC cycles"});
  double sum_ro = 0;
  double sum_fo = 0;
  double sum_so = 0;
  int n = 0;
  for (const OverheadResult& r : results) {
    table.AddRow({r.app, Pct(r.runtime_overhead()), Pct(r.flash_overhead()),
                  Pct(r.sram_overhead()), std::to_string(r.vanilla_cycles),
                  std::to_string(r.opec_cycles)});
    sum_ro += r.runtime_overhead();
    sum_fo += r.flash_overhead();
    sum_so += r.sram_overhead();
    ++n;
  }
  table.AddRow({"Average", Pct(sum_ro / n), Pct(sum_fo / n), Pct(sum_so / n), "", ""});

  std::string out = StrPrintf("Figure 9: performance overhead of OPEC\n%s",
                              table.ToString().c_str());
  out += "\nPaper reference (Figure 9): average runtime 0.23% (max 1.1%, CoreMark),\n"
         "average Flash 1.79% (max 3.33%), average SRAM 5.35% (max 7.62%).\n"
         "Expected shape: runtime << Flash << SRAM; CoreMark has the largest\n"
         "runtime overhead because it never waits on I/O.\n";
  return out;
}

std::string Figure10Text(int jobs) {
  const std::vector<opec_apps::AppFactory> apps = AcesComparisonApps();
  std::vector<std::string> blocks = ParallelMap(jobs, apps.size(), [&](size_t i) {
    std::unique_ptr<opec_apps::Application> app = apps[i].make();
    std::string out =
        StrPrintf("=== Figure 10(%s): PT cumulative distribution ===\n", app->name().c_str());

    // OPEC: PT must be 0 for every operation.
    opec_apps::AppRun opec(*app, opec_apps::BuildMode::kOpec);
    std::vector<opec_metrics::DomainPt> opec_pt =
        opec_metrics::ComputeOpecPt(opec.compile()->policy);
    double opec_max = 0;
    for (const opec_metrics::DomainPt& d : opec_pt) {
      opec_max = std::max(opec_max, d.pt());
    }
    out += StrPrintf("OPEC: %zu operations, max PT = %.4f (shadowing: always 0)\n",
                     opec_pt.size(), opec_max);

    for (AcesStrategy strategy : kAcesStrategies) {
      AcesRunResult aces = RunUnderAces(*app, strategy);
      std::vector<opec_metrics::DomainPt> pts = opec_metrics::ComputeAcesPt(aces.partition);
      std::vector<double> values;
      for (const opec_metrics::DomainPt& d : pts) {
        values.push_back(d.pt());
      }
      auto cdf = Cdf(values);
      out += StrPrintf("%s (%zu compartments, %d region merges): CDF points (PT, ratio):",
                       opec_aces::StrategyName(strategy), pts.size(),
                       aces.partition.merge_steps);
      for (const auto& [pt, ratio] : cdf) {
        out += StrPrintf(" (%.3f, %.2f)", pt, ratio);
      }
      out += "\n";
    }
    out += "\n";
    return out;
  });

  std::string out;
  for (const std::string& block : blocks) {
    out += block;
  }
  out += "Paper reference (Figure 10): every ACES strategy except PinLock under\n"
         "ACES2/ACES3 shows compartments with PT > 0; OPEC is 0 everywhere.\n";
  return out;
}

std::string Figure11Text(int jobs) {
  const std::vector<opec_apps::AppFactory> apps = AcesComparisonApps();
  std::vector<std::string> blocks = ParallelMap(jobs, apps.size(), [&](size_t i) {
    std::unique_ptr<opec_apps::Application> app = apps[i].make();

    // Traced OPEC run: gives per-operation executed-function windows.
    opec_apps::AppRun run(*app, opec_apps::BuildMode::kOpec);
    run.EnableTrace();
    opec_rt::RunResult result = run.Execute();
    OPEC_CHECK_MSG(result.ok, result.violation);
    const opec_compiler::Policy& policy = run.compile()->policy;
    const auto& resources = run.compile()->resources;

    std::vector<opec_metrics::TaskEt> opec_et =
        opec_metrics::ComputeOpecEt(policy, run.trace(), resources);

    opec_metrics::Table table({"Task", "OPEC", "ACES1", "ACES2", "ACES3"});
    std::vector<std::vector<opec_metrics::TaskEt>> aces_et;
    for (AcesStrategy strategy : kAcesStrategies) {
      opec_aces::AcesResult partition =
          PartitionAcesFor(run.module(), app->Soc(), resources, strategy);
      aces_et.push_back(
          opec_metrics::ComputeAcesEt(policy, partition, run.trace(), resources));
    }
    for (size_t t = 0; t < opec_et.size(); ++t) {
      std::vector<std::string> row{opec_et[t].task, Num(opec_et[t].et())};
      for (const auto& ets : aces_et) {
        bool found = false;
        for (const opec_metrics::TaskEt& e : ets) {
          if (e.operation_id == opec_et[t].operation_id) {
            row.push_back(Num(e.et()));
            found = true;
            break;
          }
        }
        if (!found) {
          row.push_back("-");
        }
      }
      table.AddRow(std::move(row));
    }
    return StrPrintf("=== Figure 11(%s): ET per task ===\n%s\n", app->name().c_str(),
                     table.ToString().c_str());
  });

  std::string out;
  for (const std::string& block : blocks) {
    out += block;
  }
  out += "Paper reference (Figure 11): OPEC's ET is lower than ACES's on most\n"
         "tasks; a few tasks (LCD-uSD, TCP-Echo) can be higher for OPEC due to\n"
         "untaken branches and spurious icall targets in the operation.\n";
  return out;
}

namespace {

// One synthetic two-operation shadow-sync measurement (ablation_shadow_sync).
uint64_t MeasureSwitchPairCycles(uint32_t shared_bytes, int switches) {
  opec_ir::Module m("sync");
  auto& tt = m.types();
  m.AddGlobal("buf", tt.ArrayOf(tt.U8(), shared_bytes));
  {
    auto* fn = m.AddFunction("Task", tt.FunctionTy(tt.VoidTy(), {}), {});
    opec_ir::FunctionBuilder b(m, fn);
    b.Assign(b.Idx(b.G("buf"), 0u), b.U8(1));  // touch the buffer (shares it)
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m.AddFunction("main", tt.FunctionTy(tt.U32(), {}), {});
    opec_ir::FunctionBuilder b(m, fn);
    opec_ir::Val i = b.Local("i", tt.U32());
    b.Assign(b.Idx(b.G("buf"), 1u), b.U8(2));  // main shares it too
    b.Assign(i, b.U32(0));
    b.While(i < b.U32(static_cast<uint32_t>(switches)));
    {
      b.Call("Task");
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Ret(b.U32(0));
    b.Finish();
  }
  opec_hw::SocDescription soc;
  opec_compiler::PartitionConfig config;
  config.entries.push_back({"Task", {}});
  opec_hw::Machine machine(opec_hw::Board::kStm32479iEval);
  opec_compiler::CompileResult compile =
      opec_compiler::CompileOpec(m, soc, config, machine.board().board);
  opec_monitor::Monitor monitor(machine, compile.policy, soc);
  opec_compiler::LoadGlobals(machine, m, compile.layout);
  opec_rt::ExecutionEngine engine(machine, m, compile.layout, &monitor);
  opec_rt::RunResult r = engine.Run("main");
  if (!r.ok) {
    std::fprintf(stderr, "run failed: %s\n", r.violation.c_str());
    return 0;
  }
  return r.cycles / static_cast<uint64_t>(switches);
}

}  // namespace

std::string AblationShadowSyncText(int jobs) {
  const std::vector<uint32_t> sizes = {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u};
  std::vector<uint64_t> cycles = ParallelMap(jobs, sizes.size(), [&](size_t i) {
    return MeasureSwitchPairCycles(sizes[i], 50);
  });

  opec_metrics::Table table({"Shared bytes", "Cycles per enter+exit pair"});
  for (size_t i = 0; i < sizes.size(); ++i) {
    table.AddRow({std::to_string(sizes[i]), std::to_string(cycles[i])});
  }
  std::string out = StrPrintf("Ablation: shadow-synchronization cost vs shared-state size\n%s",
                              table.ToString().c_str());
  out += "\nExpected shape: cost grows linearly with the shared bytes — the price\n"
         "OPEC pays (in cycles and SRAM) for driving partition-time over-privilege\n"
         "to zero, vs ACES's free-but-over-privileged merged regions.\n";
  return out;
}

std::string AblationSwitchFrequencyText(int jobs) {
  const std::vector<opec_apps::AppFactory> apps = opec_apps::AllApps();
  std::vector<std::vector<std::string>> rows = ParallelMap(jobs, apps.size(), [&](size_t i) {
    std::unique_ptr<opec_apps::Application> app = apps[i].make();
    opec_apps::AppRun opec(*app, opec_apps::BuildMode::kOpec);
    opec_rt::RunResult r = opec.Execute();
    OPEC_CHECK_MSG(r.ok, r.violation);
    std::vector<std::string> row{app->name(),
                                 std::to_string(opec.monitor()->stats().operation_switches)};
    for (AcesStrategy strategy : kAcesStrategies) {
      AcesRunResult aces = RunUnderAces(*app, strategy);
      row.push_back(std::to_string(aces.switches));
    }
    return row;
  });

  opec_metrics::Table table(
      {"Application", "OPEC switches", "ACES1 switches", "ACES2 switches", "ACES3 switches"});
  for (std::vector<std::string>& row : rows) {
    table.AddRow(std::move(row));
  }
  std::string out = StrPrintf("Ablation: domain-switch frequency, OPEC vs ACES strategies\n%s",
                              table.ToString().c_str());
  out += "\nExpected shape: OPEC switches only at operation entry/exit; ACES\n"
         "switches on the hot path (e.g. every HAL call crossing a file), which\n"
         "is the Section 3.1 argument for operation-based partitioning.\n";
  return out;
}

int ParseJobsFlag(int argc, char** argv, const char* program) {
  int jobs = 1;
  opec_support::OptionTable options(program);
  options.Count("jobs", &jobs, 1, 1024, "worker threads (output is identical for any N)");
  if (!options.Parse(argc, argv)) {
    std::exit(2);
  }
  return jobs;
}

}  // namespace opec_bench
