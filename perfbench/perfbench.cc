// The repository benchmark's binary (see README.md in this directory).
//
// One process runs one workload for a fixed host-time window and prints one
// JSON report line. With --trace 0 the report carries the end-to-end metrics
// of an untraced window, scaled to a reference host speed (calibration.h);
// with --trace 1 it carries the per-layer metrics of a
// traced pass over every workload, each next to an untraced pass over the same
// inputs (the difference is the tracing overhead).
//
//   perfbench --workload firmware_build|coremark_exec|echo_load|fault_sweep
//             --seed N --seconds S --trace 0|1
//             [--ops N] [--references FILE]
//             [--trace-dir DIR] [--record-references]
//
// --ops N runs exactly enough steps for N ops instead of a time window, so two
// runs with the same seed are comparable op for op (the self-tests use it).
//
// Every op runs under opec_support::ScopedCheckThrow: an OPEC_CHECK failure
// becomes a failed op instead of aborting. An op also fails when its run is
// not ok, its scenario check reports a diagnostic, or its modeled digest
// (cycles, statements, return value, monitor statistics) differs from the
// reference for that input: the digest recorded in --references or a replay
// on the other execution tier after the window. Every run also checks a fixed
// canary input per workload against --references, whatever the seed, and the
// report says whether the seed's own reference was found and checked.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perfbench/calibration.h"
#include "perfbench/trace.h"
#include "src/analysis/call_graph.h"
#include "src/analysis/points_to.h"
#include "src/analysis/resource_analysis.h"
#include "src/apps/all_apps.h"
#include "src/apps/coremark.h"
#include "src/apps/runner.h"
#include "src/apps/tcp_echo.h"
#include "src/campaign/campaign.h"
#include "src/compiler/image.h"
#include "src/compiler/instrument.h"
#include "src/compiler/layout.h"
#include "src/compiler/opec_compiler.h"
#include "src/compiler/partitioner.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/program.h"
#include "src/obs/event.h"
#include "src/rt/bytecode/vm.h"
#include "src/support/check.h"
#include "src/traffic/traffic.h"

namespace perfbench {
namespace {

using opec_apps::AppRun;
using opec_apps::Application;
using opec_apps::BuildMode;
using opec_apps::EngineKind;

constexpr BuildMode kModes[] = {BuildMode::kVanilla, BuildMode::kOpec};

// ---------------------------------------------------------------------------
// Small helpers.

class Fnv {
 public:
  Fnv& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
    return *this;
  }
  Fnv& Add(const std::string& s) {
    Add(s.size());
    for (unsigned char c : s) {
      h_ = (h_ ^ c) * 0x100000001B3ull;
    }
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Base of a workload's input seeds: distinct benchmark seeds give unrelated
// input streams (seed s and s+1 do not share inputs shifted by one).
uint64_t InputBase(uint64_t seed) { return opec_campaign::SplitMix64::JobSeed(seed, 0) >> 8; }

// Input seed of each workload's canary: a fixed input checked against
// --references in every run's Verify, whatever the benchmark seed.
constexpr uint64_t kCanarySeed = 0x0BEC;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Nearest-rank percentile of `sorted`; *beyond receives the number of samples
// strictly above the rank.
double Percentile(const std::vector<double>& sorted, double pct, size_t* beyond) {
  size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  *beyond = n - rank;
  return sorted[rank - 1];
}

// op_tail_ms is this percentile. Deeper tails (p99 over 20000 firmware_build
// ops) moved by up to 45% between runs with host stalls the normalization
// cannot see. A timed window runs at least OpsForTail() ops, so the tail always
// has 10 samples beyond it.
constexpr double kTailPct = 90;

size_t OpsForTail() {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - kTailPct / 100.0)));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Metric name -> (value, unit), printed in insertion-independent order.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Exact per-op counts recorded during traced ops, averaged over a fixed op
// prefix so they repeat bit for bit for a given seed.
using Counts = std::map<std::string, std::vector<double>>;

// ---------------------------------------------------------------------------
// One image: built cold, executed once, checked.

struct AppOp {
  bool failed = false;
  std::string error;
  uint64_t digest = 0;
  uint64_t statements = 0;
  uint32_t return_value = 0;
  uint64_t exec_ns = 0;
  uint64_t events = 0;
  uint64_t mpu_writes = 0;
  opec_monitor::MonitorStats monitor;
  uint32_t operations = 0;  // OPEC mode: operations in the policy
  opec_compiler::MemoryAccounting accounting;
  std::map<std::string, uint32_t> layout;  // global name -> guest address
  std::vector<uint32_t> layout_regions;    // stack top/base, heap base/size
};

class CountingSink : public opec_obs::Sink {
 public:
  void OnEvent(const opec_obs::Event&) override { ++count_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

uint64_t ModeledDigest(const opec_rt::RunResult& r, const opec_monitor::MonitorStats& m) {
  return Fnv()
      .Add(r.ok)
      .Add(r.cycles)
      .Add(r.statements)
      .Add(r.return_value)
      .Add(m.operation_switches)
      .Add(m.synced_bytes)
      .Add(m.relocated_stack_bytes)
      .Add(m.virtualization_faults)
      .Add(m.emulated_core_accesses)
      .Add(m.pointer_redirections)
      .Add(m.sanitization_checks)
      .value();
}

void RecordLayout(const opec_rt::AddressAssignment& layout, AppOp* out) {
  for (const auto& [gv, addr] : layout.global_addr) {
    out->layout[gv->name()] = addr;
  }
  out->layout_regions = {layout.stack_top, layout.stack_base, layout.heap_base, layout.heap_size};
}

// Builds `app` in `mode` with a cold AppRun, runs it once and checks its
// scenario. With a tracer, the build, bytecode lowering, execution and check
// each get a span and a counting sink tallies obs events.
AppOp RunApp(const Application& app, BuildMode mode, EngineKind engine, Tracer* tracer,
             int64_t op) {
  AppOp out;
  try {
    opec_support::ScopedCheckThrow check_throw;
    std::unique_ptr<AppRun> run;
    {
      ScopedSpan span(tracer, "apps.build", op);
      run = std::make_unique<AppRun>(app, mode, engine);
    }
    if (tracer != nullptr && engine == EngineKind::kBytecode) {
      ScopedSpan span(tracer, "rt.lower", op);
      dynamic_cast<opec_rt::bytecode::VM&>(run->engine()).Bytecode();
    }
    CountingSink counting;
    if (tracer != nullptr) {
      run->AttachSink(&counting);
    }
    opec_rt::RunResult r;
    uint64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "rt.exec", op);
      r = run->Execute();
    }
    out.exec_ns = NowNs() - t0;
    std::string check;
    {
      ScopedSpan span(tracer, "apps.check", op);
      check = r.ok ? run->Check() : "run failed: " + r.violation;
    }
    if (run->monitor() != nullptr) {
      out.monitor = run->monitor()->stats();
    }
    out.digest = ModeledDigest(r, out.monitor);
    out.statements = r.statements;
    out.return_value = r.return_value;
    out.events = counting.count();
    out.mpu_writes = run->machine().mpu().config_writes();
    if (tracer != nullptr) {
      out.accounting = run->accounting();
      RecordLayout(run->layout(), &out);
      if (run->compile() != nullptr) {
        out.operations = static_cast<uint32_t>(run->compile()->policy.operations.size());
      }
    }
    if (!check.empty()) {
      out.failed = true;
      out.error = app.name() + ": " + check;
    }
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = app.name() + ": " + e.what();
  }
  return out;
}

// The build chain of AppRun's constructor, stage by stage, on a fresh module:
// BuildModule, then the stages CompileOpec calls in the same order (vanilla:
// BuildVanillaImage), then machine + devices + LoadGlobals. The result is
// compared against the AppRun build of the same input (the decomposition
// check), so the stage spans provably describe the build they time.
struct DecomposedBuild {
  bool failed = false;
  std::string error;
  uint32_t operations = 0;
  uint64_t icall_targets = 0;
  opec_compiler::MemoryAccounting accounting;
  AppOp shape;  // layout + accounting in AppOp form, for comparison
};

DecomposedBuild DecomposeBuild(const Application& app, BuildMode mode, Tracer* tracer,
                               int64_t op) {
  DecomposedBuild out;
  try {
    opec_support::ScopedCheckThrow check_throw;
    ScopedSpan root(tracer, "build.decomposed", op);
    opec_hw::SocDescription soc = app.Soc();
    std::unique_ptr<opec_ir::Module> module;
    {
      ScopedSpan span(tracer, "ir.build_module", op);
      module = app.BuildModule();
    }
    opec_rt::AddressAssignment layout;
    if (mode == BuildMode::kOpec) {
      opec_compiler::PartitionConfig config = app.Partition();
      opec_compiler::CompileResult result;
      std::optional<opec_analysis::PointsToAnalysis> pta;
      {
        ScopedSpan span(tracer, "analysis.points_to", op);
        pta.emplace(*module);
        pta->Run();
      }
      std::optional<opec_analysis::CallGraph> cg;
      {
        ScopedSpan span(tracer, "analysis.call_graph", op);
        cg.emplace(opec_analysis::CallGraph::Build(*module, *pta));
      }
      {
        ScopedSpan span(tracer, "analysis.resources", op);
        result.resources = opec_analysis::ResourceAnalysis::Run(*module, *pta, soc);
      }
      result.icall_stats = cg->Stats();
      {
        ScopedSpan span(tracer, "compiler.partition", op);
        result.partition =
            opec_compiler::PartitionOperations(*module, *cg, result.resources, config);
      }
      {
        ScopedSpan span(tracer, "compiler.layout", op);
        opec_compiler::BuildLayout(*module, result.partition, config, soc, app.board(),
                                   &result.policy, &result.layout);
      }
      {
        ScopedSpan span(tracer, "compiler.instrument", op);
        result.instrument_stats = opec_compiler::InstrumentModule(*module, result.policy);
        opec_compiler::FinishOpecImage(*module, result.instrument_stats, app.board(),
                                       &result.policy, &result.layout);
      }
      for (const opec_analysis::ICallSite& site : cg->icall_sites()) {
        out.icall_targets += site.targets.size();
      }
      out.operations = static_cast<uint32_t>(result.policy.operations.size());
      out.accounting = result.policy.accounting;
      layout = result.layout;
    } else {
      ScopedSpan span(tracer, "compiler.instrument", op);
      opec_compiler::VanillaImage image = opec_compiler::BuildVanillaImage(*module, app.board());
      out.accounting = image.accounting;
      layout = image.layout;
    }
    std::unique_ptr<opec_hw::Machine> machine;
    std::unique_ptr<opec_apps::AppDevices> devices;
    {
      ScopedSpan span(tracer, "hw.machine_init", op);
      machine = std::make_unique<opec_hw::Machine>(app.board());
      devices = app.CreateDevices(*machine);
      opec_compiler::LoadGlobals(*machine, *module, layout);
    }
    RecordLayout(layout, &out.shape);
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = app.name() + ": decomposed build: " + e.what();
  }
  return out;
}

bool SameAccounting(const opec_compiler::MemoryAccounting& a,
                    const opec_compiler::MemoryAccounting& b) {
  return std::tie(a.flash_app_code, a.flash_monitor_code, a.flash_metadata, a.flash_rodata,
                  a.sram_public, a.sram_internal, a.sram_sections, a.sram_reloc, a.sram_monitor,
                  a.sram_stack, a.sram_heap) ==
         std::tie(b.flash_app_code, b.flash_monitor_code, b.flash_metadata, b.flash_rodata,
                  b.sram_public, b.sram_internal, b.sram_sections, b.sram_reloc, b.sram_monitor,
                  b.sram_stack, b.sram_heap);
}

// Empty when the stage-by-stage build matches the AppRun build.
std::string CompareDecomposition(const DecomposedBuild& d, const AppOp& built) {
  if (d.failed) {
    return d.error;
  }
  if (d.operations != built.operations) {
    return "decomposition: operation count differs";
  }
  if (d.shape.layout != built.layout || d.shape.layout_regions != built.layout_regions) {
    return "decomposition: layout differs";
  }
  if (!SameAccounting(d.accounting, built.accounting)) {
    return "decomposition: memory accounting differs";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Workloads.

struct OpRecord {
  uint64_t wall_ns = 0;     // host latency of the op
  uint64_t end_ns = 0;      // window time when its step ended (calibration excluded)
  uint64_t statements = 0;  // modeled statements the op executed
  uint64_t digest = 0;      // modeled digest of the op's outputs
  bool failed = false;
};

struct Window {
  std::vector<OpRecord> ops;
  uint64_t elapsed_ns = 0;  // window time, calibration excluded
  // (window time, kernel ns) of every calibration sample.
  std::vector<std::pair<uint64_t, uint64_t>> calibration;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* engine() const = 0;
  virtual int threads() const { return 1; }
  // Every window runs at least this many ops; exact per-op counts average
  // over this prefix.
  virtual size_t min_ops() const = 0;

  // Input generation, registry and warm-up. Called several times per run
  // (setup_s is their median); the last call's inputs are used.
  virtual void Setup(uint64_t seed) = 0;
  // Makes the input of the op with index `next_op`, outside the timed window.
  virtual void Prepare(size_t next_op) { (void)next_op; }
  // Runs the next op (or batch of ops) and appends one record per op; the
  // op index of the first is ops->size(). The tracer is null when untraced.
  virtual void Step(Tracer* tracer, std::vector<OpRecord>* ops) = 0;
  // Called before each window: clears per-window state.
  virtual void BeginWindow() { counts_.clear(); }
  // Runs the workload's canary input and replays a sample of `window` on an
  // independent path after timing; returns how many checks disagree with
  // their reference.
  virtual size_t Verify(const Window& window) = 0;
  // Digest of the generated inputs (differs between seeds).
  virtual uint64_t InputDigest() const = 0;
  // Per-layer metrics of a traced window.
  virtual void LayerMetrics(const Tracer& tracer, const Window& window, Metrics* out) = 0;

  // Reference digests for fixed inputs ("fixed:<input>" keys), from the
  // references file.
  std::map<std::string, uint64_t>& references() { return references_; }
  const std::map<std::string, uint64_t>& fixed_digests() const { return fixed_digests_; }
  const std::vector<std::string>& errors() const { return errors_; }

 protected:
  // Checks the digest of a fixed input against its reference; a fixed input
  // without a reference fails.
  bool FixedDigestOk(const std::string& input, uint64_t digest) {
    std::string key = "fixed:" + input;
    fixed_digests_.emplace(key, digest);
    auto it = references_.find(key);
    if (it == references_.end()) {
      Error(input + ": no reference digest for fixed input");
      return false;
    }
    if (it->second != digest) {
      Error(input + ": modeled digest " + Hex(digest) + " differs from reference " +
            Hex(it->second));
      return false;
    }
    return true;
  }
  void Error(const std::string& e) {
    if (errors_.size() < 20) {
      errors_.push_back(e);
    }
  }
  void Count(const std::string& name, double v) { counts_[name].push_back(v); }
  // Mean of a count recorded during the first min_ops() ops.
  double CountMean(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : Mean(it->second);
  }

  Counts counts_;

 private:
  std::map<std::string, uint64_t> references_;
  std::map<std::string, uint64_t> fixed_digests_;
  std::vector<std::string> errors_;
};

double MedianSpanUs(const std::map<std::string, std::vector<double>>& self,
                    const std::string& name) {
  auto it = self.find(name);
  return it == self.end() ? 0 : Median(it->second);
}

double SumSpanUs(const std::map<std::string, std::vector<double>>& self,
                 const std::string& name) {
  auto it = self.find(name);
  double sum = 0;
  if (it != self.end()) {
    for (double v : it->second) {
      sum += v;
    }
  }
  return sum;
}

// firmware_build: each op builds one input cold in vanilla and OPEC mode and
// runs each image once on the interpreter tier. The first ops build the six
// IoT paper apps; every later op builds the generated program of the next
// input seed (base, base + 1, ...), so no input repeats within a window. Each
// op makes its Application afresh, and the program is generated before the
// op, outside the timed window.
class FirmwareBuild : public Workload {
 public:
  const char* engine() const override { return "interp"; }
  size_t min_ops() const override { return 64; }

  void Setup(uint64_t seed) override {
    base_ = InputBase(seed);
    iot_.clear();
    for (opec_apps::AppFactory& f : opec_apps::AllApps()) {
      if (f.name != "CoreMark") {
        iot_.push_back(std::move(f));
      }
    }
    // Warm-up: one untimed op per IoT app.
    for (size_t i = 0; i < iot_.size(); ++i) {
      RunOp(*MakeInput(i, nullptr), iot_[i].name, nullptr, -1);
    }
  }

  void Prepare(size_t next_op) override {
    double generate_us = 0;
    next_ = MakeInput(next_op, &generate_us);
    if (next_op >= iot_.size()) {
      generate_us_.push_back(generate_us);
    }
  }

  void Step(Tracer* tracer, std::vector<OpRecord>* ops) override {
    size_t index = ops->size();
    std::unique_ptr<Application> app = std::move(next_);  // made by Prepare(index)
    uint64_t t0 = NowNs();
    OpRecord rec = RunOp(*app, FixedName(index), tracer, static_cast<int64_t>(index));
    rec.wall_ns = NowNs() - t0;
    ops->push_back(rec);
  }

  void BeginWindow() override {
    Workload::BeginWindow();
    generate_us_.clear();
  }

  size_t Verify(const Window& window) override {
    size_t mismatches = 0;
    opec_fuzz::FuzzApplication canary(opec_fuzz::GenerateProgram(kCanarySeed));
    if (RunOp(canary, "canary", nullptr, -1).failed) {
      ++mismatches;
    }
    // Replay up to 32 generated-program ops spread over the window on the
    // bytecode tier; modeled outputs are tier-invariant.
    size_t first = iot_.size();
    size_t last = window.ops.size();
    if (last <= first) {
      return mismatches;
    }
    size_t count = std::min<size_t>(32, last - first);
    for (size_t k = 0; k < count; ++k) {
      size_t index = first + k * (last - first) / count;
      std::unique_ptr<Application> app = MakeInput(index, nullptr);
      Fnv digest;
      for (BuildMode mode : kModes) {
        digest.Add(RunApp(*app, mode, EngineKind::kBytecode, nullptr, -1).digest);
      }
      if (digest.value() != window.ops[index].digest) {
        Error("op " + std::to_string(index) + ": bytecode replay digest differs");
        ++mismatches;
      }
    }
    return mismatches;
  }

  uint64_t InputDigest() const override {
    Fnv digest;
    for (size_t i = 0; i < min_ops(); ++i) {
      digest.Add(opec_fuzz::SpecSummary(opec_fuzz::GenerateProgram(base_ + i)));
    }
    return digest.value();
  }

  void LayerMetrics(const Tracer& tracer, const Window& window, Metrics* out) override {
    (void)window;
    auto self = tracer.SelfUsByName();
    for (const char* name :
         {"ir.build_module", "analysis.points_to", "analysis.call_graph", "analysis.resources",
          "compiler.partition", "compiler.layout", "compiler.instrument", "hw.machine_init"}) {
      (*out)[std::string(name) + "_us"] = {MedianSpanUs(self, name), "us"};
    }
    (*out)["apps.build_us"] = {MedianSpanUs(self, "apps.build"), "us"};
    // The stage spans against the AppRun constructor spans on the same inputs.
    double stages = 0;
    for (const char* name :
         {"ir.build_module", "analysis.points_to", "analysis.call_graph", "analysis.resources",
          "compiler.partition", "compiler.layout", "compiler.instrument", "hw.machine_init"}) {
      stages += SumSpanUs(self, name);
    }
    double builds = SumSpanUs(self, "apps.build");
    (*out)["build.unattributed_pct"] = {builds > 0 ? 100.0 * (builds - stages) / builds : 0, "%"};
    (*out)["compiler.operations"] = {CountMean("compiler.operations"), "count"};
    (*out)["analysis.icall_targets"] = {CountMean("analysis.icall_targets"), "count"};
    (*out)["fuzz.generate_us"] = {Median(generate_us_), "us"};
  }

 private:
  // The registry name of an IoT-app input; empty for a generated program.
  std::string FixedName(size_t index) const {
    return index < iot_.size() ? iot_[index].name : std::string();
  }

  // The input of op `index`; *generate_us receives the time GenerateProgram
  // took for a generated program.
  std::unique_ptr<Application> MakeInput(size_t index, double* generate_us) const {
    if (index < iot_.size()) {
      return iot_[index].make();
    }
    uint64_t t0 = NowNs();
    opec_fuzz::ProgramSpec spec = opec_fuzz::GenerateProgram(base_ + (index - iot_.size()));
    if (generate_us != nullptr) {
      *generate_us = static_cast<double>(NowNs() - t0) / 1e3;
    }
    return std::make_unique<opec_fuzz::FuzzApplication>(std::move(spec));
  }

  // Builds and runs `app` in both modes. A fixed input (`fixed` names it)
  // must match its reference digest; a generated program's vanilla and OPEC
  // builds must agree.
  OpRecord RunOp(const Application& app, const std::string& fixed, Tracer* tracer, int64_t op) {
    OpRecord rec;
    AppOp built[2];
    {
      ScopedSpan span(tracer, "op", op);
      for (int m = 0; m < 2; ++m) {
        built[m] = RunApp(app, kModes[m], EngineKind::kInterp, tracer, op);
      }
    }
    DecomposedBuild decomposed[2];
    if (tracer != nullptr) {
      for (int m = 0; m < 2; ++m) {
        decomposed[m] = DecomposeBuild(app, kModes[m], tracer, op);
      }
    }
    Fnv digest;
    for (int m = 0; m < 2; ++m) {
      digest.Add(built[m].digest);
      rec.statements += built[m].statements;
      if (built[m].failed) {
        Error(built[m].error);
        rec.failed = true;
      }
      if (tracer != nullptr) {
        std::string diff = CompareDecomposition(decomposed[m], built[m]);
        if (!diff.empty()) {
          Error(app.name() + ": " + diff);
          rec.failed = true;
        }
      }
    }
    rec.digest = digest.value();
    if (!fixed.empty()) {
      rec.failed |= !FixedDigestOk(fixed, rec.digest);
    } else if (built[0].return_value != built[1].return_value) {
      // Differential oracle: vanilla and OPEC builds of one program agree.
      Error(app.name() + ": vanilla and OPEC return values differ");
      rec.failed = true;
    }
    if (tracer != nullptr && op >= 0 && static_cast<size_t>(op) < min_ops()) {
      Count("compiler.operations", decomposed[1].operations);
      Count("analysis.icall_targets", static_cast<double>(decomposed[1].icall_targets));
    }
    return rec;
  }

  uint64_t base_ = 0;
  std::vector<opec_apps::AppFactory> iot_;  // the first inputs
  std::unique_ptr<Application> next_;       // input of the next op, made by Prepare
  std::vector<double> generate_us_;  // GenerateProgram time of each prepared input
};

// coremark_exec: each op runs CoreMark cold in vanilla and OPEC mode on the
// bytecode tier. The input is fixed; the seed does not change it.
class CoremarkExec : public Workload {
 public:
  const char* engine() const override { return "bytecode"; }
  size_t min_ops() const override { return 4; }

  void Setup(uint64_t seed) override {
    (void)seed;
    app_ = std::make_unique<opec_apps::CoreMarkApp>();
    RunOp(nullptr, -1);  // warm-up
  }

  void Step(Tracer* tracer, std::vector<OpRecord>* ops) override {
    uint64_t t0 = NowNs();
    OpRecord rec = RunOp(tracer, static_cast<int64_t>(ops->size()));
    rec.wall_ns = NowNs() - t0;
    ops->push_back(rec);
  }

  size_t Verify(const Window& window) override {
    (void)window;
    Fnv digest;
    for (BuildMode mode : kModes) {
      digest.Add(RunApp(*app_, mode, EngineKind::kInterp, nullptr, -1).digest);
    }
    if (!FixedDigestOk("CoreMark", digest.value())) {
      Error("CoreMark: interpreter replay digest differs");
      return 1;
    }
    return 0;
  }

  uint64_t InputDigest() const override { return Fnv().Add(app_->name()).value(); }

  void LayerMetrics(const Tracer& tracer, const Window& window, Metrics* out) override {
    auto self = tracer.SelfUsByName();
    (*out)["rt.exec_us"] = {MedianSpanUs(self, "rt.exec"), "us"};
    (*out)["rt.lower_us"] = {MedianSpanUs(self, "rt.lower"), "us"};
    uint64_t statements = 0;
    for (const OpRecord& r : window.ops) {
      statements += r.statements;
    }
    double exec_ns = 1e3 * SumSpanUs(self, "rt.exec");
    (*out)["rt.ns_per_stmt"] = {statements > 0 ? exec_ns / static_cast<double>(statements) : 0,
                                "ns"};
    (*out)["rt.statements"] = {CountMean("rt.statements"), "count"};
  }

 private:
  OpRecord RunOp(Tracer* tracer, int64_t op) {
    OpRecord rec;
    AppOp built[2];
    {
      ScopedSpan span(tracer, "op", op);
      for (int m = 0; m < 2; ++m) {
        built[m] = RunApp(*app_, kModes[m], EngineKind::kBytecode, tracer, op);
      }
    }
    Fnv digest;
    for (const AppOp& b : built) {
      digest.Add(b.digest);
      rec.statements += b.statements;
      if (b.failed) {
        Error(b.error);
        rec.failed = true;
      }
    }
    rec.digest = digest.value();
    rec.failed |= !FixedDigestOk("CoreMark", rec.digest);
    if (tracer != nullptr && op < static_cast<int64_t>(min_ops())) {
      Count("rt.statements", static_cast<double>(rec.statements));
    }
    return rec;
  }

  std::unique_ptr<Application> app_;
};

// echo_load: each op is one seeded 512-request TCP-Echo traffic batch, run on
// the PIO and the DMA Ethernet model, each in vanilla and OPEC mode, on the
// bytecode tier.
class EchoLoad : public Workload {
 public:
  const char* engine() const override { return "bytecode"; }
  size_t min_ops() const override { return 4; }

  void Setup(uint64_t seed) override {
    base_ = InputBase(seed);
    opec_traffic::TrafficSpec warm = Spec(base_ - 1);
    for (auto variant : kVariants) {
      opec_apps::TcpEchoApp app(warm, variant);
      for (BuildMode mode : kModes) {
        RunApp(app, mode, EngineKind::kBytecode, nullptr, -1);
      }
    }
  }

  void Step(Tracer* tracer, std::vector<OpRecord>* ops) override {
    int64_t index = static_cast<int64_t>(ops->size());
    opec_traffic::TrafficSpec spec = Spec(base_ + static_cast<uint64_t>(index));
    bool count = tracer != nullptr && index < static_cast<int64_t>(min_ops());
    OpRecord rec;
    std::vector<AppOp> built;
    uint64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "op", index);
      for (auto variant : kVariants) {
        opec_apps::TcpEchoApp app(spec, variant);
        for (BuildMode mode : kModes) {
          built.push_back(RunApp(app, mode, EngineKind::kBytecode, tracer, index));
        }
      }
    }
    rec.wall_ns = NowNs() - t0;
    if (tracer != nullptr) {
      // The scenario generates this traffic inside Execute; time it alone.
      opec_traffic::GeneratedTraffic gen;
      {
        ScopedSpan span(tracer, "traffic.generate", index);
        gen = opec_traffic::Generate(spec);
      }
      if (count) {
        Count("traffic.frames", static_cast<double>(gen.frames.size()));
        Count("traffic.expected_echoes", gen.expected_echoes);
      }
    }
    Fnv digest;
    for (size_t k = 0; k < built.size(); ++k) {
      const AppOp& b = built[k];
      digest.Add(b.digest);
      rec.statements += b.statements;
      if (b.failed) {
        Error(b.error);
        rec.failed = true;
      }
      bool opec = kModes[k % 2] == BuildMode::kOpec;
      if (tracer != nullptr) {
        (opec ? opec_exec_ns_ : vanilla_exec_ns_) += b.exec_ns;
        events_ += b.events;
        statements_ += b.statements;
      }
      if (count && opec) {
        Count("monitor.switches", static_cast<double>(b.monitor.operation_switches));
        Count("monitor.synced_bytes", static_cast<double>(b.monitor.synced_bytes));
        Count("monitor.relocated_stack_bytes",
              static_cast<double>(b.monitor.relocated_stack_bytes));
        Count("monitor.virtualization_faults",
              static_cast<double>(b.monitor.virtualization_faults));
        Count("monitor.emulated_core_accesses",
              static_cast<double>(b.monitor.emulated_core_accesses));
        Count("monitor.sanitization_checks", static_cast<double>(b.monitor.sanitization_checks));
        Count("hw.mpu_config_writes", static_cast<double>(b.mpu_writes));
      }
    }
    rec.digest = digest.value();
    ops->push_back(rec);
  }

  void BeginWindow() override {
    Workload::BeginWindow();
    opec_exec_ns_ = vanilla_exec_ns_ = events_ = statements_ = 0;
  }

  size_t Verify(const Window& window) override {
    // The canary batch on the timed ops' tier, whatever the seed.
    size_t mismatches = FixedDigestOk("canary", BatchDigest(Spec(kCanarySeed), EngineKind::kBytecode))
                            ? 0
                            : 1;
    // Replay the first and the middle op on the interpreter tier.
    std::set<size_t> sample = {0, window.ops.size() / 2};
    for (size_t index : sample) {
      if (index >= window.ops.size()) {
        continue;
      }
      if (BatchDigest(Spec(base_ + index), EngineKind::kInterp) != window.ops[index].digest) {
        Error("op " + std::to_string(index) + ": interpreter replay digest differs");
        ++mismatches;
      }
    }
    return mismatches;
  }

  uint64_t InputDigest() const override {
    opec_traffic::GeneratedTraffic gen = opec_traffic::Generate(Spec(base_));
    Fnv digest;
    for (const opec_traffic::TrafficFrame& f : gen.frames) {
      digest.Add(f.gap_cycles).Add(std::string(f.bytes.begin(), f.bytes.end()));
    }
    return digest.value();
  }

  void LayerMetrics(const Tracer& tracer, const Window& window, Metrics* out) override {
    (void)window;
    auto self = tracer.SelfUsByName();
    for (const char* name :
         {"monitor.switches", "monitor.synced_bytes", "monitor.relocated_stack_bytes",
          "monitor.virtualization_faults", "monitor.emulated_core_accesses",
          "monitor.sanitization_checks", "hw.mpu_config_writes", "traffic.frames",
          "traffic.expected_echoes"}) {
      (*out)[name] = {CountMean(name), "count"};
    }
    (*out)["monitor.host_overhead_pct"] = {
        vanilla_exec_ns_ > 0 ? 100.0 * (static_cast<double>(opec_exec_ns_) -
                                        static_cast<double>(vanilla_exec_ns_)) /
                                   static_cast<double>(vanilla_exec_ns_)
                             : 0,
        "%"};
    (*out)["traffic.generate_us"] = {MedianSpanUs(self, "traffic.generate"), "us"};
    (*out)["apps.check_us"] = {MedianSpanUs(self, "apps.check"), "us"};
    (*out)["obs.events_per_kstmt"] = {
        statements_ > 0 ? 1e3 * static_cast<double>(events_) / static_cast<double>(statements_)
                        : 0,
        "count"};
  }

 private:
  static constexpr opec_apps::TcpEchoApp::EthVariant kVariants[] = {
      opec_apps::TcpEchoApp::EthVariant::kPio, opec_apps::TcpEchoApp::EthVariant::kDma};

  // Digest of one batch run like an op, untimed and untraced; a failed run
  // is recorded as an error and changes the digest.
  uint64_t BatchDigest(const opec_traffic::TrafficSpec& spec, EngineKind engine) {
    Fnv digest;
    for (auto variant : kVariants) {
      opec_apps::TcpEchoApp app(spec, variant);
      for (BuildMode mode : kModes) {
        AppOp b = RunApp(app, mode, engine, nullptr, -1);
        if (b.failed) {
          Error(b.error);
        }
        digest.Add(b.digest);
      }
    }
    return digest.value();
  }

  static opec_traffic::TrafficSpec Spec(uint64_t seed) {
    opec_traffic::TrafficSpec spec;
    spec.rate_rps = 20000;
    spec.conns = 4;
    spec.requests = 512;
    spec.seed = seed;
    return spec;
  }

  uint64_t base_ = 0;
  uint64_t opec_exec_ns_ = 0;
  uint64_t vanilla_exec_ns_ = 0;
  uint64_t events_ = 0;
  uint64_t statements_ = 0;
};

// The span of the job currently running on this thread (fault_sweep traced).
thread_local int64_t g_job_op = -1;

// A copy of the campaign's built-in warm-start pool (WarmRun in
// src/campaign/campaign.cc) with spans around the cold build, the boot
// capture and every restore.
opec_apps::AppRun* TracedWarmRun(const opec_apps::AppFactory& factory, BuildMode mode,
                                 EngineKind engine, Tracer* tracer) {
  struct Entry {
    std::unique_ptr<Application> app;
    std::unique_ptr<AppRun> run;
  };
  thread_local std::map<std::tuple<std::string, int, int>, Entry> cache;
  auto key = std::make_tuple(factory.name, static_cast<int>(mode), static_cast<int>(engine));
  auto it = cache.find(key);
  if (it == cache.end()) {
    Entry e;
    e.app = factory.make();
    {
      ScopedSpan span(tracer, "apps.build", g_job_op);
      e.run = std::make_unique<AppRun>(*e.app, mode, engine);
    }
    {
      ScopedSpan span(tracer, "snapshot.capture", g_job_op);
      e.run->CaptureBoot();
    }
    it = cache.emplace(key, std::move(e)).first;
  } else {
    ScopedSpan span(tracer, "snapshot.restore", g_job_op);
    it->second.run->RestoreBoot();
  }
  return it->second.run.get();
}

// fault_sweep: each step is one opec_campaign::Executor::Run over an
// AddFaultSweep of kJobs fault jobs on the six IoT apps (OPEC mode, interp
// tier, warm start, RV on, no timeout) on 2 pool threads; each job is an op.
class FaultSweep : public Workload {
 public:
  static constexpr size_t kJobs = 240;

  const char* engine() const override { return "interp"; }
  int threads() const override { return 2; }
  size_t min_ops() const override { return kJobs; }

  void Setup(uint64_t seed) override {
    base_ = InputBase(seed);
    apps_.clear();
    for (const opec_apps::AppFactory& f : opec_apps::AllApps()) {
      if (f.name != "CoreMark") {
        apps_.push_back(f.name);
      }
    }
    opec_campaign::Executor::Run(Spec(base_ - 1, apps_.size() * 2), Options());  // warm-up
  }

  void Step(Tracer* tracer, std::vector<OpRecord>* ops) override {
    size_t first = ops->size();
    opec_campaign::CampaignSpec spec = Spec(base_ + first / kJobs, kJobs);
    opec_campaign::CampaignResult result =
        tracer == nullptr ? opec_campaign::Executor::Run(spec, Options())
                          : TracedSweep(spec, tracer, static_cast<int64_t>(first));
    // A sweep seen before (the untraced twin of a traced sweep) must produce
    // the same deterministic report.
    std::string json = result.DeterministicJson();
    auto [seen, inserted] = sweep_json_.emplace(first / kJobs, json);
    bool json_differs = !inserted && seen->second != json;
    if (json_differs) {
      Error("sweep " + std::to_string(first / kJobs) + ": deterministic report differs");
    }
    for (const opec_campaign::JobResult& job : result.results) {
      OpRecord rec;
      rec.wall_ns = job.wall_ns;
      rec.statements = job.statements;
      Fnv digest;
      digest.Add(static_cast<uint64_t>(job.outcome))
          .Add(static_cast<uint64_t>(job.spec.fault))
          .Add(job.cycles)
          .Add(job.statements)
          .Add(job.return_value)
          .Add(job.attack_fired)
          .Add(job.attack_blocked)
          .Add(job.rv_states)
          .Add(job.rv_violations)
          .Add(job.detail);
      rec.digest = digest.value();
      // Silent corruption, denials and crashes are modeled results; only a
      // host exception or a timeout is a failed op.
      rec.failed = json_differs;
      if (job.outcome == opec_campaign::Outcome::kException ||
          job.outcome == opec_campaign::Outcome::kTimeout) {
        Error("job " + std::to_string(first + job.index) + ": " +
              opec_campaign::OutcomeName(job.outcome) + ": " + job.detail);
        rec.failed = true;
      }
      ops->push_back(rec);
      if (tracer != nullptr && first == 0) {
        outcomes_[opec_campaign::OutcomeName(job.outcome)] += 1;
        rv_states_ += job.rv_states;
      }
    }
    if (tracer != nullptr) {
      job_wall_ns_ += result.SerialWallNs();
      sweep_wall_ns_ += result.wall_ns;
    }
  }

  void BeginWindow() override {
    Workload::BeginWindow();
    outcomes_.clear();
    sweep_json_.clear();
    rv_states_ = job_wall_ns_ = sweep_wall_ns_ = 0;
  }

  size_t Verify(const Window& window) override {
    (void)window;
    size_t mismatches = 0;
    // The canary sweep, run like a timed step, whatever the seed.
    std::string canary =
        opec_campaign::Executor::Run(Spec(kCanarySeed, kJobs), Options()).DeterministicJson();
    if (!FixedDigestOk("canary", Fnv().Add(canary).value())) {
      mismatches += kJobs;
    }
    // The first sweep again on one thread with cold boots: the deterministic
    // report is byte-identical across thread counts and warm/cold starts.
    opec_campaign::Executor::Options cold;
    cold.jobs = 1;
    cold.cold_boot = true;
    std::string replay = opec_campaign::Executor::Run(Spec(base_, kJobs), cold).DeterministicJson();
    if (replay != sweep_json_[0]) {
      Error("sweep 0: deterministic report differs from its cold single-thread replay");
      mismatches += kJobs;
    }
    return mismatches;
  }

  uint64_t InputDigest() const override {
    Fnv digest;
    opec_campaign::CampaignSpec spec = Spec(base_, kJobs);
    for (size_t i = 0; i < spec.jobs.size(); ++i) {
      digest.Add(spec.jobs[i].app).Add(opec_campaign::SplitMix64::JobSeed(spec.seed, i));
    }
    return digest.value();
  }

  void LayerMetrics(const Tracer& tracer, const Window& window, Metrics* out) override {
    (void)window;
    auto self = tracer.SelfUsByName();
    (*out)["campaign.job_us"] = {MedianSpanUs(self, "campaign.job"), "us"};
    (*out)["campaign.parallel_eff"] = {
        sweep_wall_ns_ > 0 ? static_cast<double>(job_wall_ns_) /
                                 (static_cast<double>(sweep_wall_ns_) * threads())
                           : 0,
        "ratio"};
    double restores = static_cast<double>(self["snapshot.restore"].size());
    double colds = static_cast<double>(self["snapshot.capture"].size());
    (*out)["campaign.warm_hit_ratio"] = {restores + colds > 0 ? restores / (restores + colds) : 0,
                                         "ratio"};
    (*out)["snapshot.capture_us"] = {MedianSpanUs(self, "snapshot.capture"), "us"};
    (*out)["snapshot.restore_us"] = {MedianSpanUs(self, "snapshot.restore"), "us"};
    (*out)["rv.states"] = {static_cast<double>(rv_states_), "count"};
    for (const char* outcome : kFaultOutcomes) {
      (*out)[std::string("campaign.outcome.") + outcome] = {
          static_cast<double>(outcomes_[outcome]), "count"};
    }
  }

  static constexpr const char* kFaultOutcomes[] = {
      "not-fired", "denied-by-mpu",     "denied-by-monitor", "crash",  "benign",
      "silent-corruption", "rv-violation", "exception",        "timeout"};

 private:
  opec_campaign::Executor::Options Options() const {
    opec_campaign::Executor::Options options;
    options.jobs = threads();
    return options;
  }

  opec_campaign::CampaignSpec Spec(uint64_t seed, size_t jobs) const {
    opec_campaign::CampaignSpec spec;
    spec.seed = seed;
    spec.AddFaultSweep(apps_, jobs);
    return spec;
  }

  // Executor::Run's job loop with TracedWarmRun as the warm provider and a
  // span around every job.
  opec_campaign::CampaignResult TracedSweep(const opec_campaign::CampaignSpec& spec,
                                            Tracer* tracer, int64_t first_op) const {
    opec_campaign::CampaignResult out;
    out.jobs_used = threads();
    opec_campaign::JobEnv env;
    env.cold_boot = false;
    env.warm_provider = [tracer](const opec_apps::AppFactory& factory, BuildMode mode,
                                 EngineKind engine) {
      return TracedWarmRun(factory, mode, engine, tracer);
    };
    opec_campaign::JobRunner runner;
    uint64_t t0 = NowNs();
    out.results = opec_campaign::ParallelMap(out.jobs_used, spec.jobs.size(), [&](size_t i) {
      opec_campaign::JobSpec job =
          opec_campaign::ResolveJobSpec(spec.jobs[i], i, spec.seed, spec.timeout_ms, 0, "");
      g_job_op = first_op + static_cast<int64_t>(i);
      ScopedSpan span(tracer, "campaign.job", g_job_op);
      return runner.Run(job, i, env);
    });
    out.wall_ns = NowNs() - t0;
    return out;
  }

  uint64_t base_ = 0;
  std::vector<std::string> apps_;
  std::map<size_t, std::string> sweep_json_;  // sweep index -> deterministic report
  std::map<std::string, uint64_t> outcomes_;
  uint64_t rv_states_ = 0;
  uint64_t job_wall_ns_ = 0;
  uint64_t sweep_wall_ns_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "firmware_build") {
    return std::make_unique<FirmwareBuild>();
  }
  if (name == "coremark_exec") {
    return std::make_unique<CoremarkExec>();
  }
  if (name == "echo_load") {
    return std::make_unique<EchoLoad>();
  }
  if (name == "fault_sweep") {
    return std::make_unique<FaultSweep>();
  }
  return nullptr;
}

// Sanitizers passed in any way (CMAKE_CXX_FLAGS, a parent project's option)
// show in the compiler's predefined macros.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

const char* const kWorkloads[] = {"firmware_build", "coremark_exec", "echo_load", "fault_sweep"};

// ---------------------------------------------------------------------------
// Windows and reports.

// Runs steps until `seconds` of host time have passed and at least `min_ops`
// ops completed (with `exact_ops`, until exactly that many ops, time ignored).
// The calibration kernel runs between steps every kCalibrationPeriodNs; its
// time and the time Prepare takes to make each step's input are left out of
// the window.
Window RunWindow(Workload& wl, Calibrator& calibrator, double seconds, size_t min_ops,
                 bool exact_ops) {
  Window w;
  wl.BeginWindow();
  uint64_t t0 = NowNs();
  uint64_t excluded = 0;
  uint64_t last_calibration = 0;
  auto window_ns = [&] { return NowNs() - t0 - excluded; };
  while (w.ops.size() < min_ops || (!exact_ops && Seconds(window_ns()) < seconds)) {
    if (w.calibration.empty() || window_ns() - last_calibration >= kCalibrationPeriodNs) {
      last_calibration = window_ns();
      uint64_t c0 = NowNs();
      w.calibration.emplace_back(last_calibration, calibrator.Sample());
      excluded += NowNs() - c0;
    }
    size_t first = w.ops.size();
    uint64_t p0 = NowNs();
    wl.Prepare(first);
    excluded += NowNs() - p0;
    wl.Step(nullptr, &w.ops);
    uint64_t end = window_ns();
    for (size_t i = first; i < w.ops.size(); ++i) {
      w.ops[i].end_ns = end;
    }
  }
  w.elapsed_ns = window_ns();
  return w;
}

// Host-speed factor of every kSliceNs slice of the window: kCalibrationRefNs
// over the median calibration sample in the slice (the window median when a
// slice has none). Multiplying a time by its slice's factor scales it to the
// reference host speed.
std::vector<double> SliceFactors(const Window& w) {
  size_t slices = static_cast<size_t>(w.elapsed_ns / kSliceNs) + 1;
  std::vector<std::vector<double>> samples(slices);
  std::vector<double> all;
  for (const auto& [at, ns] : w.calibration) {
    samples[std::min<size_t>(at / kSliceNs, slices - 1)].push_back(static_cast<double>(ns));
    all.push_back(static_cast<double>(ns));
  }
  double fallback = Median(all);
  std::vector<double> factors;
  for (const std::vector<double>& s : samples) {
    factors.push_back(static_cast<double>(kCalibrationRefNs) / (s.empty() ? fallback : Median(s)));
  }
  return factors;
}

size_t SliceOf(const OpRecord& r, size_t slices) {
  return std::min<size_t>(r.end_ns / kSliceNs, slices - 1);
}

// Window time scaled to the reference host speed.
double NormalizedSeconds(const Window& w, const std::vector<double>& factors) {
  double total = 0;
  for (size_t k = 0; k < factors.size(); ++k) {
    uint64_t begin = k * kSliceNs;
    uint64_t end = std::min<uint64_t>(w.elapsed_ns, begin + kSliceNs);
    total += Seconds(end - begin) * factors[k];
  }
  return total;
}

// Median op latency within each slice (scaled to the reference speed),
// averaged over the slices weighted by their op counts. Averaging slice
// medians keeps the statistic continuous when the host switches speed
// mid-window; the weights keep a short last slice from counting as much as
// a full one.
double SliceMedianMs(const Window& w, const std::vector<double>& factors) {
  std::vector<std::vector<double>> per_slice(factors.size());
  for (const OpRecord& r : w.ops) {
    size_t k = SliceOf(r, factors.size());
    per_slice[k].push_back(static_cast<double>(r.wall_ns) / 1e6 * factors[k]);
  }
  double sum = 0;
  for (const std::vector<double>& s : per_slice) {
    if (!s.empty()) {
      sum += Median(s) * static_cast<double>(s.size());
    }
  }
  return sum / static_cast<double>(w.ops.size());
}

size_t FailedOps(const Window& w) {
  return static_cast<size_t>(
      std::count_if(w.ops.begin(), w.ops.end(), [](const OpRecord& r) { return r.failed; }));
}

// Digest over the modeled digests of the first n ops.
uint64_t PrefixDigest(const Window& w, size_t n) {
  Fnv digest;
  for (size_t i = 0; i < std::min(n, w.ops.size()); ++i) {
    digest.Add(w.ops[i].digest);
  }
  return digest.value();
}

struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  Metrics metrics;
  std::vector<std::pair<std::string, std::string>> details;  // preformatted JSON values
  std::vector<std::string> errors;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const Report& r) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(r.workload) << ", \"seed\": " << r.seed
      << ", \"trace\": " << (r.traced ? 1 : 0) << ", \"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}, \"details\": {";
  first = true;
  for (const auto& [key, value] : r.details) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << value;
    first = false;
  }
  out << "}, \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(r.errors[i]);
  }
  out << "]}";
  std::printf("%s\n", out.str().c_str());
}

std::string Provenance(const std::string& workload, const Workload& wl) {
  std::ostringstream out;
  out << "{\"engine\": " << JsonString(wl.engine()) << ", \"threads\": " << wl.threads()
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
      << ", \"compiler\": " << JsonString(PERFBENCH_CXX) << ", \"workload\": "
      << JsonString(workload) << "}";
  return out.str();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t ops = 0;  // nonzero: exact op count, time ignored
  std::string references;
  std::string trace_dir;
  bool record_references = false;
};

// Loads "<workload> <key> <hex digest>" lines for `workload`.
std::map<std::string, uint64_t> LoadReferences(const std::string& path,
                                               const std::string& workload) {
  std::map<std::string, uint64_t> refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string wl, key, hex;
    if (line.empty() || line[0] == '#' || !(fields >> wl >> key >> hex) || wl != workload) {
      continue;
    }
    refs[key] = std::stoull(hex, nullptr, 16);
  }
  return refs;
}

// Checks the prefix digest against the seed's entry in the references file.
// Returns "match", "none" when the file has no entry for the seed (the canary
// and the replays still check the run), or "mismatch".
std::string CheckPrefix(const std::map<std::string, uint64_t>& refs, const Options& opt,
                        uint64_t prefix, Report* report) {
  auto it = refs.find("seed:" + std::to_string(opt.seed));
  if (it == refs.end()) {
    return "none";
  }
  if (it->second != prefix) {
    report->errors.push_back("first-ops digest " + Hex(prefix) + " differs from reference " +
                             Hex(it->second));
    return "mismatch";
  }
  return "match";
}

void Finish(Workload& wl, const Options& opt, const std::string& workload, Report* report) {
  for (const std::string& e : wl.errors()) {
    report->errors.push_back(workload + ": " + e);
  }
  if (opt.record_references) {
    for (const auto& [key, digest] : wl.fixed_digests()) {
      std::printf("reference %s %s %s\n", workload.c_str(), key.c_str(), Hex(digest).c_str());
    }
  }
}

// setup_s is the median of this many set-ups. Set-ups are short (25-100 ms)
// and noisy; over twelve runs per workload, the median of 21 varied between
// runs about half as much as the median of 9 on echo_load.
constexpr int kSetupReps = 21;

int RunEndToEnd(const Options& opt, Report* report) {
  Calibrator calibrator(CalibratorPath());
  std::unique_ptr<Workload> wl = MakeWorkload(opt.workload);
  std::map<std::string, uint64_t> refs = LoadReferences(opt.references, opt.workload);
  wl->references() = refs;
  // One kernel sample is too noisy to scale one set-up: the set-ups share the
  // median of the kernel samples taken between them.
  std::vector<double> setup_s, calibration_ns;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    calibration_ns.push_back(static_cast<double>(calibrator.Sample()));
    uint64_t t0 = NowNs();
    wl->Setup(opt.seed);
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  calibration_ns.push_back(static_cast<double>(calibrator.Sample()));
  double raw_setup_s = Median(setup_s);
  double setup_factor = static_cast<double>(kCalibrationRefNs) / Median(calibration_ns);
  size_t min_ops = opt.ops != 0 ? opt.ops : std::max(wl->min_ops(), OpsForTail());
  Window w = RunWindow(*wl, calibrator, opt.seconds, min_ops, opt.ops != 0);
  double peak_rss_mb = PeakRssMb();

  std::vector<double> factors = SliceFactors(w);
  std::vector<double> lat_ms, raw_lat_ms;
  uint64_t statements = 0;
  for (const OpRecord& r : w.ops) {
    raw_lat_ms.push_back(static_cast<double>(r.wall_ns) / 1e6);
    lat_ms.push_back(raw_lat_ms.back() * factors[SliceOf(r, factors.size())]);
    statements += r.statements;
  }
  std::sort(lat_ms.begin(), lat_ms.end());
  size_t beyond = 0;
  double tail = Percentile(lat_ms, kTailPct, &beyond);
  size_t failed = FailedOps(w);
  size_t replay_mismatches = wl->Verify(w);
  report->attempted = w.ops.size();
  report->failed = std::min(w.ops.size(), failed + replay_mismatches);
  uint64_t prefix = PrefixDigest(w, wl->min_ops());
  std::string seed_reference = CheckPrefix(refs, opt, prefix, report);
  report->correct = report->failed == 0 && seed_reference != "mismatch";
  if (!report->correct && report->failed == 0) {
    report->failed = std::min(w.ops.size(), wl->min_ops());
  }

  double elapsed = Seconds(w.elapsed_ns);
  double normalized = NormalizedSeconds(w, factors);
  double ops = static_cast<double>(w.ops.size());
  Metrics& m = report->metrics;
  m["ops_per_s"] = {ops / normalized, "1/s"};
  m["op_p50_ms"] = {SliceMedianMs(w, factors), "ms"};
  m["op_tail_ms"] = {tail, "ms"};
  m["mstmt_per_s"] = {static_cast<double>(statements) / normalized / 1e6, "Mstmt/s"};
  m["setup_s"] = {raw_setup_s * setup_factor, "s"};
  m["ok_share"] = {(ops - static_cast<double>(report->failed)) / ops, "ratio"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};

  // The same figures in raw host time, for comparison.
  std::vector<double> calibration_ms;
  for (const auto& sample : w.calibration) {
    calibration_ms.push_back(static_cast<double>(sample.second) / 1e6);
  }
  std::sort(raw_lat_ms.begin(), raw_lat_ms.end());
  size_t raw_beyond = 0;
  std::ostringstream raw;
  raw << "{\"ops_per_s\": " << JsonNumber(ops / elapsed)
      << ", \"op_p50_ms\": " << JsonNumber(Median(raw_lat_ms))
      << ", \"op_tail_ms\": " << JsonNumber(Percentile(raw_lat_ms, kTailPct, &raw_beyond))
      << ", \"mstmt_per_s\": " << JsonNumber(static_cast<double>(statements) / elapsed / 1e6)
      << ", \"setup_s\": " << JsonNumber(raw_setup_s)
      << ", \"calibration_ms_median\": " << JsonNumber(Median(calibration_ms))
      << ", \"calibration_samples\": " << calibration_ms.size() << "}";

  report->details = {
      {"provenance", Provenance(opt.workload, *wl)},
      {"tail_percentile", JsonNumber(kTailPct)},
      {"tail_samples_beyond", std::to_string(beyond)},
      {"ops", std::to_string(w.ops.size())},
      {"window_s", JsonNumber(elapsed)},
      {"normalized_window_s", JsonNumber(normalized)},
      {"raw", raw.str()},
      {"statements", std::to_string(statements)},
      {"prefix_ops", std::to_string(std::min(w.ops.size(), wl->min_ops()))},
      {"prefix_digest", JsonString(Hex(prefix))},
      {"seed_reference", JsonString(seed_reference)},
      {"all_ops_digest", JsonString(Hex(PrefixDigest(w, w.ops.size())))},
      {"input_digest", JsonString(Hex(wl->InputDigest()))},
      {"replay_mismatches", std::to_string(replay_mismatches)},
  };
  Finish(*wl, opt, opt.workload, report);
  if (opt.record_references) {
    std::printf("reference %s seed:%llu %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), Hex(prefix).c_str());
  }
  return 0;
}

// Traced run: for every workload (the requested one first), an untraced and
// a traced window over the same inputs, seconds / 4 in all. The two windows
// alternate step by step, so both see the same host conditions, and the
// traced window's ops must reproduce the untraced window's modeled digests.
// End-to-end times here are raw host time: the tracing overhead compares the
// interleaved windows directly.
int RunTraced(const Options& opt, Report* report) {
  std::vector<std::string> order = {opt.workload};
  for (const char* name : kWorkloads) {
    if (name != opt.workload) {
      order.push_back(name);
    }
  }
  double slice = opt.seconds / static_cast<double>(order.size());
  std::ostringstream overheads;
  overheads << "{";
  for (const std::string& name : order) {
    std::unique_ptr<Workload> wl = MakeWorkload(name);
    std::map<std::string, uint64_t> refs = LoadReferences(opt.references, name);
    wl->references() = refs;
    wl->Setup(opt.seed);
    size_t min_ops = opt.ops != 0 ? opt.ops : wl->min_ops();
    Window plain, traced;
    Tracer tracer;
    wl->BeginWindow();
    uint64_t t0 = NowNs();
    for (size_t step = 0;
         traced.ops.size() < min_ops || (opt.ops == 0 && Seconds(NowNs() - t0) < slice); ++step) {
      // The second run of an input finds warmer host caches; alternate which
      // window goes first so neither is favoured.
      if (step % 2 == 0) {
        wl->Prepare(plain.ops.size());
        wl->Step(nullptr, &plain.ops);
        wl->Prepare(traced.ops.size());
        wl->Step(&tracer, &traced.ops);
      } else {
        wl->Prepare(traced.ops.size());
        wl->Step(&tracer, &traced.ops);
        wl->Prepare(plain.ops.size());
        wl->Step(nullptr, &plain.ops);
      }
    }
    wl->LayerMetrics(tracer, traced, &report->metrics);

    // The canary, the replays and (when the window is long enough) the seed's
    // reference, as in an end-to-end run.
    size_t failed = FailedOps(plain) + FailedOps(traced) + wl->Verify(traced);
    std::string seed_reference = "short";
    if (traced.ops.size() >= wl->min_ops()) {
      seed_reference = CheckPrefix(refs, opt, PrefixDigest(traced, wl->min_ops()), report);
      if (seed_reference == "mismatch") {
        failed += wl->min_ops();
      }
    }
    size_t common = std::min(plain.ops.size(), traced.ops.size());
    for (size_t i = 0; i < common; ++i) {
      if (plain.ops[i].digest != traced.ops[i].digest) {
        ++failed;
        report->errors.push_back(name + ": op " + std::to_string(i) +
                                 ": traced digest differs from untraced");
      }
    }
    report->attempted += plain.ops.size() + traced.ops.size();
    report->failed += failed;

    // Tracing overhead: traced versus untraced op latency (medians). The
    // decomposed builds and probe spans run outside the op span.
    std::vector<double> plain_ms;
    for (const OpRecord& r : plain.ops) {
      plain_ms.push_back(static_cast<double>(r.wall_ns));
    }
    std::vector<double> op_spans;
    for (const Span& s : tracer.spans()) {
      if (s.name == "op" || s.name == "campaign.job") {
        op_spans.push_back(static_cast<double>(s.duration_ns()));
      }
    }
    double base = Median(plain_ms);
    report->metrics["trace.overhead_pct." + name] = {
        base > 0 ? 100.0 * (Median(op_spans) - base) / base : 0, "%"};
    overheads << (name == order.front() ? "" : ", ") << JsonString(name)
              << ": {\"engine\": " << JsonString(wl->engine()) << ", \"threads\": " << wl->threads()
              << ", \"plain_ops\": " << plain.ops.size() << ", \"traced_ops\": " << traced.ops.size()
              << ", \"spans\": " << tracer.spans().size() << ", \"prefix_digest\": "
              << JsonString(Hex(PrefixDigest(traced, wl->min_ops())))
              << ", \"seed_reference\": " << JsonString(seed_reference) << "}";
    if (!opt.trace_dir.empty()) {
      tracer.WriteChromeTrace(opt.trace_dir + "/trace_" + name + ".json", name);
    }
    Finish(*wl, opt, name, report);
  }
  overheads << "}";
  report->correct = report->failed == 0;
  std::unique_ptr<Workload> primary = MakeWorkload(opt.workload);
  report->details = {{"provenance", Provenance(opt.workload, *primary)},
                     {"windows", overheads.str()},
                     {"slice_s", JsonNumber(slice)}};
  return 0;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "firmware_build|coremark_exec|echo_load|fault_sweep --seed N --seconds S "
               "--trace 0|1 [--ops N] [--references FILE] "
               "[--trace-dir DIR] [--record-references]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (arg == "--ops") {
        opt.ops = std::stoull(value());
      } else if (arg == "--references") {
        opt.references = value();
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value();
      } else if (arg == "--record-references") {
        opt.record_references = true;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (MakeWorkload(opt.workload) == nullptr) {
    return Usage("unknown or missing --workload");
  }
  // Timings from unoptimized or sanitized builds describe a different program.
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug" || kSanitized) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build%s\n", PERFBENCH_BUILD_TYPE,
                 kSanitized ? " with a sanitizer" : "");
    return 3;
  }
  Report report;
  report.workload = opt.workload;
  report.seed = opt.seed;
  report.traced = opt.trace;
  try {
    int rc = opt.trace ? RunTraced(opt, &report) : RunEndToEnd(opt, &report);
    PrintReport(report);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
