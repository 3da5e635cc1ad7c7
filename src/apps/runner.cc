#include "src/apps/runner.h"

#include <cstdlib>

#include "src/compiler/image.h"
#include "src/rt/bytecode/vm.h"
#include "src/support/check.h"

namespace opec_apps {

const char* EngineKindName(EngineKind kind) {
  return kind == EngineKind::kBytecode ? "bytecode" : "interp";
}

std::unique_ptr<opec_rt::Engine> AppRun::MakeEngine() {
  const opec_rt::AddressAssignment& lay = layout();
  opec_rt::Supervisor* sup = monitor_.get();
  if (engine_kind_ == EngineKind::kBytecode) {
    return std::make_unique<opec_rt::bytecode::VM>(*machine_, *module_, lay, sup);
  }
  return std::make_unique<opec_rt::ExecutionEngine>(*machine_, *module_, lay, sup);
}

AppRun::AppRun(const Application& app, BuildMode mode, EngineKind engine_kind)
    : app_(app), mode_(mode), engine_kind_(engine_kind) {
  soc_ = app.Soc();
  module_ = app.BuildModule();
  machine_ = std::make_unique<opec_hw::Machine>(app.board());
  devices_ = app.CreateDevices(*machine_);

  if (mode == BuildMode::kOpec) {
    compile_ = std::make_unique<opec_compiler::CompileResult>(
        opec_compiler::CompileOpec(*module_, soc_, app.Partition(), app.board()));
    accounting_ = compile_->policy.accounting;
    monitor_ = std::make_unique<opec_monitor::Monitor>(*machine_, compile_->policy, soc_);
    opec_compiler::LoadGlobals(*machine_, *module_, compile_->layout);
  } else {
    opec_compiler::VanillaImage image = opec_compiler::BuildVanillaImage(*module_, app.board());
    vanilla_layout_ = image.layout;
    accounting_ = image.accounting;
    opec_compiler::LoadGlobals(*machine_, *module_, vanilla_layout_);
  }
  engine_ = MakeEngine();
}

AppRun::~AppRun() = default;

void AppRun::AddAttack(const opec_rt::AttackSpec& attack) { engine_->AddAttack(attack); }

void AppRun::CaptureBoot() {
  boot_snapshot_ = std::make_unique<opec_snapshot::Snapshot>(
      opec_snapshot::Snapshot::Capture(*machine_));
  // Arm the dirty-page fast path: from here on the bus tracks written pages,
  // and RestoreBoot copies back only those instead of full memory images.
  machine_->bus().CaptureMemoryBaseline();
}

void AppRun::AdoptBootSnapshot(opec_snapshot::Snapshot snapshot) {
  boot_snapshot_ = std::make_unique<opec_snapshot::Snapshot>(std::move(snapshot));
  // Full restore first (the snapshot's memory image replaces whatever the
  // build left), then arm the dirty-page baseline at this — now canonical —
  // quiescent point so later RestoreBoot() calls ride the fast path.
  boot_snapshot_->Restore(*machine_);
  machine_->bus().CaptureMemoryBaseline();
  if (mode_ == BuildMode::kOpec) {
    monitor_ = std::make_unique<opec_monitor::Monitor>(*machine_, compile_->policy, soc_);
  }
  engine_ = MakeEngine();
  probe_.reset();
  trace_.Clear();
  trace_enabled_ = false;
  recorder_.reset();
  rv_.reset();
  extra_sinks_.clear();
  last_result_ = {};
}

void AppRun::RestoreBoot() {
  OPEC_CHECK_MSG(boot_snapshot_ != nullptr, "RestoreBoot() without CaptureBoot()");
  if (machine_->bus().has_memory_baseline()) {
    boot_snapshot_->RestoreFast(*machine_);
  } else {
    boot_snapshot_->Restore(*machine_);
  }
  // The monitor's and engine's pre-run state is entirely constructor-derived
  // (from the immutable policy/module), so fresh objects are equivalent to —
  // and simpler than — rolling back attacks, counters and fault reports.
  if (mode_ == BuildMode::kOpec) {
    monitor_ = std::make_unique<opec_monitor::Monitor>(*machine_, compile_->policy, soc_);
  }
  std::unique_ptr<opec_rt::Engine> prev = std::move(engine_);
  engine_ = MakeEngine();
  if (engine_kind_ == EngineKind::kBytecode) {
    // Lowering depends only on the module and the cost model: the fresh VM
    // takes over the old one's code (refused if the old run changed costs).
    static_cast<opec_rt::bytecode::VM&>(*engine_).AdoptBytecode(
        std::move(static_cast<opec_rt::bytecode::VM&>(*prev)));
  }
  probe_.reset();
  trace_.Clear();
  trace_enabled_ = false;
  recorder_.reset();
  rv_.reset();
  extra_sinks_.clear();
  last_result_ = {};
}

void AppRun::EnableSnapshotProbe() {
  probe_ = std::make_unique<opec_snapshot::RoundTripProbe>(*machine_, monitor_.get(),
                                                           engine_.get());
  engine_->set_supervisor(probe_.get());
}

opec_snapshot::Snapshot AppRun::CaptureState() const {
  return opec_snapshot::Snapshot::Capture(*machine_, monitor_.get(), engine_.get());
}

void AppRun::EnableEventRecording(size_t capacity) {
  if (recorder_ == nullptr) {
    recorder_ = std::make_unique<opec_obs::Recorder>(capacity);
  }
}

void AppRun::EnableRv() {
  if (rv_ != nullptr) {
    return;
  }
  opec_rv::RvEnv env;
  env.mpu = &machine_->mpu();
  env.opec_mode = mode_ == BuildMode::kOpec;
  if (compile_ != nullptr) {
    for (const opec_compiler::OperationPolicy& op : compile_->policy.operations) {
      for (const opec_compiler::ShadowPlacement& sp : op.shadows) {
        env.shadow_owners.emplace_back(op.id, static_cast<uint32_t>(sp.var_index));
      }
    }
  }
  rv_ = opec_rv::MakeStandardRvSink(env);
}

opec_obs::Naming AppRun::EventNaming() const {
  opec_obs::Naming naming;
  naming.functions.reserve(module_->functions().size());
  for (const auto& fn : module_->functions()) {
    naming.functions.push_back(fn->name());
  }
  if (compile_ != nullptr) {
    naming.operations.reserve(compile_->policy.operations.size());
    for (const auto& op : compile_->policy.operations) {
      naming.operations.push_back(op.name);
    }
  }
  return naming;
}

opec_rt::RunResult AppRun::Execute() {
  trace_.Bind(module_.get());
  if (rv_ == nullptr) {
    const char* force = std::getenv("OPEC_RV");
    if (force != nullptr && force[0] != '\0' && force[0] != '0') {
      EnableRv();
    }
  }
  // Sink order (DESIGN.md §15): trace, recorder, extra sinks, then RV — so
  // the recorder (and therefore a violation's `recent` context) has seen
  // every event by the time a monitor fires on it.
  opec_obs::ScopedSink trace_sink(trace_enabled_ ? &trace_ : nullptr);
  opec_obs::ScopedSink recorder_sink(recorder_.get());
  std::vector<std::unique_ptr<opec_obs::ScopedSink>> extra;
  extra.reserve(extra_sinks_.size());
  for (opec_obs::Sink* sink : extra_sinks_) {
    extra.push_back(std::make_unique<opec_obs::ScopedSink>(sink));
  }
  opec_obs::ScopedSink rv_sink(rv_.get());
  app_.PrepareScenario(*devices_);
  last_result_ = engine_->Run("main");
  if (rv_ != nullptr) {
    rv_->Finish(!last_result_.ok);
  }
  return last_result_;
}

std::string AppRun::Check() const { return app_.CheckScenario(*devices_, last_result_); }

}  // namespace opec_apps
