#include "src/dist/wire.h"

#include "src/support/check.h"

namespace opec_dist {

namespace {

using opec_hw::StateReader;
using opec_hw::StateWriter;

void WriteU64Vec(StateWriter& w, const std::vector<uint64_t>& v) {
  w.U64(v.size());
  for (uint64_t x : v) {
    w.U64(x);
  }
}

std::vector<uint64_t> ReadU64Vec(StateReader& r) {
  uint64_t n = r.Count(8);
  std::vector<uint64_t> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    v.push_back(r.U64());
  }
  return v;
}

// Smallest wire encodings, for StateReader::Count: every string is at least
// its 8-byte length prefix.
constexpr size_t kMinJobSpecBytes = 1 + 8 + 1 + 1 + 8 + 1 + 8 + 8 + 1 + 1;
constexpr size_t kMinJobResultBytes =
    8 + kMinJobSpecBytes + 1 + 1 + 8 + 8 + 8 + 4 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 8;
constexpr size_t kMinCaseResultBytes = 8 + 8 + 8 + 8;
constexpr size_t kMinDivergenceBytes = 1 + 8;
constexpr size_t kInsnBytes = 1 + 1 + 4 * 6 + 8;

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kWelcome:
      return "welcome";
    case FrameType::kRequestWork:
      return "request-work";
    case FrameType::kAssign:
      return "assign";
    case FrameType::kNoWork:
      return "no-work";
    case FrameType::kResult:
      return "result";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kArtifactQuery:
      return "artifact-query";
    case FrameType::kArtifactInfo:
      return "artifact-info";
    case FrameType::kArtifactFetch:
      return "artifact-fetch";
    case FrameType::kArtifactAnnounce:
      return "artifact-announce";
    case FrameType::kArtifactChunk:
      return "artifact-chunk";
  }
  return "?";
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  uint32_t len = static_cast<uint32_t>(frame.payload.size());
  std::vector<uint8_t> out;
  out.reserve(5 + frame.payload.size());
  out.push_back(static_cast<uint8_t>(len));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 24));
  out.push_back(static_cast<uint8_t>(frame.type));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

void WriteHello(StateWriter& w, const HelloMsg& m) {
  w.U32(m.version);
  w.Str(m.worker_name);
  w.Str(m.token);
  w.U64(m.session_id);
}

HelloMsg ReadHello(StateReader& r) {
  HelloMsg m;
  m.version = r.U32();
  if (m.version != kProtocolVersion) {
    return m;  // foreign layout: the server hangs up on the version alone
  }
  m.worker_name = r.Str();
  m.token = r.Str();
  m.session_id = r.U64();
  return m;
}

void WriteWelcome(StateWriter& w, const WelcomeMsg& m) {
  w.U32(m.version);
  w.U8(static_cast<uint8_t>(m.sweep));
  w.Bool(m.cold_boot);
  w.Str(m.snapshot_dir);
}

WelcomeMsg ReadWelcome(StateReader& r) {
  WelcomeMsg m;
  m.version = r.U32();
  uint8_t sweep = r.U8();
  OPEC_CHECK_MSG(sweep <= static_cast<uint8_t>(SweepKind::kFuzz), "bad sweep kind");
  m.sweep = static_cast<SweepKind>(sweep);
  m.cold_boot = r.Bool();
  m.snapshot_dir = r.Str();
  return m;
}

void WriteNoWork(StateWriter& w, const NoWorkMsg& m) { w.U32(m.retry_ms); }

NoWorkMsg ReadNoWork(StateReader& r) {
  NoWorkMsg m;
  m.retry_ms = r.U32();
  return m;
}

void WriteJobSpec(StateWriter& w, const opec_campaign::JobSpec& spec) {
  w.U8(static_cast<uint8_t>(spec.kind));
  w.Str(spec.app);
  w.U8(static_cast<uint8_t>(spec.mode));
  w.U8(static_cast<uint8_t>(spec.engine));
  w.U64(spec.seed);
  w.U8(static_cast<uint8_t>(spec.fault));
  w.U64(spec.timeout_ms);
  w.Str(spec.trace_path);
  w.Bool(spec.attach_counting_sink);
  w.Bool(spec.rv);
}

opec_campaign::JobSpec ReadJobSpec(StateReader& r) {
  opec_campaign::JobSpec spec;
  uint8_t kind = r.U8();
  OPEC_CHECK_MSG(kind <= static_cast<uint8_t>(opec_campaign::JobKind::kFault),
                 "bad job kind");
  spec.kind = static_cast<opec_campaign::JobKind>(kind);
  spec.app = r.Str();
  uint8_t mode = r.U8();
  OPEC_CHECK_MSG(mode <= static_cast<uint8_t>(opec_apps::BuildMode::kOpec), "bad mode");
  spec.mode = static_cast<opec_apps::BuildMode>(mode);
  uint8_t engine = r.U8();
  OPEC_CHECK_MSG(engine <= static_cast<uint8_t>(opec_apps::EngineKind::kBytecode),
                 "bad engine kind");
  spec.engine = static_cast<opec_apps::EngineKind>(engine);
  spec.seed = r.U64();
  uint8_t fault = r.U8();
  OPEC_CHECK_MSG(fault <= static_cast<uint8_t>(opec_campaign::FaultClass::kIcallForge),
                 "bad fault class");
  spec.fault = static_cast<opec_campaign::FaultClass>(fault);
  spec.timeout_ms = r.U64();
  spec.trace_path = r.Str();
  spec.attach_counting_sink = r.Bool();
  spec.rv = r.Bool();
  return spec;
}

void WriteJobResult(StateWriter& w, const opec_campaign::JobResult& result) {
  w.U64(result.index);
  WriteJobSpec(w, result.spec);
  w.Bool(result.ok);
  w.U8(static_cast<uint8_t>(result.outcome));
  w.Str(result.detail);
  w.U64(result.cycles);
  w.U64(result.statements);
  w.U32(result.return_value);
  w.Bool(result.attack_fired);
  w.Bool(result.attack_blocked);
  w.U64(result.events);
  w.U64(result.rv_states);
  w.U64(result.rv_violations);
  WriteU64Vec(w, result.rv_by_automaton);
  w.U64(result.snapshot_digest);
  w.U64(result.wall_ns);
}

opec_campaign::JobResult ReadJobResult(StateReader& r) {
  opec_campaign::JobResult result;
  result.index = static_cast<size_t>(r.U64());
  result.spec = ReadJobSpec(r);
  result.ok = r.Bool();
  uint8_t outcome = r.U8();
  OPEC_CHECK_MSG(outcome <= static_cast<uint8_t>(opec_campaign::Outcome::kRvViolation),
                 "bad outcome");
  result.outcome = static_cast<opec_campaign::Outcome>(outcome);
  result.detail = r.Str();
  result.cycles = r.U64();
  result.statements = r.U64();
  result.return_value = r.U32();
  result.attack_fired = r.Bool();
  result.attack_blocked = r.Bool();
  result.events = r.U64();
  result.rv_states = r.U64();
  result.rv_violations = r.U64();
  result.rv_by_automaton = ReadU64Vec(r);
  result.snapshot_digest = r.U64();
  result.wall_ns = r.U64();
  return result;
}

void WriteCaseResult(StateWriter& w, const opec_fuzz::CaseResult& result) {
  w.U64(result.seed);
  w.Str(result.summary);
  w.Str(result.digest);
  w.U64(result.divergences.size());
  for (const opec_fuzz::Divergence& d : result.divergences) {
    w.U8(static_cast<uint8_t>(d.oracle));
    w.Str(d.detail);
  }
}

opec_fuzz::CaseResult ReadCaseResult(StateReader& r) {
  opec_fuzz::CaseResult result;
  result.seed = r.U64();
  result.summary = r.Str();
  result.digest = r.Str();
  uint64_t n = r.Count(kMinDivergenceBytes);
  result.divergences.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    opec_fuzz::Divergence d;
    uint8_t oracle = r.U8();
    OPEC_CHECK_MSG(oracle <= static_cast<uint8_t>(opec_fuzz::Oracle::kRv), "bad oracle");
    d.oracle = static_cast<opec_fuzz::Oracle>(oracle);
    d.detail = r.Str();
    result.divergences.push_back(std::move(d));
  }
  return result;
}

void WriteAssign(StateWriter& w, SweepKind sweep, const AssignMsg& m) {
  w.U64(m.unit_id);
  WriteU64Vec(w, m.indexes);
  if (sweep == SweepKind::kCampaign) {
    w.U64(m.jobs.size());
    for (const opec_campaign::JobSpec& spec : m.jobs) {
      WriteJobSpec(w, spec);
    }
  } else {
    WriteU64Vec(w, m.fuzz_seeds);
  }
}

AssignMsg ReadAssign(StateReader& r, SweepKind sweep) {
  AssignMsg m;
  m.unit_id = r.U64();
  m.indexes = ReadU64Vec(r);
  if (sweep == SweepKind::kCampaign) {
    uint64_t n = r.Count(kMinJobSpecBytes);
    m.jobs.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      m.jobs.push_back(ReadJobSpec(r));
    }
  } else {
    m.fuzz_seeds = ReadU64Vec(r);
  }
  return m;
}

void WriteResult(StateWriter& w, SweepKind sweep, const ResultMsg& m) {
  w.U64(m.unit_id);
  WriteU64Vec(w, m.indexes);
  if (sweep == SweepKind::kCampaign) {
    w.U64(m.jobs.size());
    for (const opec_campaign::JobResult& result : m.jobs) {
      WriteJobResult(w, result);
    }
  } else {
    w.U64(m.cases.size());
    for (const opec_fuzz::CaseResult& result : m.cases) {
      WriteCaseResult(w, result);
    }
  }
  w.U64(m.cache.hits);
  w.U64(m.cache.misses);
  w.U64(m.cache.evictions);
  w.U64(m.cache.digest_mismatches);
}

ResultMsg ReadResult(StateReader& r, SweepKind sweep) {
  ResultMsg m;
  m.unit_id = r.U64();
  m.indexes = ReadU64Vec(r);
  uint64_t n = r.Count(sweep == SweepKind::kCampaign ? kMinJobResultBytes : kMinCaseResultBytes);
  if (sweep == SweepKind::kCampaign) {
    m.jobs.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      m.jobs.push_back(ReadJobResult(r));
    }
  } else {
    m.cases.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      m.cases.push_back(ReadCaseResult(r));
    }
  }
  m.cache.hits = r.U64();
  m.cache.misses = r.U64();
  m.cache.evictions = r.U64();
  m.cache.digest_mismatches = r.U64();
  return m;
}

void WriteArtifactQuery(StateWriter& w, const ArtifactQueryMsg& m) { w.Str(m.key); }

ArtifactQueryMsg ReadArtifactQuery(StateReader& r) {
  ArtifactQueryMsg m;
  m.key = r.Str();
  return m;
}

void WriteArtifactInfo(StateWriter& w, const ArtifactInfoMsg& m) {
  w.Str(m.key);
  w.Bool(m.known);
  w.U64(m.digest);
  w.U64(m.size);
}

ArtifactInfoMsg ReadArtifactInfo(StateReader& r) {
  ArtifactInfoMsg m;
  m.key = r.Str();
  m.known = r.Bool();
  m.digest = r.U64();
  m.size = r.U64();
  return m;
}

void WriteArtifactFetch(StateWriter& w, const ArtifactFetchMsg& m) { w.U64(m.digest); }

ArtifactFetchMsg ReadArtifactFetch(StateReader& r) {
  ArtifactFetchMsg m;
  m.digest = r.U64();
  return m;
}

void WriteArtifactChunk(StateWriter& w, const ArtifactChunkMsg& m) {
  w.U64(m.digest);
  w.U64(m.total);
  w.U64(m.offset);
  w.Blob(m.bytes);
}

ArtifactChunkMsg ReadArtifactChunk(StateReader& r) {
  ArtifactChunkMsg m;
  m.digest = r.U64();
  m.total = r.U64();
  m.offset = r.U64();
  m.bytes = r.Blob();
  return m;
}

void WriteArtifactAnnounce(StateWriter& w, const ArtifactAnnounceMsg& m) {
  w.Str(m.key);
  w.U64(m.digest);
  w.Bool(m.with_bytes);
  if (m.with_bytes) {
    w.Blob(m.bytes);
  }
}

ArtifactAnnounceMsg ReadArtifactAnnounce(StateReader& r) {
  ArtifactAnnounceMsg m;
  m.key = r.Str();
  m.digest = r.U64();
  m.with_bytes = r.Bool();
  if (m.with_bytes) {
    m.bytes = r.Blob();
  }
  return m;
}

// Field-by-field (not memcpy of the POD): the wire format must be
// byte-identical across hosts regardless of endianness or struct padding —
// artifact digests are compared across processes.
void WriteBytecodeArtifact(StateWriter& w, const opec_rt::bytecode::BytecodeModule& bc,
                           const opec_rt::CostModel& costs) {
  w.U64(costs.op);
  w.U64(costs.memory);
  w.U64(costs.branch);
  w.U64(costs.call);
  w.U64(costs.ret);
  w.U64(costs.svc);
  w.U64(bc.code.size());
  for (const opec_rt::bytecode::Insn& ins : bc.code) {
    w.U8(static_cast<uint8_t>(ins.op));
    w.U8(ins.sub);
    w.U32(ins.a);
    w.U32(ins.b);
    w.U32(ins.c);
    w.U32(ins.stmt);
    w.U32(ins.imm);
    w.U32(ins.imm2);
    w.U64(ins.charge);
  }
  w.U64(bc.funcs.size());
  for (const opec_rt::bytecode::BytecodeFunction& fn : bc.funcs) {
    w.U32(fn.entry);
    w.U32(fn.nregs);
  }
  w.U64(bc.arg_pool.size());
  for (uint16_t reg : bc.arg_pool) {
    w.U32(reg);
  }
  w.U64(bc.messages.size());
  for (const std::string& msg : bc.messages) {
    w.Str(msg);
  }
  w.U64(bc.acct.size());
  for (const auto& [offset, length] : bc.acct) {
    w.U32(offset);
    w.U32(length);
  }
  w.U64(bc.acct_pool.size());
  for (int64_t entry : bc.acct_pool) {
    w.U64(static_cast<uint64_t>(entry));
  }
  w.U32(bc.max_regs);
}

bool ReadBytecodeArtifact(StateReader& r, opec_rt::bytecode::BytecodeModule* bc,
                          opec_rt::CostModel* costs) {
  costs->op = r.U64();
  costs->memory = r.U64();
  costs->branch = r.U64();
  costs->call = r.U64();
  costs->ret = r.U64();
  costs->svc = r.U64();
  uint64_t ncode = r.Count(kInsnBytes);
  bc->code.clear();
  bc->code.reserve(ncode);
  for (uint64_t i = 0; i < ncode; ++i) {
    opec_rt::bytecode::Insn ins;
    uint8_t op = r.U8();
    if (op > static_cast<uint8_t>(opec_rt::bytecode::Op::kAbort)) {
      return false;
    }
    ins.op = static_cast<opec_rt::bytecode::Op>(op);
    ins.sub = r.U8();
    uint32_t a = r.U32(), b = r.U32(), c = r.U32(), stmt = r.U32();
    if (a > 0xFFFF || b > 0xFFFF || c > 0xFFFF || stmt > 0xFFFF) {
      return false;
    }
    ins.a = static_cast<uint16_t>(a);
    ins.b = static_cast<uint16_t>(b);
    ins.c = static_cast<uint16_t>(c);
    ins.stmt = static_cast<uint16_t>(stmt);
    ins.imm = r.U32();
    ins.imm2 = r.U32();
    ins.charge = r.U64();
    bc->code.push_back(ins);
  }
  uint64_t nfuncs = r.Count(4 + 4);
  bc->funcs.clear();
  bc->funcs.reserve(nfuncs);
  for (uint64_t i = 0; i < nfuncs; ++i) {
    opec_rt::bytecode::BytecodeFunction fn;
    fn.entry = r.U32();
    uint32_t nregs = r.U32();
    if (nregs > 0xFFFF) {
      return false;
    }
    fn.nregs = static_cast<uint16_t>(nregs);
    bc->funcs.push_back(fn);
  }
  uint64_t nargs = r.Count(4);
  bc->arg_pool.clear();
  bc->arg_pool.reserve(nargs);
  for (uint64_t i = 0; i < nargs; ++i) {
    uint32_t reg = r.U32();
    if (reg > 0xFFFF) {
      return false;
    }
    bc->arg_pool.push_back(static_cast<uint16_t>(reg));
  }
  uint64_t nmsgs = r.Count(8);
  bc->messages.clear();
  bc->messages.reserve(nmsgs);
  for (uint64_t i = 0; i < nmsgs; ++i) {
    bc->messages.push_back(r.Str());
  }
  uint64_t nacct = r.Count(4 + 4);
  bc->acct.clear();
  bc->acct.reserve(nacct);
  for (uint64_t i = 0; i < nacct; ++i) {
    uint32_t offset = r.U32();
    uint32_t length = r.U32();
    bc->acct.emplace_back(offset, length);
  }
  uint64_t npool = r.Count(8);
  bc->acct_pool.clear();
  bc->acct_pool.reserve(npool);
  for (uint64_t i = 0; i < npool; ++i) {
    bc->acct_pool.push_back(static_cast<int64_t>(r.U64()));
  }
  uint32_t max_regs = r.U32();
  if (max_regs > 0xFFFF) {
    return false;
  }
  bc->max_regs = static_cast<uint16_t>(max_regs);
  return true;
}

}  // namespace opec_dist
