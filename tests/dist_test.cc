// Tests of the distributed campaign service (src/dist, DESIGN.md §16):
// wire framing and struct round-trips, transport truncation/oversize error
// handling, the content-addressed artifact cache, and — the load-bearing
// property — byte-identity of the distributed executor's DeterministicJson
// against the in-process serial executor across worker counts, worker death
// mid-sweep, and lease expiry.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/dist/cache.h"
#include "src/dist/server.h"
#include "src/dist/transport.h"
#include "src/dist/wire.h"
#include "src/dist/worker.h"
#include "src/fuzz/oracles.h"
#include "src/hw/state_io.h"
#include "src/rt/bytecode/bytecode.h"
#include "src/rt/engine.h"
#include "src/support/check.h"
#include "src/support/fs.h"

namespace {

using opec_dist::ArtifactCache;
using opec_dist::CampaignServer;
using opec_dist::Frame;
using opec_dist::FrameType;
using opec_dist::LocalPair;
using opec_dist::MakeFrame;
using opec_dist::RunWorker;
using opec_dist::RunWorkerLoop;
using opec_dist::SweepKind;
using opec_dist::Transport;
using opec_dist::WorkerOptions;
using opec_hw::StateReader;
using opec_hw::StateWriter;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/opec_dist_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "";
}

std::vector<uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<uint8_t> out;
  for (int v : values) {
    out.push_back(static_cast<uint8_t>(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Framing and transport error model.

TEST(DistTransport, FrameRoundTrip) {
  auto [a, b] = LocalPair();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  Frame f;
  f.type = FrameType::kResult;
  f.payload = Bytes({1, 2, 3, 0xFF, 0});
  ASSERT_EQ(a->Send(f), Transport::Status::kOk);

  Frame got;
  ASSERT_EQ(b->Recv(&got), Transport::Status::kOk);
  EXPECT_EQ(got.type, FrameType::kResult);
  EXPECT_EQ(got.payload, f.payload);

  // Empty payload is a legal frame.
  ASSERT_EQ(b->Send(MakeFrame(FrameType::kRequestWork)), Transport::Status::kOk);
  ASSERT_EQ(a->Recv(&got), Transport::Status::kOk);
  EXPECT_EQ(got.type, FrameType::kRequestWork);
  EXPECT_TRUE(got.payload.empty());

  // Closing one end is an orderly EOF at the frame boundary, not an error.
  a->Close();
  EXPECT_EQ(b->Recv(&got), Transport::Status::kEof);
}

TEST(DistTransport, MaxSizePayloadAcceptedOversizedRejected) {
  // Small test-only cap so the boundary is exercised without 64 MiB frames.
  constexpr uint32_t kCap = 256;
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport sender(fds[0]);  // default cap: large payloads leave fine
  Transport receiver(fds[1], kCap);

  Frame f;
  f.type = FrameType::kArtifactChunk;
  f.payload.assign(kCap, 0xAB);  // exactly at the cap: accepted
  ASSERT_EQ(sender.Send(f), Transport::Status::kOk);
  Frame got;
  ASSERT_EQ(receiver.Recv(&got), Transport::Status::kOk);
  EXPECT_EQ(got.payload.size(), kCap);

  f.payload.assign(kCap + 1, 0xAB);  // one past: rejected before allocation
  ASSERT_EQ(sender.Send(f), Transport::Status::kOk);
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "frame payload too large");
}

TEST(DistTransport, SenderRefusesOversizedPayload) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport sender(fds[0], 16);
  Transport receiver(fds[1]);
  Frame f;
  f.type = FrameType::kResult;
  f.payload.assign(17, 0);
  EXPECT_EQ(sender.Send(f), Transport::Status::kError);
  EXPECT_EQ(sender.error(), "frame payload too large");
}

TEST(DistTransport, TruncatedHeaderIsCleanError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport receiver(fds[1]);
  // Three header bytes, then hang up: EOF inside a frame.
  uint8_t partial[3] = {5, 0, 0};
  ASSERT_EQ(::send(fds[0], partial, sizeof(partial), 0), 3);
  ::close(fds[0]);
  Frame got;
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "truncated frame");
}

TEST(DistTransport, TruncatedPayloadIsCleanError) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport receiver(fds[1]);
  // Full header claiming 10 payload bytes, only 4 delivered.
  uint8_t header[5] = {10, 0, 0, 0, static_cast<uint8_t>(FrameType::kResult)};
  uint8_t body[4] = {1, 2, 3, 4};
  ASSERT_EQ(::send(fds[0], header, sizeof(header), 0), 5);
  ASSERT_EQ(::send(fds[0], body, sizeof(body), 0), 4);
  ::close(fds[0]);
  Frame got;
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "truncated frame");
}

TEST(DistTransport, UnknownFrameTypeRejected) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Transport receiver(fds[1]);
  uint8_t header[5] = {0, 0, 0, 0, 0xEE};
  ASSERT_EQ(::send(fds[0], header, sizeof(header), 0), 5);
  ::close(fds[0]);
  Frame got;
  EXPECT_EQ(receiver.Recv(&got), Transport::Status::kError);
  EXPECT_EQ(receiver.error(), "unknown frame type");
}

// ---------------------------------------------------------------------------
// Message round-trips.

TEST(DistWire, HandshakeMessagesRoundTrip) {
  opec_dist::HelloMsg hello;
  hello.worker_name = "w-test";
  hello.token = "sesame";
  hello.session_id = 0x0123456789ABCDEFull;
  StateWriter hw;
  opec_dist::WriteHello(hw, hello);
  std::vector<uint8_t> hb = hw.Take();
  StateReader hr(hb);
  opec_dist::HelloMsg hello2 = opec_dist::ReadHello(hr);
  EXPECT_EQ(hello2.version, opec_dist::kProtocolVersion);
  EXPECT_EQ(hello2.worker_name, "w-test");
  EXPECT_EQ(hello2.token, "sesame");
  EXPECT_EQ(hello2.session_id, 0x0123456789ABCDEFull);
  EXPECT_TRUE(hr.AtEnd());

  opec_dist::WelcomeMsg welcome;
  welcome.sweep = SweepKind::kFuzz;
  welcome.cold_boot = true;
  welcome.snapshot_dir = "/tmp/snaps";
  StateWriter ww;
  opec_dist::WriteWelcome(ww, welcome);
  std::vector<uint8_t> wb = ww.Take();
  StateReader wr(wb);
  opec_dist::WelcomeMsg welcome2 = opec_dist::ReadWelcome(wr);
  EXPECT_EQ(welcome2.sweep, SweepKind::kFuzz);
  EXPECT_TRUE(welcome2.cold_boot);
  EXPECT_EQ(welcome2.snapshot_dir, "/tmp/snaps");
  EXPECT_TRUE(wr.AtEnd());
}

TEST(DistWire, JobSpecRoundTrip) {
  opec_campaign::JobSpec spec;
  spec.kind = opec_campaign::JobKind::kFault;
  spec.app = "PinLock";
  spec.mode = opec_apps::BuildMode::kVanilla;
  spec.engine = opec_apps::EngineKind::kBytecode;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.fault = opec_campaign::FaultClass::kIcallForge;
  spec.timeout_ms = 1234;
  spec.trace_path = "/tmp/t.json";
  spec.attach_counting_sink = true;
  spec.rv = false;

  StateWriter w;
  opec_dist::WriteJobSpec(w, spec);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_campaign::JobSpec got = opec_dist::ReadJobSpec(r);
  EXPECT_EQ(got.kind, spec.kind);
  EXPECT_EQ(got.app, spec.app);
  EXPECT_EQ(got.mode, spec.mode);
  EXPECT_EQ(got.engine, spec.engine);
  EXPECT_EQ(got.seed, spec.seed);
  EXPECT_EQ(got.fault, spec.fault);
  EXPECT_EQ(got.timeout_ms, spec.timeout_ms);
  EXPECT_EQ(got.trace_path, spec.trace_path);
  EXPECT_EQ(got.attach_counting_sink, spec.attach_counting_sink);
  EXPECT_EQ(got.rv, spec.rv);
}

TEST(DistWire, JobResultRoundTrip) {
  opec_campaign::JobResult jr;
  jr.index = 17;
  jr.spec.app = "PinLock";
  jr.ok = true;
  jr.outcome = opec_campaign::Outcome::kDeniedMpu;
  jr.detail = "mpu denied write";
  jr.cycles = 123456;
  jr.statements = 789;
  jr.return_value = 42;
  jr.attack_fired = true;
  jr.attack_blocked = true;
  jr.events = 99;
  jr.rv_states = 7;
  jr.rv_violations = 1;
  jr.rv_by_automaton = {0, 1, 0};
  jr.snapshot_digest = 0x1122334455667788ull;
  jr.wall_ns = 555;

  StateWriter w;
  opec_dist::WriteJobResult(w, jr);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_campaign::JobResult got = opec_dist::ReadJobResult(r);
  EXPECT_EQ(got.index, jr.index);
  EXPECT_EQ(got.spec.app, "PinLock");
  EXPECT_EQ(got.ok, jr.ok);
  EXPECT_EQ(got.outcome, jr.outcome);
  EXPECT_EQ(got.detail, jr.detail);
  EXPECT_EQ(got.cycles, jr.cycles);
  EXPECT_EQ(got.statements, jr.statements);
  EXPECT_EQ(got.return_value, jr.return_value);
  EXPECT_EQ(got.attack_fired, jr.attack_fired);
  EXPECT_EQ(got.attack_blocked, jr.attack_blocked);
  EXPECT_EQ(got.events, jr.events);
  EXPECT_EQ(got.rv_states, jr.rv_states);
  EXPECT_EQ(got.rv_violations, jr.rv_violations);
  EXPECT_EQ(got.rv_by_automaton, jr.rv_by_automaton);
  EXPECT_EQ(got.snapshot_digest, jr.snapshot_digest);
  EXPECT_EQ(got.wall_ns, jr.wall_ns);
}

TEST(DistWire, CaseResultRoundTrip) {
  opec_fuzz::CaseResult cr;
  cr.seed = 31337;
  cr.summary = "3 sections, 2 ops";
  cr.digest = "abc123";
  opec_fuzz::Divergence d;
  d.oracle = opec_fuzz::Oracle::kExecDiff;
  d.detail = "cycles differ";
  cr.divergences.push_back(d);

  StateWriter w;
  opec_dist::WriteCaseResult(w, cr);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_fuzz::CaseResult got = opec_dist::ReadCaseResult(r);
  EXPECT_EQ(got.seed, cr.seed);
  EXPECT_EQ(got.summary, cr.summary);
  EXPECT_EQ(got.digest, cr.digest);
  ASSERT_EQ(got.divergences.size(), 1u);
  EXPECT_EQ(got.divergences[0].oracle, opec_fuzz::Oracle::kExecDiff);
  EXPECT_EQ(got.divergences[0].detail, "cycles differ");
}

TEST(DistWire, TruncatedPayloadDecodeIsCheckErrorNotHang) {
  opec_campaign::JobResult jr;
  jr.detail = "some detail text that makes the payload non-trivial";
  StateWriter w;
  opec_dist::WriteJobResult(w, jr);
  std::vector<uint8_t> bytes = w.Take();
  bytes.resize(bytes.size() / 2);  // chop mid-struct

  opec_support::ScopedCheckThrow capture;
  StateReader r(bytes);
  EXPECT_THROW(opec_dist::ReadJobResult(r), opec_support::CheckError);
}

// Regression: every count-prefixed list a peer sends used to drive a
// reserve() straight from the wire — a count of 2^60 threw std::length_error
// and smaller ones asked for gigabytes. Each count is now checked against
// the bytes that remain, before any allocation, and rejected as a typed
// decode error.
TEST(DistWire, HostileCountsRejectedBeforeAllocation) {
  constexpr uint64_t kHuge = 1ull << 60;
  auto assign = [](SweepKind sweep) {
    return [sweep](StateReader& r) { opec_dist::ReadAssign(r, sweep); };
  };
  auto result = [](SweepKind sweep) {
    return [sweep](StateReader& r) { opec_dist::ReadResult(r, sweep); };
  };
  struct Row {
    const char* name;
    std::function<void(StateWriter&)> fill;
    std::function<void(StateReader&)> decode;
  };
  const Row rows[] = {
      {"assign indexes", [&](StateWriter& w) { w.U64(7); w.U64(kHuge); },
       assign(SweepKind::kCampaign)},
      {"assign jobs", [&](StateWriter& w) { w.U64(7); w.U64(0); w.U64(kHuge); },
       assign(SweepKind::kCampaign)},
      {"assign fuzz seeds", [&](StateWriter& w) { w.U64(7); w.U64(0); w.U64(kHuge); },
       assign(SweepKind::kFuzz)},
      {"result jobs", [&](StateWriter& w) { w.U64(7); w.U64(0); w.U64(kHuge); },
       result(SweepKind::kCampaign)},
      {"result cases", [&](StateWriter& w) { w.U64(7); w.U64(0); w.U64(kHuge); },
       result(SweepKind::kFuzz)},
      {"case divergences",
       [&](StateWriter& w) {
         w.U64(1);
         w.Str("summary");
         w.Str("digest");
         w.U64(kHuge);
       },
       [](StateReader& r) { opec_dist::ReadCaseResult(r); }},
      {"bytecode instructions",
       [&](StateWriter& w) {
         for (int i = 0; i < 6; ++i) {
           w.U64(1);  // cost model
         }
         w.U64(kHuge);
       },
       [](StateReader& r) {
         opec_rt::bytecode::BytecodeModule bc;
         opec_rt::CostModel costs;
         opec_dist::ReadBytecodeArtifact(r, &bc, &costs);
       }},
      // One item more than the remaining bytes can hold: a count error, not
      // a read that runs off the end after allocating.
      {"assign indexes, one past",
       [](StateWriter& w) {
         w.U64(7);
         w.U64(3);
         w.U64(1);
         w.U64(2);
       },
       assign(SweepKind::kCampaign)},
  };
  opec_support::ScopedCheckThrow capture;
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    StateWriter w;
    row.fill(w);
    std::vector<uint8_t> bytes = w.Take();
    StateReader r(bytes);
    std::string what = "no error";
    try {
      row.decode(r);
    } catch (const std::exception& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("count exceeds the remaining bytes"), std::string::npos) << what;
  }
}

TEST(DistWire, BytecodeArtifactRoundTrip) {
  opec_rt::bytecode::BytecodeModule bc;
  opec_rt::bytecode::Insn i0;
  i0.op = opec_rt::bytecode::Op::kConst;
  i0.a = 1;
  i0.imm = 42;
  opec_rt::bytecode::Insn i1;
  i1.op = opec_rt::bytecode::Op::kMove;
  i1.sub = 3;
  i1.a = 2;
  i1.b = 1;
  i1.stmt = 5;
  i1.imm2 = 0x99;
  i1.charge = 777;
  bc.code = {i0, i1};
  opec_rt::bytecode::BytecodeFunction fn;
  fn.entry = 0;
  fn.nregs = 3;
  bc.funcs = {fn};
  bc.arg_pool = {1, 2, 3};
  bc.messages = {"assert failed", "oob"};
  bc.acct = {{0, 2}, {2, 0}};
  bc.acct_pool = {10, -3};
  bc.max_regs = 3;
  opec_rt::CostModel costs;
  costs.op = 3;
  costs.svc = 50;

  StateWriter w;
  opec_dist::WriteBytecodeArtifact(w, bc, costs);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_rt::bytecode::BytecodeModule got;
  opec_rt::CostModel got_costs;
  ASSERT_TRUE(opec_dist::ReadBytecodeArtifact(r, &got, &got_costs));
  EXPECT_TRUE(got_costs == costs);
  ASSERT_EQ(got.code.size(), 2u);
  EXPECT_EQ(got.code[0].op, opec_rt::bytecode::Op::kConst);
  EXPECT_EQ(got.code[0].imm, 42u);
  EXPECT_EQ(got.code[1].op, opec_rt::bytecode::Op::kMove);
  EXPECT_EQ(got.code[1].sub, 3);
  EXPECT_EQ(got.code[1].a, 2);
  EXPECT_EQ(got.code[1].b, 1);
  EXPECT_EQ(got.code[1].stmt, 5);
  EXPECT_EQ(got.code[1].imm2, 0x99u);
  EXPECT_EQ(got.code[1].charge, 777u);
  ASSERT_EQ(got.funcs.size(), 1u);
  EXPECT_EQ(got.funcs[0].entry, 0u);
  EXPECT_EQ(got.funcs[0].nregs, 3);
  EXPECT_EQ(got.arg_pool, bc.arg_pool);
  EXPECT_EQ(got.messages, bc.messages);
  EXPECT_EQ(got.acct, bc.acct);
  EXPECT_EQ(got.acct_pool, bc.acct_pool);
  EXPECT_EQ(got.max_regs, 3);
}

TEST(DistWire, BytecodeArtifactWithBogusOpcodeRejected) {
  opec_rt::bytecode::BytecodeModule bc;
  opec_rt::bytecode::Insn bad;
  bad.op = static_cast<opec_rt::bytecode::Op>(0xEF);
  bc.code = {bad};
  opec_rt::CostModel costs;
  StateWriter w;
  opec_dist::WriteBytecodeArtifact(w, bc, costs);
  std::vector<uint8_t> bytes = w.Take();
  StateReader r(bytes);
  opec_rt::bytecode::BytecodeModule got;
  opec_rt::CostModel got_costs;
  EXPECT_FALSE(opec_dist::ReadBytecodeArtifact(r, &got, &got_costs));
}

// ---------------------------------------------------------------------------
// Content-addressed artifact cache.

TEST(DistCache, MemoryHitMissAndIdempotentPut) {
  ArtifactCache cache("");
  ASSERT_TRUE(cache.ok());
  std::vector<uint8_t> a = Bytes({1, 2, 3});
  uint64_t da = cache.Put(a);
  EXPECT_EQ(cache.Put(a), da);  // idempotent
  std::vector<uint8_t> out;
  EXPECT_TRUE(cache.Get(da, &out));
  EXPECT_EQ(out, a);
  EXPECT_FALSE(cache.Get(da ^ 1, &out));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_TRUE(cache.Contains(da));
  EXPECT_FALSE(cache.Contains(da ^ 1));
}

TEST(DistCache, LruEvictionByBytes) {
  ArtifactCache cache("", /*max_bytes=*/150);
  std::vector<uint8_t> a(100, 0xAA);
  std::vector<uint8_t> b(100, 0xBB);
  uint64_t da = cache.Put(a);
  uint64_t db = cache.Put(b);  // 200 resident > 150: evict LRU (a)
  EXPECT_EQ(cache.stats().evictions, 1u);
  std::vector<uint8_t> out;
  EXPECT_FALSE(cache.Get(da, &out));
  EXPECT_TRUE(cache.Get(db, &out));
  EXPECT_LE(cache.resident_bytes(), 150u);
}

TEST(DistCache, DirBackedRoundTripAndSharedVisibility) {
  std::string dir = MakeTempDir();
  std::vector<uint8_t> a = Bytes({9, 8, 7, 6});
  uint64_t da = 0;
  {
    ArtifactCache cache(dir);
    ASSERT_TRUE(cache.ok());
    da = cache.Put(a);
  }
  // A *fresh* cache over the same directory sees the artifact (shared
  // --cache-dir across processes / runs).
  ArtifactCache cache2(dir);
  std::vector<uint8_t> out;
  EXPECT_TRUE(cache2.Get(da, &out));
  EXPECT_EQ(out, a);
  EXPECT_EQ(cache2.stats().hits, 1u);
}

TEST(DistCache, DigestMismatchExpungedAndCounted) {
  std::string dir = MakeTempDir();
  ArtifactCache cache(dir);
  std::vector<uint8_t> a = Bytes({1, 1, 2, 3, 5, 8});
  uint64_t da = cache.Put(a);
  // Corrupt the artifact file on disk behind the cache's back.
  std::string path = dir + "/" + ArtifactCache::DigestFileName(da);
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "corrupted";
  }
  std::vector<uint8_t> out;
  EXPECT_FALSE(cache.Get(da, &out));  // miss, never the wrong bytes
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cache.stats().digest_mismatches, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The corrupt file was expunged so a re-Put can repopulate.
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good());
  cache.Put(a);
  EXPECT_TRUE(cache.Get(da, &out));
  EXPECT_EQ(out, a);
}

TEST(DistCache, NamedRefsSurviveProcessRestart) {
  std::string dir = MakeTempDir();
  std::vector<uint8_t> a = Bytes({42, 43, 44});
  uint64_t da = 0;
  {
    ArtifactCache cache(dir);
    da = cache.Put(a);
    cache.PutRef("boot/PinLock/opec", da);
  }
  // Fresh cache, same dir: the key still resolves (warm-start across runs).
  ArtifactCache cache2(dir);
  uint64_t got = 0;
  ASSERT_TRUE(cache2.GetRef("boot/PinLock/opec", &got));
  EXPECT_EQ(got, da);
  EXPECT_FALSE(cache2.GetRef("boot/Other/opec", &got));
  std::vector<uint8_t> out;
  EXPECT_TRUE(cache2.Get(da, &out));
  EXPECT_EQ(out, a);
}

TEST(DistCache, UnusableDirDegradesToMemoryWithError) {
  std::string dir = MakeTempDir();
  std::string file = dir + "/plainfile";
  {
    std::ofstream f(file);
    f << "x";
  }
  // A path *under a regular file* can never become a directory.
  ArtifactCache cache(file + "/sub");
  EXPECT_FALSE(cache.ok());
  EXPECT_NE(cache.error().find("artifact cache directory unusable"), std::string::npos);
  // Degrades to memory backing: still usable, never aborts.
  std::vector<uint8_t> a = Bytes({1});
  uint64_t da = cache.Put(a);
  std::vector<uint8_t> out;
  EXPECT_TRUE(cache.Get(da, &out));
}

// ---------------------------------------------------------------------------
// Unwritable output directories fail fast with a clear message (never an
// OPEC_CHECK abort). Regression: Executor::Run used to OPEC_CHECK-abort mid-
// campaign when snapshot_dir could not be created.

TEST(DistOutputs, ExecutorSnapshotDirUnwritableThrowsRuntimeError) {
  std::string dir = MakeTempDir();
  std::string file = dir + "/blocker";
  {
    std::ofstream f(file);
    f << "x";
  }
  opec_campaign::CampaignSpec spec;
  spec.seed = 3;
  spec.AddFaultSweep({"PinLock"}, 1);
  opec_campaign::Executor::Options options;
  options.jobs = 1;
  options.snapshot_dir = file + "/snaps";
  EXPECT_THROW(opec_campaign::Executor::Run(spec, options), std::runtime_error);
}

TEST(DistOutputs, ServerSnapshotDirUnwritableFailsServe) {
  std::string dir = MakeTempDir();
  std::string file = dir + "/blocker";
  {
    std::ofstream f(file);
    f << "x";
  }
  opec_campaign::CampaignSpec spec;
  spec.seed = 3;
  spec.AddFaultSweep({"PinLock"}, 1);
  CampaignServer::Options options;
  options.snapshot_dir = file + "/snaps";
  CampaignServer server(spec, options);
  // Regression: a connected worker must be hung up on when Serve bails early,
  // or self-hosted children deadlock against the parent's waitpid.
  auto [server_end, worker_end] = LocalPair();
  server.AddWorker(std::move(server_end));
  std::string worker_error;
  std::thread worker_thread([&, transport = worker_end.get()] {
    worker_error = RunWorker(*transport, WorkerOptions{});
  });
  std::string err = server.Serve();
  worker_thread.join();
  EXPECT_NE(err.find("campaign output directory unusable"), std::string::npos);
  EXPECT_NE(worker_error, "");
}

// ---------------------------------------------------------------------------
// End-to-end distributed sweeps. Workers run in-process threads over
// socketpairs — the same Transport/RunWorker code the forked and TCP modes
// use, minus the process boundary.

opec_campaign::CampaignSpec SmallFaultSweep(size_t count) {
  opec_campaign::CampaignSpec spec;
  spec.seed = 7;
  spec.AddFaultSweep({"PinLock"}, count);
  return spec;
}

struct DistRun {
  opec_campaign::CampaignResult result;
  opec_dist::DistStats stats;
  std::string serve_error;
  std::vector<std::string> worker_errors;
};

DistRun RunDistCampaign(const opec_campaign::CampaignSpec& spec, size_t n_workers,
                        CampaignServer::Options options,
                        std::vector<WorkerOptions> worker_options = {}) {
  DistRun run;
  CampaignServer server(spec, options);
  std::vector<std::unique_ptr<Transport>> worker_ends;
  for (size_t i = 0; i < n_workers; ++i) {
    auto [server_end, worker_end] = LocalPair();
    server.AddWorker(std::move(server_end));
    worker_ends.push_back(std::move(worker_end));
  }
  run.worker_errors.resize(n_workers);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n_workers; ++i) {
    WorkerOptions wo = i < worker_options.size() ? worker_options[i] : WorkerOptions{};
    if (wo.name.empty()) {
      wo.name = "w" + std::to_string(i);
    }
    threads.emplace_back([&run, i, transport = worker_ends[i].get(), wo] {
      run.worker_errors[i] = RunWorker(*transport, wo);
    });
  }
  run.serve_error = server.Serve();
  for (std::thread& t : threads) {
    t.join();
  }
  run.result = server.TakeCampaignResult();
  run.stats = server.dist_stats();
  return run;
}

TEST(DistSweep, MatchesInProcessExecutorAcrossWorkerCounts) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(10);
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  std::string serial = opec_campaign::Executor::Run(spec, serial_options).DeterministicJson();

  for (size_t n : {1u, 2u, 4u}) {
    CampaignServer::Options options;
    options.unit_size = 2;
    DistRun run = RunDistCampaign(spec, n, options);
    ASSERT_EQ(run.serve_error, "") << "workers=" << n;
    for (const std::string& we : run.worker_errors) {
      EXPECT_EQ(we, "");
    }
    EXPECT_EQ(run.result.DeterministicJson(), serial) << "workers=" << n;
    EXPECT_EQ(run.stats.workers, n);
  }
}

TEST(DistSweep, DistBlockInJsonButNotDeterministicJson) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(4);
  CampaignServer::Options options;
  options.unit_size = 2;
  DistRun run = RunDistCampaign(spec, 2, options);
  ASSERT_EQ(run.serve_error, "");
  EXPECT_NE(run.result.Json(opec_dist::DistJson(run.stats)).find("\"dist\""),
            std::string::npos);
  EXPECT_EQ(run.result.DeterministicJson().find("\"dist\""), std::string::npos);
}

TEST(DistSweep, WorkerDeathMidSweepReissuesAndReportUnchanged) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(10);
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  std::string serial = opec_campaign::Executor::Run(spec, serial_options).DeterministicJson();

  CampaignServer::Options options;
  options.unit_size = 2;
  std::vector<WorkerOptions> worker_options(2);
  worker_options[0].die_after_jobs = 1;  // dies mid-unit, result never sent
  DistRun run = RunDistCampaign(spec, 2, options, worker_options);
  ASSERT_EQ(run.serve_error, "");
  EXPECT_EQ(run.result.DeterministicJson(), serial);
  EXPECT_GE(run.stats.workers_died, 1u);
  EXPECT_GE(run.stats.units_reissued, 1u);
}

TEST(DistSweep, LeaseExpiryReissuesToLiveWorker) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(8);
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  std::string serial = opec_campaign::Executor::Run(spec, serial_options).DeterministicJson();

  CampaignServer::Options options;
  options.unit_size = 2;
  options.lease_ms = 50;
  CampaignServer server(spec, options);

  // Stub worker: takes one unit, then stalls (connected but silent) until
  // shutdown. Its lease must expire and the unit reissue to the real worker.
  auto [stub_server_end, stub_end] = LocalPair();
  server.AddWorker(std::move(stub_server_end));
  auto [real_server_end, real_end] = LocalPair();
  server.AddWorker(std::move(real_server_end));

  // Pre-queue the stub's hello + work request so the server grants it a unit
  // before the real worker has even said hello (stub is poll index 0).
  opec_dist::HelloMsg hello;
  hello.worker_name = "staller";
  hello.session_id = 1;
  ASSERT_EQ(stub_end->Send(MakeFrame(FrameType::kHello,
                                     [&](StateWriter& w) { opec_dist::WriteHello(w, hello); })),
            Transport::Status::kOk);
  ASSERT_EQ(stub_end->Send(MakeFrame(FrameType::kRequestWork)), Transport::Status::kOk);

  bool stub_got_assign = false;
  std::thread stub([&, transport = stub_end.get()] {
    Frame f;
    while (transport->Recv(&f) == Transport::Status::kOk) {
      if (f.type == FrameType::kAssign) {
        stub_got_assign = true;  // stall: never report the result
      }
      if (f.type == FrameType::kShutdown) {
        break;
      }
    }
    transport->Close();  // let the server's drain phase see EOF promptly
  });
  std::string real_error;
  std::thread real([&, transport = real_end.get()] {
    WorkerOptions wo;
    wo.name = "real";
    real_error = RunWorker(*transport, wo);
  });

  std::string err = server.Serve();
  stub.join();
  real.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(real_error, "");
  EXPECT_TRUE(stub_got_assign);
  EXPECT_GE(server.dist_stats().leases_expired, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

TEST(DistSweep, FuzzSweepMatchesSerialRunCase) {
  constexpr uint64_t kBase = 1000;
  constexpr uint64_t kCount = 6;
  CampaignServer::Options options;
  options.unit_size = 2;
  CampaignServer server(kBase, kCount, options);

  std::vector<std::unique_ptr<Transport>> ends;
  for (int i = 0; i < 2; ++i) {
    auto [server_end, worker_end] = LocalPair();
    server.AddWorker(std::move(server_end));
    ends.push_back(std::move(worker_end));
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([transport = ends[static_cast<size_t>(i)].get()] {
      WorkerOptions wo;
      RunWorker(*transport, wo);
    });
  }
  std::string err = server.Serve();
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_EQ(err, "");

  std::vector<opec_fuzz::CaseResult> dist_results = server.TakeFuzzResults();
  ASSERT_EQ(dist_results.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    opec_fuzz::CaseResult serial = opec_fuzz::RunCase(kBase + i);
    EXPECT_EQ(dist_results[i].seed, serial.seed);
    EXPECT_EQ(dist_results[i].digest, serial.digest);
    EXPECT_EQ(dist_results[i].summary, serial.summary);
    EXPECT_EQ(dist_results[i].divergences.size(), serial.divergences.size());
  }
}

TEST(DistSweep, SharedCacheDirGivesArtifactHitsOnSecondRunSameReport) {
  std::string cache_dir = MakeTempDir();
  // Scenario jobs on both engines so boot snapshots *and* bytecode modules
  // flow through the cache.
  opec_campaign::CampaignSpec spec;
  spec.seed = 11;
  for (int engine = 0; engine < 2; ++engine) {
    for (int i = 0; i < 2; ++i) {
      opec_campaign::JobSpec job;
      job.kind = opec_campaign::JobKind::kScenario;
      job.app = "PinLock";
      job.mode = opec_apps::BuildMode::kOpec;
      job.engine = engine == 0 ? opec_apps::EngineKind::kInterp
                               : opec_apps::EngineKind::kBytecode;
      spec.jobs.push_back(job);
    }
  }

  CampaignServer::Options options;
  options.unit_size = 1;
  std::vector<WorkerOptions> worker_options(1);
  worker_options[0].cache_dir = cache_dir;

  DistRun cold = RunDistCampaign(spec, 1, options, worker_options);
  ASSERT_EQ(cold.serve_error, "");
  // Fresh server + fresh worker over the same cache dir: the worker resolves
  // boot/bcmod artifacts from named refs and adopts instead of rebuilding.
  DistRun warm = RunDistCampaign(spec, 1, options, worker_options);
  ASSERT_EQ(warm.serve_error, "");
  EXPECT_GT(warm.stats.artifact_hits, 0u);
  EXPECT_EQ(warm.result.DeterministicJson(), cold.result.DeterministicJson());

  // And both match the in-process executor (warm pool, cold boot — all the
  // same modeled outputs).
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  EXPECT_EQ(cold.result.DeterministicJson(),
            opec_campaign::Executor::Run(spec, serial_options).DeterministicJson());
}

// ---------------------------------------------------------------------------
// Fleet hardening: version check, auth, CIDR
// allow-listing, truncation hygiene, streaming backpressure,
// lost links and reconnects, adaptive unit sizing, chunked artifact replies.

std::string SerialJson(const opec_campaign::CampaignSpec& spec) {
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  return opec_campaign::Executor::Run(spec, serial_options).DeterministicJson();
}

TEST(DistTransport, CidrParseAndMatch) {
  std::vector<opec_dist::Cidr> allow;
  std::string error;
  ASSERT_TRUE(opec_dist::ParseCidrList("127.0.0.1,10.0.0.0/8", &allow, &error)) << error;
  ASSERT_EQ(allow.size(), 2u);
  EXPECT_TRUE(opec_dist::CidrMatch(allow, 0x7F000001));   // 127.0.0.1
  EXPECT_FALSE(opec_dist::CidrMatch(allow, 0x7F000002));  // 127.0.0.2
  EXPECT_TRUE(opec_dist::CidrMatch(allow, 0x0A123456));   // inside 10/8
  EXPECT_FALSE(opec_dist::CidrMatch(allow, 0x0B000001));  // outside

  // An empty list means "no restriction configured".
  std::vector<opec_dist::Cidr> none;
  EXPECT_TRUE(opec_dist::CidrMatch(none, 0x01020304));
  // /0 matches everything.
  std::vector<opec_dist::Cidr> any;
  ASSERT_TRUE(opec_dist::ParseCidrList("0.0.0.0/0", &any, &error));
  EXPECT_TRUE(opec_dist::CidrMatch(any, 0xDEADBEEF));

  std::vector<opec_dist::Cidr> bad;
  EXPECT_FALSE(opec_dist::ParseCidrList("10.0.0.0/33", &bad, &error));
  EXPECT_FALSE(opec_dist::ParseCidrList("not-an-ip", &bad, &error));
  EXPECT_FALSE(opec_dist::ParseCidrList("10.0.0.0/x", &bad, &error));
  EXPECT_FALSE(opec_dist::ParseCidrList("", &bad, &error));
}

TEST(DistTransport, TruncationAtEveryOffsetIsCleanAndFreshLinkRecovers) {
  // Sweep a hello and a campaign result frame: EOF at any byte offset
  // inside the frame must surface as a clean "truncated frame", and a fresh
  // transport (what a reconnecting worker gets — the receive buffer is per
  // connection) must decode the full frame untainted.
  opec_dist::HelloMsg hello;
  hello.worker_name = "w-trunc";
  hello.token = "sesame";
  hello.session_id = 3;
  Frame hello_frame = MakeFrame(FrameType::kHello,
                                [&](StateWriter& w) { opec_dist::WriteHello(w, hello); });

  opec_dist::ResultMsg rm;
  rm.unit_id = 3;
  rm.indexes = {4};
  opec_campaign::JobResult jr;
  jr.spec.app = "PinLock";
  jr.detail = "a detail string that pads the result payload a bit";
  rm.jobs = {jr};
  Frame result_frame = MakeFrame(FrameType::kResult, [&](StateWriter& w) {
    opec_dist::WriteResult(w, SweepKind::kCampaign, rm);
  });

  for (const Frame& frame : {hello_frame, result_frame}) {
    std::vector<uint8_t> encoded = opec_dist::EncodeFrame(frame);
    ASSERT_GT(encoded.size(), 5u);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      int fds[2] = {-1, -1};
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      Transport receiver(fds[1]);
      if (cut > 0) {
        ASSERT_EQ(::send(fds[0], encoded.data(), cut, 0), static_cast<ssize_t>(cut));
      }
      ::close(fds[0]);
      Frame got;
      Transport::Status status = receiver.Recv(&got);
      if (cut == 0) {
        EXPECT_EQ(status, Transport::Status::kEof);
      } else {
        ASSERT_EQ(status, Transport::Status::kError) << "cut=" << cut;
        EXPECT_EQ(receiver.error(), "truncated frame") << "cut=" << cut;
      }
    }
    // The successor connection starts with a clean buffer by construction.
    auto [a, b] = LocalPair();
    ASSERT_EQ(a->Send(frame), Transport::Status::kOk);
    Frame got;
    ASSERT_EQ(b->Recv(&got), Transport::Status::kOk);
    EXPECT_EQ(got.type, frame.type);
    EXPECT_EQ(got.payload, frame.payload);
  }
}

TEST(DistAuth, BadTokenHungUpOnBeforeAnyBytes) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(4);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  options.auth_token = "sesame";
  CampaignServer server(spec, options);

  auto [bad_server_end, bad_end] = LocalPair();
  server.AddWorker(std::move(bad_server_end));
  auto [good_server_end, good_end] = LocalPair();
  server.AddWorker(std::move(good_server_end));

  opec_dist::HelloMsg hello;
  hello.worker_name = "intruder";
  hello.token = "wrong";
  ASSERT_EQ(bad_end->Send(MakeFrame(FrameType::kHello,
                                    [&](StateWriter& w) { opec_dist::WriteHello(w, hello); })),
            Transport::Status::kOk);

  // kEof (not a frame, not a mid-frame error) proves the server hung up
  // without sending a single byte back.
  Transport::Status bad_status = Transport::Status::kOk;
  std::thread intruder([&, transport = bad_end.get()] {
    Frame f;
    bad_status = transport->Recv(&f);
  });
  std::string good_error;
  std::thread good([&, transport = good_end.get()] {
    WorkerOptions wo;
    wo.name = "legit";
    wo.token = "sesame";
    good_error = RunWorker(*transport, wo);
  });
  std::string err = server.Serve();
  intruder.join();
  good.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(good_error, "");
  EXPECT_EQ(bad_status, Transport::Status::kEof);
  EXPECT_EQ(server.dist_stats().peers_rejected, 1u);
  EXPECT_EQ(server.dist_stats().workers, 1u);  // the intruder never joined
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

TEST(DistAuth, TcpPeerOutsideAllowListRefusedAtAccept) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(4);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  std::string cidr_error;
  ASSERT_TRUE(opec_dist::ParseCidrList("10.0.0.0/8", &options.allow, &cidr_error));
  CampaignServer server(spec, options);

  std::string listen_error;
  int listen_fd = opec_dist::TcpListen(0, &listen_error);
  ASSERT_GE(listen_fd, 0) << listen_error;
  uint16_t port = opec_dist::TcpBoundPort(listen_fd);
  ASSERT_NE(port, 0);
  server.set_listen_fd(listen_fd);

  auto [server_end, worker_end] = LocalPair();
  server.AddWorker(std::move(server_end));

  std::string serve_error;
  std::thread serve_thread([&] { serve_error = server.Serve(); });

  // 127.0.0.1 is outside 10.0.0.0/8: the connection is closed at accept
  // time, before the server reads or writes a single frame.
  std::string connect_error;
  int cfd = opec_dist::TcpConnect("127.0.0.1:" + std::to_string(port), &connect_error);
  ASSERT_GE(cfd, 0) << connect_error;
  Transport refused(cfd);
  Frame f;
  EXPECT_EQ(refused.Recv(&f), Transport::Status::kEof);

  // Only now let the pre-connected (socketpair) worker run the sweep down.
  std::string worker_error;
  std::thread worker_thread([&, transport = worker_end.get()] {
    WorkerOptions wo;
    wo.name = "local";
    worker_error = RunWorker(*transport, wo);
  });
  serve_thread.join();
  worker_thread.join();
  ::close(listen_fd);
  ASSERT_EQ(serve_error, "");
  EXPECT_EQ(worker_error, "");
  EXPECT_GE(server.dist_stats().peers_rejected, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// Every peer is built from the same commit: a hello of any other version
// (here the old version-1 layout, version + name only) gets a silent hang-up
// counted in peers_rejected — never a decode of the foreign layout — while a
// current worker runs the sweep alongside it.
TEST(DistSweep, ForeignVersionHelloHungUpAndCounted) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(2);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 1;
  CampaignServer server(spec, options);
  auto [stub_server_end, stub_end] = LocalPair();
  server.AddWorker(std::move(stub_server_end));
  auto [real_server_end, real_end] = LocalPair();
  server.AddWorker(std::move(real_server_end));

  ASSERT_EQ(stub_end->Send(MakeFrame(FrameType::kHello,
                                     [](StateWriter& w) {
                                       w.U32(1);
                                       w.Str("legacy");
                                     })),
            Transport::Status::kOk);
  Transport::Status legacy_status = Transport::Status::kOk;
  std::thread legacy([&, transport = stub_end.get()] {
    Frame f;
    legacy_status = transport->Recv(&f);  // no welcome: the hang-up
  });
  std::string real_error;
  std::thread real([&, transport = real_end.get()] {
    WorkerOptions wo;
    wo.name = "real";
    real_error = RunWorker(*transport, wo);
  });
  std::string err = server.Serve();
  legacy.join();
  real.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(real_error, "");
  EXPECT_EQ(legacy_status, Transport::Status::kEof);
  EXPECT_EQ(server.dist_stats().peers_rejected, 1u);
  EXPECT_EQ(server.dist_stats().workers, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// Regression (head-of-line blocking): a peer that stops reading used to
// freeze the whole fleet — the server sat in a blocking WriteAll to the
// stalled peer's socket and no other worker was served (this test timed out
// pre-fix). Post-fix the replies queue in the staller's per-peer outbox and
// everyone else proceeds.
TEST(DistSweep, StalledPeerDoesNotBlockTheFleet) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(6);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  options.drain_ms = 200;  // the staller never drains; don't wait on it long
  CampaignServer server(spec, options);

  auto [stall_server_end, stall_end] = LocalPair();
  server.AddWorker(std::move(stall_server_end));
  auto [real_server_end, real_end] = LocalPair();
  server.AddWorker(std::move(real_server_end));

  // The staller uploads a 256 KiB artifact, then floods fetches for it
  // without ever reading a reply: the kernel pipe back to it fills after the
  // first couple of replies and everything else lands in its outbox.
  std::vector<uint8_t> blob(256 * 1024, 0xCD);
  ArtifactCache scratch("");
  uint64_t digest = scratch.Put(blob);
  std::thread staller([&, transport = stall_end.get()] {
    opec_dist::HelloMsg hello;
    hello.worker_name = "staller";
    hello.session_id = 1;
    transport->Send(MakeFrame(FrameType::kHello,
                              [&](StateWriter& w) { opec_dist::WriteHello(w, hello); }));
    opec_dist::ArtifactAnnounceMsg ann;
    ann.key = "blob/stall";
    ann.digest = digest;
    ann.with_bytes = true;
    ann.bytes = blob;
    transport->Send(MakeFrame(FrameType::kArtifactAnnounce, [&](StateWriter& w) {
      opec_dist::WriteArtifactAnnounce(w, ann);
    }));
    opec_dist::ArtifactFetchMsg fetch;
    fetch.digest = digest;
    for (int i = 0; i < 64; ++i) {
      transport->Send(MakeFrame(FrameType::kArtifactFetch, [&](StateWriter& w) {
        opec_dist::WriteArtifactFetch(w, fetch);
      }));
    }
    // Keep the fd open (never read): the outbox must absorb ~16 MiB.
  });

  std::string real_error;
  std::thread real([&, transport = real_end.get()] {
    WorkerOptions wo;
    wo.name = "real";
    real_error = RunWorker(*transport, wo);
  });
  std::string err = server.Serve();
  staller.join();
  real.join();
  ASSERT_EQ(err, "");
  EXPECT_EQ(real_error, "");
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// Regression (lease/reconnect stats race): a full result that lands *after*
// its lease expired completes the unit; the copy some other worker still
// holds must be cancelled silently. Pre-fix the holder's EOF re-queued the
// already-complete unit and units_reissued double-counted the recovery.
TEST(DistSweep, LateResultAfterLeaseExpiryCountedOnce) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(2);
  opec_campaign::Executor::Options serial_options;
  serial_options.jobs = 1;
  opec_campaign::CampaignResult serial_result = opec_campaign::Executor::Run(spec, serial_options);
  std::string serial = serial_result.DeterministicJson();

  CampaignServer::Options options;
  options.unit_size = 2;  // one unit covers the whole sweep
  options.lease_ms = 100;
  CampaignServer server(spec, options);

  auto [slow_server_end, slow_end] = LocalPair();
  server.AddWorker(std::move(slow_server_end));
  auto [holder_server_end, holder_end] = LocalPair();
  server.AddWorker(std::move(holder_server_end));

  // Slow worker: takes the only unit, stalls past the lease, then delivers
  // the full (byte-identical) result late.
  std::thread slow([&, transport = slow_end.get()] {
    opec_dist::HelloMsg hello;
    hello.worker_name = "slow";
    hello.session_id = 1;
    transport->Send(MakeFrame(FrameType::kHello,
                              [&](StateWriter& w) { opec_dist::WriteHello(w, hello); }));
    Frame f;
    if (transport->Recv(&f) != Transport::Status::kOk) {  // welcome
      return;
    }
    transport->Send(MakeFrame(FrameType::kRequestWork));
    if (transport->Recv(&f) != Transport::Status::kOk || f.type != FrameType::kAssign) {
      return;
    }
    StateReader r(f.payload);
    opec_dist::AssignMsg assign = opec_dist::ReadAssign(r, SweepKind::kCampaign);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    opec_dist::ResultMsg rm;
    rm.unit_id = assign.unit_id;
    rm.indexes = assign.indexes;
    for (uint64_t index : assign.indexes) {
      rm.jobs.push_back(serial_result.results[index]);
    }
    transport->Send(MakeFrame(FrameType::kResult, [&](StateWriter& w) {
      opec_dist::WriteResult(w, SweepKind::kCampaign, rm);
    }));
    while (transport->Recv(&f) == Transport::Status::kOk) {
      if (f.type == FrameType::kShutdown) {
        break;
      }
    }
    transport->Close();
  });
  // Holder: waits out the expiry, grabs the re-issued copy, and sits on it
  // until shutdown — its EOF after the late completion must not re-queue.
  std::thread holder([&, transport = holder_end.get()] {
    opec_dist::HelloMsg hello;
    hello.worker_name = "holder";
    hello.session_id = 2;
    transport->Send(MakeFrame(FrameType::kHello,
                              [&](StateWriter& w) { opec_dist::WriteHello(w, hello); }));
    Frame f;
    if (transport->Recv(&f) != Transport::Status::kOk) {  // welcome
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    transport->Send(MakeFrame(FrameType::kRequestWork));
    while (transport->Recv(&f) == Transport::Status::kOk) {
      if (f.type == FrameType::kShutdown) {
        break;
      }
    }
    transport->Close();
  });

  std::string err = server.Serve();
  slow.join();
  holder.join();
  ASSERT_EQ(err, "");
  // The slow worker's expiry is the only legitimate bump (a heavily loaded
  // host can expire the holder's copy too, hence >=); the holder's EOF on the
  // already-complete unit must not count as a reissue — that double-count is
  // the regression.
  EXPECT_GE(server.dist_stats().leases_expired, 1u);
  EXPECT_EQ(server.dist_stats().units_reissued, 0u);
  EXPECT_GE(server.dist_stats().late_results, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// End-to-end over real TCP on 127.0.0.1: two authenticated workers, one of
// which drops its link mid-unit and redials. The server requeues the unit at
// once; the redialed worker presents the same session id (a reconnect, not a
// new worker) and delivers the row it finished as a late result. Nothing
// waits for a lease to expire, and the report is byte-identical to
// `campaign --jobs 1`.
TEST(DistSweep, TcpReconnectResumesSameUnitByteIdentical) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(12);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 4;
  options.auth_token = "sesame";
  CampaignServer server(spec, options);

  std::string listen_error;
  int listen_fd = opec_dist::TcpListen(0, &listen_error);
  ASSERT_GE(listen_fd, 0) << listen_error;
  uint16_t port = opec_dist::TcpBoundPort(listen_fd);
  ASSERT_NE(port, 0);
  server.set_listen_fd(listen_fd);

  std::string serve_error;
  std::thread serve_thread([&] { serve_error = server.Serve(); });

  auto connect = [port]() -> std::unique_ptr<Transport> {
    std::string error;
    int fd = opec_dist::TcpConnect("127.0.0.1:" + std::to_string(port), &error);
    if (fd < 0) {
      return nullptr;
    }
    return std::make_unique<Transport>(fd);
  };
  std::string alpha_error;
  std::thread alpha([&] {
    WorkerOptions wo;
    wo.name = "alpha";
    wo.token = "sesame";
    wo.reconnect_max = 5;
    wo.reconnect_delay_ms = 20;
    wo.chaos_drop_after = 1;  // drop mid-unit, once, then redial
    alpha_error = RunWorkerLoop(connect, wo);
  });
  std::string beta_error;
  std::thread beta([&] {
    WorkerOptions wo;
    wo.name = "beta";
    wo.token = "sesame";
    wo.reconnect_max = 5;
    wo.reconnect_delay_ms = 20;
    beta_error = RunWorkerLoop(connect, wo);
  });
  serve_thread.join();
  alpha.join();
  beta.join();
  ::close(listen_fd);

  ASSERT_EQ(serve_error, "");
  EXPECT_EQ(alpha_error, "");
  EXPECT_EQ(beta_error, "");
  const opec_dist::DistStats& d = server.dist_stats();
  EXPECT_EQ(d.workers, 2u);  // distinct sessions, not connections
  EXPECT_GE(d.reconnects, 1u);
  EXPECT_GE(d.late_results, 1u);  // the rows finished before the drop
  EXPECT_EQ(d.leases_expired, 0u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

// A worker that drops its link and never redials: its unit is requeued the
// moment the server sees the EOF and finishes on the other worker, with no
// wait on the 5 s lease. (A worker that announced a stable id used to have
// its leases parked for the lease's full length instead.)
TEST(DistSweep, VanishedWorkerUnitsRequeueAtOnce) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(8);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 2;
  options.lease_ms = 5000;
  CampaignServer server(spec, options);
  auto [gone_server_end, gone_end] = LocalPair();
  server.AddWorker(std::move(gone_server_end));
  auto [real_server_end, real_end] = LocalPair();
  server.AddWorker(std::move(real_server_end));

  std::string serve_error;
  std::thread serve_thread([&] { serve_error = server.Serve(); });
  // The vanishing worker runs alone first, so it surely holds a unit when
  // its link drops.
  WorkerOptions gone;
  gone.name = "gone";
  gone.chaos_drop_after = 1;
  std::string gone_error = RunWorker(*gone_end, gone);
  WorkerOptions real;
  real.name = "real";
  std::string real_error = RunWorker(*real_end, real);
  serve_thread.join();

  ASSERT_EQ(serve_error, "");
  EXPECT_NE(gone_error, "");  // the dropped link, never redialed
  EXPECT_EQ(real_error, "");
  const opec_dist::DistStats& d = server.dist_stats();
  EXPECT_EQ(d.leases_expired, 0u);
  EXPECT_GE(d.units_reissued, 1u);
  EXPECT_EQ(d.workers_died, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

TEST(DistSweep, AdaptiveUnitSizingKeepsReportByteIdentical) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(10);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.adaptive_units = true;
  options.target_unit_ms = 2;  // tiny target: forces per-lease re-sizing
  options.max_unit_size = 4;
  for (size_t n : {1u, 2u}) {
    DistRun run = RunDistCampaign(spec, n, options);
    ASSERT_EQ(run.serve_error, "") << "workers=" << n;
    for (const std::string& we : run.worker_errors) {
      EXPECT_EQ(we, "");
    }
    EXPECT_EQ(run.result.DeterministicJson(), serial) << "workers=" << n;
    const opec_dist::DistStats& d = run.stats;
    EXPECT_TRUE(d.adaptive_units);
    EXPECT_GE(d.unit_size_min, 1u);
    EXPECT_GE(d.unit_size_max, d.unit_size_min);
    EXPECT_LE(d.unit_size_max, 4u);
    // Sizing is observability, not part of the deterministic report.
    EXPECT_NE(run.result.Json(opec_dist::DistJson(run.stats)).find("\"adaptive_units\": true"),
              std::string::npos);
    EXPECT_EQ(run.result.DeterministicJson().find("adaptive_units"), std::string::npos);
  }
}

TEST(DistSweep, OversizedArtifactRepliesStreamAsChunks) {
  opec_campaign::CampaignSpec spec = SmallFaultSweep(2);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 1;
  options.chunk_threshold = 256;
  CampaignServer server(spec, options);
  auto [stub_server_end, stub_end] = LocalPair();
  server.AddWorker(std::move(stub_server_end));
  auto [real_server_end, real_end] = LocalPair();
  server.AddWorker(std::move(real_server_end));

  std::string serve_error;
  std::thread serve_thread([&] { serve_error = server.Serve(); });

  // Stub: upload a 1000-byte artifact, fetch it back, and require the
  // reply to arrive as in-order kArtifactChunk slices bounded by the
  // server's chunk threshold.
  Transport* stub = stub_end.get();
  opec_dist::HelloMsg hello;
  hello.worker_name = "chunky";
  hello.session_id = 1;
  ASSERT_EQ(stub->Send(MakeFrame(FrameType::kHello,
                                 [&](StateWriter& w) { opec_dist::WriteHello(w, hello); })),
            Transport::Status::kOk);
  Frame f;
  ASSERT_EQ(stub->Recv(&f), Transport::Status::kOk);
  ASSERT_EQ(f.type, FrameType::kWelcome);
  {
    StateReader r(f.payload);
    opec_dist::WelcomeMsg welcome = opec_dist::ReadWelcome(r);
    EXPECT_EQ(welcome.version, opec_dist::kProtocolVersion);
  }

  std::vector<uint8_t> blob(1000);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 7);
  }
  ArtifactCache scratch("");
  uint64_t digest = scratch.Put(blob);
  opec_dist::ArtifactAnnounceMsg ann;
  ann.key = "blob/chunky";
  ann.digest = digest;
  ann.with_bytes = true;
  ann.bytes = blob;
  ASSERT_EQ(stub->Send(MakeFrame(FrameType::kArtifactAnnounce, [&](StateWriter& w) {
              opec_dist::WriteArtifactAnnounce(w, ann);
            })),
            Transport::Status::kOk);
  opec_dist::ArtifactFetchMsg fetch;
  fetch.digest = digest;
  ASSERT_EQ(stub->Send(MakeFrame(FrameType::kArtifactFetch, [&](StateWriter& w) {
              opec_dist::WriteArtifactFetch(w, fetch);
            })),
            Transport::Status::kOk);

  std::vector<uint8_t> assembled;
  size_t chunks = 0;
  for (;;) {
    ASSERT_EQ(stub->Recv(&f), Transport::Status::kOk);
    ASSERT_EQ(f.type, FrameType::kArtifactChunk);
    StateReader r(f.payload);
    opec_dist::ArtifactChunkMsg chunk = opec_dist::ReadArtifactChunk(r);
    ASSERT_EQ(chunk.total, blob.size());
    ASSERT_EQ(chunk.offset, assembled.size());  // strictly in order
    ASSERT_LE(chunk.bytes.size(), 256u);
    assembled.insert(assembled.end(), chunk.bytes.begin(), chunk.bytes.end());
    ++chunks;
    if (assembled.size() == chunk.total) {
      break;
    }
  }
  EXPECT_EQ(assembled, blob);
  EXPECT_EQ(chunks, 4u);  // ceil(1000 / 256)

  // Run the sweep down and exit cleanly.
  std::string real_error;
  std::thread real([&, transport = real_end.get()] {
    WorkerOptions wo;
    wo.name = "real";
    real_error = RunWorker(*transport, wo);
  });
  while (stub->Recv(&f) == Transport::Status::kOk) {
    if (f.type == FrameType::kShutdown) {
      break;
    }
  }
  stub_end->Close();
  serve_thread.join();
  real.join();
  ASSERT_EQ(serve_error, "");
  EXPECT_EQ(real_error, "");
  EXPECT_GE(server.dist_stats().chunks_sent, 4u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

TEST(DistSweep, WorkerReassemblesChunkedArtifactEndToEnd) {
  // One scenario job. Worker X builds the boot snapshot cold, announces it
  // (bytes included), then exits before delivering its result; the job is
  // re-queued. Worker Y — whose local cache evicts everything — resolves the
  // key from the server, fetches the snapshot back as a chunk stream
  // (threshold far below snapshot size), reassembles and adopts it, and the
  // report still matches the in-process executor byte for byte.
  opec_campaign::CampaignSpec spec;
  spec.seed = 11;
  opec_campaign::JobSpec job;
  job.kind = opec_campaign::JobKind::kScenario;
  job.app = "PinLock";
  job.mode = opec_apps::BuildMode::kOpec;
  job.engine = opec_apps::EngineKind::kInterp;
  spec.jobs.push_back(job);
  std::string serial = SerialJson(spec);

  CampaignServer::Options options;
  options.unit_size = 1;
  options.chunk_threshold = 64;
  CampaignServer server(spec, options);

  auto [x_server_end, x_end] = LocalPair();
  server.AddWorker(std::move(x_server_end));
  auto [y_server_end, y_end] = LocalPair();
  server.AddWorker(std::move(y_server_end));

  std::string serve_error;
  std::thread serve_thread([&] { serve_error = server.Serve(); });

  std::string x_error;
  {
    WorkerOptions wo;
    wo.name = "builder";
    wo.die_after_jobs = 1;  // announce, then vanish without delivering
    x_error = RunWorker(*x_end, wo);
  }
  // X is gone and its unit re-queued; only now does Y join, so Y *must* go
  // through the server fetch path.
  std::string y_error;
  {
    WorkerOptions wo;
    wo.name = "fetcher";
    wo.cache_max_bytes = 1;  // evict everything: no local artifact survives
    y_error = RunWorker(*y_end, wo);
  }
  serve_thread.join();
  ASSERT_EQ(serve_error, "");
  EXPECT_EQ(x_error, "");
  EXPECT_EQ(y_error, "");
  EXPECT_GE(server.dist_stats().chunks_sent, 2u);
  EXPECT_GE(server.dist_stats().units_reissued, 1u);
  EXPECT_EQ(server.TakeCampaignResult().DeterministicJson(), serial);
}

}  // namespace
