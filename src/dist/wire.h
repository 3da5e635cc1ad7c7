// Wire protocol of the distributed campaign service (DESIGN.md §16).
//
// Framing: every message on a transport is one length-prefixed binary frame
//
//   u32 payload_len (LE) | u8 type | payload[payload_len]
//
// `payload_len` counts only the payload bytes (not the length field or the
// type byte) and is capped at kMaxFramePayload — a corrupt length prefix is
// rejected before any allocation. Payloads are serialized with the snapshot
// subsystem's StateWriter/StateReader (src/hw/state_io.h): little-endian,
// position-based, bounds-checked. A truncated payload is a clean decode
// error, never a hang or an over-read.
//
// The protocol is deliberately small and worker-driven: workers request work
// units, the server leases them out, results flow back keyed by job index.
// Artifact messages implement the content-addressed cache handshake — keys
// map to Fnv1a64 digests server-side, bytes live in per-host cache
// directories and can be streamed through the server for cache-cold hosts.
//
// Versioning: the hello frame leads with `u32 version`. Every peer is built
// from the same commit, so the server accepts exactly kProtocolVersion and
// hangs up on anything else without reading further — the rest of a foreign
// hello may have any layout. The hello also carries a shared auth token
// (checked before the server sends a single byte) and the worker's session
// id, which every connection of one worker run presents so the server can
// count its reconnects. Artifact replies always stream as kArtifactChunk
// frames of at most the server's chunk size; a small artifact is a single
// chunk, and the worker reassembles any stream without knowing the size.

#ifndef SRC_DIST_WIRE_H_
#define SRC_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/fuzz/oracles.h"
#include "src/hw/state_io.h"
#include "src/rt/bytecode/bytecode.h"
#include "src/rt/engine.h"

namespace opec_dist {

inline constexpr uint32_t kProtocolVersion = 4;

// Frame size cap. The largest real payloads are boot-snapshot artifacts
// (machine memory images, single-digit MiB); the cap is a defense against
// corrupt length prefixes, not a tuning knob.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

// Artifact replies stream as kArtifactChunk frames of at most this many
// bytes, so one snapshot-sized reply never monopolizes a link.
inline constexpr uint32_t kDefaultChunkThreshold = 1u << 20;

enum class FrameType : uint8_t {
  // Handshake.
  kHello,    // worker -> server: protocol version, auth token, session id
  kWelcome,  // server -> worker: version, sweep kind, environment
  // Work loop.
  kRequestWork,  // worker -> server
  kAssign,       // server -> worker: one leased unit of resolved jobs
  kNoWork,       // server -> worker: queue momentarily empty, retry after hint
  kResult,       // worker -> server: completed job results + cache counters
  kShutdown,     // server -> worker: sweep complete, disconnect
  // Content-addressed artifact cache.
  kArtifactQuery,     // worker -> server: key -> digest?
  kArtifactInfo,      // server -> worker: key, known?, digest, size
  kArtifactFetch,     // worker -> server: digest -> bytes?
  kArtifactAnnounce,  // worker -> server: key, digest, optional bytes upload
  kArtifactChunk,     // server -> worker: one bounded slice of an artifact
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<uint8_t> payload;
};

// The exact byte sequence Transport::Send puts on the wire for `frame`
// (5-byte header + payload). Shared by the server's outbox and by tests that
// need to truncate frames at arbitrary byte offsets.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

// What a campaign server is sweeping: a campaign job matrix or a
// differential-fuzz seed range. The unit/lease machinery is shared.
enum class SweepKind : uint8_t {
  kCampaign,
  kFuzz,
};

// ---------------------------------------------------------------------------
// Message payloads. Each Write* appends to a StateWriter; each Read* consumes
// from a StateReader and OPEC_CHECKs on truncation (callers run decode under
// ScopedCheckThrow and turn failures into connection errors).

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  std::string worker_name;
  std::string token;  // shared secret; must match the server's --auth-token
  // Drawn at random once per worker run and presented on every connection
  // of that run: the server keys per-worker stats and reconnects by it.
  uint64_t session_id = 0;
};

struct WelcomeMsg {
  uint32_t version = kProtocolVersion;
  SweepKind sweep = SweepKind::kCampaign;
  bool cold_boot = false;
  std::string snapshot_dir;
};

struct NoWorkMsg {
  uint32_t retry_ms = 20;
};

// One leased work unit: job indexes with their payloads, fully resolved
// server-side (seeds, timeouts, trace paths) so every worker executes exactly
// what `campaign --jobs 1` would. Indexes recorded since the unit was carved
// (late deliveries) are left out.
struct AssignMsg {
  uint64_t unit_id = 0;
  std::vector<uint64_t> indexes;
  std::vector<opec_campaign::JobSpec> jobs;  // campaign sweeps
  std::vector<uint64_t> fuzz_seeds;          // fuzz sweeps
};

// Worker-side artifact-cache counters, cumulative for the worker session
// (they survive reconnects); the server keeps the latest sample per session
// id and sums them into DistStats.
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t digest_mismatches = 0;
};

struct ResultMsg {
  uint64_t unit_id = 0;
  std::vector<uint64_t> indexes;
  std::vector<opec_campaign::JobResult> jobs;  // campaign sweeps
  std::vector<opec_fuzz::CaseResult> cases;    // fuzz sweeps
  CacheCounters cache;
};

struct ArtifactQueryMsg {
  std::string key;
};

struct ArtifactInfoMsg {
  std::string key;
  bool known = false;
  uint64_t digest = 0;
  uint64_t size = 0;
};

struct ArtifactFetchMsg {
  uint64_t digest = 0;
};

// One slice of an artifact reply. Slices arrive in order; the reply is
// complete when offset + bytes.size() == total. total == 0 signals "not
// found".
struct ArtifactChunkMsg {
  uint64_t digest = 0;
  uint64_t total = 0;
  uint64_t offset = 0;
  std::vector<uint8_t> bytes;
};

struct ArtifactAnnounceMsg {
  std::string key;
  uint64_t digest = 0;
  bool with_bytes = false;
  std::vector<uint8_t> bytes;
};

void WriteHello(opec_hw::StateWriter& w, const HelloMsg& m);
// Reads the version and, only when it is kProtocolVersion, the rest.
HelloMsg ReadHello(opec_hw::StateReader& r);
void WriteWelcome(opec_hw::StateWriter& w, const WelcomeMsg& m);
WelcomeMsg ReadWelcome(opec_hw::StateReader& r);
void WriteNoWork(opec_hw::StateWriter& w, const NoWorkMsg& m);
NoWorkMsg ReadNoWork(opec_hw::StateReader& r);
void WriteAssign(opec_hw::StateWriter& w, SweepKind sweep, const AssignMsg& m);
AssignMsg ReadAssign(opec_hw::StateReader& r, SweepKind sweep);
void WriteResult(opec_hw::StateWriter& w, SweepKind sweep, const ResultMsg& m);
ResultMsg ReadResult(opec_hw::StateReader& r, SweepKind sweep);
void WriteArtifactQuery(opec_hw::StateWriter& w, const ArtifactQueryMsg& m);
ArtifactQueryMsg ReadArtifactQuery(opec_hw::StateReader& r);
void WriteArtifactInfo(opec_hw::StateWriter& w, const ArtifactInfoMsg& m);
ArtifactInfoMsg ReadArtifactInfo(opec_hw::StateReader& r);
void WriteArtifactFetch(opec_hw::StateWriter& w, const ArtifactFetchMsg& m);
ArtifactFetchMsg ReadArtifactFetch(opec_hw::StateReader& r);
void WriteArtifactChunk(opec_hw::StateWriter& w, const ArtifactChunkMsg& m);
ArtifactChunkMsg ReadArtifactChunk(opec_hw::StateReader& r);
void WriteArtifactAnnounce(opec_hw::StateWriter& w, const ArtifactAnnounceMsg& m);
ArtifactAnnounceMsg ReadArtifactAnnounce(opec_hw::StateReader& r);

// Single-struct serialization shared by AssignMsg/ResultMsg and the tests.
void WriteJobSpec(opec_hw::StateWriter& w, const opec_campaign::JobSpec& spec);
opec_campaign::JobSpec ReadJobSpec(opec_hw::StateReader& r);
void WriteJobResult(opec_hw::StateWriter& w, const opec_campaign::JobResult& result);
opec_campaign::JobResult ReadJobResult(opec_hw::StateReader& r);
void WriteCaseResult(opec_hw::StateWriter& w, const opec_fuzz::CaseResult& result);
opec_fuzz::CaseResult ReadCaseResult(opec_hw::StateReader& r);

// Compiled-module artifact payload: a lowered bytecode module together with
// the cost model baked into it (VM::AdoptBytecode refuses a model mismatch).
void WriteBytecodeArtifact(opec_hw::StateWriter& w,
                           const opec_rt::bytecode::BytecodeModule& bc,
                           const opec_rt::CostModel& costs);
bool ReadBytecodeArtifact(opec_hw::StateReader& r, opec_rt::bytecode::BytecodeModule* bc,
                          opec_rt::CostModel* costs);

// Helper: encode a payload-writing closure into a Frame.
template <typename Fn>
Frame MakeFrame(FrameType type, Fn&& fill) {
  opec_hw::StateWriter w;
  fill(w);
  Frame f;
  f.type = type;
  f.payload = w.Take();
  return f;
}

inline Frame MakeFrame(FrameType type) {
  Frame f;
  f.type = type;
  return f;
}

}  // namespace opec_dist

#endif  // SRC_DIST_WIRE_H_
