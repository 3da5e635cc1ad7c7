#include "src/dist/worker.h"

#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <tuple>
#include <utility>

#include "src/apps/all_apps.h"
#include "src/apps/runner.h"
#include "src/campaign/campaign.h"
#include "src/dist/cache.h"
#include "src/fuzz/oracles.h"
#include "src/rt/bytecode/vm.h"
#include "src/snapshot/snapshot.h"
#include "src/support/check.h"
#include "src/support/fs.h"

namespace opec_dist {

namespace {

const char* ModeKey(opec_apps::BuildMode mode) {
  return mode == opec_apps::BuildMode::kOpec ? "opec" : "vanilla";
}

// Synchronous artifact RPC over the worker's transport. The worker drives a
// strict request/response rhythm, so issuing these between work frames is
// safe; every failure is swallowed into "not available" — artifact trouble
// degrades to a cold build, it never fails a job. The transport is rebound
// per connection (Bind), so the cache/warm-pool state it feeds survives
// reconnects.
class ServerArtifacts {
 public:
  ServerArtifacts() = default;

  void Bind(Transport* t) {
    t_ = t;
    broken_ = false;
  }

  bool Query(const std::string& key, uint64_t* digest) {
    if (broken_ || t_ == nullptr) {
      return false;
    }
    Frame f = MakeFrame(FrameType::kArtifactQuery, [&](opec_hw::StateWriter& w) {
      WriteArtifactQuery(w, ArtifactQueryMsg{key});
    });
    Frame reply;
    if (!RoundTrip(f, FrameType::kArtifactInfo, &reply)) {
      return false;
    }
    try {
      opec_support::ScopedCheckThrow capture;
      opec_hw::StateReader r(reply.payload);
      ArtifactInfoMsg info = ReadArtifactInfo(r);
      if (!info.known) {
        return false;
      }
      *digest = info.digest;
      return true;
    } catch (const std::exception&) {
      broken_ = true;
      return false;
    }
  }

  // Reassembles the in-order kArtifactChunk stream the server replies with.
  bool Fetch(uint64_t digest, std::vector<uint8_t>* out) {
    if (broken_ || t_ == nullptr) {
      return false;
    }
    Frame f = MakeFrame(FrameType::kArtifactFetch, [&](opec_hw::StateWriter& w) {
      WriteArtifactFetch(w, ArtifactFetchMsg{digest});
    });
    if (t_->Send(f) != Transport::Status::kOk) {
      broken_ = true;
      return false;
    }
    Frame reply;
    if (t_->Recv(&reply) != Transport::Status::kOk ||
        reply.type != FrameType::kArtifactChunk) {
      broken_ = true;
      return false;
    }
    try {
      opec_support::ScopedCheckThrow capture;
      std::vector<uint8_t> buf;
      for (;;) {
        opec_hw::StateReader r(reply.payload);
        ArtifactChunkMsg chunk = ReadArtifactChunk(r);
        if (chunk.total == 0) {
          return false;  // not found
        }
        if (chunk.digest != digest || chunk.offset != buf.size() ||
            chunk.offset + chunk.bytes.size() > chunk.total) {
          broken_ = true;  // out-of-order or oversized slice: protocol breach
          return false;
        }
        buf.insert(buf.end(), chunk.bytes.begin(), chunk.bytes.end());
        if (buf.size() == chunk.total) {
          break;
        }
        if (t_->Recv(&reply) != Transport::Status::kOk ||
            reply.type != FrameType::kArtifactChunk) {
          broken_ = true;
          return false;
        }
      }
      *out = std::move(buf);
      return true;
    } catch (const std::exception&) {
      broken_ = true;
      return false;
    }
  }

  void Announce(const std::string& key, uint64_t digest,
                const std::vector<uint8_t>& bytes) {
    if (broken_ || t_ == nullptr) {
      return;
    }
    ArtifactAnnounceMsg msg;
    msg.key = key;
    msg.digest = digest;
    msg.with_bytes = true;
    msg.bytes = bytes;
    Frame f = MakeFrame(FrameType::kArtifactAnnounce, [&](opec_hw::StateWriter& w) {
      WriteArtifactAnnounce(w, msg);
    });
    if (t_->Send(f) != Transport::Status::kOk) {
      broken_ = true;
    }
  }

 private:
  bool RoundTrip(const Frame& request, FrameType expect, Frame* reply) {
    if (t_->Send(request) != Transport::Status::kOk) {
      broken_ = true;
      return false;
    }
    if (t_->Recv(reply) != Transport::Status::kOk || reply->type != expect) {
      broken_ = true;
      return false;
    }
    return true;
  }

  Transport* t_ = nullptr;
  bool broken_ = false;
};

// The worker's warm-start pool: one booted AppRun per (app, mode, engine),
// artifact-cache-backed. Mirrors the executor's thread-local WarmRun but
// resolves the post-boot snapshot and the lowered bytecode module through
// the local cache / the server before paying for a cold build. RestoreBoot
// keeps the lowered module, so warm jobs never re-lower.
class DistWarmPool {
 public:
  DistWarmPool(ServerArtifacts& server, ArtifactCache& cache)
      : server_(server), cache_(cache) {}

  opec_apps::AppRun* Get(const opec_apps::AppFactory& factory, opec_apps::BuildMode mode,
                         opec_apps::EngineKind engine) {
    auto key = std::make_tuple(factory.name, static_cast<int>(mode),
                               static_cast<int>(engine));
    auto it = pool_.find(key);
    if (it != pool_.end()) {
      it->second.run->RestoreBoot();
      return it->second.run.get();
    }

    Entry e;
    e.app = factory.make();
    e.run = std::make_unique<opec_apps::AppRun>(*e.app, mode, engine);
    ProvideBootSnapshot(e, factory.name, mode);
    if (engine == opec_apps::EngineKind::kBytecode) {
      ProvideBytecode(e, factory.name, mode);
    }
    it = pool_.emplace(std::move(key), std::move(e)).first;
    return it->second.run.get();
  }

  CacheCounters Counters() const {
    const ArtifactCache::Stats& s = cache_.stats();
    return CacheCounters{s.hits, s.misses, s.evictions, s.digest_mismatches};
  }

 private:
  struct Entry {
    std::unique_ptr<opec_apps::Application> app;
    std::unique_ptr<opec_apps::AppRun> run;
  };

  // Local cache first, then the server (caching what it returns).
  bool Obtain(uint64_t digest, std::vector<uint8_t>* bytes) {
    if (cache_.Get(digest, bytes)) {
      return true;
    }
    if (!server_.Fetch(digest, bytes)) {
      return false;
    }
    if (opec_hw::Fnv1a64(bytes->data(), bytes->size()) != digest) {
      return false;  // server sent bytes that don't match their address
    }
    cache_.Put(*bytes);
    return true;
  }

  // Key resolution order: the server's registry (fresh digests announced
  // this sweep), then the local cache's refs (a warm --cache-dir surviving
  // from an earlier run, which a fresh server knows nothing about).
  // `server_knew` lets callers skip the bytes re-upload when the server
  // already holds the mapping.
  bool ResolveKey(const std::string& key, uint64_t* digest, bool* server_knew) {
    if (server_.Query(key, digest)) {
      *server_knew = true;
      return true;
    }
    *server_knew = false;
    return cache_.GetRef(key, digest);
  }

  void ProvideBootSnapshot(Entry& e, const std::string& app_name,
                           opec_apps::BuildMode mode) {
    std::string key = "boot/" + app_name + "/" + ModeKey(mode);
    uint64_t digest = 0;
    bool server_knew = false;
    if (ResolveKey(key, &digest, &server_knew)) {
      std::vector<uint8_t> bytes;
      if (Obtain(digest, &bytes)) {
        try {
          opec_support::ScopedCheckThrow capture;
          e.run->AdoptBootSnapshot(opec_snapshot::Snapshot::Deserialize(bytes));
          cache_.PutRef(key, digest);
          if (!server_knew) {
            server_.Announce(key, digest, bytes);
          }
          return;
        } catch (const std::exception&) {
          // Provenance or decode rejection: fall through to the cold capture.
        }
      }
    }
    e.run->CaptureBoot();
    std::vector<uint8_t> bytes = e.run->boot_snapshot().Serialize();
    uint64_t actual = cache_.Put(bytes);
    cache_.PutRef(key, actual);
    server_.Announce(key, actual, bytes);
  }

  void ProvideBytecode(Entry& e, const std::string& app_name, opec_apps::BuildMode mode) {
    auto* vm = dynamic_cast<opec_rt::bytecode::VM*>(&e.run->engine());
    if (vm == nullptr) {
      return;
    }
    std::string key = std::string("bcmod/") + app_name + "/" + ModeKey(mode);
    uint64_t digest = 0;
    bool server_knew = false;
    if (ResolveKey(key, &digest, &server_knew)) {
      std::vector<uint8_t> bytes;
      if (Obtain(digest, &bytes)) {
        try {
          opec_support::ScopedCheckThrow capture;
          opec_hw::StateReader r(bytes);
          opec_rt::bytecode::BytecodeModule bc;
          opec_rt::CostModel costs;
          if (ReadBytecodeArtifact(r, &bc, &costs) &&
              vm->AdoptBytecode(std::move(bc), costs)) {
            cache_.PutRef(key, digest);
            if (!server_knew) {
              server_.Announce(key, digest, bytes);
            }
            return;
          }
        } catch (const std::exception&) {
          // Corrupt artifact; lower locally below.
        }
      }
    }
    // Lower locally (Bytecode() forces it) and publish the result.
    opec_hw::StateWriter w;
    try {
      opec_support::ScopedCheckThrow capture;
      WriteBytecodeArtifact(w, vm->Bytecode(), vm->cost_model());
    } catch (const std::exception&) {
      return;  // lowering failure surfaces when the job runs; don't publish
    }
    std::vector<uint8_t> bytes = w.Take();
    uint64_t actual = cache_.Put(bytes);
    cache_.PutRef(key, actual);
    server_.Announce(key, actual, bytes);
  }

  ServerArtifacts& server_;
  ArtifactCache& cache_;
  std::map<std::tuple<std::string, int, int>, Entry> pool_;
};

// A random 64-bit id, drawn once per worker run. Not derived from the pid:
// workers embedded as threads share one process.
uint64_t NewSessionId() {
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) ^ rd();
}

// Everything that must survive a dropped link: the session id, the artifact
// cache, the warm pool, the job runner, and the finished rows of the unit
// that was in flight when the connection died (delivered on the next
// connection, where they count as late results).
struct WorkerSession {
  explicit WorkerSession(const WorkerOptions& options)
      : session_id(NewSessionId()),
        cache(options.cache_dir, options.cache_max_bytes),
        pool(arts, cache),
        chaos_drop_after(options.chaos_drop_after) {}

  uint64_t session_id;
  ArtifactCache cache;
  ServerArtifacts arts;
  DistWarmPool pool;
  opec_campaign::JobRunner runner;
  uint64_t jobs_done = 0;
  uint64_t chaos_drop_after;  // zeroed once fired
  bool have_partial = false;
  ResultMsg partial;  // rows finished of the in-flight unit
};

enum class ConnStatus {
  kDone,      // server sent kShutdown (or die_after_jobs fired): clean exit
  kLinkLost,  // connection-level failure; redialing may recover
  kFatal,     // config/protocol failure; redialing cannot help
};

ConnStatus RunConnection(Transport& transport, const WorkerOptions& options,
                         WorkerSession& s, std::string* error) {
  // Close on every exit path: the server's drain phase waits for worker EOF,
  // and embeddings (threads, tests) may keep the transport object alive well
  // past the worker loop.
  struct Closer {
    Transport& t;
    ~Closer() { t.Close(); }
  } closer{transport};
  HelloMsg hello;
  hello.worker_name = options.name;
  hello.token = options.token;
  hello.session_id = s.session_id;
  if (transport.Send(MakeFrame(FrameType::kHello, [&](opec_hw::StateWriter& w) {
        WriteHello(w, hello);
      })) != Transport::Status::kOk) {
    *error = "hello failed: " + transport.error();
    return ConnStatus::kLinkLost;
  }
  Frame frame;
  if (transport.Recv(&frame) != Transport::Status::kOk ||
      frame.type != FrameType::kWelcome) {
    // An auth/allow-list refusal is a silent hangup right here —
    // indistinguishable from a crashed server, so the reconnect budget bounds
    // both.
    *error = "no welcome from server: " + transport.error();
    return ConnStatus::kLinkLost;
  }
  WelcomeMsg welcome;
  try {
    opec_support::ScopedCheckThrow capture;
    opec_hw::StateReader r(frame.payload);
    welcome = ReadWelcome(r);
  } catch (const std::exception& e) {
    *error = std::string("bad welcome frame: ") + e.what();
    return ConnStatus::kFatal;
  }
  if (!welcome.snapshot_dir.empty()) {
    std::string err = opec_support::EnsureDirs(welcome.snapshot_dir);
    if (!err.empty()) {
      *error = "campaign output directory unusable: " + err;
      return ConnStatus::kFatal;
    }
  }

  s.arts.Bind(&transport);

  opec_campaign::JobEnv env;
  env.cold_boot = welcome.cold_boot;
  env.snapshot_dir = welcome.snapshot_dir;
  if (!env.cold_boot) {
    env.warm_provider = [&s](const opec_apps::AppFactory& factory,
                             opec_apps::BuildMode mode, opec_apps::EngineKind engine) {
      return s.pool.Get(factory, mode, engine);
    };
  }

  if (s.have_partial) {
    // Deliver what we finished before the drop; the server records the rows
    // (first write wins). It requeued the unit when the link dropped, so the
    // remainder is reissued to whichever worker asks first.
    s.partial.cache = s.pool.Counters();
    if (transport.Send(MakeFrame(FrameType::kResult, [&](opec_hw::StateWriter& w) {
          WriteResult(w, welcome.sweep, s.partial);
        })) != Transport::Status::kOk) {
      *error = "partial result send failed: " + transport.error();
      return ConnStatus::kLinkLost;
    }
    s.have_partial = false;
  }

  for (;;) {
    if (transport.Send(MakeFrame(FrameType::kRequestWork)) != Transport::Status::kOk) {
      *error = "request failed: " + transport.error();
      return ConnStatus::kLinkLost;
    }
    Transport::Status st = transport.Recv(&frame);
    if (st == Transport::Status::kEof) {
      *error = "server disconnected";
      return ConnStatus::kLinkLost;
    }
    if (st == Transport::Status::kError) {
      *error = "recv failed: " + transport.error();
      return ConnStatus::kLinkLost;
    }
    switch (frame.type) {
      case FrameType::kShutdown:
        return ConnStatus::kDone;
      case FrameType::kNoWork: {
        uint32_t retry_ms = 20;
        try {
          opec_support::ScopedCheckThrow capture;
          opec_hw::StateReader r(frame.payload);
          retry_ms = ReadNoWork(r).retry_ms;
        } catch (const std::exception&) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
        break;
      }
      case FrameType::kAssign: {
        AssignMsg assign;
        try {
          opec_support::ScopedCheckThrow capture;
          opec_hw::StateReader r(frame.payload);
          assign = ReadAssign(r, welcome.sweep);
        } catch (const std::exception& e) {
          *error = std::string("bad assign frame: ") + e.what();
          return ConnStatus::kFatal;
        }
        // Accumulate rows into the session's partial result as they finish,
        // so a dropped link mid-unit loses the connection, not the work.
        s.partial = ResultMsg{};
        s.partial.unit_id = assign.unit_id;
        s.have_partial = true;
        for (size_t k = 0; k < assign.indexes.size(); ++k) {
          size_t index = static_cast<size_t>(assign.indexes[k]);
          s.partial.indexes.push_back(assign.indexes[k]);
          if (welcome.sweep == SweepKind::kCampaign) {
            s.partial.jobs.push_back(s.runner.Run(assign.jobs[k], index, env));
          } else {
            s.partial.cases.push_back(opec_fuzz::RunCase(assign.fuzz_seeds[k]));
          }
          ++s.jobs_done;
          if (options.die_after_jobs != 0 && s.jobs_done >= options.die_after_jobs) {
            // Test hook: vanish mid-unit without delivering — the server must
            // detect the EOF and re-issue this unit elsewhere.
            transport.Close();
            return ConnStatus::kDone;
          }
          if (s.chaos_drop_after != 0 && s.jobs_done >= s.chaos_drop_after) {
            // Chaos hook: sever the link mid-unit but keep the session —
            // exercises the lost-link requeue and the late delivery of a
            // real partial unit after the redial.
            s.chaos_drop_after = 0;
            transport.Close();
            *error = "chaos: link dropped mid-unit";
            return ConnStatus::kLinkLost;
          }
        }
        s.partial.cache = s.pool.Counters();
        if (transport.Send(MakeFrame(FrameType::kResult, [&](opec_hw::StateWriter& w) {
              WriteResult(w, welcome.sweep, s.partial);
            })) != Transport::Status::kOk) {
          *error = "result send failed: " + transport.error();
          return ConnStatus::kLinkLost;
        }
        s.have_partial = false;
        break;
      }
      default:
        *error = std::string("unexpected frame: ") + FrameTypeName(frame.type);
        return ConnStatus::kFatal;
    }
  }
}

}  // namespace

std::string RunWorker(Transport& transport, const WorkerOptions& options) {
  WorkerSession session(options);
  if (!session.cache.ok()) {
    transport.Close();
    return session.cache.error();
  }
  std::string error;
  ConnStatus st = RunConnection(transport, options, session, &error);
  return st == ConnStatus::kDone ? "" : error;
}

std::string RunWorkerLoop(const std::function<std::unique_ptr<Transport>()>& connect,
                          const WorkerOptions& options) {
  WorkerSession session(options);
  if (!session.cache.ok()) {
    return session.cache.error();
  }
  uint32_t attempts = 0;
  std::string error = "never connected";
  for (;;) {
    std::unique_ptr<Transport> transport = connect();
    if (transport == nullptr) {
      error = "connect failed";
    } else {
      ConnStatus st = RunConnection(*transport, options, session, &error);
      if (st == ConnStatus::kDone) {
        return "";
      }
      if (st == ConnStatus::kFatal) {
        return error;
      }
    }
    if (attempts >= options.reconnect_max) {
      return error;
    }
    ++attempts;
    std::this_thread::sleep_for(std::chrono::milliseconds(options.reconnect_delay_ms));
  }
}

}  // namespace opec_dist
