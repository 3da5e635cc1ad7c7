#include "src/dist/server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/support/check.h"
#include "src/support/fs.h"

namespace opec_dist {

namespace {

constexpr double kEwmaAlpha = 0.3;

int DeadlineMs(std::chrono::steady_clock::time_point now,
               std::chrono::steady_clock::time_point deadline) {
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
  if (ms < 0) {
    return 0;
  }
  if (ms > 60000) {
    return 60000;
  }
  return static_cast<int>(ms);
}

// Equality without an early exit on content, so a byte-by-byte probe of the
// shared token learns nothing from response timing.
bool TokenEq(const std::string& a, const std::string& b) {
  unsigned char diff = a.size() == b.size() ? 0 : 1;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    diff = static_cast<unsigned char>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

}  // namespace

std::string DistJson(const DistStats& d) {
  std::ostringstream json;
  json << "  \"dist\": {\n";
  json << "    \"workers\": " << d.workers << ",\n";
  json << "    \"workers_died\": " << d.workers_died << ",\n";
  json << "    \"units_issued\": " << d.units_issued << ",\n";
  json << "    \"units_reissued\": " << d.units_reissued << ",\n";
  json << "    \"leases_expired\": " << d.leases_expired << ",\n";
  json << "    \"queue_high_water\": " << d.queue_high_water << ",\n";
  json << "    \"reconnects\": " << d.reconnects << ",\n";
  json << "    \"peers_rejected\": " << d.peers_rejected << ",\n";
  json << "    \"late_results\": " << d.late_results << ",\n";
  json << "    \"chunks_sent\": " << d.chunks_sent << ",\n";
  json << "    \"adaptive_units\": " << (d.adaptive_units ? "true" : "false") << ",\n";
  json << "    \"unit_size_min\": " << d.unit_size_min << ",\n";
  json << "    \"unit_size_max\": " << d.unit_size_max << ",\n";
  json << "    \"max_inflight\": [";
  for (size_t i = 0; i < d.max_inflight.size(); ++i) {
    json << (i == 0 ? "" : ", ") << d.max_inflight[i];
  }
  json << "],\n";
  json << "    \"artifacts\": {\"hits\": " << d.artifact_hits
       << ", \"misses\": " << d.artifact_misses << ", \"evictions\": " << d.artifact_evictions
       << ", \"digest_mismatches\": " << d.artifact_digest_mismatches << "}\n";
  json << "  }";
  return json.str();
}

CampaignServer::CampaignServer(const opec_campaign::CampaignSpec& spec,
                               const Options& options)
    : options_(options),
      sweep_(SweepKind::kCampaign),
      campaign_seed_(spec.seed),
      cache_(options.cache_dir, options.cache_max_bytes) {
  resolved_.reserve(spec.jobs.size());
  for (size_t i = 0; i < spec.jobs.size(); ++i) {
    resolved_.push_back(opec_campaign::ResolveJobSpec(spec.jobs[i], i, spec.seed,
                                                      spec.timeout_ms,
                                                      options.default_timeout_ms,
                                                      options.trace_dir));
  }
  BuildQueue(spec.jobs.size());
  job_results_.resize(total_);
}

CampaignServer::CampaignServer(uint64_t fuzz_base_seed, uint64_t fuzz_count,
                               const Options& options)
    : options_(options),
      sweep_(SweepKind::kFuzz),
      fuzz_base_seed_(fuzz_base_seed),
      cache_(options.cache_dir, options.cache_max_bytes) {
  BuildQueue(static_cast<size_t>(fuzz_count));
  case_results_.resize(total_);
}

CampaignServer::~CampaignServer() = default;

void CampaignServer::BuildQueue(size_t total) {
  total_ = total;
  have_.assign(total_, 0);
  if (total_ > 0) {
    pending_.push_back(Span{0, total_});
  }
  stats_.queue_high_water = total_;
  stats_.adaptive_units = options_.adaptive_units;
}

void CampaignServer::AddWorker(std::unique_ptr<Transport> transport) {
  WorkerState w;
  w.transport = std::move(transport);
  workers_.push_back(std::move(w));
}

size_t CampaignServer::AliveWorkers() const {
  size_t n = 0;
  for (const WorkerState& w : workers_) {
    if (!w.dead) {
      ++n;
    }
  }
  return n;
}

size_t CampaignServer::PendingJobs() const {
  size_t n = 0;
  for (const Span& s : pending_) {
    n += s.count;
  }
  return n;
}

bool CampaignServer::UnitFullyRecorded(const Span& s) const {
  for (size_t i = s.start; i < s.start + s.count; ++i) {
    if (!have_[i]) {
      return false;
    }
  }
  return true;
}

std::string CampaignServer::SizeKey(size_t index) const {
  if (sweep_ == SweepKind::kFuzz) {
    return "fuzz";
  }
  const opec_campaign::JobSpec& spec = resolved_[index];
  return spec.app + "|" + std::to_string(static_cast<int>(spec.mode)) + "|" +
         std::to_string(static_cast<int>(spec.engine));
}

size_t CampaignServer::CarveCount(const Span& s) const {
  size_t fixed = options_.unit_size == 0 ? 1 : options_.unit_size;
  if (!options_.adaptive_units) {
    return std::min(fixed, s.count);
  }
  size_t cap = std::min(options_.max_unit_size == 0 ? size_t{1} : options_.max_unit_size,
                        s.count);
  double target_ns = static_cast<double>(options_.target_unit_ms) * 1e6;
  double acc = 0.0;
  size_t n = 0;
  while (n < cap) {
    auto it = ewma_ns_.find(SizeKey(s.start + n));
    if (it == ewma_ns_.end() || it->second <= 0.0) {
      // No sample for this job class yet: bootstrap with the fixed size so
      // the first units still parallelize.
      if (n == 0) {
        return std::min(fixed, cap);
      }
      break;
    }
    if (n > 0 && acc + it->second > target_ns) {
      break;
    }
    acc += it->second;
    ++n;
  }
  return std::max<size_t>(1, n);
}

void CampaignServer::NoteUnitSize(size_t carved) {
  uint64_t c = static_cast<uint64_t>(carved);
  if (stats_.unit_size_min == 0 || c < stats_.unit_size_min) {
    stats_.unit_size_min = c;
  }
  stats_.unit_size_max = std::max(stats_.unit_size_max, c);
}

void CampaignServer::EnqueueFrame(size_t wi, const Frame& frame) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  std::vector<uint8_t> bytes = EncodeFrame(frame);
  w.outbox_bytes += bytes.size();
  w.outbox.push_back(std::move(bytes));
  if (w.outbox_bytes > options_.outbox_max_bytes) {
    KillWorker(wi, "outbox overflow (peer not draining)");
    return;
  }
  DrainOutbox(wi);
}

void CampaignServer::DrainOutbox(size_t wi) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  while (!w.outbox.empty()) {
    const std::vector<uint8_t>& buf = w.outbox.front();
    int n = w.transport->SendSome(buf.data() + w.outbox_off, buf.size() - w.outbox_off);
    if (n < 0) {
      KillWorker(wi, w.transport->error().c_str());
      return;
    }
    if (n == 0) {
      return;  // peer's pipe is full; POLLOUT will resume the drain
    }
    w.outbox_off += static_cast<size_t>(n);
    w.outbox_bytes -= static_cast<uint64_t>(n);
    if (w.outbox_off == w.outbox.front().size()) {
      w.outbox.pop_front();
      w.outbox_off = 0;
    }
  }
}

void CampaignServer::Hangup(size_t wi) {
  WorkerState& w = workers_[wi];
  w.dead = true;
  w.transport->Close();
  w.outbox.clear();
  w.outbox_off = 0;
  w.outbox_bytes = 0;
}

void CampaignServer::KillWorker(size_t wi, const char* why) {
  WorkerState& w = workers_[wi];
  if (w.dead) {
    return;
  }
  Hangup(wi);
  if (!w.shutdown_sent) {
    ++stats_.workers_died;
    std::fprintf(stderr, "campaign: worker %zu (%s) lost: %s\n", wi,
                 w.name.empty() ? "?" : w.name.c_str(), why);
  }
  RequeueWorkerUnits(wi);
}

void CampaignServer::ReleaseLease(uint64_t unit_id) {
  auto it = leases_.find(unit_id);
  if (it == leases_.end()) {
    return;
  }
  uint64_t& inflight = workers_[it->second.worker].inflight;
  if (inflight > 0) {
    --inflight;
  }
  leases_.erase(it);
}

void CampaignServer::RequeueUnit(uint64_t unit_id, bool expired) {
  ReleaseLease(unit_id);
  auto issued_it = issued_.find(unit_id);
  if (issued_it == issued_.end()) {
    return;
  }
  Span s = issued_it->second;
  issued_.erase(issued_it);
  if (UnitFullyRecorded(s)) {
    // A late/duplicate delivery already recorded every row: the unit is done,
    // not lost — erase it silently so the stats never double-count it.
    return;
  }
  pending_.push_front(s);
  if (expired) {
    ++stats_.leases_expired;
  } else {
    ++stats_.units_reissued;
  }
  stats_.queue_high_water =
      std::max(stats_.queue_high_water, static_cast<uint64_t>(PendingJobs()));
}

void CampaignServer::RequeueWorkerUnits(size_t wi) {
  std::vector<uint64_t> requeue;
  for (const auto& [unit_id, lease] : leases_) {
    if (lease.worker == wi) {
      requeue.push_back(unit_id);
    }
  }
  // Recovery work goes to the *front* of the queue so the sweep's tail is not
  // stuck behind untouched units. Requeue in descending span order so the
  // front ends up sorted ascending — a deterministic reissue order.
  std::sort(requeue.begin(), requeue.end(), [&](uint64_t a, uint64_t b) {
    return issued_[a].start > issued_[b].start;
  });
  for (uint64_t unit_id : requeue) {
    RequeueUnit(unit_id, /*expired=*/false);
  }
  workers_[wi].inflight = 0;
}

void CampaignServer::ExpireLeases(Clock::time_point now) {
  if (options_.lease_ms == 0) {
    return;
  }
  std::vector<uint64_t> expired;
  for (const auto& [unit_id, lease] : leases_) {
    if (lease.deadline <= now) {
      expired.push_back(unit_id);
    }
  }
  std::sort(expired.begin(), expired.end(), [&](uint64_t a, uint64_t b) {
    return issued_[a].start > issued_[b].start;
  });
  for (uint64_t unit_id : expired) {
    RequeueUnit(unit_id, /*expired=*/true);
  }
}

void CampaignServer::RecordResult(size_t wi, const ResultMsg& msg) {
  WorkerState& w = workers_[wi];
  if (!w.hello_done) {
    return;
  }
  sessions_[w.session].cache = msg.cache;  // cumulative sample; latest wins

  auto lease_it = leases_.find(msg.unit_id);
  bool own_lease = lease_it != leases_.end() && lease_it->second.worker == wi;
  if (!own_lease) {
    // The lease expired or its connection was lost (the unit was requeued),
    // e.g. a reconnected worker delivering the rows it finished before its
    // link dropped: the rows still count via first-write-wins below, but the
    // delivery itself is late.
    ++stats_.late_results;
  }

  Clock::time_point now = Clock::now();
  if (own_lease && sweep_ == SweepKind::kFuzz && lease_it->second.rows > 0) {
    double elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - lease_it->second.issued_at)
            .count());
    double per_row = elapsed_ns / static_cast<double>(lease_it->second.rows);
    double& e = ewma_ns_["fuzz"];
    e = e <= 0.0 ? per_row : (1.0 - kEwmaAlpha) * e + kEwmaAlpha * per_row;
  }

  size_t rows = msg.indexes.size();
  for (size_t k = 0; k < rows; ++k) {
    size_t index = static_cast<size_t>(msg.indexes[k]);
    if (index >= total_) {
      continue;  // malformed row; drop rather than corrupt the table
    }
    if (sweep_ == SweepKind::kCampaign && k < msg.jobs.size() && msg.jobs[k].wall_ns > 0) {
      // Feed the sizing model from every executed row, duplicates included —
      // they are real observations of this job class's wall time.
      const opec_campaign::JobSpec& spec = msg.jobs[k].spec;
      std::string key = spec.app + "|" + std::to_string(static_cast<int>(spec.mode)) +
                        "|" + std::to_string(static_cast<int>(spec.engine));
      double x = static_cast<double>(msg.jobs[k].wall_ns);
      double& e = ewma_ns_[key];
      e = e <= 0.0 ? x : (1.0 - kEwmaAlpha) * e + kEwmaAlpha * x;
    }
    if (have_[index]) {
      continue;  // duplicate delivery of a re-issued unit; first write wins
    }
    if (sweep_ == SweepKind::kCampaign) {
      if (k >= msg.jobs.size()) {
        continue;
      }
      job_results_[index] = msg.jobs[k];
      job_results_[index].index = index;
    } else {
      if (k >= msg.cases.size()) {
        continue;
      }
      case_results_[index] = msg.cases[k];
    }
    have_[index] = 1;
    ++done_count_;
    if (on_progress_) {
      on_progress_(done_count_, total_);
    }
  }

  // A finished unit is retired whoever holds its lease: a late delivery may
  // complete a unit another worker still holds, whose lease is then cancelled
  // silently — nothing was lost.
  auto issued_it = issued_.find(msg.unit_id);
  if (issued_it != issued_.end() && UnitFullyRecorded(issued_it->second)) {
    ReleaseLease(msg.unit_id);
    issued_.erase(issued_it);
  }
}

bool CampaignServer::SendAssign(size_t wi, uint64_t unit_id, const Span& span) {
  AssignMsg assign;
  assign.unit_id = unit_id;
  for (size_t i = span.start; i < span.start + span.count; ++i) {
    if (have_[i]) {
      continue;
    }
    assign.indexes.push_back(i);
    if (sweep_ == SweepKind::kCampaign) {
      assign.jobs.push_back(resolved_[i]);
    } else {
      assign.fuzz_seeds.push_back(fuzz_base_seed_ + i);
    }
  }
  if (assign.indexes.empty()) {
    return false;
  }
  EnqueueFrame(wi, MakeFrame(FrameType::kAssign, [&](opec_hw::StateWriter& sw) {
                 WriteAssign(sw, sweep_, assign);
               }));
  return true;
}

void CampaignServer::HandleHello(size_t wi, const HelloMsg& hello) {
  WorkerState& w = workers_[wi];
  auto reject = [&](const char* why) {
    // Refuse before a single byte flows back: no welcome, no error frame —
    // just the hangup. (A frame would leak that a campaign server is listening.)
    ++stats_.peers_rejected;
    std::fprintf(stderr, "campaign: peer '%s' rejected: %s\n",
                 hello.worker_name.empty() ? "?" : hello.worker_name.c_str(), why);
    Hangup(wi);
  };
  if (w.hello_done) {
    KillWorker(wi, "duplicate hello");
    return;
  }
  if (hello.version != kProtocolVersion) {
    return reject("protocol version mismatch");
  }
  if (!options_.auth_token.empty() && !TokenEq(hello.token, options_.auth_token)) {
    return reject("bad auth token");
  }
  w.name = hello.worker_name;
  w.session = hello.session_id;
  w.hello_done = true;
  // A live connection presenting the same session id is stale (the worker
  // gave up on it and redialed): it takes the one lost-link path.
  for (size_t j = 0; j < workers_.size(); ++j) {
    if (j != wi && !workers_[j].dead && workers_[j].hello_done &&
        workers_[j].session == w.session) {
      KillWorker(j, "superseded by reconnect");
    }
  }
  if (sessions_.try_emplace(w.session).second) {
    ++stats_.workers;
    session_order_.push_back(w.session);
  } else {
    ++stats_.reconnects;
  }
  WelcomeMsg welcome;
  welcome.sweep = sweep_;
  welcome.cold_boot = options_.cold_boot;
  welcome.snapshot_dir = options_.snapshot_dir;
  EnqueueFrame(wi, MakeFrame(FrameType::kWelcome,
                             [&](opec_hw::StateWriter& sw) { WriteWelcome(sw, welcome); }));
  return;
}

void CampaignServer::HandleFrame(size_t wi, const Frame& frame) {
  WorkerState& w = workers_[wi];
  opec_hw::StateReader r(frame.payload);
  switch (frame.type) {
    case FrameType::kHello: {
      HandleHello(wi, ReadHello(r));
      return;
    }
    case FrameType::kRequestWork: {
      if (!w.hello_done) {
        KillWorker(wi, "work request before hello");
        return;
      }
      Clock::time_point now = Clock::now();
      // Advance the front span past rows recorded by late/duplicate
      // deliveries — re-issuing them would burn a worker on jobs that cannot
      // advance done_count_ (with a tiny --lease-ms that livelocks the sweep).
      while (!pending_.empty()) {
        Span& front = pending_.front();
        while (front.count > 0 && have_[front.start]) {
          ++front.start;
          --front.count;
        }
        if (front.count == 0) {
          pending_.pop_front();
        } else {
          break;
        }
      }
      if (!pending_.empty()) {
        Span& front = pending_.front();
        size_t take = CarveCount(front);
        Span unit{front.start, take};
        front.start += take;
        front.count -= take;
        if (front.count == 0) {
          pending_.pop_front();
        }
        uint64_t unit_id = next_unit_id_++;
        issued_[unit_id] = unit;
        Lease lease;
        lease.worker = wi;
        lease.issued_at = now;
        lease.deadline = now + std::chrono::milliseconds(options_.lease_ms);
        for (size_t i = unit.start; i < unit.start + unit.count; ++i) {
          if (!have_[i]) {
            ++lease.rows;
          }
        }
        leases_[unit_id] = lease;
        ++stats_.units_issued;
        ++w.inflight;
        Session& session = sessions_[w.session];
        session.max_inflight = std::max(session.max_inflight, w.inflight);
        NoteUnitSize(take);
        SendAssign(wi, unit_id, unit);
      } else if (Done()) {
        w.shutdown_sent = true;
        EnqueueFrame(wi, MakeFrame(FrameType::kShutdown));
      } else {
        NoWorkMsg nw;
        nw.retry_ms = options_.retry_ms;
        EnqueueFrame(wi, MakeFrame(FrameType::kNoWork,
                                   [&](opec_hw::StateWriter& sw) { WriteNoWork(sw, nw); }));
      }
      return;
    }
    case FrameType::kResult: {
      if (!w.hello_done) {
        KillWorker(wi, "result before hello");
        return;
      }
      RecordResult(wi, ReadResult(r, sweep_));
      return;
    }
    case FrameType::kArtifactQuery: {
      ArtifactQueryMsg q = ReadArtifactQuery(r);
      ArtifactInfoMsg info;
      info.key = q.key;
      auto it = artifact_keys_.find(q.key);
      if (it != artifact_keys_.end()) {
        info.known = true;
        info.digest = it->second;
      }
      EnqueueFrame(wi, MakeFrame(FrameType::kArtifactInfo, [&](opec_hw::StateWriter& sw) {
                     WriteArtifactInfo(sw, info);
                   }));
      return;
    }
    case FrameType::kArtifactFetch: {
      // Every reply is a chunk stream (a small artifact is one chunk; "not
      // found" is one empty chunk with total 0): the outbox interleaves
      // fairness at frame granularity, so one snapshot-sized reply never
      // monopolizes a link.
      ArtifactFetchMsg f = ReadArtifactFetch(r);
      std::vector<uint8_t> bytes;
      cache_.Get(f.digest, &bytes);
      uint64_t threshold =
          options_.chunk_threshold == 0 ? kDefaultChunkThreshold : options_.chunk_threshold;
      uint64_t total = bytes.size();
      uint64_t off = 0;
      do {
        ArtifactChunkMsg chunk;
        chunk.digest = f.digest;
        chunk.total = total;
        chunk.offset = off;
        uint64_t end = std::min(off + threshold, total);
        chunk.bytes.assign(bytes.begin() + static_cast<ptrdiff_t>(off),
                           bytes.begin() + static_cast<ptrdiff_t>(end));
        EnqueueFrame(wi, MakeFrame(FrameType::kArtifactChunk, [&](opec_hw::StateWriter& sw) {
                       WriteArtifactChunk(sw, chunk);
                     }));
        ++stats_.chunks_sent;
        off = end;
      } while (off < total && !workers_[wi].dead);
      return;
    }
    case FrameType::kArtifactAnnounce: {
      ArtifactAnnounceMsg a = ReadArtifactAnnounce(r);
      if (a.with_bytes) {
        uint64_t actual = cache_.Put(a.bytes);
        if (actual != a.digest) {
          // Announced digest does not match the content: refuse to register
          // the key (the bytes are cached under their true digest, harmless).
          ++stats_.artifact_digest_mismatches;
          return;
        }
      }
      // First announcement wins: every worker derives the artifact from the
      // same deterministic build, so later digests must agree; a disagreement
      // is recorded and the original mapping kept.
      auto it = artifact_keys_.find(a.key);
      if (it == artifact_keys_.end()) {
        artifact_keys_[a.key] = a.digest;
      } else if (it->second != a.digest) {
        ++stats_.artifact_digest_mismatches;
      }
      return;
    }
    case FrameType::kWelcome:
    case FrameType::kAssign:
    case FrameType::kNoWork:
    case FrameType::kShutdown:
    case FrameType::kArtifactInfo:
    case FrameType::kArtifactChunk:
      break;
  }
  KillWorker(wi, "unexpected frame from worker");
}

std::string CampaignServer::Serve() {
  // On an early bail-out, hang up on every connected worker: self-hosted
  // children block in Recv waiting for kWelcome, and the parent waitpid()s
  // them — without the EOF they would deadlock against each other.
  auto fail = [&](std::string err) {
    for (size_t i = 0; i < workers_.size(); ++i) {
      Hangup(i);
    }
    return err;
  };
  for (const std::string& dir : {options_.snapshot_dir, options_.trace_dir}) {
    if (!dir.empty()) {
      std::string err = opec_support::EnsureDirs(dir);
      if (!err.empty()) {
        return fail("campaign output directory unusable: " + err);
      }
    }
  }
  if (!cache_.ok()) {
    return fail(cache_.error());
  }

  // Pumps every complete frame out of one connection's receive buffer.
  auto pump = [&](size_t wi) {
    while (!workers_[wi].dead) {
      Frame frame;
      bool got = false;
      Transport::Status st = workers_[wi].transport->RecvAsync(&frame, &got);
      if (st == Transport::Status::kEof) {
        KillWorker(wi, "disconnected");
        return;
      }
      if (st == Transport::Status::kError) {
        KillWorker(wi, workers_[wi].transport->error().c_str());
        return;
      }
      if (!got) {
        return;
      }
      try {
        opec_support::ScopedCheckThrow capture;
        HandleFrame(wi, frame);
      } catch (const std::exception& e) {
        KillWorker(wi, e.what());
      }
    }
  };

  // One loop, two phases. Once every index is recorded the server stops
  // accepting and expiring, sends every worker kShutdown, and keeps pumping
  // until they hang up or drain_ms runs out: workers mid-duplicate-unit still
  // deliver a kResult + kRequestWork pair (answered with kShutdown, since the
  // sweep is Done()), and the shutdown frames ride the outboxes.
  bool draining = false;
  Clock::time_point drain_deadline;
  for (;;) {
    Clock::time_point now = Clock::now();
    if (!draining && Done()) {
      draining = true;
      drain_deadline = now + std::chrono::milliseconds(options_.drain_ms);
      for (size_t i = 0; i < workers_.size(); ++i) {
        if (!workers_[i].dead && workers_[i].hello_done) {
          workers_[i].shutdown_sent = true;
          EnqueueFrame(i, MakeFrame(FrameType::kShutdown));
        } else if (!workers_[i].dead) {
          Hangup(i);  // connected but never said hello; nothing to drain
        }
      }
    }
    if (draining) {
      if (AliveWorkers() == 0 || now >= drain_deadline) {
        break;
      }
    } else {
      if (AliveWorkers() == 0 && listen_fd_ < 0) {
        return "all workers disconnected with " + std::to_string(total_ - done_count_) +
               " jobs incomplete";
      }
      ExpireLeases(now);
    }

    std::vector<pollfd> fds;
    std::vector<size_t> fd_worker;
    if (listen_fd_ >= 0 && !draining) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_worker.push_back(static_cast<size_t>(-1));
    }
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].dead) {
        short events = POLLIN;
        if (!workers_[i].outbox.empty()) {
          events = static_cast<short>(events | POLLOUT);
        }
        fds.push_back({workers_[i].transport->fd(), events, 0});
        fd_worker.push_back(i);
      }
    }

    int timeout_ms = 100;
    if (!draining && options_.lease_ms != 0 && !leases_.empty()) {
      Clock::time_point first = leases_.begin()->second.deadline;
      for (const auto& [id, lease] : leases_) {
        first = std::min(first, lease.deadline);
      }
      timeout_ms = std::min(timeout_ms, DeadlineMs(now, first) + 1);
    }
    int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (draining) {
        break;
      }
      return fail(std::string("poll: ") + std::strerror(errno));
    }
    for (size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) {
        continue;
      }
      if (fd_worker[k] == static_cast<size_t>(-1)) {
        std::string err;
        uint32_t peer_ip = 0;
        int cfd = TcpAccept(listen_fd_, &err, &peer_ip);
        if (cfd >= 0) {
          if (!CidrMatch(options_.allow, peer_ip)) {
            // Refused before a single frame is read or written.
            ++stats_.peers_rejected;
            std::fprintf(stderr, "campaign: peer %u.%u.%u.%u rejected: not allow-listed\n",
                         (peer_ip >> 24) & 0xff, (peer_ip >> 16) & 0xff,
                         (peer_ip >> 8) & 0xff, peer_ip & 0xff);
            ::close(cfd);
          } else {
            AddWorker(std::make_unique<Transport>(cfd));
          }
        }
        continue;
      }
      size_t wi = fd_worker[k];
      if (workers_[wi].dead) {
        continue;
      }
      if ((fds[k].revents & POLLOUT) != 0) {
        DrainOutbox(wi);
      }
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        pump(wi);
      }
    }
  }

  // Fold per-session counters (they survive reconnects: one entry per worker
  // session id) into the stats.
  for (uint64_t id : session_order_) {
    const Session& s = sessions_[id];
    stats_.max_inflight.push_back(s.max_inflight);
    stats_.artifact_hits += s.cache.hits;
    stats_.artifact_misses += s.cache.misses;
    stats_.artifact_evictions += s.cache.evictions;
    stats_.artifact_digest_mismatches += s.cache.digest_mismatches;
  }
  return "";
}

opec_campaign::CampaignResult CampaignServer::TakeCampaignResult() {
  opec_campaign::CampaignResult result;
  result.results = std::move(job_results_);
  result.jobs_used = static_cast<int>(stats_.workers == 0 ? 1 : stats_.workers);
  return result;
}

std::vector<opec_fuzz::CaseResult> CampaignServer::TakeFuzzResults() {
  return std::move(case_results_);
}

}  // namespace opec_dist
