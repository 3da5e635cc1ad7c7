#include "src/snapshot/snapshot.h"

#include <cstdio>
#include <cstring>

#include "src/hw/machine.h"
#include "src/monitor/monitor.h"
#include "src/rt/engine.h"
#include "src/support/check.h"

namespace opec_snapshot {

using opec_hw::StateReader;
using opec_hw::StateWriter;

// --- SnapshotDelta ---

size_t SnapshotDelta::PayloadBytes() const {
  size_t n = 0;
  for (const Patch& p : patches) {
    n += p.bytes.size();
  }
  return n;
}

std::vector<uint8_t> SnapshotDelta::Serialize() const {
  StateWriter w;
  w.U64(base_digest);
  w.U64(target_size);
  w.U64(target_digest);
  w.U64(patches.size());
  for (const Patch& p : patches) {
    w.U64(p.offset);
    w.Blob(p.bytes);
  }
  return w.Take();
}

SnapshotDelta SnapshotDelta::Deserialize(const std::vector<uint8_t>& bytes) {
  StateReader r(bytes);
  SnapshotDelta d;
  d.base_digest = r.U64();
  d.target_size = r.U64();
  d.target_digest = r.U64();
  uint64_t n = r.Count(8 + 8);  // offset + blob length prefix
  d.patches.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Patch p;
    p.offset = r.U64();
    p.bytes = r.Blob();
    d.patches.push_back(std::move(p));
  }
  OPEC_CHECK_MSG(r.AtEnd(), "snapshot delta has trailing bytes");
  return d;
}

// --- Snapshot ---

Snapshot Snapshot::Capture(const opec_hw::Machine& machine,
                           const opec_monitor::Monitor* monitor,
                           const opec_rt::Engine* engine) {
  Snapshot s;
  {
    StateWriter w;
    machine.SaveState(w);
    s.sections_.push_back({kMachineSection, w.Take()});
  }
  if (monitor != nullptr) {
    StateWriter w;
    monitor->SaveState(w);
    s.sections_.push_back({kMonitorSection, w.Take()});
  }
  if (engine != nullptr) {
    StateWriter w;
    engine->SaveState(w);
    s.sections_.push_back({kEngineSection, w.Take()});
  }
  return s;
}

void Snapshot::Restore(opec_hw::Machine& machine, opec_monitor::Monitor* monitor,
                       opec_rt::Engine* engine) const {
  const Section* m = Find(kMachineSection);
  OPEC_CHECK_MSG(m != nullptr, "snapshot has no machine section");
  {
    StateReader r(m->payload);
    machine.LoadState(r);
    OPEC_CHECK_MSG(r.AtEnd(), "machine section has trailing bytes");
  }
  if (monitor != nullptr) {
    const Section* sec = Find(kMonitorSection);
    OPEC_CHECK_MSG(sec != nullptr,
                   "restore target has a monitor but the snapshot captured none");
    StateReader r(sec->payload);
    monitor->LoadState(r);
    OPEC_CHECK_MSG(r.AtEnd(), "monitor section has trailing bytes");
  }
  if (engine != nullptr) {
    const Section* sec = Find(kEngineSection);
    OPEC_CHECK_MSG(sec != nullptr,
                   "restore target has an engine but the snapshot captured none");
    StateReader r(sec->payload);
    engine->LoadState(r);
    OPEC_CHECK_MSG(r.AtEnd(), "engine section has trailing bytes");
  }
}

void Snapshot::RestoreFast(opec_hw::Machine& machine) const {
  const Section* m = Find(kMachineSection);
  OPEC_CHECK_MSG(m != nullptr, "snapshot has no machine section");
  machine.bus().RestoreMemoryBaseline();
  StateReader r(m->payload);
  machine.LoadState(r, /*skip_memory=*/true);
  OPEC_CHECK_MSG(r.AtEnd(), "machine section has trailing bytes");
}

bool Snapshot::HasSection(const std::string& name) const { return Find(name) != nullptr; }

const Snapshot::Section* Snapshot::Find(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<uint8_t> Snapshot::Serialize() const {
  StateWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.U64(sections_.size());
  for (const Section& s : sections_) {
    w.Str(s.name);
    w.Blob(s.payload);
  }
  return w.Take();
}

Snapshot Snapshot::Deserialize(const uint8_t* data, size_t size) {
  StateReader r(data, size);
  OPEC_CHECK_MSG(r.U32() == kMagic, "not a snapshot (bad magic)");
  uint32_t version = r.U32();
  OPEC_CHECK_MSG(version == kVersion,
                 "unsupported snapshot version " + std::to_string(version) + " (expected " +
                     std::to_string(kVersion) + ")");
  Snapshot s;
  uint64_t n = r.Count(8 + 8);  // name + payload length prefixes
  s.sections_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Section sec;
    sec.name = r.Str();
    sec.payload = r.Blob();
    s.sections_.push_back(std::move(sec));
  }
  OPEC_CHECK_MSG(r.AtEnd(), "snapshot has trailing bytes");
  return s;
}

uint64_t Snapshot::Digest() const {
  std::vector<uint8_t> bytes = Serialize();
  return opec_hw::Fnv1a64(bytes.data(), bytes.size());
}

SnapshotDelta Snapshot::DeltaFrom(const Snapshot& base) const {
  std::vector<uint8_t> from = base.Serialize();
  std::vector<uint8_t> to = Serialize();

  SnapshotDelta d;
  d.base_digest = opec_hw::Fnv1a64(from.data(), from.size());
  d.target_size = to.size();
  d.target_digest = opec_hw::Fnv1a64(to.data(), to.size());

  // Chunk-by-chunk compare over the common prefix; everything past the base's
  // end (when the target grew) is one final patch. Adjacent differing chunks
  // coalesce into a single patch.
  size_t common = std::min(from.size(), to.size());
  size_t i = 0;
  while (i < common) {
    size_t len = std::min<size_t>(SnapshotDelta::kChunk, common - i);
    if (std::memcmp(from.data() + i, to.data() + i, len) != 0) {
      size_t start = i;
      while (i < common) {
        size_t l = std::min<size_t>(SnapshotDelta::kChunk, common - i);
        if (std::memcmp(from.data() + i, to.data() + i, l) == 0) {
          break;
        }
        i += l;
      }
      d.patches.push_back({start, {to.begin() + static_cast<ptrdiff_t>(start),
                                   to.begin() + static_cast<ptrdiff_t>(i)}});
    } else {
      i += len;
    }
  }
  if (to.size() > common) {
    d.patches.push_back(
        {common, {to.begin() + static_cast<ptrdiff_t>(common), to.end()}});
  }
  return d;
}

Snapshot Snapshot::ApplyDelta(const Snapshot& base, const SnapshotDelta& delta) {
  std::vector<uint8_t> bytes = base.Serialize();
  OPEC_CHECK_MSG(opec_hw::Fnv1a64(bytes.data(), bytes.size()) == delta.base_digest,
                 "snapshot delta applied to the wrong baseline");
  // Bytes past the base's end only ever come from patches, so a larger
  // target size is corrupt — and must not drive the resize below.
  OPEC_CHECK_MSG(delta.target_size <= bytes.size() + delta.PayloadBytes(),
                 "snapshot delta target size out of range");
  bytes.resize(delta.target_size);
  for (const SnapshotDelta::Patch& p : delta.patches) {
    OPEC_CHECK_MSG(p.offset <= bytes.size() && p.bytes.size() <= bytes.size() - p.offset,
                   "snapshot delta patch out of range");
    std::memcpy(bytes.data() + p.offset, p.bytes.data(), p.bytes.size());
  }
  OPEC_CHECK_MSG(opec_hw::Fnv1a64(bytes.data(), bytes.size()) == delta.target_digest,
                 "snapshot delta reconstruction digest mismatch");
  return Deserialize(bytes);
}

void Snapshot::WriteFile(const std::string& path) const {
  std::vector<uint8_t> bytes = Serialize();
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  OPEC_CHECK_MSG(f != nullptr, "cannot open snapshot file for writing: " + tmp);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_err = std::fclose(f);
  OPEC_CHECK_MSG(written == bytes.size() && close_err == 0,
                 "short write to snapshot file: " + tmp);
  OPEC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "cannot rename snapshot file into place: " + path);
}

Snapshot Snapshot::ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  OPEC_CHECK_MSG(f != nullptr, "cannot open snapshot file: " + path);
  std::vector<uint8_t> bytes;
  uint8_t buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return Deserialize(bytes);
}

}  // namespace opec_snapshot
