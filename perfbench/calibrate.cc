// The host-speed calibrator (see calibration.h and README.md, "Host-speed
// normalization").
//
// A separate program so that it shares neither heap nor allocator nor any
// code with the harness: a change to the harness, its allocation pattern or a
// replacement operator new cannot change how fast this kernel runs. The
// benchmark starts it once and talks to it over its standard streams: for
// every byte read from stdin it runs the kernel once and writes the kernel's
// host time in ns as one native-endian uint64 to stdout. It exits on EOF.
//
// The kernel is ordered-map inserts and lookups plus small heap allocations:
// pointer-chasing host work like the harness's IR, layout and bus maps. Over
// 200 s traces of firmware_build and echo_load ops, its speed tracked theirs
// far better (residual spread 0.02-0.05) than a switch-dispatch loop
// (0.09-0.11) or a memory copy (0.12).

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Runs the calibration kernel once; returns its host time in ns.
uint64_t KernelNs() {
  static volatile uint64_t sink = 0;
  uint64_t t0 = NowNs();
  uint64_t s = 0x9E3779B97F4A7C15ull;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  uint64_t acc = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::map<uint32_t, uint32_t> table;
    for (uint32_t i = 0; i < 2000; ++i) {
      table[static_cast<uint32_t>(next() & 0xFFFF)] = i;
    }
    for (int i = 0; i < 2000; ++i) {
      auto it = table.find(static_cast<uint32_t>(next() & 0xFFFF));
      acc += it == table.end() ? 1 : it->second;
    }
    std::vector<std::unique_ptr<std::string>> objects;
    for (int i = 0; i < 2000; ++i) {
      objects.push_back(
          std::make_unique<std::string>(16 + next() % 48, static_cast<char>('a' + i % 26)));
      acc += objects.back()->size();
    }
  }
  sink = sink + acc;
  return NowNs() - t0;
}

bool WriteAll(const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t n = write(STDOUT_FILENO, p, size);
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

int main() {
  char request;
  while (read(STDIN_FILENO, &request, 1) == 1) {
    uint64_t ns = KernelNs();
    if (!WriteAll(&ns, sizeof(ns))) {
      return 1;
    }
  }
  return 0;
}
