// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around calls into the
// harness layers (README.md, "Traced run"). Each span has a name, host start
// and end times, the span that was open on the same thread when it began (its
// parent), the thread it ran on and the op it belongs to. Spans stay in memory
// until the run ends; WriteChromeTrace() dumps them in Chrome trace-event
// format. A null Tracer* disables recording: ScopedSpan then costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  int64_t op = -1;
  int32_t parent = -1;  // index into Tracer::spans(), -1 for a root span
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  // Opens a span on the calling thread; returns its index for End().
  int32_t Begin(const char* name, int64_t op) {
    uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    auto thread = threads_.emplace(std::this_thread::get_id(), threads_.size()).first->second;
    Span span;
    span.name = name;
    span.op = op;
    span.parent = current_;
    span.thread = static_cast<uint32_t>(thread);
    span.start_ns = now;
    spans_.push_back(std::move(span));
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }

  void End(int32_t index) {
    uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end_ns = now;
    current_ = spans_[index].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span: its duration minus the time its direct children
  // cover. Indexed like spans().
  std::vector<uint64_t> SelfNs() const {
    std::vector<uint64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].duration_ns();
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[s.parent] -= std::min(self[s.parent], s.duration_ns());
      }
    }
    return self;
  }

  // Self times in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfUsByName() const {
    std::vector<uint64_t> self = SelfNs();
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(static_cast<double>(self[i]) / 1e3);
    }
    return out;
  }

  bool WriteChromeTrace(const std::string& path, const std::string& label) const {
    std::ofstream out(path, std::ios::trunc);
    uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name << "\", \"cat\": \"" << label
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
          << ", \"ts\": " << static_cast<double>(s.start_ns - t0) / 1e3
          << ", \"dur\": " << static_cast<double>(s.duration_ns()) / 1e3
          << ", \"args\": {\"op\": " << s.op << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  // The span currently open on each thread. Thread-local, so nested spans on
  // pool threads parent correctly without coordination.
  static inline thread_local int32_t current_ = -1;
  std::mutex mu_;
  std::map<std::thread::id, size_t> threads_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
