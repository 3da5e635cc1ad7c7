// Host-speed calibration for the end-to-end metrics.
//
// The benchmark shares its host with other tenants, and the host's speed
// drifts: on the 4-core VM the first numbers come from, one fixed CoreMark op
// took anywhere from 27 to 50 ms over a minute, in phases lasting seconds.
// Raw wall-clock figures from two 25 s runs a minute apart therefore differ
// by 20-30% with no change to the program.
//
// A fixed kernel is timed every kCalibrationPeriodNs during the window. Its
// median time in each slice of the window gives the slice's host speed, and
// the end-to-end times are scaled to the speed at which the kernel takes
// kCalibrationRefNs (README.md, "Host-speed normalization"). The kernel runs
// in its own program, perfbench_calibrate (calibrate.cc), built beside the
// benchmark binary: it shares no heap, allocator or code with the harness,
// so it samples the host, not the program under test.

#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace perfbench {

inline constexpr uint64_t kCalibrationRefNs = 2'000'000;     // reference kernel time
inline constexpr uint64_t kCalibrationPeriodNs = 100'000'000;  // one sample per 100 ms
inline constexpr uint64_t kSliceNs = 2'000'000'000;            // normalization slice

// A running perfbench_calibrate process. Sample() asks it for one kernel run
// and returns the kernel's host time; the destructor closes its input and
// waits for it to exit.
class Calibrator {
 public:
  explicit Calibrator(const std::string& path) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      throw std::runtime_error("calibrator: pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    char* argv[] = {const_cast<char*>(path.c_str()), nullptr};
    char* envp[] = {nullptr};
    int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr, argv, envp);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    to_child_ = to_child[1];
    from_child_ = from_child[0];
    if (rc != 0) {
      pid_ = -1;
      Close();
      throw std::runtime_error("calibrator: cannot start " + path);
    }
    // A closed pipe surfaces as an error from write(), not as SIGPIPE.
    signal(SIGPIPE, SIG_IGN);
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;
  ~Calibrator() { Close(); }

  uint64_t Sample() {
    char request = 1;
    if (write(to_child_, &request, 1) != 1) {
      throw std::runtime_error("calibrator: write failed");
    }
    uint64_t ns = 0;
    size_t got = 0;
    while (got < sizeof(ns)) {
      ssize_t n = read(from_child_, reinterpret_cast<char*>(&ns) + got, sizeof(ns) - got);
      if (n <= 0) {
        throw std::runtime_error("calibrator: exited early");
      }
      got += static_cast<size_t>(n);
    }
    return ns;
  }

 private:
  void Close() {
    if (to_child_ >= 0) {
      close(to_child_);
      to_child_ = -1;
    }
    if (from_child_ >= 0) {
      close(from_child_);
      from_child_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

// perfbench_calibrate in the directory of the running binary.
inline std::string CalibratorPath() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  std::string self = n > 0 ? std::string(buf, static_cast<size_t>(n)) : std::string();
  size_t slash = self.rfind('/');
  return (slash == std::string::npos ? std::string(".") : self.substr(0, slash)) +
         "/perfbench_calibrate";
}

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
