#include "src/dist/fleet.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/dist/transport.h"

namespace opec_dist {

namespace {

struct Child {
  pid_t pid = -1;
  bool alive = false;
};

}  // namespace

std::string RunFleet(CampaignServer& server, const FleetOptions& options) {
  int listen_fd = -1;
  if (options.listen_port > 0) {
    std::string err;
    listen_fd = TcpListen(static_cast<uint16_t>(options.listen_port), &err);
    if (listen_fd < 0) {
      return err;
    }
    server.set_listen_fd(listen_fd);
    std::fprintf(stderr, "campaign: serving %zu jobs on port %d\n", server.total_jobs(),
                 options.listen_port);
  }

  // All pairs first, then fork: each child closes every fd except its own
  // worker end, so no child holds another channel open past its death.
  std::vector<Child> children;
  std::vector<std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>> pairs;
  for (int i = 0; i < options.workers; ++i) {
    auto pair = LocalPair();
    if (pair.first == nullptr) {
      return "socketpair failed";
    }
    pairs.push_back(std::move(pair));
  }
  std::fflush(stdout);
  std::fflush(stderr);
  for (size_t i = 0; i < pairs.size(); ++i) {
    pid_t pid = ::fork();
    if (pid < 0) {
      return std::string("fork: ") + std::strerror(errno);
    }
    if (pid == 0) {
      // Child: keep only our worker end.
      for (size_t j = 0; j < pairs.size(); ++j) {
        pairs[j].first->Close();
        if (j != i) {
          pairs[j].second->Close();
        }
      }
      if (listen_fd >= 0) {
        ::close(listen_fd);
      }
      WorkerOptions wopts;
      wopts.name = "w" + std::to_string(i);
      wopts.cache_dir = options.cache_dir;
      std::string err = RunWorker(*pairs[i].second, wopts);
      if (!err.empty()) {
        std::fprintf(stderr, "campaign: %s: %s\n", wopts.name.c_str(), err.c_str());
        std::fflush(stderr);
        ::_exit(1);
      }
      ::_exit(0);
    }
    children.push_back({pid, true});
    pairs[i].second->Close();  // parent keeps the server end
  }
  for (auto& pair : pairs) {
    server.AddWorker(std::move(pair.first));
  }

  bool chaos_fired = false;
  pid_t stopped_pid = -1;
  auto fire = [&](int after, int sig, const char* verb, size_t done, size_t total) {
    if (after <= 0 || chaos_fired || done < static_cast<size_t>(after)) {
      return;
    }
    for (const Child& c : children) {
      if (c.alive) {
        std::fprintf(stderr, "campaign: chaos: %s worker pid %d after %zu/%zu\n", verb,
                     static_cast<int>(c.pid), done, total);
        ::kill(c.pid, sig);
        chaos_fired = true;
        if (sig == SIGSTOP) {
          stopped_pid = c.pid;
        }
        return;
      }
    }
  };
  server.set_on_progress([&](size_t done, size_t total) {
    fire(options.chaos_kill_after, SIGKILL, "killing", done, total);
    fire(options.chaos_stop_after, SIGSTOP, "stopping", done, total);
    // Resume the stalled worker once the sweep is done: it delivers its stale
    // unit (a late, duplicate result — first write wins) and exits on the
    // shutdown frame, so the drain phase and waitpid() stay clean.
    if (stopped_pid >= 0 && done == total) {
      std::fprintf(stderr, "campaign: chaos: resuming worker pid %d\n",
                   static_cast<int>(stopped_pid));
      ::kill(stopped_pid, SIGCONT);
      stopped_pid = -1;
    }
  });

  std::string err = server.Serve();
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
  if (stopped_pid >= 0) {
    // Never leave a child frozen if the sweep errored out before the resume.
    ::kill(stopped_pid, SIGCONT);
  }
  for (Child& c : children) {
    int status = 0;
    ::waitpid(c.pid, &status, 0);
    c.alive = false;
  }
  return err;
}

std::string RunTcpWorker(const std::string& address, const WorkerOptions& options) {
  auto connect = [&]() -> std::unique_ptr<Transport> {
    std::string err;
    int fd = TcpConnect(address, &err);
    if (fd < 0) {
      std::fprintf(stderr, "campaign: %s\n", err.c_str());
      return nullptr;
    }
    return std::make_unique<Transport>(fd);
  };
  return RunWorkerLoop(connect, options);
}

}  // namespace opec_dist
