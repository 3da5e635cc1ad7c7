// The CLI error contract (src/support/options.h), table-driven.
//
// Every front end parses through one OptionTable, so one set of rules holds
// everywhere: `--flag value` and `--flag=value` both work; numbers parse
// strictly over the full string (no junk, sign, whitespace or overflow) and
// within bounds; a missing value, an unknown flag or a bad enum choice is a
// usage error with a one-line reason. The last table runs the real binaries:
// each rejected case must exit 2 with its reason on stderr, including the
// `campaign` executor combinations that cannot mean one thing and
// `host_speed --baseline` on an unusable file (which used to abort with 134
// after measuring everything).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/support/options.h"

namespace opec_support {
namespace {

struct CountCase {
  const char* input;
  long min;
  long max;
  bool ok;
  int value;
};

TEST(CliContract, ParseCount) {
  const CountCase cases[] = {
      {"1", 1, 1024, true, 1},
      {"1024", 1, 1024, true, 1024},
      {"42", 1, 1024, true, 42},
      {"0", 0, 5, true, 0},
      {"abc", 1, 1024, false, 0},   // atoi: 0
      {"12x", 1, 1024, false, 0},   // atoi: 12 (trailing junk)
      {"", 1, 1024, false, 0},      // atoi: 0
      {" 4", 1, 1024, false, 0},    // leading whitespace
      {"4 ", 1, 1024, false, 0},    // trailing whitespace
      {"+4", 1, 1024, false, 0},    // sign
      {nullptr, 1, 1024, false, 0},
      {"0", 1, 1024, false, 0},
      {"-3", 1, 1024, false, 0},
      {"1025", 1, 1024, false, 0},
      {"99999999999999999999", 1, 1024, false, 0},  // > LONG_MAX
  };
  for (const CountCase& c : cases) {
    int v = -7;
    SCOPED_TRACE(c.input == nullptr ? "(null)" : c.input);
    EXPECT_EQ(ParseCount(c.input, c.min, c.max, &v), c.ok);
    EXPECT_EQ(v, c.ok ? c.value : -7);  // out-param untouched on failure
  }
}

TEST(CliContract, ParseU64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ull);
  for (const char* bad : {"18446744073709551616", "-1", "1-2", " 1", "", "0x10", "7s"}) {
    EXPECT_FALSE(ParseU64(bad, &v)) << bad;
  }
}

struct ParseCase {
  std::vector<std::string> args;
  const char* error;  // "" = accepted
};

TEST(CliContract, OptionTable) {
  const ParseCase cases[] = {
      {{}, ""},
      {{"--jobs", "4", "--seed", "9", "--out", "x.json", "--mode", "opec", "--smoke"}, ""},
      {{"--jobs=4", "--seed=9", "--out=x.json", "--mode=opec", "--smoke"}, ""},
      {{"--jobs"}, "missing value for --jobs"},
      {{"--seed"}, "missing value for --seed"},
      {{"--jobs", "abc"}, "invalid --jobs 'abc'; expected an integer in [1, 1024]"},
      {{"--jobs=-3"}, "invalid --jobs '-3'"},
      {{"--jobs", "99999999999999999999"}, "invalid --jobs '99999999999999999999'"},
      {{"--jobs", "0"}, "invalid --jobs '0'; expected an integer in [1, 1024]"},
      {{"--jobs", "1025"}, "invalid --jobs '1025'"},
      {{"--seed", "12x"}, "invalid --seed '12x'; expected an unsigned 64-bit integer"},
      {{"--seed", "18446744073709551616"}, "invalid --seed"},
      {{"--out="}, "invalid --out: expected a non-empty value"},
      {{"--mode", "junk"}, "invalid --mode 'junk'; expected one of: opec vanilla"},
      {{"--smoke=1"}, "--smoke takes no value"},
      {{"--bogus"}, "unknown flag '--bogus'"},
      {{"--bogus=1"}, "unknown flag '--bogus'"},
      {{"stray"}, "unexpected argument 'stray'"},
  };
  for (const ParseCase& c : cases) {
    int jobs = 1;
    uint64_t seed = 1;
    std::string out = "default.json";
    std::string mode = "vanilla";
    bool smoke = false;
    OptionTable options("tool");
    options.Count("jobs", &jobs, 1, 1024, "threads")
        .U64("seed", &seed, "seed")
        .String("out", &out, "output")
        .Enum("mode", &mode, {"opec", "vanilla"}, "mode")
        .Bool("smoke", &smoke, "smoke");
    std::string args;
    for (const std::string& a : c.args) {
      args += " " + a;
    }
    SCOPED_TRACE(args);
    std::string err = options.TryParse(c.args);
    if (*c.error == '\0') {
      EXPECT_EQ(err, "");
      EXPECT_EQ(options.Seen("jobs"), !c.args.empty());
      if (!c.args.empty()) {
        EXPECT_EQ(jobs, 4);
        EXPECT_EQ(seed, 9u);
        EXPECT_EQ(out, "x.json");
        EXPECT_EQ(mode, "opec");
        EXPECT_TRUE(smoke);
      }
    } else {
      EXPECT_NE(err.find(c.error), std::string::npos) << err;
    }
  }
}

TEST(CliContract, UsageListsEveryFlag) {
  int jobs = 1;
  std::string mode = "a";
  bool flag = false;
  OptionTable options("tool");
  options.Count("jobs", &jobs, 1, 8, "threads").Enum("mode", &mode, {"a", "b"}, "mode").Bool(
      "flag", &flag, "a flag");
  std::string usage = options.Usage();
  EXPECT_EQ(usage.rfind("usage: tool", 0), 0u) << usage;
  for (const char* head : {"--jobs N", "--mode a|b", "--flag"}) {
    EXPECT_NE(usage.find(head), std::string::npos) << head;
  }
}

// ---------------------------------------------------------------------------
// The binaries themselves.

struct CliCase {
  const char* binary;
  const char* args;
  int status;
  const char* output;  // expected substring of stdout+stderr
};

std::string RunMerged(const std::string& command, int* status) {
  std::string out;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *status = -1;
    return out;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  int raw = ::pclose(pipe);
  *status = WIFEXITED(raw) ? WEXITSTATUS(raw) : 128 + WTERMSIG(raw);
  return out;
}

TEST(CliContract, BinariesRejectWithReason) {
  std::string empty_baseline = ::testing::TempDir() + "/empty_baseline.json";
  std::ofstream(empty_baseline).flush();
  std::string empty_arg = "--baseline " + empty_baseline;
  const CliCase cases[] = {
      // campaign: one executor, and no flag its sweep or role cannot use.
      {CAMPAIGN_BIN, "--jobs 2 --workers 2", 2, "choose one executor"},
      {CAMPAIGN_BIN, "--workers 2 --serve --listen 47399", 2, "choose one executor"},
      {CAMPAIGN_BIN, "--serve --listen 47399 --worker --connect 127.0.0.1:47399", 2,
       "choose one executor"},
      {CAMPAIGN_BIN, "--workers 2 --figures", 2,
       "--figures runs only on the in-process executor"},
      {CAMPAIGN_BIN, "--workers 2 --traffic rate=1000,conns=1,seed=1", 2,
       "--traffic runs only on the in-process executor"},
      {CAMPAIGN_BIN, "--serve --listen 47399 --fuzz-count 0 --traffic-count 5", 2,
       "--traffic-count runs only on the in-process executor"},
      {CAMPAIGN_BIN, "--worker --connect 127.0.0.1:47399 --apps PinLock", 2,
       "--apps is a sweep flag; a --worker takes its sweep from the server"},
      {CAMPAIGN_BIN, "--worker --connect 127.0.0.1:47399 --fuzz-count 3", 2,
       "--fuzz-count is a sweep flag"},
      {CAMPAIGN_BIN, "--worker --connect 127.0.0.1:47399 --lease-ms 10", 2,
       "--lease-ms is a sweep flag"},
      {CAMPAIGN_BIN, "--serve", 2, "--serve and --listen PORT go together"},
      {CAMPAIGN_BIN, "--fuzz-count 5 --fault-sweep 3", 2, "--fault-sweep is a job-sweep flag"},
      {CAMPAIGN_BIN, "--shrink", 2, "--shrink needs a fuzz sweep"},
      {CAMPAIGN_BIN, "--lease-ms 5", 2, "--lease-ms needs a fleet executor"},
      {CAMPAIGN_BIN, "--serve --listen 47399 --chaos-kill-after 5", 2,
       "--chaos-kill-after needs --workers"},
      {CAMPAIGN_BIN, "--workers 2 --reconnect 3", 2, "--reconnect needs --worker"},
      {CAMPAIGN_BIN, "--workers 2 --unit-size 0", 2, "invalid --unit-size '0'"},
      {CAMPAIGN_BIN, "--workers 2 --allow 10.0.0.0/33", 2, "invalid --allow"},
      // campaign: the option-table rules.
      {CAMPAIGN_BIN, "--modes junk", 2,
       "invalid --modes 'junk'; expected one of: opec vanilla both"},
      {CAMPAIGN_BIN, "--fault-class junk", 2,
       "invalid --fault-class 'junk'; expected one of: any stack-bit-flip shadow-bit-flip "
       "svc-arg icall-forge"},
      {CAMPAIGN_BIN, "--bogus", 2, "unknown flag '--bogus'"},
      {CAMPAIGN_BIN, "--jobs", 2, "missing value for --jobs"},
      {CAMPAIGN_BIN, "--jobs=abc", 2, "invalid --jobs 'abc'"},
      {CAMPAIGN_BIN, "--seed -1", 2, "invalid --seed '-1'"},
      {CAMPAIGN_BIN, "--fuzz-count 99999999999999999999", 2, "invalid --fuzz-count"},
      {CAMPAIGN_BIN, "--deterministic=yes", 2, "--deterministic takes no value"},
      {CAMPAIGN_BIN, "--fuzz-count=0", 0, "fuzz: 0 cases, 0 diverging, 0 divergences"},
      {CAMPAIGN_BIN, "--fuzz-count 0 --fuzz-seed=3", 0, "fuzz: 0 cases"},
      // The other front ends share the contract.
      {HOST_SPEED_BIN, "--smoke --baseline /nonexistent/baseline.json", 2,
       "host_speed: unusable --baseline: cannot open /nonexistent/baseline.json"},
      {HOST_SPEED_BIN, "--iters 0", 2, "invalid --iters '0'"},
      {RUNNER_BIN, "--mode junk", 2, "invalid --mode 'junk'; expected one of: opec vanilla"},
      {RUNNER_BIN, "--app", 2, "missing value for --app"},
      {FIGURE9_LOAD_BIN, "--engine=junk", 2, "expected one of: interp bytecode both"},
      {WARM_START_BIN, "--iters=abc", 2, "invalid --iters 'abc'"},
  };
  for (const CliCase& c : cases) {
    std::string command = std::string(c.binary) + " " + c.args;
    SCOPED_TRACE(command);
    int status = 0;
    std::string output = RunMerged(command, &status);
    EXPECT_EQ(status, c.status) << output;
    EXPECT_NE(output.find(c.output), std::string::npos) << output;
  }

  // An empty baseline is rejected up front too: no unit is measured.
  int status = 0;
  std::string output = RunMerged(std::string(HOST_SPEED_BIN) + " --smoke " + empty_arg, &status);
  EXPECT_EQ(status, 2) << output;
  EXPECT_NE(output.find("unusable --baseline: no metrics in"), std::string::npos) << output;
  EXPECT_EQ(output.find(" wall "), std::string::npos) << output;
}

}  // namespace
}  // namespace opec_support
