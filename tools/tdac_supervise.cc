// tdac_supervise — keeps a worker process (normally tdac_serve) alive
// across crashes.
//
//   tdac_supervise [--backoff-initial-ms=50] [--backoff-max-ms=2000]
//                  [--backoff-factor=2.0] [--jitter-frac=0.2] [--seed=N]
//                  [--stable-ms=5000] [--crash-loop-limit=8]
//                  [--pid-file=PATH] -- worker [args...]
//
// The worker inherits the supervisor's stdin/stdout/stderr, so a client
// holding pipes to the supervisor keeps talking to whichever worker
// generation is current — unread request bytes sit in the stdin pipe
// across a restart and are consumed by the successor. Combined with
// tdac_serve's --journal, that makes a SIGKILL'd daemon a transient
// hiccup instead of lost work (docs/serving.md).
//
// Restart policy (a small state machine):
//
//   - Clean exits pass through: worker exit 0 (clean shutdown) and 3
//     (stopped by signal) end supervision with the same code. Exiting
//     because the operator asked is not a crash.
//   - Any other exit (nonzero status or killed by a signal) is a crash:
//     the worker is relaunched after an exponential backoff with seeded
//     jitter — backoff = min(initial * factor^n, max) * (1 + jitter_frac
//     * U[0,1)) — so a stuck dependency isn't hammered and co-scheduled
//     supervisors don't restart in lockstep.
//   - A worker that stays up for --stable-ms resets the crash streak.
//   - --crash-loop-limit consecutive crashes trip the circuit breaker:
//     the supervisor gives up and exits 1 rather than burn CPU restarting
//     a worker that can never come up (bad flags, missing dataset).
//   - SIGTERM/SIGINT to the supervisor forward SIGTERM to the worker,
//     wait for it, and exit with the worker's code — polite shutdown
//     flows through, and the worker's journal compaction still runs.
//
// Exit codes: worker's own 0/3 passed through, 1 circuit breaker,
// 2 usage.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "common/string_util.h"

namespace {

volatile std::sig_atomic_t g_signalled = 0;
volatile pid_t g_child_pid = 0;

extern "C" void HandleStopSignal(int /*signum*/) {
  g_signalled = 1;
  const pid_t child = g_child_pid;
  if (child > 0) kill(child, SIGTERM);
}

void InstallStopHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupt the waitpid
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

[[noreturn]] void Usage() {
  std::cerr
      << "usage: tdac_supervise [--backoff-initial-ms=N] [--backoff-max-ms=N]\n"
         "                      [--backoff-factor=F] [--jitter-frac=F]\n"
         "                      [--seed=N] [--stable-ms=N]\n"
         "                      [--crash-loop-limit=N] [--pid-file=PATH]\n"
         "                      -- worker [args...]\n"
         "restarts the worker on crash (exponential backoff + jitter);\n"
         "worker exits 0 and 3 pass through as clean shutdowns; \n"
         "--crash-loop-limit consecutive crashes exit 1 (circuit breaker).\n";
  std::exit(2);
}

struct SuperviseOptions {
  double backoff_initial_ms = 50.0;
  double backoff_max_ms = 2000.0;
  double backoff_factor = 2.0;
  double jitter_frac = 0.2;
  uint64_t seed = 1;
  double stable_ms = 5000.0;
  int crash_loop_limit = 8;
  std::string pid_file;
};

/// Human label for how the worker ended ("exit 2" / "signal 9").
std::string DescribeWaitStatus(int wait_status) {
  if (WIFEXITED(wait_status)) {
    return "exit " + std::to_string(WEXITSTATUS(wait_status));
  }
  if (WIFSIGNALED(wait_status)) {
    return "signal " + std::to_string(WTERMSIG(wait_status));
  }
  return "status " + std::to_string(wait_status);
}

/// Publishes the *worker's* pid (the kill target for chaos tooling and
/// operators alike; the supervisor's own pid is whatever launched it).
/// Best-effort: supervision proceeds even if the write fails.
void WritePidFile(const std::string& path, pid_t pid) {
  if (path.empty()) return;
  const tdac::Status status =
      tdac::AtomicWriteFile(path, std::to_string(pid) + "\n");
  if (!status.ok()) {
    std::cerr << "tdac_supervise: pid-file write failed: " << status.message()
              << "\n";
  }
}

void RemovePidFile(const std::string& path) {
  if (path.empty()) return;
  const tdac::Status status = tdac::RemoveFile(path);
  if (!status.ok()) {
    std::cerr << "tdac_supervise: pid-file remove failed: " << status.message()
              << "\n";
  }
}

/// Backoff sleep in 10 ms slices so a stop signal cuts the wait short.
void SleepInterruptibly(double ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(ms);
  while (g_signalled == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

int main(int argc, char** argv) {
  SuperviseOptions options;
  int worker_argv_start = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      worker_argv_start = i + 1;
      break;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) Usage();
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "backoff-initial-ms") {
      tdac::ParseNumberFlag(key, value, &options.backoff_initial_ms);
    } else if (key == "backoff-max-ms") {
      tdac::ParseNumberFlag(key, value, &options.backoff_max_ms);
    } else if (key == "backoff-factor") {
      tdac::ParseNumberFlag(key, value, &options.backoff_factor);
    } else if (key == "jitter-frac") {
      tdac::ParseNumberFlag(key, value, &options.jitter_frac);
    } else if (key == "seed") {
      tdac::ParseNumberFlag(key, value, &options.seed);
    } else if (key == "stable-ms") {
      tdac::ParseNumberFlag(key, value, &options.stable_ms);
    } else if (key == "crash-loop-limit") {
      tdac::ParseNumberFlag(key, value, &options.crash_loop_limit);
    } else if (key == "pid-file") {
      options.pid_file = value;
    } else {
      Usage();
    }
  }
  if (worker_argv_start < 0 || worker_argv_start >= argc) Usage();
  if (options.backoff_initial_ms <= 0.0 || options.backoff_max_ms <= 0.0 ||
      options.backoff_factor < 1.0 || options.jitter_frac < 0.0 ||
      options.crash_loop_limit < 1) {
    Usage();
  }

  std::vector<char*> worker_argv;
  for (int i = worker_argv_start; i < argc; ++i) {
    worker_argv.push_back(argv[i]);
  }
  worker_argv.push_back(nullptr);

  InstallStopHandlers();
  tdac::Rng rng(options.seed);
  int consecutive_crashes = 0;
  double backoff_ms = options.backoff_initial_ms;

  for (;;) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "tdac_supervise: fork failed: " << std::strerror(errno)
                << "\n";
      return 1;
    }
    if (pid == 0) {
      // Child: restore default signal dispositions (the worker installs
      // its own) and become the worker, inheriting all three stdio fds.
      signal(SIGINT, SIG_DFL);
      signal(SIGTERM, SIG_DFL);
      execvp(worker_argv[0], worker_argv.data());
      std::cerr << "tdac_supervise: exec " << worker_argv[0]
                << " failed: " << std::strerror(errno) << "\n";
      _exit(127);
    }

    g_child_pid = pid;
    // A stop signal that raced the fork (handler saw g_child_pid == 0)
    // must still reach the worker.
    if (g_signalled != 0) kill(pid, SIGTERM);
    WritePidFile(options.pid_file, pid);
    const auto started = std::chrono::steady_clock::now();
    std::cerr << "tdac_supervise: worker pid " << pid << " started"
              << (consecutive_crashes > 0
                      ? " (restart " + std::to_string(consecutive_crashes) + ")"
                      : "")
              << "\n";

    int wait_status = 0;
    for (;;) {
      const pid_t waited = waitpid(pid, &wait_status, 0);
      if (waited == pid) break;
      if (waited < 0 && errno == EINTR) continue;  // handler forwarded TERM
      std::cerr << "tdac_supervise: waitpid failed: " << std::strerror(errno)
                << "\n";
      return 1;
    }
    g_child_pid = 0;
    const double uptime_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started)
            .count();

    const bool clean_exit =
        WIFEXITED(wait_status) &&
        (WEXITSTATUS(wait_status) == 0 || WEXITSTATUS(wait_status) == 3);
    if (clean_exit || g_signalled != 0) {
      // Clean shutdown (stdin EOF, `shutdown`, or our forwarded SIGTERM):
      // pass the worker's verdict through.
      RemovePidFile(options.pid_file);
      const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status)
                                              : 128 + WTERMSIG(wait_status);
      std::cerr << "tdac_supervise: worker " << DescribeWaitStatus(wait_status)
                << " after " << static_cast<long>(uptime_ms)
                << " ms; supervision ends\n";
      return code;
    }

    // Crash. A worker that held steady long enough earns a clean slate.
    if (uptime_ms >= options.stable_ms) {
      consecutive_crashes = 0;
      backoff_ms = options.backoff_initial_ms;
    }
    ++consecutive_crashes;
    if (consecutive_crashes >= options.crash_loop_limit) {
      RemovePidFile(options.pid_file);
      std::cerr << "tdac_supervise: worker " << DescribeWaitStatus(wait_status)
                << "; " << consecutive_crashes
                << " consecutive crashes — circuit breaker, giving up\n";
      return 1;
    }
    const double jitter = backoff_ms * options.jitter_frac * rng.NextDouble();
    const double sleep_ms = backoff_ms + jitter;
    std::cerr << "tdac_supervise: worker " << DescribeWaitStatus(wait_status)
              << " after " << static_cast<long>(uptime_ms) << " ms (crash "
              << consecutive_crashes << "/" << options.crash_loop_limit
              << "); restarting in " << static_cast<long>(sleep_ms) << " ms\n";
    SleepInterruptibly(sleep_ms);
    if (g_signalled != 0) {
      RemovePidFile(options.pid_file);
      std::cerr << "tdac_supervise: stopped during backoff\n";
      return 3;
    }
    backoff_ms = std::min(backoff_ms * options.backoff_factor,
                          options.backoff_max_ms);
  }
}
