// Live chaos harness for the crash-tolerant serving stack: a real
// tdac_supervise + tdac_serve --journal pair driven over pipes while the
// worker is SIGKILLed at seeded random points. The contract under fire
// (docs/serving.md):
//
//   - every admitted request eventually gets a terminal response — none
//     is silently lost across any number of crashes;
//   - completed work is never re-executed: a request whose `done` record
//     hit the journal is answered from the record, and every duplicate
//     delivery is flagged `replayed=1` (at most one unflagged response
//     per id — exactly-once execution-completion, at-least-once delivery);
//   - deduplicated by id, the response set is bit-identical (modulo
//     latency and cache/replay provenance flags) to an uninterrupted run;
//   - the journal never leaves a torn `*.tmp` behind and drains to empty
//     on clean shutdown.
//
// The kill count scales with TDAC_CRASH_ITERATIONS (default 5 locally;
// check.sh chaos runs 20 under ASan). The supervisor's own state machine
// (crash-loop circuit breaker, SIGTERM propagation) is pinned here too.

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/io.h"
#include "common/random.h"
#include "data/dataset_io.h"
#include "gen/synthetic.h"
#include "gtest/gtest.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "test_util.h"

namespace tdac {
namespace {

#if defined(TDAC_SERVE_BIN) && defined(TDAC_SUPERVISE_BIN)

int ChaosIterations() {
  const char* env = std::getenv("TDAC_CRASH_ITERATIONS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 5;
}

/// Drops the provenance/latency tokens that legitimately differ between an
/// uninterrupted run and a crash-replay run (`ms=`, `cached=`,
/// `coalesced=`, `replayed=`); optionally drops `id=` too so responses to
/// the same request *content* compare equal across id sets.
std::string NormalizeResponse(const std::string& line, bool keep_id = true) {
  std::istringstream in(line);
  std::ostringstream out;
  std::string token;
  bool first = true;
  while (in >> token) {
    if (token.rfind("ms=", 0) == 0 || token.rfind("cached=", 0) == 0 ||
        token.rfind("coalesced=", 0) == 0 ||
        token.rfind("replayed=", 0) == 0 ||
        (!keep_id && token.rfind("id=", 0) == 0)) {
      continue;
    }
    if (!first) out << ' ';
    out << token;
    first = false;
  }
  return out.str();
}

/// A supervised daemon over pipes: the client talks to tdac_supervise's
/// inherited stdio, which whichever worker generation is current reads.
/// Reads are poll-based with deadlines so a lost response fails the test
/// instead of hanging it.
class SupervisedDaemon {
 public:
  SupervisedDaemon(const std::vector<std::string>& supervise_flags,
                   const std::vector<std::string>& worker_flags,
                   bool supervised = true) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) {
      ADD_FAILURE() << "pipe() failed";
      return;
    }
    pid_ = fork();
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      std::vector<std::string> args;
      if (supervised) {
        args.push_back(TDAC_SUPERVISE_BIN);
        args.insert(args.end(), supervise_flags.begin(),
                    supervise_flags.end());
        args.push_back("--");
      }
      args.push_back(TDAC_SERVE_BIN);
      args.insert(args.end(), worker_flags.begin(), worker_flags.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
  }

  ~SupervisedDaemon() {
    if (in_fd_ >= 0) close(in_fd_);
    if (out_fd_ >= 0) close(out_fd_);
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }

  void Send(const std::string& line) {
    const std::string with_newline = line + "\n";
    ASSERT_EQ(write(in_fd_, with_newline.data(), with_newline.size()),
              static_cast<ssize_t>(with_newline.size()));
  }

  void CloseStdin() {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
  }

  /// Next stdout line within `timeout_ms`; empty on EOF or deadline.
  std::string ReadLine(int timeout_ms = 30000) {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        while (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      const int ready = poll(&pfd, 1, timeout_ms);
      if (ready <= 0) return "";  // deadline (or poll error)
      char chunk[4096];
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";  // EOF: everyone is gone
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int WaitForExit() {
    int wstatus = 0;
    waitpid(pid_, &wstatus, 0);
    reaped_ = true;
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128 + WTERMSIG(wstatus);
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  bool reaped_ = false;
};

/// Current worker pid from the supervisor's pid-file; 0 when unreadable.
pid_t ReadPidFile(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return 0;
  return static_cast<pid_t>(std::atoi(contents->c_str()));
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto config = PaperSyntheticConfig(1, /*seed=*/7);
    ASSERT_TRUE(config.ok()) << config.status();
    config->num_objects = 30;
    auto data = GenerateSynthetic(*config);
    ASSERT_TRUE(data.ok()) << data.status();
    claims_path_ = scratch_.path() + "/claims.csv";
    ASSERT_TRUE(SaveDataset(data->dataset, claims_path_).ok());
    journal_path_ = scratch_.path() + "/requests.journal";
    pid_file_ = scratch_.path() + "/worker.pid";
    checkpoint_dir_ = scratch_.path() + "/ckpt";
    ASSERT_TRUE(EnsureDirectory(checkpoint_dir_).ok());
  }

  /// The j-th request *content* (ids are supplied per send, so the same
  /// content classes can be replayed across iterations and the baseline).
  std::string RequestLine(const std::string& id, int j) const {
    std::string line = "run id=" + id + " claims=" + claims_path_ +
                       " algorithm=Accu";
    switch (j % 4) {
      case 0:
        break;  // whole dataset, base mode
      case 1:
        line += " attrs=0,1";
        break;
      case 2:
        line += " mode=tdac";
        break;
      default:
        line += " attrs=0";
        break;
    }
    return line;
  }

  std::vector<std::string> WorkerFlags() const {
    return {"--workers=2",
            "--queue-capacity=8",
            "--execution-delay-ms=25",
            "--journal=" + journal_path_,
            "--checkpoint-dir=" + checkpoint_dir_};
  }

  testutil::ScratchDir scratch_;
  std::string claims_path_;
  std::string journal_path_;
  std::string pid_file_;
  std::string checkpoint_dir_;
};

// The headline chaos loop. Kills scale with TDAC_CRASH_ITERATIONS.
TEST_F(ServeChaosTest, SeededKillsLoseNoRequestsAndDoubleExecuteNothing) {
  // Baseline: the same request contents through an uninterrupted,
  // journal-less daemon — what the chaos run must match after dedup.
  std::map<int, std::string> baseline;  // content class -> normalized line
  {
    SupervisedDaemon plain({}, {"--workers=2", "--execution-delay-ms=0"},
                           /*supervised=*/false);
    for (int j = 0; j < 4; ++j) {
      plain.Send(RequestLine("base" + std::to_string(j), j));
      const std::string line = plain.ReadLine();
      ASSERT_FALSE(line.empty());
      auto parsed = ParseResponseLine(line);
      ASSERT_TRUE(parsed.ok()) << line;
      ASSERT_EQ(parsed->outcome, ServeResponse::Outcome::kOk) << line;
      baseline[j] = NormalizeResponse(line, /*keep_id=*/false);
    }
    plain.Send("shutdown id=q");
    for (;;) {
      const std::string line = plain.ReadLine();
      ASSERT_FALSE(line.empty());
      if (line == "bye id=q") break;
    }
    ASSERT_EQ(plain.WaitForExit(), 0);
  }

  SupervisedDaemon daemon({"--backoff-initial-ms=20", "--backoff-max-ms=200",
                           "--stable-ms=100", "--seed=11",
                           "--crash-loop-limit=50",
                           "--pid-file=" + pid_file_},
                          WorkerFlags());
  daemon.Send("ping id=up");
  std::string first = daemon.ReadLine();
  ASSERT_EQ(first, "pong id=up");

  const int iterations = ChaosIterations();
  Rng rng(0xC4A05ULL);
  int kills = 0;
  // Every response ever read, keyed by id; plus how many arrived
  // unflagged (replayed=0) per id.
  std::map<std::string, std::set<std::string>> ok_responses_by_id;
  std::map<std::string, int> unflagged_by_id;
  std::map<std::string, int> class_of_id;

  auto consume = [&](const std::string& line) {
    auto parsed = ParseResponseLine(line);
    if (!parsed.ok()) return;  // pong / stats / bye handled by callers
    if (parsed->id == "?") return;  // garbled partial line after a kill
    if (parsed->outcome != ServeResponse::Outcome::kOk) return;
    ok_responses_by_id[parsed->id].insert(NormalizeResponse(line));
    if (!parsed->replayed) ++unflagged_by_id[parsed->id];
  };

  int barrier = 0;
  // Ping barrier: drain (and record) responses until a matching pong —
  // on a fresh worker generation this also proves journal replay finished,
  // because replay runs before the daemon reads any input. Pings are
  // control messages, not journaled work: one can die with the worker
  // that consumed it (read but never answered), so the barrier retries
  // with a fresh tag on timeout instead of waiting forever.
  auto sync = [&]() {
    for (int attempt = 0; attempt < 30; ++attempt) {
      const std::string tag = "b" + std::to_string(barrier++);
      daemon.Send("ping id=" + tag);
      for (;;) {
        const std::string line = daemon.ReadLine(2000);
        if (line.empty()) break;  // timeout: the ping died with a worker
        if (line == "pong id=" + tag) return;
        consume(line);  // responses and stale pongs drain through here
      }
    }
    FAIL() << "no pong after 30 barrier attempts";
  };

  for (int iter = 0; iter < iterations; ++iter) {
    // A batch of requests this iteration. `chains[j]` is the retry chain
    // for content class j — like a real client, every retry gets a fresh
    // attempt id (dedup is by correlation, so a late answer to an earlier
    // attempt still settles the chain and never collides with the retry).
    std::vector<std::vector<std::string>> chains(4);
    for (int j = 0; j < 4; ++j) {
      const std::string id =
          "k" + std::to_string(iter) + "x" + std::to_string(j);
      class_of_id[id] = j;
      chains[j].push_back(id);
      daemon.Send(RequestLine(id, j));
    }
    // ...then a seeded strike somewhere in their lifetime.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rng.NextBounded(80)));
    const pid_t worker = ReadPidFile(pid_file_);
    if (worker > 0 && kill(worker, SIGKILL) == 0) ++kills;

    // Wait out the restart (backoff is tens of ms), then barrier: the
    // successor has replayed its predecessor's journal by pong time.
    sync();

    // A chain with no answer yet was either lost before its admit record
    // (a request mid-parse at kill time garbles) or is still executing;
    // retry with a fresh attempt id until some attempt lands. Journaled
    // work is never resent under its original id, so the per-id delivery
    // assertions below stay exact. The lookup is not operator[]: an id
    // that never got an answer must not gain an empty entry, which the
    // per-id checks below would dereference.
    auto chain_answered = [&](const std::vector<std::string>& chain) {
      for (const std::string& id : chain) {
        if (ok_responses_by_id.count(id) > 0) return true;
      }
      return false;
    };
    for (int attempt = 1; attempt <= 20; ++attempt) {
      bool all_answered = true;
      for (int j = 0; j < 4; ++j) {
        if (chain_answered(chains[j])) continue;
        all_answered = false;
        const std::string retry_id = chains[j][0] + "r" +
                                     std::to_string(attempt);
        class_of_id[retry_id] = j;
        chains[j].push_back(retry_id);
        daemon.Send(RequestLine(retry_id, j));
      }
      if (all_answered) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      sync();
    }
    for (int j = 0; j < 4; ++j) {
      ASSERT_TRUE(chain_answered(chains[j]))
          << "request class " << j << " of iteration " << iter
          << " lost after " << kills << " kill(s)";
    }
  }

  EXPECT_GT(kills, 0) << "chaos loop never landed a kill";

  // Clean shutdown through the supervisor (exit passes through).
  daemon.Send("shutdown id=q");
  for (;;) {
    const std::string line = daemon.ReadLine();
    ASSERT_FALSE(line.empty());
    if (line == "bye id=q") break;
    consume(line);
  }
  EXPECT_EQ(daemon.WaitForExit(), 0);

  // Exactly one distinct normalized response per id (a replayed duplicate
  // must be byte-identical to the original modulo provenance flags), at
  // most one of them unflagged, and each matches the uninterrupted
  // baseline for its content class.
  for (const auto& [id, responses] : ok_responses_by_id) {
    EXPECT_EQ(responses.size(), 1u)
        << id << " got conflicting responses: "
        << *responses.begin();
    EXPECT_LE(unflagged_by_id[id], 1)
        << id << " was answered twice without a replayed=1 flag";
    const std::string got = NormalizeResponse(
        *responses.begin(), /*keep_id=*/false);
    EXPECT_EQ(got, baseline[class_of_id[id]]) << "for " << id;
  }

  // The journal drained on clean shutdown and left no torn temp behind.
  EXPECT_FALSE(FileExists(AtomicWriteTempPath(journal_path_)));
  JournalReplay replay;
  auto journal = RequestJournal::Open(journal_path_, &replay);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_TRUE(replay.pending.empty())
      << replay.pending.size() << " request(s) still pending";
  EXPECT_TRUE(replay.unacked.empty())
      << replay.unacked.size() << " response(s) still unacked";

  // No torn checkpoint temps either (slots themselves may legitimately
  // remain for runs that never completed before shutdown).
  auto leftovers = ListDirFiles(checkpoint_dir_);
  ASSERT_TRUE(leftovers.ok());
  for (const std::string& name : *leftovers) {
    EXPECT_TRUE(name.size() < 4 ||
                name.compare(name.size() - 4, 4, ".tmp") != 0)
        << "torn temp file left behind: " << name;
  }
}

// A single deterministic kill mid-execution: the in-flight request is
// journaled, the successor re-executes it, and the response arrives
// flagged replayed=1 without the client resending anything.
TEST_F(ServeChaosTest, KilledMidExecutionReplaysWithoutClientRetry) {
  std::vector<std::string> worker_flags = WorkerFlags();
  worker_flags[2] = "--execution-delay-ms=2000";  // park the run
  SupervisedDaemon daemon({"--backoff-initial-ms=20", "--stable-ms=100",
                           "--seed=3", "--pid-file=" + pid_file_},
                          worker_flags);
  daemon.Send("ping id=up");
  ASSERT_EQ(daemon.ReadLine(), "pong id=up");

  daemon.Send(RequestLine("victim", 0));
  // Let the admit record land and the execution start, then strike.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const pid_t worker = ReadPidFile(pid_file_);
  ASSERT_GT(worker, 0);
  ASSERT_EQ(kill(worker, SIGKILL), 0);

  // The successor replays the pending request before reading any input;
  // the next line must be victim's response, flagged as replay.
  const std::string line = daemon.ReadLine(60000);
  ASSERT_FALSE(line.empty()) << "replayed response never arrived";
  auto parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->id, "victim");
  EXPECT_EQ(parsed->outcome, ServeResponse::Outcome::kOk) << line;
  EXPECT_TRUE(parsed->replayed) << line;

  daemon.Send("shutdown id=q");
  for (;;) {
    const std::string next = daemon.ReadLine();
    ASSERT_FALSE(next.empty());
    if (next == "bye id=q") break;
  }
  EXPECT_EQ(daemon.WaitForExit(), 0);
}

// The circuit breaker: a worker that can never come up (bad flag → usage
// exit 2, a crash from the supervisor's point of view) must not be
// restarted forever — the supervisor gives up with exit 1.
TEST_F(ServeChaosTest, SupervisorCircuitBreakerTripsOnCrashLoop) {
  SupervisedDaemon daemon({"--backoff-initial-ms=5", "--backoff-max-ms=20",
                           "--crash-loop-limit=3", "--seed=9",
                           "--pid-file=" + pid_file_},
                          {"--definitely-not-a-flag=1"});
  EXPECT_EQ(daemon.WaitForExit(), 1);
  // The breaker cleans up its pid-file on the way out.
  EXPECT_FALSE(FileExists(pid_file_));
}

// SIGTERM to the supervisor propagates: the worker drains with
// best-so-far answers and exits 3, and the supervisor passes 3 through.
TEST_F(ServeChaosTest, SupervisorPropagatesSigtermToWorker) {
  std::vector<std::string> worker_flags = WorkerFlags();
  worker_flags[2] = "--execution-delay-ms=5000";
  SupervisedDaemon daemon({"--backoff-initial-ms=20", "--seed=4",
                           "--pid-file=" + pid_file_},
                          worker_flags);
  daemon.Send("ping id=up");
  ASSERT_EQ(daemon.ReadLine(), "pong id=up");
  daemon.Send(RequestLine("slow", 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ASSERT_EQ(kill(daemon.pid(), SIGTERM), 0);
  const std::string line = daemon.ReadLine(60000);
  ASSERT_FALSE(line.empty()) << "no best-so-far answer after SIGTERM";
  auto parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->id, "slow");
  EXPECT_EQ(parsed->outcome, ServeResponse::Outcome::kOk) << line;
  EXPECT_TRUE(parsed->degraded()) << line;
  EXPECT_EQ(daemon.WaitForExit(), 3);
}

#endif  // TDAC_SERVE_BIN && TDAC_SUPERVISE_BIN

}  // namespace
}  // namespace tdac
