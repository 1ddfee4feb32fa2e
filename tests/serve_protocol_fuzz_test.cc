// Byte-level fuzzing of the serving protocol (src/serve/protocol.h) and
// the live daemon's input loop: seeded corpora of malformed, truncated,
// mutated, oversized, embedded-NUL, and invalid-UTF-8 lines go through
// ParseCommandLine/ParseResponseLine in-process and over a pipe to a real
// tdac_serve child. The contract under garbage is narrow and absolute —
// answer `error id=?`, or skip the line (blank/comment), and keep
// serving; never crash, never hang, never desync the response stream.
// check.sh chaos runs this under ASan+UBSan, where "no crash" means no
// memory error anywhere in the parse paths.
//
// Every line is derived from a seeded Rng (TDAC_FUZZ_SEED overrides), so
// a failure reproduces exactly. Set TDAC_FUZZ_EXPORT_DIR to dump the
// generated corpus for triage or CI artifact upload.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"

namespace tdac {
namespace {

uint64_t FuzzSeed() {
  const char* env = std::getenv("TDAC_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808ULL;
}

/// One seeded malformed line. The generator mixes strategies so the corpus
/// covers structurally-different failure shapes, not one kind 1000 times.
std::string FuzzLine(Rng* rng) {
  static const std::string kValid =
      "run id=r1 claims=data.csv algorithm=Accu mode=tdac attrs=0,1,2 "
      "deadline-ms=250 iteration-budget=1000 threads=2 no-cache=1";
  std::string line;
  switch (rng->NextBounded(8)) {
    case 0: {  // raw bytes, full range except newline
      const size_t len = rng->NextBounded(80);
      for (size_t i = 0; i < len; ++i) {
        char ch = static_cast<char>(rng->NextBounded(256));
        if (ch == '\n') ch = ' ';
        line.push_back(ch);
      }
      break;
    }
    case 1: {  // truncated valid line
      line = kValid.substr(0, rng->NextBounded(kValid.size()));
      break;
    }
    case 2: {  // valid line with seeded byte flips
      line = kValid;
      const size_t flips = 1 + rng->NextBounded(6);
      for (size_t i = 0; i < flips; ++i) {
        char ch = static_cast<char>(rng->NextBounded(256));
        if (ch == '\n') ch = '\t';
        line[rng->NextBounded(line.size())] = ch;
      }
      break;
    }
    case 3: {  // hostile numbers
      static const char* kNumbers[] = {
          "run id=x claims=c deadline-ms=1e308",
          "run id=x claims=c deadline-ms=-1e308",
          "run id=x claims=c iteration-budget=999999999999999999999999",
          "run id=x claims=c iteration-budget=-9223372036854775808",
          "run id=x claims=c threads=2147483648",
          "run id=x claims=c attrs=4294967296,-1,999999999999",
          "run id=x claims=c deadline-ms=nan",
          "run id=x claims=c deadline-ms=0x1p1000",
      };
      line = kNumbers[rng->NextBounded(sizeof(kNumbers) /
                                       sizeof(kNumbers[0]))];
      break;
    }
    case 4: {  // invalid UTF-8 spliced into token values
      line = "run id=";
      const char bad[] = {'\xc0', '\x80', '\xff', '\xfe', '\xed', '\xa0',
                          '\x80'};
      const size_t n = 1 + rng->NextBounded(sizeof(bad));
      for (size_t i = 0; i < n; ++i) line.push_back(bad[i]);
      line += " claims=\xf0\x28\x8c\x28.csv";
      break;
    }
    case 5: {  // embedded NULs
      line = kValid;
      const size_t nuls = 1 + rng->NextBounded(4);
      for (size_t i = 0; i < nuls; ++i) {
        line[rng->NextBounded(line.size())] = '\0';
      }
      break;
    }
    case 6: {  // duplicate / conflicting / empty-value tokens
      line = "run id= claims= id=second algorithm= mode=neither attrs=,,, "
             "no-cache=maybe";
      break;
    }
    default: {  // structurally fine, unknown command word
      line = "launch id=x claims=c.csv warp=9";
      const size_t extra = rng->NextBounded(5);
      for (size_t i = 0; i < extra; ++i) {
        line += " k" + std::to_string(rng->NextUint64() % 100) + "=" +
                std::to_string(rng->NextUint64());
      }
      break;
    }
  }
  return line;
}

/// Writes the corpus for triage when TDAC_FUZZ_EXPORT_DIR is set
/// (CI uploads it as an artifact). Lines are escaped one-per-line so the
/// file is greppable despite raw bytes in the corpus.
void MaybeExportCorpus(const std::vector<std::string>& corpus,
                       const std::string& name) {
  const char* dir = std::getenv("TDAC_FUZZ_EXPORT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string blob;
  for (const std::string& line : corpus) {
    for (const char ch : line) {
      if (ch >= 0x20 && ch < 0x7f) {
        blob.push_back(ch);
      } else {
        char hex[8];
        std::snprintf(hex, sizeof(hex), "\\x%02x",
                      static_cast<unsigned char>(ch));
        blob += hex;
      }
    }
    blob.push_back('\n');
  }
  const Status status =
      AtomicWriteFile(std::string(dir) + "/" + name + ".txt", blob);
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(ServeProtocolFuzzTest, ParsersNeverCrashOnSeededGarbage) {
  Rng rng(FuzzSeed());
  std::vector<std::string> corpus;
  constexpr int kLines = 1500;
  corpus.reserve(kLines);
  int parsed_ok = 0;
  for (int i = 0; i < kLines; ++i) {
    corpus.push_back(FuzzLine(&rng));
    const std::string& line = corpus.back();
    // The whole assertion is "returns, with either a value or an error":
    // any crash/UB is caught by the sanitizer build, any hang by the test
    // timeout. A line that happens to parse must carry a usable id.
    auto command = ParseCommandLine(line);
    if (command.ok()) {
      ++parsed_ok;
      EXPECT_FALSE(command->id.empty()) << line;
      if (command->kind == ServeCommand::Kind::kRun) {
        // Round-tripping a parsed request must also be crash-free.
        (void)ParseCommandLine(FormatRunLine(command->run));
      }
    }
    (void)ParseResponseLine(line);
  }
  MaybeExportCorpus(corpus, "fuzz_parser_corpus");
  // Some corpus shapes legitimately parse (a truncation that only drops
  // trailing tokens is still a valid line), but the majority must be
  // rejected — all-accepted would mean the strictness tests above rot.
  EXPECT_LT(parsed_ok, kLines / 2);
}

TEST(ServeProtocolFuzzTest, OversizedLineParsesWithoutQuadraticBlowup) {
  // A single multi-megabyte line through both parsers: bounded memory,
  // bounded time (the 300 s test timeout is the hang detector).
  std::string huge = "run id=big claims=";
  huge.append(2u << 20, 'a');
  (void)ParseCommandLine(huge);
  (void)ParseResponseLine(huge);
  std::string tokens = "run id=big claims=c.csv";
  for (int i = 0; i < 200000; ++i) tokens += " k=v";
  (void)ParseCommandLine(tokens);
}

#ifdef TDAC_SERVE_BIN

/// Minimal pipe harness for a tdac_serve child (the serve_test harness,
/// trimmed to what fuzzing needs: raw byte writes).
class FuzzDaemon {
 public:
  explicit FuzzDaemon(const std::vector<std::string>& extra_flags) {
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
      std::vector<std::string> args = {TDAC_SERVE_BIN};
      args.insert(args.end(), extra_flags.begin(), extra_flags.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(TDAC_SERVE_BIN, argv.data());
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    in_fd_ = to_child[1];
    out_ = fdopen(from_child[0], "r");
  }

  ~FuzzDaemon() {
    if (in_fd_ >= 0) close(in_fd_);
    if (out_ != nullptr) fclose(out_);
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  void SendRaw(const std::string& bytes) {
    ASSERT_EQ(write(in_fd_, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  void CloseStdin() {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
  }

  std::string ReadLine() {
    char buffer[8192];
    if (out_ == nullptr || fgets(buffer, sizeof(buffer), out_) == nullptr) {
      return "";
    }
    std::string line(buffer);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    return line;
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
  FILE* out_ = nullptr;
  bool reaped_ = false;
};

TEST(ServeProtocolFuzzTest, LiveDaemonSurvivesSeededGarbageStream) {
  // Small line cap so the oversized path is exercised cheaply too.
  FuzzDaemon daemon({"--max-line-bytes=512"});
  Rng rng(FuzzSeed() ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::string> corpus;
  constexpr int kLines = 300;
  for (int i = 0; i < kLines; ++i) {
    std::string line = FuzzLine(&rng);
    if (rng.NextBounded(20) == 0) {
      line.append(600 + rng.NextBounded(600), 'x');  // over the 512 cap
    }
    // A line that parses as `shutdown` would end the session by design —
    // the fuzz target is malformed input, so skip exactly that shape.
    auto parsed = ParseCommandLine(line);
    if (parsed.ok() && parsed->kind == ServeCommand::Kind::kShutdown) {
      continue;
    }
    corpus.push_back(line);
    daemon.SendRaw(line + "\n");

    // Liveness barrier after every line: whatever the daemon answered (an
    // error line, several, or nothing for skippable input), it must still
    // respond to a ping — read until the matching pong, with the line
    // budget catching a response flood and the test timeout a hang.
    const std::string tag = "sync" + std::to_string(i);
    daemon.SendRaw("ping id=" + tag + "\n");
    bool ponged = false;
    for (int reads = 0; reads < 16; ++reads) {
      const std::string response = daemon.ReadLine();
      ASSERT_FALSE(response.empty())
          << "daemon died on corpus line " << i << ": " << line;
      if (response == "pong id=" + tag) {
        ponged = true;
        break;
      }
    }
    ASSERT_TRUE(ponged) << "daemon desynced on corpus line " << i << ": "
                        << line;
  }
  MaybeExportCorpus(corpus, "fuzz_daemon_corpus");

  // After the whole barrage: clean shutdown, exit 0. A worker may still be
  // answering a `run` from the barrage, and that answer can land after the
  // last pong, so well-formed responses to earlier ids may precede `bye`.
  daemon.SendRaw("shutdown id=q\n");
  for (int reads = 0;; ++reads) {
    const std::string response = daemon.ReadLine();
    ASSERT_FALSE(response.empty()) << "daemon closed stdout before bye";
    if (response == "bye id=q") break;
    ASSERT_LT(reads, kLines) << "response flood before bye";
    auto parsed = ParseResponseLine(response);
    ASSERT_TRUE(parsed.ok()) << "malformed line before bye: " << response;
    EXPECT_NE(parsed->id, "q") << response;
  }
  EXPECT_EQ(daemon.WaitForExit(), 0);
}

TEST(ServeProtocolFuzzTest, OversizedLineIsAnsweredAndDiscarded) {
  FuzzDaemon daemon({"--max-line-bytes=1024"});
  std::string huge = "run id=big claims=";
  huge.append(8192, 'a');
  daemon.SendRaw(huge + "\n");
  const std::string answer = daemon.ReadLine();
  EXPECT_NE(answer.find("error id=?"), std::string::npos) << answer;
  EXPECT_NE(answer.find("exceeds"), std::string::npos) << answer;
  // The oversized line was fully consumed: the stream is in sync.
  daemon.SendRaw("ping id=after\n");
  EXPECT_EQ(daemon.ReadLine(), "pong id=after");
  daemon.CloseStdin();
  EXPECT_EQ(daemon.WaitForExit(), 0);
}

#endif  // TDAC_SERVE_BIN

}  // namespace
}  // namespace tdac
