// Serving-layer tests (src/serve, tools/tdac_serve.cc): protocol
// round-trips, result-cache LRU, and the ServeEngine contracts the design
// doc pins — exact admission bounds under a flood (every request exactly
// one terminal outcome), deadline degradation, coalescing, cache reuse,
// and post-overload recovery. The daemon binary itself is exercised end
// to end over fork/exec pipes, including SIGTERM semantics (exit 3 with
// best-so-far answers, mirroring tdac_cli).

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset_io.h"
#include "gen/synthetic.h"
#include "gtest/gtest.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "test_util.h"

namespace tdac {
namespace {

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocolTest, ParsesFullRunLine) {
  auto command = ParseCommandLine(
      "run id=r1 claims=data.csv algorithm=TruthFinder mode=tdac "
      "attrs=0,2,5 deadline-ms=250 iteration-budget=1000 threads=2 "
      "no-cache=1");
  ASSERT_TRUE(command.ok()) << command.status();
  EXPECT_EQ(command->kind, ServeCommand::Kind::kRun);
  EXPECT_EQ(command->id, "r1");
  const ServeRequest& run = command->run;
  EXPECT_EQ(run.id, "r1");
  EXPECT_EQ(run.claims_path, "data.csv");
  EXPECT_EQ(run.algorithm, "TruthFinder");
  EXPECT_EQ(run.mode, ServeMode::kTdac);
  EXPECT_EQ(run.attributes, (std::vector<AttributeId>{0, 2, 5}));
  EXPECT_DOUBLE_EQ(run.deadline_ms, 250.0);
  EXPECT_EQ(run.iteration_budget, 1000);
  EXPECT_EQ(run.threads, 2);
  EXPECT_TRUE(run.no_cache);
}

TEST(ServeProtocolTest, RunLineRoundTripsThroughFormat) {
  ServeRequest request;
  request.id = "abc-7";
  request.claims_path = "/tmp/claims.csv";
  request.algorithm = "Accu";
  request.mode = ServeMode::kTdac;
  request.attributes = {1, 3};
  request.deadline_ms = 50.5;
  request.threads = 4;
  auto parsed = ParseCommandLine(FormatRunLine(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->run.claims_path, request.claims_path);
  EXPECT_EQ(parsed->run.mode, ServeMode::kTdac);
  EXPECT_EQ(parsed->run.attributes, request.attributes);
  EXPECT_DOUBLE_EQ(parsed->run.deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed->run.threads, 4);
  EXPECT_FALSE(parsed->run.no_cache);
}

TEST(ServeProtocolTest, BlankAndCommentLinesAreSkippable) {
  EXPECT_EQ(ParseCommandLine("").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ParseCommandLine("   ").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ParseCommandLine("# note").status().code(), StatusCode::kNotFound);
}

TEST(ServeProtocolTest, MalformedLinesNameTheProblem) {
  EXPECT_EQ(ParseCommandLine("launch id=x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommandLine("run id=x").status().code(),
            StatusCode::kInvalidArgument);  // missing claims=
  EXPECT_EQ(ParseCommandLine("run claims=a.csv").status().code(),
            StatusCode::kInvalidArgument);  // missing id=
  EXPECT_EQ(ParseCommandLine("run id=x claims=a.csv deadline-ms=abc")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommandLine("ping id=p claims=a.csv").status().code(),
            StatusCode::kInvalidArgument);  // ping takes only id=
}

TEST(ServeProtocolTest, ResponseLinesRoundTrip) {
  ServeResponse ok;
  ok.id = "r1";
  ok.outcome = ServeResponse::Outcome::kOk;
  ok.stop_reason = StopReason::kDeadline;
  ok.items = 42;
  ok.iterations = 7;
  ok.latency_ms = 12.5;
  ok.coalesced = true;
  auto parsed_ok = ParseResponseLine(FormatResponseLine(ok));
  ASSERT_TRUE(parsed_ok.ok()) << parsed_ok.status();
  EXPECT_EQ(parsed_ok->outcome, ServeResponse::Outcome::kOk);
  EXPECT_EQ(parsed_ok->stop_reason, StopReason::kDeadline);
  EXPECT_EQ(parsed_ok->items, 42u);
  EXPECT_EQ(parsed_ok->iterations, 7);
  EXPECT_TRUE(parsed_ok->coalesced);
  EXPECT_TRUE(parsed_ok->degraded());

  ServeResponse reject;
  reject.id = "r2";
  reject.outcome = ServeResponse::Outcome::kRejected;
  reject.stop_reason = StopReason::kOverloaded;
  auto parsed_reject = ParseResponseLine(FormatResponseLine(reject));
  ASSERT_TRUE(parsed_reject.ok()) << parsed_reject.status();
  EXPECT_EQ(parsed_reject->outcome, ServeResponse::Outcome::kRejected);
  EXPECT_EQ(parsed_reject->stop_reason, StopReason::kOverloaded);

  ServeResponse error;
  error.id = "r3";
  error.outcome = ServeResponse::Outcome::kError;
  error.status = Status::NotFound("no such file: x y z");
  auto parsed_error = ParseResponseLine(FormatResponseLine(error));
  ASSERT_TRUE(parsed_error.ok()) << parsed_error.status();
  EXPECT_EQ(parsed_error->outcome, ServeResponse::Outcome::kError);
  EXPECT_EQ(parsed_error->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(parsed_error->status.message(), "no such file: x y z");
}

// ---------------------------------------------------------------------------
// Result cache

/// A result whose approximate byte weight scales with `trust_entries`
/// (ApproxResultBytes counts source_trust at sizeof(double) per entry), so
/// tests can dial entry sizes against a byte budget precisely.
std::shared_ptr<const TruthDiscoveryResult> FakeResult(
    int iterations, size_t trust_entries = 0) {
  auto result = std::make_shared<TruthDiscoveryResult>();
  result->iterations = iterations;
  result->source_trust.assign(trust_entries, 0.5);
  return result;
}

/// The byte weight of a minimal FakeResult — the "unit" the budget tests
/// are denominated in.
size_t UnitBytes() { return ApproxResultBytes(*FakeResult(0)); }

TEST(ServeResultCacheTest, HitMissAndLruEvictionByBytes) {
  // Budget of exactly two minimal entries: the third insert must evict.
  ServeResultCache cache(2 * UnitBytes());
  EXPECT_EQ(cache.Get({1, 1}), nullptr);
  cache.Put({1, 1}, FakeResult(1));
  cache.Put({2, 2}, FakeResult(2));
  ASSERT_NE(cache.Get({1, 1}), nullptr);  // refreshes {1,1}
  cache.Put({3, 3}, FakeResult(3));       // evicts the colder {2,2}
  EXPECT_EQ(cache.Get({2, 2}), nullptr);
  ASSERT_NE(cache.Get({1, 1}), nullptr);
  ASSERT_NE(cache.Get({3, 3}), nullptr);
  const ServeResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.live, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.bytes, 2 * UnitBytes());  // accounting matches residency
  EXPECT_EQ(stats.max_bytes, 2 * UnitBytes());
}

TEST(ServeResultCacheTest, BudgetZeroDisables) {
  ServeResultCache cache(0);
  cache.Put({1, 1}, FakeResult(1));
  EXPECT_EQ(cache.Get({1, 1}), nullptr);
  EXPECT_EQ(cache.stats().live, 0u);
}

TEST(ServeResultCacheTest, EvictedHandleStaysValid) {
  ServeResultCache cache(UnitBytes());  // room for exactly one entry
  cache.Put({1, 1}, FakeResult(11));
  auto held = cache.Get({1, 1});
  ASSERT_NE(held, nullptr);
  cache.Put({2, 2}, FakeResult(22));  // evicts {1,1}
  EXPECT_EQ(cache.Get({1, 1}), nullptr);
  EXPECT_EQ(held->iterations, 11);  // survives via shared ownership
}

TEST(ServeResultCacheTest, OversizedEntryIsDroppedNotAdmitted) {
  // One entry bigger than the whole budget must not flush the working
  // set for a result that can never have company: it is dropped and
  // counted, and the resident entries stay put.
  ServeResultCache cache(2 * UnitBytes());
  cache.Put({1, 1}, FakeResult(1));
  auto big = FakeResult(2, /*trust_entries=*/4096);  // 32 KiB of trust
  ASSERT_GT(ApproxResultBytes(*big), 2 * UnitBytes());
  cache.Put({2, 2}, big);
  EXPECT_EQ(cache.Get({2, 2}), nullptr);
  ASSERT_NE(cache.Get({1, 1}), nullptr);  // working set untouched
  const ServeResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.live, 1u);
  EXPECT_LE(stats.bytes, stats.max_bytes);
}

TEST(ServeResultCacheTest, RefreshingAKeyReplacesItsByteAccounting) {
  ServeResultCache cache(64 * UnitBytes());
  cache.Put({1, 1}, FakeResult(1, /*trust_entries=*/16));
  const size_t first_bytes = cache.stats().bytes;
  cache.Put({1, 1}, FakeResult(2, /*trust_entries=*/4));  // same key, smaller
  EXPECT_LT(cache.stats().bytes, first_bytes);  // not double-counted
  EXPECT_EQ(cache.stats().live, 1u);
}

// ---------------------------------------------------------------------------
// Engine

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto config = PaperSyntheticConfig(1, /*seed=*/7);
    ASSERT_TRUE(config.ok()) << config.status();
    config->num_objects = 30;
    auto data = GenerateSynthetic(*config);
    ASSERT_TRUE(data.ok()) << data.status();
    claims_path_ = scratch_.path() + "/claims.csv";
    ASSERT_TRUE(SaveDataset(data->dataset, claims_path_).ok());
  }

  ServeRequest Request(const std::string& id) const {
    ServeRequest request;
    request.id = id;
    request.claims_path = claims_path_;
    request.algorithm = "Accu";
    return request;
  }

  testutil::ScratchDir scratch_;
  std::string claims_path_;
};

TEST_F(ServeEngineTest, ExecutesARequestEndToEnd) {
  ServeEngine engine(ServeOptions{});
  const ServeResponse response = engine.ExecuteBlocking(Request("r1"));
  ASSERT_EQ(response.outcome, ServeResponse::Outcome::kOk)
      << FormatResponseLine(response);
  EXPECT_GT(response.items, 0u);
  EXPECT_FALSE(response.cached);
  EXPECT_FALSE(response.degraded());
  EXPECT_EQ(response.id, "r1");
}

TEST_F(ServeEngineTest, RepeatRequestIsServedFromTheResultCache) {
  ServeEngine engine(ServeOptions{});
  const ServeResponse cold = engine.ExecuteBlocking(Request("cold"));
  ASSERT_EQ(cold.outcome, ServeResponse::Outcome::kOk);
  const ServeResponse warm = engine.ExecuteBlocking(Request("warm"));
  ASSERT_EQ(warm.outcome, ServeResponse::Outcome::kOk);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.items, cold.items);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(engine.stats().executions, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST_F(ServeEngineTest, NoCacheRequestsBypassTheCache) {
  ServeEngine engine(ServeOptions{});
  ServeRequest request = Request("n1");
  request.no_cache = true;
  ASSERT_EQ(engine.ExecuteBlocking(request).outcome,
            ServeResponse::Outcome::kOk);
  request.id = "n2";
  const ServeResponse second = engine.ExecuteBlocking(request);
  ASSERT_EQ(second.outcome, ServeResponse::Outcome::kOk);
  EXPECT_FALSE(second.cached);
  EXPECT_EQ(engine.stats().executions, 2u);
}

TEST_F(ServeEngineTest, RestrictionRequestsHaveTheirOwnCacheIdentity) {
  ServeEngine engine(ServeOptions{});
  ServeRequest whole = Request("whole");
  ServeRequest restricted = Request("restricted");
  restricted.attributes = {0, 1};
  const ServeResponse whole_response = engine.ExecuteBlocking(whole);
  const ServeResponse restricted_response =
      engine.ExecuteBlocking(restricted);
  ASSERT_EQ(whole_response.outcome, ServeResponse::Outcome::kOk);
  ASSERT_EQ(restricted_response.outcome, ServeResponse::Outcome::kOk)
      << FormatResponseLine(restricted_response);
  EXPECT_FALSE(restricted_response.cached);  // distinct fingerprint
  EXPECT_LT(restricted_response.items, whole_response.items);

  restricted.id = "restricted-again";
  const ServeResponse again = engine.ExecuteBlocking(restricted);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.items, restricted_response.items);
}

TEST_F(ServeEngineTest, TdacModeRunsAndCachesSeparatelyFromBase) {
  ServeEngine engine(ServeOptions{});
  ASSERT_EQ(engine.ExecuteBlocking(Request("base")).outcome,
            ServeResponse::Outcome::kOk);
  ServeRequest tdac_request = Request("tdac");
  tdac_request.mode = ServeMode::kTdac;
  const ServeResponse tdac_response = engine.ExecuteBlocking(tdac_request);
  ASSERT_EQ(tdac_response.outcome, ServeResponse::Outcome::kOk)
      << FormatResponseLine(tdac_response);
  EXPECT_FALSE(tdac_response.cached);  // different options hash
  EXPECT_EQ(engine.stats().executions, 2u);
}

// threads= is the width of a base execution too: on a store above the
// item-block grain, Accu's phases run over blocks at threads=4, and the
// answer is the serial one.
TEST_F(ServeEngineTest, BaseRequestAnswersAlikeAtEveryWidth) {
  auto config = PaperSyntheticConfig(2, /*seed=*/42);
  ASSERT_TRUE(config.ok()) << config.status();
  config->num_objects = 2000;
  auto data = GenerateSynthetic(*config);
  ASSERT_TRUE(data.ok()) << data.status();
  const std::string tall = scratch_.path() + "/tall.csv";
  ASSERT_TRUE(SaveDataset(data->dataset, tall).ok());

  ServeEngine engine(ServeOptions{});
  std::vector<ServeResponse> answers;
  for (int threads : {1, 4}) {
    ServeRequest request = Request("width");
    request.claims_path = tall;
    request.no_cache = true;
    request.threads = threads;
    const ServeResponse response = engine.ExecuteBlocking(request);
    ASSERT_EQ(response.outcome, ServeResponse::Outcome::kOk)
        << FormatResponseLine(response);
    EXPECT_EQ(response.items, data->dataset.DataItems().size());
    EXPECT_FALSE(response.cached);
    answers.push_back(response);
  }
  EXPECT_EQ(answers[0].stop_reason, answers[1].stop_reason);
  EXPECT_EQ(answers[0].items, answers[1].items);
  EXPECT_EQ(answers[0].iterations, answers[1].iterations);
}

TEST_F(ServeEngineTest, MissingFileYieldsErrorNotCrash) {
  ServeEngine engine(ServeOptions{});
  ServeRequest request = Request("bad");
  request.claims_path = claims_path_ + ".does-not-exist";
  const ServeResponse response = engine.ExecuteBlocking(request);
  EXPECT_EQ(response.outcome, ServeResponse::Outcome::kError);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(engine.stats().errors, 1u);
}

TEST_F(ServeEngineTest, UnknownAlgorithmYieldsError) {
  ServeEngine engine(ServeOptions{});
  ServeRequest request = Request("bad-algo");
  request.algorithm = "NotAnAlgorithm";
  const ServeResponse response = engine.ExecuteBlocking(request);
  EXPECT_EQ(response.outcome, ServeResponse::Outcome::kError);
}

TEST_F(ServeEngineTest, ExpiredDeadlineDegradesInsteadOfStalling) {
  ServeOptions options;
  options.execution_delay_ms = 0.0;
  ServeEngine engine(options);
  ServeRequest request = Request("d1");
  request.deadline_ms = 1e-3;  // all but guaranteed to expire in the queue
  request.no_cache = true;
  const ServeResponse response = engine.ExecuteBlocking(request);
  ASSERT_EQ(response.outcome, ServeResponse::Outcome::kOk)
      << FormatResponseLine(response);
  EXPECT_TRUE(response.degraded());
  EXPECT_EQ(response.stop_reason, StopReason::kDeadline);
  EXPECT_GT(response.items, 0u);  // best-so-far, not empty
  EXPECT_EQ(engine.stats().deadline_degraded, 1u);
}

TEST_F(ServeEngineTest, DegradedResultsAreNeverCached) {
  ServeEngine engine(ServeOptions{});
  ServeRequest request = Request("deg");
  request.deadline_ms = 1e-3;
  ASSERT_TRUE(engine.ExecuteBlocking(request).degraded());
  EXPECT_EQ(engine.stats().result_cache.live, 0u);
  // A later unconstrained request runs fresh and completes clean.
  const ServeResponse clean = engine.ExecuteBlocking(Request("clean"));
  ASSERT_EQ(clean.outcome, ServeResponse::Outcome::kOk);
  EXPECT_FALSE(clean.cached);
  EXPECT_FALSE(clean.degraded());
}

// The admission-control contract under a flood 4x past capacity: every
// request gets exactly one terminal outcome, the excess is rejected with
// kOverloaded, nothing hangs, and the engine accepts work again once the
// flood drains. Run under TSan via the _threads8 registration.
TEST_F(ServeEngineTest, SaturationFloodShedsCleanlyAndRecovers) {
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  options.execution_delay_ms = 30.0;  // hold slots long enough to congest
  ServeEngine engine(options);
  const int admission_limit = options.workers + options.queue_capacity;
  const int flood = 4 * admission_limit;

  std::atomic<int> ok{0}, rejected{0}, errors{0}, responses{0};
  std::vector<std::thread> submitters;
  submitters.reserve(static_cast<size_t>(flood));
  for (int i = 0; i < flood; ++i) {
    submitters.emplace_back([&, i]() {
      ServeRequest request = Request("f" + std::to_string(i));
      request.no_cache = true;  // force a cold execution per accept
      const ServeResponse response = engine.ExecuteBlocking(request);
      switch (response.outcome) {
        case ServeResponse::Outcome::kOk:
          ok.fetch_add(1);
          break;
        case ServeResponse::Outcome::kRejected:
          EXPECT_EQ(response.stop_reason, StopReason::kOverloaded);
          rejected.fetch_add(1);
          break;
        case ServeResponse::Outcome::kError:
          errors.fetch_add(1);
          break;
      }
      responses.fetch_add(1);
    });
  }
  for (std::thread& t : submitters) t.join();

  // Exactly one terminal outcome per request.
  EXPECT_EQ(responses.load(), flood);
  EXPECT_EQ(ok.load() + rejected.load() + errors.load(), flood);
  EXPECT_EQ(errors.load(), 0);
  // The flood outran capacity, so some requests must have been shed, and
  // everything the limit allowed must have been served.
  EXPECT_GT(rejected.load(), 0);
  EXPECT_GE(ok.load(), admission_limit);

  // The slot frees just after its callback fires, so a joined submitter
  // can race the final decrement by a hair; poll it to zero.
  for (int spin = 0; spin < 1000 && engine.stats().in_flight != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServeEngine::Stats mid = engine.stats();
  EXPECT_EQ(mid.in_flight, 0);
  EXPECT_EQ(mid.submitted, static_cast<uint64_t>(flood));
  EXPECT_EQ(mid.rejected, static_cast<uint64_t>(rejected.load()));

  // Recovery: with the flood gone, a fresh request is admitted and served.
  const ServeResponse after = engine.ExecuteBlocking(Request("after"));
  EXPECT_EQ(after.outcome, ServeResponse::Outcome::kOk)
      << FormatResponseLine(after);
}

// The stats() consistency contract: because admission, completion, and
// the in-flight gauge share one mutex, every snapshot — taken from a
// hostile sampler thread while a flood is in progress — satisfies
// `submitted == rejected + completed + in_flight` exactly. The previous
// independently-sampled-atomics scheme failed this (a request could be
// observed as neither in flight nor completed); the _threads8 TSan
// registration keeps the locking honest too.
TEST_F(ServeEngineTest, StatsSnapshotIsInternallyConsistent) {
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 2;
  options.execution_delay_ms = 5.0;
  ServeEngine engine(options);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread sampler([&]() {
    while (!stop.load()) {
      const ServeEngine::Stats snapshot = engine.stats();
      if (snapshot.submitted != snapshot.rejected + snapshot.completed +
                                    static_cast<uint64_t>(snapshot.in_flight)) {
        violations.fetch_add(1);
      }
    }
  });

  std::atomic<int> responses{0};
  constexpr int kRequests = 48;
  std::vector<std::thread> submitters;
  submitters.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    submitters.emplace_back([&, i]() {
      ServeRequest request = Request("c" + std::to_string(i));
      request.no_cache = true;
      engine.Submit(std::move(request),
                    [&](const ServeResponse&) { responses.fetch_add(1); });
    });
  }
  for (std::thread& t : submitters) t.join();
  while (responses.load() < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  sampler.join();

  EXPECT_EQ(violations.load(), 0);
  const ServeEngine::Stats final_stats = engine.stats();
  EXPECT_EQ(final_stats.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(final_stats.rejected + final_stats.completed,
            static_cast<uint64_t>(kRequests));
  EXPECT_EQ(final_stats.in_flight, 0);
}

// Identical concurrent requests coalesce onto one execution: park the
// leader in a delayed run on one worker, then submit duplicates that the
// other worker must attach as followers rather than execute.
TEST_F(ServeEngineTest, IdenticalInFlightRequestsCoalesce) {
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  options.execution_delay_ms = 120.0;
  ServeEngine engine(options);

  std::atomic<int> done{0};
  std::atomic<int> coalesced{0};
  auto callback = [&](const ServeResponse& response) {
    EXPECT_EQ(response.outcome, ServeResponse::Outcome::kOk)
        << FormatResponseLine(response);
    if (response.coalesced) coalesced.fetch_add(1);
    done.fetch_add(1);
  };

  engine.Submit(Request("leader"), callback);
  // Wait until the leader is executing (it registers its flight before
  // the synthetic delay), so the duplicates deterministically find it.
  while (engine.stats().executions == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.Submit(Request("dup1"), callback);
  engine.Submit(Request("dup2"), callback);
  while (done.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(coalesced.load(), 2);
  EXPECT_EQ(engine.stats().executions, 1u);
  EXPECT_EQ(engine.stats().coalesced, 2u);
}

TEST_F(ServeEngineTest, ShutdownRejectsNewWorkAndDrains) {
  ServeOptions options;
  options.workers = 1;
  options.execution_delay_ms = 50.0;
  ServeEngine engine(options);
  std::atomic<int> done{0};
  engine.Submit(Request("inflight"),
                [&](const ServeResponse&) { done.fetch_add(1); });
  engine.Shutdown();
  EXPECT_EQ(done.load(), 1);  // the in-flight request was answered
  const ServeResponse rejected = engine.ExecuteBlocking(Request("late"));
  EXPECT_EQ(rejected.outcome, ServeResponse::Outcome::kRejected);
  EXPECT_EQ(rejected.stop_reason, StopReason::kCancelled);
}

// ---------------------------------------------------------------------------
// Daemon end to end (fork/exec over pipes)

#ifdef TDAC_SERVE_BIN

/// A tdac_serve child wired up over stdin/stdout pipes.
class DaemonHarness {
 public:
  explicit DaemonHarness(const std::vector<std::string>& extra_flags = {}) {
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

  ~DaemonHarness() {
    if (in_fd_ >= 0) close(in_fd_);
    if (out_ != nullptr) fclose(out_);
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

  /// Next line from the daemon's stdout (empty on EOF).
  std::string ReadLine() {
    char buffer[4096];
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

class ServeDaemonTest : public ServeEngineTest {};

TEST_F(ServeDaemonTest, AnswersPingRunAndStats) {
  DaemonHarness daemon;
  daemon.Send("ping id=p1");
  EXPECT_EQ(daemon.ReadLine(), "pong id=p1");

  daemon.Send("run id=r1 claims=" + claims_path_ + " algorithm=Accu");
  auto response = ParseResponseLine(daemon.ReadLine());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeResponse::Outcome::kOk);
  EXPECT_EQ(response->id, "r1");
  EXPECT_GT(response->items, 0u);

  // Repeat run: cache hit over the wire.
  daemon.Send("run id=r2 claims=" + claims_path_ + " algorithm=Accu");
  auto repeat = ParseResponseLine(daemon.ReadLine());
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_TRUE(repeat->cached);

  daemon.Send("stats id=s1");
  const std::string stats_line = daemon.ReadLine();
  EXPECT_NE(stats_line.find("stats id=s1"), std::string::npos) << stats_line;
  EXPECT_NE(stats_line.find("cache-hits=1"), std::string::npos) << stats_line;

  daemon.Send("shutdown id=q1");
  EXPECT_EQ(daemon.ReadLine(), "bye id=q1");
  EXPECT_EQ(daemon.WaitForExit(), 0);
}

TEST_F(ServeDaemonTest, MalformedAndErrorLinesAreAnswered) {
  DaemonHarness daemon;
  daemon.Send("explode id=x");
  const std::string malformed = daemon.ReadLine();
  EXPECT_NE(malformed.find("error id=?"), std::string::npos) << malformed;

  daemon.Send("run id=gone claims=/no/such/file.csv");
  auto response = ParseResponseLine(daemon.ReadLine());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->outcome, ServeResponse::Outcome::kError);
  EXPECT_EQ(response->id, "gone");

  daemon.CloseStdin();  // EOF also shuts down cleanly
  EXPECT_EQ(daemon.WaitForExit(), 0);
}

TEST_F(ServeDaemonTest, OverloadedDaemonRejectsWithLabeledReason) {
  // One worker, no queue slack beyond 1, and slow synthetic execution:
  // a burst must produce Overloaded rejections over the wire.
  DaemonHarness daemon({"--workers=1", "--queue-capacity=1",
                        "--execution-delay-ms=200"});
  const int burst = 8;
  for (int i = 0; i < burst; ++i) {
    daemon.Send("run id=b" + std::to_string(i) + " claims=" + claims_path_ +
                " algorithm=Accu no-cache=1");
  }
  int ok = 0, rejected = 0;
  for (int i = 0; i < burst; ++i) {
    auto response = ParseResponseLine(daemon.ReadLine());
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->outcome == ServeResponse::Outcome::kRejected) {
      EXPECT_EQ(response->stop_reason, StopReason::kOverloaded);
      ++rejected;
    } else {
      EXPECT_EQ(response->outcome, ServeResponse::Outcome::kOk);
      ++ok;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GE(ok, 2);  // admitted work still completed

  // Recovery over the wire: the next request is served.
  daemon.Send("run id=after claims=" + claims_path_ +
              " algorithm=Accu no-cache=1");
  auto after = ParseResponseLine(daemon.ReadLine());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->outcome, ServeResponse::Outcome::kOk);

  daemon.Send("shutdown id=q");
  EXPECT_EQ(daemon.ReadLine(), "bye id=q");
  EXPECT_EQ(daemon.WaitForExit(), 0);
}

TEST_F(ServeDaemonTest, SigtermDrainsAndExitsThree) {
  DaemonHarness daemon({"--workers=1", "--execution-delay-ms=5000"});
  daemon.Send("ping id=ready");
  ASSERT_EQ(daemon.ReadLine(), "pong id=ready");  // daemon is up

  // A slow request is in flight when SIGTERM lands: the daemon must cancel
  // it (best-so-far answer, not silence) and exit 3 — same contract as
  // tdac_cli.
  daemon.Send("run id=slow claims=" + claims_path_ +
              " algorithm=Accu no-cache=1");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  kill(daemon.pid(), SIGTERM);

  auto response = ParseResponseLine(daemon.ReadLine());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, "slow");
  EXPECT_EQ(response->outcome, ServeResponse::Outcome::kOk);
  EXPECT_TRUE(response->degraded()) << FormatResponseLine(*response);
  EXPECT_EQ(daemon.WaitForExit(), 3);
}

#endif  // TDAC_SERVE_BIN

}  // namespace
}  // namespace tdac
