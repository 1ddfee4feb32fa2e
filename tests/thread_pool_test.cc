#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/result.h"
#include "common/status.h"
#include "gen/synthetic.h"
#include "td/accu.h"
#include "td/truth_discovery.h"

namespace tdac {
namespace {

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.num_workers(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  auto future = pool.Submit([caller]() {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 7;
  });
  EXPECT_EQ(future.get(), 7);
}

TEST(ThreadPoolTest, ClampsDegenerateSizes) {
  EXPECT_EQ(ThreadPool(0).num_threads(), 1);
  EXPECT_EQ(ThreadPool(-3).num_threads(), 1);
  EXPECT_EQ(ThreadPool(ThreadPool::kMaxThreads + 100).num_threads(),
            ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, CompletesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i]() { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, StatusAndResultCrossThreadBoundary) {
  ThreadPool pool(2);
  auto ok = pool.Submit([]() -> Result<int> { return 41; });
  auto err = pool.Submit(
      []() -> Result<int> { return Status::InvalidArgument("bad input"); });
  auto status = pool.Submit([]() { return Status::Internal("broken"); });

  Result<int> ok_result = ok.get();
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 41);

  Result<int> err_result = err.get();
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err_result.status().message(), "bad input");

  Status s = status.get();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, NestedSubmissionDoesNotDeadlock) {
  ThreadPool pool(2);
  // A task that submits a follow-up task; the outer future resolves to the
  // inner future's value without the outer task blocking on it.
  auto outer = pool.Submit([&pool]() {
    return pool.Submit([]() { return 123; });
  });
  EXPECT_EQ(outer.get().get(), 123);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every worker runs an outer iteration that itself fans out an inner
  // loop: with caller participation the inner loops complete even though
  // the pool is fully saturated by the outer ones.
  ThreadPool pool(4);
  ParallelForOptions opts;
  opts.pool = &pool;
  std::atomic<int> inner_total{0};
  ParallelFor(
      8,
      [&](size_t) {
        ParallelFor(
            16, [&](size_t) { inner_total.fetch_add(1); }, opts);
      },
      opts);
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    // One slow task to back the queue up, then a burst of pending ones.
    futures.push_back(pool.Submit([]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }));
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.Submit([&executed]() { executed.fetch_add(1); }));
    }
    // Destructor runs here with tasks almost certainly still queued.
  }
  EXPECT_EQ(executed.load(), 64);
  // Every future is fulfilled — none abandoned as broken promises.
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ThreadPoolTest, DepthCountersTrackQueueAndExecution) {
  // queued()/active() are what a serving layer's admission control reads,
  // so their invariants must hold under load: active never exceeds the
  // worker count, neither counter goes negative, and both drain to zero
  // once the pool is idle.
  ThreadPool pool(3);  // 2 background workers
  const int workers = pool.num_workers();
  ASSERT_EQ(workers, 2);
  EXPECT_EQ(pool.queued(), 0);
  EXPECT_EQ(pool.active(), 0);

  // Gate the workers so tasks pile up behind a latch we control.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> started{0};
  constexpr int kTasks = 16;
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&]() {
      started.fetch_add(1);
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&]() { return gate_open; });
    }));
  }

  // Wait until both workers are parked on the gate.
  while (started.load() < workers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.active(), workers);
  EXPECT_EQ(pool.queued(), kTasks - workers);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& f : futures) f.get();
  // All futures resolved; both counters must read idle again. active() is
  // decremented after the task body returns, which happens-before the
  // future resolves, but the final store can lag the get() by a moment on
  // the worker that ran the last task — poll briefly instead of asserting
  // the instantaneous value.
  for (int spin = 0; spin < 1000 && pool.active() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.queued(), 0);
  EXPECT_EQ(pool.active(), 0);
}

TEST(ThreadPoolTest, DepthCountersConsistentUnderConcurrentLoad) {
  // Hammer the pool from several submitter threads while sampling the
  // counters: samples must stay within [0, bound] the whole time.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread sampler([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const int q = pool.queued();
      const int a = pool.active();
      if (q < 0 || a < 0 || a > pool.num_workers() + 1) {
        violations.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> submitters;
  std::vector<std::future<int>> futures;
  std::mutex futures_mutex;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t]() {
      for (int i = 0; i < 200; ++i) {
        auto f = pool.Submit([t, i]() { return t * 1000 + i; });
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& f : futures) f.get();
  stop.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(pool.queued(), 0);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvOverride) {
  // DefaultThreadCount latches TDAC_THREADS on first use, so the test can
  // only pin down its invariants, not flip the env mid-process.
  const int count = ThreadPool::DefaultThreadCount();
  EXPECT_GE(count, 1);
  EXPECT_LE(count, ThreadPool::kMaxThreads);
  if (const char* env = std::getenv("TDAC_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0 && parsed <= ThreadPool::kMaxThreads) {
      EXPECT_EQ(count, parsed);
    }
  }
}

class ParallelForSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(ParallelForSweepTest, EveryIndexRunsExactlyOnce) {
  const size_t n = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  ThreadPool pool(threads);
  ParallelForOptions opts;
  opts.pool = &pool;
  opts.max_parallelism = threads;

  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(
      n, [&](size_t i) { hits[i].fetch_add(1); }, opts);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

// The off-by-one sweep of the issue: ranges around a "natural" size n = 8
// ({0, 1, n-1, n, n+1}) crossed with thread counts {1, 2, 8}.
INSTANTIATE_TEST_SUITE_P(
    OffByOneSweep, ParallelForSweepTest,
    ::testing::Combine(::testing::Values<size_t>(0, 1, 7, 8, 9),
                       ::testing::Values(1, 2, 8)));

TEST(ParallelForTest, ExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  ParallelForOptions opts;
  opts.pool = &pool;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(
          32,
          [&](size_t i) {
            ran.fetch_add(1);
            if (i == 13) throw std::logic_error("iteration 13");
          },
          opts),
      std::logic_error);
  // No early cancellation: side effects are thread-count-invariant.
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelForTest, OrderedReductionIsDeterministic) {
  // The canonical usage pattern: write slot i, reduce in order afterwards.
  // The reduced value must not depend on the thread count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    ParallelForOptions opts;
    opts.pool = &pool;
    opts.max_parallelism = threads;
    std::vector<double> slots(1000);
    ParallelFor(
        slots.size(),
        [&](size_t i) { slots[i] = 1.0 / (static_cast<double>(i) + 1.0); },
        opts);
    double sum = 0.0;
    for (double v : slots) sum += v;  // fixed-order float reduction
    return sum;
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelForTest, UsesGlobalPoolByDefault) {
  std::set<std::thread::id> seen;
  std::mutex mutex;
  ParallelFor(64, [&](size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), static_cast<size_t>(ThreadPool::Global().num_threads()));
}

TEST(ParallelForTest, RunWidthScopesNestAndRestore) {
  const int outside = CurrentRunWidth();
  EXPECT_EQ(outside, ThreadPool::DefaultThreadCount());
  {
    const RunWidthScope three(3);
    EXPECT_EQ(CurrentRunWidth(), 3);
    {
      const RunWidthScope keep(0);  // 0 keeps the caller's width
      EXPECT_EQ(CurrentRunWidth(), 3);
      const RunWidthScope huge(ThreadPool::kMaxThreads + 9);
      EXPECT_EQ(CurrentRunWidth(), ThreadPool::kMaxThreads);
    }
    EXPECT_EQ(CurrentRunWidth(), 3);
  }
  EXPECT_EQ(CurrentRunWidth(), outside);
}

// A body runs at its loop's width, so a loop it starts with the default
// options is no wider than the loop around it, on any pool.
TEST(ParallelForTest, NestedLoopRunsNoWiderThanItsParent) {
  ThreadPool pool(8);
  ParallelForOptions outer;
  outer.pool = &pool;
  outer.max_parallelism = 2;
  ParallelForOptions inner;
  inner.pool = &pool;
  std::mutex mutex;
  std::vector<std::set<std::thread::id>> seen(4);
  std::vector<int> widths(4, 0);
  ParallelFor(
      seen.size(),
      [&](size_t i) {
        widths[i] = CurrentRunWidth();
        ParallelFor(
            64,
            [&](size_t) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              std::lock_guard<std::mutex> lock(mutex);
              seen[i].insert(std::this_thread::get_id());
            },
            inner);
      },
      outer);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(widths[i], 2) << i;
    EXPECT_GE(seen[i].size(), 1u) << i;
    EXPECT_LE(seen[i].size(), 2u) << i;
  }
}

// This process's thread count, from /proc/self/status; -1 if unreadable.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// A width-1 run starts no thread: every loop runs inline, so the global
// pool is never built. The death-test child is a fresh process, where
// nothing has built the pool yet.
TEST(ParallelForDeathTest, WidthOneRunNeverStartsTheGlobalPool) {
  if (ProcessThreads() < 0) GTEST_SKIP() << "no /proc/self/status";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const int before = ProcessThreads();
        const RunWidthScope width(1);
        auto config = PaperSyntheticConfig(2, 42);
        config->num_objects = 2000;  // several item-block grains
        auto data = GenerateSynthetic(*config);
        const bool ran = data.ok() && Accu().Discover(data->dataset).ok();
        ParallelFor(64, [](size_t) {});
        std::_Exit(ran && ProcessThreads() == before ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ParallelForTest, EffectiveThreadCountResolution) {
  EXPECT_EQ(EffectiveThreadCount(3), 3);
  EXPECT_EQ(EffectiveThreadCount(ThreadPool::kMaxThreads + 50),
            ThreadPool::kMaxThreads);
  EXPECT_EQ(EffectiveThreadCount(0), ThreadPool::DefaultThreadCount());
  EXPECT_EQ(EffectiveThreadCount(-1), ThreadPool::DefaultThreadCount());
}

}  // namespace
}  // namespace tdac
