// ParallelFor: index coverage, schedule-independent slot writes, inline
// degeneration (sequential, nested, and busy pool), thread-count
// resolution, and exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eval/parallel.h"

namespace gcon {
namespace {

TEST(ResolveThreads, PassesPositiveThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  const int resolved = ResolveThreads(0);
  EXPECT_GE(resolved, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(resolved, static_cast<int>(hw));
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 9}) {
    const int n = 37;
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    for (auto& v : visits) v.store(0);
    ParallelFor(n, threads, [&](int i) {
      visits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, SlotOutputsAreScheduleIndependent) {
  const int n = 64;
  std::vector<int> sequential(static_cast<std::size_t>(n));
  std::vector<int> parallel(static_cast<std::size_t>(n));
  auto fill = [](std::vector<int>* out) {
    return [out](int i) { (*out)[static_cast<std::size_t>(i)] = i * i + 3; };
  };
  ParallelFor(n, 1, fill(&sequential));
  ParallelFor(n, 5, fill(&parallel));
  EXPECT_EQ(sequential, parallel);
}

TEST(ParallelFor, SequentialRunsInIndexOrder) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, EmptyAndNegativeRangesAreNoOps) {
  int calls = 0;
  ParallelFor(0, 4, [&](int) { ++calls; });
  ParallelFor(-3, 4, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, MoreThreadsThanWorkIsSafe) {
  std::atomic<int> sum{0};
  ParallelFor(3, 16, [&](int i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ParallelFor, RethrowsFirstExceptionOnCaller) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        ParallelFor(32, threads,
                    [](int i) {
                      if (i == 7) throw std::runtime_error("boom");
                    }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST(ParallelFor, AbandonsRemainingWorkAfterException) {
  // With one worker the remaining indices must not run after the throw;
  // with several, only indices already claimed may still finish.
  std::atomic<int> ran{0};
  try {
    ParallelFor(1000, 2, [&](int i) {
      if (i == 0) throw std::invalid_argument("stop");
      ran.fetch_add(1);
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::invalid_argument&) {
  }
  EXPECT_LT(ran.load(), 1000);
}

TEST(WorkerPool, RunFromSecondThreadIsInlineWhilePoolIsBusy) {
  // One thread's job holds the pool until released; a Run from another
  // plain thread must not wait for it, but cover every index on its own
  // thread. A bounded wait turns the old serialize-and-block behavior into
  // a failure instead of a hang.
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ParallelFor(2, 2, [&](int) {
      holding.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();

  constexpr int kN = 64;
  std::vector<int> visits(kN, 0);
  std::atomic<int> off_thread{0};
  std::atomic<bool> finished{false};
  std::thread second([&] {
    const std::thread::id self = std::this_thread::get_id();
    WorkerPool::Global().Run(kN, 4, [&](int i) {
      ++visits[static_cast<std::size_t>(i)];
      if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
    });
    finished.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool finished_while_busy = finished.load();
  release.store(true);
  holder.join();
  second.join();
  EXPECT_TRUE(finished_while_busy);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(visits, std::vector<int>(kN, 1));
}

}  // namespace
}  // namespace gcon
