#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace autolock::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleItem) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, AggregatesCorrectSum) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<long> results(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) {
    results[i] = static_cast<long>(i) * 2;
  });
  const long sum = std::accumulate(results.begin(), results.end(), 0L);
  EXPECT_EQ(sum, static_cast<long>(kN * (kN - 1)));
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, NestedCallFromWorkerThrows) {
  // A body that fans out on the pool running it would park every worker on
  // tasks queued behind them; the inner call must throw instead, and the
  // outer call must rethrow that and return.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t) {
                                   pool.parallel_for(
                                       4, [&](std::size_t) { ++inner_runs; });
                                 }),
               std::logic_error);
  EXPECT_EQ(inner_runs.load(), 0);
  // The pool stays usable, and a call from off-pool threads still works.
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, ExceptionStillCompletesOtherWork) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  try {
    pool.parallel_for(20, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("boom");
      ++done;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(done.load(), 19);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, MoreItemsThanThreads) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ChunkedGrainCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> seen(101);
    pool.parallel_for(
        101, [&](std::size_t i) { ++seen[i]; }, grain);
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPool, ShardedReportsValidShardIds) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::atomic<bool> shard_in_range{true};
  pool.parallel_for_sharded(50, [&](std::size_t shard, std::size_t) {
    if (shard >= 3) shard_in_range = false;
    ++count;
  });
  EXPECT_EQ(count.load(), 50);
  EXPECT_TRUE(shard_in_range.load());
}

TEST(ThreadPool, ShardedSameShardRunsSequentially) {
  // Two indices claimed by the same shard must never run concurrently —
  // that is what makes shard-indexed workspaces safe without locks.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> in_flight(2);
  std::atomic<bool> overlap{false};
  pool.parallel_for_sharded(40, [&](std::size_t shard, std::size_t) {
    if (in_flight[shard].fetch_add(1) != 0) overlap = true;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    in_flight[shard].fetch_sub(1);
  });
  EXPECT_FALSE(overlap.load());
}

}  // namespace
}  // namespace autolock::util
