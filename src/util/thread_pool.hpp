// Fixed-size thread pool with a blocking parallel_for, used to evaluate GA
// population fitness concurrently (each individual's MuxLink attack run is
// independent) and to fan out a campaign's lock jobs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace autolock::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for all i in [0, n), distributing across workers, and blocks
  /// until every index has completed. Exceptions thrown by fn propagate
  /// (the first one captured is rethrown after all work finishes).
  ///
  /// `grain` is the number of consecutive indices a worker claims per fetch
  /// from the shared counter: 1 gives the finest load balancing (GA
  /// individuals with very uneven attack costs), larger grains amortize the
  /// atomic traffic for cheap uniform bodies.
  ///
  /// Not reentrant: a call from one of this pool's own workers (a body that
  /// fans out on the pool running it) throws std::logic_error instead of
  /// deadlocking on tasks queued behind the blocked workers. Work nested
  /// inside a fan-out must run sequentially or on a different pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Like parallel_for, but the callback also receives the id of the task
  /// shard executing it (in [0, min(n, size()))). One shard runs strictly
  /// sequentially, so shard-indexed scratch state (e.g. one EvalWorkspace
  /// per shard) needs no synchronization. Index-to-shard assignment is
  /// timing-dependent; callers must not let it influence results. The same
  /// nested-call rule as parallel_for applies.
  void parallel_for_sharded(
      std::size_t n,
      const std::function<void(std::size_t shard, std::size_t index)>& fn,
      std::size_t grain = 1);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace autolock::util
