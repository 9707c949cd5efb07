#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

namespace autolock::util {

namespace {

/// The pool whose worker_loop runs on this thread (null off-pool).
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_sharded(
      n, [&fn](std::size_t, std::size_t index) { fn(index); }, grain);
}

void ThreadPool::parallel_for_sharded(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  // Every worker would block below waiting for tasks queued behind it.
  if (current_pool == this) {
    throw std::logic_error(
        "ThreadPool: nested parallel_for from one of the pool's own workers");
  }
  if (n == 0) return;
  if (grain == 0) grain = 1;

  // Shared control block owned by every enqueued task copy. parallel_for
  // can return while unstarted task copies are still queued (when one
  // worker drains all indices); those stragglers must find valid state, see
  // next >= n, and exit without ever touching `fn` — which is only
  // guaranteed alive until the call returns.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::condition_variable done_cv;
    std::mutex done_mutex;
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->grain = grain;
  state->fn = &fn;

  // One task per worker (not per index); each task claims `grain` indices
  // per fetch from the shared counter so uneven per-index costs (typical
  // for GA individuals) balance out without per-index queue traffic.
  const std::size_t shards = std::min((n + grain - 1) / grain,
                                      std::max<std::size_t>(workers_.size(), 1));
  const auto body = [state](std::size_t shard) {
    for (;;) {
      const std::size_t begin = state->next.fetch_add(state->grain);
      if (begin >= state->n) break;
      const std::size_t end = std::min(begin + state->grain, state->n);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*state->fn)(shard, i);
        } catch (...) {
          const std::scoped_lock lock(state->error_mutex);
          if (!state->first_error) {
            state->first_error = std::current_exception();
          }
        }
      }
      if (state->done.fetch_add(end - begin) + (end - begin) == state->n) {
        const std::scoped_lock lock(state->done_mutex);
        state->done_cv.notify_all();
      }
    }
  };

  {
    const std::scoped_lock lock(mutex_);
    for (std::size_t s = 0; s < shards; ++s) {
      tasks_.emplace([body, s] { body(s); });
    }
  }
  cv_.notify_all();

  std::unique_lock lock(state->done_mutex);
  state->done_cv.wait(lock, [&] { return state->done.load() >= n; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace autolock::util
