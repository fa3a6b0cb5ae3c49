// Fixed-size thread pool with a shared FIFO queue.
//
// Used by the measurement-campaign runner (simulating thousands of training
// runs), batch embedding generation, and the Cluster Resource Collector's
// per-server probes.  Tasks are type-erased std::function<void()>; submit()
// returns a std::future for result/exception propagation.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace pddl {

class ThreadPool {
 public:
  // `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a callable; the returned future carries its result or exception.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         ... captured = std::forward<Args>(args)]() mutable -> R {
          return std::invoke(std::move(fn), std::move(captured)...);
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      PDDL_CHECK(!stopping_, "submit() after ThreadPool destruction began");
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  // Non-throwing variant for callers that race pool teardown (e.g. the
  // prediction service dispatching micro-batches during shutdown): returns
  // std::nullopt instead of failing when the pool is stopping, so the caller
  // can fall back to running the task inline.
  template <typename F, typename... Args>
  auto try_submit(F&& f, Args&&... args)
      -> std::optional<std::future<std::invoke_result_t<F, Args...>>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         ... captured = std::forward<Args>(args)]() mutable -> R {
          return std::invoke(std::move(fn), std::move(captured)...);
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return std::nullopt;
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  // Block until every task submitted so far has finished.
  void wait_idle();

  // Stop accepting new tasks, drain the queue, and join the workers.
  // Idempotent; the destructor calls it.  After shutdown(), submit() throws
  // and try_submit() returns std::nullopt.
  void shutdown();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace pddl
