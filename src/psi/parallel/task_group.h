// PSI-Lib: dynamic N-way fork-join on top of the work-stealing scheduler.
//
// `par_do` forks exactly two closures and only parallelises when called from
// a pool thread — a foreign thread (the service's background committer, a
// client thread running a snapshot query) silently degrades to sequential
// execution. AsyncTask/TaskGroup close both gaps:
//
//  * AsyncTask is a single detached task with an explicit join. Spawning
//    enqueues the job for the pool (foreign threads park it on deque 0,
//    from which workers steal it); join() claims-and-runs the job if nobody
//    stole it, otherwise waits — executing other pool work meanwhile when
//    the joiner is itself a pool thread. It is the building block of
//    TaskGroup below.
//  * TaskGroup owns any number of AsyncTasks and joins them all in wait()
//    (rethrowing the first captured exception after every task finished).
//    Snapshot queries use it to fan out over shards from reader threads.
//
// With num_workers() == 1 a spawn runs the closure inline, so all users
// keep the library-wide sequential fast path.
//
// Lifetime rules: a task must be joined before its AsyncTask is destroyed
// (the destructor joins, swallowing exceptions — join explicitly to see
// them), and the pool must not be restarted (set_num_workers) while tasks
// are in flight.

#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "psi/parallel/scheduler.h"

namespace psi {

namespace detail {

// A heap-owned job wrapping a copyable callable (unlike the on-stack
// JobImpl of par_do, the spawner's frame may unwind before execution).
struct OwnedJob final : Job {
  explicit OwnedJob(std::function<void()> f) : fn(std::move(f)) {}
  void execute() override { fn(); }
  std::function<void()> fn;
};

}  // namespace detail

class AsyncTask {
 public:
  AsyncTask() = default;

  // Spawn: enqueue the callable for the pool, or run it inline (exceptions
  // propagating immediately) when the pool is sequential.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, AsyncTask>>>
  explicit AsyncTask(F&& f) {
    Scheduler& s = Scheduler::instance();
    if (s.num_workers() <= 1) {
      f();
      return;
    }
    job_ = std::make_unique<detail::OwnedJob>(
        std::function<void()>(std::forward<F>(f)));
    s.submit(job_.get());
  }

  AsyncTask(AsyncTask&&) noexcept = default;
  AsyncTask& operator=(AsyncTask&& o) {
    if (this != &o) {
      join();
      job_ = std::move(o.job_);
    }
    return *this;
  }
  AsyncTask(const AsyncTask&) = delete;
  AsyncTask& operator=(const AsyncTask&) = delete;

  ~AsyncTask() {
    try {
      join();
    } catch (...) {
      // Destruction discards the task's exception; join() to observe it.
    }
  }

  // An unjoined in-flight task? (False for inline-executed spawns.)
  bool valid() const { return job_ != nullptr; }

  // Join: run the job inline if it is still unclaimed, else wait for its
  // thief. Rethrows the task's exception. No-op when not valid().
  void join() {
    if (!job_) return;
    Scheduler& s = Scheduler::instance();
    if (s.try_claim(job_.get())) {
      job_->run();
    } else {
      s.help_until(*job_);
    }
    std::exception_ptr err = job_->error;
    job_.reset();  // releases the closure (and anything it captured)
    if (err) std::rethrow_exception(err);
  }

 private:
  std::unique_ptr<detail::OwnedJob> job_;
};

// Dynamic fork-join region: spawn any number of tasks, join them all.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() {
    try {
      wait();
    } catch (...) {
      // As with AsyncTask: call wait() to observe task exceptions.
    }
  }

  template <typename F>
  void spawn(F&& f) {
    tasks_.emplace_back(std::forward<F>(f));
  }

  std::size_t size() const { return tasks_.size(); }

  // Join every spawned task; rethrow the first exception once all have
  // finished. The group is reusable afterwards.
  void wait() {
    std::exception_ptr first;
    // Newest-first: the newest task is the likeliest to still sit at the
    // back of our deque, so join() claims it without waiting.
    for (auto it = tasks_.rbegin(); it != tasks_.rend(); ++it) {
      try {
        it->join();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    tasks_.clear();
    if (first) std::rethrow_exception(first);
  }

 private:
  std::deque<AsyncTask> tasks_;
};

}  // namespace psi
