// PSI-Lib service layer: epoch-based snapshot versioning.
//
// The service publishes an immutable *view* (shard map + per-shard index
// snapshots) per commit epoch. Readers acquire the current view with one
// atomic shared_ptr load and run an entire query against it; the writer
// publishes the next epoch with one atomic store. Readers therefore never
// block the writer and the writer never blocks readers — the only
// synchronisation point is reclamation: before the writer may *mutate* a
// retired instance (the ping-pong standby, see group_commit.h) it must wait
// for the instance to become quiescent, i.e. for every reader that acquired
// an older epoch to drop its reference. This is the classical grace period
// of epoch-based reclamation (RCU): in steady state a query finishes well
// within one commit interval, so the wait is almost always zero.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace psi::service {

// Monotone epoch counter. One increment per published commit group.
class EpochCounter {
 public:
  std::uint64_t current() const { return epoch_.load(std::memory_order_acquire); }
  std::uint64_t advance() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

 private:
  std::atomic<std::uint64_t> epoch_{0};
};

// Atomically published snapshot slot. `T` is an immutable view object; the
// slot owns the current version and hands out shared references to readers.
//
// std::atomic<std::shared_ptr> would do, but a spinlocked slot keeps us
// independent of libstdc++'s free-function availability and the hot path is
// two refcount operations either way.
template <typename T>
class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  explicit SnapshotSlot(std::shared_ptr<const T> initial)
      : current_(std::move(initial)) {}

  // Reader side: grab a reference to the current version.
  std::shared_ptr<const T> acquire() const {
    std::lock_guard<SpinLock> g(lock_);
    return current_;
  }

  // Writer side: publish a new version; the previous version stays alive
  // until the last reader drops it.
  void publish(std::shared_ptr<const T> next) {
    std::shared_ptr<const T> old;  // destroyed outside the lock
    {
      std::lock_guard<SpinLock> g(lock_);
      old = std::move(current_);
      current_ = std::move(next);
    }
  }

 private:
  struct SpinLock {
    void lock() {
      while (flag.test_and_set(std::memory_order_acquire)) {
#if defined(__cpp_lib_atomic_flag_test)
        while (flag.test(std::memory_order_relaxed)) {
        }
#endif
      }
    }
    void unlock() { flag.clear(std::memory_order_release); }
    std::atomic_flag flag = ATOMIC_FLAG_INIT;
  };

  mutable SpinLock lock_;
  std::shared_ptr<const T> current_;
};

// Bounded ring of recently published views, keyed by epoch: the retention
// half of pinned-epoch reads (api::ReadOptions). The writer retains every
// published view; once the ring exceeds its depth the *oldest entry is
// dropped* — retention never blocks the committer. Dropping an entry only
// releases a reference: a pinned reader that acquired the view earlier
// keeps it alive through its own shared_ptr (the usual RCU discipline);
// what a dropped epoch loses is *discoverability* — at() returns nullptr
// and the service surfaces EpochRetired.
//
// Note the write-path cost of depth > 1: a retained view pins the replica
// that the ping-pong writer would otherwise recycle as its standby, so
// every commit to a recently-touched shard rebuilds the standby instead of
// replaying onto it (`replica_rebuilds` in stats). That is the honest price
// of multi-version reads on a two-replica store; depth 1 (the default)
// retains only the live view and leaves the write path untouched.
template <typename T>
class RetainedViews {
 public:
  explicit RetainedViews(std::size_t depth = 1) : depth_(depth ? depth : 1) {}

  std::size_t depth() const { return depth_; }

  // Writer side: remember `view` as the publication of `epoch`, evicting
  // the oldest entry beyond the depth. Epochs must be retained in
  // increasing order (they are: publication is serialised).
  void retain(std::uint64_t epoch, std::shared_ptr<const T> view) {
    std::lock_guard<std::mutex> g(mu_);
    ring_.push_back(Slot{epoch, std::move(view)});
    while (ring_.size() > depth_) ring_.pop_front();
  }

  // Reader side: the retained view of exactly `epoch`, or nullptr if it
  // was never retained / already evicted.
  std::shared_ptr<const T> at(std::uint64_t epoch) const {
    std::lock_guard<std::mutex> g(mu_);
    for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
      if (it->epoch == epoch) return it->view;
      if (it->epoch < epoch) break;  // ring is sorted by epoch
    }
    return nullptr;
  }

  // Reader side: every retained view, newest first (the distributed host
  // searches these for an exact shard-version match, see node.h).
  std::vector<std::shared_ptr<const T>> all() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::shared_ptr<const T>> out;
    out.reserve(ring_.size());
    for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
      out.push_back(it->view);
    }
    return out;
  }

 private:
  struct Slot {
    std::uint64_t epoch;
    std::shared_ptr<const T> view;
  };

  mutable std::mutex mu_;
  std::deque<Slot> ring_;
  std::size_t depth_;
};

// Reclamation guard: wait until `handle` is the only remaining reference
// to its object, i.e. all readers of older epochs have finished. Returns
// {quiesced, iterations spent waiting} — 0 iterations in the uncontended
// steady state; the service surfaces the total in stats as `grace_yields`.
//
// The wait is *bounded* (`max_iters`): a reader that pins an old snapshot
// indefinitely — including the degenerate case of the committing thread
// itself holding one — must not wedge the writer, so on timeout the caller
// abandons the pinned replica and clones a fresh one instead (see
// ShardStore::apply in shard_store.h, `replica_rebuilds` in stats).
struct GraceResult {
  bool quiesced = true;
  std::uint64_t iters = 0;
};

template <typename T>
GraceResult await_quiescent(const std::shared_ptr<T>& handle,
                            std::uint64_t max_iters = 4096) {
  GraceResult r;
  // use_count is approximate under concurrency in general, but here it can
  // only *decrease* once the slot no longer hands the pointer out (the
  // writer re-published a newer version first), so ==1 is a stable state.
  while (handle.use_count() > 1) {
    if (r.iters >= max_iters) {
      r.quiesced = false;
      return r;
    }
    ++r.iters;
    if (r.iters < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // The poll above observes the departed readers' release-decrements with
  // a plain load, which does NOT synchronize — without an acquire edge the
  // caller's subsequent mutation of *handle formally races with the
  // readers' final accesses (ThreadSanitizer flags exactly this). A
  // copy+drop of the handle is an acq-rel RMW pair on the same refcount,
  // so it reads the tail of the readers' release sequence and acquires it:
  // everything a departed reader did before releasing now happens-before
  // the mutation. (An atomic_thread_fence(acquire) would also be correct,
  // but TSan does not reliably model bare fences.)
  std::shared_ptr<T> acquire_edge = handle;
  acquire_edge.reset();
  return r;
}

}  // namespace psi::service
