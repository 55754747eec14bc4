// PSI-Lib service layer: the replica slot store.
//
// A ShardStore owns the *physical* side of a set of shards: for each slot a
// ping-pong replica pair (live + standby) and the pending log between them.
// It is the piece of the group-commit writer that is purely about replica
// mechanics — grace periods, pending-log replay, replica rebuilds when a
// pinned reader wedges the standby — with no knowledge of shard *identity*:
// which code range, key, owner node, or version a slot corresponds to is
// its caller's business (GroupCommitter keeps slots positionally aligned
// with its ShardDirectory; a net::ShardHost keys them by global shard key).
//
// Extracted from GroupCommitter so the same replica discipline runs both
// in the single-process service and on every node of the distributed
// service: a remote commit batch shipped to a ShardHost lands in exactly
// this apply() — wait the grace period, replay the pending log, apply the
// new runs, swap live — that the in-process writer uses. All of it happens
// inside the commit: the store has one writer and no background tasks.
//
// Thread contract: all mutating calls (apply, slot insert/replace/erase,
// clear) must be externally serialised per store, except that apply() on
// *distinct* slots may run concurrently (the parallel per-shard commit).
// Readers never touch the store; they hold shared_ptrs to live replicas
// published elsewhere (snapshot.h / node.h), which is what the grace
// periods wait out.

#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "psi/api/concepts.h"
#include "psi/service/epoch.h"
#include "psi/telemetry/metrics.h"
#include "psi/telemetry/trace.h"

namespace psi::service {

// ---------------------------------------------------------------------------
// Relocatable-arena dispatch (api::RelocatableIndex, core/arena)
// ---------------------------------------------------------------------------
// One set of helpers usable with both concrete backends (capability known at
// compile time) and api::AnyIndex (capability is the wrapped backend's — a
// runtime relocatable() flag). Callers gate on index_relocatable() and only
// then touch the arena calls; the if-constexpr branches compile out entirely
// for backends without the capability.

template <typename Index>
inline bool index_relocatable(const Index& idx) {
  if constexpr (requires(const Index& c) {
                  { c.relocatable() } -> std::convertible_to<bool>;
                }) {
    return idx.relocatable();  // AnyIndex: ask the wrapped backend
  } else {
    (void)idx;
    return api::RelocatableIndex<Index>;
  }
}

template <typename Index>
inline std::vector<std::uint8_t> serialize_index_arena(const Index& idx) {
  if constexpr (api::RelocatableIndex<Index>) {
    return idx.serialize_arena();
  } else {
    (void)idx;
    return {};
  }
}

template <typename Index>
inline void adopt_index_arena(Index& idx, const std::uint8_t* data,
                              std::size_t n) {
  if constexpr (api::RelocatableIndex<Index>) {
    idx.adopt_arena(data, n);  // AnyIndex throws if the backend can't
  } else {
    (void)idx;
    (void)data;
    (void)n;
    // Routing an arena image at a backend without the capability is a
    // caller bug (callers gate on index_relocatable), never data loss.
    throw std::logic_error("adopt_index_arena: backend is not relocatable");
  }
}

template <typename Index>
inline std::size_t index_arena_bytes(const Index& idx) {
  if constexpr (api::RelocatableIndex<Index>) {
    return index_relocatable(idx) ? idx.arena_bytes() : 0;
  } else {
    (void)idx;
    return 0;
  }
}

template <typename Index>
inline std::size_t index_arena_chunks(const Index& idx) {
  if constexpr (api::RelocatableIndex<Index>) {
    return index_relocatable(idx) ? idx.arena_chunks() : 0;
  } else {
    (void)idx;
    return 0;
  }
}

// A maximal run of same-kind update ops, in FIFO order. The unit of both
// the pending log and the wire format for remote commit batches (wire.h).
template <typename PointT>
struct OpRun {
  bool is_delete = false;
  std::vector<PointT> pts;
};

template <typename Index>
class ShardStore {
 public:
  using point_t = typename Index::point_t;
  using run_t = OpRun<point_t>;
  // Per-shard factory: Index(factory_id). With Index = api::AnyIndex the
  // id selects the backend type; a slot's replicas always come from the
  // same id so live and standby stay the same backend.
  using factory_t = std::function<Index(std::size_t)>;

  explicit ShardStore(factory_t factory) : factory_(std::move(factory)) {}

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  std::size_t num_slots() const { return slots_.size(); }

  // -------------------------------------------------------------------
  // Slot lifecycle
  // -------------------------------------------------------------------

  // K fresh empty slots with factory ids 0..k-1 (service construction).
  void init_empty(std::size_t k) {
    clear();
    slots_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      slots_[i].origin = i;
      slots_[i].live = make_index(i);
      slots_[i].standby = make_index(i);
    }
  }

  // Drop all slots (bulk load is about to replace them wholesale).
  void clear() { slots_.clear(); }

  // Resize to k default (empty, replica-less) slots; pair with
  // build_slot_at from a parallel loop.
  void resize_slots(std::size_t k) {
    clear();
    slots_.resize(k);
  }

  // Build slot i's replica pair from `pts`. Safe concurrently on distinct
  // slots (the bulk-load partition loop).
  void build_slot_at(std::size_t i, const std::vector<point_t>& pts,
                     std::size_t factory_id) {
    slots_[i] = build_slot(pts, factory_id);
  }

  // Insert a freshly built slot at `pos` (split/merge restructuring).
  void insert_slot(std::size_t pos, const std::vector<point_t>& pts,
                   std::size_t factory_id) {
    slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(pos),
                  build_slot(pts, factory_id));
  }

  // Replace the slot at `pos` with a rebuilt one.
  void replace_slot(std::size_t pos, const std::vector<point_t>& pts,
                    std::size_t factory_id) {
    slots_[pos] = build_slot(pts, factory_id);
  }

  // ---- raw-arena slot operations (RelocatableIndex fast path) ---------
  // A relocatable slot moves as one CRC-framed arena image: the shard
  // handoff source serializes the live replica, the destination adopts the
  // same image into both replicas — no flatten, no re-sort, no per-point
  // rebuild. adopt_arena validates before install, so a corrupt image
  // throws out of here with the slot array unchanged (insert) or the old
  // slot intact (replace constructs the new slot first).

  bool slot_relocatable(std::size_t i) const {
    return index_relocatable(*slots_[i].live);
  }

  // Serialized arena image of slot i's live replica. Caller must be the
  // (externally serialised) writer; concurrent readers are fine.
  std::vector<std::uint8_t> serialize_slot(std::size_t i) const {
    return serialize_index_arena(*slots_[i].live);
  }

  // Both return the adopted shard's cardinality (the install ack size).
  std::size_t insert_slot_raw(std::size_t pos, const std::uint8_t* data,
                              std::size_t n, std::size_t factory_id) {
    ShardSlot s = build_slot_raw(data, n, factory_id);
    const std::size_t size = s.live->size();
    slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(s));
    return size;
  }

  std::size_t replace_slot_raw(std::size_t pos, const std::uint8_t* data,
                               std::size_t n, std::size_t factory_id) {
    ShardSlot s = build_slot_raw(data, n, factory_id);
    const std::size_t size = s.live->size();
    slots_[pos] = std::move(s);
    return size;
  }

  // Raw arena-image copies performed (slot installs + replica clones).
  std::uint64_t raw_copies() const {
    return raw_copies_.load(std::memory_order_relaxed);
  }
  // Committed arena bytes/chunks across all live replicas (0 for
  // non-relocatable backends).
  std::size_t arena_bytes() const {
    std::size_t total = 0;
    for (const auto& s : slots_) total += index_arena_bytes(*s.live);
    return total;
  }
  std::size_t arena_chunks() const {
    std::size_t total = 0;
    for (const auto& s : slots_) total += index_arena_chunks(*s.live);
    return total;
  }

  // Erase the slot at `pos`; in-flight *readers* of the live replica stay
  // safe through their own shared_ptr (the RCU grace discipline — dropping
  // a slot never frees a replica a reader still pins).
  void erase_slot(std::size_t pos) {
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  // -------------------------------------------------------------------
  // Observers
  // -------------------------------------------------------------------

  const std::shared_ptr<Index>& live(std::size_t i) const {
    return slots_[i].live;
  }
  std::size_t size_of(std::size_t i) const { return slots_[i].live->size(); }
  std::vector<point_t> flatten(std::size_t i) const {
    return slots_[i].live->flatten();
  }
  // Factory id slot i's replicas were created with (a shard handoff ships
  // this along so the destination rebuilds the same backend type).
  std::size_t origin_of(std::size_t i) const { return slots_[i].origin; }
  // Split-attempt memo (see GroupCommitter::rebalance).
  std::size_t unsplittable_at(std::size_t i) const {
    return slots_[i].unsplittable_at;
  }
  void set_unsplittable_at(std::size_t i, std::size_t n) {
    slots_[i].unsplittable_at = n;
  }
  std::uint64_t replica_rebuilds() const {
    return replica_rebuilds_.load(std::memory_order_relaxed);
  }

  // Telemetry sink for the grace/replay stage timings apply() records.
  // Shared with the owner, which reads the same histograms for its stats.
  void set_metrics(std::shared_ptr<telemetry::ServiceMetrics> m) {
    metrics_ = std::move(m);
  }

  // Tell the store that published views are *retained* beyond the current
  // epoch (ServiceConfig::retained_epochs > 1). A retained view pins the
  // replica the ping-pong writer wants to recycle, so for recently-touched
  // shards the grace wait can never succeed: shrink it to a few yields
  // (cold shards still quiesce on the first check) and fall straight
  // through to the replica rebuild. Retention must never block the
  // committer — this is the mechanism.
  void set_retention_pinned(bool pinned) { retention_pinned_ = pinned; }

  // -------------------------------------------------------------------
  // The commit path
  // -------------------------------------------------------------------

  // Wait out the grace period on slot i's standby, replay the pending log,
  // apply the group's runs and swap the standby live. Safe concurrently on
  // distinct slots. Returns grace-period yields.
  std::uint64_t apply(std::size_t i, std::vector<run_t> group_runs) {
    ShardSlot& s = slots_[i];
    std::uint64_t yields = 0;
    {
      telemetry::ScopedTimer grace_timer(
          metrics_ ? &metrics_->stage_hist(telemetry::Stage::kGrace)
                   : nullptr);
      const GraceResult grace = await_quiescent(
          s.standby, retention_pinned_ ? kPinnedGraceIters : 4096);
      yields = grace.iters;
      if (!grace.quiesced) {
        // A stale reader (possibly this very thread, holding a snapshot
        // across a flush) pins the replica: abandon it and clone live,
        // which already contains the pending log. A relocatable backend
        // clones as one raw arena copy (serialize + validate + adopt);
        // everything else pays the flatten + rebuild.
        s.standby = make_index(s.origin);
        clone_into(*s.live, *s.standby);
        s.pending.clear();
        ++replica_rebuilds_;
      }
    }
    Index& idx = *s.standby;
    if (!s.pending.empty()) {
      PSI_TRACE_SPAN("replay");
      telemetry::ScopedTimer replay_timer(
          metrics_ ? &metrics_->stage_hist(telemetry::Stage::kReplay)
                   : nullptr);
      for (const run_t& run : s.pending) apply_run(idx, run);
    }
    for (const run_t& run : group_runs) apply_run(idx, run);
    std::swap(s.live, s.standby);
    s.pending = std::move(group_runs);
    return yields;
  }

 private:
  // Grace budget under view retention: pure yields, no sleeps (see
  // await_quiescent — iterations < 64 only yield), so a pinned standby
  // costs microseconds before the rebuild, not the 4096-iteration
  // sleep-wait of the default budget.
  static constexpr std::uint64_t kPinnedGraceIters = 48;

  struct ShardSlot {
    std::shared_ptr<Index> live;     // state as of the last publication
    std::shared_ptr<Index> standby;  // lags live by exactly the pending log
    std::vector<run_t> pending;      // runs applied to live but not standby
    // Factory id this slot's replicas were created with; replica rebuilds
    // reuse it so live and standby stay the same backend type even after
    // later splits/merges shifted the slot's position.
    std::size_t origin = 0;
    // Size at which the last split attempt failed (one giant equal-code
    // run). Skips re-paying flatten+sort every commit until the shard's
    // population actually changes.
    std::size_t unsplittable_at = 0;
  };

  std::shared_ptr<Index> make_index(std::size_t factory_id) const {
    return std::make_shared<Index>(factory_(factory_id));
  }

  ShardSlot build_slot(const std::vector<point_t>& pts,
                       std::size_t factory_id) const {
    ShardSlot s;
    s.origin = factory_id;
    s.live = make_index(factory_id);
    s.live->build(pts);
    s.standby = make_index(factory_id);
    // The standby is a clone of live: a relocatable backend copies the
    // just-built arena instead of paying the full sort + build a second
    // time (every split/merge/load builds a slot, so this halves the
    // rebuild work on those paths).
    clone_into(*s.live, *s.standby);
    return s;
  }

  // Both replicas adopt the same validated image (handoff destination).
  ShardSlot build_slot_raw(const std::uint8_t* data, std::size_t n,
                           std::size_t factory_id) const {
    ShardSlot s;
    s.origin = factory_id;
    s.live = make_index(factory_id);
    adopt_index_arena(*s.live, data, n);
    s.standby = make_index(factory_id);
    adopt_index_arena(*s.standby, data, n);
    raw_copies_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }

  // Make dst contentwise equal to src: raw arena copy when relocatable,
  // flatten + build otherwise. The flatten vector is reserved from the
  // known size inside flatten() and consumed in place — no extra copy.
  void clone_into(const Index& src, Index& dst) const {
    if (index_relocatable(src)) {
      const std::vector<std::uint8_t> image = serialize_index_arena(src);
      adopt_index_arena(dst, image.data(), image.size());
      raw_copies_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    dst.build(src.flatten());
  }

  static void apply_run(Index& idx, const run_t& run) {
    if (run.pts.empty()) return;
    if (run.is_delete) {
      idx.batch_delete(run.pts);
    } else {
      idx.batch_insert(run.pts);
    }
  }

  factory_t factory_;
  bool retention_pinned_ = false;
  std::shared_ptr<telemetry::ServiceMetrics> metrics_;
  std::vector<ShardSlot> slots_;
  // Incremented from the parallel per-shard apply, hence atomic.
  std::atomic<std::uint64_t> replica_rebuilds_{0};
  // Raw arena-image copies (mutable: build_slot/clone_into are const-path
  // helpers; incremented from parallel slot builds, hence atomic).
  mutable std::atomic<std::uint64_t> raw_copies_{0};
};

}  // namespace psi::service
