// PSI-Lib service layer: the group-commit writer.
//
// A GroupCommitter turns single-writer batch-dynamic indexes into an
// epoch-published, sharded store. It is the only component that mutates
// index state, and callers must serialise calls into it (SpatialService
// does, with one commit mutex); everything else — readers, producers — is
// wait-free with respect to it.
//
// Commit protocol for one drained request group:
//   1. Route updates: every insert/delete goes to exactly one shard through
//      the ShardMap (by SFC code of the point), coalescing maximal runs of
//      same-kind ops so FIFO submission order is preserved exactly (a
//      delete-then-insert of the same point nets to present, and vice
//      versa).
//   2. Apply: for each touched shard, take the *standby* replica, wait for
//      it to become quiescent (epoch.h grace period), replay the pending
//      log (the runs the replica missed last time), apply this group's
//      runs in order, and swap the replica in as the shard's live
//      instance. Shards apply in parallel on the fork-join scheduler
//      (parallel_for_shards).
//   3. Rebalance: split any shard whose population exceeds the split
//      threshold at the median SFC code of its contents, and merge adjacent
//      underfull shards — bp-forest's seat split/merge, on curve ranges.
//      Rebuilt shards get two fresh replicas and an empty pending log.
//   4. Publish: a new View (map + live handles) is stamped with the next
//      epoch and swapped in atomically. Update futures resolve with this
//      epoch.
//   5. Answer the group's queries against the just-published view, in
//      parallel over queries. A query drained in group G therefore observes
//      every update of groups <= G and nothing later — group-commit
//      linearisation.
//
// Structure: the committer composes two location-agnostic pieces —
//
//   * a ShardDirectory (shard_map.h): the authoritative record of shard
//     ranges, stable keys, owner nodes, content versions, and the topology
//     stamp. The in-process committer hosts every shard on node 0; the
//     distributed coordinator (net/node.h) drives the identical directory
//     with real placements.
//   * a ShardStore (shard_store.h): the replica slot mechanics — ping-pong
//     standby, grace periods, pending-log replay, replica rebuilds under
//     pinned readers. The same store runs on every node of the distributed
//     service.
//
// The ping-pong standby costs 2x memory and applies every batch twice, and
// in exchange updates never copy a tree and readers never take a lock; the
// replay is batched work on a tree of the same size the live apply just
// handled, so write throughput stays within ~2x of the raw index. All of
// step 2 runs inside the commit, so step 3 may move or drop slots freely.

#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "psi/durability/wal.h"
#include "psi/parallel/primitives.h"
#include "psi/parallel/scheduler.h"
#include "psi/parallel/sort.h"
#include "psi/service/epoch.h"
#include "psi/service/request_queue.h"
#include "psi/service/service_stats.h"
#include "psi/service/shard_map.h"
#include "psi/service/shard_store.h"
#include "psi/service/snapshot.h"
#include "psi/telemetry/metrics.h"
#include "psi/telemetry/trace.h"

namespace psi::service {

struct ServiceConfig {
  std::size_t initial_shards = 4;
  // Drain at most this many requests per commit group (0 = unbounded).
  std::size_t max_group = 0;
  // Split a shard above this many points; merge two adjacent shards whose
  // combined population falls below merge_threshold (0 = split_threshold/4).
  std::size_t split_threshold = std::size_t{1} << 21;
  std::size_t merge_threshold = 0;
  // Never merge below this many shards; 0 = initial_shards, so an explicit
  // shard count acts as a floor and small datasets don't silently collapse
  // to one shard under the (large-scale) default merge threshold.
  std::size_t min_shards = 0;
  std::size_t max_shards = 1024;
  // Background committer wake-up interval (service.h).
  int commit_interval_ms = 1;
  // Query-cache shape (service.h / query_cache.h): number of memo slots,
  // and the size-aware admission budget — list results above this many
  // bytes are answered but not cached.
  std::size_t cache_entries = 16;
  std::size_t cache_max_entry_bytes = std::size_t{1} << 20;
  // Pinned-epoch read retention (api::ReadOptions::pinned): how many
  // published views stay reachable by epoch. 1 (the default) retains only
  // the live view — pinning works for the current epoch and the write path
  // is untouched. Depths > 1 enable "query as of epoch E" over the last N
  // epochs at the cost of a standby-replica rebuild per commit on
  // recently-touched shards (see epoch.h, RetainedViews). Reads past the
  // horizon raise api::EpochRetired; retention never blocks the committer.
  std::size_t retained_epochs = 1;
  // Durability (durability/durability.h): off by default — no WAL, no
  // checkpoints, zero write-path overhead beyond one untaken branch.
  psi::durability::DurabilityConfig durability{};

  std::size_t effective_merge_threshold() const {
    return merge_threshold != 0 ? merge_threshold : split_threshold / 4;
  }
  std::size_t effective_min_shards() const {
    return std::max<std::size_t>(1, min_shards != 0 ? min_shards
                                                    : initial_shards);
  }
};

template <typename Index, typename Codec>
class GroupCommitter {
 public:
  using view_t = View<Index, Codec>;
  using point_t = typename view_t::point_t;
  using box_t = typename view_t::box_t;
  using coord_t = typename view_t::coord_t;
  static constexpr int kDim = view_t::kDim;
  using map_t = typename view_t::map_t;
  using request_t = Request<coord_t, kDim>;
  using result_t = Result<coord_t, kDim>;
  using snapshot_t = Snapshot<Index, Codec>;
  using store_t = ShardStore<Index>;
  using run_t = typename store_t::run_t;
  // The shard factory receives the shard's slot index at creation time, so
  // one service can run *heterogeneous* backends per shard (Index =
  // api::AnyIndex; e.g. SPaC-Z for hot low-id shards, the log-structured
  // baseline for cold ones). Slots created by split/merge ask the factory
  // with the index the new slot will occupy; a slot's replicas always come
  // from the same factory id, so live and standby stay the same backend.
  using factory_t = typename store_t::factory_t;

  GroupCommitter(ServiceConfig cfg, factory_t factory)
      : cfg_(cfg),
        dir_(std::max<std::size_t>(1, cfg.initial_shards)),
        store_(std::move(factory)),
        retained_(cfg.retained_epochs) {
    store_.set_metrics(metrics_);
    store_.set_retention_pinned(cfg.retained_epochs > 1);
    store_.init_empty(dir_.num_shards());
    publish();
  }

  // Reader entry point: pin the current view.
  std::shared_ptr<const view_t> acquire() const { return slot_.acquire(); }

  // Pinned-read entry point: the retained view of exactly `epoch`, or
  // nullptr when it fell off the retention horizon (the caller surfaces
  // api::EpochRetired). Every published epoch is retained, so with the
  // default depth 1 this answers only the current epoch.
  std::shared_ptr<const view_t> acquire_at(std::uint64_t epoch) const {
    return retained_.at(epoch);
  }

  // Cheap observers: one relaxed atomic load each, no epoch pin, no
  // replica refcount traffic — the values of the last published view.
  std::uint64_t epoch() const { return epoch_.current(); }
  std::size_t size() const {
    return published_size_.load(std::memory_order_relaxed);
  }

  // Arena footprint of the last published view, mirrored into a shared
  // atomic block at publish time so registry gauges can sample it from any
  // thread, even after this committer is gone (they hold the shared_ptr).
  struct ArenaGauges {
    std::atomic<std::size_t> bytes{0};
    std::atomic<std::size_t> chunks{0};
    std::atomic<std::uint64_t> raw_copies{0};
  };
  std::shared_ptr<const ArenaGauges> arena_gauges() const {
    return arena_gauges_;
  }

  // Bulk load (replaces current contents). The shard map is recomputed
  // with equal-population boundaries at the code quantiles of the data —
  // the static analogue of what split/merge converges to under streaming
  // updates. One encode pass + one parallel sort yields both the
  // boundaries and contiguous per-shard slices, from which both replicas
  // of each shard are built.
  void load(const std::vector<point_t>& pts) {
    PSI_TRACE_SPAN("commit.load");
    const std::size_t n = pts.size();
    std::vector<CodedPoint<point_t>> coded = code_and_sort<Codec>(pts);
    std::vector<std::uint64_t> codes = tabulate<std::uint64_t>(
        n, [&](std::size_t i) { return coded[i].code; });
    // Wholesale replacement: every shard gets a fresh key and version and
    // the topology generation advances, invalidating all cached results.
    dir_.reset(map_t::from_sorted_codes(
        codes, std::max<std::size_t>(1, cfg_.initial_shards)));
    const std::size_t k = dir_.num_shards();
    store_.resize_slots(k);
    parallel_for_shards(k, [&](std::size_t i) {
      // Shard i owns the contiguous sorted slice of codes in its range.
      store_.build_slot_at(i, shard_slice(coded, codes, dir_.map(), i), i);
    });
    rebalance();
    publish();
  }

  // Apply one drained FIFO group. Must be externally serialised.
  void commit(std::vector<request_t> group) {
    if (group.empty()) return;
    const std::size_t k = dir_.num_shards();
    // Per-shard ordered runs of same-kind ops: coalesces into batches while
    // preserving each shard's FIFO op order exactly.
    std::vector<std::vector<run_t>> runs(k);
    std::vector<request_t*> queries;
    bool has_updates = false;
    for (auto& req : group) {
      switch (req.kind) {
        case RequestKind::kInsert:
        case RequestKind::kDelete: {
          const bool is_delete = req.kind == RequestKind::kDelete;
          ++(is_delete ? stats_.ops_delete : stats_.ops_insert);
          auto& shard_runs = runs[dir_.map().shard_of(req.pt)];
          if (shard_runs.empty() || shard_runs.back().is_delete != is_delete) {
            shard_runs.push_back(run_t{is_delete, {}});
          }
          shard_runs.back().pts.push_back(req.pt);
          has_updates = true;
          break;
        }
        case RequestKind::kKnn:
          ++stats_.ops_knn;
          queries.push_back(&req);
          break;
        case RequestKind::kRangeCount:
          ++stats_.ops_range_count;
          queries.push_back(&req);
          break;
        case RequestKind::kRangeList:
          ++stats_.ops_range_list;
          queries.push_back(&req);
          break;
        case RequestKind::kBall:
          ++stats_.ops_ball;
          queries.push_back(&req);
          break;
      }
    }

    if (has_updates) {
      // Durability: serialise the whole group as ONE record (the group is
      // the atomicity unit) BEFORE the apply std::moves the runs away, and
      // before any state mutates. The epoch stamped here is the one
      // publish() will assign — the writer is externally serialised and
      // rebalance never publishes.
      if constexpr (psi::durability::kEnabled) {
        if (wal_ != nullptr) {
          telemetry::ScopedTimer t(&metrics_->wal_append);
          std::vector<psi::durability::CommitShardRef<point_t>> entry;
          entry.reserve(k);
          for (std::size_t i = 0; i < k; ++i) {
            if (!runs[i].empty()) {
              entry.push_back({dir_.key_of(i), dir_.version_of(i), &runs[i]});
            }
          }
          wal_->append(
              psi::durability::encode_commit_record(epoch_.current() + 1,
                                                    entry));
        }
      }
      {
        PSI_TRACE_SPAN("commit.apply");
        std::vector<std::uint64_t> yields(k, 0);
        parallel_for_shards(k, [&](std::size_t i) {
          if (runs[i].empty()) return;
          if constexpr (telemetry::kEnabled) {
            std::uint64_t n_pts = 0;
            for (const run_t& r : runs[i]) n_pts += r.pts.size();
            heat_.record_write(i, n_pts);
          }
          telemetry::ScopedTimer t(
              &metrics_->stage_hist(telemetry::Stage::kApply));
          yields[i] = store_.apply(i, std::move(runs[i]));
          // Distinct indices per task; the version allocator is atomic.
          dir_.touch(i);
        });
        for (auto y : yields) stats_.grace_yields += y;
      }
      {
        PSI_TRACE_SPAN("commit.rebalance");
        rebalance();
      }
      // fsync BEFORE publish: update futures resolve after publication, so
      // when a client observes its ack the record is already on durable
      // media — an acknowledged commit can never be lost to a crash.
      if constexpr (psi::durability::kEnabled) {
        if (wal_ != nullptr) {
          const std::uint64_t ns = wal_->sync();
          if constexpr (telemetry::kEnabled) {
            if (ns != 0) metrics_->wal_fsync.record(ns);
          }
        }
      }
      publish();
    }

    const std::uint64_t epoch = stats_.epoch;
    // Answer queries against the (possibly just republished) current view.
    PSI_TRACE_SPAN("commit.queries");
    snapshot_t snap(acquire());
    parallel_for(
        0, queries.size(),
        [&](std::size_t qi) {
          request_t& req = *queries[qi];
          result_t res;
          res.epoch = epoch;
          switch (req.kind) {
            case RequestKind::kKnn:
              res.points = snap.knn(req.pt, req.k);
              break;
            case RequestKind::kRangeCount:
              res.count = snap.range_count(req.box);
              break;
            case RequestKind::kRangeList:
              res.points = snap.range_list(req.box);
              res.count = res.points.size();
              break;
            case RequestKind::kBall:
              res.points = snap.ball_list(req.pt, req.radius);
              res.count = res.points.size();
              break;
            default:
              break;
          }
          record_queued_latency(req);
          req.promise.set_value(std::move(res));
        },
        1);
    // Update futures resolve after publication: when the future is ready,
    // the op is visible to every subsequent snapshot.
    for (auto& req : group) {
      if (req.kind == RequestKind::kInsert || req.kind == RequestKind::kDelete) {
        result_t res;
        res.epoch = epoch;
        record_queued_latency(req);
        req.promise.set_value(std::move(res));
      }
    }
  }

  ServiceStats stats() const {
    ServiceStats s = stats_;
    s.replica_rebuilds = store_.replica_rebuilds();
    s.arena_bytes = store_.arena_bytes();
    s.arena_chunks = store_.arena_chunks();
    s.handoff_raw_copies = store_.raw_copies();
    s.num_shards = store_.num_slots();
    s.shard_sizes.clear();
    s.shard_sizes.reserve(store_.num_slots());
    s.size_total = 0;
    for (std::size_t i = 0; i < store_.num_slots(); ++i) {
      s.shard_sizes.push_back(store_.size_of(i));
      s.size_total += store_.size_of(i);
    }
    if constexpr (psi::durability::kEnabled) {
      if (wal_ != nullptr) {
        s.wal_appends = wal_->appends();
        s.wal_bytes = wal_->bytes();
      }
    }
    if constexpr (telemetry::kEnabled) {
      s.wal_fsync = telemetry::summarize(metrics_->wal_fsync.snapshot());
      using telemetry::QueuedOp;
      using telemetry::ReadOp;
      // Per logical op: the queued (end-to-end) recordings merged with the
      // direct snapshot read-path recordings of the same op, so both API
      // styles land in one summary. Ball folds its count+list read kinds.
      auto q = [&](QueuedOp o) { return metrics_->queued_hist(o).snapshot(); };
      auto r = [&](ReadOp o) { return metrics_->read_hist(o).snapshot(); };
      s.latency.resize(telemetry::kNumQueuedOps);
      s.latency[static_cast<std::size_t>(QueuedOp::kInsert)] =
          telemetry::summarize(q(QueuedOp::kInsert));
      s.latency[static_cast<std::size_t>(QueuedOp::kDelete)] =
          telemetry::summarize(q(QueuedOp::kDelete));
      s.latency[static_cast<std::size_t>(QueuedOp::kKnn)] =
          telemetry::summarize(q(QueuedOp::kKnn) + r(ReadOp::kKnn));
      s.latency[static_cast<std::size_t>(QueuedOp::kRangeCount)] =
          telemetry::summarize(q(QueuedOp::kRangeCount) +
                               r(ReadOp::kRangeCount));
      s.latency[static_cast<std::size_t>(QueuedOp::kRangeList)] =
          telemetry::summarize(q(QueuedOp::kRangeList) +
                               r(ReadOp::kRangeList));
      s.latency[static_cast<std::size_t>(QueuedOp::kBall)] =
          telemetry::summarize(q(QueuedOp::kBall) + r(ReadOp::kBallCount) +
                               r(ReadOp::kBallList));
      s.stages.resize(telemetry::kNumStages);
      for (std::size_t i = 0; i < telemetry::kNumStages; ++i) {
        s.stages[i] = telemetry::summarize(
            metrics_->stage_hist(static_cast<telemetry::Stage>(i)).snapshot());
      }
      s.shard_heat = heat_.entries();
      s.shard_heat_decayed = heat_.decayed();
    }
    return s;
  }

  // The committer's telemetry bundle (service.h records drain and cache
  // timings into it; always non-null, histograms no-op when disabled).
  const std::shared_ptr<telemetry::ServiceMetrics>& metrics() const {
    return metrics_;
  }

  // Arm the write-ahead log. The writer is owned by the caller
  // (SpatialService), opened AFTER recovery replays the existing log —
  // replayed commits must not be re-logged. Null disarms.
  void set_wal(psi::durability::WalWriter* wal) { wal_ = wal; }

 private:
  // bp-forest style seat management: split overgrown shards at the median
  // code of their contents, merge adjacent underfull neighbours.
  void rebalance() {
    for (std::size_t i = 0; i < store_.num_slots();) {
      if (store_.size_of(i) > cfg_.split_threshold &&
          store_.size_of(i) != store_.unsplittable_at(i) &&
          dir_.num_shards() < cfg_.max_shards) {
        if (split_shard(i)) {
          ++stats_.splits;
          continue;  // re-examine the left half (may still be overgrown)
        }
        store_.set_unsplittable_at(i, store_.size_of(i));
      }
      ++i;
    }
    const std::size_t merge_at = cfg_.effective_merge_threshold();
    const std::size_t min_shards = cfg_.effective_min_shards();
    for (std::size_t i = 0; i + 1 < store_.num_slots();) {
      const std::size_t combined = store_.size_of(i) + store_.size_of(i + 1);
      if (combined < merge_at && store_.num_slots() > min_shards) {
        merge_shards(i);
        ++stats_.merges;
        continue;  // the merged shard may absorb the next neighbour too
      }
      ++i;
    }
  }

  bool split_shard(std::size_t i) {
    const std::vector<point_t> pts = store_.flatten(i);
    // Codes are computed once and sorted with the parallel sample sort:
    // this runs under the commit lock on a threshold-sized shard, so a
    // sequential comparison sort (encoding per comparison) would stall
    // every queued client.
    std::vector<CodedPoint<point_t>> coded = code_and_sort<Codec>(pts);
    const auto cut = split_position(coded);
    if (!cut) return false;
    const auto [mid, boundary] = *cut;
    if (!dir_.split(i, boundary)) return false;
    const std::size_t n = pts.size();
    std::vector<point_t> left = tabulate<point_t>(
        mid, [&](std::size_t j) { return coded[j].pt; });
    std::vector<point_t> right = tabulate<point_t>(
        n - mid, [&](std::size_t j) { return coded[mid + j].pt; });
    // Fresh backends from the factory at the slots' new positions: with a
    // heterogeneous factory a split migrates points across backend types
    // through the common flatten()/build() surface.
    store_.replace_slot(i, left, i);
    store_.insert_slot(i + 1, right, i + 1);
    return true;
  }

  void merge_shards(std::size_t i) {
    std::vector<point_t> pts = store_.flatten(i);
    std::vector<point_t> rhs = store_.flatten(i + 1);
    pts.insert(pts.end(), rhs.begin(), rhs.end());
    dir_.merge(i, dir_.owner_of(i));
    store_.replace_slot(i, pts, i);
    store_.erase_slot(i + 1);
  }

  // Queued-op end-to-end latency: enqueue to promise resolution. Query
  // kinds therefore include the service time of answering against the
  // published view; update kinds end at publication.
  void record_queued_latency(const request_t& req) {
    if constexpr (!telemetry::kEnabled) return;
    if (req.enqueue_ns == 0) return;  // committed without passing the queue
    const std::uint64_t now = telemetry::now_ns();
    metrics_
        ->queued_hist(static_cast<telemetry::QueuedOp>(
            static_cast<std::size_t>(req.kind)))
        .record(now - req.enqueue_ns);
  }

  std::uint64_t publish() {
    PSI_TRACE_SPAN("commit.publish");
    telemetry::ScopedTimer publish_timer(
        &metrics_->stage_hist(telemetry::Stage::kPublish));
    // Heat follows the directory: realign to the (possibly restructured)
    // shard topology by stable key, then fold this epoch's traffic into
    // the EWMA.
    heat_.realign(dir_.keys());
    heat_.decay();
    auto v = std::make_shared<view_t>();
    v->metrics = metrics_;
    v->heat_cells = heat_.cells();
    // The writer is externally serialised, so current()+1 is the epoch
    // advance() will return below.
    const std::uint64_t next = epoch_.current() + 1;
    v->epoch = next;
    v->map = dir_.map();
    v->shard_versions = dir_.versions();
    v->map_stamp = dir_.stamp();
    v->shard_keys = dir_.keys();
    v->shard_owners = dir_.owners();
    v->shards.reserve(store_.num_slots());
    std::size_t total = 0;
    for (std::size_t i = 0; i < store_.num_slots(); ++i) {
      total += store_.size_of(i);
      v->shards.push_back(store_.live(i));
    }
    // Publish the view first, then bump the cheap observers: a reader that
    // sees epoch()/size() report commit N is guaranteed snapshot() returns
    // view N or newer, never older (the converse — a snapshot briefly
    // newer than epoch() — is benign: both are monotone).
    retained_.retain(next, v);
    slot_.publish(std::move(v));
    epoch_.advance();
    published_size_.store(total, std::memory_order_relaxed);
    // Mirror the arena footprint into the shared gauge block here, under
    // the writer: gauge callbacks (registry.h) may fire from any thread —
    // and outlive this committer — so they must not walk the slot array a
    // concurrent split/merge is restructuring.
    arena_gauges_->bytes.store(store_.arena_bytes(),
                               std::memory_order_relaxed);
    arena_gauges_->chunks.store(store_.arena_chunks(),
                                std::memory_order_relaxed);
    arena_gauges_->raw_copies.store(store_.raw_copies(),
                                    std::memory_order_relaxed);
    stats_.epoch = next;
    ++stats_.commits;
    return stats_.epoch;
  }

  ServiceConfig cfg_;
  // The authoritative shard record: ranges, keys, owners, versions, stamp.
  ShardDirectory<coord_t, kDim, Codec> dir_;
  // The replica slots, positionally aligned with dir_.
  store_t store_;
  EpochCounter epoch_;
  SnapshotSlot<view_t> slot_;
  // Epoch-keyed retention ring behind acquire_at (pinned reads).
  RetainedViews<view_t> retained_;
  ServiceStats stats_;
  // Telemetry: the histogram bundle (shared with the store and every
  // published view) and the per-shard heat accounting.
  std::shared_ptr<telemetry::ServiceMetrics> metrics_ =
      std::make_shared<telemetry::ServiceMetrics>();
  telemetry::ShardHeat heat_;
  // Total population of the last published view; read lock-free by
  // SpatialService::size() without constructing a Snapshot.
  std::atomic<std::size_t> published_size_{0};
  std::shared_ptr<ArenaGauges> arena_gauges_ = std::make_shared<ArenaGauges>();
  // Write-ahead log, armed by SpatialService after recovery (never owned).
  psi::durability::WalWriter* wal_ = nullptr;
};

}  // namespace psi::service
