// PSI-Lib telemetry: the service-layer instrument bundle.
//
// ServiceMetrics groups the histograms one service (or one distributed
// shard host) records into: end-to-end queued-op latency per request kind,
// snapshot read-path latency per query kind, per-stage commit
// timings, and cache hit/miss service times. It is shared by shared_ptr
// between the group committer (owner), the shard store (which records the
// grace and replay stages of its apply), and every published View (so
// readers record into it without touching the committer) — histograms are
// individually thread-safe, so no further coordination is needed.
//
// ShardHeat is the per-shard access-skew accounting the ROADMAP's
// heat-driven autopilot consumes: one cache-line-padded pair of relaxed
// read/write counters per shard, keyed positionally but *carried across
// topology changes by the shard's stable key* (realign), with a per-epoch
// EWMA fold (decay) so "hot" means hot recently, not hot ever. The cell
// vector is published inside each View by shared_ptr: readers of an old
// view keep bumping the old cells, whose counts are dropped at the next
// realign — an acceptable undercount during the brief topology-change
// window, in exchange for a read path with zero synchronisation beyond
// one relaxed fetch_add per routed shard.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "psi/telemetry/histogram.h"
#include "psi/telemetry/telemetry.h"

namespace psi::telemetry {

// Queued (end-to-end) op kinds; mirrors service::RequestKind order.
enum class QueuedOp : std::size_t {
  kInsert = 0,
  kDelete,
  kKnn,
  kRangeCount,
  kRangeList,
  kBall,
};
inline constexpr std::size_t kNumQueuedOps = 6;

// Snapshot read-path kinds. The streaming visits fold into the list
// kinds (range_visit -> kRangeList, ball_visit -> kBallList): same
// traversal, and the materialising adapters do not route through the
// visits, so nothing is double-counted.
enum class ReadOp : std::size_t {
  kKnn = 0,
  kRangeCount,
  kRangeList,
  kBallCount,
  kBallList,
};
inline constexpr std::size_t kNumReadOps = 5;

// Commit stages (group_commit.h / shard_store.h / service.h).
enum class Stage : std::size_t {
  kDrain = 0,   // queue drain (per commit group)
  kApply,       // per-shard standby apply + swap (per shard)
  kReplay,      // pending-log replay onto the standby (per shard)
  kGrace,       // grace-period wait inside apply (per shard)
  kPublish,     // view construction + epoch swap (per commit)
};
inline constexpr std::size_t kNumStages = 5;

inline const char* queued_op_name(std::size_t i) {
  static const char* kNames[kNumQueuedOps] = {
      "insert", "delete", "knn", "range_count", "range_list", "ball"};
  return kNames[i];
}
inline const char* read_op_name(std::size_t i) {
  static const char* kNames[kNumReadOps] = {"knn", "range_count", "range_list",
                                            "ball_count", "ball_list"};
  return kNames[i];
}
inline const char* stage_name(std::size_t i) {
  static const char* kNames[kNumStages] = {"drain", "apply", "replay", "grace",
                                           "publish"};
  return kNames[i];
}

struct ServiceMetrics {
  std::vector<std::unique_ptr<Histogram>> queued =
      make_hists(kNumQueuedOps);
  std::vector<std::unique_ptr<Histogram>> read = make_hists(kNumReadOps);
  std::vector<std::unique_ptr<Histogram>> stage = make_hists(kNumStages);
  Histogram cache_hit;
  Histogram cache_miss;
  // Durability write path: time to serialise+append a commit record and
  // time spent in the pre-publish fsync.
  Histogram wal_append;
  Histogram wal_fsync;

  Histogram& queued_hist(QueuedOp o) {
    return *queued[static_cast<std::size_t>(o)];
  }
  Histogram& read_hist(ReadOp o) { return *read[static_cast<std::size_t>(o)]; }
  Histogram& stage_hist(Stage s) {
    return *stage[static_cast<std::size_t>(s)];
  }

 private:
  // Histograms are non-movable (atomics), so the arrays hold unique_ptrs.
  static std::vector<std::unique_ptr<Histogram>> make_hists(std::size_t n) {
    std::vector<std::unique_ptr<Histogram>> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(std::make_unique<Histogram>());
    }
    return v;
  }
};

// One shard's heat on the wire / in stats: raw cumulative counters keyed
// by the shard's stable key.
struct HeatEntry {
  std::uint64_t key = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

class ShardHeat {
 public:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> writes{0};
  };
  using cells_t = std::vector<Cell>;

  // Per-epoch EWMA weight: heat halves every epoch without fresh traffic.
  static constexpr double kDecay = 0.5;

  // Writer side; all calls externally serialised (the commit lock / host
  // mutation mutex). Readers only ever touch the published cells.

  // Match the cell array to the current shard topology. Counters, EWMA,
  // and deltas carry over for keys that survive; new keys start cold.
  // Re-publishing the SAME keys keeps the same cells (the common
  // every-commit call is a cheap vector compare).
  void realign(const std::vector<std::uint64_t>& keys) {
    if constexpr (!kEnabled) return;
    if (cells_ && keys == keys_) return;
    auto fresh = std::make_shared<cells_t>(keys.size());
    std::vector<std::uint64_t> last_r(keys.size(), 0), last_w(keys.size(), 0);
    std::vector<double> ewma(keys.size(), 0.0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t old = index_of(keys[i]);
      if (old == npos) continue;
      (*fresh)[i].reads.store((*cells_)[old].reads.load(
                                  std::memory_order_relaxed),
                              std::memory_order_relaxed);
      (*fresh)[i].writes.store((*cells_)[old].writes.load(
                                   std::memory_order_relaxed),
                               std::memory_order_relaxed);
      last_r[i] = last_reads_[old];
      last_w[i] = last_writes_[old];
      ewma[i] = ewma_[old];
    }
    cells_ = std::move(fresh);
    keys_ = keys;
    last_reads_ = std::move(last_r);
    last_writes_ = std::move(last_w);
    ewma_ = std::move(ewma);
  }

  // Fold the traffic since the last call into the EWMA. Call once per
  // published epoch.
  void decay() {
    if constexpr (!kEnabled) return;
    if (!cells_) return;
    for (std::size_t i = 0; i < cells_->size(); ++i) {
      const std::uint64_t r =
          (*cells_)[i].reads.load(std::memory_order_relaxed);
      const std::uint64_t w =
          (*cells_)[i].writes.load(std::memory_order_relaxed);
      const double delta = static_cast<double>((r - last_reads_[i]) +
                                               (w - last_writes_[i]));
      ewma_[i] = kDecay * ewma_[i] + delta;
      last_reads_[i] = r;
      last_writes_[i] = w;
    }
  }

  void record_write(std::size_t i, std::uint64_t n) {
    if constexpr (!kEnabled) return;
    if (!cells_ || i >= cells_->size()) return;
    (*cells_)[i].writes.fetch_add(n, std::memory_order_relaxed);
  }

  // The published cell array (null when telemetry is disabled).
  const std::shared_ptr<cells_t>& cells() const { return cells_; }

  // Observers (writer-serialised, like the mutators).
  std::vector<std::uint64_t> reads() const { return load(&Cell::reads); }
  std::vector<std::uint64_t> writes() const { return load(&Cell::writes); }
  const std::vector<double>& decayed() const { return ewma_; }

  std::vector<HeatEntry> entries() const {
    std::vector<HeatEntry> out;
    if (!cells_) return out;
    out.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      out.push_back(HeatEntry{
          keys_[i], (*cells_)[i].reads.load(std::memory_order_relaxed),
          (*cells_)[i].writes.load(std::memory_order_relaxed)});
    }
    return out;
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t index_of(std::uint64_t key) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return i;
    }
    return npos;
  }

  std::vector<std::uint64_t> load(
      std::atomic<std::uint64_t> Cell::* field) const {
    std::vector<std::uint64_t> out;
    if (!cells_) return out;
    out.reserve(cells_->size());
    for (const Cell& c : *cells_) {
      out.push_back((c.*field).load(std::memory_order_relaxed));
    }
    return out;
  }

  std::shared_ptr<cells_t> cells_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> last_reads_, last_writes_;
  std::vector<double> ewma_;
};

// Bump the read counter of shards [lo, hi] in a published cell array.
// Null-safe: views published with telemetry disabled carry no cells.
inline void record_reads(const std::shared_ptr<ShardHeat::cells_t>& cells,
                         std::size_t lo, std::size_t hi) {
  if constexpr (!kEnabled) return;
  if (!cells) return;
  for (std::size_t i = lo; i <= hi && i < cells->size(); ++i) {
    (*cells)[i].reads.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void record_read(const std::shared_ptr<ShardHeat::cells_t>& cells,
                        std::size_t i) {
  if constexpr (!kEnabled) return;
  if (!cells) return;
  if (i < cells->size()) {
    (*cells)[i].reads.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace psi::telemetry
