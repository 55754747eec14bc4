// PSI-Lib net layer: nodes of the distributed service.
//
// Two roles, connected only through a Transport (transport.h) speaking the
// wire format (wire.h) — never through shared pointers:
//
//   * ShardHost — one per node. Owns the *replicas* of the shards placed on
//     it (a service::ShardStore keyed by stable shard key) and acts as the
//     node-local group committer: a kCommitBatch lands in exactly the
//     settle-replay / grace-period / pending-log / swap discipline the
//     in-process writer uses, followed by an atomic publication of the
//     node-local read view. Queries execute lock-free against that view —
//     a host serves reads at full speed while a commit is in flight, and a
//     reply piggybacks the content version of every shard it answered
//     from, which is what lets remote clients reuse cached results across
//     epochs (query_cache.h).
//
//   * Coordinator — exactly one. Owns the authoritative ShardDirectory
//     (shard ranges, stable keys, placements, content versions, topology
//     stamp — shard_map.h) and every write: it routes update batches into
//     per-shard runs, ships one kCommitBatch per touched node (in
//     parallel), joins the epoch acks, and then rebalances — splitting
//     overgrown shards, merging underfull neighbours, and *migrating*
//     shards between nodes (fetch → install → atomic route flip → drop;
//     the RCU grace discipline of the host's published views keeps
//     in-flight readers of the old location safe, and readers that race
//     the drop retry through the refreshed route).
//
// The message protocol is strictly coordinator/client -> host; hosts never
// call out. That acyclicity is what makes the blocking RPC transport safe:
// no cycle of threads waiting on each other's handlers can form.
//
// Consistency contract (the distributed read path): each *shard* is
// answered from exactly one host-published view — per-shard atomicity —
// but a read-committed query fanning out across nodes may observe
// different commits on different shards if a commit lands mid-fan-out.
// The piggybacked version vector makes this detectable: the client only
// admits a result to its cache when every piggybacked version matches the
// route view it planned with. Pinned reads (wire v3) close the gap to
// snapshot isolation: the client fans out the exact per-shard content
// versions its pinned route names, and hosts answer each shard from
// whichever retained publication still holds that version — the union is
// the global state at the pinned epoch, by construction. A version past
// the retention horizon comes back in the reply's retired list and
// surfaces as api::EpochRetired.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "psi/durability/checkpoint.h"
#include "psi/durability/recovery.h"
#include "psi/geometry/knn_buffer.h"
#include "psi/net/transport.h"
#include "psi/net/wire.h"
#include "psi/parallel/task_group.h"
#include "psi/service/epoch.h"
#include "psi/service/group_commit.h"  // ServiceConfig
#include "psi/service/shard_map.h"
#include "psi/service/shard_store.h"
#include "psi/service/snapshot.h"
#include "psi/sfc/codec.h"
#include "psi/telemetry/metrics.h"
#include "psi/telemetry/trace.h"

namespace psi::net {

// ---------------------------------------------------------------------------
// ShardHost
// ---------------------------------------------------------------------------

template <typename Index>
class ShardHost {
 public:
  using point_t = typename Index::point_t;
  using coord_t = typename point_t::coord_t;
  static constexpr int kDim = point_t::kDim;
  using box_t = Box<coord_t, kDim>;
  using store_t = service::ShardStore<Index>;
  using run_t = typename store_t::run_t;
  using factory_t = typename store_t::factory_t;

  // Binds itself on the transport; unbound (and hence quiescent) again in
  // the destructor. The host must outlive any in-flight call to it —
  // Transport::unbind guarantees that by completing in-flight handlers.
  // With `dur` armed, every kCommitBatch is appended to this node's local
  // WAL and fsync'd before the ack — the coordinator's commit cut relies
  // on an acked batch being on this host's durable media.
  //
  // `retained_epochs` > 1 keeps that many node-view publications alive so
  // pinned reads (wire v3) can be answered at the exact shard versions a
  // client's pinned route names, even after later commits replaced the
  // live replicas. The store is switched to its retention-pinned grace
  // discipline in that case (shard_store.h) so commits never block on the
  // pinned replicas.
  ShardHost(NodeId id, Transport& transport, factory_t factory,
            psi::durability::DurabilityConfig dur = {},
            std::size_t retained_epochs = 1)
      : id_(id),
        transport_(transport),
        store_(std::move(factory)),
        retained_views_(retained_epochs),
        dur_(std::move(dur)) {
    store_.set_metrics(metrics_);
    store_.set_retention_pinned(retained_epochs > 1);
    if (dur_.armed()) wal_.open(dur_.dir, dur_);
    publish();
    transport_.bind_stream(
        id_, [this](NodeId from, Message req, StreamWriter& stream) {
          return handle(from, std::move(req), stream);
        });
  }

  ~ShardHost() { transport_.unbind(id_); }

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  NodeId id() const { return id_; }

  // Snapshot relocatable slots as raw arena images (default). The facade
  // turns this off when DistributedConfig::arena_handoff is off so the
  // fig15 comparison can measure the point-wise checkpoint path.
  void set_arena_checkpoints(bool v) { arena_checkpoints_ = v; }

  // Diagnostic observers (tests). Reads the published view — safe from any
  // thread.
  std::size_t hosted_shards() const {
    return view_slot_.acquire()->entries.size();
  }
  std::size_t hosted_points() const {
    // Bind the view first: a range-for over `acquire()->entries` would
    // destroy the temporary shared_ptr before the loop body runs (C++20 —
    // P2718's lifetime extension is C++23), letting a concurrent publish
    // free the vector mid-iteration.
    const std::shared_ptr<const view_t> view = view_slot_.acquire();
    std::size_t n = 0;
    for (const auto& e : view->entries) n += e.index->size();
    return n;
  }

  // Snapshot every hosted shard to this node's durability directory and
  // truncate the local WAL below it (durability/checkpoint.h). Driven by
  // the facade's checkpoint_all(); no-op unless constructed durable.
  // Commits are stalled for the duration — host checkpoints are explicit,
  // coarse events, not a per-commit cost.
  void checkpoint() {
    if (!wal_.is_open()) return;
    std::lock_guard<std::mutex> g(mu_);
    psi::durability::Manifest m;
    m.epoch = last_epoch_;
    m.watermark = wal_.rotate();
    const std::uint64_t watermark = m.watermark;
    std::vector<psi::durability::CheckpointShard<coord_t, kDim>> shards;
    m.shards.reserve(keys_.size());
    shards.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      psi::durability::ManifestShard s;
      s.key = keys_[i];
      s.version = versions_[i];
      s.factory_id = store_.origin_of(i);
      m.shards.push_back(std::move(s));
      // Relocatable slots snapshot as one raw arena image (serialize is a
      // header + chunk memcpy — no flatten, no per-point encode); the rest
      // take the point codec.
      psi::durability::CheckpointShard<coord_t, kDim> data;
      if (arena_checkpoints_ && store_.slot_relocatable(i)) {
        data.image = store_.serialize_slot(i);
      } else {
        data.pts = store_.flatten(i);
      }
      shards.push_back(std::move(data));
    }
    psi::durability::write_checkpoint<coord_t, kDim>(dur_.dir, std::move(m),
                                                     shards, dur_.fsync);
    wal_.truncate_below(watermark);
  }

  bool durable() const { return wal_.is_open(); }

 private:
  // The node-local read view: one immutable entry per hosted shard,
  // published atomically after every mutation. Queries bind to one view
  // for their whole execution — per-shard read atomicity, and the RCU
  // grace discipline (readers pin replicas via shared_ptr; the store's
  // standby mutation waits out old views) carries over unchanged.
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t version = 0;
    std::shared_ptr<const Index> index;
  };
  // Entries plus the heat cells positionally aligned with them: queries
  // bump the read counter of the entries they actually touch with one
  // relaxed fetch_add (cells null when telemetry is disabled).
  struct view_t {
    std::vector<Entry> entries;
    std::shared_ptr<telemetry::ShardHeat::cells_t> heat;
  };

  Message handle(NodeId /*from*/, Message req, StreamWriter& stream) {
    try {
      switch (req.type) {
        case MsgType::kCommitBatch:
          return on_commit(req);
        case MsgType::kQuery:
          return on_query(req, stream);
        case MsgType::kInstallShard:
          return on_install(req);
        case MsgType::kFetchShard:
          return on_fetch(req);
        case MsgType::kDropShard:
          return on_drop(req);
        case MsgType::kStat:
          return on_stat();
        case MsgType::kTelemetry:
          return on_telemetry();
        default:
          return make_error("host: unexpected message type");
      }
    } catch (const std::exception& e) {
      return make_error(std::string("host ") + std::to_string(id_) + ": " +
                        e.what());
    }
  }

  // kCommitBatch: [u64 epoch][u32 n]{u64 key, u64 version, runs}*
  // -> kCommitAck: [u64 epoch][u32 n]{u64 key, u64 size}*
  Message on_commit(Message& req) {
    PSI_TRACE_SPAN("host.commit");
    WireReader r(req);
    const std::uint64_t epoch = r.get_u64();
    const std::uint32_t n = r.get_u32();
    struct Batch {
      std::size_t slot;
      std::uint64_t key, version;
      std::vector<run_t> runs;
    };
    std::vector<Batch> batches;
    batches.reserve(n);
    std::lock_guard<std::mutex> g(mu_);
    for (std::uint32_t i = 0; i < n; ++i) {
      Batch b;
      b.key = r.get_u64();
      b.version = r.get_u64();
      b.runs = r.template get_runs<point_t>();
      b.slot = slot_of(b.key);
      if (b.slot == npos) {
        throw WireError("commit addressed unknown shard key " +
                        std::to_string(b.key));
      }
      // The parallel apply below requires distinct slots; a frame naming
      // one shard twice is corrupt (the coordinator coalesces per shard).
      for (const Batch& prev : batches) {
        if (prev.slot == b.slot) {
          throw WireError("commit names shard key " + std::to_string(b.key) +
                          " twice");
        }
      }
      batches.push_back(std::move(b));
    }
    // Log the whole batch as one WAL record *before* apply moves the runs
    // out, fsync'd below before the ack leaves: the coordinator's commit
    // cut treats an acked epoch as on this node's durable media.
    if constexpr (psi::durability::kEnabled) {
      if (wal_.is_open()) {
        telemetry::ScopedTimer t(&metrics_->wal_append);
        std::vector<psi::durability::CommitShardRef<point_t>> entry;
        entry.reserve(batches.size());
        for (const Batch& b : batches) {
          entry.push_back({b.key, b.version, &b.runs});
        }
        wal_.append(psi::durability::encode_commit_record(epoch, entry));
        if (epoch > last_epoch_) last_epoch_ = epoch;
      }
    }
    // Apply in parallel over distinct slots — the same fork the in-process
    // writer uses — then publish the new node view once.
    TaskGroup tasks;
    for (auto& b : batches) {
      if constexpr (telemetry::kEnabled) {
        std::uint64_t n_pts = 0;
        for (const run_t& run : b.runs) n_pts += run.pts.size();
        host_heat_.record_write(b.slot, n_pts);
      }
      tasks.spawn([this, &b] {
        telemetry::ScopedTimer t(
            &metrics_->stage_hist(telemetry::Stage::kApply));
        store_.apply(b.slot, std::move(b.runs));
      });
    }
    tasks.wait();
    for (const auto& b : batches) versions_[b.slot] = b.version;
    publish();

    if constexpr (psi::durability::kEnabled) {
      if (wal_.is_open()) {
        const std::uint64_t ns = wal_.sync();
        if constexpr (telemetry::kEnabled) {
          if (ns != 0) metrics_->wal_fsync.record(ns);
        }
      }
    }

    WireWriter w;
    w.put_u64(epoch);
    w.put_u32(n);
    for (const auto& b : batches) {
      w.put_u64(b.key);
      w.put_u64(store_.size_of(b.slot));
    }
    return std::move(w).finish(MsgType::kCommitAck);
  }

  // kQuery (wire v3):
  //   [u8 kind][u8 flags][u32 chunk_points][u32 credit][params]
  //   [u32 nkeys]{u64 key, u64 version}*
  // The version is the shard content version the caller's route expects;
  // checked only when kQueryFlagPinned is set (read-committed callers send
  // 0). Plain reply -> kQueryResult:
  //   [u32 n_present]{u64 key, u64 version}* [u32 n_missing]{u64 key}*
  //   [u32 n_retired]{u64 key}* [payload: points (list/knn) | u64 (count)]
  // With kQueryFlagStream on a list kind, the payload instead flows as
  // 0+ kQueryChunk frames of at most chunk_points points each (gated by
  // the caller's credit window) and the final frame is kQueryDone:
  //   [present/missing/retired as above]
  //   [u64 total_points][u64 chunks][u64 backpressure_waits]
  // Lock-free: executes entirely against acquired immutable views.
  Message on_query(Message& req, StreamWriter& stream) {
    PSI_TRACE_SPAN("host.query");
    WireReader r(req);
    const auto kind = static_cast<QueryKind>(r.get_u8());
    const std::uint8_t flags = r.get_u8();
    const std::uint32_t chunk_points = r.get_u32();
    const std::uint32_t credit = r.get_u32();
    const bool pinned = (flags & kQueryFlagPinned) != 0;
    const bool list_kind = kind == QueryKind::kRangeList ||
                           kind == QueryKind::kBallList ||
                           kind == QueryKind::kKnn;
    const bool streamed = (flags & kQueryFlagStream) != 0 && list_kind;
    telemetry::ScopedTimer timer(&metrics_->read_hist(read_op_of(kind)));
    box_t box{};
    point_t q{};
    double radius = 0;
    std::uint64_t k = 0;
    switch (kind) {
      case QueryKind::kRangeList:
      case QueryKind::kRangeCount:
        box = r.template get_box<coord_t, kDim>();
        break;
      case QueryKind::kBallList:
      case QueryKind::kBallCount:
        q = r.template get_point<coord_t, kDim>();
        radius = r.get_f64();
        break;
      case QueryKind::kKnn:
        q = r.template get_point<coord_t, kDim>();
        k = r.get_u64();
        break;
    }
    const std::uint32_t nkeys = r.get_u32();
    // The views this query may answer from: just the live publication, or
    // — for a pinned read — every retained one, newest first. Each held
    // shared_ptr pins its replicas for the whole execution (RCU).
    std::vector<std::shared_ptr<const view_t>> views;
    if (pinned) {
      views = retained_views_.all();
    } else {
      views.push_back(view_slot_.acquire());
    }
    const view_t& newest = *views.front();
    // Heat accounting tracks live traffic only: an entry's position in the
    // current publication is its heat cell; pinned hits on older retained
    // views don't count.
    const auto heat_of = [&](const Entry* e) {
      if (e >= newest.entries.data() &&
          e < newest.entries.data() + newest.entries.size()) {
        telemetry::record_read(
            newest.heat, static_cast<std::size_t>(e - newest.entries.data()));
      }
    };
    // One sorted (key -> entry) index over the newest view per request: a
    // kNN fan-out asks for every hosted shard, so per-key linear scans
    // would be O(h^2) on the hot read path. Older views (pinned fallback
    // only, bounded retention depth) are scanned linearly.
    std::vector<std::pair<std::uint64_t, const Entry*>> by_key;
    by_key.reserve(newest.entries.size());
    for (const Entry& e : newest.entries) by_key.emplace_back(e.key, &e);
    std::sort(by_key.begin(), by_key.end());
    std::vector<const Entry*> present;
    std::vector<std::uint64_t> missing;
    std::vector<std::uint64_t> retired;
    for (std::uint32_t i = 0; i < nkeys; ++i) {
      const std::uint64_t key = r.get_u64();
      const std::uint64_t want_version = r.get_u64();
      const auto it = std::lower_bound(
          by_key.begin(), by_key.end(), key,
          [](const auto& kv, std::uint64_t kk) { return kv.first < kk; });
      const Entry* live =
          (it != by_key.end() && it->first == key) ? it->second : nullptr;
      if (!pinned) {
        if (live != nullptr) {
          present.push_back(live);
        } else {
          missing.push_back(key);  // migrated away: the client re-routes
        }
        continue;
      }
      // Pinned: serve the exact content version the caller's route named,
      // from whichever retained publication still holds it.
      const Entry* found =
          (live != nullptr && live->version == want_version) ? live : nullptr;
      bool key_seen = live != nullptr;
      for (std::size_t vi = 1; found == nullptr && vi < views.size(); ++vi) {
        for (const Entry& e : views[vi]->entries) {
          if (e.key != key) continue;
          key_seen = true;
          if (e.version == want_version) found = &e;
          break;
        }
      }
      if (found != nullptr) {
        present.push_back(found);
      } else if (key_seen) {
        retired.push_back(key);  // version fell off the retention horizon
      } else {
        missing.push_back(key);  // migrated away: the client re-routes
      }
    }

    const auto put_keysets = [&](WireWriter& w) {
      w.put_u32(static_cast<std::uint32_t>(present.size()));
      for (const Entry* e : present) {
        w.put_u64(e->key);
        w.put_u64(e->version);
      }
      w.put_u32(static_cast<std::uint32_t>(missing.size()));
      for (std::uint64_t key : missing) w.put_u64(key);
      w.put_u32(static_cast<std::uint32_t>(retired.size()));
      for (std::uint64_t key : retired) w.put_u64(key);
    };

    // Streamed list reply: points leave in bounded chunks as the scan
    // produces them — the reply buffer never holds more than one chunk —
    // and the summary rides in the final kQueryDone frame.
    if (streamed) {
      stream.arm(credit == 0 ? kDefaultStreamCredit : credit);
      const std::size_t cap =
          chunk_points == 0 ? kDefaultStreamChunkPoints : chunk_points;
      std::vector<point_t> buf;
      buf.reserve(cap);
      std::uint64_t total = 0;
      std::uint64_t chunks = 0;
      bool open = true;
      const auto flush = [&] {
        if (buf.empty() || !open) return;
        WireWriter cw;
        cw.put_points(buf);
        open = stream.send(std::move(cw).finish(MsgType::kQueryChunk));
        if (open) ++chunks;
        buf.clear();
      };
      const auto emit = [&](const point_t& p) {
        if (!open) return;  // receiver gone / aborted: stop buffering
        ++total;
        buf.push_back(p);
        if (buf.size() >= cap) flush();
      };
      switch (kind) {
        case QueryKind::kRangeList:
          for (const Entry* e : present) {
            heat_of(e);
            e->index->range_visit(box, emit);
          }
          break;
        case QueryKind::kBallList:
          for (const Entry* e : present) {
            heat_of(e);
            e->index->ball_visit(q, radius, emit);
          }
          break;
        case QueryKind::kKnn:
          for (const auto& entry : knn_local(present, q, k, heat_of)) {
            emit(entry);
          }
          break;
        default:
          break;
      }
      flush();
      WireWriter w;
      put_keysets(w);
      w.put_u64(total);
      w.put_u64(chunks);
      w.put_u64(stream.backpressure_waits());
      return std::move(w).finish(MsgType::kQueryDone);
    }

    WireWriter w;
    put_keysets(w);
    switch (kind) {
      case QueryKind::kRangeList: {
        std::vector<point_t> out;
        auto collect = [&](const point_t& p) { out.push_back(p); };
        for (const Entry* e : present) {
          heat_of(e);
          e->index->range_visit(box, collect);
        }
        w.put_points(out);
        break;
      }
      case QueryKind::kRangeCount: {
        std::uint64_t total = 0;
        for (const Entry* e : present) {
          heat_of(e);
          total += e->index->range_count(box);
        }
        w.put_u64(total);
        break;
      }
      case QueryKind::kBallList: {
        std::vector<point_t> out;
        auto collect = [&](const point_t& p) { out.push_back(p); };
        for (const Entry* e : present) {
          heat_of(e);
          e->index->ball_visit(q, radius, collect);
        }
        w.put_points(out);
        break;
      }
      case QueryKind::kBallCount: {
        std::uint64_t total = 0;
        for (const Entry* e : present) {
          heat_of(e);
          total += e->index->ball_count(q, radius);
        }
        w.put_u64(total);
        break;
      }
      case QueryKind::kKnn: {
        w.put_points(knn_local(present, q, k, heat_of));
        break;
      }
    }
    return std::move(w).finish(MsgType::kQueryResult);
  }

  // Node-local top-k across the given shard entries, nearest shard first
  // with root-box pruning — the same walk Snapshot::knn_visit_seq does
  // over a view. The client merges the per-node top-k lists.
  template <typename HeatFn>
  std::vector<point_t> knn_local(const std::vector<const Entry*>& present,
                                 const point_t& q, std::uint64_t k,
                                 const HeatFn& heat_of) const {
    struct Cand {
      double dist2;
      const Entry* e;
    };
    std::vector<Cand> order;
    order.reserve(present.size());
    std::uint64_t population = 0;
    for (const Entry* e : present) {
      population += e->index->size();
      if (e->index->size() == 0) continue;
      order.push_back(Cand{min_squared_distance(e->index->bounds(), q), e});
    }
    std::sort(order.begin(), order.end(),
              [](const Cand& a, const Cand& b) { return a.dist2 < b.dist2; });
    // Clamp k to the queried population before anything reserves: this
    // node can never return more candidates than it holds, and a corrupt
    // frame's k = 2^60 must not turn into a huge allocation (same
    // discipline as the reader's count checks, wire.h).
    const auto keff =
        static_cast<std::size_t>(std::min<std::uint64_t>(k, population));
    KnnBuffer<point_t> buf(keff);
    for (const Cand& c : order) {
      if (buf.full() && c.dist2 >= buf.worst()) break;
      heat_of(c.e);  // heat counts shards actually searched
      c.e->index->knn_visit(q, keff, [&](const point_t& p) {
        buf.offer(squared_distance(p, q), p);
      });
    }
    std::vector<point_t> out;
    out.reserve(buf.sorted().size());
    for (const auto& entry : buf.sorted()) out.push_back(entry.point);
    return out;
  }

  // kInstallShard: [u64 key][u64 version][u64 factory_id][u8 format]
  // then points (kShardFormatPoints) or a CRC-framed arena image blob
  // (kShardFormatArena) -> kOk: [u64 size]. Adopts (or replaces) a shard —
  // bulk load, split output, and handoff destination all land here. A
  // corrupt or mismatched arena image is rejected by adopt (validated
  // before install), surfacing as kError with the slot untouched.
  Message on_install(Message& req) {
    PSI_TRACE_SPAN("host.install");
    WireReader r(req);
    const std::uint64_t key = r.get_u64();
    const std::uint64_t version = r.get_u64();
    const auto factory_id = static_cast<std::size_t>(r.get_u64());
    const std::uint8_t format = r.get_u8();
    std::vector<point_t> pts;
    std::vector<std::uint8_t> image;
    if (format == kShardFormatArena) {
      image = r.get_blob();
    } else if (format == kShardFormatPoints) {
      pts = r.template get_points<coord_t, kDim>();
    } else {
      throw WireError("install: unknown shard format " +
                      std::to_string(format));
    }
    std::lock_guard<std::mutex> g(mu_);
    const std::size_t slot = slot_of(key);
    // Fallible store mutation FIRST (Index::build / adopt can throw),
    // metadata second: an exception must leave keys_/versions_ aligned
    // with the slot array and must not stamp a new version onto old
    // contents.
    std::size_t installed;
    if (slot == npos) {
      installed = format == kShardFormatArena
                      ? store_.insert_slot_raw(store_.num_slots(),
                                               image.data(), image.size(),
                                               factory_id)
                      : (store_.insert_slot(store_.num_slots(), pts,
                                            factory_id),
                         pts.size());
      keys_.push_back(key);
      versions_.push_back(version);
    } else {
      installed = format == kShardFormatArena
                      ? store_.replace_slot_raw(slot, image.data(),
                                                image.size(), factory_id)
                      : (store_.replace_slot(slot, pts, factory_id),
                         pts.size());
      versions_[slot] = version;
    }
    publish();
    WireWriter w;
    w.put_u64(installed);
    return std::move(w).finish(MsgType::kOk);
  }

  // kFetchShard: [u64 key][u8 allow_raw] -> kShardData:
  // [u64 key][u64 version][u64 factory_id][u8 format] then points or an
  // arena image blob. The raw fast path is taken only when the caller
  // allows it AND the slot's backend is relocatable — split/merge/flatten
  // fetches need the points themselves and always pass allow_raw = 0.
  Message on_fetch(Message& req) {
    PSI_TRACE_SPAN("host.fetch");
    WireReader r(req);
    const std::uint64_t key = r.get_u64();
    const bool allow_raw = r.get_u8() != 0;
    std::lock_guard<std::mutex> g(mu_);
    const std::size_t slot = slot_of(key);
    if (slot == npos) {
      throw WireError("fetch of unknown shard key " + std::to_string(key));
    }
    WireWriter w;
    w.put_u64(key);
    w.put_u64(versions_[slot]);
    w.put_u64(store_.origin_of(slot));
    if (allow_raw && store_.slot_relocatable(slot)) {
      w.put_u8(kShardFormatArena);
      w.put_blob(store_.serialize_slot(slot));
    } else {
      w.put_u8(kShardFormatPoints);
      w.put_points(store_.flatten(slot));
    }
    return std::move(w).finish(MsgType::kShardData);
  }

  // kDropShard: [u64 key] -> kOk. Releases a shard after handoff/merge.
  // In-flight readers of older views keep the replicas alive through their
  // shared_ptrs — dropping is a publication event, not a free.
  Message on_drop(Message& req) {
    PSI_TRACE_SPAN("host.drop");
    WireReader r(req);
    const std::uint64_t key = r.get_u64();
    std::lock_guard<std::mutex> g(mu_);
    const std::size_t slot = slot_of(key);
    if (slot != npos) {
      store_.erase_slot(slot);
      keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(slot));
      versions_.erase(versions_.begin() + static_cast<std::ptrdiff_t>(slot));
      publish();
    }
    return Message{MsgType::kOk, {}};
  }

  // kStat -> kStatReply: [u32 n]{u64 key, u64 version, u64 size}*
  Message on_stat() {
    const std::shared_ptr<const view_t> view = view_slot_.acquire();
    WireWriter w;
    w.put_u32(static_cast<std::uint32_t>(view->entries.size()));
    for (const Entry& e : view->entries) {
      w.put_u64(e.key);
      w.put_u64(e.version);
      w.put_u64(e.index->size());
    }
    return std::move(w).finish(MsgType::kStatReply);
  }

  // kTelemetry -> kTelemetryReply:
  //   [u32 r]{histogram}*   read-path histograms (telemetry::ReadOp order)
  //   [u32 s]{histogram}*   stage histograms (telemetry::Stage order)
  //   [u32 n]{u64 key, u64 reads, u64 writes}*   per-shard heat
  // All counts are zero-filled histograms when telemetry is disabled, so
  // a mixed deployment still answers the RPC.
  Message on_telemetry() {
    WireWriter w;
    w.put_u32(static_cast<std::uint32_t>(telemetry::kNumReadOps));
    for (std::size_t i = 0; i < telemetry::kNumReadOps; ++i) {
      w.put_histogram(
          metrics_->read_hist(static_cast<telemetry::ReadOp>(i)).snapshot());
    }
    w.put_u32(static_cast<std::uint32_t>(telemetry::kNumStages));
    for (std::size_t i = 0; i < telemetry::kNumStages; ++i) {
      w.put_histogram(
          metrics_->stage_hist(static_cast<telemetry::Stage>(i)).snapshot());
    }
    std::lock_guard<std::mutex> g(mu_);  // heat observers writer-serialised
    const std::vector<telemetry::HeatEntry> heat = host_heat_.entries();
    w.put_u32(static_cast<std::uint32_t>(heat.size()));
    for (const auto& h : heat) {
      w.put_u64(h.key);
      w.put_u64(h.reads);
      w.put_u64(h.writes);
    }
    return std::move(w).finish(MsgType::kTelemetryReply);
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t slot_of(std::uint64_t key) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return i;
    }
    return npos;
  }

  // Map a wire query kind to the read-path histogram it lands in.
  static telemetry::ReadOp read_op_of(QueryKind kind) {
    switch (kind) {
      case QueryKind::kRangeList: return telemetry::ReadOp::kRangeList;
      case QueryKind::kRangeCount: return telemetry::ReadOp::kRangeCount;
      case QueryKind::kBallList: return telemetry::ReadOp::kBallList;
      case QueryKind::kBallCount: return telemetry::ReadOp::kBallCount;
      case QueryKind::kKnn: return telemetry::ReadOp::kKnn;
    }
    return telemetry::ReadOp::kKnn;
  }

  // Publish the current slot state as a fresh immutable view. Caller holds
  // mu_ (or is the constructor).
  void publish() {
    host_heat_.realign(keys_);  // carries counters across installs/drops
    auto v = std::make_shared<view_t>();
    v->heat = host_heat_.cells();
    v->entries.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      v->entries.push_back(Entry{keys_[i], versions_[i], store_.live(i)});
    }
    // The ring is keyed by publication sequence, not commit epoch: pinned
    // lookups match on (shard key, content version), which is what the
    // client's pinned route names — host publications and coordinator
    // epochs deliberately need no alignment.
    retained_views_.retain(++publish_seq_, v);
    view_slot_.publish(std::move(v));
  }

  NodeId id_;
  Transport& transport_;
  // Serialises mutations (commit/install/drop arrive from the single
  // coordinator writer already, but fetch may race a commit under the
  // loopback transport's caller-thread execution).
  std::mutex mu_;
  store_t store_;
  std::vector<std::uint64_t> keys_;      // parallel to store_ slots
  std::vector<std::uint64_t> versions_;  // parallel to store_ slots
  service::SnapshotSlot<view_t> view_slot_;
  service::RetainedViews<view_t> retained_views_;
  std::uint64_t publish_seq_ = 0;
  // Telemetry: the host's histogram bundle (shared with the store's replay
  // tasks) and the per-shard heat, keyed by stable shard key and realigned
  // at every publication.
  std::shared_ptr<telemetry::ServiceMetrics> metrics_ =
      std::make_shared<telemetry::ServiceMetrics>();
  telemetry::ShardHeat host_heat_;
  // Durability: local WAL of applied commit batches (idle unless armed).
  psi::durability::DurabilityConfig dur_;
  psi::durability::WalWriter wal_;
  std::uint64_t last_epoch_ = 0;  // highest logged commit epoch (manifest)
  bool arena_checkpoints_ = true;  // see set_arena_checkpoints()
};

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

// The route table published to query clients: everything needed to plan a
// fan-out without touching the coordinator — the shard map for routing,
// keys for addressing, owners for destination nodes, versions + stamp for
// cache coverage (query_cache.h).
template <typename Coord, int D, typename Codec>
struct RouteView {
  using map_t = service::ShardMap<Coord, D, Codec>;
  std::uint64_t epoch = 0;
  std::uint64_t stamp = 0;
  map_t map;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> versions;
  std::vector<NodeId> owners;
  // Total acked population as of this publication — lock-free size()
  // observer (the facade must not block behind in-flight commits).
  std::size_t total_points = 0;
};

struct CoordinatorStats {
  std::uint64_t epoch = 0;
  std::uint64_t commits = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t migrations = 0;
  std::size_t num_shards = 0;
  std::vector<std::size_t> shard_sizes;
  std::vector<NodeId> shard_owners;
};

// Write-side configuration of the distributed service. Inherits the
// in-process knobs (split/merge thresholds, shard floors, cache shape,
// view retention — the last applies on each host).
struct DistributedConfig : service::ServiceConfig {
  // Keep per-node shard counts within one of each other by migrating
  // shards off the most loaded node after every commit's rebalance.
  bool balance_nodes = true;
  // Ship relocatable shards as raw CRC-framed arena images during
  // migration/host recovery and snapshot them as arena checkpoint files.
  // Off forces the legacy point-wise codec everywhere — the knob exists
  // for the fig15 arena-vs-points comparison, not for production use.
  bool arena_handoff = true;
};

template <typename Coord, int D,
          typename Codec = sfc::MortonCodec<Coord, D>>
class Coordinator {
 public:
  using point_t = Point<Coord, D>;
  using box_t = Box<Coord, D>;
  using map_t = service::ShardMap<Coord, D, Codec>;
  using route_t = RouteView<Coord, D, Codec>;
  using run_t = service::OpRun<point_t>;

  // `nodes` are the ShardHost ids this coordinator may place shards on
  // (already bound on `transport`). The initial uniform map is placed
  // round-robin and shipped as empty installs so every shard exists
  // somewhere from epoch 1.
  //
  // With durability armed, a marker log under `<dir>/coordinator` records
  // a kCommitMark per fully-acked commit — the *commit cut*. A host WAL
  // may hold records past the cut (its ack raced a crash elsewhere);
  // recovery drops everything above the last marker uniformly, so either
  // every node's effects of a commit survive or none do.
  Coordinator(Transport& transport, std::vector<NodeId> nodes,
              DistributedConfig cfg = {})
      : transport_(transport), nodes_(std::move(nodes)), cfg_(cfg),
        dir_(std::max<std::size_t>(1, cfg.initial_shards)),
        retained_routes_(cfg.retained_epochs) {
    if (nodes_.empty()) {
      throw TransportError("coordinator needs at least one node");
    }
    if (cfg_.durability.armed()) {
      marker_wal_.open(cfg_.durability.dir + "/coordinator", cfg_.durability);
    }
    place_round_robin();
    sizes_.assign(dir_.num_shards(), 0);
    for (std::size_t i = 0; i < dir_.num_shards(); ++i) {
      install_shard(i, dir_.owner_of(i), {});
    }
    publish();
  }

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Lock-free route acquisition for query clients.
  std::shared_ptr<const route_t> route() const { return route_slot_.acquire(); }

  // The route as of a past publication epoch, if still within the
  // retention window (cfg.retained_epochs deep); nullptr once retired.
  // Routes are small metadata — retaining them costs nothing next to the
  // host-side replica retention they pair with.
  std::shared_ptr<const route_t> route_at(std::uint64_t epoch) const {
    return retained_routes_.at(epoch);
  }

  std::uint64_t epoch() const { return epoch_.current(); }

  // -------------------------------------------------------------------
  // Writes (externally serialised by the facade)
  // -------------------------------------------------------------------

  // Bulk load: recompute equal-population boundaries, place round-robin,
  // and ship every shard's slice to its owner.
  void load(const std::vector<point_t>& pts) {
    using service::CodedPoint;
    std::vector<CodedPoint<point_t>> coded =
        service::code_and_sort<Codec>(pts);
    std::vector<std::uint64_t> codes(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) codes[i] = coded[i].code;
    // Old shards (possibly under old keys on many nodes) are dropped
    // after the new topology is installed and published.
    const auto old_keys = dir_.keys();
    const auto old_owners = dir_.owners();
    dir_.reset(map_t::from_sorted_codes(
        codes, std::max<std::size_t>(1, cfg_.initial_shards)));
    place_round_robin();
    const std::size_t k = dir_.num_shards();
    sizes_.assign(k, 0);
    TaskGroup tasks;
    for (std::size_t i = 0; i < k; ++i) {
      tasks.spawn([this, i, &coded, &codes] {
        const std::vector<point_t> part =
            service::shard_slice(coded, codes, dir_.map(), i);
        sizes_[i] = part.size();
        install_shard(i, dir_.owner_of(i), part);
      });
    }
    tasks.wait();
    rebalance();
    publish();
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      drop_shard_key(old_keys[i], old_owners[i]);
    }
  }

  // One commit group of updates: route to per-shard runs, ship one
  // kCommitBatch per touched node in parallel, join the epoch acks, then
  // rebalance and publish the next route. `updates` preserves FIFO order
  // per shard (is_delete, point).
  void commit(const std::vector<std::pair<bool, point_t>>& updates) {
    if (updates.empty()) return;
    const std::size_t k = dir_.num_shards();
    std::vector<std::vector<run_t>> runs(k);
    for (const auto& [is_delete, pt] : updates) {
      auto& shard_runs = runs[dir_.map().shard_of(pt)];
      if (shard_runs.empty() || shard_runs.back().is_delete != is_delete) {
        shard_runs.push_back(run_t{is_delete, {}});
      }
      shard_runs.back().pts.push_back(pt);
    }
    // Stamp fresh versions for the touched shards, then group them by
    // owning node into one batch message each.
    struct NodeBatch {
      NodeId node;
      std::vector<std::size_t> shards;
    };
    std::vector<NodeBatch> batches;
    for (std::size_t i = 0; i < k; ++i) {
      if (runs[i].empty()) continue;
      dir_.touch(i);
      const NodeId owner = dir_.owner_of(i);
      auto it = std::find_if(batches.begin(), batches.end(),
                             [&](const NodeBatch& b) { return b.node == owner; });
      if (it == batches.end()) {
        batches.push_back(NodeBatch{owner, {i}});
      } else {
        it->shards.push_back(i);
      }
    }
    const std::uint64_t next_epoch = epoch_.current() + 1;
    TaskGroup tasks;
    for (const NodeBatch& b : batches) {
      tasks.spawn([this, &b, &runs, next_epoch] {
        PSI_TRACE_SPAN("rpc.commit");
        WireWriter w;
        w.put_u64(next_epoch);
        w.put_u32(static_cast<std::uint32_t>(b.shards.size()));
        for (std::size_t i : b.shards) {
          w.put_u64(dir_.key_of(i));
          w.put_u64(dir_.version_of(i));
          w.put_runs(runs[i]);
        }
        Message ack = expect_ok(
            transport_.call(b.node, std::move(w).finish(MsgType::kCommitBatch)),
            "commit");
        WireReader r(ack);
        (void)r.get_u64();  // echoed epoch
        const std::uint32_t n = r.get_u32();
        for (std::uint32_t j = 0; j < n; ++j) {
          const std::uint64_t key = r.get_u64();
          const std::uint64_t size = r.get_u64();
          const std::size_t idx = dir_.index_of_key(key);
          if (idx != decltype(dir_)::npos) sizes_[idx] = size;
        }
      });
    }
    try {
      tasks.wait();
    } catch (...) {
      // Partial commit: some hosts applied (and published node views with
      // the new versions), some did not. Republish the route before
      // surfacing the error so the bumped directory versions reach
      // clients — cached entries keyed on the old versions stop hitting,
      // and a shard whose host did NOT apply simply mismatches the route
      // version in its piggyback, so its results are answered but never
      // cached. Without this, caches would keep serving pre-commit data
      // that direct fan-outs contradict. The epoch is not counted as a
      // commit; the next successful commit realigns versions.
      publish();
      throw;
    }
    // Every touched host has the batch on durable media (their acks
    // follow a local fsync) — durably advance the commit cut before the
    // caller's futures can resolve.
    if constexpr (psi::durability::kEnabled) {
      if (marker_wal_.is_open()) {
        marker_wal_.append(psi::durability::encode_mark_record(next_epoch));
        marker_wal_.sync();
      }
    }
    ++stats_.commits;
    rebalance();
    publish();
  }

  // Migrate shard `i` to `dest`: fetch the frozen replica (no commit can
  // interleave — the coordinator is the single writer), install it under
  // the same key and version, flip the route atomically, then drop the old
  // copy. Readers that raced the drop see a missing key and retry through
  // the refreshed route; readers already inside the old host's view finish
  // safely on the pinned replicas (RCU grace).
  void migrate(std::size_t i, NodeId dest) {
    // The index may come from a route acquired before an interleaved
    // commit changed the topology (split/merge): a stale position past the
    // end is a no-op, not an out-of-bounds read.
    if (i >= dir_.num_shards()) return;
    const NodeId src = dir_.owner_of(i);
    if (src == dest) return;
    PSI_TRACE_SPAN("coord.migrate");
    const std::uint64_t key = dir_.key_of(i);
    // Migration moves the structure, not its contents: when the backend is
    // relocatable the shard travels as one CRC-framed arena image and the
    // destination adopts it with a validate + memcpy — no flatten on the
    // source, no re-sort/rebuild on the destination. Non-arena backends
    // take the point-wise codec below, same as always.
    FetchedShard f = fetch_shard_any(key, src,
                                     /*allow_raw=*/cfg_.arena_handoff);
    if (f.is_arena) {
      install_arena(key, f.version, f.origin, f.image, dest);
    } else {
      install_raw(key, f.version, f.origin, f.pts, dest);
    }
    dir_.move_owner(i, dest);
    ++stats_.migrations;
    publish();  // new route first: late readers route to dest...
    drop_shard_key(key, src);  // ...then the old copy goes away
  }

  CoordinatorStats stats() const {
    CoordinatorStats s = stats_;
    s.epoch = epoch_.current();
    s.num_shards = dir_.num_shards();
    s.shard_sizes = sizes_;
    s.shard_owners = dir_.owners();
    return s;
  }

  // Test support: the full multiset, one kFetchShard per shard. Must be
  // serialised with writes (the facade's writer mutex) for a consistent
  // cut.
  std::vector<point_t> flatten() {
    std::vector<point_t> out;
    for (std::size_t i = 0; i < dir_.num_shards(); ++i) {
      auto [pts, version, origin] = fetch_shard(dir_.key_of(i),
                                                dir_.owner_of(i));
      (void)version;
      (void)origin;
      out.insert(out.end(), pts.begin(), pts.end());
    }
    return out;
  }

  const std::vector<NodeId>& nodes() const { return nodes_; }

  // After all hosts checkpoint, their WALs hold nothing below the new
  // manifests — the marker cut is re-derivable as "everything", so the
  // marker log itself can be reset. Facade calls this LAST in
  // checkpoint_all().
  void truncate_marker_log() {
    if (!marker_wal_.is_open()) return;
    marker_wal_.truncate_below(marker_wal_.rotate());
  }

  // Host-death handling: `dead` is gone (its transport binding included).
  // Recover its shards from its durability directory — checkpoint + WAL
  // tail, cut at the last coordinator marker — and re-install them on the
  // surviving nodes round-robin. Shards whose data did not survive (never
  // checkpointed, log lost) come back empty rather than wedging the
  // topology. Externally serialised with writes, like every mutation here.
  void recover_host(
      NodeId dead, const std::string& dead_dir,
      const psi::durability::ArenaDecoder<Coord, D>& decoder = nullptr) {
    const std::uint64_t cut =
        marker_wal_.is_open()
            ? psi::durability::last_marker(cfg_.durability.dir + "/coordinator")
            : std::numeric_limits<std::uint64_t>::max();
    // Arena-checkpointed shards with a clean WAL tail come back as raw
    // images and re-install with one validate + adopt on the destination;
    // a dirty tail materialises them through `decoder` (facade-provided)
    // and takes the point path below.
    auto rec = psi::durability::recover<Coord, D>(dead_dir, cut, decoder);
    nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), dead),
                 nodes_.end());
    if (nodes_.empty()) {
      throw TransportError("recover_host: no surviving nodes");
    }
    std::size_t rr = 0;
    for (std::size_t i = 0; i < dir_.num_shards(); ++i) {
      if (dir_.owner_of(i) != dead) continue;
      const std::uint64_t key = dir_.key_of(i);
      const auto it = std::find_if(
          rec.shards.begin(), rec.shards.end(),
          [&](const auto& s) { return s.key == key; });
      const NodeId dest = nodes_[rr++ % nodes_.size()];
      if (it != rec.shards.end() && !it->image.empty()) {
        sizes_[i] = install_arena(key, dir_.version_of(i),
                                  static_cast<std::size_t>(it->factory_id),
                                  it->image, dest);
      } else if (it != rec.shards.end()) {
        install_raw(key, dir_.version_of(i),
                    static_cast<std::size_t>(it->factory_id), it->pts, dest);
        sizes_[i] = it->pts.size();
      } else {
        install_raw(key, dir_.version_of(i), i, {}, dest);
        sizes_[i] = 0;
      }
      dir_.move_owner(i, dest);
    }
    publish();
  }

  // Persist the routing state that pairs with the hosts' freshly written
  // manifests (see durability::Topology). Facade calls this at the end of
  // every full checkpoint; a no-op without durability.
  void save_topology() {
    if (!marker_wal_.is_open()) return;
    psi::durability::Topology t;
    t.epoch = epoch_.current();
    t.shards.reserve(dir_.num_shards());
    for (std::size_t i = 0; i < dir_.num_shards(); ++i) {
      psi::durability::TopologyShard s;
      s.key = dir_.key_of(i);
      s.upper = dir_.map().upper_bound_of(i);
      s.version = dir_.version_of(i);
      s.owner = dir_.owner_of(i);
      t.shards.push_back(s);
    }
    psi::durability::write_topology(cfg_.durability.dir + "/coordinator", t,
                                    cfg_.durability.fsync);
  }

  // Clean-restart fast path: re-install a checkpointed topology verbatim.
  // `best` holds the deduped recovered shards (key -> contents); entries
  // still carrying an arena image install with one validate + adopt on
  // their recorded owner — no decode, no global re-sort, no rebuild.
  //
  // Returns false — leaving the coordinator untouched, caller falls back
  // to the bulk-load path — unless the record and the recovered shards
  // agree exactly: every topology shard present in `best` at the exact
  // checkpointed version and nothing else recovered, bounds well-formed,
  // every owner alive. Anything short of that means the directory state
  // moved past the topology record (crash mid-checkpoint, WAL tail, a
  // node's stale manifest) and only the union semantics of the slow path
  // are safe.
  bool restore_topology(
      const psi::durability::Topology& topo,
      std::map<std::uint64_t, psi::durability::RecoveredShard<Coord, D>>&
          best,
      const psi::durability::ArenaDecoder<Coord, D>& decoder) {
    const std::size_t k = topo.shards.size();
    if (k == 0 || best.size() != k) return false;
    std::vector<std::uint64_t> uppers(k), keys(k), versions(k);
    std::vector<NodeId> owners(k);
    for (std::size_t i = 0; i < k; ++i) {
      const auto& s = topo.shards[i];
      if (i > 0 && s.upper <= uppers[i - 1]) return false;
      uppers[i] = s.upper;
      keys[i] = s.key;
      versions[i] = s.version;
      owners[i] = static_cast<NodeId>(s.owner);
      if (std::find(nodes_.begin(), nodes_.end(), owners[i]) ==
          nodes_.end()) {
        return false;
      }
      const auto it = best.find(s.key);
      if (it == best.end() || it->second.version != s.version) return false;
    }
    if (uppers.back() != ~std::uint64_t{0}) return false;
    // The constructor's placeholder shards go away after the restored
    // route is published (mirrors load()) — except where a restored shard
    // reuses a placeholder's (key, owner): both id allocators start at 1,
    // so a pre-restart key can collide with a fresh placeholder key, and
    // the install above already replaced that slot in place. Dropping it
    // would delete the restored data.
    const auto old_keys = dir_.keys();
    const auto old_owners = dir_.owners();
    dir_.restore(map_t::from_bounds(uppers), keys, versions, owners);
    sizes_.assign(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
      auto& rec = best.find(keys[i])->second;
      const auto fid = static_cast<std::size_t>(rec.factory_id);
      if (!rec.image.empty()) {
        try {
          sizes_[i] =
              install_arena(keys[i], versions[i], fid, rec.image, owners[i]);
          continue;
        } catch (const TransportError&) {
          // Destination refused the image (builder parameters changed
          // across the restart, say): materialize and take the point path.
          if (!decoder) throw;
          rec.pts = decoder(rec.factory_id, rec.image);
        }
      }
      install_raw(keys[i], versions[i], fid, rec.pts, owners[i]);
      sizes_[i] = rec.pts.size();
    }
    publish();
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      bool survived = false;
      for (std::size_t j = 0; j < k; ++j) {
        if (keys[j] == old_keys[i] && owners[j] == old_owners[i]) {
          survived = true;
          break;
        }
      }
      if (!survived) drop_shard_key(old_keys[i], old_owners[i]);
    }
    return true;
  }

 private:
  void place_round_robin() {
    for (std::size_t i = 0; i < dir_.num_shards(); ++i) {
      dir_.move_owner(i, nodes_[i % nodes_.size()]);
    }
  }

  // Ship `pts` as shard i to `node` under shard i's current identity.
  void install_shard(std::size_t i, NodeId node,
                     const std::vector<point_t>& pts) {
    install_raw(dir_.key_of(i), dir_.version_of(i), i, pts, node);
  }

  void install_raw(std::uint64_t key, std::uint64_t version,
                   std::size_t factory_id, const std::vector<point_t>& pts,
                   NodeId node) {
    PSI_TRACE_SPAN("rpc.install");
    WireWriter w;
    w.put_u64(key);
    w.put_u64(version);
    w.put_u64(factory_id);
    w.put_u8(kShardFormatPoints);
    w.put_points(pts);
    expect_ok(transport_.call(node, std::move(w).finish(MsgType::kInstallShard)),
              "install");
  }

  // Raw-arena install (v4): ship a serialized arena image instead of
  // points. The destination validates the CRC frame and the builder
  // fingerprint before adopting, so a mismatched backend configuration
  // across nodes fails the call loudly instead of installing garbage.
  // Returns the adopted shard's cardinality (from the install ack — the
  // image is opaque here).
  std::size_t install_arena(std::uint64_t key, std::uint64_t version,
                            std::size_t factory_id,
                            const std::vector<std::uint8_t>& image,
                            NodeId node) {
    PSI_TRACE_SPAN("rpc.install");
    WireWriter w;
    w.put_u64(key);
    w.put_u64(version);
    w.put_u64(factory_id);
    w.put_u8(kShardFormatArena);
    w.put_blob(image);
    Message reply = expect_ok(
        transport_.call(node, std::move(w).finish(MsgType::kInstallShard)),
        "install");
    WireReader r(reply);
    return static_cast<std::size_t>(r.get_u64());
  }

  // One fetched shard in whichever encoding the host chose. Exactly one of
  // pts/image is meaningful, selected by is_arena.
  struct FetchedShard {
    bool is_arena = false;
    std::vector<point_t> pts;
    std::vector<std::uint8_t> image;
    std::uint64_t version = 0;
    std::size_t origin = 0;
  };

  FetchedShard fetch_shard_any(std::uint64_t key, NodeId node,
                               bool allow_raw) {
    PSI_TRACE_SPAN("rpc.fetch");
    WireWriter w;
    w.put_u64(key);
    w.put_u8(allow_raw ? 1 : 0);
    Message reply = expect_ok(
        transport_.call(node, std::move(w).finish(MsgType::kFetchShard)),
        "fetch");
    WireReader r(reply);
    (void)r.get_u64();  // echoed key
    FetchedShard out;
    out.version = r.get_u64();
    out.origin = static_cast<std::size_t>(r.get_u64());
    const std::uint8_t format = r.get_u8();
    if (format == kShardFormatArena) {
      if (!allow_raw) throw WireError("fetch: unsolicited arena image");
      out.is_arena = true;
      out.image = r.get_blob();
    } else if (format == kShardFormatPoints) {
      out.pts = r.template get_points<Coord, D>();
    } else {
      throw WireError("fetch: unknown shard format " +
                      std::to_string(format));
    }
    return out;
  }

  // Point-wise fetch: split/merge/flatten/recovery need the points
  // themselves, so they never ask for the raw encoding.
  std::tuple<std::vector<point_t>, std::uint64_t, std::size_t> fetch_shard(
      std::uint64_t key, NodeId node) {
    FetchedShard f = fetch_shard_any(key, node, /*allow_raw=*/false);
    return {std::move(f.pts), f.version, f.origin};
  }

  void drop_shard_key(std::uint64_t key, NodeId node) {
    WireWriter w;
    w.put_u64(key);
    expect_ok(transport_.call(node, std::move(w).finish(MsgType::kDropShard)),
              "drop");
  }

  // Split / merge / node-balance — the bp-forest seat discipline, with
  // data movement over the transport instead of pointer swaps.
  void rebalance() {
    for (std::size_t i = 0; i < dir_.num_shards();) {
      if (sizes_[i] > cfg_.split_threshold &&
          dir_.num_shards() < cfg_.max_shards && splittable(i)) {
        if (split_shard(i)) {
          ++stats_.splits;
          continue;  // re-examine the left half
        }
        // One giant equal-code run: remember the size so the next commits
        // don't re-fetch and re-sort the whole shard over the wire until
        // its population actually changes (the in-process writer's
        // unsplittable_at memo, keyed by stable shard key here).
        unsplittable_at_[dir_.key_of(i)] = sizes_[i];
      }
      ++i;
    }
    const std::size_t merge_at = cfg_.effective_merge_threshold();
    const std::size_t min_shards = cfg_.effective_min_shards();
    for (std::size_t i = 0; i + 1 < dir_.num_shards();) {
      if (sizes_[i] + sizes_[i + 1] < merge_at &&
          dir_.num_shards() > min_shards) {
        merge_shards(i);
        ++stats_.merges;
        continue;
      }
      ++i;
    }
    if (cfg_.balance_nodes) balance_nodes();
  }

  bool splittable(std::size_t i) const {
    const auto it = unsplittable_at_.find(dir_.key_of(i));
    return it == unsplittable_at_.end() || it->second != sizes_[i];
  }

  bool split_shard(std::size_t i) {
    const NodeId owner = dir_.owner_of(i);
    const std::uint64_t old_key = dir_.key_of(i);
    auto [pts, version, origin] = fetch_shard(old_key, owner);
    (void)version;
    std::vector<service::CodedPoint<point_t>> coded =
        service::code_and_sort<Codec>(pts);
    const auto cut = service::split_position(coded);
    if (!cut) return false;
    const auto [mid, boundary] = *cut;
    if (!dir_.split(i, boundary)) return false;
    std::vector<point_t> left, right;
    left.reserve(mid);
    right.reserve(coded.size() - mid);
    for (std::size_t j = 0; j < mid; ++j) left.push_back(coded[j].pt);
    for (std::size_t j = mid; j < coded.size(); ++j) {
      right.push_back(coded[j].pt);
    }
    sizes_[i] = left.size();
    sizes_.insert(sizes_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  right.size());
    // Both halves stay on the owner (splits never move data between nodes
    // on their own — balance_nodes migrates whole shards afterwards).
    install_raw(dir_.key_of(i), dir_.version_of(i), origin, left, owner);
    install_raw(dir_.key_of(i + 1), dir_.version_of(i + 1), origin, right,
                owner);
    publish();
    drop_shard_key(old_key, owner);
    return true;
  }

  void merge_shards(std::size_t i) {
    const NodeId left_owner = dir_.owner_of(i);
    const NodeId right_owner = dir_.owner_of(i + 1);
    const std::uint64_t left_key = dir_.key_of(i);
    const std::uint64_t right_key = dir_.key_of(i + 1);
    auto [pts, lv, origin] = fetch_shard(left_key, left_owner);
    (void)lv;
    auto [rhs, rv, rorigin] = fetch_shard(right_key, right_owner);
    (void)rv;
    (void)rorigin;
    pts.reserve(pts.size() + rhs.size());
    pts.insert(pts.end(), rhs.begin(), rhs.end());
    dir_.merge(i, left_owner);
    sizes_[i] = pts.size();
    sizes_.erase(sizes_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    // A cross-node merge is an implicit handoff of the right half.
    install_raw(dir_.key_of(i), dir_.version_of(i), origin, pts, left_owner);
    publish();
    drop_shard_key(left_key, left_owner);
    drop_shard_key(right_key, right_owner);
  }

  // Even out per-node shard counts: migrate one shard at a time from the
  // most to the least loaded node until they differ by at most one.
  void balance_nodes() {
    if (nodes_.size() < 2) return;
    for (;;) {
      std::vector<std::size_t> counts(nodes_.size(), 0);
      for (std::size_t i = 0; i < dir_.num_shards(); ++i) {
        const auto it =
            std::find(nodes_.begin(), nodes_.end(), dir_.owner_of(i));
        counts[static_cast<std::size_t>(it - nodes_.begin())]++;
      }
      const auto max_it = std::max_element(counts.begin(), counts.end());
      const auto min_it = std::min_element(counts.begin(), counts.end());
      if (*max_it <= *min_it + 1) return;
      const NodeId from = nodes_[static_cast<std::size_t>(
          max_it - counts.begin())];
      const NodeId to = nodes_[static_cast<std::size_t>(
          min_it - counts.begin())];
      // Move the smallest shard of the overloaded node: least data shipped.
      std::size_t pick = dir_.num_shards();
      for (std::size_t i = 0; i < dir_.num_shards(); ++i) {
        if (dir_.owner_of(i) != from) continue;
        if (pick == dir_.num_shards() || sizes_[i] < sizes_[pick]) pick = i;
      }
      if (pick == dir_.num_shards()) return;
      migrate(pick, to);
    }
  }

  std::uint64_t publish() {
    auto v = std::make_shared<route_t>();
    const std::uint64_t next = epoch_.current() + 1;
    v->epoch = next;
    v->stamp = dir_.stamp();
    v->map = dir_.map();
    v->keys = dir_.keys();
    v->versions = dir_.versions();
    v->owners = dir_.owners();
    for (std::size_t s : sizes_) v->total_points += s;
    retained_routes_.retain(next, v);
    route_slot_.publish(std::move(v));
    epoch_.advance();
    return next;
  }

  Transport& transport_;
  std::vector<NodeId> nodes_;
  DistributedConfig cfg_;
  service::ShardDirectory<Coord, D, Codec> dir_;
  std::vector<std::size_t> sizes_;  // last acked per-shard populations
  // Shard key -> size at which its last split attempt failed (single
  // equal-code run); stale keys are harmless (splits/merges re-key).
  std::map<std::uint64_t, std::size_t> unsplittable_at_;
  service::EpochCounter epoch_;
  service::SnapshotSlot<route_t> route_slot_;
  service::RetainedViews<route_t> retained_routes_;
  CoordinatorStats stats_;
  // Durability: the commit-cut marker log (see ctor comment).
  psi::durability::WalWriter marker_wal_;
};

}  // namespace psi::net
