// PSI-Lib net layer: the distributed service facade.
//
// DistributedService<Index> = N ShardHosts + one Coordinator + the query
// client, over any Transport. With LoopbackTransport this is the
// single-process deployment (and the test substrate) — protocol-identical
// to a TcpTransport deployment across real sockets.
//
// Write path: build()/insert_batch()/delete_batch() serialise into the
// coordinator (one writer mutex — the same single-writer discipline as
// SpatialService), which ships per-node kCommitBatch messages and joins
// the epoch acks (node.h).
//
// Read path: every query plans against the coordinator's lock-free route
// view, fans sub-queries out to the owning nodes in parallel (TaskGroup —
// one RPC per node), and merges the replies through the same
// api::ConcurrentSink / api::ConcurrentKnnBuffer machinery the in-process
// snapshot fan-out uses: remote points stream straight from the decoder
// into the shared sink. Handoffs are invisible to callers: a host that no
// longer owns a queried shard reports the key as missing, and the client
// re-routes just that shard through the refreshed route (bounded retries;
// a shard dissolved by split/merge restarts the whole plan). The entry
// point is the redesigned query(QueryDesc, ReadOptions, Sink&) surface
// (read_options.h): ReadOptions selects read-committed vs pinned-epoch
// consistency (pin()/pin_at() hold a route whose exact per-shard content
// versions every host must answer at — snapshot-consistent multi-shard
// reads under concurrent writers) and whether list replies stream back as
// bounded wire chunks under credit-based backpressure instead of one
// materialised reply per node. The legacy range_list/knn/... names are
// thin adapters over it.
//
// Caching: the client keeps a version-keyed QueryCache exactly like the
// in-process service — coverage is the routed shard run + its content
// versions from the route view. Every kQueryResult piggybacks the version
// of each shard it answered from; a result is admitted to the cache only
// when every piggybacked version matches the plan (a mid-fan-out commit
// would otherwise cache a torn result). Commits that touch only other
// shards leave entries valid — remote readers get cross-epoch hits without
// re-contacting any node.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "psi/api/query.h"
#include "psi/api/read_options.h"
#include "psi/net/node.h"
#include "psi/net/transport.h"
#include "psi/net/wire.h"
#include "psi/parallel/task_group.h"
#include "psi/service/query_cache.h"
#include "psi/service/snapshot.h"
#include "psi/telemetry/histogram.h"
#include "psi/telemetry/metrics.h"
#include "psi/telemetry/registry.h"
#include "psi/telemetry/trace.h"

namespace psi::net {

// One host's answer to the kTelemetry stats RPC: its read-path and
// commit-stage histograms plus raw per-shard heat counters.
struct HostTelemetry {
  NodeId node = 0;
  std::vector<telemetry::HistogramSnapshot> reads;   // by ReadOp index
  std::vector<telemetry::HistogramSnapshot> stages;  // by Stage index
  std::vector<telemetry::HeatEntry> heat;            // keyed by shard key
};

struct DistributedStats {
  CoordinatorStats coordinator;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_cross_epoch_hits = 0;
  // Results answered but not admitted because a commit raced the fan-out
  // (piggybacked versions disagreed with the plan).
  std::uint64_t cache_torn_skips = 0;
  // Pinned-read accounting (wire v3; see read_options.h): fan-outs planned
  // against a pinned route, and reads refused because the pinned state had
  // left the retention window.
  std::uint64_t pinned_reads = 0;
  std::uint64_t epoch_retired_errors = 0;
  // Streamed-reply accounting: chunk frames received across all fan-outs,
  // and the total number of times hosts blocked on the credit window.
  std::uint64_t stream_chunks = 0;
  std::uint64_t stream_backpressure_waits = 0;
  // Wall-clock cost of the last recover_from_disk() (0 when never run).
  double recovery_ms = 0;
  // Per-host telemetry (one kTelemetry RPC each) and its cluster-wide
  // merge. Histogram merge is bucket-wise and associative, so the merged
  // snapshots are exactly what one host recording every event would hold —
  // percentiles over them are true cluster percentiles, not averages of
  // per-host percentiles. Empty when telemetry is compiled out.
  std::vector<HostTelemetry> hosts;
  std::vector<telemetry::HistogramSnapshot> read_hists;   // merged, by ReadOp
  std::vector<telemetry::HistogramSnapshot> stage_hists;  // merged, by Stage
  std::vector<telemetry::LatencySummary> read_latency;    // summaries of ^
  std::vector<telemetry::LatencySummary> stage_latency;
  std::vector<telemetry::HeatEntry> heat;  // summed across hosts, by key
};

template <typename Index,
          typename Codec = sfc::MortonCodec<typename Index::point_t::coord_t,
                                            Index::point_t::kDim>>
class DistributedService {
 public:
  using point_t = typename Index::point_t;
  using coord_t = typename point_t::coord_t;
  static constexpr int kDim = point_t::kDim;
  using box_t = Box<coord_t, kDim>;
  using host_t = ShardHost<Index>;
  using coordinator_t = Coordinator<coord_t, kDim, Codec>;
  using route_t = typename coordinator_t::route_t;
  using factory_t = typename host_t::factory_t;

  // Creates and binds `num_nodes` hosts (NodeIds 1..num_nodes) on the
  // transport, then the coordinator over them. The factory is shared by
  // all hosts (it receives global factory ids, so heterogeneous per-shard
  // backends keep working across nodes).
  //
  // Durability: cfg.durability.dir is the cluster base directory — each
  // host logs under `<dir>/node-<id>`, the coordinator's commit-cut
  // markers under `<dir>/coordinator`. A crashed deployment is revived by
  // constructing a fresh facade over the same base dir and calling
  // recover_from_disk().
  DistributedService(Transport& transport, std::size_t num_nodes,
                     DistributedConfig cfg = {},
                     factory_t factory = [](std::size_t) { return Index(); })
      : transport_(transport),
        cache_(cfg.cache_entries, cfg.cache_max_entry_bytes),
        cfg_(cfg),
        factory_(factory) {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < std::max<std::size_t>(1, num_nodes); ++i) {
      const NodeId id = static_cast<NodeId>(i + 1);
      psi::durability::DurabilityConfig dur = cfg.durability;
      if (dur.armed()) dur.dir = node_dir(id);
      hosts_.push_back(std::make_unique<host_t>(
          id, transport_, factory, std::move(dur), cfg.retained_epochs));
      hosts_.back()->set_arena_checkpoints(cfg.arena_handoff);
      ids.push_back(id);
    }
    coordinator_ =
        std::make_unique<coordinator_t>(transport_, std::move(ids), cfg);
  }

  // Hosts unbind from the transport in their destructors (after the
  // coordinator, which stops issuing RPCs first).
  ~DistributedService() { coordinator_.reset(); }

  DistributedService(const DistributedService&) = delete;
  DistributedService& operator=(const DistributedService&) = delete;

  // -------------------------------------------------------------------
  // Writes (any thread; serialised internally)
  // -------------------------------------------------------------------

  void build(const std::vector<point_t>& pts) {
    std::lock_guard<std::mutex> g(write_mu_);
    coordinator_->load(pts);
    // Bulk loads bypass the commit path and hence every WAL — the loaded
    // state is only durable through a full checkpoint (same discipline as
    // the in-process service).
    if (cfg_.durability.armed()) checkpoint_all_locked();
  }

  std::uint64_t insert_batch(const std::vector<point_t>& pts) {
    return apply_updates(pts, /*is_delete=*/false);
  }

  std::uint64_t delete_batch(const std::vector<point_t>& pts) {
    return apply_updates(pts, /*is_delete=*/true);
  }

  // Mixed FIFO update group (pair = {is_delete, point}).
  std::uint64_t commit(const std::vector<std::pair<bool, point_t>>& updates) {
    std::lock_guard<std::mutex> g(write_mu_);
    coordinator_->commit(updates);
    checkpoint_if_topology_changed();
    return coordinator_->epoch();
  }

  // Explicitly hand shard `i` (route position) to `node` — the manual
  // rebalance hook; the automatic policy is cfg.balance_nodes.
  void migrate(std::size_t shard, NodeId node) {
    std::lock_guard<std::mutex> g(write_mu_);
    coordinator_->migrate(shard, node);
    checkpoint_if_topology_changed();
  }

  // -------------------------------------------------------------------
  // Durability (no-ops unless cfg.durability is armed)
  // -------------------------------------------------------------------

  // Snapshot every live host and truncate its WAL, then reset the
  // coordinator's marker log. Ordering matters: host checkpoints first —
  // if a crash interrupts the sequence, leftover markers merely point at
  // epochs the new manifests already absorb (records below a checkpoint
  // are skipped on replay), whereas resetting markers first could strand
  // acked-but-not-yet-checkpointed WAL records above a vanished cut.
  void checkpoint_all() {
    std::lock_guard<std::mutex> g(write_mu_);
    checkpoint_all_locked();
  }

  // Rebuild the cluster's state from the base directory: per-node
  // checkpoint + WAL tail, cut uniformly at the coordinator's last commit
  // marker, deduped by shard key (a migrated shard may appear in two
  // nodes' checkpoints — the higher content version wins).
  //
  // Clean restart — every WAL tail empty and the recovered shards exactly
  // matching the coordinator's TOPOLOGY record — re-installs the
  // checkpointed topology verbatim: shard keys, versions, code bounds, and
  // placement all survive, and arena-format snapshots adopt in O(bytes)
  // with no decode or rebuild anywhere — and the on-disk checkpoint is
  // left as-is, since it already describes the restored state exactly.
  // Otherwise (WAL tail, crash mid-checkpoint, pre-topology directory)
  // the recovered multiset is bulk-loaded through the coordinator as a
  // fresh topology and immediately re-checkpointed. Call on a freshly
  // constructed facade.
  void recover_from_disk() {
    std::lock_guard<std::mutex> g(write_mu_);
    if (!cfg_.durability.armed()) return;
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t cut =
        psi::durability::last_marker(cfg_.durability.dir + "/coordinator");
    const auto topo =
        psi::durability::read_topology(cfg_.durability.dir + "/coordinator");
    std::map<std::uint64_t, psi::durability::RecoveredShard<coord_t, kDim>>
        best;
    const auto decoder = arena_decoder();
    bool at_checkpoint = true;  // recovered state == checkpointed state?
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      const NodeId id = static_cast<NodeId>(i + 1);
      auto rec =
          psi::durability::recover<coord_t, kDim>(node_dir(id), cut, decoder);
      at_checkpoint = at_checkpoint && rec.records_applied == 0;
      if (!rec.found) continue;
      for (auto& s : rec.shards) {
        const auto it = best.find(s.key);
        if (it == best.end() || s.version > it->second.version) {
          best[s.key] = std::move(s);
        }
      }
    }
    if (topo && at_checkpoint &&
        coordinator_->restore_topology(*topo, best, decoder)) {
      // Verbatim restore: the on-disk checkpoint already describes exactly
      // the live state (zero WAL records applied, identical shard versions
      // and placement), so re-writing it would be a byte-for-byte copy.
      // Skip it — each host's WAL resumes above the old manifest
      // watermark, so records appended after this restart stay visible to
      // the next recovery against the existing checkpoint.
      const auto s = coordinator_->stats();
      last_topology_events_ = s.splits + s.merges + s.migrations;
    } else {
      std::vector<point_t> pts;
      for (auto& [key, shard] : best) {
        // The bulk load below repartitions across a fresh topology, so any
        // shard still held as an arena image decodes here — only after
        // dedup, so a superseded copy never pays the decode.
        if (!shard.image.empty()) {
          shard.pts = decoder(shard.factory_id, shard.image);
          shard.image.clear();
        }
        pts.insert(pts.end(), shard.pts.begin(), shard.pts.end());
      }
      coordinator_->load(pts);
      checkpoint_all_locked();
    }
    recovery_ms_ = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  }

  // Crash-test support: destroy host `idx` (0-based) outright — its
  // transport binding disappears mid-deployment, exactly as a killed
  // process would. Queries and commits routed at it will fail until
  // recover_host() re-homes its shards.
  void crash_host(std::size_t idx) {
    std::lock_guard<std::mutex> g(write_mu_);
    hosts_.at(idx).reset();
  }

  // Re-install the dead host's shards on the survivors from its
  // durability directory (checkpoint + WAL tail below the marker cut).
  void recover_host(std::size_t idx) {
    std::lock_guard<std::mutex> g(write_mu_);
    const NodeId id = static_cast<NodeId>(idx + 1);
    coordinator_->recover_host(id, node_dir(id), arena_decoder());
  }

  // -------------------------------------------------------------------
  // Queries — the redesigned read surface (any thread, lock-free planning)
  // -------------------------------------------------------------------

  using desc_t = api::QueryDesc<coord_t, kDim>;

  // A pinned global read point: the route published at pin time, held by
  // the caller. Queries through it fan out the exact per-shard content
  // versions that route names, so they observe the committed state at that
  // epoch on every shard — snapshot-consistent across the whole cluster,
  // repeatable, and stable under concurrent writers — for as long as every
  // host still retains those versions (cfg.retained_epochs deep). Past the
  // horizon, queries raise api::EpochRetired; re-pin and retry.
  class PinnedView {
   public:
    std::uint64_t epoch() const { return route_->epoch; }

   private:
    friend DistributedService;
    explicit PinnedView(std::shared_ptr<const route_t> r)
        : route_(std::move(r)) {}
    std::shared_ptr<const route_t> route_;
  };

  // Pin the current epoch.
  PinnedView pin() const { return PinnedView(coordinator_->route()); }

  // Pin a specific past epoch ("query as of E"). Throws api::EpochRetired
  // once E's route has left the coordinator's retention window.
  PinnedView pin_at(std::uint64_t epoch) const {
    auto rt = coordinator_->route_at(epoch);
    if (rt == nullptr) {
      note_retired();
      throw api::EpochRetired(epoch);
    }
    return PinnedView(std::move(rt));
  }

  // THE read entry point: one QueryDesc (what), one ReadOptions (how), one
  // sink (where the matches go). Returns the number of points delivered
  // for list kinds, the count for count kinds. An api::ConcurrentSink
  // receives points directly from the decoder threads as node replies (or
  // stream chunks) arrive; any other sink gets the materialised result
  // sequentially after the join. With opts.stream, list results cross the
  // wire as bounded kQueryChunk frames under credit-based backpressure —
  // no per-node reply buffer ever exceeds one chunk.
  template <typename Sink>
  std::size_t query(const desc_t& q, const api::ReadOptions& opts,
                    Sink&& sink) const {
    FanPlan plan;
    if (opts.is_pinned()) plan.pinned = pin_at(opts.pinned_epoch).route_;
    plan.stream =
        opts.stream && q.is_list() && opts.cache != api::CachePolicy::kUse;
    return query_on(q, opts, plan, sink);
  }

  // Query through an explicit pin — cheaper and stabler than re-resolving
  // opts.pinned_epoch per read: the held route still plans correctly after
  // the coordinator's ring moved on, as long as hosts retain the data.
  template <typename Sink>
  std::size_t query(const desc_t& q, const PinnedView& pin, Sink&& sink,
                    api::ReadOptions opts = {}) const {
    FanPlan plan;
    plan.pinned = pin.route_;
    plan.stream =
        opts.stream && q.is_list() && opts.cache != api::CachePolicy::kUse;
    return query_on(q, opts, plan, sink);
  }

  // Count-only convenience: no sink to feed.
  std::size_t query(const desc_t& q, const api::ReadOptions& opts = {}) const {
    auto ignore = [](const point_t&) {};
    return query(q, opts, ignore);
  }

  // -------------------------------------------------------------------
  // Legacy entry points — thin adapters over query() (kept for source
  // compatibility; see read_options.h for the redesign rationale)
  // -------------------------------------------------------------------

  std::vector<point_t> range_list(const box_t& query_box) const {
    std::vector<point_t> out;
    auto into = [&](const point_t& p) { out.push_back(p); };
    query(desc_t::range_list(query_box), api::ReadOptions{}, into);
    return out;
  }

  std::size_t range_count(const box_t& query_box) const {
    return query(desc_t::range_count(query_box));
  }

  std::vector<point_t> ball_list(const point_t& q, double radius) const {
    std::vector<point_t> out;
    auto into = [&](const point_t& p) { out.push_back(p); };
    query(desc_t::ball_list(q, radius), api::ReadOptions{}, into);
    return out;
  }

  std::size_t ball_count(const point_t& q, double radius) const {
    return query(desc_t::ball_count(q, radius));
  }

  // k nearest neighbours across every node, in increasing distance order.
  // Each node returns its local top-k (over the shards it owns); the exact
  // global top-k is the ConcurrentKnnBuffer merge at the join.
  std::vector<point_t> knn(const point_t& q, std::size_t k) const {
    std::vector<point_t> out;
    auto into = [&](const point_t& p) { out.push_back(p); };
    query(desc_t::knn(q, k), api::ReadOptions{}, into);
    return out;
  }

  // Cached adapters (version-keyed client cache; see the header comment).
  // Equivalent to query() with ReadOptions{}.cached(), but hand back the
  // cache's shared vector so hits stay zero-copy.
  std::shared_ptr<const std::vector<point_t>> range_list_cached(
      const box_t& query_box) const {
    return cached_list_for(desc_t::range_list(query_box), nullptr);
  }

  std::size_t range_count_cached(const box_t& query_box) const {
    return cached_count_for(desc_t::range_count(query_box), nullptr);
  }

  std::shared_ptr<const std::vector<point_t>> ball_list_cached(
      const point_t& q, double radius) const {
    return cached_list_for(desc_t::ball_list(q, radius), nullptr);
  }

  // -------------------------------------------------------------------
  // Observers
  // -------------------------------------------------------------------

  std::uint64_t epoch() const { return coordinator_->epoch(); }
  std::size_t num_shards() const { return coordinator_->route()->keys.size(); }
  std::size_t num_nodes() const { return hosts_.size(); }

  // Lock-free: the acked population total published with the route (never
  // blocks behind an in-flight commit or bulk load).
  std::size_t size() const { return coordinator_->route()->total_points; }

  DistributedStats stats() const {
    std::lock_guard<std::mutex> g(write_mu_);
    DistributedStats s;
    s.coordinator = coordinator_->stats();
    s.cache_hits = cache_.hits();
    s.cache_misses = cache_.misses();
    s.cache_cross_epoch_hits = cache_.cross_epoch_hits();
    s.cache_torn_skips = torn_skips_.load(std::memory_order_relaxed);
    s.pinned_reads = pinned_reads_.load(std::memory_order_relaxed);
    s.epoch_retired_errors =
        epoch_retired_errors_.load(std::memory_order_relaxed);
    s.stream_chunks = stream_chunks_.load(std::memory_order_relaxed);
    s.stream_backpressure_waits =
        stream_backpressure_waits_.load(std::memory_order_relaxed);
    s.recovery_ms = recovery_ms_;
    if constexpr (telemetry::kEnabled) collect_telemetry(s);
    return s;
  }

  // Test support: the full multiset, fetched shard by shard over the
  // transport (serialised with writers — a consistent cut).
  std::vector<point_t> flatten() const {
    std::lock_guard<std::mutex> g(write_mu_);
    return coordinator_->flatten();
  }

 private:
  using cache_key_t = service::QueryKey<coord_t, kDim>;

  std::string node_dir(NodeId id) const {
    return cfg_.durability.dir + "/node-" + std::to_string(id);
  }

  void checkpoint_all_locked() {
    for (auto& h : hosts_) {
      if (h) h->checkpoint();
    }
    coordinator_->truncate_marker_log();
    // Topology record last: it must never name manifests that were not
    // durably written yet. A crash in between leaves a topology whose
    // shard versions disagree with the (newer) manifests, which recovery
    // detects and answers with the bulk-load path.
    coordinator_->save_topology();
    const auto s = coordinator_->stats();
    last_topology_events_ = s.splits + s.merges + s.migrations;
  }

  // Shard splits, merges, and migrations redistribute data through install
  // RPCs, which are NOT WAL events — a topology change is only durable
  // once checkpointed. Checkpointing after every commit that rebalanced
  // shrinks the undurable window to the rebalance itself (documented
  // caveat; topology changes are rare, so the cost amortises to nothing).
  void checkpoint_if_topology_changed() {
    if (!cfg_.durability.armed()) return;
    const auto s = coordinator_->stats();
    const std::uint64_t topo = s.splits + s.merges + s.migrations;
    if (topo == last_topology_events_) return;
    checkpoint_all_locked();  // refreshes last_topology_events_
  }

  struct Fanned {
    std::uint64_t count = 0;            // count kinds
    service::CacheCoverage cov;          // coverage of the plan that ran
    bool clean = true;                   // piggyback matched the plan
  };

  // How a fan-out reads: against the live route (pinned == nullptr,
  // read-committed) or a fixed pinned route whose per-shard content
  // versions every sub-query must be answered at; and whether list
  // payloads flow back as bounded stream chunks.
  struct FanPlan {
    std::shared_ptr<const route_t> pinned;
    bool stream = false;
  };

  std::uint64_t apply_updates(const std::vector<point_t>& pts,
                              bool is_delete) {
    std::vector<std::pair<bool, point_t>> updates;
    updates.reserve(pts.size());
    for (const auto& p : pts) updates.emplace_back(is_delete, p);
    return commit(updates);
  }

  // One kTelemetry RPC per host (serialised under write_mu_ with the rest
  // of stats()), decoded into per-host snapshots and folded into the
  // cluster-wide merge.
  void collect_telemetry(DistributedStats& s) const {
    PSI_TRACE_SPAN("rpc.telemetry");
    s.read_hists.assign(telemetry::kNumReadOps, {});
    s.stage_hists.assign(telemetry::kNumStages, {});
    std::map<std::uint64_t, telemetry::HeatEntry> merged_heat;
    for (NodeId node : coordinator_->nodes()) {
      WireWriter w;
      Message reply = expect_ok(
          transport_.call(node, std::move(w).finish(MsgType::kTelemetry)),
          "telemetry");
      WireReader r(reply);
      HostTelemetry host;
      host.node = node;
      const std::uint32_t n_reads = r.get_u32();
      for (std::uint32_t i = 0; i < n_reads; ++i) {
        telemetry::HistogramSnapshot snap = r.get_histogram();
        if (i < s.read_hists.size()) s.read_hists[i].merge(snap);
        host.reads.push_back(std::move(snap));
      }
      const std::uint32_t n_stages = r.get_u32();
      for (std::uint32_t i = 0; i < n_stages; ++i) {
        telemetry::HistogramSnapshot snap = r.get_histogram();
        if (i < s.stage_hists.size()) s.stage_hists[i].merge(snap);
        host.stages.push_back(std::move(snap));
      }
      const std::uint32_t n_heat = r.get_u32();
      for (std::uint32_t i = 0; i < n_heat; ++i) {
        telemetry::HeatEntry e;
        e.key = r.get_u64();
        e.reads = r.get_u64();
        e.writes = r.get_u64();
        auto& m = merged_heat[e.key];
        m.key = e.key;
        m.reads += e.reads;
        m.writes += e.writes;
        host.heat.push_back(e);
      }
      s.hosts.push_back(std::move(host));
    }
    for (const auto& h : s.read_hists) {
      s.read_latency.push_back(telemetry::summarize(h));
    }
    for (const auto& h : s.stage_hists) {
      s.stage_latency.push_back(telemetry::summarize(h));
    }
    for (auto& [key, e] : merged_heat) s.heat.push_back(e);
  }

  void admit_list(const cache_key_t& key, const Fanned& f,
                  const std::shared_ptr<const std::vector<point_t>>& pts) const {
    if (f.clean) {
      cache_.put_list(key, f.cov, pts);
    } else {
      ++torn_skips_;
    }
  }

  void note_retired() const {
    epoch_retired_errors_.fetch_add(1, std::memory_order_relaxed);
    retired_ctr_->inc();
  }

  // ---- QueryDesc plumbing (shared by every read entry point) ----

  static QueryKind wire_kind(typename desc_t::Kind k) {
    switch (k) {
      case desc_t::Kind::kRangeList: return QueryKind::kRangeList;
      case desc_t::Kind::kRangeCount: return QueryKind::kRangeCount;
      case desc_t::Kind::kBallList: return QueryKind::kBallList;
      case desc_t::Kind::kBallCount: return QueryKind::kBallCount;
      case desc_t::Kind::kKnn: return QueryKind::kKnn;
    }
    return QueryKind::kRangeCount;
  }

  static void put_query_params(WireWriter& w, const desc_t& q) {
    switch (q.kind) {
      case desc_t::Kind::kRangeList:
      case desc_t::Kind::kRangeCount:
        w.put_box(q.box);
        break;
      case desc_t::Kind::kBallList:
      case desc_t::Kind::kBallCount:
        w.put_point(q.center);
        w.put_f64(q.radius);
        break;
      case desc_t::Kind::kKnn:
        w.put_point(q.center);
        w.put_u64(q.k);
        break;
    }
  }

  static cache_key_t cache_key_of(const desc_t& q) {
    switch (q.kind) {
      case desc_t::Kind::kRangeList:
      case desc_t::Kind::kRangeCount:
        return cache_key_t::range(q.box);
      case desc_t::Kind::kBallList:
      case desc_t::Kind::kBallCount:
        return cache_key_t::ball(q.center, q.radius);
      case desc_t::Kind::kKnn:
        return cache_key_t::knn(q.center, q.k);
    }
    return cache_key_t::range(q.box);
  }

  // The routed shard run of a query on a given route. kNN prunes by
  // distance, not routing: every shard is in scope — and a shardless route
  // yields an *inverted* run (the shape make_coverage treats as empty),
  // never {0, 0}, which would slice one element out of an empty version
  // vector.
  static std::pair<std::size_t, std::size_t> run_for(const route_t& rt,
                                                     const desc_t& q) {
    switch (q.kind) {
      case desc_t::Kind::kRangeList:
      case desc_t::Kind::kRangeCount:
        return rt.map.shard_range_for_box(q.box);
      case desc_t::Kind::kBallList:
      case desc_t::Kind::kBallCount:
        return rt.map.shard_range_for_box(
            service::ball_bounding_box(q.center, q.radius));
      case desc_t::Kind::kKnn:
        break;
    }
    return rt.keys.empty()
               ? std::pair<std::size_t, std::size_t>{1, 0}
               : std::pair<std::size_t, std::size_t>{0, rt.keys.size() - 1};
  }

  // The uncached read core behind query(): dispatch one QueryDesc through
  // fan_out with the right merge machinery per kind.
  template <typename Sink>
  std::size_t query_on(const desc_t& q, const api::ReadOptions& opts,
                       const FanPlan& plan, Sink& sink) const {
    const auto params = [&](WireWriter& w) { put_query_params(w, q); };
    const auto runof = [&](const route_t& rt) { return run_for(rt, q); };
    if (opts.cache == api::CachePolicy::kUse) {
      if (!q.is_list()) return cached_count_for(q, plan.pinned);
      const auto pts = cached_list_for(q, plan.pinned);
      std::size_t n = 0;
      for (const point_t& p : *pts) {
        ++n;
        if (!api::sink_accept(sink, p)) break;
      }
      return n;
    }
    if (!q.is_list()) {
      const Fanned f = fan_out(wire_kind(q.kind), params, runof, [] {},
                               [](const point_t&) {}, /*for_cache=*/false,
                               plan);
      return static_cast<std::size_t>(f.count);
    }
    if (q.kind == desc_t::Kind::kKnn) {
      // Exact global top-k: per-node top-k lists merge through the
      // concurrent buffer, then drain into the caller's sink in distance
      // order.
      std::unique_ptr<api::ConcurrentKnnBuffer<coord_t, kDim>> buf;
      fan_out(
          QueryKind::kKnn, params, runof,
          [&] {
            buf = std::make_unique<api::ConcurrentKnnBuffer<coord_t, kDim>>(
                q.k);
          },
          [&](const point_t& p) {
            buf->offer(squared_distance(p, q.center), p);
          },
          /*for_cache=*/false, plan);
      std::size_t n = 0;
      for (const auto& e : buf->merged_sorted()) {
        ++n;
        if (!api::sink_accept(sink, e.point)) break;
      }
      return n;
    }
    // Range / ball list.
    if constexpr (api::is_concurrent_sink_v<std::remove_cvref_t<Sink>>) {
      // True streaming: decoder threads deliver straight into the caller's
      // sink. A plan restart (shard keys dissolved mid-query by a racing
      // split/merge/load) cannot un-deliver, so it surfaces as an error
      // once anything reached the sink — re-issue the read.
      const std::size_t before = sink.count();
      fan_out(
          wire_kind(q.kind), params, runof,
          [&] {
            if (sink.count() != before) {
              throw TransportError(
                  "query restarted after streaming into the caller's sink "
                  "began (topology changed mid-query); re-issue the read");
            }
          },
          [&](const point_t& p) { sink(p); }, /*for_cache=*/false, plan);
      return sink.count() - before;
    } else {
      // Plain sinks are not thread-safe: accumulate through an internal
      // concurrent sink (restart-transparent — it is simply rebuilt), then
      // deliver sequentially.
      std::unique_ptr<api::ConcurrentSink<coord_t, kDim>> acc;
      fan_out(
          wire_kind(q.kind), params, runof,
          [&] {
            acc = std::make_unique<api::ConcurrentSink<coord_t, kDim>>();
          },
          [&](const point_t& p) { (*acc)(p); }, /*for_cache=*/false, plan);
      std::size_t n = 0;
      for (const point_t& p : acc->take()) {
        ++n;
        if (!api::sink_accept(sink, p)) break;
      }
      return n;
    }
  }

  // Cached list read: version-keyed lookup against the plan's route (live
  // or pinned), materialising fan-out on miss, admission only when the
  // piggybacked versions matched the plan.
  std::shared_ptr<const std::vector<point_t>> cached_list_for(
      const desc_t& q, const std::shared_ptr<const route_t>& pinned) const {
    const auto key = cache_key_of(q);
    const auto params = [&](WireWriter& w) { put_query_params(w, q); };
    const auto runof = [&](const route_t& rt) { return run_for(rt, q); };
    const auto route = pinned ? pinned : coordinator_->route();
    if (auto hit = cache_.find_list(
            key, service::make_coverage(route->epoch, route->stamp,
                                        runof(*route), route->versions))) {
      return hit;
    }
    FanPlan plan;
    plan.pinned = pinned;
    Fanned f;
    std::vector<point_t> pts;
    if (q.kind == desc_t::Kind::kKnn) {
      std::unique_ptr<api::ConcurrentKnnBuffer<coord_t, kDim>> buf;
      f = fan_out(
          QueryKind::kKnn, params, runof,
          [&] {
            buf = std::make_unique<api::ConcurrentKnnBuffer<coord_t, kDim>>(
                q.k);
          },
          [&](const point_t& p) {
            buf->offer(squared_distance(p, q.center), p);
          },
          /*for_cache=*/true, plan);
      for (const auto& e : buf->merged_sorted()) pts.push_back(e.point);
    } else {
      std::unique_ptr<api::ConcurrentSink<coord_t, kDim>> sink;
      f = fan_out(
          wire_kind(q.kind), params, runof,
          [&] {
            sink = std::make_unique<api::ConcurrentSink<coord_t, kDim>>();
          },
          [&](const point_t& p) { (*sink)(p); }, /*for_cache=*/true, plan);
      pts = sink->take();
    }
    auto out = std::make_shared<const std::vector<point_t>>(std::move(pts));
    admit_list(key, f, out);
    return out;
  }

  std::size_t cached_count_for(
      const desc_t& q, const std::shared_ptr<const route_t>& pinned) const {
    const auto key = cache_key_of(q);
    const auto params = [&](WireWriter& w) { put_query_params(w, q); };
    const auto runof = [&](const route_t& rt) { return run_for(rt, q); };
    const auto route = pinned ? pinned : coordinator_->route();
    if (auto hit = cache_.find_count(
            key, service::make_coverage(route->epoch, route->stamp,
                                        runof(*route), route->versions))) {
      return *hit;
    }
    FanPlan plan;
    plan.pinned = pinned;
    const Fanned f =
        fan_out(wire_kind(q.kind), params, runof, [] {},
                [](const point_t&) {}, /*for_cache=*/true, plan);
    if (f.clean) {
      cache_.put_count(key, f.cov, static_cast<std::size_t>(f.count));
    } else {
      ++torn_skips_;
    }
    return static_cast<std::size_t>(f.count);
  }

  // The fan-out core. Plans against the current route (or the plan's
  // pinned route), issues one kQuery per owning node in parallel, streams
  // decoded points into `emit` (thread-safe via the caller's concurrent
  // sink), and accumulates count payloads. Shards reported missing
  // (handoff raced the plan) re-route through the refreshed route; a shard
  // key that vanished entirely (split/merge/load) restarts the whole plan
  // with `reset` — except under a pin, where the fixed plan can never be
  // satisfied again and the read fails as api::EpochRetired, as it does
  // when any host reports a pinned version as retired.
  //
  // `for_cache` turns on the admission bookkeeping — coverage slicing and
  // piggyback-vs-plan validation. The uncached entry points skip it: they
  // discard Fanned.cov/clean, so sorting a per-shard version index per
  // query would be pure overhead on the hot path.
  Fanned fan_out(
      QueryKind kind, const std::function<void(WireWriter&)>& put_params,
      const std::function<std::pair<std::size_t, std::size_t>(const route_t&)>&
          run_of,
      const std::function<void()>& reset,
      const std::function<void(const point_t&)>& emit,
      bool for_cache = false, const FanPlan& plan = {}) const {
    PSI_TRACE_SPAN("client.fan_out");
    const bool pinned = plan.pinned != nullptr;
    if (pinned) {
      pinned_reads_.fetch_add(1, std::memory_order_relaxed);
      pinned_ctr_->inc();
    }
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto route = pinned ? plan.pinned : coordinator_->route();
      const auto run = run_of(*route);
      Fanned out;
      // Empty plan (degenerate query run / shardless route): the run is
      // already inverted here, so make_coverage keeps the version slice
      // empty — and using the RAW run (not a normalised one) means the
      // stored coverage equals what plan_coverage computes on lookup, so
      // repeat degenerate queries hit instead of churning the ring.
      if (route->keys.empty() || run.first > run.second) {
        if (for_cache) {
          out.cov = service::make_coverage(route->epoch, route->stamp, run,
                                           route->versions);
        }
        reset();
        return out;
      }
      if (for_cache) {
        out.cov = service::make_coverage(route->epoch, route->stamp, run,
                                         route->versions);
      }
      reset();

      // The work list: (key, destination node), re-filled by re-routes.
      std::vector<std::pair<std::uint64_t, NodeId>> work;
      // Sorted (key -> planned version) index: reply validation for cache
      // admission, and the per-key expected versions a pinned request
      // carries on the wire. A kNN plan spans every shard, so per-key
      // linear scans of the run would cost O(shards^2) per query.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> plan_versions;
      for (std::size_t i = run.first; i <= run.second; ++i) {
        work.emplace_back(route->keys[i], route->owners[i]);
        if (for_cache || pinned) {
          plan_versions.emplace_back(route->keys[i], route->versions[i]);
        }
      }
      std::sort(plan_versions.begin(), plan_versions.end());
      const auto version_of = [&](std::uint64_t key) -> std::uint64_t {
        const auto it = std::lower_bound(
            plan_versions.begin(), plan_versions.end(),
            std::pair<std::uint64_t, std::uint64_t>{key, 0});
        return (it != plan_versions.end() && it->first == key) ? it->second
                                                               : 0;
      };

      std::atomic<std::uint64_t> count{0};
      std::atomic<bool> clean{true};
      std::atomic<bool> any_retired{false};
      std::mutex miss_mu;
      std::vector<std::uint64_t> missing;
      bool restart = false;

      for (int round = 0; !work.empty() && !restart; ++round) {
        if (round >= 8) {
          throw TransportError("query could not settle: shards kept moving");
        }
        // Group this round's shards by destination node.
        struct Sub {
          NodeId node;
          std::vector<std::uint64_t> keys;
        };
        std::vector<Sub> subs;
        for (const auto& [key, node] : work) {
          auto it = std::find_if(subs.begin(), subs.end(), [&](const Sub& s) {
            return s.node == node;
          });
          if (it == subs.end()) {
            subs.push_back(Sub{node, {key}});
          } else {
            it->keys.push_back(key);
          }
        }
        work.clear();
        missing.clear();

        TaskGroup tasks;
        for (const Sub& sub : subs) {
          tasks.spawn([&, sub] {
            PSI_TRACE_SPAN("rpc.query");
            WireWriter w;
            w.put_u8(static_cast<std::uint8_t>(kind));
            std::uint8_t flags = 0;
            if (pinned) flags |= kQueryFlagPinned;
            if (plan.stream) flags |= kQueryFlagStream;
            w.put_u8(flags);
            w.put_u32(kDefaultStreamChunkPoints);
            w.put_u32(kDefaultStreamCredit);
            put_params(w);
            w.put_u32(static_cast<std::uint32_t>(sub.keys.size()));
            for (std::uint64_t key : sub.keys) {
              w.put_u64(key);
              w.put_u64(pinned ? version_of(key) : 0);
            }
            Message req = std::move(w).finish(MsgType::kQuery);
            Message reply;
            if (plan.stream) {
              // Chunks decode straight into the sink as they arrive; each
              // consumed chunk grants the host one more of credit (the
              // transport sends the grant).
              std::uint64_t local_chunks = 0;
              reply = transport_.call_stream(
                  sub.node, std::move(req), [&](Message chunk) {
                    WireReader cr(chunk);
                    const std::vector<point_t> pts =
                        cr.template get_points<coord_t, kDim>();
                    for (const point_t& p : pts) emit(p);
                    ++local_chunks;
                    return true;
                  });
              stream_chunks_.fetch_add(local_chunks,
                                       std::memory_order_relaxed);
              chunks_ctr_->inc(local_chunks);
            } else {
              reply = transport_.call(sub.node, std::move(req));
            }
            reply = expect_ok(std::move(reply), "query");
            WireReader r(reply);
            const std::uint32_t n_present = r.get_u32();
            for (std::uint32_t j = 0; j < n_present; ++j) {
              const std::uint64_t key = r.get_u64();
              const std::uint64_t version = r.get_u64();
              if (!for_cache) continue;  // piggyback read, not validated
              // Compare against the plan: any drift means a commit or
              // reload landed mid-fan-out — the result is still a valid
              // read-committed answer, but must not be cached. (A pinned
              // reply can never drift: hosts answer at the requested
              // version or report the key retired.)
              const auto it = std::lower_bound(
                  plan_versions.begin(), plan_versions.end(),
                  std::pair<std::uint64_t, std::uint64_t>{key, 0});
              if (it == plan_versions.end() || it->first != key ||
                  it->second != version) {
                clean.store(false, std::memory_order_relaxed);
              }
            }
            const std::uint32_t n_missing = r.get_u32();
            if (n_missing != 0) {
              std::lock_guard<std::mutex> g(miss_mu);
              for (std::uint32_t j = 0; j < n_missing; ++j) {
                missing.push_back(r.get_u64());
              }
            }
            const std::uint32_t n_retired = r.get_u32();
            if (n_retired != 0) {
              any_retired.store(true, std::memory_order_relaxed);
              for (std::uint32_t j = 0; j < n_retired; ++j) {
                (void)r.get_u64();  // keys are diagnostic only
              }
            }
            if (reply.type == MsgType::kQueryDone) {
              // Streamed reply: the points already flowed through
              // on_chunk; the final frame carries the summary.
              (void)r.get_u64();  // total points
              (void)r.get_u64();  // chunk count (counted client-side)
              const std::uint64_t waits = r.get_u64();
              stream_backpressure_waits_.fetch_add(
                  waits, std::memory_order_relaxed);
              waits_ctr_->inc(waits);
              return;
            }
            switch (kind) {
              case QueryKind::kRangeList:
              case QueryKind::kBallList:
              case QueryKind::kKnn: {
                const std::vector<point_t> pts =
                    r.template get_points<coord_t, kDim>();
                for (const point_t& p : pts) emit(p);
                break;
              }
              case QueryKind::kRangeCount:
              case QueryKind::kBallCount:
                count.fetch_add(r.get_u64(), std::memory_order_relaxed);
                break;
            }
          });
        }
        tasks.wait();
        // Any pinned version past a host's retention horizon fails the
        // whole read: the pinned state is no longer materialisable.
        if (any_retired.load(std::memory_order_relaxed)) {
          note_retired();
          throw api::EpochRetired(route->epoch);
        }

        // Re-route every missing shard through the freshest route; a key
        // that no longer exists anywhere means the topology changed under
        // us — replan from scratch.
        if (!missing.empty()) {
          const auto fresh = coordinator_->route();
          for (std::uint64_t key : missing) {
            std::size_t idx = fresh->keys.size();
            for (std::size_t i = 0; i < fresh->keys.size(); ++i) {
              if (fresh->keys[i] == key) {
                idx = i;
                break;
              }
            }
            if (idx == fresh->keys.size()) {
              restart = true;
              break;
            }
            work.emplace_back(key, fresh->owners[idx]);
            // A pinned re-route stays clean: the new owner must still
            // answer at the planned content version or report it retired.
            if (!pinned) {
              clean.store(false, std::memory_order_relaxed);  // moved
            }
          }
        }
      }
      if (restart) {
        if (pinned) {
          // The pinned route names a shard key that no longer exists
          // anywhere (dissolved by a split/merge/load): the pinned state
          // cannot be reassembled, now or on any retry.
          note_retired();
          throw api::EpochRetired(route->epoch);
        }
        continue;
      }
      out.count = count.load(std::memory_order_relaxed);
      out.clean = clean.load(std::memory_order_relaxed);
      return out;
    }
    throw TransportError("query could not settle: topology kept changing");
  }

  Transport& transport_;
  std::vector<std::unique_ptr<host_t>> hosts_;
  std::unique_ptr<coordinator_t> coordinator_;
  mutable std::mutex write_mu_;
  mutable service::QueryCache<coord_t, kDim> cache_;
  mutable std::atomic<std::uint64_t> torn_skips_{0};
  mutable std::atomic<std::uint64_t> pinned_reads_{0};
  mutable std::atomic<std::uint64_t> epoch_retired_errors_{0};
  mutable std::atomic<std::uint64_t> stream_chunks_{0};
  mutable std::atomic<std::uint64_t> stream_backpressure_waits_{0};
  telemetry::Counter* pinned_ctr_ =
      &telemetry::StatsRegistry::instance().counter("psi_pinned_reads");
  telemetry::Counter* retired_ctr_ =
      &telemetry::StatsRegistry::instance().counter("psi_epoch_retired_errors");
  telemetry::Counter* chunks_ctr_ =
      &telemetry::StatsRegistry::instance().counter("psi_stream_chunks");
  telemetry::Counter* waits_ctr_ = &telemetry::StatsRegistry::instance()
                                        .counter("psi_stream_backpressure_waits");
  DistributedConfig cfg_;
  // Kept for recovery: decoding an arena checkpoint image back to points
  // needs an index of the same backend type (adopt + flatten).
  factory_t factory_;
  double recovery_ms_ = 0;
  std::uint64_t last_topology_events_ = 0;

  psi::durability::ArenaDecoder<coord_t, kDim> arena_decoder() const {
    return [this](std::uint64_t factory_id,
                  const std::vector<std::uint8_t>& image) {
      Index idx = factory_(static_cast<std::size_t>(factory_id));
      service::adopt_index_arena(idx, image.data(), image.size());
      return idx.flatten();
    };
  }
};

}  // namespace psi::net
