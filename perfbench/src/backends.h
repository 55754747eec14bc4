// The two service shapes one workload harness (workload.h) drives:
//
//   LocalBackend<Index>              SpatialService<Index>, in process
//   ClusterBackend<Index, Transport> DistributedService<Index> on 2 hosts
//
// Each backend owns one open deployment and gives the harness the same
// small surface: set up or reopen it, submit one tick of updates and wait
// for it, answer a query with the workload's read options, hold a
// consistency point (snapshot / pin) and compute the oracle answer of a
// query on it, checkpoint, flatten, and its share of the per-layer
// metrics from its public stats().

#pragma once

#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "per_layer.h"

namespace perfbench {

// The answer of one query as the oracle check compares it: the count or
// number of points delivered, and the points (list kinds and kNN).
template <typename P>
struct Answer {
  std::size_t n = 0;
  std::vector<P> pts;
};

template <typename P>
double dist2(const P& a, const P& b) {
  double s = 0;
  for (int d = 0; d < P::kDim; ++d) {
    const double x = static_cast<double>(a[d]) - static_cast<double>(b[d]);
    s += x * x;
  }
  return s;
}

template <typename P, typename Desc>
bool same_answer(const Desc& q, const Answer<P>& got, const Answer<P>& want) {
  using Kind = typename Desc::Kind;
  if (got.n != want.n) return false;
  if (q.kind == Kind::kKnn) {
    // Ties at the k-th distance may pick different points: compare
    // distances.
    std::vector<double> a, b;
    for (const auto& p : got.pts) a.push_back(dist2(p, q.center));
    for (const auto& p : want.pts) b.push_back(dist2(p, q.center));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  }
  if (q.is_list()) return same_multiset(got.pts, want.pts);
  return true;
}

// One query through the unified read API. List kinds stream into a
// ConcurrentSink (the parallel fan-out path) except kNN, whose k points go
// to a plain sink. With `out`, the delivered points are kept.
template <typename Svc, typename Desc, typename P = typename Svc::point_t>
std::size_t run_query(const Svc& svc, const Desc& q,
                      const psi::api::ReadOptions& opts, Answer<P>* out) {
  using Kind = typename Desc::Kind;
  std::size_t n = 0;
  if (q.kind == Kind::kRangeList || q.kind == Kind::kBallList) {
    psi::api::ConcurrentSink<typename P::coord_t, P::kDim> sink;
    n = svc.query(q, opts, sink);
    if (out) out->pts = sink.take();
  } else if (q.kind == Kind::kKnn) {
    n = svc.query(q, opts, [&](const P& p) {
      if (out) out->pts.push_back(p);
    });
  } else {
    n = svc.query(q, opts);
  }
  if (out) out->n = n;
  return n;
}

// query_cache.* over the traffic window, from either service's stats().
template <typename Stats>
void cache_values(LayerValues& v, const Stats& b, const Stats& a) {
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  const double lookups =
      d(a.cache_hits, b.cache_hits) + d(a.cache_misses, b.cache_misses);
  v["query_cache.hit_ratio"] =
      lookups > 0 ? d(a.cache_hits, b.cache_hits) / lookups : 0;
  v["query_cache.cross_epoch_hits"] =
      d(a.cache_cross_epoch_hits, b.cache_cross_epoch_hits);
  v["query_cache.torn_skips"] = d(a.cache_torn_skips, b.cache_torn_skips);
}

// Ops of one submitted tick, as the harness waits for them.
template <typename Future>
struct PendingTick {
  std::vector<Future> futs;  // in-process: one future per op
  std::uint64_t ok = 0, failed = 0;  // cluster: settled on submit
  std::int64_t done_ns = 0;
};

// ---------------------------------------------------------------------------
// In process: SpatialService<Index>
// ---------------------------------------------------------------------------

template <typename IndexT>
class LocalBackend {
 public:
  using Index = IndexT;
  using P = typename Index::point_t;
  using Service = psi::service::SpatialService<Index>;
  using Desc = typename Service::desc_t;
  using Held = typename Service::snapshot_t;
  using Stats = psi::service::ServiceStats;
  using Pending = PendingTick<typename Service::future_t>;
  static constexpr bool kInProcess = true;
  static constexpr bool kInsertsFirst = false;
  static constexpr const char* kSetupSpan = "service.setup";
  static constexpr const char* kRestartSpan = "service.restart";

  struct Config {
    std::size_t shards = 4;
    std::size_t cache_entries = 16;
  };

  // A fresh service over `base` (build() writes the initial checkpoint),
  // started; or, with `base` null, the service recovered from `dir`.
  LocalBackend(const Config& cfg, const std::string& dir,
               const std::vector<P>* base)
      : svc_(config(cfg, dir)) {
    if (base) svc_.build(*base);
    svc_.start();
  }

  // Query `i` goes through the query cache when the workload marks it
  // `cached`; otherwise the cache is bypassed and the read reaches the index.
  static psi::api::ReadOptions read_options(std::size_t /*i*/, bool cached) {
    return cached ? psi::api::ReadOptions{}.cached() : psi::api::ReadOptions{};
  }
  static const char* query_span(std::size_t /*i*/, bool cached) {
    return cached ? "query_cache.query" : "service.query";
  }

  // The traced run times one extra snapshot() per query.
  void trace_snapshot(std::uint64_t req) const {
    Span s("service.snapshot", req);
    auto snap = svc_.snapshot();
  }

  // Deletes first, then inserts: a mover's new position follows its old.
  Pending submit(const Tick<P>& t, std::uint64_t req) {
    Pending p;
    {
      Span s("service.submit", req);
      p.futs = svc_.submit_delete_batch(t.dels);
    }
    {
      Span s("service.submit", req);
      auto ins = svc_.submit_insert_batch(t.ins);
      for (auto& f : ins) p.futs.push_back(std::move(f));
    }
    return p;
  }

  // Waits for every op of the tick; returns when the last resolved.
  std::int64_t complete(Pending& p) {
    for (auto& f : p.futs) {
      try {
        f.get();
        ledger().done();
      } catch (...) {
        ledger().fail();
      }
    }
    return now_ns();
  }

  // The tail commits exactly one group (one WAL record) per tick: the
  // background committer is stopped and each tick is flushed by hand.
  void begin_tail() { svc_.stop(); }
  void flush() { svc_.flush(); }

  Held hold() const { return svc_.snapshot(); }

  // BruteForceIndex over the held snapshot's points, one shard's flatten()
  // at a time so the check never holds a second copy of the whole set.
  Answer<P> oracle(const Held& snap, const Desc& q) const {
    using Kind = typename Desc::Kind;
    Answer<P> want;
    std::vector<P> knn;
    for (const auto& shard : snap.view().shards) {
      psi::BruteForceIndex<typename P::coord_t, P::kDim> bf;
      bf.build(shard->flatten());
      switch (q.kind) {
        case Kind::kRangeCount:
          want.n += bf.range_count(q.box);
          break;
        case Kind::kRangeList: {
          auto part = bf.range_list(q.box);
          want.pts.insert(want.pts.end(), part.begin(), part.end());
          break;
        }
        case Kind::kKnn: {
          auto part = bf.knn(q.center, q.k);
          knn.insert(knn.end(), part.begin(), part.end());
          break;
        }
        default:
          break;
      }
    }
    if (q.kind == Kind::kKnn) {
      std::sort(knn.begin(), knn.end(), [&](const P& a, const P& b) {
        return dist2(a, q.center) < dist2(b, q.center);
      });
      knn.resize(std::min(knn.size(), q.k));
      want.pts = std::move(knn);
    }
    if (q.is_list()) want.n = want.pts.size();
    return want;
  }

  const Service& service() const { return svc_; }
  void checkpoint() { svc_.checkpoint(); }
  std::uint64_t epoch() const { return svc_.epoch(); }
  std::vector<P> flatten() const { return svc_.snapshot().flatten(); }
  Stats stats() const { return svc_.stats(); }

  // service.*, query_cache.*, arena.*, durability.* from stats() and the
  // benchmark's spans. `b`/`a` bracket the traffic; `fin` is taken after
  // the tail.
  static void layer_values(LayerValues& v, const Stats& b, const Stats& a,
                           const Stats& fin) {
    using psi::telemetry::Stage;
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(x - y);
    };
    const double commits = std::max(1.0, d(a.commits, b.commits));
    const double upd_ops =
        d(a.ops_insert, b.ops_insert) + d(a.ops_delete, b.ops_delete);
    auto stage_p99_us = [&](Stage s) {
      const auto i = static_cast<std::size_t>(s);
      return i < a.stages.size() ? static_cast<double>(a.stages[i].p99) / 1e3 : 0.0;
    };
    Tracer& tr = Tracer::instance();
    v["service.submit_us"] = median(us_of(tr.durations_ns("service.submit")));
    v["service.ops_per_commit"] = upd_ops / commits;
    v["service.apply_p99_us"] = stage_p99_us(Stage::kApply);
    v["service.replay_p99_us"] = stage_p99_us(Stage::kReplay);
    v["service.grace_p99_us"] = stage_p99_us(Stage::kGrace);
    v["service.publish_p99_us"] = stage_p99_us(Stage::kPublish);
    v["service.grace_yields_per_commit"] = d(a.grace_yields, b.grace_yields) / commits;
    v["service.replica_rebuilds"] = d(a.replica_rebuilds, b.replica_rebuilds);
    v["service.snapshot_us"] = median(us_of(tr.durations_ns("service.snapshot")));
    cache_values(v, b, a);
    v["arena.bytes_per_live_byte"] =
        static_cast<double>(fin.arena_bytes) /
        std::max(1.0, static_cast<double>(fin.size_total) * sizeof(P));
    v["durability.fsync_p99_us"] = static_cast<double>(a.wal_fsync.p99) / 1e3;
    v["durability.wal_bytes_per_user_byte"] =
        d(a.wal_bytes, b.wal_bytes) / std::max(1.0, upd_ops * sizeof(P));
  }

 private:
  static psi::service::ServiceConfig config(const Config& c,
                                            const std::string& dir) {
    psi::service::ServiceConfig cfg;
    cfg.initial_shards = c.shards;
    // Fixed topology: no split or merge during the run.
    cfg.split_threshold = std::numeric_limits<std::size_t>::max() / 4;
    cfg.merge_threshold = 1;
    cfg.min_shards = c.shards;
    cfg.cache_entries = c.cache_entries;
    cfg.durability.enabled = true;
    cfg.durability.dir = dir;
    cfg.durability.fsync = true;
    return cfg;
  }

  Service svc_;
};

// ---------------------------------------------------------------------------
// Cluster: DistributedService<Index> on 2 hosts over one Transport
// ---------------------------------------------------------------------------

template <typename IndexT, typename Transport>
class ClusterBackend {
 public:
  using Index = IndexT;
  using P = typename Index::point_t;
  using Service = psi::net::DistributedService<Index>;
  using Desc = psi::api::QueryDesc<typename P::coord_t, P::kDim>;
  using Held = typename Service::PinnedView;
  using Stats = psi::net::DistributedStats;
  using Pending = PendingTick<std::future<void>>;
  static constexpr bool kInProcess = false;
  static constexpr bool kInsertsFirst = true;
  static constexpr const char* kSetupSpan = "net.setup";
  static constexpr const char* kRestartSpan = "net.restart";
  static constexpr std::size_t kNodes = 2;
  static constexpr std::size_t kMissEvery = 16;

  struct Config {
    std::size_t shards = 4;
    std::size_t split_threshold = 0;
    std::size_t cache_entries = 0;
  };

  // A fresh cluster over `base` (build() writes the initial checkpoint);
  // or, with `base` null, the cluster recovered from `dir`.
  ClusterBackend(const Config& cfg, const std::string& dir,
                 const std::vector<P>* base)
      : svc_(std::make_unique<Service>(fabric_, kNodes, config(cfg, dir))) {
    if (base) {
      svc_->build(*base);
    } else {
      svc_->recover_from_disk();
    }
  }
  ~ClusterBackend() { svc_.reset(); }  // unbind the hosts before the fabric

  static psi::api::ReadOptions read_options(std::size_t i, bool cached) {
    return cached && !probe_miss(i) ? psi::api::ReadOptions{}.cached()
                                    : psi::api::ReadOptions{};
  }
  static const char* query_span(std::size_t i, bool cached) {
    return cached && !probe_miss(i) ? "query_cache.query" : "net.query_rpc";
  }
  void trace_snapshot(std::uint64_t /*req*/) const {}

  // Inserts first: a tick's deletes name earlier inserts of the writer,
  // possibly from this tick. Each batch is one commit RPC; the tick is done
  // when both returned.
  Pending submit(const Tick<P>& t, std::uint64_t req) {
    Pending p;
    for (const auto* batch : {&t.ins, &t.dels}) {
      try {
        Span s("net.commit_rpc", req);
        if (batch == &t.ins) {
          svc_->insert_batch(*batch);
        } else {
          svc_->delete_batch(*batch);
        }
        p.ok += batch->size();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: commit failed: %s\n", e.what());
        p.failed += batch->size();
      }
    }
    p.done_ns = now_ns();
    return p;
  }
  std::int64_t complete(Pending& p) {
    ledger().done(p.ok);
    ledger().fail(p.failed);
    return p.done_ns;
  }
  void begin_tail() {}
  void flush() {}

  Held hold() const { return svc_->pin(); }

  // The same query, uncached, on the pinned view.
  Answer<P> oracle(const Held& pin, const Desc& q) const {
    Answer<P> want;
    want.n = svc_->query(q, pin, [&](const P& p) { want.pts.push_back(p); });
    return want;
  }

  const Service& service() const { return *svc_; }
  void checkpoint() { svc_->checkpoint_all(); }
  std::uint64_t epoch() const { return svc_->epoch(); }
  std::vector<P> flatten() const { return svc_->flatten(); }
  Stats stats() const { return svc_->stats(); }

  // query_cache.* and net.* from stats() and the benchmark's spans.
  static void layer_values(LayerValues& v, const Stats& b, const Stats& a,
                           const Stats& /*fin*/) {
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(x - y);
    };
    Tracer& tr = Tracer::instance();
    std::vector<double> commit_ms;
    for (double ns : tr.durations_ns("net.commit_rpc")) commit_ms.push_back(ns / 1e6);
    const auto list_op = static_cast<std::size_t>(psi::telemetry::ReadOp::kRangeList);
    cache_values(v, b, a);
    v["net.commit_rpc_ms"] = median(commit_ms);
    v["net.query_rpc_us"] = median(us_of(tr.durations_ns("net.query_rpc")));
    v["net.host_read_p50_us"] =
        list_op < a.read_latency.size()
            ? static_cast<double>(a.read_latency[list_op].p50) / 1e3
            : 0;
    v["net.splits"] = d(a.coordinator.splits, b.coordinator.splits);
    v["net.migrations"] = d(a.coordinator.migrations, b.coordinator.migrations);
    v["net.backpressure_waits"] =
        d(a.stream_backpressure_waits, b.stream_backpressure_waits);
  }

 private:
  // Traced runs send every kMissEvery-th cached query of each client
  // uncached instead: the cache-miss round trip net.query_rpc_us is timed on
  // those.
  static bool probe_miss(std::size_t i) {
    return Tracer::instance().on() && i % kMissEvery < 2;
  }

  static psi::net::DistributedConfig config(const Config& c,
                                            const std::string& dir) {
    psi::net::DistributedConfig cfg;
    cfg.initial_shards = c.shards;
    cfg.split_threshold = c.split_threshold;
    cfg.balance_nodes = true;
    cfg.cache_entries = c.cache_entries;
    cfg.durability.enabled = true;
    cfg.durability.dir = dir;
    cfg.durability.fsync = true;
    return cfg;
  }

  Transport fabric_;
  std::unique_ptr<Service> svc_;
};

}  // namespace perfbench
