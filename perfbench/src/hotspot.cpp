// hotspot: the wire, the transport, commit RPCs, cache invalidation by
// writes next to reads, and split/migrate.
//
// DistributedService<SpacZTree2> on 2 host nodes, 1M osm_sim points in 4
// initial shards, WAL armed with fsync. Two closed-loop readers issue
// cached range_count / range_list over zipf(1.0)-ranked boxes (4,096
// boxes x 2 kinds; 256 cache entries hold the head, not the tail). One
// open-loop writer inserts 100 points and deletes 50 of its earlier inserts
// per 10 ms tick inside a hot region, which moves to a second region at the
// half-way point; the split threshold sits just above the initial shard
// size, so the hot shard splits mid-run and balance_nodes migrates shards
// between the hosts.
//
// Two workloads, both kept out of BENCHMARK.json (see NOTES.md), differ
// only in the transport:
//   hotspot-cluster   TcpTransport on 127.0.0.1: deadlocks under this load
//   hotspot-loopback  LoopbackTransport: completes, but its update tail and
//                     restart time do not repeat from run to run

#include "common.h"
#include "workload.h"

namespace perfbench {

namespace {

using P = psi::Point2;
constexpr std::int64_t kMax = psi::datagen::kDefaultMax2D;

// Writer ticks: `per_tick` fresh points uniform in the active hot region,
// then deletes of the oldest half as many of the writer's own inserts.
std::vector<Tick<P>> hot_ticks(std::size_t count, std::size_t half,
                               std::size_t per_tick, const P& c1, const P& c2,
                               std::int64_t radius, std::uint64_t seed) {
  const psi::Rng rng(seed);
  std::vector<Tick<P>> out(count);
  std::deque<P> live;
  std::uint64_t draw = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const P& c = i < half ? c1 : c2;
    for (std::size_t j = 0; j < per_tick; ++j) {
      P p;
      for (int d = 0; d < 2; ++d) {
        const auto r = static_cast<std::int64_t>(
            rng.ith_bounded(draw++, 2 * static_cast<std::uint64_t>(radius) + 1));
        p[d] = std::clamp<std::int64_t>(c[d] + r - radius, 0, kMax);
      }
      out[i].ins.push_back(p);
      live.push_back(p);
    }
    for (std::size_t j = 0; j < per_tick / 2 && !live.empty(); ++j) {
      out[i].dels.push_back(live.front());
      live.pop_front();
    }
  }
  return out;
}

template <typename Transport>
int run_hotspot(const Options& opt, const char* name, const char* transport) {
  using Backend = ClusterBackend<psi::SpacZTree2, Transport>;
  using Desc = typename WorkloadSpec<Backend>::Desc;
  const std::size_t n = opt.tiny ? 20'000 : 1'000'000;
  const std::size_t num_boxes = 4'096;

  WorkloadSpec<Backend> spec;
  spec.name = name;
  spec.clients = 2;
  spec.stall_s = 10;
  spec.cfg.shards = 4;
  spec.cfg.split_threshold = n / 4 + (opt.tiny ? 500 : 12'000);
  spec.cfg.cache_entries = 256;
  spec.shape = std::string("nodes=2 transport=") + transport +
               " shards=4 split_threshold=" +
               std::to_string(spec.cfg.split_threshold) +
               " cache_entries=" + std::to_string(spec.cfg.cache_entries);
  spec.base = psi::datagen::osm_sim(n, psi::hash64(opt.seed, 1), kMax);

  const auto anchors = psi::datagen::ind_queries(spec.base, num_boxes + 2,
                                                 psi::hash64(opt.seed, 4), kMax);
  const auto boxes = calibrated_boxes(
      spec.base, std::vector<P>(anchors.begin(), anchors.begin() + num_boxes),
      opt.tiny ? 20 : 200, kMax, psi::hash64(opt.seed, 6));
  spec.traffic_ticks = static_cast<std::size_t>(opt.seconds * 1000 / kTickMs);
  spec.tail_ticks = 20;
  spec.ticks = hot_ticks(spec.traffic_ticks + spec.tail_ticks,
                         spec.traffic_ticks / 2, opt.tiny ? 10 : 100,
                         anchors[num_boxes], anchors[num_boxes + 1], kMax / 200,
                         psi::hash64(opt.seed, 3));

  // Readers: zipf-ranked boxes, count or list by a seeded coin.
  const auto ranks = zipf_draws(num_boxes, 1 << 18, psi::hash64(opt.seed, 5));
  const psi::Rng coin(psi::hash64(opt.seed, 7));
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto& b = boxes[ranks[i]];
    spec.queries.push_back(coin.ith_bounded(i, 2) ? Desc::range_list(b)
                                                  : Desc::range_count(b));
  }
  spec.cached.assign(spec.queries.size(), 1);
  return Workload<Backend>(opt, std::move(spec)).run();
}

}  // namespace

int run_hotspot_loopback(const Options& opt) {
  return run_hotspot<psi::net::LoopbackTransport>(opt, "hotspot-loopback",
                                                  "loopback");
}

int run_hotspot_cluster(const Options& opt) {
  return run_hotspot<psi::net::TcpTransport>(opt, "hotspot-cluster", "tcp");
}

}  // namespace perfbench
