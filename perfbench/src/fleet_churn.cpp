// fleet-churn: the paper's headline pattern — continuous batch updates
// from moving objects with small queries alongside.
//
// SpatialService<SpacZTree2> over 1M osm_sim points in 4 fixed shards, WAL
// armed with fsync. 100k movers each delete their old position and insert
// the new one, 200 moves per 10 ms tick (20k moves/s, open loop); one
// closed-loop client runs 10-NN queries on fresh snapshots. Every 4th query
// reads through the query cache (256 entries) around one of 4,096 hot
// centers ranked by zipf(1.0): the head fits the cache, the tail does not.
// After the traffic: checkpoint(), a fixed tail of 10 ticks (2,000 moves),
// flush(), destroy, reopen on the WAL directory -> restart_s.

#include "common.h"
#include "workload.h"

namespace perfbench {

int run_fleet_churn(const Options& opt) {
  using Backend = LocalBackend<psi::SpacZTree2>;
  constexpr std::int64_t kMax = psi::datagen::kDefaultMax2D;

  const std::size_t n = opt.tiny ? 20'000 : 1'000'000;
  const std::size_t movers = opt.tiny ? 2'000 : 100'000;
  const std::size_t per_tick = opt.tiny ? 20 : 200;
  const std::size_t tail_ticks = 10;
  const std::size_t num_queries = 65'536;
  const std::size_t hot_centers = 4'096;
  const std::size_t cached_every = 4;

  WorkloadSpec<Backend> spec;
  spec.name = "fleet-churn";
  spec.cfg.shards = 4;
  spec.cfg.cache_entries = 256;
  spec.shape = "shards=4 cache_entries=256 cached_share=1/4";
  spec.clients = 1;
  spec.base = psi::datagen::osm_sim(n, psi::hash64(opt.seed, 1), kMax);

  spec.traffic_ticks = static_cast<std::size_t>(opt.seconds * 1000 / kTickMs);
  spec.tail_ticks = tail_ticks;
  spec.ticks = make_move_ticks(
      pick_movers(spec.base, movers, psi::hash64(opt.seed, 2)),
      spec.traffic_ticks + tail_ticks, per_tick, kMax / 1000, kMax,
      psi::hash64(opt.seed, 3));

  const auto centers = psi::datagen::ind_queries(spec.base, num_queries,
                                                 psi::hash64(opt.seed, 4), kMax);
  const auto hot = psi::datagen::ind_queries(spec.base, hot_centers,
                                             psi::hash64(opt.seed, 5), kMax);
  const auto ranks = zipf_draws(hot_centers, num_queries / cached_every,
                                psi::hash64(opt.seed, 6));
  for (std::size_t i = 0; i < num_queries; ++i) {
    const bool cached = i % cached_every == cached_every - 1;
    spec.queries.push_back(WorkloadSpec<Backend>::Desc::knn(
        cached ? hot[ranks[i / cached_every]] : centers[i], 10));
    spec.cached.push_back(cached ? 1 : 0);
  }
  return Workload<Backend>(opt, std::move(spec)).run();
}

}  // namespace perfbench
