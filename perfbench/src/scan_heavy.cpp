// scan-heavy: query kernels over SoA leaves, the snapshot fan-out and the
// scheduler under a nearly idle commit path.
//
// SpatialService<SpacZTree3> over 4M cosmo_sim points in 8 fixed shards,
// WAL armed with fsync. Two closed-loop clients run a fixed mix through
// query(QueryDesc, ReadOptions) with the cache bypassed: range_list boxes
// of ~10^4 points anchored in-distribution, range_count boxes of ~10^5
// points, and 10-NN in- and out-of-distribution. A trickle of open-loop
// moves (20 per 10 ms tick, 2k moves/s) keeps commits running.

#include "common.h"
#include "workload.h"

namespace perfbench {

int run_scan_heavy(const Options& opt) {
  using Backend = LocalBackend<psi::SpacZTree3>;
  using Desc = WorkloadSpec<Backend>::Desc;
  constexpr std::int64_t kMax = psi::datagen::kDefaultMax3D;

  const std::size_t n = opt.tiny ? 40'000 : 4'000'000;
  const std::size_t movers = opt.tiny ? 1'000 : 10'000;
  const std::size_t per_tick = opt.tiny ? 4 : 20;
  const std::size_t list_target = opt.tiny ? 200 : 10'000;
  const std::size_t count_target = opt.tiny ? 2'000 : 100'000;
  const std::size_t per_kind = 1'024;

  WorkloadSpec<Backend> spec;
  spec.name = "scan-heavy";
  spec.cfg.shards = 8;
  spec.shape = "shards=8 cache=bypassed";
  spec.clients = 2;
  spec.base = psi::datagen::cosmo_sim(n, psi::hash64(opt.seed, 1), kMax);

  spec.traffic_ticks = static_cast<std::size_t>(opt.seconds * 1000 / kTickMs);
  spec.tail_ticks = 10;
  spec.ticks = make_move_ticks(
      pick_movers(spec.base, movers, psi::hash64(opt.seed, 2)),
      spec.traffic_ticks + spec.tail_ticks, per_tick, kMax / 1000, kMax,
      psi::hash64(opt.seed, 3));

  // The query mix, interleaved in a seeded order.
  const auto ind = psi::datagen::ind_queries(spec.base, 3 * per_kind,
                                             psi::hash64(opt.seed, 4), kMax);
  const auto ood =
      psi::datagen::ood_queries<3>(per_kind, psi::hash64(opt.seed, 5), kMax);
  const std::vector<psi::Point3> list_anchors(ind.begin(), ind.begin() + per_kind);
  const std::vector<psi::Point3> count_anchors(ind.begin() + per_kind,
                                               ind.begin() + 2 * per_kind);
  const auto list_boxes = calibrated_boxes(spec.base, list_anchors, list_target,
                                           kMax, psi::hash64(opt.seed, 6));
  const auto count_boxes = calibrated_boxes(spec.base, count_anchors, count_target,
                                            kMax, psi::hash64(opt.seed, 7));
  for (std::size_t i = 0; i < per_kind; ++i) {
    spec.queries.push_back(Desc::range_list(list_boxes[i]));
    spec.queries.push_back(Desc::range_count(count_boxes[i]));
    spec.queries.push_back(Desc::knn(ind[2 * per_kind + i], 10));
    spec.queries.push_back(Desc::knn(ood[i], 10));
  }
  const psi::Rng shuffle(psi::hash64(opt.seed, 8));
  for (std::size_t i = spec.queries.size(); i > 1; --i) {
    std::swap(spec.queries[i - 1], spec.queries[shuffle.ith_bounded(i, i)]);
  }
  return Workload<Backend>(opt, std::move(spec)).run();
}

}  // namespace perfbench
