// psi::service unit tests: single-threaded semantics of the sharded,
// epoch-versioned service — routing, group commit, futures, snapshots,
// shard split/merge, and oracle equivalence across backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "psi/psi.h"
#include "test_util.h"

namespace {

using namespace psi;
using namespace psi::service;

constexpr std::int64_t kMax = 1'000'000'000;

Box2 box_around(const Point2& c, std::int64_t half) {
  return testutil::box_around(c, half, kMax);
}

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

TEST(ShardMap, RoutesEveryCodeSomewhere) {
  auto m = ShardMap<std::int64_t, 2>::uniform(8);
  EXPECT_EQ(m.num_shards(), 8u);
  EXPECT_EQ(m.shard_of_code(0), 0u);
  EXPECT_EQ(m.shard_of_code(~std::uint64_t{0}), 7u);
  // Boundaries are increasing and adjacent shards tile the code space.
  for (std::size_t i = 0; i + 1 < m.num_shards(); ++i) {
    EXPECT_LT(m.upper_bound_of(i), m.upper_bound_of(i + 1));
    EXPECT_EQ(m.lower_bound_of(i + 1), m.upper_bound_of(i) + 1);
  }
  // Points route to the shard covering their code.
  auto pts = datagen::uniform<2>(2000, 17, kMax);
  for (const auto& p : pts) {
    const std::size_t s = m.shard_of(p);
    const std::uint64_t code = sfc::MortonCodec<std::int64_t, 2>::encode(p);
    EXPECT_GE(code, m.lower_bound_of(s));
    EXPECT_LE(code, m.upper_bound_of(s));
  }
}

TEST(ShardMap, SplitAndMergeKeepTiling) {
  auto m = ShardMap<std::int64_t, 2>::uniform(2);
  const std::uint64_t mid = m.upper_bound_of(0) / 2;
  ASSERT_TRUE(m.split(0, mid));
  EXPECT_EQ(m.num_shards(), 3u);
  EXPECT_EQ(m.upper_bound_of(0), mid);
  EXPECT_EQ(m.lower_bound_of(1), mid + 1);
  ASSERT_TRUE(m.merge(0));
  EXPECT_EQ(m.num_shards(), 2u);
  // Degenerate splits are rejected.
  EXPECT_FALSE(m.split(1, 0));                    // below shard 1's range
  EXPECT_FALSE(m.split(1, ~std::uint64_t{0}));    // == upper bound
  EXPECT_FALSE(m.merge(1));                       // no right neighbour
}

TEST(ShardMap, EqualPopulationPartitionBalancesRealCodes) {
  using Codec = sfc::MortonCodec<std::int64_t, 2>;
  auto pts = datagen::osm_sim(20000, 19);
  std::vector<std::uint64_t> codes(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) codes[i] = Codec::encode(pts[i]);
  std::sort(codes.begin(), codes.end());

  auto m = ShardMap<std::int64_t, 2, Codec>::from_sorted_codes(codes, 8);
  ASSERT_EQ(m.num_shards(), 8u);
  std::vector<std::size_t> pop(m.num_shards(), 0);
  for (const auto& p : pts) ++pop[m.shard_of(p)];
  // Quantile boundaries put every shard within ~2x of the mean; the naive
  // uniform() map would put all real-world codes in shard 0.
  const std::size_t mean = pts.size() / m.num_shards();
  for (std::size_t s = 0; s < pop.size(); ++s) {
    EXPECT_GT(pop[s], mean / 4) << "shard " << s << " starved";
    EXPECT_LT(pop[s], mean * 3) << "shard " << s << " overloaded";
  }
}

TEST(ShardMap, MonotoneBoxRoutingIsConservative) {
  using Codec = sfc::MortonCodec<std::int64_t, 2>;
  auto m = ShardMap<std::int64_t, 2, Codec>::uniform(16);
  auto pts = datagen::uniform<2>(4000, 23, kMax);
  auto anchors = datagen::ind_queries(pts, 32, 5, kMax);
  for (const auto& a : anchors) {
    const Box2 q = box_around(a, kMax / 50);
    const auto [lo, hi] = m.shard_range_for_box(q);
    ASSERT_LE(lo, hi);
    for (const auto& p : pts) {
      if (!q.contains(p)) continue;
      const std::size_t s = m.shard_of(p);
      EXPECT_GE(s, lo);
      EXPECT_LE(s, hi);
    }
  }
}

// ---------------------------------------------------------------------------
// Service semantics (manual pump; SpacZTree backend unless stated)
// ---------------------------------------------------------------------------

using ZService = SpatialService<SpacZTree2>;

TEST(SpatialService, BuildThenQueriesMatchOracle) {
  auto pts = datagen::osm_sim(20000, 3);
  ZService svc(ServiceConfig{.initial_shards = 8});
  svc.build(pts);
  EXPECT_EQ(svc.size(), pts.size());

  BruteForceIndex<std::int64_t, 2> oracle;
  oracle.build(pts);

  auto knn_q = datagen::ind_queries(pts, 24, 7, kMax);
  std::vector<Box2> ranges;
  for (const auto& q : datagen::ind_queries(pts, 12, 11, kMax)) {
    ranges.push_back(box_around(q, kMax / 40));
  }
  auto snap = svc.snapshot();
  testutil::expect_queries_match(snap, oracle, knn_q, 10, ranges);
}

TEST(SpatialService, QueuedRequestsResolveWithFutures) {
  ZService svc(ServiceConfig{.initial_shards = 4});
  auto pts = datagen::uniform<2>(5000, 29, kMax);

  auto ins_futs = svc.submit_insert_batch(pts);
  auto knn_fut = svc.submit_knn(pts[0], 5);
  auto cnt_fut = svc.submit_range_count(box_around(pts[0], kMax / 20));
  auto list_fut = svc.submit_range_list(box_around(pts[0], kMax / 20));
  EXPECT_EQ(svc.size(), 0u);  // nothing visible before a commit
  svc.flush();

  // Updates resolve with the epoch that made them visible.
  const std::uint64_t e = ins_futs[0].get().epoch;
  EXPECT_GT(e, 0u);
  EXPECT_LE(e, svc.epoch());
  EXPECT_EQ(svc.size(), pts.size());

  // Queries drained with the same group observe the inserts.
  BruteForceIndex<std::int64_t, 2> oracle;
  oracle.build(pts);
  auto knn = knn_fut.get();
  testutil::expect_knn_equivalent(knn.points, pts[0],
                                  oracle.knn_distances(pts[0], 5));
  const Box2 b = box_around(pts[0], kMax / 20);
  EXPECT_EQ(cnt_fut.get().count, oracle.range_count(b));
  testutil::expect_same_multiset(list_fut.get().points, oracle.range_list(b));
}

TEST(SpatialService, InsertThenDeleteSameGroupIsNetZero) {
  ZService svc;
  const Point2 p{{123, 456}};
  auto f1 = svc.submit_insert(p);
  auto f2 = svc.submit_insert(p);
  auto f3 = svc.submit_delete(p);
  svc.flush();
  f1.get();
  f2.get();
  f3.get();
  EXPECT_EQ(svc.size(), 1u);  // duplicate multiset semantics: 2 in, 1 out
  auto snap = svc.snapshot();
  EXPECT_EQ(snap.range_count(box_around(p, 1)), 1u);
}

TEST(SpatialService, DeleteThenInsertSameGroupKeepsFifoOrder) {
  // The delete precedes the insert in the queue, so it must no-op and the
  // insert must survive — coalescing into batches may not reorder them.
  ZService svc;
  const Point2 p{{777, 888}};
  svc.submit_delete(p);
  svc.submit_insert(p);
  svc.flush();
  EXPECT_EQ(svc.size(), 1u);

  // And interleaved: ins, del, ins, del, ins -> exactly one copy left.
  const Point2 q{{555, 444}};
  svc.submit_insert(q);
  svc.submit_delete(q);
  svc.submit_insert(q);
  svc.submit_delete(q);
  svc.submit_insert(q);
  svc.flush();
  EXPECT_EQ(svc.snapshot().range_count(box_around(q, 0)), 1u);
}

TEST(SpatialService, RestartAfterStopServesTraffic) {
  ZService svc;
  svc.start();
  auto f1 = svc.submit_insert(Point2{{1, 1}});
  svc.stop();
  f1.get();
  svc.start();  // must reopen the queue, not spin on the closed flag
  auto f2 = svc.submit_insert(Point2{{2, 2}});
  EXPECT_GT(f2.get().epoch, 0u);  // background committer picked it up
  svc.stop();
  EXPECT_EQ(svc.size(), 2u);
}

TEST(SpatialService, MixedUpdateStreamMatchesOracle) {
  ZService svc(ServiceConfig{.initial_shards = 4});
  BruteForceIndex<std::int64_t, 2> oracle;
  auto pts = datagen::varden<2>(12000, 41, kMax);

  // Interleave insert groups with deletes of earlier points.
  const std::size_t batch = 1500;
  for (std::size_t lo = 0; lo < pts.size(); lo += batch) {
    const std::size_t hi = std::min(pts.size(), lo + batch);
    std::vector<Point2> ins(pts.begin() + static_cast<std::ptrdiff_t>(lo),
                            pts.begin() + static_cast<std::ptrdiff_t>(hi));
    svc.submit_insert_batch(ins);
    oracle.batch_insert(ins);
    if (lo >= batch) {
      // Delete a slice of the previous group.
      std::vector<Point2> del(
          pts.begin() + static_cast<std::ptrdiff_t>(lo - batch),
          pts.begin() + static_cast<std::ptrdiff_t>(lo - batch / 2));
      svc.submit_delete_batch(del);
      oracle.batch_delete(del);
    }
    svc.flush();
    ASSERT_EQ(svc.size(), oracle.size());
  }
  auto snap = svc.snapshot();
  testutil::expect_same_multiset(snap.flatten(), oracle.points());

  auto knn_q = datagen::ind_queries(oracle.points(), 16, 13, kMax);
  std::vector<Box2> ranges;
  for (const auto& q : knn_q) ranges.push_back(box_around(q, kMax / 30));
  testutil::expect_queries_match(snap, oracle, knn_q, 10, ranges);
}

TEST(SpatialService, EpochAdvancesPerCommitAndSnapshotsAreStable) {
  ZService svc;
  const std::uint64_t e0 = svc.epoch();
  auto old_snap = svc.snapshot();

  svc.submit_insert(Point2{{1, 2}});
  svc.flush();
  EXPECT_EQ(svc.epoch(), e0 + 1);
  svc.submit_insert(Point2{{3, 4}});
  svc.flush();
  EXPECT_EQ(svc.epoch(), e0 + 2);

  // The pinned snapshot still sees the pre-update state.
  EXPECT_EQ(old_snap.size(), 0u);
  EXPECT_EQ(old_snap.epoch(), e0);
  EXPECT_EQ(svc.snapshot().size(), 2u);
}

TEST(SpatialService, EmptyFlushAndQueriesOnEmptyService) {
  ZService svc;
  svc.flush();
  EXPECT_EQ(svc.size(), 0u);
  auto snap = svc.snapshot();
  EXPECT_TRUE(snap.knn(Point2{{5, 5}}, 3).empty());
  EXPECT_EQ(snap.range_count(box_around(Point2{{5, 5}}, 100)), 0u);
  auto fut = svc.submit_knn(Point2{{5, 5}}, 3);
  svc.flush();
  EXPECT_TRUE(fut.get().points.empty());
}

TEST(SpatialService, OutOfDomainQueryBoxesStillRoute) {
  // Corners outside the codec domain (negative, or beyond the 32-bit 2D
  // curve precision) must be clamped before code routing, not wrapped —
  // wrapping inverted the shard interval and silently returned 0.
  ZService svc(ServiceConfig{.initial_shards = 8});
  std::vector<Point2> pts{{{5, 5}}, {{700000000, 700000000}}};
  auto filler = datagen::uniform<2>(4000, 97, kMax);
  pts.insert(pts.end(), filler.begin(), filler.end());
  svc.build(pts);
  auto snap = svc.snapshot();

  const Box2 neg{{{-10, -10}}, {{10, 10}}};
  EXPECT_EQ(snap.range_count(neg), 1u);
  EXPECT_EQ(snap.range_list(neg).size(), 1u);

  const Box2 huge{{{0, 0}}, {{std::int64_t{1} << 33, std::int64_t{1} << 33}}};
  EXPECT_EQ(snap.range_count(huge), pts.size());

  const Box2 all_neg{{{-100, -100}}, {{-1, -1}}};  // fully outside: empty
  EXPECT_EQ(snap.range_count(all_neg), 0u);
}

// ---------------------------------------------------------------------------
// Shard split / merge
// ---------------------------------------------------------------------------

TEST(SpatialService, SplitsUnderGrowthAndScattersLoad) {
  ServiceConfig cfg;
  cfg.initial_shards = 1;
  cfg.split_threshold = 2000;
  cfg.merge_threshold = 1;  // effectively disable merging
  ZService svc(cfg);

  auto pts = datagen::uniform<2>(30000, 59, kMax);
  svc.submit_insert_batch(pts);
  svc.flush();

  const auto st = svc.stats();
  EXPECT_GT(st.splits, 0u);
  EXPECT_GT(st.num_shards, 4u);
  EXPECT_EQ(st.size_total, pts.size());
  // No shard still exceeds the split threshold after rebalancing (uniform
  // data has no giant equal-code runs).
  EXPECT_LE(st.max_shard_size(), cfg.split_threshold);

  // Queries remain correct across the new topology.
  BruteForceIndex<std::int64_t, 2> oracle;
  oracle.build(pts);
  auto snap = svc.snapshot();
  auto knn_q = datagen::ind_queries(pts, 12, 61, kMax);
  std::vector<Box2> ranges;
  for (const auto& q : knn_q) ranges.push_back(box_around(q, kMax / 40));
  testutil::expect_queries_match(snap, oracle, knn_q, 10, ranges);
}

TEST(SpatialService, InitialShardsActAsMergeFloor) {
  // Small dataset + large-scale default merge threshold: without the
  // min_shards floor this would collapse to one shard on the first commit.
  ZService svc(ServiceConfig{.initial_shards = 8});
  svc.build(datagen::uniform<2>(5000, 83, kMax));
  EXPECT_EQ(svc.stats().num_shards, 8u);
  svc.submit_insert(Point2{{42, 42}});
  svc.flush();
  EXPECT_EQ(svc.stats().num_shards, 8u);
}

TEST(SpatialService, MergesWhenPopulationShrinks) {
  ServiceConfig cfg;
  cfg.initial_shards = 8;
  cfg.split_threshold = 100000;
  cfg.merge_threshold = 500;
  cfg.min_shards = 1;  // allow shrink below the initial_shards floor
  ZService svc(cfg);

  auto pts = datagen::uniform<2>(20000, 67, kMax);
  svc.submit_insert_batch(pts);
  svc.flush();
  const std::size_t shards_full = svc.stats().num_shards;

  // Delete almost everything; underfull neighbours collapse.
  std::vector<Point2> del(pts.begin(), pts.end() - 100);
  svc.submit_delete_batch(del);
  svc.flush();

  const auto st = svc.stats();
  EXPECT_GT(st.merges, 0u);
  EXPECT_LT(st.num_shards, shards_full);
  EXPECT_EQ(st.size_total, 100u);
  auto snap = svc.snapshot();
  BruteForceIndex<std::int64_t, 2> oracle;
  oracle.build({pts.end() - 100, pts.end()});
  testutil::expect_same_multiset(snap.flatten(), oracle.points());
}

// The committing thread holds a snapshot across two flushes. The second
// commit needs the standby replica that snapshot pins: the grace wait times
// out and the store rebuilds the standby from live instead of wedging the
// writer. The held snapshot keeps reading its own epoch, and once it is
// released the rebuilds stop.
TEST(SpatialService, PinnedSnapshotAcrossFlushesRebuildsTheStandby) {
  const auto base = datagen::uniform<2>(4000, 91, kMax);
  ZService svc(ServiceConfig{.initial_shards = 2});
  svc.build(base);
  BruteForceIndex<std::int64_t, 2> as_built;
  as_built.build(base);
  BruteForceIndex<std::int64_t, 2> oracle;
  oracle.build(base);
  const std::uint64_t rebuilds_before = svc.stats().replica_rebuilds;

  const auto more = datagen::uniform<2>(1000, 93, kMax);
  const std::vector<Point2> gone(base.begin(), base.begin() + 500);
  std::uint64_t rebuilds_while_held = 0;
  {
    auto held = svc.snapshot();
    const std::uint64_t held_epoch = held.epoch();
    svc.submit_insert_batch(more);
    oracle.batch_insert(more);
    svc.flush();
    svc.submit_delete_batch(gone);
    oracle.batch_delete(gone);
    svc.flush();
    EXPECT_EQ(svc.epoch(), held_epoch + 2);  // both commits finished

    rebuilds_while_held = svc.stats().replica_rebuilds;
    EXPECT_GT(rebuilds_while_held, rebuilds_before);

    EXPECT_EQ(held.epoch(), held_epoch);
    const auto knn_q = datagen::ind_queries(base, 8, 95, kMax);
    std::vector<Box2> ranges;
    for (const auto& q : knn_q) ranges.push_back(box_around(q, kMax / 20));
    testutil::expect_queries_match(held, as_built, knn_q, 10, ranges);
    testutil::expect_same_multiset(held.flatten(), base);
    testutil::expect_same_multiset(svc.snapshot().flatten(), oracle.points());
  }

  for (int round = 0; round < 3; ++round) {
    const auto extra = datagen::uniform<2>(
        200, 97 + static_cast<std::uint64_t>(round), kMax);
    svc.submit_insert_batch(extra);
    oracle.batch_insert(extra);
    svc.flush();
  }
  EXPECT_EQ(svc.stats().replica_rebuilds, rebuilds_while_held);
  testutil::expect_same_multiset(svc.snapshot().flatten(), oracle.points());
}

// ---------------------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------------------

TEST(SpatialService, StatsCountOpsAndRenderJson) {
  ZService svc;
  svc.submit_insert(Point2{{1, 1}});
  svc.submit_insert(Point2{{2, 2}});
  svc.submit_delete(Point2{{1, 1}});
  svc.submit_knn(Point2{{1, 1}}, 1);
  svc.submit_range_count(box_around(Point2{{1, 1}}, 10));
  svc.submit_range_list(box_around(Point2{{1, 1}}, 10));
  auto ball_fut = svc.submit_ball(Point2{{1, 1}}, 5.0);
  svc.flush();

  // The queued ball query observed the surviving insert.
  EXPECT_EQ(ball_fut.get().count, 1u);

  const auto st = svc.stats();
  EXPECT_EQ(st.ops_insert, 2u);
  EXPECT_EQ(st.ops_delete, 1u);
  EXPECT_EQ(st.ops_knn, 1u);
  EXPECT_EQ(st.ops_range_count, 1u);
  EXPECT_EQ(st.ops_range_list, 1u);
  EXPECT_EQ(st.ops_ball, 1u);
  EXPECT_EQ(st.ops_updates(), 3u);
  EXPECT_EQ(st.ops_queries(), 4u);
  EXPECT_EQ(st.size_total, 1u);

  const std::string j = st.json();
  EXPECT_NE(j.find("\"ops_insert\":2"), std::string::npos);
  EXPECT_NE(j.find("\"ops_ball\":1"), std::string::npos);
  EXPECT_NE(j.find("\"num_shards\":"), std::string::npos);
  EXPECT_NE(j.find("\"shard_sizes\":["), std::string::npos);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
}

// ---------------------------------------------------------------------------
// Backend generality: the service is index-agnostic
// ---------------------------------------------------------------------------

template <typename ServiceT>
void exercise_backend(ServiceT&& svc) {
  auto pts = datagen::uniform<2>(8000, 71, kMax);
  svc.build(pts);
  BruteForceIndex<std::int64_t, 2> oracle;
  oracle.build(pts);

  auto extra = datagen::uniform<2>(2000, 73, kMax);
  svc.submit_insert_batch(extra);
  oracle.batch_insert(extra);
  std::vector<Point2> del(pts.begin(), pts.begin() + 1000);
  svc.submit_delete_batch(del);
  oracle.batch_delete(del);
  svc.flush();

  ASSERT_EQ(svc.size(), oracle.size());
  auto snap = svc.snapshot();
  auto knn_q = datagen::ind_queries(oracle.points(), 8, 79, kMax);
  std::vector<Box2> ranges;
  for (const auto& q : knn_q) ranges.push_back(box_around(q, kMax / 40));
  testutil::expect_queries_match(snap, oracle, knn_q, 10, ranges);
}

TEST(SpatialServiceBackends, SpacHTree) {
  exercise_backend(SpatialService<SpacHTree2>(ServiceConfig{.initial_shards = 4}));
}

TEST(SpatialServiceBackends, PkdTree) {
  exercise_backend(SpatialService<PkdTree2>(ServiceConfig{.initial_shards = 4}));
}

TEST(SpatialServiceBackends, POrthTreeWithFactory) {
  const Box2 universe{{{0, 0}}, {{kMax, kMax}}};
  SpatialService<POrthTree2> svc(
      ServiceConfig{.initial_shards = 4},
      [&] { return POrthTree2({}, universe); });
  exercise_backend(std::move(svc));
}

}  // namespace
